"""One fresh-process run of the ``lsvd`` CLI, timed from outside the package.

    python3 perfbench/child.py RESULT_JSON SRC_DIR TRACE(0|1) [CLI ARGS...]

With no CLI arguments the process stops right before ``lsvd.cli.main``
would be called, which measures set-up alone.  The result file holds the
monotonic clock reading just before ``main`` (set-up ends there), the one
after it returns, the exit code, the peak resident set and, when traced,
the spans.  ``time.monotonic`` reads the system-wide ``CLOCK_MONOTONIC``, so the
parent compares it with its own reading taken just before the spawn.
"""

import json
import os
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``getrusage`` is not used: after a fork and exec its ``ru_maxrss``
    starts from the parent's resident set, which would count the
    benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, src, traced, *cli_args = sys.argv[1:]
    sys.path.insert(0, src)
    import lsvd.cli

    if not os.path.realpath(lsvd.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"lsvd was imported from {lsvd.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if traced == "1":
        from spans import CLI_SPAN, Recorder

        recorder = Recorder()
        recorder.install()
        cli_main = recorder.wrap(lsvd.cli.main, CLI_SPAN)
    else:
        cli_main = lsvd.cli.main

    env = {k: os.environ.get(k) for k in ("LSVD_THREADS", "OPENBLAS_NUM_THREADS")}
    ready = time.monotonic()
    result = {"ready": ready, "env": env}
    if cli_args:
        try:
            result["rc"] = cli_main(cli_args)
        except Exception:  # reported as a failed run, never hidden
            result["rc"] = None
            traceback.print_exc()
        result["done"] = time.monotonic()
    result["peak_rss_kb"] = peak_rss_kb()
    if recorder is not None:
        result["spans"] = [s.as_list() for s in recorder.spans]
        result["missing"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
