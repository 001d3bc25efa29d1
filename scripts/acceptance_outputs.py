"""Run the 12 acceptance runs of the CLI and print the SHA-256 of each file
they write, to compare two trees byte for byte.

Usage (from any directory):

    python scripts/acceptance_outputs.py OUTDIR

Each run goes in-process through ``lsvd.cli.main`` of this tree's ``src``
and writes under a fixed name into OUTDIR: 11 CSV tables with their
``.meta.json`` sidecars and one JSON table, 23 files.  The model files are
passed by their paths relative to the tree's root and the outputs by their
absolute paths, and the metadata records both, so run it on both trees
with the same OUTDIR and compare the printed lines.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (output name, CLI arguments) of each acceptance run.
RUNS = [
    ("rpm.csv", ["rpm"]),
    ("rpm-sampled.csv", ["rpm", "--mode", "sampled", "--shots", "65536", "--seed", "3"]),
    ("sweep.csv", ["sweep"]),
    ("sweep-sampled.csv", ["sweep", "--mode", "sampled", "--shots", "65536", "--seed", "5"]),
    ("fmo3.csv", ["fmo", "--sites", "3"]),
    ("fmo7-sampled.csv", ["fmo", "--sites", "7", "--mode", "sampled", "--shots", "524288", "--seed", "1"]),
    ("rpm-dissipative-flags.csv", ["rpm", "--b0", "5e-5", "--theta", "30", "--gamma-diss", "1e4"]),
    ("fmo7-dephasing.json", ["fmo", "--sites", "7", "--gamma-deph", "0.02", "--format", "json"]),
    ("sweep-hyperfine.csv", ["sweep", "--theta-step", "4.5", "--hyperfine-az", "2e7"]),
    ("evolve-fmo7.csv", ["evolve", "--model", "src/lsvd/data/fmo7.json"]),
    ("evolve-rpm-sampled.csv", ["evolve", "--model", "src/lsvd/data/rpm.json", "--mode", "sampled"]),
    ("rpm-dissipative-model.csv", ["rpm", "--model", "src/lsvd/data/rpm-dissipative.json"]),
]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python scripts/acceptance_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    from lsvd.cli import main as cli

    os.chdir(ROOT)  # the model paths above are relative to the tree's root
    written = []
    for name, run in RUNS:
        out = outdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli([*run, "--out", str(out)])
        if code != 0:
            print(f"error: lsvd {' '.join(run)} exited with {code}", file=sys.stderr)
            return 1
        written += [out] if name.endswith(".json") else [out, Path(f"{out}.meta.json")]
    for path in written:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
