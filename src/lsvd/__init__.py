"""Markovian open-system dynamics through SVD-dilated unitary circuits.

The package builds the vectorized generator of a Lindblad model,
exponentiates it, dilates the SVD of the propagator into a unitary
register program, and emulates that program exactly or with finite shots;
``classical_evolve`` gives the same populations without the circuit.  Two
benchmark model families (exciton transport with a sink, and a
radical-pair compass with shelving yields) ship ready to run from the
``lsvd`` CLI.
"""

__version__ = "0.1.0"

from .circuit import (
    SVDCircuit,
    apply_circuit,
    build_svd_circuit,
    estimate_resources,
    run_exact,
)
from .errors import LsvdError
from .lindblad import (
    Channel,
    LindbladModel,
    PopulationTrace,
    build_superoperator,
    lindblad_rhs,
    load_model,
    model_from_dict,
    model_to_dict,
    propagator,
    save_model,
    trace_preservation_defect,
    vectorize,
    wavenumber_to_angular_frequency,
)
from .models import (
    BUILTIN_MODELS,
    FMOParams,
    RPMParams,
    builtin_model,
    default_theta_grid,
    fmo_model,
    rpm_model,
    theta_sweep,
    yields,
)
from .numerics import DEFAULT_TOL, expm, svd
from .pipeline import classical_evolve, quantum_evolve, qubit_counts
from .sampler import (
    DEFAULT_SHOTS,
    RNG_ALGORITHM,
    ShotResult,
    estimate_populations,
    sample,
    substream_seed,
)
