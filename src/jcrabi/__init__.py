"""jcrabi: Jaynes-Cummings vs quantum Rabi toolkit.

Numerics for the two standard cavity-QED models, built in the lab frame on a
truncated boson space: spectrum sweeps and their counter-rotating
deviations, mean-field Born-Oppenheimer energy surfaces, and geometric
phases of rotated eigenstate families computed by three independent
estimators.  Most solves run on the two real tridiagonal parity sectors of
each Hamiltonian; the dense joint-space matrices are their oracle.
"""

__version__ = "0.1.0"

from .fock import TruncationConfig, embed, ladder_ops, qubit_ops
from .linalg import (
    ConvergenceError,
    EigenSystem,
    HermiticityError,
    commutator_deviation,
    hermitian_eig,
)
from .models import (
    DressedDoublet,
    ModelKind,
    ModelParams,
    build_jc,
    build_rabi,
    empty_state_energy,
    jc_doublet_analytic,
    parity_chains,
    parity_sectors,
    symmetry_ops,
)
from .spectra import (
    ConvergenceTable,
    CrossingResult,
    SpectrumTable,
    bloch_siegert,
    convergence_study,
    ground_crossing,
    spectrum_sweep,
)
from .surfaces import (
    DegeneracyReport,
    SurfaceGrid,
    berry_boa_jc,
    berry_exact_jc,
    boa_radius,
    boa_surface,
    classify_degeneracy,
)
from .berry import (
    LoopResult,
    TrackedFamily,
    TrackingError,
    FockLoop,
    connection_curve,
    eig_family,
    fock_loop,
    gauge_fix,
    wilson_loop,
    wrap_phase,
)
