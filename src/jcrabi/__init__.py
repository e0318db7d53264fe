"""jcrabi: Jaynes-Cummings vs quantum Rabi toolkit.

Numerics for the two standard cavity-QED models, in the lab frame on a
truncated boson space: spectrum sweeps and their counter-rotating
deviations, mean-field Born-Oppenheimer energy surfaces, and geometric
phases of rotated eigenstate families computed by three independent
estimators.  Every solve runs on the two real tridiagonal parity sectors
of each Hamiltonian (models.parity_sectors); no joint-space matrix is
built.
"""

__version__ = "0.1.0"

from .fock import TruncationConfig
from .linalg import ConvergenceError
from .models import (
    DressedDoublet,
    ModelKind,
    ModelParams,
    empty_state_energy,
    jc_doublet_analytic,
    parity_chains,
    parity_sectors,
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
    TrackingError,
    FockLoop,
    connection_curve,
    fock_loop,
    gauge_fix,
    wilson_loop,
    wrap_phase,
)
