"""heatsync: leader synchronization of coupled 1-D heat equations.

Certificate construction and checking, closed-form gain windows with the
maximal-margin coupling gain, and a finite-difference closed-loop simulator
with CSV-oriented diagnostics.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    NetworkConfig,
    SymMatrix,
    certificate_matrix,
    evaluate_certificate,
    trapezoid_weights,
)
from .gains import (
    ComponentPlan,
    GainDesign,
    Interval,
    design,
    k_window_partial,
    search_g,
)
from .graph import (
    FollowerGraph,
    build_graph,
    connected_components,
    laplacian,
    leader_mask,
)
from .pdesim import (
    DiscreteOperator,
    ErrorSeries,
    SimConfig,
    Trajectory,
    analytic_open_loop_spectrum,
    assemble_operator,
    fit_decay_rate,
    simulate,
    spectral_abscissa,
    sync_errors,
)
from .scenarios import PRESETS, demo_initial_profiles

__all__ = [
    "__version__",
    "Certificate",
    "ComponentPlan",
    "DiscreteOperator",
    "ErrorSeries",
    "FollowerGraph",
    "GainDesign",
    "Interval",
    "NetworkConfig",
    "PRESETS",
    "SimConfig",
    "SymMatrix",
    "Trajectory",
    "analytic_open_loop_spectrum",
    "assemble_operator",
    "build_graph",
    "certificate_matrix",
    "connected_components",
    "demo_initial_profiles",
    "design",
    "evaluate_certificate",
    "fit_decay_rate",
    "k_window_partial",
    "laplacian",
    "leader_mask",
    "search_g",
    "simulate",
    "spectral_abscissa",
    "sync_errors",
    "trapezoid_weights",
]
