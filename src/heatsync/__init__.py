"""heatsync: leader synchronization of coupled 1-D heat equations.

Certificate construction and checking, closed-form gain windows with the
maximal-margin coupling gain, and a finite-difference closed-loop simulator
with CSV-oriented diagnostics.  A public name loads its module on first
read (PEP 562), so ``import heatsync`` alone loads no module of its own.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "certify": ("Certificate", "SymMatrix", "certificate_matrix", "evaluate_certificate"),
    "gains": ("ComponentPlan", "GainDesign", "Interval", "design", "k_window_partial", "search_g"),
    "graph": ("FollowerGraph", "build_graph", "connected_components", "laplacian", "leader_mask"),
    "pdesim": ("DiscreteOperator", "ErrorSeries", "Trajectory", "analytic_open_loop_spectrum",
               "assemble_operator", "fit_decay_rate", "simulate", "spectral_abscissa",
               "sync_errors", "to_grid", "trapezoid_weights"),
    "scenarios": ("NetworkConfig", "PRESETS", "SimConfig", "demo_initial_profiles"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
