"""Built-in demo scenarios.

The demo network has five followers on a tree (edges 1-3, 2-4, 3-4, 4-5)
with followers 1..3 hearing the leader, zero reaction rate, unit diffusion
and a shared forcing term.  Three preset variants exist, selected by the
preset tokens used in config files:

* ``sectionV``  - boundary gain 3, coupling gain -2 (full closed loop)
* ``fig5_k0``   - boundary gain 0 (leader links cut, coupling only)
* ``fig6_g0``   - coupling gain 0 (leader links only, agents 4 and 5 isolated)
"""
from __future__ import annotations

import numpy as np

from .graph import FollowerGraph, build_graph

DEMO_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5))
DEMO_LEADERS = (1, 2, 3)
DEMO_ALPHA = 0.0
DEMO_BETA = 1.0
DEMO_K = 3.0
DEMO_G = -2.0
DEMO_T_END = 2.5
FORCING_RATE = np.pi  # angular rate w of the forcing's sin(w t)

# (boundary gain, coupling gain) of each preset
PRESET_GAINS = {"sectionV": (DEMO_K, DEMO_G), "fig5_k0": (0.0, DEMO_G), "fig6_g0": (DEMO_K, 0.0)}
PRESET_NAMES = tuple(PRESET_GAINS)


def demo_graph() -> FollowerGraph:
    return build_graph(5, DEMO_EDGES, DEMO_LEADERS)


def demo_initial_profiles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial profiles of the five demo followers and the leader.

    The leader profile is 2 + cos(pi x) + 2 cos(7x): the argument of its last
    term is 7x, not 7*pi*x.
    """
    x = np.asarray(x, dtype=float)
    followers = np.vstack(
        [
            0.5 + 2.0 * np.cos(5 * np.pi * x) + np.cos(np.pi * x),
            np.ones_like(x),
            2.0 * np.cos(5 * np.pi * x),
            1.5 - 2.0 * np.cos(5 * np.pi * x),
            0.5 * np.cos(7 * np.pi * x),
        ]
    )
    leader = 2.0 + np.cos(np.pi * x) + 2.0 * np.cos(7 * x)
    return followers, leader


def forcing_shape(x: np.ndarray) -> np.ndarray:
    """Spatial factor 1 + cos(2 pi x) of the demo forcing."""
    return 1.0 + np.cos(2 * np.pi * np.asarray(x, dtype=float))


def forcing_amplitude(t: float) -> float:
    """Temporal factor sin(FORCING_RATE t) of the demo forcing."""
    return np.sin(FORCING_RATE * t)


def preset_gains(name: str) -> tuple[float, float]:
    """(boundary gain, coupling gain) for a preset token."""
    if name not in PRESET_GAINS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return PRESET_GAINS[name]
