"""Built-in scenarios: the paper's Section V example and its two ablations.

``PRESETS`` maps each ``scenario_preset`` token to the config it stands
for, written as a config file would write it: five followers on a tree
(edges 1-3, 2-4, 3-4, 4-5) with followers 1..3 hearing the leader, zero
reaction rate, unit diffusion, the shared forcing, the Section V initial
profiles and a horizon of 2.5.  The presets differ in their gains:

* ``sectionV``  - boundary gain 3, coupling gain -2 (full closed loop)
* ``fig5_k0``   - boundary gain 0 (leader links cut, coupling only)
* ``fig6_g0``   - coupling gain 0 (leader links only, agents 4 and 5 isolated)
"""
from __future__ import annotations

import numpy as np

FORCING_RATE = np.pi  # angular rate w of the forcing's sin(w t)

_SECTION_V = {
    "graph": {"n": 5, "edges": [[1, 3], [2, 4], [3, 4], [4, 5]], "leader_set": [1, 2, 3]},
    "alpha": 0.0,
    "beta": 1.0,
    "k": 3.0,
    "g": -2.0,
    "sim": {"source": "paper", "t_end": 2.5, "initial_conditions": "sectionV"},
}
PRESETS = {
    "sectionV": _SECTION_V,
    "fig5_k0": {**_SECTION_V, "k": 0.0},
    "fig6_g0": {**_SECTION_V, "g": 0.0},
}


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
