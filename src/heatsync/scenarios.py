"""The config layer: the network and simulation configs, the built-in scenarios
and the JSON config format, read and written here alone.

``NetworkConfig`` holds a scenario's graph, physics and gains, and
``SimConfig`` a run's discretization and scenario data;
``_resolve_initial_conditions`` turns the pair into initial fields.
``load_scenario`` reads a JSON config file (its keys are ``CONFIG_KEYS``
and ``GRAPH_KEYS``; agent indices are 1-based) into a ``Scenario``,
checking profiles by their shapes, so a config is read and checked without
building its grid or loading the certificates or the simulator.  ``network_block`` writes a net as the
config keys it is read from; a design report is built with it, so the
report reads back as a config.  ``refuse_beyond_memory`` refuses, as a
ValueError, a run or a sweep grid that physical memory cannot hold.
``FEASIBILITY_MARGIN`` is the verdict threshold that ``certify`` applies
and every report records.

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

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .graph import FollowerGraph, _as_float, _as_int, build_graph, leader_mask

FORCING_RATE = np.pi  # angular rate w of the forcing's sin(w t)
# A certificate is feasible when its top eigenvalue lies below -FEASIBILITY_MARGIN.
FEASIBILITY_MARGIN = 1e-9

Gains = Union[float, Sequence[float]]


def refuse_beyond_memory(size: int, what: str) -> None:
    """ValueError "``what`` ``size`` bytes, more than ..." when ``size`` bytes
    exceed physical memory, ``SC_PAGE_SIZE * SC_PHYS_PAGES``."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:
        raise ValueError(f"{what} {size} bytes, more than the {memory} bytes of physical memory")


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


def _as_gain_vector(value: Gains, n: int, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(n, float(value))
    vec = np.asarray(value, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence")
    return vec


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """One scenario: graph topology plus physical and control parameters.

    ``k`` is the boundary feedback gain (scalar or one value per follower;
    values on followers without leader access are inert: ``boundary_gains``
    multiplies them by the leader mask).  ``g`` is the in-domain coupling
    gain, with the sign convention that the coupling term is ``+ g * L @ z``,
    so attractive coupling means g < 0.  The parameters are stored as
    floats (a per-follower gain as a list of them); a bool, a string or a
    value that is not finite raises ValueError.
    """

    graph: FollowerGraph
    alpha: float
    beta: float = 1.0
    k: Gains = 0.0
    g: Gains = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "k", "g"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        # JSON configs may carry NaN or Infinity; no verdict means anything then.
        if not (isinstance(self.alpha, float) and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite number, got {self.alpha}")
        if not (isinstance(self.beta, float) and np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite number, got {self.beta}")
        for name in ("k", "g"):
            if not np.isfinite(_as_gain_vector(getattr(self, name), self.graph.n, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def k_vector(self) -> np.ndarray:
        return _as_gain_vector(self.k, self.n, "k")

    @property
    def boundary_gains(self) -> np.ndarray:
        """k_i * m_i: zero on followers without a leader link, whatever k says."""
        return self.k_vector * leader_mask(self.graph).diagonal()

    @property
    def g_vector(self) -> np.ndarray:
        return _as_gain_vector(self.g, self.n, "g")

    @property
    def k_scalar(self) -> float | None:
        return float(self.k) if np.isscalar(self.k) else None

    @property
    def g_scalar(self) -> float | None:
        return float(self.g) if np.isscalar(self.g) else None

    def with_gains(self, k: Gains | None = None, g: Gains | None = None):
        changes = {}
        if k is not None:
            changes["k"] = k
        if g is not None:
            changes["g"] = g
        return replace(self, **changes)


SOURCE_SELECTORS = ("off", "paper")
THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}  # theta of each time-stepping scheme


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Discretization and scenario data for one simulation run.

    ``initial_conditions`` is either a preset token ("sectionV"), a pair of
    arrays (followers (N, nx), leader (nx,)), stored as float arrays, or
    None for all-zero fields.  A bool, a string or a value that is not
    finite in ``dt``, ``t_end``, ``t_end / dt`` or a profile, or a step count
    beyond int64, raises ValueError.
    ``source`` selects the forcing term: "off" (the default) or "paper"
    (the demo forcing (1 + cos(2 pi x)) sin(pi t), applied to every agent
    and the leader).
    """

    nx: int = 101
    dt: float = 1e-3
    t_end: float = 2.5
    source: str = "off"
    scheme: str = "crank_nicolson"
    output_stride: int = 10
    initial_conditions: object = None

    def __post_init__(self):
        # counts are never truncated: 41.0 is stored as 41, 41.9 is rejected
        object.__setattr__(self, "nx", _as_int(self.nx, "nx"))
        object.__setattr__(self, "output_stride", _as_int(self.output_stride, "output_stride"))
        if self.nx < 16:
            raise ValueError(f"nx must be >= 16, got {self.nx}")
        for name in ("dt", "t_end"):
            value = _as_float(getattr(self, name), name)
            if not (isinstance(value, float) and np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
            object.__setattr__(self, name, value)
        # the step indices are int64: a larger count is refused here, not inside numpy
        if not (np.isfinite(self.t_end / self.dt) and self.n_steps <= np.iinfo(np.int64).max):
            raise ValueError("t_end / dt must be a finite step count below 2**63, "
                             f"got t_end={self.t_end} and dt={self.dt}")
        if self.source not in SOURCE_SELECTORS:
            raise ValueError(f"source must be one of {SOURCE_SELECTORS}")
        if self.scheme not in THETA:
            raise ValueError(f"scheme must be one of {tuple(THETA)}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        ic = self.initial_conditions
        if isinstance(ic, str) and ic != "sectionV":
            raise ValueError(f"unknown initial-condition preset {ic!r}; expected 'sectionV'")
        if ic is not None and not isinstance(ic, str):
            ic = tuple(
                np.array(_as_float(part, f"initial {name}"))
                for name, part in zip(("followers", "leader"), ic, strict=True)
            )
            if not all(np.isfinite(part).all() for part in ic):
                raise ValueError("initial conditions must be finite")
            object.__setattr__(self, "initial_conditions", ic)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


def _check_initial_conditions(net: NetworkConfig, sim: SimConfig) -> None:
    """ValueError when ``sim``'s initial profiles do not fit ``net`` on ``sim``'s grid,
    read off their shapes: no grid or profile is built."""
    ic = sim.initial_conditions
    if isinstance(ic, str) and net.n != 5:  # "sectionV", the one token SimConfig accepts
        raise ValueError(f"the sectionV profiles define 5 followers, config has {net.n}")
    if isinstance(ic, tuple):
        followers, leader = ic
        shape = followers.shape if followers.size else (0, sim.nx)  # [] has shape (0,)
        if shape != (net.n, sim.nx) or leader.shape != (sim.nx,):
            raise ValueError(
                f"initial conditions must have shapes ({net.n}, {sim.nx}) and "
                f"({sim.nx},), got {shape} and {leader.shape}"
            )


def _resolve_initial_conditions(
    net: NetworkConfig, sim: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    _check_initial_conditions(net, sim)
    ic = sim.initial_conditions
    if ic is None:
        return np.zeros((net.n, sim.nx)), np.zeros(sim.nx)
    if isinstance(ic, str):
        return demo_initial_profiles(sim.grid)
    followers, leader = ic
    return followers.reshape(net.n, sim.nx), leader


GRAPH_KEYS = ("n", "edges", "leader_set")
# a design report doubles as a config, so its own keys are accepted too
CONFIG_KEYS = ("scenario_preset", "graph", "alpha", "beta", "k", "g", "sim", "command",
               "version", "k_window_lo", "k_window_hi", "max_eig", "margin", "components")


@dataclass
class Scenario:
    net: NetworkConfig
    sim: SimConfig
    preset: str | None
    raw: dict


def _block(value, name: str, known) -> dict:
    """``value`` as a JSON object holding only ``known`` keys, else a ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"'{name}' must be a JSON object")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(map(repr, unknown))}")
    return value


def load_scenario(path) -> Scenario:
    """Read and resolve a scenario config file.

    A ``scenario_preset`` stands for its ``PRESETS`` entry: the network,
    physics, gains, forcing, initial profiles and horizon, and a file that
    also sets one of them is refused; the ``sim`` block still controls the
    numerics (nx, dt, scheme, output stride).  Without a preset the file
    must carry the graph and physics explicitly.  Every refusal is a
    ValueError that names the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        _block(raw, "top-level", CONFIG_KEYS)
        sim_fields = dict(_block(raw.get("sim", {}), "sim", [f.name for f in fields(SimConfig)]))
        preset, config = raw.get("scenario_preset"), raw
        if preset is not None:
            if preset not in tuple(PRESETS):  # a tuple: a list preset is unhashable
                raise ValueError(
                    f"unknown scenario_preset {preset!r}; expected one of {tuple(PRESETS)}"
                )
            entry = PRESETS[preset]
            pinned = [key for key in entry if key != "sim" and key in raw]
            pinned += [f"sim.{key}" for key in entry["sim"] if key in sim_fields]
            if pinned:
                raise ValueError(f"scenario_preset {preset!r} pins {', '.join(pinned)}")
            config = {**raw, **entry}
            sim_fields.update(entry["sim"])
        if "graph" not in config:
            raise ValueError("config needs a 'graph' block or a scenario_preset")
        block = _block(config["graph"], "graph", GRAPH_KEYS)
        graph = build_graph(block.get("n"), block.get("edges", []), block.get("leader_set", []))
        alpha, beta = config.get("alpha", 0.0), config.get("beta", 1.0)
        k, g = config.get("k", 0.0), config.get("g", 0.0)
        initial = sim_fields.get("initial_conditions")
        if isinstance(initial, dict):
            initial = _block(initial, "sim.initial_conditions", ("followers", "leader"))
            sim_fields["initial_conditions"] = (initial["followers"], initial["leader"])
        elif initial is not None and not isinstance(initial, str):
            raise ValueError("sim.initial_conditions must be a preset token or an object")
        net = NetworkConfig(graph=graph, alpha=alpha, beta=beta, k=k, g=g)
        sim = SimConfig(**sim_fields)
        # profile shapes are checked here, before any command runs or writes
        _check_initial_conditions(net, sim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad config {path}: {exc}") from exc
    return Scenario(net=net, sim=sim, preset=preset, raw=raw)


def network_block(net: NetworkConfig) -> dict:
    """The config keys ``graph``, ``alpha``, ``beta``, ``k`` and ``g`` that read back as ``net``."""
    return {"graph": {"n": net.n, "edges": [list(e) for e in net.graph.edges],
                      "leader_set": sorted(net.graph.leader_set)},
            "alpha": net.alpha, "beta": net.beta, "k": net.k, "g": net.g}
