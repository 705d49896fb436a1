"""Seeded scenario generation and the benchmark workloads.

A workload is a scenario config (written as explicit JSON, so the program
receives nothing but the file) plus the list of CLI commands one session
runs on it.  Every workload runs ``certify``, ``design``, ``simulate`` and a
certificate-only ``sweep`` so that each end-to-end metric exists on every
workload; ``spectrum`` runs only on the demo network, the one network on
which the program's power iteration is known to converge in reasonable time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEMO_EDGES = [[1, 3], [2, 4], [3, 4], [4, 5]]
DEMO_LEADERS = [1, 2, 3]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    sweep_k: tuple[float, float, int]
    sweep_g: tuple[float, float, int]
    commands: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.config["graph"]["n"]

    @property
    def nx(self) -> int:
        return self.config["sim"]["nx"]

    @property
    def n_steps(self) -> int:
        sim = self.config["sim"]
        return max(1, int(round(sim["t_end"] / sim["dt"])))

    @property
    def sweep_cells(self) -> int:
        return self.sweep_k[2] * self.sweep_g[2]


WHY = {
    "demo": "the paper's Section V scenario; import, CLI writing and the 2500-step loop dominate",
    "large_network": "N=32 random graph, 3333-dim state: the dense closed-loop operator and its LU dominate",
}


def random_connected_graph(rng: np.random.Generator, n: int, leaders: int, extra_edges: int) -> dict:
    """Random spanning tree plus ``extra_edges`` distinct chords; 1-based."""
    perm = rng.permutation(n) + 1
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = int(perm[i]), int(perm[j])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + extra_edges:
        a, b = (int(v) for v in rng.integers(1, n + 1, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    leader_set = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=leaders, replace=False))
    return {"n": n, "edges": [list(e) for e in sorted(edges)], "leader_set": leader_set}


def smooth_profiles(rng: np.random.Generator, n: int, nx: int) -> dict:
    """Seeded smooth fields: an offset plus four decaying cosine modes."""
    x = np.linspace(0.0, 1.0, nx)
    modes = np.cos(np.outer(np.arange(1, 5), np.pi * x))

    def field() -> list[float]:
        coeffs = rng.normal(size=4) / np.arange(1, 5)
        return (rng.uniform(-1.0, 2.0) + coeffs @ modes).tolist()

    return {"followers": [field() for _ in range(n)], "leader": field()}


def demo_profiles(nx: int) -> dict:
    """The Section V initial profiles (the leader term is 2 cos(7x))."""
    x = np.linspace(0.0, 1.0, nx)
    c5 = np.cos(5 * np.pi * x)
    followers = [
        0.5 + 2.0 * c5 + np.cos(np.pi * x),
        np.ones_like(x),
        2.0 * c5,
        1.5 - 2.0 * c5,
        0.5 * np.cos(7 * np.pi * x),
    ]
    leader = 2.0 + np.cos(np.pi * x) + 2.0 * np.cos(7 * x)
    return {"followers": [f.tolist() for f in followers], "leader": leader.tolist()}


def _config(graph: dict, k: float, g: float, nx: int, t_end: float, profiles: dict) -> dict:
    return {
        "graph": graph,
        "alpha": 0.0,
        "beta": 1.0,
        "k": k,
        "g": g,
        "sim": {
            "nx": nx,
            "dt": 1e-3,
            "t_end": t_end,
            "source": "paper",
            "scheme": "crank_nicolson",
            "output_stride": 10,
            "initial_conditions": profiles,
        },
    }


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    ``scale`` < 1 shrinks agent counts, grids, horizons and sweep grids for
    the smoke run; the benchmark itself always uses 1.
    """
    rng = np.random.default_rng([seed, sorted(WHY).index(name)])

    def size(v: int, floor: int) -> int:
        return max(floor, int(round(v * scale)))

    demo_graph = {"n": 5, "edges": DEMO_EDGES, "leader_set": DEMO_LEADERS}
    if name == "demo":
        nx = size(101, 21)
        cfg = _config(demo_graph, 3.0, -2.0, nx, 2.5 * scale, demo_profiles(nx))
        return Workload(name, WHY[name], cfg, (1.0, 9.0, 9), (-4.0, 0.0, 5),
                        ("certify", "design", "simulate", "spectrum", "sweep"))
    if name == "large_network":
        n, nx = size(32, 6), size(101, 21)
        graph = random_connected_graph(rng, n, n // 2, n // 2)
        # Fixed gains, so that later changes to `design` leave `simulate` alone.
        cfg = _config(graph, math.pi**2 / 2, -2.0, nx, 0.25 * scale, smooth_profiles(rng, n, nx))
        cells = size(3, 2)
        return Workload(name, WHY[name], cfg, (1.0, 9.0, cells), (-8.0, -1.0, cells),
                        ("certify", "design", "simulate", "sweep"))
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")
