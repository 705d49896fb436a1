"""Independent references for every CLI output the benchmark checks.

Nothing here imports heatsync: the certificate is rebuilt from its
documented block form and solved with LAPACK ``eigvalsh``, the closed loop
is reassembled as a sparse matrix from the documented discretization, the
reference trajectory uses Crank-Nicolson at half the program's step, and
the spectral abscissa comes from shift-invert ``eigs``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs, splu

FEASIBILITY_MARGIN = 1e-9

# Agreement of a reported top eigenvalue with eigvalsh, relative to the
# matrix norm; the program's Jacobi solver stops at 1e-11 of it.
EIG_RTOL = 1e-8

# Simulation outputs against the half-step reference, relative to the
# largest value of each quantity.  Measured on both workloads and on the
# demo network at nx=401, the L2 error columns of Crank-Nicolson,
# Crank-Nicolson with a Rannacher start and TR-BDF2 at dt=1e-3 stay within
# 3e-4 of it, while backward Euler (>= 2.7e-3), a boundary gain 2 % off
# (>= 2.6e-3) or a coupling gain 5 % off (>= 6e-3) fall outside SIM_RTOL.
# Pointwise fields (boundary traces, summed error field) carry
# Crank-Nicolson's undamped stiff modes, up to 4e-3 at nx=401, so
# SIM_RTOL_POINTWISE only catches gross errors there.
SIM_RTOL = 1e-3
SIM_RTOL_POINTWISE = 2e-2
REF_SUBSTEPS = 2

# Spectral abscissa from the CLI (a power iteration on the one-step
# propagator today) against the semi-discrete value from eigs.  On the
# demo the two are -0.8354 and -0.83559.
SPECTRUM_TOL = 2e-3


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _laplacian(graph: dict) -> np.ndarray:
    n = graph["n"]
    lap = np.zeros((n, n))
    for i, j in graph["edges"]:
        lap[i - 1, j - 1] -= 1.0
        lap[j - 1, i - 1] -= 1.0
        lap[i - 1, i - 1] += 1.0
        lap[j - 1, j - 1] += 1.0
    return lap


def _mask(graph: dict) -> np.ndarray:
    m = np.zeros(graph["n"])
    m[[v - 1 for v in graph["leader_set"]]] = 1.0
    return m


# --------------------------------------------------------------- certificate


def certificate(cfg: dict, k: float, g: float) -> np.ndarray:
    """The 2N x 2N certificate with identity weight and scalar gains."""
    graph = cfg["graph"]
    n, alpha, beta = graph["n"], cfg["alpha"], cfg["beta"]
    kbar = k * np.diag(_mask(graph))
    glap = g * _laplacian(graph)
    eye = np.eye(n)
    top = np.hstack([-(beta * math.pi**2 / 2) * eye, beta * kbar])
    bottom = np.hstack([beta * kbar, 2 * alpha * eye - 2 * beta * kbar + glap])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class Verdict:
    max_eig: float
    feasible: bool
    tol: float

    def check(self, max_eig: float, feasible: bool, what: str) -> None:
        _require(abs(max_eig - self.max_eig) <= self.tol,
                 f"{what}: max_eig {max_eig!r} vs eigvalsh {self.max_eig!r}")
        if abs(self.max_eig + FEASIBILITY_MARGIN) > self.tol:
            _require(feasible == self.feasible,
                     f"{what}: feasible={feasible} but eigvalsh gives {self.max_eig!r}")


def verdict(cfg: dict, k: float, g: float) -> Verdict:
    c = certificate(cfg, k, g)
    top = float(np.linalg.eigvalsh(c)[-1])
    tol = EIG_RTOL * max(1.0, float(np.linalg.norm(c)))
    return Verdict(top, top < -FEASIBILITY_MARGIN, tol)


def check_certify(report_path: Path, exit_code: int, ref: Verdict) -> None:
    report = json.loads(report_path.read_text())
    ref.check(float(report["max_eig"]), bool(report["feasible"]), "certify")
    _require(exit_code == (0 if report["feasible"] else 1), f"certify exit code {exit_code}")
    _require(abs(report["margin"] - max(0.0, -report["max_eig"])) <= ref.tol, "certify margin")


def check_design(cfg: dict, report_path: Path) -> dict:
    report = json.loads(report_path.read_text())
    k, g = float(report["k"]), float(report["g"])
    ref = verdict(cfg, k, g)
    ref.check(float(report["max_eig"]), True, "design")
    _require(ref.feasible, f"designed gains k={k!r}, g={g!r} are not certified")
    _require(report["graph"] == cfg["graph"], "design report changed the graph")
    return report


def sweep_reference(cfg: dict, k_range, g_range) -> list[tuple[float, float, Verdict]]:
    return [(k, g, verdict(cfg, k, g))
            for k in np.linspace(*k_range) for g in np.linspace(*g_range)]


def check_sweep(csv_path: Path, ref: list) -> None:
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(ref), f"sweep has {len(rows)} rows, expected {len(ref)}")
    for row, (k, g, v) in zip(rows, ref):
        _require(math.isclose(float(row["k"]), k) and math.isclose(float(row["g"]), g, abs_tol=1e-12),
                 f"sweep row order: ({row['k']}, {row['g']}) vs ({k}, {g})")
        _require(row["max_eig_omega"] != "", f"sweep cell ({k}, {g}) failed")
        v.check(float(row["max_eig_omega"]), row["feasible"] == "true", f"sweep cell ({k}, {g})")


# ------------------------------------------------------------------ simulate


def closed_loop(cfg: dict, with_leader: bool = True) -> sp.csr_matrix:
    """Sparse method-of-lines generator of the documented discretization.

    With the leader the state is (z_1 .. z_N, z_leader); without it the
    matrix is the follower error subsystem.
    """
    graph, sim = cfg["graph"], cfg["sim"]
    n, nx, beta = graph["n"], sim["nx"], cfg["beta"]
    dx = 1.0 / (nx - 1)
    stencil = sp.diags([np.ones(nx - 1), -2.0 * np.ones(nx), np.ones(nx - 1)], [-1, 0, 1], format="lil")
    stencil[0, 1] = 2.0
    stencil[nx - 1, nx - 2] = 2.0
    heat = (beta / dx**2) * stencil.tocsr() + cfg["alpha"] * sp.identity(nx)
    blocks = n + 1 if with_leader else n
    coupling = np.zeros((blocks, blocks))
    coupling[:n, :n] = cfg["g"] * _laplacian(graph)
    a = sp.kron(sp.identity(blocks), heat) + sp.kron(sp.csr_matrix(coupling), sp.identity(nx))
    w = np.full(nx, dx)
    w[0] = w[-1] = dx / 2
    flux = 2.0 * beta / dx
    rows, cols, vals = [], [], []
    for i in np.flatnonzero(_mask(graph)):
        gain = flux * cfg["k"]
        rows += [i * nx] * nx
        cols += list(i * nx + np.arange(nx))
        vals += list(-gain * w)
        if with_leader:
            rows += [i * nx] * nx
            cols += list(n * nx + np.arange(nx))
            vals += list(gain * w)
    feedback = sp.csr_matrix((vals, (rows, cols)), shape=a.shape)
    return (a + feedback).tocsr()


def forcing(x: np.ndarray, t: float) -> np.ndarray:
    return (1.0 + np.cos(2 * np.pi * x)) * np.sin(np.pi * t)


@dataclass(frozen=True)
class SimReference:
    times: np.ndarray  # (frames,)
    per_agent: np.ndarray  # (n, frames)
    total: np.ndarray
    pairwise: np.ndarray
    boundary: np.ndarray  # (frames, n + 1): z_i(1) and the leader's
    avg_field: np.ndarray  # (frames, nx)


def simulate_reference(cfg: dict) -> SimReference:
    graph, sim = cfg["graph"], cfg["sim"]
    n, nx, dt = graph["n"], sim["nx"], sim["dt"]
    x = np.linspace(0.0, 1.0, nx)
    w = np.full(nx, 1.0 / (nx - 1))
    w[0] = w[-1] = w[1] / 2
    n_steps = max(1, int(round(sim["t_end"] / dt)))
    stride = sim["output_stride"]
    h = dt / REF_SUBSTEPS
    a = closed_loop(cfg)
    eye = sp.identity(a.shape[0], format="csc")
    implicit = splu((eye - (h / 2) * a).tocsc())
    explicit = (eye + (h / 2) * a).tocsr()
    ic = sim["initial_conditions"]
    y = np.concatenate([np.asarray(ic["followers"], float).ravel(), np.asarray(ic["leader"], float)])
    source = sim["source"] == "paper"
    frames, times = [y], [0.0]
    for step in range(1, n_steps + 1):
        for sub in range(REF_SUBSTEPS):
            t_mid = (step - 1) * dt + (sub + 0.5) * h
            rhs = explicit @ y
            if source:
                rhs += h * np.tile(forcing(x, t_mid), n + 1)
            y = implicit.solve(rhs)
        if step % stride == 0 or step == n_steps:
            frames.append(y)
            times.append(step * dt)
    z = np.array(frames).reshape(len(times), n + 1, nx)
    err = z[:, :n, :] - z[:, n:, :]
    per = np.sqrt(np.einsum("tax,x->at", err**2, w))
    diffs = z[:, :n, None, :] - z[:, None, :n, :]
    pairwise = np.sqrt(np.einsum("tijx,x->tij", diffs**2, w)).max(axis=(1, 2))
    return SimReference(
        times=np.array(times),
        per_agent=per,
        total=np.sqrt((per**2).sum(axis=0)),
        pairwise=pairwise,
        boundary=z[:, :, -1],
        avg_field=err.sum(axis=1),
    )


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _close(got: np.ndarray, want: np.ndarray, what: str, rtol: float = SIM_RTOL) -> None:
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    _require(bool(np.isfinite(got).all()), f"{what}: non-finite values")
    scale = max(1e-12, float(np.abs(want).max(initial=0.0)))
    worst = float(np.abs(got - want).max(initial=0.0)) / scale
    _require(worst <= rtol, f"{what}: relative deviation {worst:.2e} > {rtol:.0e}")


def check_simulate(cfg: dict, out_dir: Path, ref: SimReference, snapshots: list[float]) -> int:
    """Check the three CSVs and the manifest; returns the bytes written."""
    n, nx = cfg["graph"]["n"], cfg["sim"]["nx"]
    header, errors = _read_csv(out_dir / "errors.csv")
    _require(header == ["t"] + [f"err_agent_{i + 1}" for i in range(n)] + ["err_total", "pairwise_max"],
             "errors.csv header")
    _require(np.allclose(errors[:, 0], ref.times, rtol=0, atol=1e-12), "errors.csv times")
    _close(errors[:, 1:n + 1].T, ref.per_agent, "errors.csv per-agent errors")
    _close(errors[:, n + 1], ref.total, "errors.csv err_total")
    _close(errors[:, n + 2], ref.pairwise, "errors.csv pairwise_max")
    _require(errors[-1, n + 1] < errors[0, n + 1], "total error does not decay")

    header, bdy = _read_csv(out_dir / "boundary.csv")
    _require(header == ["t"] + [f"z_{i + 1}" for i in range(n)] + ["z_leader"], "boundary.csv header")
    _close(bdy[:, 1:], ref.boundary, "boundary.csv traces", SIM_RTOL_POINTWISE)

    header, avg = _read_csv(out_dir / "avg_error.csv")
    _require(len(header) == 1 + len(snapshots), "avg_error.csv header")
    _require(np.allclose(avg[:, 0], np.linspace(0.0, 1.0, nx), rtol=0, atol=1e-12), "avg_error.csv grid")
    idx = [int(np.argmin(np.abs(ref.times - t))) for t in snapshots]
    _close(avg[:, 1:], ref.avg_field[idx].T, "avg_error.csv fields", SIM_RTOL_POINTWISE)

    manifest = json.loads((out_dir / "manifest.json").read_text())
    for key, want in (("command", "simulate"), ("n", n), ("nx", nx),
                      ("dt", cfg["sim"]["dt"]), ("t_end", cfg["sim"]["t_end"])):
        _require(manifest.get(key) == want, f"manifest {key}={manifest.get(key)!r}, expected {want!r}")
    return sum(p.stat().st_size for p in out_dir.iterdir())


# ------------------------------------------------------------------ spectrum


def spectral_abscissa(cfg: dict) -> float:
    """Largest real part of the error subsystem's eigenvalues (shift-invert)."""
    a = closed_loop(cfg, with_leader=False).tocsc()
    vals = eigs(a, k=min(6, a.shape[0] - 2), sigma=0.0, which="LM", return_eigenvectors=False)
    return float(vals.real.max())


def check_spectrum(stdout: str, ref: float) -> None:
    marker = "discrete closed-loop spectral abscissa:"
    lines = [ln for ln in stdout.splitlines() if ln.startswith(marker)]
    _require(len(lines) == 1, "spectrum printed no abscissa")
    got = float(lines[0][len(marker):])
    _require(abs(got - ref) <= SPECTRUM_TOL * max(1.0, abs(ref)),
             f"spectral abscissa {got!r} vs eigs {ref!r}")
