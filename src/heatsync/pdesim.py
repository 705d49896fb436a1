"""Closed-loop simulation of the follower/leader heat-equation network.

Method of lines on a uniform grid over [0, 1]: second-order central
differences with ghost-point elimination at the Neumann rows, so the whole
closed loop (including the nonlocal boundary feedback, which couples the
x=0 node of an agent to the trapezoid weights of that agent and the leader)
is one constant linear operator.  That operator is stored as a CSR matrix:
heat stencils on the diagonal blocks, pointwise coupling off them, and one
dense x=0 row per leader-connected follower (0.2 % nonzeros at N=32,
nx=101).  Time
stepping is Crank-Nicolson by default (unconditionally stable, second
order, source at the half step); backward Euler is available for stiff
debugging.  The implicit matrix gets one SuperLU factorization per run,
and the spectral abscissa runs ARPACK on the Crank-Nicolson propagator
through the same kind of factorization.  scipy is imported inside the
functions that need it, so the certificate and design paths never load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .certify import NetworkConfig, trapezoid_weights
from .errors import DimensionMismatch, Divergence, NoConvergence, NonPositiveSeries
from .graph import laplacian
from .scenarios import demo_initial_profiles, forcing_amplitude, forcing_shape

if TYPE_CHECKING:
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import SuperLU

_DIVERGENCE_LIMIT = 1e12

SOURCE_SELECTORS = ("off", "paper")
SCHEMES = ("crank_nicolson", "backward_euler")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Discretization and scenario data for one simulation run.

    ``initial_conditions`` is either a preset token ("sectionV"), a pair of
    arrays (followers (N, nx), leader (nx,)), or None for all-zero fields.
    ``source`` selects the forcing term: "off" or "paper" (the demo forcing
    (1 + cos(2 pi x)) sin(pi t), applied to every agent and the leader).
    """

    nx: int = 101
    dt: float = 1e-3
    t_end: float = 2.5
    source: str = "paper"
    scheme: str = "crank_nicolson"
    output_stride: int = 10
    initial_conditions: object = None

    def __post_init__(self):
        if self.nx < 16:
            raise ValueError(f"nx must be >= 16, got {self.nx}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.source not in SOURCE_SELECTORS:
            raise ValueError(f"source must be one of {SOURCE_SELECTORS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        ic = self.initial_conditions
        if ic is not None and not isinstance(ic, str):
            if not all(np.isfinite(np.asarray(part, dtype=float)).all() for part in ic):
                raise ValueError("initial conditions must be finite")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Spatially discretized closed-loop generator.

    ``full`` is a CSR matrix acting on the stacked state
    (z_1 .. z_N, z_leader) of size (N+1) * nx.
    """

    full: csr_array
    grid: np.ndarray

    @property
    def error_subsystem(self) -> csr_array:
        """Generator of the stacked follower errors z_i - z_leader (N*nx square).

        The coupling rows sum to zero and the leader block is the same heat
        stencil as every follower block, so in error coordinates the leader
        drops out: the error generator is the leading follower block of
        ``full``, sliced out as CSR.  The spectral diagnostics use it.
        """
        m = self.full.shape[0] - self.grid.size
        return self.full[:m, :m]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled space-time fields of one run."""

    times: np.ndarray  # (n_frames,)
    grid: np.ndarray  # (nx,)
    z: np.ndarray  # (n_agents, n_frames, nx)
    z_leader: np.ndarray  # (n_frames, nx)

    @property
    def n_agents(self) -> int:
        return self.z.shape[0]

    def errors(self) -> np.ndarray:
        """Follower error fields z_i - z_leader, shape (n_agents, n_frames, nx)."""
        return self.z - self.z_leader[np.newaxis, :, :]


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """L2 error diagnostics derived from a trajectory."""

    times: np.ndarray  # (n_frames,)
    grid: np.ndarray  # (nx,)
    per_agent_l2: np.ndarray  # (n_agents, n_frames)
    total_l2: np.ndarray  # (n_frames,)
    avg_error_field: np.ndarray  # (n_frames, nx), sum of the error fields
    pairwise_max: np.ndarray  # (n_frames,), max_{i<j} ||z_i - z_j||_L2


def _neumann_heat_stencil(nx: int, dx: float, beta: float, alpha: float) -> csr_array:
    """Neumann heat stencil (beta/dx^2) t + alpha I as a CSR matrix.

    ``t`` is the second difference with ghost elimination at both Neumann
    rows: (-2, 2) in the first row, (2, -2) in the last, (1, -2, 1) between.
    """
    import scipy.sparse as sp

    scale = beta / dx**2
    upper = np.full(nx - 1, scale)
    lower = np.full(nx - 1, scale)
    upper[0] = lower[-1] = scale * 2.0
    main = np.full(nx, scale * -2.0 + alpha)
    return sp.diags_array([lower, main, upper], offsets=[-1, 0, 1], format="csr")


def assemble_operator(net: NetworkConfig, sim: SimConfig) -> DiscreteOperator:
    """Build the discrete closed-loop generator for a scenario.

    Every agent block is the Neumann heat stencil; follower x=0 rows pick up
    the boundary feedback flux -(2 beta / dx) * k_i m_i * trapezoid(z_i - z_l)
    from eliminating the ghost node against the prescribed boundary slope,
    and the in-domain coupling adds g_i * l_ij pointwise across agent blocks.
    The leader block is pure Neumann and feeds back to nothing.  So the
    generator is kron(I, T) + kron(G L (+) 0, I) plus one dense x=0 row per
    leader-connected follower, assembled in that order as CSR.
    """
    import scipy.sparse as sp

    n, nx = net.n, sim.nx
    dx = sim.dx
    w = trapezoid_weights(nx)
    heat = _neumann_heat_stencil(nx, dx, net.beta, net.alpha)
    coupling = np.zeros((n + 1, n + 1))
    coupling[:n, :n] = net.g_vector[:, np.newaxis] * laplacian(net.graph).astype(float)
    full = sp.kron(sp.eye_array(n + 1), heat, format="csr") + sp.kron(
        sp.csr_array(coupling), sp.eye_array(nx), format="csr"
    )

    kappa = net.boundary_gains
    fed = np.flatnonzero(kappa != 0.0)
    if fed.size:
        flux = 2.0 * net.beta / dx
        cells = np.arange(nx)
        rows = np.repeat(fed * nx, 2 * nx)
        blocks = np.stack([fed * nx, np.full_like(fed, n * nx)], axis=1)
        cols = (blocks[:, :, np.newaxis] + cells).reshape(-1)
        vals = np.concatenate(
            [(-flux * kappa[fed])[:, np.newaxis] * w, (+flux * kappa[fed])[:, np.newaxis] * w],
            axis=1,
        ).reshape(-1)
        full = full + sp.coo_array((vals, (rows, cols)), shape=full.shape).tocsr()
    return DiscreteOperator(full=full, grid=sim.grid)


def _factor_implicit(a: csr_array, h: float) -> SuperLU:
    """SuperLU factors of I - h*A.

    The ordering is minimum degree on the symmetrized pattern
    (``MMD_AT_PLUS_A``): the feedback rows are dense, and SuperLU's default
    column ordering fills the factors 4-10x more on them.  Raises
    RuntimeError when the matrix is exactly singular.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = sp.eye_array(a.shape[0], format="csr") - h * a
    return splu(m.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _resolve_initial_conditions(
    net: NetworkConfig, sim: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    x = sim.grid
    ic = sim.initial_conditions
    if ic is None:
        return np.zeros((net.n, sim.nx)), np.zeros(sim.nx)
    if isinstance(ic, str):
        if ic != "sectionV":
            raise ValueError(f"unknown initial-condition preset {ic!r}")
        if net.n != 5:
            raise DimensionMismatch(
                f"the sectionV profiles define 5 followers, config has {net.n}"
            )
        return demo_initial_profiles(x)
    followers, leader = ic
    followers = np.asarray(followers, dtype=float)
    leader = np.asarray(leader, dtype=float)
    if followers.shape != (net.n, sim.nx) or leader.shape != (sim.nx,):
        raise DimensionMismatch(
            f"initial conditions must have shapes ({net.n}, {sim.nx}) and "
            f"({sim.nx},), got {followers.shape} and {leader.shape}"
        )
    return followers, leader


def _check_finite(y: np.ndarray, n: int, nx: int, step: int, dt: float) -> None:
    bad = ~np.isfinite(y) | (np.abs(y) > _DIVERGENCE_LIMIT)
    if bad.any():
        block = int(np.argmax(bad.reshape(-1, nx).any(axis=1)))
        agent = "leader" if block == n else block + 1
        raise Divergence(step=step, t=step * dt, agent=agent)


def simulate(net: NetworkConfig, sim: SimConfig) -> Trajectory:
    """Run the closed loop and sample every ``output_stride`` steps.

    Crank-Nicolson: (I - dt/2 A) y_{n+1} = (I + dt/2 A) y_n + dt f(t_n + dt/2);
    backward Euler uses the source at the step end.  The implicit matrix is
    factored once (``_factor_implicit``), so each step is one CSR product
    and one pair of triangular solves.
    Raises Divergence (with step and agent) if the state leaves the finite
    range; an exactly singular implicit matrix diverges at step 1.
    """
    import scipy.sparse as sp

    n, nx = net.n, sim.nx
    a = assemble_operator(net, sim).full
    size = (n + 1) * nx
    crank = sim.scheme == "crank_nicolson"
    h = sim.dt / 2.0 if crank else sim.dt
    m_explicit = sp.eye_array(size, format="csr") + h * a if crank else None
    try:
        lu = _factor_implicit(a, h)
    except RuntimeError:  # exactly singular: no state after step 1 is defined
        _check_finite(np.full(size, np.nan), n, nx, 1, sim.dt)

    followers0, leader0 = _resolve_initial_conditions(net, sim)
    y = np.concatenate([followers0.reshape(-1), leader0])
    x = sim.grid
    # the source is shape(x) * amplitude(t) on every block; tile the shape once
    source = np.tile(forcing_shape(x), n + 1) if sim.source == "paper" else None

    frames = [y.copy()]
    times = [0.0]
    n_steps = sim.n_steps
    for step in range(1, n_steps + 1):
        t_src = (step - 1) * sim.dt + sim.dt / 2.0 if crank else step * sim.dt
        rhs = m_explicit @ y if crank else y.copy()
        if source is not None:
            rhs += sim.dt * (source * forcing_amplitude(t_src))
        y = lu.solve(rhs)
        _check_finite(y, n, nx, step, sim.dt)
        if step % sim.output_stride == 0 or step == n_steps:
            frames.append(y.copy())
            times.append(step * sim.dt)
    stacked = np.array(frames)
    return Trajectory(
        times=np.array(times),
        grid=x,
        z=stacked[:, : n * nx].reshape(len(times), n, nx).transpose(1, 0, 2),
        z_leader=stacked[:, n * nx :],
    )


def sync_errors(traj: Trajectory) -> ErrorSeries:
    """Per-agent L2 errors, total error, summed error field and disagreement.

    The total is the root of the summed squared per-agent errors, and the
    summed error field is the plain sum of the error fields over agents.
    """
    n = traj.n_agents
    nx = traj.grid.size
    w = trapezoid_weights(nx)
    e = traj.errors()
    per_sq = np.einsum("atx,x->at", e**2, w)
    per = np.sqrt(per_sq)
    total = np.sqrt(per_sq.sum(axis=0))
    avg_field = e.sum(axis=0)
    n_frames = traj.times.size
    pair = np.zeros(n_frames)
    for i in range(n):
        for j in range(i + 1, n):
            diff = traj.z[i] - traj.z[j]
            pair = np.maximum(pair, np.sqrt(np.einsum("tx,x->t", diff**2, w)))
    return ErrorSeries(
        times=traj.times.copy(),
        grid=traj.grid.copy(),
        per_agent_l2=per,
        total_l2=total,
        avg_error_field=avg_field,
        pairwise_max=pair,
    )


def fit_decay_rate(series: ErrorSeries, window: tuple[float, float]) -> float:
    """Least-squares slope of log total error over a time window.

    Negative means decay.  Raises NonPositiveSeries when the total error is
    not strictly positive somewhere in the window (nothing to fit there).
    """
    t0, t1 = window
    sel = (series.times >= t0) & (series.times <= t1)
    if sel.sum() < 2:
        raise ValueError(f"window {window} covers fewer than two samples")
    values = series.total_l2[sel]
    if (values <= 0.0).any():
        raise NonPositiveSeries(
            f"total error reaches zero inside window {window}; no rate to fit"
        )
    slope, _ = np.polyfit(series.times[sel], np.log(values), 1)
    return float(slope)


def spectral_abscissa(net: NetworkConfig, sim: SimConfig) -> float:
    """Decay/growth exponent of the discrete error subsystem, log(rho)/dt.

    rho is the spectral radius of the Crank-Nicolson one-step propagator
    (I - dt/2 A)^-1 (I + dt/2 A) of the error subsystem (leader and source
    excluded).  ARPACK finds it from products with the propagator, each one
    CSR product and one solve with the factored implicit matrix, started
    from a fixed-seed vector so results are reproducible.  The value is
    dt-exact: on the demo it is -0.835599, -0.835594 and -0.835594 at
    dt = 1e-2, 1e-3 and 1e-4.  It is still floored by the time
    discretization: very stiff spatial modes keep |one-step factor| close
    to 1, so dt must be small enough for the physical slow mode to
    dominate.  Raises NoConvergence if ARPACK does not converge or the
    implicit matrix is exactly singular.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    if net.n < 1:
        raise DimensionMismatch("spectral abscissa needs at least one follower")
    a = assemble_operator(net, sim).error_subsystem
    size = a.shape[0]
    h = sim.dt / 2.0
    try:
        lu = _factor_implicit(a, h)
    except RuntimeError as exc:
        raise NoConvergence(f"I - (dt/2) A is exactly singular: {exc}") from exc
    explicit = sp.eye_array(size, format="csr") + h * a
    propagator = LinearOperator(
        (size, size), matvec=lambda v: lu.solve(explicit @ v), dtype=float
    )
    start = np.random.default_rng(1234).standard_normal(size)
    try:
        top = eigs(propagator, k=1, which="LM", v0=start, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"ARPACK did not converge: {exc}") from exc
    return float(np.log(abs(top[0])) / sim.dt)


def analytic_open_loop_spectrum(
    alpha: float, beta: float, n_modes: int
) -> list[float]:
    """Eigenvalues alpha - beta j^2 pi^2, j = 0 .. n_modes-1, of the
    uncontrolled error dynamics (pure Neumann heat plus reaction).

    The j = 0 constant mode is included: it is what conservation of the
    spatial mean (alpha = 0) and open-loop instability (alpha > 0) live on.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return [float(alpha - beta * j**2 * np.pi**2) for j in range(n_modes)]
