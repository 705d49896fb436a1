"""Closed-loop simulation of the follower/leader heat-equation network.

Method of lines on a uniform grid over [0, 1]: second-order central
differences with ghost-point elimination at the Neumann rows, so the whole
closed loop, nonlocal boundary feedback included, is one constant linear
operator.  It is held in the cosine basis cos(j pi x), which diagonalizes
the ghost-point stencil exactly (fast diagonalization, Lynch, Rice & Thomas
1964): every mode of every agent decays at its own rate, the in-domain
coupling acts on each mode alike, and the trapezoid integral that the
boundary feedback reads is the j=0 coefficient.  So the generator is block
lower-triangular over the modes: mode 0 carries the feedback and every
other mode reads only mode 0.  Time stepping is one theta-method step:
Crank-Nicolson (theta = 1/2, the default: unconditionally stable, second
order) or backward Euler (theta = 1, for stiff debugging).  Both schemes
take every step through the same implicit solve with I - theta dt A, one
(N+1)-square system per mode with inverses formed once per run, and the
spectral abscissa is read off the eigenvalues of the same blocks.  Only
numpy is needed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .certify import NetworkConfig, trapezoid_weights
from .errors import DimensionMismatch, Divergence, NoConvergence, NonPositiveSeries
from .graph import _as_int, laplacian
from .scenarios import demo_initial_profiles, forcing_amplitude, forcing_shape

_DIVERGENCE_LIMIT = 1e12

SOURCE_SELECTORS = ("off", "paper")
THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


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
        # counts are never truncated: 41.0 is stored as 41, 41.9 is rejected
        object.__setattr__(self, "nx", _as_int(self.nx, "nx"))
        object.__setattr__(self, "output_stride", _as_int(self.output_stride, "output_stride"))
        if self.nx < 16:
            raise ValueError(f"nx must be >= 16, got {self.nx}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
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
    """Spatially discretized closed-loop generator in the cosine basis.

    A state is a matrix Y of modal coefficients with one row per agent
    (z_1 .. z_N, z_leader) and one column per mode j = 0 .. nx-1; agent a's
    field on the grid is ``modes @ Y[a]``.  The generator maps Y to
    ``Y * rates + coupling @ Y - outer(feedback @ Y[:, 0], node0)``:
    ``rates`` are the heat stencil's eigenvalues, ``coupling`` is
    G L (+) 0, and row i of ``feedback`` is (2 beta/dx) k_i m_i
    (e_i - e_leader), the flux that the boundary feedback on the trapezoid
    integral Y[:, 0] injects at the x=0 node, ``node0`` in modal coordinates.
    """

    grid: np.ndarray  # (nx,)
    modes: np.ndarray  # (nx, nx), cos(j pi x_i)
    rates: np.ndarray  # (nx,), alpha - (4 beta/dx^2) sin^2(j pi dx/2)
    coupling: np.ndarray  # (N+1, N+1), or (N, N) for the error subsystem
    feedback: np.ndarray  # same shape as coupling

    @cached_property
    def inverse_modes(self) -> np.ndarray:
        """Inverse of ``modes``: grid values to modal coefficients.

        The modes are orthogonal under the trapezoid weights w, which gives
        the inverse in closed form, diag(1, 2, .., 2, 1) modes^T diag(w),
        exact to rounding and the same bits on every BLAS; its row 0 is w,
        so the j=0 coefficient is the trapezoid integral.
        """
        scale = np.full(self.grid.size, 2.0)
        scale[0] = scale[-1] = 1.0
        return scale[:, np.newaxis] * self.modes.T * trapezoid_weights(self.grid.size)

    @property
    def node0(self) -> np.ndarray:
        """The x=0 grid node in modal coordinates, modes^-1 e_0."""
        return self.inverse_modes[:, 0]

    @property
    def error_subsystem(self) -> DiscreteOperator:
        """Generator of the follower errors z_i - z_leader.

        The coupling rows sum to zero and the leader obeys the same heat
        equation as every follower, so in error coordinates the leader
        drops out: the error generator keeps the leading N x N blocks of
        ``coupling`` and ``feedback``.  The spectral diagnostics use it.
        """
        n = len(self.coupling) - 1
        return replace(self, coupling=self.coupling[:n, :n], feedback=self.feedback[:n, :n])


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


def assemble_operator(net: NetworkConfig, sim: SimConfig) -> DiscreteOperator:
    """Build the discrete closed-loop generator for a scenario.

    Every agent obeys the Neumann heat stencil; follower x=0 nodes pick up
    the boundary feedback flux -(2 beta / dx) * k_i m_i * trapezoid(z_i - z_l)
    from eliminating the ghost node against the prescribed boundary slope,
    and the in-domain coupling adds g_i * l_ij pointwise across agents.  The
    leader is pure Neumann and feeds back to nothing.
    """
    n, nx = net.n, sim.nx
    j = np.arange(nx)
    # cos(j pi x_i) with x_i = i/(nx-1) and the phase i*j reduced mod
    # 2(nx-1): the argument stays below 2 pi, so the modes are exact to rounding
    modes = np.cos(np.pi * (np.outer(j, j) % (2 * (nx - 1))) / (nx - 1))
    rates = net.alpha - 4.0 * net.beta / sim.dx**2 * np.sin(np.pi * j * sim.dx / 2) ** 2
    coupling = np.zeros((n + 1, n + 1))
    coupling[:n, :n] = net.g_vector[:, np.newaxis] * laplacian(net.graph).astype(float)
    flux = (2.0 * net.beta / sim.dx) * net.boundary_gains
    feedback = np.zeros((n + 1, n + 1))
    feedback[:n, :n] = np.diag(flux)
    feedback[:n, n] = -flux
    return DiscreteOperator(
        grid=sim.grid, modes=modes, rates=rates, coupling=coupling, feedback=feedback
    )


def _implicit_solver(op: DiscreteOperator, h: float):
    """The map R -> (I - h A)^-1 R on modal coefficients, A the generator of ``op``.

    Mode j's block is (1 - h rates_j) I - h coupling, and mode 0's also
    carries h node0_0 feedback; each is inverted once, with no assumption
    on the coupling's eigenvectors (per-agent g is fine).  A solve does mode
    0 first, moves its feedback flux onto the other modes' right-hand
    sides, and applies their inverses.  Raises LinAlgError when a block is
    exactly singular.
    """
    node0 = op.node0
    blocks = (1.0 - h * op.rates)[:, np.newaxis, np.newaxis] * np.eye(len(op.coupling))
    blocks -= h * op.coupling
    blocks[0] += h * node0[0] * op.feedback
    inverses = np.linalg.inv(blocks)
    shed = h * node0[1:]

    def solve(r: np.ndarray) -> np.ndarray:
        y = np.empty_like(r)
        y[:, 0] = inverses[0] @ r[:, 0]
        rest = r[:, 1:] - np.outer(op.feedback @ y[:, 0], shed)
        y[:, 1:] = (inverses[1:] @ rest.T[:, :, np.newaxis])[:, :, 0].T
        return y

    return solve


def _resolve_initial_conditions(
    net: NetworkConfig, sim: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    x = sim.grid
    ic = sim.initial_conditions
    if ic is None:
        return np.zeros((net.n, sim.nx)), np.zeros(sim.nx)
    if isinstance(ic, str):  # "sectionV", the one token SimConfig accepts
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

    The theta-method (I - theta dt A) y_{n+1} = (I + (1 - theta) dt A) y_n
    + dt f(t_n + theta dt), with theta = 1/2 for Crank-Nicolson (source at
    the half step) and theta = 1 for backward Euler (source at the step
    end).  Every step is one implicit solve (``_implicit_solver``) in modal
    coordinates, and the state is mapped to the grid every step.  Raises
    Divergence (with step and agent) if the field leaves the finite range;
    an exactly singular implicit matrix diverges at step 1.
    """
    n, nx = net.n, sim.nx
    op = assemble_operator(net, sim)
    theta = THETA[sim.scheme]
    h = theta * sim.dt
    try:
        solve = _implicit_solver(op, h)
    except np.linalg.LinAlgError:  # exactly singular: no state after step 1 is defined
        _check_finite(np.full((n + 1, nx), np.nan), n, nx, 1, sim.dt)

    followers0, leader0 = _resolve_initial_conditions(net, sim)
    z = np.vstack([followers0, leader0])
    y = z @ op.inverse_modes.T
    # the source is shape(x) * amplitude(t) on every agent: one modal row
    source = op.inverse_modes @ forcing_shape(sim.grid) if sim.source == "paper" else None

    frames = [z]
    times = [0.0]
    n_steps = sim.n_steps
    for step in range(1, n_steps + 1):
        t_src = (step - 1) * sim.dt + h
        rhs = y if source is None else y + h * (source * forcing_amplitude(t_src))
        # (I - h A)^-1 (I + (1 - theta) dt A) = [(I - h A)^-1 - (1 - theta) I] / theta
        y = (solve(rhs) - (1.0 - theta) * y) / theta
        z = y @ op.modes.T
        _check_finite(z, n, nx, step, sim.dt)
        if step % sim.output_stride == 0 or step == n_steps:
            frames.append(z)
            times.append(step * sim.dt)
    stacked = np.array(frames)
    return Trajectory(
        times=np.array(times),
        grid=sim.grid,
        z=stacked[:, :n].transpose(1, 0, 2),
        z_leader=stacked[:, n],
    )


def sync_errors(traj: Trajectory) -> ErrorSeries:
    """Per-agent L2 errors, total error, summed error field and disagreement.

    The total is the root of the summed squared per-agent errors, and the
    summed error field is the plain sum of the error fields over agents.
    """
    w = trapezoid_weights(traj.grid.size)
    e = traj.errors()
    per_sq = np.einsum("atx,x->at", e**2, w)
    per = np.sqrt(per_sq)
    total = np.sqrt(per_sq.sum(axis=0))
    avg_field = e.sum(axis=0)
    z = traj.z
    pair = np.zeros(traj.times.size)
    for i in range(traj.n_agents):
        d = z[i] - z[i + 1 :]
        dist = np.sqrt(np.einsum("jtx,x->jt", d**2, w))
        pair = np.maximum(pair, dist.max(axis=0, initial=0.0))
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
    excluded), that is max |(1 + h lam)/(1 - h lam)| over the eigenvalues
    lam of A, h = dt/2.  A is block lower-triangular over the cosine modes,
    so its eigenvalues are those of the N x N mode blocks:
    rates_0 + eig(coupling - node0_0 feedback) for the constant mode and
    rates_j + eig(coupling) for the others.  The value is dt-exact: on the
    demo it is -0.835599, -0.835594 and -0.835594 at dt = 1e-2, 1e-3 and
    1e-4.  It is still floored by the time discretization: very stiff
    spatial modes keep |one-step factor| close to 1, so dt must be small
    enough for the physical slow mode to dominate.  Raises NoConvergence
    if I - (dt/2) A is exactly singular.
    """
    if net.n < 1:
        raise DimensionMismatch("spectral abscissa needs at least one follower")
    op = assemble_operator(net, sim).error_subsystem
    h = sim.dt / 2.0
    lam0 = op.rates[0] + np.linalg.eigvals(op.coupling - op.node0[0] * op.feedback)
    lam_rest = op.rates[1:, np.newaxis] + np.linalg.eigvals(op.coupling)
    lam = np.concatenate([lam0, lam_rest.reshape(-1)])
    if (1.0 - h * lam == 0.0).any():
        raise NoConvergence("I - (dt/2) A is exactly singular")
    rho = np.abs((1.0 + h * lam) / (1.0 - h * lam)).max()
    return float(np.log(rho) / sim.dt)


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
