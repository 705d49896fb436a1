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
other mode reads only mode 0.  Time stepping is the theta-method:
Crank-Nicolson (theta = 1/2, the default: unconditionally stable, second
order) or backward Euler (theta = 1, for stiff debugging).  One step is an
affine map with the same block structure, y_j <- P_j y_j + Q_j y_0 +
a(t) c_j, built once per run from one inverse per mode of I - theta dt A.
Its powers keep that structure, so ``simulate`` forms the stride's power
by repeated squaring and jumps from output frame to output frame.  The
spectral abscissa is read off the generator's own mode blocks, with no
time step in it.  Only numpy is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import NetworkConfig, trapezoid_weights
from .errors import DimensionMismatch, Divergence, NonPositiveSeries
from .graph import _as_float, _as_int, laplacian
from .scenarios import FORCING_RATE, demo_initial_profiles, forcing_amplitude, forcing_shape

_DIVERGENCE_LIMIT = 1e12
# a frame jump must clear the divergence limit by this relative slack,
# which covers the rounding in its own bound
_JUMP_SLACK = 1e-9

SOURCE_SELECTORS = ("off", "paper")
THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Discretization and scenario data for one simulation run.

    ``initial_conditions`` is either a preset token ("sectionV"), a pair of
    arrays (followers (N, nx), leader (nx,)), stored as float arrays, or
    None for all-zero fields.  A bool, a string or a value that is not
    finite in ``dt``, ``t_end`` or a profile raises ValueError.
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
    The leading N x N blocks of ``coupling`` and ``feedback`` generate the
    follower errors z_i - z_leader: the coupling and the feedback vanish on
    a field common to all agents, and the leader obeys the same heat
    equation as every follower, so it drops out of the differences.
    """

    grid: np.ndarray  # (nx,)
    rates: np.ndarray  # (nx,), alpha - (4 beta/dx^2) sin^2(j pi dx/2)
    coupling: np.ndarray  # (N+1, N+1)
    feedback: np.ndarray  # same shape as coupling

    @cached_property
    def modes(self) -> np.ndarray:
        """The (nx, nx) mode matrix cos(j pi x_i), built on first read."""
        nx = self.grid.size
        j = np.arange(nx)
        # the phase i*j reduced mod 2(nx-1) keeps the argument below 2 pi,
        # so the modes are exact to rounding
        return np.cos(np.pi * (np.outer(j, j) % (2 * (nx - 1))) / (nx - 1))

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
        """The x=0 grid node in modal coordinates, modes^-1 e_0.

        Column 0 of ``inverse_modes``: row 0 of ``modes`` is all ones, so
        it is diag(1, 2, .., 2, 1) w = w, the trapezoid weights themselves.
        """
        return trapezoid_weights(self.grid.size)


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
    leader is pure Neumann and feeds back to nothing.  Raises ValueError
    when finite parameters overflow into an entry of ``rates``,
    ``coupling`` or ``feedback`` that is not finite.
    """
    n, j = net.n, np.arange(sim.nx)
    coupling = np.zeros((n + 1, n + 1))
    feedback = np.zeros((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        rates = net.alpha - 4.0 * net.beta / sim.dx**2 * np.sin(np.pi * j * sim.dx / 2) ** 2
        coupling[:n, :n] = net.g_vector[:, np.newaxis] * laplacian(net.graph).astype(float)
        flux = (2.0 * net.beta / sim.dx) * net.boundary_gains
    feedback[:n, :n] = np.diag(flux)
    feedback[:n, n] = -flux
    if not all(np.isfinite(part).all() for part in (rates, coupling, feedback)):
        raise ValueError("the closed-loop operator overflows: alpha, beta, k or g is too large")
    return DiscreteOperator(grid=sim.grid, rates=rates, coupling=coupling, feedback=feedback)


def _resolve_initial_conditions(
    net: NetworkConfig, sim: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    x = sim.grid
    ic = sim.initial_conditions
    if ic is None:
        return np.zeros((net.n, sim.nx)), np.zeros(sim.nx)
    if isinstance(ic, str):  # "sectionV", the one token SimConfig accepts
        if net.n != 5:
            raise ValueError(f"the sectionV profiles define 5 followers, config has {net.n}")
        return demo_initial_profiles(x)
    followers, leader = ic
    if followers.shape != (net.n, sim.nx) or leader.shape != (sim.nx,):
        raise ValueError(
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


def _compose(outer, inner):
    """The linear step map (P, Q) applied after (P', Q'): (P P', P Q' + Q P'_0)."""
    (p, q), (p_in, q_in) = outer, inner
    q_out = p @ q_in
    q_out += q @ p_in[0]
    return p @ p_in, q_out


def _apply(linear, y: np.ndarray) -> np.ndarray:
    """y_j <- P_j y_j + Q_j y_0 on mode-major states y (..., nx, N+1).

    Q is an array, or for the one-step map the factors (a, b, G) of
    Q_j = (a_j P_j + b_j I) G, which spare a step a pass over Q.
    """
    p, q = linear
    if isinstance(q, tuple):
        a, b, g = q
        fed = y[..., :1, :] @ g.T  # G y_0 as a row
        return (p @ (y + a[:, np.newaxis] * fed)[..., np.newaxis])[..., 0] + b[:, np.newaxis] * fed
    return (p @ y[..., np.newaxis] + q @ y[..., :1, :, np.newaxis])[..., 0]


def _expanded(linear):
    """The map with its Q as an array, for products."""
    p, q = linear
    if not isinstance(q, tuple):
        return linear
    a, b, g = q
    q = p @ g
    q *= a[:, np.newaxis, np.newaxis]
    q += b[:, np.newaxis, np.newaxis] * g
    return p, q


def _norm1(linear) -> float:
    """Induced 1-norm of (P, Q) on the stacked state: its largest column sum.

    Column (j, b) of the map holds column b of P_j, and for j = 0 also
    column b of every Q_j.  For a factored Q it is a bound, not the norm.
    """
    p, q = linear
    cols = np.abs(p).sum(axis=1)
    if isinstance(q, tuple):  # an upper bound: |Q_j| <= (|a_j| |P_j| + |b_j| I) |G|
        a, b, g = q
        cols[0] += (np.abs(a) @ cols + np.abs(b).sum()) @ np.abs(g)
    else:
        cols[0] += np.abs(q).sum(axis=(0, 1))
    return float(cols.max())


@dataclass(frozen=True, eq=False)
class _FrameJumps:
    """The horizon as runs of theta-steps, each run one affine map.

    ``lengths`` lists the runs in order: the jump length J once per whole
    output stride, then single steps for the remainder (J = 1 when jumping
    does not pay).  ``maps[k]`` for k in {1, J} is (linear part M^k, forced
    parts (A_k, B_k) or None): k steps from source time t0 map y to
    M^k y + sin(w t0) A_k + cos(w t0) B_k.  ``gamma`` bounds ||M^k||_1 and
    ``delta`` the forced part's 1-norm for every k <= J, so a state y is
    safe to jump from when gamma ||y||_1 + delta stays below the divergence
    limit: every state the jump skips then stays below it on the grid too,
    where |cos| <= 1.
    """

    lengths: list
    maps: dict
    gamma: float
    delta: float

    def advance(self, y: np.ndarray, k: int, t0: float) -> np.ndarray:
        linear, forced = self.maps[k]
        y = _apply(linear, y)
        if forced is not None:
            y = y + forcing_amplitude(t0) * forced[0] + np.cos(FORCING_RATE * t0) * forced[1]
        return y

    def safe(self, y: np.ndarray) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.gamma * np.abs(y).sum() + self.delta
        return bool(bound <= (1.0 - _JUMP_SLACK) * _DIVERGENCE_LIMIT)  # False on nan


def _frame_jumps(op: DiscreteOperator, sim: SimConfig) -> _FrameJumps:
    """Build the one-step map and, when it pays, its stride power.

    With h = theta dt, a theta-step y <- (solve(y + h f) - (1 - theta) y)/theta,
    solve = (I - h A)^-1, is mode by mode y_j <- P_j y_j + Q_j y_0 + a(t) c_j:
    P_j = (inv_j - (1 - theta) I)/theta with inv_j the inverse of mode j's
    block (1 - h rates_j) I - h coupling (mode 0's also carries
    h node0_0 feedback), Q_j = s_j inv_j F inv_0 with s_j = -h node0_j/theta
    and s_0 = 0, and c the response to a unit-amplitude source.  Each block
    is inverted once, with no assumption on the coupling's eigenvectors
    (per-agent g is fine); raises LinAlgError when one is exactly singular.
    The one-step map keeps Q factored through inv_j = theta P_j +
    (1 - theta) I.  M^J, J the output stride, comes from repeated squaring,
    and A_J, B_J from one pass of J one-step products that splits
    sin(w (t0 + i dt)) into sin(w t0) cos(w i dt) + cos(w t0) sin(w i dt).
    J drops to 1, one step at a time, unless the products that form M^J
    cost less than the steps the jumps save.  In units of one step's
    multiply-adds, nx (N+1)^2, a jump costs 2, the forcing pass 3 J, and a
    product of two maps N+1: its 3 (N+1) times as many multiply-adds run
    as matrix-matrix products, which do several times as many per second
    as a step's matrix-vector products that stream the map from memory.
    """
    theta = THETA[sim.scheme]
    h = theta * sim.dt
    node0 = op.node0
    m = len(op.coupling)
    inverses = (1.0 - h * op.rates)[:, np.newaxis, np.newaxis] * np.eye(m)
    inverses -= h * op.coupling
    inverses[0] += h * node0[0] * op.feedback
    inverses = np.linalg.inv(inverses)
    shed = (-h / theta) * node0
    shed[0] = 0.0
    g = op.feedback @ inverses[0]
    unit = None
    if sim.source == "paper":
        source = op.inverse_modes @ forcing_shape(sim.grid)
        # c: the step from y = 0 with a = 1, dt * source on every agent; the
        # coupling and the feedback vanish on a field common to all agents,
        # so each mode's block scales it by 1 / (1 - h rates_j)
        unit = np.repeat((sim.dt * source / (1.0 - h * op.rates))[:, np.newaxis], m, axis=1)
    diagonal = np.arange(m)
    inverses[:, diagonal, diagonal] -= 1.0 - theta
    inverses /= theta
    step = (inverses, (theta * shed, (1.0 - theta) * shed, g))

    jump = min(sim.output_stride, sim.n_steps)
    full, rest = divmod(sim.n_steps, jump)
    products = jump.bit_length() + jump.bit_count() - 2  # squarings, then M^J's factors
    if m * products + 3 * jump >= full * (jump - 2):
        jump, full, rest = 1, sim.n_steps, 0
    gamma = 1.0
    power = None
    square = step
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up only fails the bound
        # M^(2^b) for every bit b of J, multiplied into M^J
        for b in range(jump.bit_length()):
            if b:
                square = _expanded(square)
                square = _compose(square, square)
            if jump >> b & 1:
                power = square if power is None else _compose(_expanded(power), square)
            gamma *= np.maximum(1.0, _norm1(square))  # keeps a nan

        forced = dict.fromkeys({1, jump})
        delta = 0.0
        if unit is not None:
            # A_k, B_k and M^k c as k runs up to J; delta sums ||M^k c||_1 over k < J
            acc = np.zeros((3,) + unit.shape)
            acc[2] = unit
            for k, phase in enumerate(FORCING_RATE * sim.dt * np.arange(jump), start=1):
                delta += np.abs(acc[2]).sum()
                acc = _apply(step, acc)
                acc[0] += np.cos(phase) * unit
                acc[1] += np.sin(phase) * unit
                if k in forced:
                    forced[k] = acc[:2].copy()
    maps = {jump: (power, forced[jump]), 1: (step, forced[1])}
    return _FrameJumps(
        lengths=[jump] * full + [1] * rest, maps=maps, gamma=float(gamma), delta=float(delta)
    )


def simulate(net: NetworkConfig, sim: SimConfig) -> Trajectory:
    """Run the closed loop and sample every ``output_stride`` steps.

    The theta-method (I - theta dt A) y_{n+1} = (I + (1 - theta) dt A) y_n
    + dt f(t_n + theta dt), with theta = 1/2 for Crank-Nicolson (source at
    the half step) and theta = 1 for backward Euler (source at the step
    end).  The run goes through the runs of ``_frame_jumps``: one jump per
    output stride when forming the stride's power pays, else one step at a
    time, and single steps for a short last stride.  The state is mapped to
    the grid at frames only.  Divergence is still decided step by step: a
    run is taken in one go only when its norm bound shows that no skipped
    step can leave the finite range; otherwise it is replayed with the
    one-step map and every step is checked on the grid.  Raises Divergence
    (with step and agent) if the field leaves the finite range; an exactly
    singular implicit matrix diverges at step 1.
    """
    n, nx, dt = net.n, sim.nx, sim.dt
    op = assemble_operator(net, sim)
    try:
        jumps = _frame_jumps(op, sim)
    except np.linalg.LinAlgError:  # exactly singular: no state after step 1 is defined
        _check_finite(np.full((n + 1, nx), np.nan), n, nx, 1, dt)

    followers0, leader0 = _resolve_initial_conditions(net, sim)
    z = np.vstack([followers0, leader0])
    y = op.inverse_modes @ z.T  # modal coefficients, mode-major: (nx, N+1)
    h = THETA[sim.scheme] * dt

    frames = [z]
    times = [0.0]
    step = 0
    for k in jumps.lengths:
        if jumps.safe(y):
            y = jumps.advance(y, k, step * dt + h)
            step += k
        else:
            for _ in range(k):
                y = jumps.advance(y, 1, step * dt + h)
                step += 1
                _check_finite((op.modes @ y).T, n, nx, step, dt)
        if step % sim.output_stride == 0 or step == sim.n_steps:
            frames.append((op.modes @ y).T)
            times.append(step * dt)
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
    """Spectral abscissa, max Re lam, of the semi-discrete error generator.

    The errors z_i - z_leader evolve under the leading N x N blocks C and F
    of ``coupling`` and ``feedback`` (see ``DiscreteOperator``).  That
    generator is block lower-triangular over the cosine modes, so its
    eigenvalues are those of the N x N mode blocks: rates_0 +
    eig(C - node0_0 F) for the constant mode and rates_j + eig(C) for the
    others.  The value describes the spatial discretization alone; no time
    step enters it.  Raises ValueError when finite parameters overflow into
    an abscissa that is not finite.
    """
    if net.n < 1:
        raise DimensionMismatch("spectral abscissa needs at least one follower")
    op = assemble_operator(net, sim)
    n = net.n
    c, f = op.coupling[:n, :n], op.feedback[:n, :n]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        lam0 = op.rates[0] + np.linalg.eigvals(c - op.node0[0] * f)
        lam_rest = op.rates[1:, np.newaxis] + np.linalg.eigvals(c)
        abscissa = np.maximum(lam0.real.max(), lam_rest.real.max())  # keeps a nan
    if not np.isfinite(abscissa):
        raise ValueError("the spectral abscissa overflows: alpha, beta, k or g is too large")
    return float(abscissa)


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
