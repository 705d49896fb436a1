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
order) or backward Euler (theta = 1, for stiff debugging).

``simulate`` has one stepper: the block map y_j <- P_j y_j + Q_j y_0 +
a(t) c_j, from one inverse per mode of I - theta dt A, walks a stride one
step at a time, and it walks every stride that no bound vouches for.  The
coupling C = G L (+) 0 acts on every mode alike, and when a diagonal
scaling makes it symmetric (a common g, or per-agent g of one strict
sign) one ``eigh`` diagonalizes it: the fast diagonalization applies a
second time, over the agents, and all output strides are walked forward
at once, with a bound on every state inside each.  A stride whose bound
stays below the divergence limit is vouched for.  Long strides are cut
into chunks so that no intermediate outgrows the returned frames, and
work over all the frames is done an eighth of them at a time.  Any other
g (mixed signs, or zero on some agents only) has no bound.
The run stays in the cosine basis: ``simulate`` returns the modal frames,
and ``sync_errors`` reads them by discrete Parseval.  The spectral
abscissa is read off the generator's own mode blocks, with no time step
in it.  Only numpy is needed.  ``NetworkConfig`` and ``SimConfig`` live
in ``scenarios``: reading a config loads no simulator.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Divergence, NonPositiveSeries
from .graph import laplacian
from .scenarios import (THETA, NetworkConfig, SimConfig, _resolve_initial_conditions,
                        forcing_amplitude, forcing_shape)

_DIVERGENCE_LIMIT = 1e12
_FRAME_BLOCKS = 8  # work the size of the frames is done an eighth at a time


def trapezoid_weights(nx: int) -> np.ndarray:
    """Trapezoid weights of the uniform nx-point grid on [0, 1], the cosine modes' quadrature."""
    dx = 1.0 / (nx - 1)
    w = np.full(nx, dx)
    w[0] = w[-1] = dx / 2.0
    return w


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

    @property
    def node0(self) -> np.ndarray:
        """The x=0 grid node in modal coordinates, modes^-1 e_0.

        Column 0 of modes^-1 (see ``_to_modes``): row 0 of ``modes`` is all
        ones, so it is diag(1, 2, .., 2, 1) w_0 = w, the trapezoid weights.
        """
        return trapezoid_weights(self.grid.size)


def _to_modes(op: DiscreteOperator, z: np.ndarray) -> np.ndarray:
    """Modal coefficients of the grid fields z (rows): the modes are orthogonal
    under the trapezoid weights w, so modes^-1 = diag(1, 2, .., 2, 1) modes^T
    diag(w), and ``modes`` is symmetric.  Row 0 of modes^-1 is w."""
    w = op.node0
    return (z * w) @ op.modes * (2 * (op.grid.size - 1) * w)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled modal frames of one run: ``frames[f, a]`` holds the cosine
    coefficients of agent a (the leader last) at ``times[f]``, and a caller
    maps only the frames it needs to the grid, ``modes @ frames[f, a]``."""

    times: np.ndarray  # (n_frames,)
    frames: np.ndarray  # (n_frames, N+1, nx)
    modes: np.ndarray  # (nx, nx), the operator's mode matrix


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """L2 error diagnostics derived from a trajectory."""

    times: np.ndarray  # (n_frames,)
    per_agent_l2: np.ndarray  # (n_agents, n_frames), ||z_i - z_leader||_L2
    total_l2: np.ndarray  # (n_frames,)
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


def _check_finite(y: np.ndarray, n: int, nx: int, step: int, dt: float) -> None:
    bad = ~np.isfinite(y) | (np.abs(y) > _DIVERGENCE_LIMIT)
    if bad.any():
        block = int(np.argmax(bad.reshape(-1, nx).any(axis=1)))
        agent = "leader" if block == n else block + 1
        raise Divergence(step=step, t=step * dt, agent=agent)


def _agent_basis(net: NetworkConfig, op: DiscreteOperator):
    """(V, V^-1, lam) with coupling C = G L (+) 0 = V diag(lam) V^-1, or None.

    A common g makes C symmetric.  Per-agent g of one strict sign makes
    S^-1 C S symmetric for S = |G|^1/2 (+) 1, so V = S U from its ``eigh``
    U, with cond(V) <= (max|g| / min|g|)^1/2.  Any other g gives None.
    """
    g = net.g_vector
    if not ((g == g[:1]).all() or (g > 0).all() or (g < 0).all()):
        return None
    scale = np.append(np.where(g == 0.0, 1.0, np.sqrt(np.abs(g))), 1.0)  # a common g of 0: C = 0
    lam, u = np.linalg.eigh(op.coupling / scale[:, np.newaxis] * scale)
    return scale[:, np.newaxis] * u, u.T / scale, lam


def _implicit_inverses(op: DiscreteOperator, h: float, count: int) -> np.ndarray:
    """Inverses of the first ``count`` mode blocks of I - h A, (1 - h rates_j) I
    - h coupling (+ h node0_0 feedback on mode 0); LinAlgError if singular."""
    blocks = (1.0 - h * op.rates[:count, np.newaxis, np.newaxis]) * np.eye(len(op.coupling))
    blocks -= h * op.coupling
    blocks[0] += h * op.node0[0] * op.feedback
    return np.linalg.inv(blocks)


def _source_response(op: DiscreteOperator, sim: SimConfig, h: float) -> np.ndarray:
    """Each mode's response c_j to one step of a unit-amplitude source, one
    number for every agent: coupling and feedback vanish on a common field."""
    if sim.source == "off":
        return np.zeros(sim.nx)
    return sim.dt * _to_modes(op, forcing_shape(sim.grid)) / (1.0 - h * op.rates)


def _block_step(op: DiscreteOperator, sim: SimConfig):
    """One theta-step as the block map y_j <- P_j y_j + Q_j y_0 + a(t) c_j, any coupling.

    P_j = (inv_j - (1 - theta) I)/theta and Q_j = s_j inv_j F inv_0 with
    s_j = -h node0_j/theta, s_0 = 0, kept factored as (a_j P_j + b_j I) G,
    a = theta s, b = (1 - theta) s, G = F inv_0: one matrix per mode, and c
    from ``_source_response``.  ``simulate`` builds it at most once per run.
    """
    theta = THETA[sim.scheme]
    h = theta * sim.dt
    inverses = _implicit_inverses(op, h, sim.nx)
    shed = (-h / theta) * op.node0
    shed[0] = 0.0
    g = op.feedback @ inverses[0]
    diagonal = np.arange(len(g))
    inverses[:, diagonal, diagonal] -= 1.0 - theta
    inverses /= theta
    source = _source_response(op, sim, h)[:, np.newaxis]
    return inverses, theta * shed, (1.0 - theta) * shed, g, source


def _stepwise(op, sim, step, frames, steps) -> None:
    """One stride of the block map ``step`` on agent-major modal frames (2, N+1, nx),
    in place: from ``frames[0]`` at step ``steps[0]``, ``frames[1]`` at ``steps[1]``.

    |z_a| <= sum_j |y_ja| since |cos| <= 1, so a step is checked on the grid
    only when that crosses the divergence limit.
    """
    p, a, b, g, source = step
    n, dt, h = len(op.coupling) - 1, sim.dt, THETA[sim.scheme] * sim.dt
    y = frames[0].T  # mode-major
    for s in range(steps[0] + 1, steps[1] + 1):
        fed = y[:1] @ g.T  # G y_0 as a row
        y = ((p @ (y + a[:, np.newaxis] * fed)[..., np.newaxis])[..., 0] + b[:, np.newaxis] * fed
             + forcing_amplitude((s - 1) * dt + h) * source)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.abs(y).sum(axis=0).max() <= _DIVERGENCE_LIMIT:
                _check_finite((op.modes @ y).T, n, sim.nx, s, dt)
    frames[1] = y.T


def _frame_blocks(count: int) -> list[slice]:
    """Slices that cut ``count`` frames into at most ``_FRAME_BLOCKS`` blocks."""
    size = -(-count // _FRAME_BLOCKS)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _eigen_frames(op: DiscreteOperator, sim: SimConfig, basis, y: np.ndarray):
    """The whole run from the agent-major modal start y (N+1, nx), in the basis.

    The state is a source-free part plus the source's response q_j (see
    ``_source_response``).  A step of the former is P_0 on mode 0 and, on
    each mode j >= 1, y^_j <- D_j y^_j + feed_j (G y_0), G = V^-1 F inv_0;
    q_j <- rho_j q_j + a(t) c_j.  All strides are walked forward at once,
    in chunks of c steps sized to the frames: mode 0 and q a step at a
    time, the other modes' chunk sum as one product over the in-stride
    index k with D^(c-1-k) feed, the earlier chunks' sum carried on by D^c.
    Returns the modal frames (n_frames, N+1, nx) and per stride of L steps
    a bound on every max_x |z_a| in it: |y^| <= max(1, |D^L|) (|y^_start|
    + |feed| sum |G y_0|) mode by mode, likewise q, and |z_a| <= |y_0a| +
    (|V| sum_j |y^_j|)_a + sum_j |q_j| as |cos| <= 1.  An exactly singular
    block needs no check here: its zero divisor makes every bound non-finite.
    """
    v, v_inv, lam = basis
    theta = THETA[sim.scheme]
    dt, h = sim.dt, theta * sim.dt
    m, nx = y.shape
    src = _source_response(op, sim, h)
    inv0 = _implicit_inverses(op, h, 1)[0]
    den = 1.0 - h * op.rates[1:] - h * lam[:, np.newaxis]
    p0 = (inv0 - (1.0 - theta) * np.eye(m)) / theta
    g = v_inv @ op.feedback @ inv0
    d = (1.0 / den - (1.0 - theta)) / theta
    feed = (-h / theta) * op.node0[1:] / den
    rho = (1.0 / (1.0 - h * op.rates) - (1.0 - theta)) / theta

    stride = min(sim.output_stride, sim.n_steps)
    full, rest = divmod(sim.n_steps, stride)
    n_frames = full + bool(rest) + 1
    # mode 0 of the source-free part, and its other modes in the basis until the end
    frames = np.zeros((n_frames, m, nx))
    y0, hat = frames[:, :, 0], frames[:, :, 1:]
    y0[0], hat[0] = y[:, 0], v_inv @ y[:, 1:]
    q = np.zeros((n_frames, nx))
    bound = np.empty((n_frames - 1, m))
    budget = n_frames * nx  # per agent, the size of the returned frames
    for length, first, count in [(stride, 0, full)] + [(rest, full, 1)] * bool(rest):
        last = first + count
        power = np.linalg.matrix_power(p0, length)
        for f in range(first, last):
            y0[f + 1] = power @ y0[f]
        feed_sum, amp_sum = np.zeros((count, m)), np.zeros(count)
        top = np.abs(y0[first + 1 : last + 1])  # max |y_0| over the stride
        chunk = max(1, min(length, budget // max(m, count, nx - 1)))
        table = np.empty((m, chunk, nx - 1))  # D^(chunk-1-k) feed, from its end
        table[:, -1] = feed
        for k in range(chunk - 1, 0, -1):
            np.multiply(d, table[:, k], out=table[:, k - 1])
        mode0, ahead, q_end = y0[first:last].T, hat[first + 1 : last + 1], q[first + 1 : last + 1]
        # D^chunk carries the earlier chunks' sum on to the end of a later chunk
        carry = np.prod(np.broadcast_to(d, (chunk, *d.shape)), axis=0) if chunk < length else 1.0
        for start in range(length % -chunk, length, chunk):  # only the first chunk is short
            i = np.arange(max(start, 0), start + chunk)  # the chunk's in-stride steps
            amp = forcing_amplitude((stride * np.arange(first, last)[:, np.newaxis] + i) * dt + h)
            walk = np.empty((i.size, m, count))  # mode 0 at those steps, every stride
            for k in range(i.size):  # q_end holds q / c until the stride ends
                walk[k], mode0 = mode0, p0 @ mode0
                q_end *= rho
                q_end += amp[:, k, np.newaxis]
            w_t = (g @ walk).transpose(1, 2, 0)  # G y_0 as (basis, stride, step)
            for b in _frame_blocks(count):
                if start > 0:
                    ahead[b] *= carry
                ahead[b] += (w_t[:, b] @ table[:, chunk - i.size :]).transpose(1, 0, 2)
            top = np.maximum(top, np.abs(walk).max(axis=0).T)
            feed_sum += np.abs(w_t).sum(axis=2).T
            amp_sum += np.abs(amp).sum(axis=1)
        q_end *= src
        d_len, rho_len = d**length, rho**length
        for f in range(first, last):
            hat[f + 1] += d_len * hat[f]
            q[f + 1] += rho_len * q[f]
        grow, grow_src = np.maximum(1.0, np.abs(d_len)), np.maximum(1.0, np.abs(rho_len))
        reach = feed_sum * (grow * np.abs(feed)).sum(axis=1)
        for b in _frame_blocks(count):
            reach[b] += np.einsum("fak,ak->fa", np.abs(hat[first:last][b]), grow)
        reach_src = np.abs(q[first:last]) @ grow_src + amp_sum * (grow_src @ np.abs(src))
        bound[first:last] = top + reach @ np.abs(v).T + reach_src[:, np.newaxis]
    for b in _frame_blocks(n_frames):
        hat[b] = v @ hat[b]
    frames += q[:, np.newaxis]
    return frames, bound


def simulate(net: NetworkConfig, sim: SimConfig) -> Trajectory:
    """Run the closed loop and sample every ``output_stride`` steps.

    The theta-method (I - theta dt A) y_{n+1} = (I + (1 - theta) dt A) y_n
    + dt f(t_n + theta dt), with theta = 1/2 for Crank-Nicolson (source at
    the half step) and theta = 1 for backward Euler (source at the step
    end).  With an ``_agent_basis`` the run is ``_eigen_frames``; the block
    map then walks each stride that its bound does not vouch for, from the
    frame before, and rewrites its end frame, or every stride when there is
    no basis: divergence is decided step by step.  Raises Divergence (with
    step and agent) if the field leaves the finite range; an exactly
    singular implicit block diverges at step 1.
    """
    n = net.n
    op = assemble_operator(net, sim)
    y = _to_modes(op, np.vstack(_resolve_initial_conditions(net, sim)))  # agent-major: (N+1, nx)
    steps = np.append(np.arange(0, sim.n_steps, sim.output_stride), sim.n_steps)
    basis = _agent_basis(net, op)
    try:
        if basis is None:  # no bound: every stride is unsafe
            step = _block_step(op, sim)  # its inverses first: they can outweigh the frames
            frames = np.empty((len(steps), n + 1, sim.nx))
            frames[0], unsafe = y, range(len(steps) - 1)
        else:  # a blow-up or an exactly singular block only fails a bound
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                frames, bound = _eigen_frames(op, sim, basis, y)
                unsafe = np.flatnonzero(~(bound <= _DIVERGENCE_LIMIT).all(axis=1))
            step = _block_step(op, sim) if len(unsafe) else None
        for f in unsafe:
            _stepwise(op, sim, step, frames[f : f + 2], steps[f : f + 2])
    except np.linalg.LinAlgError:  # exactly singular: no state after step 1 is defined
        raise Divergence(step=1, t=sim.dt, agent=1 if n else "leader")
    return Trajectory(times=steps * sim.dt, frames=frames, modes=op.modes)


def sync_errors(traj: Trajectory) -> ErrorSeries:
    """Per-agent L2 errors to the leader, their root sum of squares, and the
    largest L2 distance between two followers, all off the modal frames.

    Discrete Parseval for the DCT-I: modes^T diag(w) modes = diag(c) for the
    trapezoid weights w and c = (1, 1/2, .., 1/2, 1), so ||modes y||_w^2 =
    sum_j c_j y_j^2.  Each distance is that sum over the modal difference
    itself, so nothing cancels between the fields; pairs go one follower
    against all later ones, a block of frames at a time.
    """
    frames = traj.frames
    count, n, nx = len(frames), frames.shape[1] - 1, frames.shape[2]
    c = np.where(np.arange(nx) % (nx - 1), 0.5, 1.0)  # 1 at j = 0 and j = nx - 1
    per_sq, pair_sq = np.empty((n, count)), np.zeros(count)
    for b in _frame_blocks(count):
        y = frames[b, :n]
        per_sq[:, b] = ((y - frames[b, n:]) ** 2 @ c).T
        for a in range(n - 1):
            d2 = (y[:, a : a + 1] - y[:, a + 1 :]) ** 2 @ c
            pair_sq[b] = np.maximum(pair_sq[b], d2.max(axis=1))
    return ErrorSeries(times=traj.times.copy(), per_agent_l2=np.sqrt(per_sq),
                       total_l2=np.sqrt(per_sq.sum(axis=0)), pairwise_max=np.sqrt(pair_sq))


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
