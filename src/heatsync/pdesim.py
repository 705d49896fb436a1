"""Closed-loop simulation of the follower/leader heat-equation network.

Method of lines on a uniform grid over [0, 1]: second-order central
differences with ghost-point elimination at the Neumann rows, so the whole
closed loop, nonlocal boundary feedback included, is one constant linear
operator.  It is held in the cosine basis cos(j pi x), which diagonalizes
the ghost-point stencil exactly (fast diagonalization, Lynch, Rice & Thomas
1964): every mode of every agent decays at its own rate, the in-domain
coupling acts on each mode alike, and the trapezoid integral that the
boundary feedback reads is the j=0 coefficient.  Time stepping is the
theta-method: Crank-Nicolson (theta = 1/2, the default: unconditionally
stable, second order) or backward Euler (theta = 1, for stiff debugging).

The forcing acts on every agent alike, and the coupling and the feedback
vanish on a field common to all agents, so ``simulate`` runs the follower
errors z_i - z_leader as a source-free N x N system and the leader alone,
one scalar recurrence per mode.  The error generator is block
lower-triangular over the modes: mode 0 carries the feedback and every
other mode reads only mode 0.  Its one stepper, the block map, walks every
output stride whose end frames may reach the divergence limit on the grid,
and names the step and agent that do.  When a diagonal scaling makes
the coupling G L symmetric (a common g, or per-agent g of one strict sign)
it makes mode 0's block symmetric too, and ``eigh`` diagonalizes both, the
fast diagonalization over the agents.  Then mode 0 is read at every frame
in closed form, and so is the leader's response to a stride, rank two in
the phase of the forcing at the stride's start; only the other error
modes are walked, all strides forward at once.  Work over all the frames is
done an eighth of them at a time.  ``simulate`` returns modal frames, and
``sync_errors`` reads the error frames by discrete Parseval.  Modes reach
the grid only through ``to_grid``, a DCT-I by FFT, so no nx x nx matrix is
built.  Only numpy is needed.
``NetworkConfig`` and ``SimConfig`` live in ``scenarios``: reading a config
loads no simulator and builds no grid.  A run is refused, as a ValueError,
before its arrays are built when its frames and working arrays exceed
physical memory (``_frame_steps``), and a spectrum when its nx-long and
N x N arrays do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Divergence, NonPositiveSeries
from .graph import laplacian
from .scenarios import (FORCING_RATE, THETA, NetworkConfig, SimConfig,
                        _resolve_initial_conditions, forcing_amplitude, forcing_shape,
                        refuse_beyond_memory)

_DIVERGENCE_LIMIT = 1e12
_FRAME_BLOCKS = 8  # work the size of the frames is done an eighth at a time
# Besides its frames and the two blocks of them it works on, a run holds nx-long arrays of
# every agent and the leader: the start fields, their transforms and the rates.  On sectionV
# at nx = 1001 .. 4001 they peak at 9 to 16 fields of N + 1 agents.
_WORK_FIELDS = 16
# N x N arrays a run may hold at once, while ``_agent_basis`` sums a chunk of edges: the
# coupling, its symmetric form, eigh's vectors and the bases (2 each), the chunk's
# differences and the two tables they are taken from (1 each) and, on a complete graph,
# the edge list, N^2 / 2 pairs
_SQUARES = 10
# Every chunk of a stride costs the same Python overhead, so a run with few frames would
# walk a long stride a step or two at a time: a chunk's D table may hold this many entries
# per agent however few the frames.  Twice as many lift a few-frame run's peak by 70 %.
_CHUNK_FLOOR = 1024


def trapezoid_weights(nx: int) -> np.ndarray:
    """Trapezoid weights of the uniform nx-point grid on [0, 1], the cosine modes' quadrature."""
    dx = 1.0 / (nx - 1)
    w = np.full(nx, dx)
    w[0] = w[-1] = dx / 2.0
    return w


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Spatially discretized error generator in the cosine basis.

    A state is a matrix E of modal coefficients of the follower errors e_i
    = z_i - z_leader, one row per follower and one column per mode j = 0 ..
    nx-1; error i's field on the grid is ``to_grid(E[i])``.  The generator
    maps E to ``E * rates + coupling @ E - outer(feedback * E[:, 0], node0)``:
    ``rates`` are the heat stencil's eigenvalues, ``coupling`` is G L, and
    ``feedback[i]`` = (2 beta/dx) k_i m_i is the flux per unit of trapezoid
    integral E[i, 0] that the boundary feedback injects at the x=0 node,
    ``node0`` in modal coordinates.  The leader obeys y' = y * rates plus
    the forcing, which, common to all agents, drops out of the errors.
    """

    grid: np.ndarray  # (nx,)
    rates: np.ndarray  # (nx,), alpha - (4 beta/dx^2) sin^2(j pi dx/2)
    coupling: np.ndarray  # (N, N)
    feedback: np.ndarray  # (N,)

    @property
    def node0(self) -> np.ndarray:
        """The x=0 grid node in modal coordinates, M^-1 e_0 for the mode matrix M.

        Column 0 of M^-1 (see ``_to_modes``): row 0 of M is all ones, so it
        is diag(1, 2, .., 2, 1) w_0 = w, the trapezoid weights.
        """
        return trapezoid_weights(self.grid.size)


def to_grid(y: np.ndarray) -> np.ndarray:
    """The fields sum_j y_j cos(j pi x_i) on the nx-point grid of the modal
    coefficients y, over the last axis: the DCT-I, from the FFT of y's even
    extension (y_0 .. y_m, y_m-1 .. y_1), m = nx - 1, whose real part f
    gives (f + y_0 + (-1)^i y_m) / 2."""
    m = y.shape[-1] - 1
    f = np.fft.rfft(np.concatenate([y, y[..., m - 1 : 0 : -1]], axis=-1)).real
    return (f + y[..., :1] + (-1.0) ** np.arange(m + 1) * y[..., -1:]) / 2.0


def _to_modes(op: DiscreteOperator, z: np.ndarray) -> np.ndarray:
    """Modal coefficients of the grid fields z (rows): the mode matrix M is
    symmetric and orthogonal under the trapezoid weights w, so M^-1 =
    diag(1, 2, .., 2, 1) M diag(w).  Row 0 of M^-1 is w."""
    w = op.node0
    return to_grid(z * w) * (2 * (op.grid.size - 1) * w)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled modal frames of one run: ``frames[f, i]`` holds the cosine
    coefficients of follower i's error z_i - z_leader at ``times[f]``, and
    ``leader[f]`` the leader's.  A caller maps only the frames it needs to
    the grid: follower i's field is ``to_grid(frames[f, i] + leader[f])``."""

    times: np.ndarray  # (n_frames,)
    frames: np.ndarray  # (n_frames, N, nx)
    leader: np.ndarray  # (n_frames, nx)


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """L2 error diagnostics derived from a trajectory's error frames."""

    times: np.ndarray  # (n_frames,)
    per_agent_l2: np.ndarray  # (n_agents, n_frames), ||z_i - z_leader||_L2
    total_l2: np.ndarray  # (n_frames,)
    pairwise_max: np.ndarray  # (n_frames,), max_{i<j} ||z_i - z_j||_L2


def assemble_operator(net: NetworkConfig, sim: SimConfig) -> DiscreteOperator:
    """Build the discrete error generator for a scenario.

    Every agent obeys the Neumann heat stencil; follower x=0 nodes pick up
    the boundary feedback flux -(2 beta / dx) * k_i m_i * trapezoid(z_i - z_l)
    from eliminating the ghost node against the prescribed boundary slope,
    and the in-domain coupling adds g_i * l_ij pointwise across agents.
    Raises ValueError when finite parameters overflow into an entry of
    ``rates``, ``coupling`` or ``feedback`` that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        j = np.arange(sim.nx)
        rates = net.alpha - 4.0 * net.beta / sim.dx**2 * np.sin(np.pi * j * sim.dx / 2) ** 2
        coupling = net.g_vector[:, np.newaxis] * laplacian(net.graph)
        feedback = (2.0 * net.beta / sim.dx) * net.boundary_gains
    if not all(np.isfinite(part).all() for part in (rates, coupling, feedback)):
        raise ValueError("the closed-loop operator overflows: alpha, beta, k or g is too large")
    return DiscreteOperator(grid=sim.grid, rates=rates, coupling=coupling, feedback=feedback)


def _has_basis(g: np.ndarray) -> bool:
    """Whether ``_agent_basis`` finds a basis for the gains g: a common g, or one strict sign."""
    return bool((g == g[:1]).all() or (g > 0).all() or (g < 0).all())


def _agent_basis(net: NetworkConfig, op: DiscreteOperator):
    """((V, V^-1, lam), (W, W^-1, nu)) with C = G L = V diag(lam) V^-1 and
    mode 0's C - node0_0 F = W diag(nu) W^-1, F = diag(feedback), or None.

    A common g makes C symmetric.  Per-agent g of one strict sign makes S^-1 C
    S and S^-1 (C - node0_0 F) S symmetric for S = |G|^1/2: V = S U and W = S
    U0 from their ``eigh``, cond <= (max|g|/min|g|)^1/2.  Other g gives None.
    """
    g = net.g_vector
    if not _has_basis(g):
        return None
    scale = np.where(g == 0.0, 1.0, np.sqrt(np.abs(g)))  # a common g of 0: C = 0
    sym = op.coupling / scale[:, np.newaxis] * scale
    vectors = np.linalg.eigh(np.stack([sym, sym - np.diag(op.node0[0] * op.feedback)]))[1]
    # eigh's values are off by about eps |C|, their Rayleigh quotients are not: u^T S^-1 C S u
    # = sign(g) sum over the edges of ((S u)_i - (S u)_j)^2 has no cancellation.  It is taken
    # N/2 edges at a time, each chunk's squares summed on from the sum so far, in the order
    # and so to the bits of one (2, E, N) table, so a chunk's tables weigh half the bases each
    i, j = np.array(net.graph.edges, dtype=int).reshape(-1, 2).T - 1
    bases = scale[:, np.newaxis] * vectors  # V and W
    values, size = np.zeros((2, net.n)), max(net.n // 2, 1)
    for lo in range(0, len(i), size):
        diff = bases.take(i[lo : lo + size], axis=1) - bases.take(j[lo : lo + size], axis=1)
        values = np.concatenate([values[:, None], np.square(diff, out=diff)], axis=1).sum(axis=1)
    values *= np.sign(g.sum())
    values[1] -= op.node0[0] * (op.feedback[:, np.newaxis] * vectors[1] ** 2).sum(axis=0)
    values /= (vectors**2).sum(axis=1)
    return tuple((v, u.T / scale, lam) for v, u, lam in zip(bases, vectors, values))


def _leader_step(op: DiscreteOperator, sim: SimConfig):
    """(rho, c): one theta-step of the leader is y_j <- rho_j y_j + a(t) c_j on
    every mode, with the source amplitude a at t_n + theta dt; c = 0 without
    a source.  An exactly singular mode makes rho_j infinite."""
    theta = THETA[sim.scheme]
    inverse = 1.0 / (1.0 - theta * sim.dt * op.rates)
    shape = forcing_shape(sim.grid) if sim.source == "paper" else np.zeros(sim.nx)
    return (inverse - (1.0 - theta)) / theta, sim.dt * _to_modes(op, shape) * inverse


def _block_step(op: DiscreteOperator, sim: SimConfig):
    """One theta-step of the errors as the block map y_j <- P_j y_j + Q_j y_0, any coupling.

    With inv_j the inverse of mode j's block of I - h A, (1 - h rates_j) I -
    h C plus h node0_0 F on mode 0: P_j = (inv_j - (1 - theta) I)/theta and
    Q_j = s_j inv_j F inv_0 with s_j = -h node0_j/theta, s_0 = 0, kept
    factored as (a_j P_j + b_j I) G, a = theta s, b = (1 - theta) s, G = F
    inv_0: one matrix per mode.  ``simulate`` builds it at most once per run.
    """
    theta = THETA[sim.scheme]
    h = theta * sim.dt
    blocks = (1.0 - h * op.rates[:, np.newaxis, np.newaxis]) * np.eye(len(op.coupling))
    blocks -= h * op.coupling
    blocks[0] += h * op.node0[0] * np.diag(op.feedback)
    inverses = np.linalg.inv(blocks)  # LinAlgError if a block is singular
    shed = (-h / theta) * op.node0
    shed[0] = 0.0
    g = op.feedback[:, np.newaxis] * inverses[0]
    diagonal = np.arange(len(g))
    inverses[:, diagonal, diagonal] -= 1.0 - theta
    inverses /= theta
    return inverses, theta * shed, (1.0 - theta) * shed, g


def _grid_reach(errors: np.ndarray, leader: np.ndarray) -> np.ndarray:
    """max_i sum_j |e_ij| + sum_j |y_j| of modal error frames (..., N, nx) and
    the leader's (..., nx): no field on the grid is larger, as |cos| <= 1."""
    return np.abs(errors).sum(axis=-1).max(axis=-1, initial=0.0) + np.abs(leader).sum(axis=-1)


def _stepwise(sim, step, recurrence, frames, lead, steps) -> None:
    """One stride of the block map ``step`` on modal error frames (2, N, nx)
    and of the leader's ``recurrence`` on its modal frames ``lead`` (2, nx),
    in place: from frame 0 at step ``steps[0]``, frame 1 at ``steps[1]``.

    A step is checked on the grid, followers first, only when its
    ``_grid_reach`` is past the limit.
    """
    p, a, b, g = step
    rho, c = recurrence
    dt, h = sim.dt, THETA[sim.scheme] * sim.dt
    y, x = frames[0].T, lead[0]  # mode-major
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps[0] + 1, steps[1] + 1):
            fed = y[:1] @ g.T  # G y_0 as a row
            y = (p @ (y + a[:, np.newaxis] * fed)[..., np.newaxis])[..., 0] + b[:, np.newaxis] * fed
            x = rho * x + forcing_amplitude((s - 1) * dt + h) * c
            if not _grid_reach(y.T, x) <= _DIVERGENCE_LIMIT:
                fields = to_grid(np.vstack([y.T + x, x]))
                bad = (~np.isfinite(fields) | (np.abs(fields) > _DIVERGENCE_LIMIT)).any(axis=1)
                if bad.any():
                    agent = int(np.argmax(bad)) + 1
                    raise Divergence(step=s, t=s * dt, agent=agent if agent <= len(g) else "leader")
    frames[1], lead[1] = y.T, x


def _frame_blocks(count: int, share: float = 1.0) -> list[slice]:
    """Slices that cut ``count`` frames into at most ``_FRAME_BLOCKS`` blocks,
    or into blocks ``share`` < 1 times as long (at least one frame)."""
    size = max(1, int(share * -(-count // _FRAME_BLOCKS)))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _walks(n_steps: int, stride: int, m: int, nx: int) -> list[tuple[int, int, int, int]]:
    """(length, first, count, chunk) of each walk of ``_eigen_frames`` over the
    strides of an n_steps run of m agents: ``count`` strides of ``length``
    steps from frame ``first``, walked ``chunk`` steps at a time, for the
    strides of ``stride`` steps and then a shorter last one.  A chunk's D
    table, m x chunk x (nx - 1) doubles, holds per agent no more than the
    frames or ``_CHUNK_FLOOR`` entries."""
    full, rest = divmod(n_steps, stride)
    budget = max((full + bool(rest) + 1) * nx, _CHUNK_FLOOR)  # per agent, the size of the frames
    return [(length, first, count, max(1, min(length, budget // max(m, count, nx - 1))))
            for length, first, count in [(stride, 0, full)] + [(rest, full, 1)] * bool(rest)]


def _eigen_frames(op: DiscreteOperator, sim: SimConfig, basis, y, lead, recurrence, steps):
    """The whole run in the bases, from the modal error start y (N, nx) and
    the leader's frames ``lead`` (n_frames, nx), zero past lead[0], in place,
    with frame f at step ``steps[f]``.

    Mode 0 after s steps is W (p^s y^_0), y^_0 = W^-1 y_0, with p = (1/(1 -
    h (rates_0 + nu)) - (1 - theta))/theta: every frame of it in closed form.
    An error step on each mode j >= 1 is y^_j <- D_j y^_j + feed_j (G y_0) in
    the basis of C, G = V^-1 F inv_0, where G y_0 = G W (p^s y^_0).  All
    strides are walked forward at once, in chunks of c steps sized to the
    frames: a chunk's sum is one product over the in-stride index k with
    D^(c-1-k) feed, the earlier chunks' sum carried on by D^c.  A leader step
    is y_j <- rho_j y_j + a(t) c_j, its ``recurrence``, a(t) = sin(w t): L
    steps from zero at step s end at c Im(e^(i w (s dt + h)) x) with x =
    sum_k<L rho^(L-1-k) e^(i w k dt), one x per stride length, summed by
    doubling.  Returns the modal error frames (n_frames, N, nx) and the
    ``_grid_reach`` of each frame, taken a block of frames at a time as they
    leave the bases.  An exactly singular block needs no check here: its zero
    divisor makes the frames past it non-finite.
    """
    (v, v_inv, lam), (w, w_inv, nu) = basis
    rho, c = recurrence
    theta = THETA[sim.scheme]
    dt, h = sim.dt, theta * sim.dt
    m, nx = y.shape
    den0 = 1.0 - h * (op.rates[0] + nu)
    den = 1.0 - h * op.rates[1:] - h * lam[:, np.newaxis]
    p = (1.0 / den0 - (1.0 - theta)) / theta
    g = v_inv @ (op.feedback[:, np.newaxis] * w) / den0  # G W
    d = (1.0 / den - (1.0 - theta)) / theta
    feed = (-h / theta) * op.node0[1:] / den

    n_frames = len(steps)
    frames = np.zeros((n_frames, m, nx))
    y0, hat = frames[:, :, 0], frames[:, :, 1:]  # in the bases until the end
    y0[:], hat[0] = p ** steps[:, np.newaxis] * (w_inv @ y[:, 0]), v_inv @ y[:, 1:]
    for length, first, count, chunk in _walks(steps[-1], steps[1], m, nx):
        last = first + count
        table = np.empty((m, chunk, nx - 1))  # D^(chunk-1-k) feed, from its end
        table[:, -1] = feed
        for k in range(chunk - 1, 0, -1):
            np.multiply(d, table[:, k], out=table[:, k - 1])
        mode0, ahead = y0[first:last].T, hat[first + 1 : last + 1]
        # D^chunk carries the earlier chunks' sum on to the end of a later chunk
        carry = np.prod(np.broadcast_to(d, (chunk, *d.shape)), axis=0) if chunk < length else 1.0
        for start in range(length % -chunk, length, chunk):  # only the first chunk is short
            i = np.arange(max(start, 0), start + chunk)  # the chunk's in-stride steps
            powers = (p ** i[:, np.newaxis])[..., np.newaxis]  # times mode0: mode 0 at those steps
            for b in _frame_blocks(count):  # a block's G y_0 weighs no more than its frames
                if start > 0:
                    ahead[b] *= carry
                # G y_0 as (basis, stride, step), times the table, and no temporary outlives it
                ahead[b] += ((g @ (powers * mode0[:, b])).transpose(1, 2, 0)
                             @ table[:, chunk - i.size :]).transpose(1, 0, 2)
        # x_n = sum_k<n rho^(n-1-k) q^k, q = e^(i w dt), over the leading bits n of L:
        # x_2n = (rho^n + q^n) x_n, and x_n+1 = rho x_n + q^n where the next bit is set
        forced, n = np.zeros(nx, complex), 0
        for bit in map(int, f"{length:b}"):
            turn = np.exp(1j * FORCING_RATE * n * dt)  # q^n
            forced, n = (rho**n + turn) * forced * rho**bit + bit * turn**2, 2 * n + bit
        phase = np.exp(1j * FORCING_RATE * (steps * dt + h))
        d_len, rho_len = d**length, rho**length
        for f in range(first, last):
            hat[f + 1] += d_len * hat[f]
            lead[f + 1] = (phase[f] * forced).imag * c + rho_len * lead[f]
    y0[:] = y0 @ w.T
    reach = np.empty(n_frames)
    for b in _frame_blocks(n_frames):
        hat[b] = v @ hat[b]
        reach[b] = _grid_reach(frames[b], lead[b])
    return frames, reach


def _frame_steps(net: NetworkConfig, sim: SimConfig) -> np.ndarray:
    """The step of each frame the run returns, every ``output_stride`` steps and the last;
    ValueError, before they are listed, when the frames exceed physical memory, or the
    frames with what the run holds beside them: two blocks of them and ``_WORK_FIELDS``
    working fields, each (N + 1) x nx, ``_SQUARES`` N x N arrays and, with an agent basis,
    the largest D table of ``_walks``, without one the block map's blocks and inverses,
    16 nx N^2 bytes."""
    count = -(-sim.n_steps // sim.output_stride) + 1
    field = 8 * (net.n + 1) * sim.nx
    refuse_beyond_memory(count * field, f"the run returns {count} frames of")
    size = (count + 2 * -(-count // _FRAME_BLOCKS) + _WORK_FIELDS) * field + 8 * _SQUARES * net.n**2
    if _has_basis(net.g_vector):
        walks = _walks(sim.n_steps, min(sim.output_stride, sim.n_steps), net.n, sim.nx)
        table = max(8 * net.n * chunk * (sim.nx - 1) for *_, chunk in walks)
        size, held = size + table, "working fields"
    else:
        size, held = size + 16 * sim.nx * net.n**2, "working fields and block map"
    refuse_beyond_memory(size, f"the run's {count} frames with its {held} take")
    return np.append(np.arange(0, sim.n_steps, sim.output_stride), sim.n_steps)


def simulate(net: NetworkConfig, sim: SimConfig) -> Trajectory:
    """Run the closed loop and sample every ``output_stride`` steps.

    The theta-method (I - theta dt A) y_{n+1} = (I + (1 - theta) dt A) y_n
    + dt f(t_n + theta dt), with theta = 1/2 for Crank-Nicolson (source at
    the half step) and theta = 1 for backward Euler (source at the step
    end), on the errors without f and on the leader with it.  With an
    ``_agent_basis`` the run is ``_eigen_frames``, and the block map walks
    each stride with an end frame whose ``_grid_reach`` is past the limit or
    not finite, from the frame before, and rewrites its end frames; without
    a basis it walks every stride.  Raises Divergence (with step and agent)
    if a field on the grid passes the limit at a step the block map walks; an
    exactly singular implicit block diverges at step 1.  Raises ValueError,
    before any array of the run is made, when its frames and working fields,
    and without a basis the block map, exceed physical memory
    (``_frame_steps``).  A frame reaches the grid only through ``to_grid``:
    no nx x nx mode matrix is built.
    """
    steps = _frame_steps(net, sim)
    count = len(steps)
    op = assemble_operator(net, sim)
    followers, leader = _resolve_initial_conditions(net, sim)
    errors = _to_modes(op, followers - leader)  # taken on the grid
    basis = _agent_basis(net, op)
    try:
        # no basis: inverses first, as they can outweigh the frames
        step = _block_step(op, sim) if basis is None else None
        lead = np.zeros((count, sim.nx))
        lead[0] = _to_modes(op, leader)
        # a frame out of range makes its strides walked, so no warning
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            recurrence = _leader_step(op, sim)
            if basis is None:
                frames, reach = np.empty((count, net.n, sim.nx)), np.full(count, np.inf)
                frames[0] = errors
            else:
                frames, reach = _eigen_frames(op, sim, basis, errors, lead, recurrence, steps)
        unsafe = np.flatnonzero(~(np.maximum(reach[:-1], reach[1:]) <= _DIVERGENCE_LIMIT))
        if step is None and len(unsafe):
            step = _block_step(op, sim)
        for f in unsafe:
            pair = slice(f, f + 2)
            _stepwise(sim, step, recurrence, frames[pair], lead[pair], steps[pair])
    except np.linalg.LinAlgError:  # exactly singular: no state after step 1 is defined
        raise Divergence(step=1, t=sim.dt, agent=1)
    return Trajectory(times=steps * sim.dt, frames=frames, leader=lead)


def sync_errors(traj: Trajectory) -> ErrorSeries:
    """Per-agent L2 errors to the leader, their root sum of squares, and the
    largest L2 distance between two followers, all off the modal error frames.

    Discrete Parseval for the DCT-I: M^T diag(w) M = diag(c) for the mode
    matrix M, the trapezoid weights w and c = (1, 1/2, .., 1/2, 1), so
    ||to_grid(y)||_w^2 = sum_j c_j y_j^2.  Every pair is read off one Gram
    product per block of frames, G = (z * c) z^T, of the errors measured
    from follower 0, z_i = y_i - y_0: ||z_i - z_j||^2 = G_ii + G_jj - 2 G_ij.  As z_0 = 0, each
    ||z_i|| is itself a pair distance, so no term outgrows the largest one
    and nothing cancels against a leader far from the followers.
    """
    frames = traj.frames
    count, n, nx = frames.shape
    c = np.where(np.arange(nx) % (nx - 1), 0.5, 1.0)  # 1 at j = 0 and j = nx - 1
    per_sq, pair_sq = np.empty((n, count)), np.zeros(count)
    for b in _frame_blocks(count, nx / max(n, nx)):  # a block's G no larger than its frames
        per_sq[:, b] = (frames[b] ** 2 @ c).T
        z = frames[b] - frames[b, :1]
        gram = (z * c) @ z.transpose(0, 2, 1)
        # G_ii / 2 + G_jj / 2 - G_ij is half of each squared distance, bit for bit,
        # and spares a temporary 2 G
        half = np.einsum("fii->fi", gram)[..., np.newaxis] / 2.0
        pair_sq[b] = 2.0 * (half + half.transpose(0, 2, 1) - gram).max(axis=(1, 2), initial=0.0)
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

    The generator (see ``DiscreteOperator``) is block lower-triangular over
    the cosine modes, so its eigenvalues are those of the N x N mode
    blocks: rates_0 + eig(C - node0_0 F) for the constant mode and rates_j
    + eig(C) for the others, with C the coupling and F = diag(feedback).
    Rounding keeps order, so the largest rate j >= 1 plus eig(C) is the top
    of every mode j >= 1, bit for bit, and no (nx - 1) x N table is built.
    The value describes the spatial discretization alone; no time step
    enters it.  Raises ValueError when finite parameters overflow into an
    abscissa that is not finite, and, before any of them is built, when its
    arrays exceed physical memory.
    """
    if net.n < 1:
        raise DimensionMismatch("spectral abscissa needs at least one follower")
    # the grid, the rates and the mode indices they are taken from, and four N x N arrays: the
    # coupling, mode 0's block and the diagonal it is built from, or, while the coupling is
    # built, the Laplacian and the edge tables
    refuse_beyond_memory(8 * (3 * sim.nx + 4 * net.n**2), "the spectrum's arrays take")
    op = assemble_operator(net, sim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        lam0 = op.rates[0] + np.linalg.eigvals(op.coupling - np.diag(op.node0[0] * op.feedback))
        lam1 = op.rates[1:].max() + np.linalg.eigvals(op.coupling)
        abscissa = np.maximum(lam0.real.max(), lam1.real.max())  # keeps a nan
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
