"""Independent references the tests hold the production code to.

None of these runs on a production path.  ``sym_eigenvalues`` is a
hand-rolled cyclic Jacobi iteration (slow, accurate, no LAPACK),
``is_negative_definite`` decides definiteness by a Cholesky attempt, and
``closed_form_certificate`` writes the certificate out block by block.
Production decides certificates from one ``eigvalsh`` call in
``heatsync.evaluate_certificate``; the tests check it against these.
``schur_reduction`` and ``coupling_gain_feasible`` restate feasibility of
a certificate with beta = 1 and common scalar gains as an N x N
positive-definiteness test and a sign test on the Laplacian kernel; each
asserts that its config lies in that regime.
``modal_apply`` applies the error generator to modal error coefficients
straight from the fields of ``heatsync.DiscreteOperator`` (production
never forms that product: its steps only solve).
``cosine_modes`` writes the mode matrix cos(j pi x_i) out as a dense nx x nx
array, in any float precision, and ``inverse_modes`` its inverse;
production maps modes to the grid and back by the FFT (``heatsync.to_grid``)
and forms neither.
``dense_operator`` assembles the closed-loop generator entry by entry as a
dense array on the grid, and ``dense_simulate`` steps it with a dense LU
and the source evaluated afresh every step (``forcing_profile``), and
decides divergence on the grid by its own rule; production runs the
follower errors and the leader apart in the cosine basis and steps them
one mode at a time.  ``GridTrajectory`` holds a run as fields on the grid, the
route production left: ``on_grid`` maps every frame of a modal
``heatsync.Trajectory`` there, each follower as its error plus the
leader, and ``from_grid`` back, ``grid_errors``
takes trapezoid sums of the error fields and ``pairwise_max`` of the
follower differences, pair by pair.  ``modal_pairwise_max`` loops over the
pairs on the modal differences with the Parseval weights; production
does the same a follower against all later ones per block of frames.  ``dense_abscissa`` takes every eigenvalue
of the leading N*nx block of ``dense_operator``, the error generator;
production reads them off the (N x N) mode blocks.  ``table_abscissa``
tops the whole (nx - 1) x N table of the modes j >= 1, rates_j + eig(C);
production reads it off the largest rate.  ``unchunked_basis_values``
sums the Rayleigh quotients of ``pdesim._agent_basis``' bases from one
(2, E, N) table of the edge differences; production sums them N/2 edges
at a time.  ``NoConvergence`` is raised by the
Jacobi solver only.
``wirtinger_check`` probes the one-sided Wirtinger inequality on sampled
profiles by finite differences, for acceptance check C5; production
never evaluates it.  ``GridTooCoarse`` is raised by that probe only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from heatsync import (
    SymMatrix,
    Trajectory,
    assemble_operator,
    connected_components,
    laplacian,
    leader_mask,
    trapezoid_weights,
)
from heatsync.errors import Divergence
from heatsync.scenarios import _resolve_initial_conditions, forcing_amplitude, forcing_shape


class NoConvergence(Exception):
    """``sym_eigenvalues`` hit its sweep cap above tolerance."""


class GridTooCoarse(Exception):
    """``wirtinger_check`` got too few samples for its stencils."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) plus the Jacobi iteration bookkeeping."""

    eigenvalues: np.ndarray
    iterations: int
    residual: float


def _as_sym(a) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(a)


def sym_eigenvalues(a, tol: float = 1e-11, max_sweeps: int = 100) -> Spectrum:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Convergence: the largest off-diagonal magnitude drops below
    ``tol * max(1, ||A||_F)``.  Quadratic convergence makes a handful of
    sweeps enough at the certificate sizes the tests use (dim <= ~40).

    Raises NoConvergence if the sweep cap is hit above tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = _as_sym(a).mat.copy()
    n = w.shape[0]
    if n == 0:
        raise ValueError("empty matrix has no spectrum")
    if n == 1:
        return Spectrum(eigenvalues=w.diagonal().copy(), iterations=0, residual=0.0)
    threshold = tol * max(1.0, float(np.linalg.norm(w, "fro")))

    def max_off(m):
        off = m - np.diag(m.diagonal())
        return float(np.abs(off).max())

    rotations = 0
    for _ in range(max_sweeps):
        if max_off(w) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp, rq = w[p, :].copy(), w[q, :].copy()
                w[p, :] = c * rp - s * rq
                w[q, :] = s * rp + c * rq
                cp, cq = w[:, p].copy(), w[:, q].copy()
                w[:, p] = c * cp - s * cq
                w[:, q] = s * cp + c * cq
                w[p, q] = w[q, p] = 0.0
                rotations += 1
    residual = max_off(w)
    if residual > threshold:
        raise NoConvergence(
            f"jacobi residual {residual:.3e} above {threshold:.3e} "
            f"after {max_sweeps} sweeps"
        )
    return Spectrum(
        eigenvalues=np.sort(w.diagonal()), iterations=rotations, residual=residual
    )


def is_negative_definite(a, margin: float = 0.0) -> bool:
    """True iff -(A + margin*I) is positive definite (Cholesky succeeds).

    Equivalent to max eigenvalue < -margin; any pivot failure means False.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    m = _as_sym(a).mat
    shifted = -(m + margin * np.eye(m.shape[0]))
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def closed_form_certificate(cfg) -> np.ndarray:
    """The certificate written block by block, for any beta and per-agent gains::

        [ -(beta pi^2/2) I    beta K M                          ]
        [ beta K M            2 alpha I - 2 beta K M + sym(G L) ]

    with K = diag(k), M the leader mask, G = diag(g), sym(X) = (X + X^T)/2.
    """
    n = cfg.n
    lap = laplacian(cfg.graph).astype(float)
    kbar = np.diag(cfg.k_vector) @ leader_mask(cfg.graph).astype(float)
    gl = cfg.g_vector[:, None] * lap
    eye = np.eye(n)
    top = np.hstack([-(cfg.beta * np.pi**2 / 2.0) * eye, cfg.beta * kbar])
    bottom = np.hstack(
        [cfg.beta * kbar, 2.0 * cfg.alpha * eye - 2.0 * cfg.beta * kbar + (gl + gl.T) / 2.0]
    )
    return np.vstack([top, bottom])


def _assert_normalized(cfg) -> None:
    # the closed forms below hold for unit diffusion and common scalar gains
    assert cfg.beta == 1.0 and cfg.k_scalar is not None and cfg.g_scalar is not None


def schur_reduction(cfg) -> SymMatrix:
    """N x N Schur complement of a normalized certificate (beta=1, scalar gains)::

        D = 2 k M - 2 alpha I - g L - (2 k^2 / pi^2) M

    The full 2N x 2N certificate is negative definite iff D is positive
    definite (the upper-left block is unconditionally negative).
    """
    _assert_normalized(cfg)
    k, g = cfg.k_scalar, cfg.g_scalar
    lap = laplacian(cfg.graph).astype(float)
    mask = leader_mask(cfg.graph).astype(float)
    eye = np.eye(cfg.n)
    return SymMatrix(
        2.0 * k * mask - 2.0 * cfg.alpha * eye - g * lap - (2.0 * k**2 / np.pi**2) * mask
    )


def coupling_gain_feasible(cfg) -> bool:
    """Whether some in-domain gain makes a normalized certificate feasible.

    For a connected follower graph the Laplacian kernel is the span of the
    all-ones vector, so by Finsler's lemma a feasible g exists iff the
    quadratic form of Q = 2 alpha I - 2 k M + (2 k^2/pi^2) M at the all-ones
    vector is negative, i.e. 2 k s - 2 alpha N - (2 k^2/pi^2) s > 0 with s
    the leader count.  The coupling gain cannot influence this quantity
    because L annihilates the all-ones vector.  On a disconnected graph the
    kernel is larger and this scalar test would be incomplete.
    """
    _assert_normalized(cfg)
    assert len(connected_components(cfg.graph)) == 1
    k, n, s = cfg.k_scalar, cfg.n, len(cfg.graph.leader_set)
    return 2.0 * cfg.alpha * n - 2.0 * k * s + (2.0 * k**2 / np.pi**2) * s < 0.0


def forcing_profile(x: np.ndarray, t: float) -> np.ndarray:
    """Shared source term (1 + cos(2 pi x)) sin(pi t) of the demo scenario."""
    return forcing_shape(x) * forcing_amplitude(t)


def _neumann_heat_block(nx: int, dx: float, beta: float, alpha: float) -> np.ndarray:
    # Second difference with ghost elimination at both Neumann rows.
    t = np.zeros((nx, nx))
    t[0, 0], t[0, 1] = -2.0, 2.0
    idx = np.arange(1, nx - 1)
    t[idx, idx - 1] = 1.0
    t[idx, idx] = -2.0
    t[idx, idx + 1] = 1.0
    t[nx - 1, nx - 2], t[nx - 1, nx - 1] = 2.0, -2.0
    return (beta / dx**2) * t + alpha * np.eye(nx)


def inverse_modes(op) -> np.ndarray:
    """The inverse of ``cosine_modes``, diag(1, 2, .., 2, 1) modes^T diag(w), densely.

    The modes are orthogonal under the trapezoid weights w; row 0 of
    ``modes`` is all ones, so column 0 is w itself, bit for bit.
    """
    scale = np.full(op.grid.size, 2.0)
    scale[0] = scale[-1] = 1.0
    return scale[:, np.newaxis] * cosine_modes(op.grid.size).T * trapezoid_weights(op.grid.size)


def modal_apply(op, y: np.ndarray) -> np.ndarray:
    """The generator of ``op`` (a DiscreteOperator) applied to modal error coefficients ``y``."""
    flux = np.outer(op.feedback * y[:, 0], op.node0)
    return y * op.rates + op.coupling @ y - flux


def dense_operator(net, sim) -> np.ndarray:
    """The closed-loop generator on (z_1 .. z_N, z_leader), assembled densely.

    Heat blocks on the diagonal, g_i * l_ij added pointwise across agent
    blocks, then the feedback flux -(2 beta / dx) k_i m_i * w on follower
    x=0 rows against their own block and +(...) against the leader's.
    """
    n, nx = net.n, sim.nx
    dx = sim.dx
    w = trapezoid_weights(nx)
    heat = _neumann_heat_block(nx, dx, net.beta, net.alpha)
    lap = laplacian(net.graph).astype(float)
    mask = leader_mask(net.graph).astype(float).diagonal()
    k_vec = net.k_vector
    g_vec = net.g_vector

    full = np.zeros(((n + 1) * nx, (n + 1) * nx))
    for b in range(n + 1):
        full[b * nx : (b + 1) * nx, b * nx : (b + 1) * nx] = heat
    idx = np.arange(nx)
    for i in range(n):
        for j in range(n):
            if lap[i, j] != 0.0:
                full[i * nx + idx, j * nx + idx] += g_vec[i] * lap[i, j]

    flux = 2.0 * net.beta / dx
    for i in range(n):
        kappa = k_vec[i] * mask[i]
        if kappa != 0.0:
            row = i * nx
            full[row, i * nx : (i + 1) * nx] += -flux * kappa * w
            full[row, n * nx : (n + 1) * nx] += +flux * kappa * w
    return full


def dense_abscissa(net, sim) -> float:
    """Largest real part of the eigenvalues of the dense error generator.

    The error generator is the leading N*nx block of ``dense_operator``.
    """
    m = net.n * sim.nx
    return float(np.linalg.eigvals(dense_operator(net, sim)[:m, :m]).real.max())


def table_abscissa(net, sim) -> float:
    """The spectral abscissa as the top of every mode block's eigenvalues: rates_0 +
    eig(C - node0_0 F) and the whole (nx - 1) x N table rates_j + eig(C), j >= 1."""
    op = assemble_operator(net, sim)
    lam0 = op.rates[0] + np.linalg.eigvals(op.coupling - op.node0[0] * np.diag(op.feedback))
    table = op.rates[1:, np.newaxis] + np.linalg.eigvals(op.coupling)
    return float(np.maximum(lam0.real.max(), table.real.max()))


def unchunked_basis_values(net, op) -> np.ndarray:
    """(lam, nu) of ``heatsync.pdesim._agent_basis`` for a net with a basis, from the
    same bases: the Rayleigh quotients sign(g) sum over the edges of ((S u)_i -
    (S u)_j)^2, less node0_0 F's on mode 0, over |u|^2, from one (2, E, N) table of
    the edge differences."""
    g = net.g_vector
    scale = np.where(g == 0.0, 1.0, np.sqrt(np.abs(g)))
    sym = op.coupling / scale[:, np.newaxis] * scale
    vectors = np.linalg.eigh(np.stack([sym, sym - op.node0[0] * np.diag(op.feedback)]))[1]
    bases = scale[:, np.newaxis] * vectors
    i, j = np.array(net.graph.edges, dtype=int).reshape(-1, 2).T - 1
    values = np.sign(g.sum()) * ((bases.take(i, axis=1) - bases.take(j, axis=1)) ** 2).sum(axis=1)
    values[1] -= op.node0[0] * (op.feedback[:, np.newaxis] * vectors[1] ** 2).sum(axis=0)
    return values / (vectors**2).sum(axis=1)


def dense_simulate(net, sim) -> GridTrajectory:
    """Crank-Nicolson / backward Euler on ``dense_operator`` with a dense LU.

    Samples like ``heatsync.simulate`` and raises Divergence at the first
    step with a grid value beyond 1e12 or not finite, naming the first such
    agent, followers before the leader.
    """
    n, nx = net.n, sim.nx
    a = dense_operator(net, sim)
    eye = np.eye(a.shape[0])
    crank = sim.scheme == "crank_nicolson"
    h = sim.dt / 2.0 if crank else sim.dt
    lu = lu_factor(eye - h * a)
    explicit = eye + h * a
    followers0, leader0 = _resolve_initial_conditions(net, sim)
    y = np.concatenate([followers0.reshape(-1), leader0])
    x = sim.grid
    frames, times = [y.copy()], [0.0]
    for step in range(1, sim.n_steps + 1):
        t_src = (step - 1) * sim.dt + sim.dt / 2.0 if crank else step * sim.dt
        rhs = explicit @ y if crank else y.copy()
        if sim.source == "paper":
            rhs += sim.dt * np.tile(forcing_profile(x, t_src), n + 1)
        y = lu_solve(lu, rhs)
        bad = (~np.isfinite(y) | (np.abs(y) > 1e12)).reshape(n + 1, nx).any(axis=1)
        if bad.any():
            agent = int(np.argmax(bad)) + 1
            raise Divergence(step=step, t=step * sim.dt, agent=agent if agent <= n else "leader")
        if step % sim.output_stride == 0 or step == sim.n_steps:
            frames.append(y.copy())
            times.append(step * sim.dt)
    stacked = np.array(frames)
    return GridTrajectory(
        times=np.array(times),
        z=stacked[:, : n * nx].reshape(len(times), n, nx).transpose(1, 0, 2),
        z_leader=stacked[:, n * nx :],
    )


@dataclass(frozen=True, eq=False)
class GridTrajectory:
    """Sampled space-time fields of one run on the uniform grid over [0, 1]."""

    times: np.ndarray  # (n_frames,)
    z: np.ndarray  # (n_agents, n_frames, nx)
    z_leader: np.ndarray  # (n_frames, nx)

    @property
    def n_agents(self) -> int:
        return self.z.shape[0]

    def errors(self) -> np.ndarray:
        """Follower error fields z_i - z_leader, shape (n_agents, n_frames, nx)."""
        return self.z - self.z_leader[np.newaxis, :, :]


def on_grid(traj: Trajectory) -> GridTrajectory:
    """Every frame of a modal trajectory mapped to the grid, each follower's
    field as its error plus the leader's."""
    modes = cosine_modes(traj.leader.shape[-1])
    leader = traj.leader @ modes.T  # (n_frames, nx)
    errors = traj.frames @ modes.T  # (n_frames, N, nx)
    return GridTrajectory(
        times=traj.times, z=(errors + leader[:, np.newaxis]).transpose(1, 0, 2), z_leader=leader
    )


def cosine_modes(nx: int, rows=None, dtype=np.float64) -> np.ndarray:
    """The mode matrix cos(j pi x_i) = cos(pi i j / (nx - 1)) of the nx-point
    grid, or only its ``rows`` i, in ``dtype``; the phase i j reduced mod
    2 (nx - 1) keeps it exact to rounding, and takes one of 2 (nx - 1) values."""
    i = np.arange(nx) if rows is None else np.asarray(rows)
    phase = np.arange(2 * (nx - 1), dtype=dtype)
    table = np.cos(np.arccos(dtype(-1.0)) * phase / dtype(nx - 1))  # arccos(-1): pi in dtype
    return table[np.outer(i, np.arange(nx)) % (2 * (nx - 1))]


def from_grid(times, z, z_leader) -> Trajectory:
    """The modal trajectory of grid fields z (n_agents, n_frames, nx) and
    z_leader (n_frames, nx), by a dense solve against ``cosine_modes``; the
    errors are taken on the grid."""
    modes = cosine_modes(z_leader.shape[-1])

    def to_modes(fields):
        return np.linalg.solve(modes, fields.reshape(-1, modes.shape[0]).T).T.reshape(fields.shape)

    errors = (z - z_leader).transpose(1, 0, 2)
    return Trajectory(times=np.asarray(times), frames=to_modes(errors), leader=to_modes(z_leader))


def grid_errors(traj: GridTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoid L2 norms of the error fields, (n_agents, n_frames), their
    root sum of squares over agents, and the summed error field (n_frames, nx)."""
    w = trapezoid_weights(traj.z_leader.shape[-1])
    e = traj.errors()
    per_sq = np.einsum("atx,x->at", e**2, w)
    return np.sqrt(per_sq), np.sqrt(per_sq.sum(axis=0)), e.sum(axis=0)


def pairwise_max(traj: GridTrajectory) -> np.ndarray:
    """max over agent pairs i < j of the trapezoid L2 norm of z_i - z_j, pair by pair."""
    w = trapezoid_weights(traj.z_leader.shape[-1])
    pair = np.zeros(traj.times.size)
    for i in range(traj.n_agents):
        for j in range(i + 1, traj.n_agents):
            diff = traj.z[i] - traj.z[j]
            pair = np.maximum(pair, np.sqrt(np.einsum("tx,x->t", diff**2, w)))
    return pair


def modal_pairwise_max(traj: Trajectory) -> np.ndarray:
    """max over follower pairs a < b of sqrt(sum_j c_j (y_a - y_b)_j^2), pair
    by pair on the modal error frames, c = (1, 1/2, .., 1/2, 1) (discrete Parseval)."""
    n, nx = traj.frames.shape[1:]
    c = np.full(nx, 0.5)
    c[0] = c[-1] = 1.0
    pair = np.zeros(traj.times.size)
    for a in range(n):
        for b in range(a + 1, n):
            diff = traj.frames[:, a] - traj.frames[:, b]
            pair = np.maximum(pair, np.sqrt(diff**2 @ c))
    return pair


def wirtinger_check(samples, dx: float) -> tuple[float, float]:
    """Numerically probe the one-sided Wirtinger inequality on [0, 1].

    For h with h(0) = 0 sampled on a uniform grid, returns

        lhs = integral of (dh/dx)^2      (central differences + trapezoid)
        rhs = (pi^2/4) * integral of h^2

    The inequality lhs >= rhs holds up to O(dx^2) discretization error, with
    equality approached by h = sin(pi x / 2).  Endpoint derivatives use
    second-order one-sided stencils so the equality case converges
    quadratically.
    """
    h = np.asarray(samples, dtype=float)
    if h.ndim != 1:
        raise ValueError("samples must be a one-dimensional array")
    if h.size < 8:
        raise GridTooCoarse(f"need at least 8 samples, got {h.size}")
    if abs(h[0]) > 1e-12:
        raise ValueError("samples[0] must vanish (h(0) = 0)")
    if abs((h.size - 1) * dx - 1.0) > 1e-8:
        raise ValueError("grid must cover [0, 1]: (len-1)*dx must equal 1")
    dh = np.empty_like(h)
    dh[1:-1] = (h[2:] - h[:-2]) / (2.0 * dx)
    dh[0] = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2.0 * dx)
    dh[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * dx)
    w = trapezoid_weights(h.size)
    lhs = float(w @ dh**2)
    rhs = float(np.pi**2 / 4.0 * (w @ h**2))
    return lhs, rhs
