import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from heatsync import (
    PRESETS,
    ErrorSeries,
    NetworkConfig,
    SimConfig,
    Trajectory,
    analytic_open_loop_spectrum,
    assemble_operator,
    build_graph,
    demo_initial_profiles,
    evaluate_certificate,
    certificate_matrix,
    fit_decay_rate,
    k_window_partial,
    simulate,
    spectral_abscissa,
    sync_errors,
    to_grid,
    trapezoid_weights,
)
from heatsync.errors import Divergence, NonPositiveSeries
from heatsync.pdesim import (_SQUARES, _agent_basis, _block_step, _eigen_frames, _frame_steps,
                             _leader_step, _stepwise, _to_modes)

from conftest import demo_graph, random_connected_graph, random_graph
from oracles import (
    cosine_modes,
    dense_abscissa,
    dense_operator,
    dense_simulate,
    from_grid,
    grid_errors,
    inverse_modes,
    modal_apply,
    modal_pairwise_max,
    on_grid,
    pairwise_max,
    table_abscissa,
    unchunked_basis_values,
)

PI2 = np.pi**2


def single_agent(leader=True):
    return build_graph(1, [], [1] if leader else [])


def leader_profile(x):
    return 2.0 + np.cos(np.pi * x) + 2.0 * np.cos(7.0 * x)


def heterogeneous_nets(rng, count, n_min=3, n_max=8):
    """Random connected networks with per-agent gains and a leader set that
    misses at least one follower; one leader-connected gain is zero."""
    nets = []
    while len(nets) < count:
        graph = random_connected_graph(rng, n_max=n_max, n_min=n_min)
        if len(graph.leader_set) == graph.n:
            continue
        n = graph.n
        k = rng.uniform(0.5, 5.0, n)
        k[min(graph.leader_set) - 1] = 0.0
        nets.append(
            NetworkConfig(
                graph=graph,
                alpha=float(rng.uniform(-1.0, 1.0)),
                beta=float(rng.uniform(0.5, 2.0)),
                k=list(k),
                g=list(rng.uniform(-3.0, 0.0, n)),
            )
        )
    return nets


def route_nets(rng):
    """One net per side of the eigenbasis route rule: per-agent g of mixed
    sign and g zero on some agents only take the block map, g > 0 on every
    agent takes the eigenbasis."""
    nets = heterogeneous_nets(rng, 3)
    mixed, partly_zero, positive = (np.abs(net.g_vector) for net in nets)
    mixed[::2] *= -1.0
    partly_zero[0] = 0.0
    gains = (mixed, -partly_zero, positive)
    return [net.with_gains(g=list(g)) for net, g in zip(nets, gains)]


def random_profiles(rng, n, nx):
    x = np.linspace(0.0, 1.0, nx)
    modes = np.cos(np.outer(np.arange(4), np.pi * x))
    return rng.normal(size=(n, 4)) @ modes, rng.normal(size=4) @ modes


def longdouble_solve(a, b):
    """a^-1 b in long double, by Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    aug = np.hstack([a, b]).astype(np.longdouble)
    for k in range(n):
        pivot = k + np.argmax(np.abs(aug[k:, k]))
        aug[[k, pivot]] = aug[[pivot, k]]
        aug[k] /= aug[k, k]
        aug -= np.outer(aug[:, k] * (np.arange(n) != k), aug[k])
    return aug[:, n:]


def relative_gap(traj, ref):
    traj = on_grid(traj)
    assert np.array_equal(traj.times, ref.times)
    got = np.concatenate([traj.z.reshape(-1), traj.z_leader.reshape(-1)])
    want = np.concatenate([ref.z.reshape(-1), ref.z_leader.reshape(-1)])
    return np.abs(got - want).max() / np.abs(want).max()


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(nx=8, source="paper")
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, source="paper")
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0, source="paper")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SimConfig(dt=bad, source="paper")
            with pytest.raises(ValueError):
                SimConfig(t_end=bad, source="paper")
            with pytest.raises(ValueError):
                SimConfig(
                    nx=16, source="paper",
                    initial_conditions=(np.zeros((2, 16)), np.full(16, bad)),
                )
        # nothing is coerced: a bool is not 1, a string is not parsed, and an
        # integer beyond the float range is refused
        for bad in (True, np.True_, "0.5", 10**400):
            with pytest.raises(ValueError):
                SimConfig(dt=bad, source="paper")
            with pytest.raises(ValueError):
                SimConfig(t_end=bad, source="paper")
            with pytest.raises(ValueError):
                SimConfig(
                    nx=16, source="paper",
                    initial_conditions=(np.zeros((2, 16)), [0.0] * 15 + [bad]),
                )
        # nor is an array of bools, named by its first entry
        with pytest.raises(ValueError, match=r"initial leader\[0\] must be a number"):
            SimConfig(
                nx=16, source="paper",
                initial_conditions=(np.zeros((2, 16)), np.array([True] * 16)),
            )
        # a step count beyond the float range, or beyond int64
        with pytest.raises(ValueError, match="t_end=2.5 and dt=1e-320"):
            SimConfig(dt=1e-320, source="paper")
        with pytest.raises(ValueError, match="t_end=2.5 and dt=1e-300"):
            SimConfig(dt=1e-300, source="paper")
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            SimConfig(dt=1.0, t_end=2.0**64, source="paper")
        assert SimConfig(dt=1.0, t_end=2.0**62, source="paper").n_steps == 2**62  # never run
        with pytest.raises(ValueError):
            SimConfig(source="mystery")
        with pytest.raises(ValueError):
            SimConfig(scheme="forward_euler", source="paper")
        with pytest.raises(ValueError):
            SimConfig(output_stride=0, source="paper")
        # "sectionV" is the one initial-condition token
        with pytest.raises(ValueError):
            SimConfig(initial_conditions="bogus", source="paper")
        # a fractional count is rejected here, not deep inside simulate
        with pytest.raises(ValueError):
            SimConfig(nx=41.9, source="paper")
        with pytest.raises(ValueError):
            SimConfig(output_stride=2.5, source="paper")
        # True == 1, but a flag is not a count
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                SimConfig(output_stride=flag, source="paper")

    def test_integral_float_counts_stored_as_int(self):
        sim = SimConfig(nx=41.0, output_stride=5.0, source="paper")
        assert (sim.nx, sim.output_stride) == (41, 5)
        assert type(sim.nx) is int and type(sim.output_stride) is int


def l2_norm(field: np.ndarray) -> float:
    """The per-agent L2 norm sync_errors reports for a one-frame field."""
    traj = from_grid(np.zeros(1), field[np.newaxis, np.newaxis, :], np.zeros((1, field.size)))
    return float(sync_errors(traj).per_agent_l2[0, 0])


class TestL2Norm:
    def test_constant_one(self):
        assert l2_norm(np.ones(101)) == pytest.approx(1.0, abs=1e-14)

    def test_half_sine(self):
        x = np.linspace(0, 1, 201)
        assert l2_norm(np.sin(np.pi * x)) == pytest.approx(np.sqrt(0.5), abs=1e-4)

    def test_zero_field(self):
        assert l2_norm(np.zeros(50)) == 0.0


def grid_apply(op, z):
    """The generator of ``op`` applied to grid values z, one row per agent."""
    return modal_apply(op, z @ inverse_modes(op).T) @ cosine_modes(op.grid.size).T


def grid_matrix(op):
    """The generator of ``op`` as a matrix on the stacked grid values."""
    m, nx = op.coupling.shape[0], op.grid.size
    units = np.eye(m * nx).reshape(m * nx, m, nx)
    return np.array([grid_apply(op, u).reshape(-1) for u in units]).T


def longdouble_fields(y):
    """sum_j y_j cos(j pi x_i) over the last axis of y, in long double, by
    ``cosine_modes`` a block of grid rows at a time."""
    nx = y.shape[-1]
    flat = y.reshape(-1, nx).astype(np.longdouble)
    blocks = np.array_split(np.arange(nx), -(-nx // 256))
    return np.hstack([flat @ cosine_modes(nx, rows, np.longdouble).T
                      for rows in blocks]).reshape(y.shape)


class TestToGrid:
    @pytest.mark.parametrize("nx", [16, 17, 101, 4001])
    def test_matches_long_double_oracle(self, nx):
        # at nx = 4001 the FFT reads within 4e-16 of the largest value, and the
        # dense float64 product 2e-15 to 4e-15
        rng = np.random.default_rng(nx)
        for shape in [(nx,), (2, 3, nx)]:
            y = rng.standard_normal(shape) / (1.0 + np.arange(nx))
            got, want = to_grid(y), longdouble_fields(y)
            assert got.shape == shape and got.dtype == np.float64
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("nx", [16, 17, 101, 4001])
    def test_round_trip(self, demo_net, nx):
        op = assemble_operator(demo_net, SimConfig(nx=nx))
        y = np.random.default_rng(nx).standard_normal((5, nx)) / (1.0 + np.arange(nx))
        back = _to_modes(op, to_grid(y))
        assert np.abs(back - y).max() <= 1e-15 * np.abs(y).max()


class TestOperator:
    def test_leader_alone_constant_in_kernel(self):
        g0 = build_graph(0, [], [])
        net = NetworkConfig(graph=g0, alpha=0.0, beta=1.0)
        op = assemble_operator(net, SimConfig(nx=33, source="off"))
        # no follower, so no error: the leader obeys y' = y * rates alone
        assert op.coupling.shape == (0, 0) and op.feedback.shape == (0,)
        # the constant field is mode 0, and mode 0 decays at rate alpha
        assert np.array_equal(to_grid(np.eye(33)[0]), np.ones(33))
        assert op.rates[0] == 0.0

    def test_decoupled_blocks(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.5, k=0.0, g=0.0)
        op = assemble_operator(net, SimConfig(nx=21, source="off"))
        assert op.rates[0] == 0.5
        assert op.coupling.shape == (5, 5)
        assert not op.coupling.any()
        assert not op.feedback.any()
        y = np.random.default_rng(3).standard_normal((5, 21))
        assert np.array_equal(modal_apply(op, y), y * op.rates)

    def test_boundary_feedback_row_structure(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=0.0)
        sim = SimConfig(nx=21, source="off")
        op = assemble_operator(net, sim)
        nx = 21
        dx = 1.0 / 20
        w = trapezoid_weights(nx)
        flux = 2.0 / dx * 3.0
        # agent 1 is leader-connected: its flux reads its own error's integral
        assert op.feedback[0] == pytest.approx(flux, rel=1e-15)
        # agent 4 is not: no feedback on its row
        assert op.feedback[3] == 0.0
        err_full = grid_matrix(op)
        assert np.abs(err_full[3 * nx, :nx]).max() <= 1e-12 * flux
        heat_row = np.zeros(nx)
        heat_row[0], heat_row[1] = -2.0 / dx**2, 2.0 / dx**2
        assert np.allclose(err_full[0, :nx], heat_row - flux * w)

    def test_error_subsystem_is_leading_block_view(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            graph = random_connected_graph(rng)
            n, nx = graph.n, 17
            net = NetworkConfig(
                graph=graph,
                alpha=float(rng.uniform(-1.0, 1.0)),
                beta=float(rng.uniform(0.5, 2.0)),
                k=list(rng.uniform(0.0, 5.0, n)),
                g=list(rng.uniform(-3.0, 0.0, n)),
            )
            sim = SimConfig(nx=nx, source="off")
            op = assemble_operator(net, sim)
            # it generates the error dynamics: d/dt (z_i - z_l) from the
            # dense closed loop equals the operator applied to the errors,
            # and on the grid it is the dense loop's leading N*nx block
            dense = dense_operator(net, sim)
            z = rng.standard_normal((n + 1, nx))
            dz = (dense @ z.reshape(-1)).reshape(n + 1, nx)
            expected = dz[:n] - dz[n]
            scale = np.abs(dense).max() * np.abs(z).max()
            assert np.abs(grid_apply(op, z[:n] - z[n]) - expected).max() <= 1e-12 * scale
            lead = np.abs(grid_matrix(op) - dense[: n * nx, : n * nx]).max()
            assert lead <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("nx", [16, 33, 101])
    def test_matches_dense_oracle(self, demo_net, nx):
        # normwise: |error| / (|A|_inf |z|_inf) for the product, and the
        # residual of the implicit solve over |I - hA|_inf |z|_inf
        rng = np.random.default_rng(nx)
        nets = [demo_net, demo_net.with_gains(k=0.0)] + heterogeneous_nets(rng, 3)
        for net in nets:
            sim = SimConfig(nx=nx, source="off")
            op = assemble_operator(net, sim)
            # node0 is the trapezoid weights: the inverse's column 0, bit for bit
            assert np.array_equal(op.node0, inverse_modes(op)[:, 0])
            # the error generator is the dense loop's leading N*nx block,
            # and the leader's is its last heat block
            m, whole = net.n, dense_operator(net, sim)
            dense, heat = whole[: m * nx, : m * nx], whole[-nx:, -nx:]
            y = rng.standard_normal((m, nx))
            modes = cosine_modes(nx)
            z = y @ modes.T
            got = modal_apply(op, y) @ modes.T
            want = (dense @ z.reshape(-1)).reshape(m, nx)
            norm = np.abs(dense).sum(axis=1).max()
            assert np.abs(got - want).max() <= 1e-12 * norm * np.abs(z).max()
            # one step of each scheme, of the errors by the block map and by
            # the eigenbasis route, of the leader by its recurrence:
            # (I - h A) z' = (I + (dt - h) A) z
            for scheme, h in (("crank_nicolson", sim.dt / 2.0), ("backward_euler", sim.dt)):
                one = replace(sim, scheme=scheme, t_end=sim.dt)
                y, lead = rng.standard_normal((m, nx)), rng.standard_normal(nx)
                pair = np.stack([y, y])  # the step overwrites frame 1
                lead_block, lead_eigen = np.stack([lead, lead]), np.stack([lead, 0.0 * lead])
                step, leader_step = _block_step(op, one), _leader_step(op, one)
                _stepwise(one, step, leader_step, pair, lead_block, [0, 1])
                basis = _agent_basis(net, op)
                by_eigen = _eigen_frames(op, one, basis, y, lead_eigen, leader_step,
                                         _frame_steps(net, one))[0][1]
                for a, y0, y_next in ((dense, y, pair[1]), (dense, y, by_eigen),
                                      (heat, lead, lead_block[1]), (heat, lead, lead_eigen[1])):
                    z, z_next = y0 @ modes.T, y_next @ modes.T
                    implicit = np.eye(len(a)) - h * a
                    explicit = np.eye(len(a)) + (sim.dt - h) * a
                    residual = implicit @ z_next.reshape(-1) - explicit @ z.reshape(-1)
                    bound = 1e-12 * np.abs(implicit).sum(axis=1).max() * np.abs(z_next).max()
                    assert np.abs(residual).max() <= bound

    def test_demo_error_subsystem_is_stable(self, demo_net):
        sim = SimConfig(nx=81, dt=0.01, source="off")
        assert spectral_abscissa(demo_net, sim) < 0


SCHEMES = ["crank_nicolson", "backward_euler"]


class TestSimulate:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_leader_alone_mean_conserved(self, scheme):
        g0 = build_graph(0, [], [])
        net = NetworkConfig(graph=g0, alpha=0.0, beta=1.0)
        nx = 41
        x = np.linspace(0, 1, nx)
        sim = SimConfig(
            nx=nx,
            dt=1e-3,
            t_end=1.0,
            source="off",
            scheme=scheme,
            initial_conditions=(np.zeros((0, nx)), leader_profile(x)),
        )
        traj = simulate(net, sim)
        w = trapezoid_weights(nx)
        means = on_grid(traj).z_leader @ w
        assert np.abs(means - means[0]).max() <= 1e-13

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_error_means_conserved_without_control(self, scheme):
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=0.0, g=0.0)
        nx = 41
        x = np.linspace(0, 1, nx)
        followers, leader = demo_initial_profiles(x)
        sim = SimConfig(
            nx=nx,
            dt=1e-3,
            t_end=1.0,
            source="off",
            scheme=scheme,
            initial_conditions=(followers, leader),
        )
        traj = simulate(net, sim)
        w = trapezoid_weights(nx)
        err_means = on_grid(traj).errors() @ w  # (agents, frames)
        drift = np.abs(err_means - err_means[:, :1]).max()
        assert drift <= 1e-13

    def test_unstable_mean_grows_exponentially(self):
        # alpha = 0.5, no control: the mean error obeys d/dt m = alpha m
        net = NetworkConfig(graph=single_agent(), alpha=0.5, k=0.0, g=0.0)
        nx = 41
        x = np.linspace(0, 1, nx)
        ic = (1.5 * np.ones((1, nx)), 0.5 * np.ones(nx))
        sim = SimConfig(nx=nx, dt=1e-3, t_end=2.0, source="off", initial_conditions=ic)
        traj = simulate(net, sim)
        w = trapezoid_weights(nx)
        mean_err = on_grid(traj).errors()[0] @ w
        expected = mean_err[0] * np.exp(0.5 * traj.times)
        assert np.abs(mean_err / expected - 1.0).max() <= 0.05

    def test_boundary_traces_converge(self, demo_net):
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV", source="paper")
        traj = on_grid(simulate(demo_net, sim))
        gap0 = np.abs(traj.z[:, 0, -1] - traj.z_leader[0, -1]).max()
        gap_end = np.abs(traj.z[:, -1, -1] - traj.z_leader[-1, -1]).max()
        assert gap_end <= 0.10 * gap0

    def test_divergence_guard(self):
        net = NetworkConfig(graph=single_agent(), alpha=60.0, k=0.0, g=0.0)
        nx = 31
        ic = (np.ones((1, nx)), np.zeros(nx))
        sim = SimConfig(nx=nx, dt=1e-3, t_end=5.0, source="off", initial_conditions=ic)
        with pytest.raises(Divergence) as exc:
            simulate(net, sim)
        assert exc.value.step > 0
        assert exc.value.agent == 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_dense_stepper(self, demo_net, scheme):
        rng = np.random.default_rng(71)
        cases = [(demo_net, "sectionV", "paper")]
        for net in heterogeneous_nets(rng, 3):
            cases.append((net, random_profiles(rng, net.n, 33), "paper"))
            cases.append((net, random_profiles(rng, net.n, 33), "off"))
        cases += [(net, random_profiles(rng, net.n, 33), "paper") for net in route_nets(rng)]
        for net, ic, source in cases:
            sim = SimConfig(
                nx=33, dt=2e-3, t_end=0.3, source=source, scheme=scheme,
                output_stride=5, initial_conditions=ic,
            )
            assert relative_gap(simulate(net, sim), dense_simulate(net, sim)) <= 1e-10

    @pytest.mark.parametrize(
        "alpha, followers, scheme, dt",
        [
            (60.0, [1.0, 0.0, 0.0], "crank_nicolson", 1e-3),
            (60.0, [0.0, 1.0, 0.0], "backward_euler", 1e-3),
            (45.0, [0.0, 0.0, -1.0], "crank_nicolson", 1e-3),
            # I - (dt/2) A is exactly singular: no state after step 1
            (2000.0, [1.0, 0.0, 0.0], "crank_nicolson", 1e-3),
            # only the j = 16 block of I - theta dt A is exactly singular
            # (theta dt (alpha - 1024) = 1); the mode-0 block inverts
            (3072.0, [1.0, 0.0, 0.0], "crank_nicolson", 2.0**-10),
            (2048.0, [1.0, 0.0, 0.0], "backward_euler", 2.0**-10),
        ],
    )
    def test_divergence_matches_dense_stepper(self, alpha, followers, scheme, dt):
        net = NetworkConfig(
            graph=build_graph(3, [], []), alpha=alpha, k=0.0, g=0.0
        )
        # without edges g acts on nothing: mixed signs only move the run
        # from the eigenbasis to the block map
        nets = [net, net.with_gains(g=[-1.0, 0.0, 1.0])]
        nx = 17
        ic = (np.outer(followers, np.ones(nx)), np.zeros(nx))
        sim = SimConfig(
            nx=nx, dt=dt, t_end=5.0, source="off", scheme=scheme,
            initial_conditions=ic,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dense LU warns when singular
            with pytest.raises(Divergence) as want:
                dense_simulate(net, sim)
        # strides 7 and 10 put the first bad step between output frames
        for net in nets:
            for stride in (1, 7, 10):
                with pytest.raises(Divergence) as got:
                    simulate(net, replace(sim, output_stride=stride))
                assert (got.value.step, got.value.agent) == (want.value.step, want.value.agent)
                assert got.value.t == want.value.t

    @pytest.mark.parametrize("alpha, dt", [(60.0, 1e-3), (2000.0, 1e-3)])
    def test_leader_divergence_matches_dense_stepper(self, alpha, dt):
        # the leader runs apart from the errors but is checked with them: a
        # leader that grows past the limit first is named, and only the
        # leader's mode 0 is exactly singular at alpha = 2000 (the coupled
        # error blocks invert), which every follower's field inherits
        x = np.linspace(0.0, 1.0, 17)
        graph = build_graph(3, [(1, 2), (2, 3)], [1])
        ics = [(np.ones((3, 17)), 1.0 + x), (np.outer([1.0, 0.0, 2.0], 1.0 + x), 0.5 - x)]
        for g, (followers, leader) in zip((-1.0, [1.0, -1.0, 1.0]), ics):
            net = NetworkConfig(graph=graph, alpha=alpha, k=2.0, g=g)
            sim = SimConfig(nx=17, dt=dt, t_end=5.0, source="paper",
                            initial_conditions=(followers, leader))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the dense LU warns when singular
                with pytest.raises(Divergence) as want:
                    dense_simulate(net, sim)
            for stride in (1, 7, 10):
                with pytest.raises(Divergence) as got:
                    simulate(net, replace(sim, output_stride=stride))
                assert (got.value.step, got.value.agent) == (want.value.step, want.value.agent)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stride_invariance(self, demo_net, scheme, walked):
        # a stride advanced at once equals its steps; 101 steps leave a
        # partial last stride for every stride below, and a 50-step stride
        # spans many chunks, so its chunk sums are carried on
        rng = np.random.default_rng(73)
        cases = [(demo_net, "sectionV", "paper"), (demo_net, "sectionV", "off")]
        # a start of 5e10 keeps every frame's sum below the limit, and one of
        # 2e11 puts the first frames' sums past it without diverging: the
        # block map walks no stride of the one, and the first strides, not
        # all, of the other
        followers, leader = random_profiles(rng, demo_net.n, 33)
        quiet, loud = (5e10 * followers, 5e10 * leader), (2e11 * followers, 2e11 * leader)
        cases.append((demo_net, quiet, "paper"))
        for net in heterogeneous_nets(rng, 2):
            cases.append((net, random_profiles(rng, net.n, 33), "paper"))
            cases.append((net, random_profiles(rng, net.n, 33), "off"))
        # 20 agents: mode 0 carries a dense 21 x 21 block
        (net,) = heterogeneous_nets(rng, 1, n_min=20, n_max=20)
        cases.append((net, random_profiles(rng, net.n, 33), "paper"))
        cases += [(net, random_profiles(rng, net.n, 33), "paper") for net in route_nets(rng)]
        # per-agent g of one sign over four decades: cond(V) = cond(W) = 100
        wide = NetworkConfig(
            graph=build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)], [1, 4]),
            alpha=0.5, k=2.0, g=[-0.01, -1.0, -10.0, -100.0, -3.0, -0.5],
        )
        cases.append((wide, random_profiles(rng, wide.n, 33), "paper"))
        cases.append((demo_net, loud, "paper"))
        for net, ic, source in cases:
            sim = SimConfig(
                nx=33, dt=2e-3, t_end=0.202, source=source, scheme=scheme,
                output_stride=1, initial_conditions=ic,
            )
            ref = on_grid(simulate(net, sim))
            for stride in (3, 7, 10, 50):
                walked.clear()
                traj = on_grid(simulate(net, replace(sim, output_stride=stride)))
                steps = np.append(np.arange(0, sim.n_steps, stride), sim.n_steps)
                if ic is quiet:
                    assert walked == []
                if ic is loud:
                    assert walked[:1] == [0] and len(walked) < len(steps) - 1
                assert np.array_equal(traj.times, steps * sim.dt)
                got = np.concatenate([traj.z.reshape(-1), traj.z_leader.reshape(-1)])
                want = np.concatenate(
                    [ref.z[:, steps].reshape(-1), ref.z_leader[steps].reshape(-1)]
                )
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_source_drives_every_agent_alike(self, demo_net, scheme):
        # the coupling and the feedback vanish on a field common to all
        # agents, so the shared source leaves the errors z_i - z_leader alone
        rng = np.random.default_rng(79)
        cases = [(demo_net, "sectionV")]
        cases += [(net, random_profiles(rng, net.n, 33)) for net in heterogeneous_nets(rng, 3)]
        for net, ic in cases:
            sim = SimConfig(
                nx=33, t_end=1.0, source="off", scheme=scheme, output_stride=7,
                initial_conditions=ic,
            )
            off = on_grid(simulate(net, sim)).errors()
            paper = on_grid(simulate(net, replace(sim, source="paper"))).errors()
            assert np.abs(paper - off).max() <= 1e-12 * np.abs(off).max()

    def test_block_map_walks_the_frames_past_the_limit(self, demo_net, walked):
        # divergence is decided at the frames: the block map walks exactly the
        # strides with an end frame whose sum max_i sum_j |e_ij| + sum_j |y_j|
        # is past the limit, and every frame returned is finite and within the
        # limit on the grid.  Each start is scaled so that the largest field of
        # the dense one-step map's unforced run, the start included, is
        # 0.99e12: no step diverges, while the sums, which dominate the fields,
        # cross the limit on the first strides.  A 10-step stride fits one
        # chunk; at nx = 33 a stride of 125 or 128 steps spans chunks of 32
        # steps (125 leaves a first chunk of 29 steps, and 128 a last stride
        # of 116 steps whose first chunk has 20)
        rng = np.random.default_rng(75)
        cases = [(demo_net, 101, 10), (demo_net.with_gains(g=-1e4), 101, 10)]
        cases += [(net, 33, 10) for net in heterogeneous_nets(rng, 3)]
        long_nets = [demo_net] + heterogeneous_nets(np.random.default_rng(76), 2)
        cases += [(net, 33, stride) for net in long_nets for stride in (125, 128)]
        cases += [(demo_net.with_gains(g=-1e4), 33, 125)]
        for net, nx, stride in cases:
            followers, leader = random_profiles(rng, net.n, nx)
            sim = SimConfig(nx=nx, t_end=0.5, source="off", output_stride=stride)
            dense = dense_operator(net, sim)
            h = sim.dt / 2.0
            eye = np.eye(len(dense))
            one_step = np.linalg.solve(eye - h * dense, eye + h * dense)
            state = np.vstack([followers, leader]).reshape(-1)
            peak = np.abs(state).max()
            for _ in range(500):
                state = one_step @ state
                peak = max(peak, np.abs(state).max())
            scale = 0.99e12 / peak
            sim = replace(sim, source="paper",
                          initial_conditions=(scale * followers, scale * leader))
            op = assemble_operator(net, sim)
            to_modes, steps = inverse_modes(op).T, _frame_steps(net, sim)
            lead = np.zeros((len(steps), nx))
            lead[0] = scale * leader @ to_modes
            errors = scale * (followers - leader) @ to_modes
            basis, leader_step = _agent_basis(net, op), _leader_step(op, sim)
            frames = _eigen_frames(op, sim, basis, errors, lead, leader_step, steps)[0]
            sums = np.abs(frames).sum(axis=2).max(axis=1) + np.abs(lead).sum(axis=1)
            past = np.maximum(sums[:-1], sums[1:]) > 1e12
            walked.clear()
            traj = on_grid(simulate(net, sim))
            assert walked == list(steps[:-1][past])
            fields = np.concatenate([traj.z.reshape(-1), traj.z_leader.reshape(-1)])
            assert np.isfinite(fields).all() and (np.abs(fields) <= 1e12).all()
            assert past.any() and not past.all()  # the sums cross the limit, and fall back

    def test_long_strides_are_chunked(self, demo_net):
        # no intermediate outgrows the frames: unchunked, a stride of 600
        # steps would build a 0.9 MB table of D^k feed for 5 kB of frames
        sim = SimConfig(
            nx=33, dt=2e-3, t_end=2.0, source="paper", output_stride=1,
            initial_conditions="sectionV",
        )
        ref = on_grid(simulate(demo_net, sim))
        for stride in (600, 5000):
            tracemalloc.start()
            try:
                traj = simulate(demo_net, replace(sim, output_stride=stride))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2e5
            steps = np.append(np.arange(0, sim.n_steps, stride), sim.n_steps)
            want = ref.z[:, steps]
            assert np.abs(on_grid(traj).z - want).max() <= 1e-12 * np.abs(want).max()

    def test_mode0_keeps_full_accuracy_at_a_large_gain(self, demo_net):
        # at g = -1e4 the coupling's norm is about 4e4, and eigh's values
        # carry an absolute error of about eps times that, three digits of
        # mode 0's slowest rate, -1.8.  With the basis's Rayleigh quotients,
        # summed in edge differences, mode 0's frames stay within 5e-14 of
        # their largest value off a long-double walk of the mode-0 block
        # (eigh's own values leave them 2.5e-13 off)
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        net = demo_net.with_gains(g=-1e4)
        sim = SimConfig(nx=101, source="paper", initial_conditions="sectionV")
        traj = simulate(net, sim)
        op = assemble_operator(net, sim)
        ld, eye = np.longdouble, np.eye(net.n)
        block = ld(op.rates[0]) * eye + op.coupling.astype(ld)
        block -= np.diag(ld(op.node0[0]) * op.feedback.astype(ld))
        h = ld(sim.dt) / 2
        one_step = longdouble_solve(eye - h * block, eye + h * block)
        y, walk = traj.frames[0, :, 0].astype(ld), []
        for step in range(sim.n_steps + 1):
            if step % sim.output_stride == 0 or step == sim.n_steps:
                walk.append(y)
            y = one_step @ y
        walk = np.array(walk)
        assert walk.shape == traj.frames.shape[:2]
        assert np.abs(traj.frames[:, :, 0] - walk).max() <= 5e-14 * np.abs(walk).max()

    def test_peak_memory_stays_near_the_frames(self):
        # work over all frames goes a block of them at a time, and the run
        # stays modal, so little is held beside the frames.  With 26 frames
        # a chunk is a whole stride, and its D table weighs 0.38x the frames
        rng = np.random.default_rng(83)
        net = NetworkConfig(
            graph=random_connected_graph(rng, n_max=30, n_min=30), alpha=0.0, k=3.0, g=-2.0
        )
        followers, leader = random_profiles(rng, net.n, 201)
        for t_end, frames, factor in ((2.5, 251, 1.6), (0.25, 26, 2.5)):
            sim = SimConfig(
                nx=201, t_end=t_end, source="paper", initial_conditions=(followers, leader)
            )
            assert sim.output_stride == 10
            tracemalloc.start()
            try:
                traj = simulate(net, sim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.frames) == frames
            assert peak <= factor * traj.frames.nbytes

    def test_fallback_peak_memory_stays_near_the_frames(self, demo_net):
        # mixed-sign g takes the block map, which writes every frame into
        # one array allocated after its per-mode inverses.  On a 60-follower
        # path with 26 frames the inverses (2 x 5.98 MB) outweigh the frames:
        # built first they set the peak at 4.9x, frames allocated first read 5.9x
        n = 60
        path = NetworkConfig(
            graph=build_graph(n, [(i, i + 1) for i in range(1, n)], [1, 20, 40]),
            alpha=0.0, k=3.0, g=[(-1.0) ** i for i in range(n)],
        )
        profiles = random_profiles(np.random.default_rng(60), n, 201)
        cases = [
            (demo_net.with_gains(g=[1.0, -1.0, 1.0, -1.0, 0.0]), 101, 2.5, "sectionV", 251, 1.5),
            (path, 201, 0.25, profiles, 26, 5.3),
        ]
        for net, nx, t_end, ic, frames, factor in cases:
            sim = SimConfig(nx=nx, t_end=t_end, source="paper", initial_conditions=ic)
            assert sim.output_stride == 10
            assert _agent_basis(net, assemble_operator(net, sim)) is None
            tracemalloc.start()
            try:
                traj = simulate(net, sim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.frames) == frames
            assert peak <= factor * traj.frames.nbytes

    def test_basis_values_match_the_unchunked_sums(self):
        # the Rayleigh sums go N/2 edges at a time, each chunk's squares summed on from
        # the sum so far: the bits of the (2, E, N) table's sums, on graphs of one chunk,
        # of many and of none, with common and per-agent g of either sign
        rng = np.random.default_rng(84)
        path = build_graph(40, [(i, i + 1) for i in range(1, 40)], [1, 20])
        cases = [(build_graph(10, [], [1, 2]), -2.0), (path, -2.0),
                 (path, rng.uniform(0.5, 3.0, 40).tolist())]
        for n, p, g in [(120, 1.0, -2.0), (150, 0.2, 1.5), (150, 0.2, None), (60, 0.01, None)]:
            graph = random_graph(rng, n_max=n, n_min=n, edge_prob=p)
            cases.append((graph, g or (-rng.uniform(0.5, 3.0, n)).tolist()))
        assert {len(graph.edges) > graph.n // 2 for graph, _ in cases} == {True, False}
        for graph, g in cases:
            net = NetworkConfig(graph=graph, alpha=0.0, k=3.0, g=g)
            op = assemble_operator(net, SimConfig(nx=17))
            got = np.array([values for *_, values in _agent_basis(net, op)])
            assert np.array_equal(got, unchunked_basis_values(net, op))

    def test_basis_peak_is_a_few_squares(self):
        # the edge tables, (2, E, N) doubles each, once peaked at 70 N^2 doubles on
        # 300 followers with 10 % of the pairs linked (1672 MB at N = 1000); N/2 edges
        # at a time they stay within the ``_SQUARES`` a run counts, the coupling held
        # apart (8.1 N^2 doubles here)
        net = NetworkConfig(graph=random_graph(np.random.default_rng(85), n_max=300, n_min=300,
                                               edge_prob=0.1), alpha=0.0, k=3.0, g=-2.0)
        op = assemble_operator(net, SimConfig(nx=17))
        assert len(net.graph.edges) > 10 * net.n
        tracemalloc.start()
        try:
            _agent_basis(net, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (_SQUARES - 1) * net.n**2

    def test_route_rule(self, demo_net):
        # the eigenbasis exactly when a diagonal scaling makes G L symmetric
        nets = [demo_net, demo_net.with_gains(g=0.0)] + route_nets(np.random.default_rng(77))
        for net, eigen in zip(nets, (True, True, False, False, True)):
            op = assemble_operator(net, SimConfig(nx=17))
            basis = _agent_basis(net, op)
            assert (basis is not None) == eigen
            if eigen:
                # the same scaling diagonalizes the coupling and mode 0's block
                mode0 = op.coupling - op.node0[0] * np.diag(op.feedback)
                for (v, v_inv, lam), block in zip(basis, (op.coupling, mode0)):
                    assert np.abs(v @ v_inv - np.eye(net.n)).max() <= 1e-13
                    scale = np.abs(block).max(initial=1.0)
                    assert np.abs(v * lam @ v_inv - block).max() <= 1e-13 * scale

    def test_ic_preset_needs_five_agents(self):
        net = NetworkConfig(graph=single_agent(), alpha=0.0)
        sim = SimConfig(nx=21, t_end=0.01, source="paper", initial_conditions="sectionV")
        with pytest.raises(ValueError, match="the sectionV profiles define 5 followers"):
            simulate(net, sim)

    def test_backward_euler_also_decays(self, demo_net):
        sim = SimConfig(
            nx=41, dt=1e-3, t_end=1.0, scheme="backward_euler",
            initial_conditions="sectionV", source="paper",
        )
        series = sync_errors(simulate(demo_net, sim))
        assert series.total_l2[-1] < 0.5 * series.total_l2[0]


class TestSyncErrors:
    def test_pairwise_max_matches_pair_loop(self, demo_net):
        # the modal pair loop to rounding, and the grid's to its own rounding
        rng = np.random.default_rng(81)
        sim = SimConfig(nx=41, t_end=0.5, source="paper", initial_conditions="sectionV")
        trajs = [simulate(demo_net, sim)]
        for n in (1, 2, 7):
            z, z_leader = rng.standard_normal((n, 4, 17)), rng.standard_normal((4, 17))
            trajs.append(from_grid(np.arange(4.0), z, z_leader))
        for traj in trajs:
            got = sync_errors(traj).pairwise_max
            assert np.abs(got - modal_pairwise_max(traj)).max() <= 1e-14 * got.max(initial=0.0)
            assert np.abs(got - pairwise_max(on_grid(traj))).max() <= 1e-12 * got.max(initial=0.0)

    @pytest.mark.parametrize("kind", ["generic", "near", "ties", "flock"])
    def test_random_modal_trajectories(self, kind):
        # "near": every agent within 1e-9 of one field, where the grid loses
        # ~1e-7 of each difference to cancellation, so pairs are judged on
        # the modal differences; "ties": followers copied, so distances tie
        # exactly, or every follower is the same; "flock": the followers
        # within 1e-9 of one field and the leader O(1) away, where a Gram
        # product of the errors to the leader, not to one follower, loses
        # every digit of a pair distance to cancellation
        rng = np.random.default_rng({"generic": 91, "near": 92, "ties": 93, "flock": 94}[kind])
        for _ in range(100):
            n, nx, count = (int(v) for v in rng.integers((1, 9, 1), (9, 66, 12)))
            frames = rng.standard_normal((count, n + 1, nx)) / (1.0 + np.arange(nx))
            if kind == "near":
                frames = frames[:, :1] + 1e-9 * frames
            elif kind == "flock":
                frames[:, :n] = frames[:, :1] + 1e-9 * frames[:, :n]
            elif kind == "ties":
                frames[:, :n] = frames[:, rng.integers(0, int(rng.integers(1, n + 1)), n)]
            traj = Trajectory(times=np.arange(float(count)), frames=frames[:, :n] - frames[:, n:],
                              leader=frames[:, n])
            got = sync_errors(traj)
            want = modal_pairwise_max(traj)
            assert (np.abs(got.pairwise_max - want) <= 1e-14 * want).all()
            grid = on_grid(traj)
            per, total, _ = grid_errors(grid)
            scale = max(np.abs(grid.z).max(), np.abs(grid.z_leader).max())
            assert np.abs(got.per_agent_l2 - per).max(initial=0.0) <= 1e-13 * scale
            assert np.abs(got.total_l2 - total).max() <= 1e-13 * scale

    def test_peak_memory_stays_below_the_frames(self, demo_net):
        # a block of frames at a time, and a follower's differences to all later ones
        rng = np.random.default_rng(87)
        graph = random_connected_graph(rng, n_max=100, n_min=100)
        big = NetworkConfig(graph=graph, alpha=0.0, k=3.0, g=-2.0)
        followers, leader = random_profiles(rng, big.n, 401)
        cases = [
            (big, SimConfig(nx=401, t_end=0.25, source="paper",
                            initial_conditions=(followers, leader))),
            (demo_net, SimConfig(nx=101, source="paper", initial_conditions="sectionV")),
        ]
        for net, sim in cases:
            traj = simulate(net, sim)
            tracemalloc.start()
            try:
                sync_errors(traj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.6 * traj.frames.nbytes

    def test_peak_memory_with_more_followers_than_modes(self):
        # a block's N x N Gram matrices outgrow its frames when N > nx, so
        # the blocks shrink by nx / N
        rng = np.random.default_rng(88)
        count, n, nx = 251, 200, 17
        frames = rng.standard_normal((count, n, nx))
        traj = Trajectory(times=np.arange(float(count)), frames=frames,
                          leader=np.zeros((count, nx)))
        tracemalloc.start()
        try:
            sync_errors(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * frames.nbytes

    def test_zero_on_synchronized_state(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=3.0, g=-2.0)
        nx = 41
        x = np.linspace(0, 1, nx)
        shared = leader_profile(x)
        ic = (np.tile(shared, (5, 1)), shared)
        sim = SimConfig(nx=nx, dt=1e-3, t_end=0.5, source="paper", initial_conditions=ic)
        traj = simulate(net, sim)
        series = sync_errors(traj)
        assert series.total_l2.max() <= 1e-9
        assert series.pairwise_max.max() <= 1e-9
        assert np.abs(grid_errors(on_grid(traj))[2]).max() <= 1e-9

    def test_total_is_root_sum_of_squares(self, demo_net):
        sim = SimConfig(nx=41, dt=1e-3, t_end=0.5, initial_conditions="sectionV", source="paper")
        series = sync_errors(simulate(demo_net, sim))
        recomputed = np.sqrt((series.per_agent_l2**2).sum(axis=0))
        rel = np.abs(series.total_l2 - recomputed) / np.maximum(series.total_l2, 1e-30)
        assert rel.max() <= 1e-12

    def test_summed_error_field_converges(self, demo_net):
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV", source="paper")
        summed = grid_errors(on_grid(simulate(demo_net, sim)))[2]
        start = np.abs(summed[0]).max()
        end = np.abs(summed[-1]).max()
        assert end <= 0.15 * start

    def test_self_coupling_only_asymptotes(self):
        # coupling off: the uncontrolled agents keep exactly the mean of
        # their initial error; oracle values from the closed-form integrals
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=3.0, g=0.0)
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV", source="paper")
        series = sync_errors(simulate(net, sim))
        leader_mean = 2.0 + 2.0 * np.sin(7.0) / 7.0
        expect_4 = abs(1.5 - leader_mean)
        expect_5 = abs(0.0 - leader_mean)
        assert series.per_agent_l2[3, -1] == pytest.approx(expect_4, rel=0.01)
        assert series.per_agent_l2[4, -1] == pytest.approx(expect_5, rel=0.01)
        for i in range(3):
            assert series.per_agent_l2[i, -1] <= 0.02 * series.per_agent_l2[i, 0]


class TestDecayFit:
    def synthetic(self, rate):
        t = np.linspace(0.0, 3.0, 301)
        total = np.exp(rate * t)
        n = t.size
        return ErrorSeries(
            times=t,
            per_agent_l2=total[np.newaxis, :],
            total_l2=total,
            pairwise_max=np.zeros(n),
        )

    def test_exact_exponential(self):
        assert fit_decay_rate(self.synthetic(-2.0), (0.0, 3.0)) == pytest.approx(
            -2.0, abs=1e-6
        )

    def test_constant_series(self):
        assert fit_decay_rate(self.synthetic(0.0), (0.5, 2.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zeros_rejected(self):
        series = self.synthetic(-1.0)
        series.total_l2[150] = 0.0
        with pytest.raises(NonPositiveSeries):
            fit_decay_rate(series, (0.0, 3.0))

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate(self.synthetic(-1.0), (1.0, 1.001))


class TestSpectral:
    def test_analytic_spectrum_values(self):
        modes = analytic_open_loop_spectrum(0.0, 1.0, 3)
        assert modes == pytest.approx([0.0, -PI2, -4 * PI2])
        assert analytic_open_loop_spectrum(1.0, 1.0, 1)[0] == 1.0
        assert analytic_open_loop_spectrum(0.0, 2.0, 2)[1] == pytest.approx(-2 * PI2)
        with pytest.raises(ValueError):
            analytic_open_loop_spectrum(0.0, 1.0, 0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
    def test_open_loop_abscissa_matches_dominant_mode(self, alpha):
        net = NetworkConfig(graph=single_agent(), alpha=alpha, k=0.0, g=0.0)
        sim = SimConfig(nx=81, dt=0.01, source="off")
        dominant = max(analytic_open_loop_spectrum(alpha, 1.0, 8))
        got = spectral_abscissa(net, sim)
        assert abs(got - dominant) <= max(0.02 * abs(dominant), 1e-4)
        assert abs(got - dense_abscissa(net, sim)) <= 1e-9

    @pytest.mark.parametrize("preset", ["sectionV", "fig5_k0", "fig6_g0"])
    def test_abscissa_matches_dense_oracle_on_presets(self, preset):
        # fig5_k0 and fig6_g0 have an exact zero mode (an uncontrolled
        # constant or an uncoupled agent without leader access)
        k, g = PRESETS[preset]["k"], PRESETS[preset]["g"]
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=k, g=g)
        sim = SimConfig(nx=101, dt=1e-3, source="off")
        assert abs(spectral_abscissa(net, sim) - dense_abscissa(net, sim)) <= 1e-9

    def test_abscissa_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(61)
        for net in heterogeneous_nets(rng, 3):
            sim = SimConfig(nx=41, dt=1e-3, source="off")
            assert abs(spectral_abscissa(net, sim) - dense_abscissa(net, sim)) <= 1e-9

    def test_abscissa_does_not_depend_on_dt(self):
        # the semi-discrete value: no time step, so no stiff grid mode, floors it
        k, g = PRESETS["sectionV"]["k"], PRESETS["sectionV"]["g"]
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=k, g=g)
        values = []
        for dt in (1e-3, 0.05):
            sim = SimConfig(nx=101, dt=dt, source="off")
            values.append(spectral_abscissa(net, sim))
            assert abs(values[-1] - dense_abscissa(net, sim)) <= 1e-9
        assert values[0] == values[1]
        assert abs(values[0] + 0.8355941) <= 1e-7

    def test_abscissa_builds_no_mode_matrix(self, demo_net):
        # the N x N mode blocks need neither nx x nx matrix (32 MB each here)
        sim = SimConfig(nx=2001, source="off")
        tracemalloc.start()
        try:
            spectral_abscissa(demo_net, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_abscissa_is_the_table_top_bit_for_bit(self):
        # rounding keeps order, so the largest rate j >= 1 plus eig(C) is the top of
        # the whole (nx - 1) x N table rates_j + eig(C), to the last bit
        rng = np.random.default_rng(62)
        for case in range(300):
            graph = random_graph(rng, n_max=8, n_min=1, edge_prob=float(rng.uniform()))
            n = graph.n
            k = rng.uniform(0.0, 8.0, n).tolist() if case % 2 else float(rng.uniform(0.0, 8.0))
            g = rng.normal(0.0, 4.0, n).tolist() if case % 4 > 1 else float(rng.normal(0.0, 4.0))
            net = NetworkConfig(graph=graph, alpha=float(rng.normal()),
                                beta=float(rng.uniform(0.1, 3.0)), k=k, g=g)
            sim = SimConfig(nx=(16, 17, 33, 101, 401)[case % 5])
            assert spectral_abscissa(net, sim) == table_abscissa(net, sim)

    def test_abscissa_within_half_the_certified_margin(self):
        # read as d/dt ||e||^2 <= -m ||e||^2, a feasible certificate of margin
        # m makes ||e|| decay at m/2: the abscissa lies at or below -m/2, and
        # a Crank-Nicolson run's total error stays in the envelope
        # e^(-m t/2) ||e(0)|| at every frame, from smooth, constant, x=0 spike
        # and white-noise errors.  Measured, both bounds are attained (the
        # envelope by constant errors of followers without a leader link at
        # alpha < 0), so the slack covers rounding alone
        rng = np.random.default_rng(57)
        starts = np.random.default_rng(58)  # the errors, apart from the nets
        nx = 33
        x = np.linspace(0.0, 1.0, nx)
        kinds = [
            lambda n: starts.standard_normal((n, 4)) @ np.cos(np.outer(np.arange(4), np.pi * x)),
            lambda n: starts.standard_normal((n, 1)) * np.ones(nx),
            lambda n: starts.standard_normal((n, 1)) * (x == 0.0),
            lambda n: starts.standard_normal((n, nx)),
        ]
        checked = 0
        while checked < 150:
            graph = random_graph(rng, n_max=8, n_min=1, edge_prob=float(rng.uniform()))
            n = graph.n
            # common or per-agent gains
            k = rng.uniform(0.0, 8.0, n).tolist() if rng.random() < 0.5 else rng.uniform(0.0, 8.0)
            g = rng.uniform(-6.0, 0.0, n).tolist() if rng.random() < 0.5 else rng.uniform(-6.0, 0.0)
            net = NetworkConfig(
                graph=graph, alpha=float(rng.uniform(-1.0, 1.0)),
                beta=float(rng.uniform(0.3, 2.0)), k=k, g=g,
            )
            cert = evaluate_certificate(certificate_matrix(net))
            if not cert.feasible:
                continue
            for size in (17, 101):
                abscissa = spectral_abscissa(net, SimConfig(nx=size))
                assert abscissa <= -cert.margin / 2.0 + 1e-12 * max(1.0, cert.margin)
            errors = kinds[checked % len(kinds)](n)
            sim = SimConfig(nx=nx, dt=1e-4, t_end=0.05, output_stride=1,
                            initial_conditions=(errors, np.zeros(nx)))
            series = sync_errors(simulate(net, sim))
            envelope = np.exp(-cert.margin * series.times / 2.0) * series.total_l2[0]
            assert (series.total_l2[1:] <= (1.0 + 1e-12) * envelope[1:]).all()
            checked += 1

    def test_grid_convergence_second_order(self, demo_net):
        totals = {}
        for nx in (51, 101, 201):
            sim = SimConfig(
                nx=nx, dt=1e-3, t_end=2.5, source="paper", initial_conditions="sectionV"
            )
            series = sync_errors(simulate(demo_net, sim))
            totals[nx] = series.total_l2[-1]
        order = np.log2(
            abs(totals[51] - totals[101]) / abs(totals[101] - totals[201])
        )
        assert order >= 1.8

    def test_feasible_certificates_imply_decay(self):
        # random feasible scenarios: certificate margin above 1e-3 must show
        # a negative fitted rate on (0.5, 2.0)
        rng = np.random.default_rng(51)
        nx = 41
        x = np.linspace(0, 1, nx)
        done = 0
        while done < 20:
            g = random_connected_graph(rng, n_max=6)
            n, s = g.n, len(g.leader_set)
            alpha = s * PI2 / (4 * n) - float(rng.uniform(0.2, 1.0))
            k = k_window_partial(alpha, n, s).midpoint
            cfg = NetworkConfig(graph=g, alpha=alpha, k=k, g=0.0)
            cfg = cfg.with_gains(g=-50.0)
            if evaluate_certificate(certificate_matrix(cfg)).margin <= 1e-3:
                continue
            followers = np.array(
                [
                    rng.uniform(-2, 2)
                    + rng.uniform(-1, 1) * np.cos(np.pi * x)
                    + rng.uniform(-1, 1) * np.cos(3 * np.pi * x)
                    for _ in range(n)
                ]
            )
            leader = rng.uniform(-2, 2) + rng.uniform(-1, 1) * np.cos(np.pi * x)
            if abs(followers.mean() - leader.mean()) < 0.2:
                continue
            sim = SimConfig(
                nx=nx, dt=2e-3, t_end=2.0, source="off",
                initial_conditions=(followers, leader),
            )
            series = sync_errors(simulate(cfg, sim))
            assert fit_decay_rate(series, (0.5, 2.0)) < 0
            done += 1

    def test_uncontrolled_mean_blocks_decay(self):
        # no boundary gain and nonzero consensus mean error: the error total
        # cannot fall below 10% of its initial value
        rng = np.random.default_rng(52)
        nx = 41
        for _ in range(3):
            g = random_connected_graph(rng, n_max=5)
            cfg = NetworkConfig(graph=g, alpha=0.0, k=0.0, g=-2.0)
            means = rng.uniform(0.0, 1.0, g.n)
            followers = np.tile(means[:, None], (1, nx))
            leader = 3.0 * np.ones(nx)
            sim = SimConfig(
                nx=nx, dt=2e-3, t_end=2.0, source="off",
                initial_conditions=(followers, leader),
            )
            series = sync_errors(simulate(cfg, sim))
            assert series.total_l2[-1] >= 0.10 * series.total_l2[0]
