import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from heatsync import (
    ErrorSeries,
    NetworkConfig,
    SimConfig,
    Trajectory,
    analytic_open_loop_spectrum,
    assemble_operator,
    build_graph,
    demo_graph,
    demo_initial_profiles,
    evaluate_certificate,
    certificate_matrix,
    fit_decay_rate,
    k_window_partial,
    preset_gains,
    simulate,
    spectral_abscissa,
    sync_errors,
    trapezoid_weights,
)
from heatsync.errors import DimensionMismatch, Divergence, NonPositiveSeries
from heatsync.pdesim import _expanded, _frame_jumps, _norm1

from conftest import random_connected_graph
from oracles import (
    dense_abscissa,
    dense_operator,
    dense_simulate,
    modal_apply,
    pairwise_max,
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


def random_profiles(rng, n, nx):
    x = np.linspace(0.0, 1.0, nx)
    modes = np.cos(np.outer(np.arange(4), np.pi * x))
    return rng.normal(size=(n, 4)) @ modes, rng.normal(size=4) @ modes


def relative_gap(traj, ref):
    assert np.array_equal(traj.times, ref.times)
    got = np.concatenate([traj.z.reshape(-1), traj.z_leader.reshape(-1)])
    want = np.concatenate([ref.z.reshape(-1), ref.z_leader.reshape(-1)])
    return np.abs(got - want).max() / np.abs(want).max()


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(nx=8)
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SimConfig(dt=bad)
            with pytest.raises(ValueError):
                SimConfig(t_end=bad)
            with pytest.raises(ValueError):
                SimConfig(nx=16, initial_conditions=(np.zeros((2, 16)), np.full(16, bad)))
        # nothing is coerced: a bool is not 1, a string is not parsed
        for bad in (True, np.True_, "0.5"):
            with pytest.raises(ValueError):
                SimConfig(dt=bad)
            with pytest.raises(ValueError):
                SimConfig(t_end=bad)
            with pytest.raises(ValueError):
                SimConfig(nx=16, initial_conditions=(np.zeros((2, 16)), [0.0] * 15 + [bad]))
        with pytest.raises(ValueError):
            SimConfig(source="mystery")
        with pytest.raises(ValueError):
            SimConfig(scheme="forward_euler")
        with pytest.raises(ValueError):
            SimConfig(output_stride=0)
        # "sectionV" is the one initial-condition token
        with pytest.raises(ValueError):
            SimConfig(initial_conditions="bogus")
        # a fractional count is rejected here, not deep inside simulate
        with pytest.raises(ValueError):
            SimConfig(nx=41.9)
        with pytest.raises(ValueError):
            SimConfig(output_stride=2.5)
        # True == 1, but a flag is not a count
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                SimConfig(output_stride=flag)

    def test_integral_float_counts_stored_as_int(self):
        sim = SimConfig(nx=41.0, output_stride=5.0)
        assert (sim.nx, sim.output_stride) == (41, 5)
        assert type(sim.nx) is int and type(sim.output_stride) is int


def l2_norm(field: np.ndarray) -> float:
    """The per-agent L2 norm sync_errors reports for a one-frame field."""
    nx = field.size
    traj = Trajectory(
        times=np.zeros(1),
        grid=np.linspace(0.0, 1.0, nx),
        z=field[np.newaxis, np.newaxis, :],
        z_leader=np.zeros((1, nx)),
    )
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
    return modal_apply(op, z @ op.inverse_modes.T) @ op.modes.T


def grid_matrix(op):
    """The generator of ``op`` as a matrix on the stacked grid values."""
    m, nx = op.coupling.shape[0], op.grid.size
    units = np.eye(m * nx).reshape(m * nx, m, nx)
    return np.array([grid_apply(op, u).reshape(-1) for u in units]).T


def error_generator(op):
    """``op`` cut to the leading N x N blocks that generate z_i - z_leader."""
    n = len(op.coupling) - 1
    return replace(op, coupling=op.coupling[:n, :n], feedback=op.feedback[:n, :n])


class TestOperator:
    def test_leader_alone_constant_in_kernel(self):
        g0 = build_graph(0, [], [])
        net = NetworkConfig(graph=g0, alpha=0.0, beta=1.0)
        op = assemble_operator(net, SimConfig(nx=33, source="off"))
        assert op.coupling.shape == op.feedback.shape == (1, 1)
        # the constant field is mode 0, and mode 0 decays at rate alpha
        assert np.array_equal(op.modes[:, 0], np.ones(33))
        assert op.rates[0] == 0.0
        constant = np.zeros((1, 33))
        constant[0, 0] = 1.0
        assert np.abs(modal_apply(op, constant)).max() == 0.0

    def test_decoupled_blocks(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.5, k=0.0, g=0.0)
        op = assemble_operator(net, SimConfig(nx=21, source="off"))
        assert op.rates[0] == 0.5
        assert op.coupling.shape == (6, 6)
        assert not op.coupling.any()
        assert not op.feedback.any()
        y = np.random.default_rng(3).standard_normal((6, 21))
        assert np.array_equal(modal_apply(op, y), y * op.rates)

    def test_boundary_feedback_row_structure(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=0.0)
        sim = SimConfig(nx=21, source="off")
        op = assemble_operator(net, sim)
        err = error_generator(op)
        nx = 21
        dx = 1.0 / 20
        w = trapezoid_weights(nx)
        flux = 2.0 / dx * 3.0
        # agent 1 is leader-connected: its flux reads its own and the leader's integral
        expected = np.zeros(6)
        expected[0], expected[5] = flux, -flux
        assert np.allclose(op.feedback[0], expected, rtol=1e-15, atol=0.0)
        # agent 4 is not: no feedback on its row
        assert not op.feedback[3].any()
        # the error operator carries the same feedback on its own block only
        assert np.allclose(err.feedback[0], expected[:5], rtol=1e-15, atol=0.0)
        full, err_full = grid_matrix(op), grid_matrix(err)
        assert np.allclose(full[0, 5 * nx :], flux * w)
        assert np.abs(full[3 * nx, 5 * nx :]).max() <= 1e-12 * flux
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
            err = error_generator(op)
            # it generates the error dynamics: d/dt (z_i - z_l) from the
            # closed loop equals err applied to the errors
            z = rng.standard_normal((n + 1, nx))
            dz = grid_apply(op, z)
            expected = dz[:n] - dz[n]
            scale = np.abs(dense_operator(net, sim)).max() * np.abs(z).max()
            assert np.abs(grid_apply(err, z[:n] - z[n]) - expected).max() <= 1e-12 * scale

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
            assert np.array_equal(op.node0, op.inverse_modes[:, 0])
            dense = dense_operator(net, sim)
            m = net.n + 1
            y = rng.standard_normal((m, nx))
            z = y @ op.modes.T
            got = modal_apply(op, y) @ op.modes.T
            want = (dense @ z.reshape(-1)).reshape(m, nx)
            norm = np.abs(dense).sum(axis=1).max()
            assert np.abs(got - want).max() <= 1e-12 * norm * np.abs(z).max()
            # the one-step map of each scheme: (I - h A) z' = (I + (dt - h) A) z
            for scheme, h in (("crank_nicolson", sim.dt / 2.0), ("backward_euler", sim.dt)):
                step = _frame_jumps(op, replace(sim, scheme=scheme))
                y = rng.standard_normal((m, nx))
                z = y @ op.modes.T
                z_next = (op.modes @ step.advance(y.T, 1, 0.0)).T
                implicit = np.eye(m * nx) - h * dense
                explicit = np.eye(m * nx) + (sim.dt - h) * dense
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
        means = traj.z_leader @ w
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
        err_means = traj.errors() @ w  # (agents, frames)
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
        mean_err = traj.errors()[0] @ w
        expected = mean_err[0] * np.exp(0.5 * traj.times)
        assert np.abs(mean_err / expected - 1.0).max() <= 0.05

    def test_boundary_traces_converge(self, demo_net):
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV")
        traj = simulate(demo_net, sim)
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
        for net, ic, source in cases:
            sim = SimConfig(
                nx=33, dt=2e-3, t_end=0.3, source=source, scheme=scheme,
                output_stride=5, initial_conditions=ic,
            )
            assert relative_gap(simulate(net, sim), dense_simulate(net, sim)) <= 1e-10

    @pytest.mark.parametrize(
        "alpha, followers, scheme",
        [
            (60.0, [1.0, 0.0, 0.0], "crank_nicolson"),
            (60.0, [0.0, 1.0, 0.0], "backward_euler"),
            (45.0, [0.0, 0.0, -1.0], "crank_nicolson"),
            # I - (dt/2) A is exactly singular: no state after step 1
            (2000.0, [1.0, 0.0, 0.0], "crank_nicolson"),
        ],
    )
    def test_divergence_matches_dense_stepper(self, alpha, followers, scheme):
        net = NetworkConfig(
            graph=build_graph(3, [], []), alpha=alpha, k=0.0, g=0.0
        )
        nx = 17
        ic = (np.outer(followers, np.ones(nx)), np.zeros(nx))
        sim = SimConfig(
            nx=nx, dt=1e-3, t_end=5.0, source="off", scheme=scheme,
            initial_conditions=ic,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dense LU warns when singular
            with pytest.raises(Divergence) as want:
                dense_simulate(net, sim)
        # strides 7 and 10 put the first bad step between output frames
        for stride in (1, 7, 10):
            with pytest.raises(Divergence) as got:
                simulate(net, replace(sim, output_stride=stride))
            assert (got.value.step, got.value.agent) == (want.value.step, want.value.agent)
            assert got.value.t == want.value.t

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stride_invariance(self, demo_net, scheme):
        # a frame jump equals the steps it skips; 101 steps leave a partial
        # last stride for every stride below
        rng = np.random.default_rng(73)
        cases = [(demo_net, "sectionV", "paper"), (demo_net, "sectionV", "off")]
        # a start this large fails the jump bound: the first strides replay
        followers, leader = random_profiles(rng, demo_net.n, 33)
        cases.append((demo_net, (5e10 * followers, 5e10 * leader), "paper"))
        for net in heterogeneous_nets(rng, 2):
            cases.append((net, random_profiles(rng, net.n, 33), "paper"))
            cases.append((net, random_profiles(rng, net.n, 33), "off"))
        # 20 agents: at 101 steps the strides' powers do not pay, one step at a time
        (net,) = heterogeneous_nets(rng, 1, n_min=20, n_max=20)
        cases.append((net, random_profiles(rng, net.n, 33), "paper"))
        for net, ic, source in cases:
            sim = SimConfig(
                nx=33, dt=2e-3, t_end=0.202, source=source, scheme=scheme,
                output_stride=1, initial_conditions=ic,
            )
            ref = simulate(net, sim)
            for stride in (3, 7, 10):
                traj = simulate(net, replace(sim, output_stride=stride))
                steps = np.append(np.arange(0, sim.n_steps, stride), sim.n_steps)
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
            off = simulate(net, sim).errors()
            paper = simulate(net, replace(sim, source="paper")).errors()
            assert np.abs(paper - off).max() <= 1e-12 * np.abs(off).max()

    def test_jump_bound_is_rigorous(self, demo_net):
        # gamma bounds ||M^k||_1 and delta every partial forced response for
        # k <= J, with M^k from plain one-step products of the dense map;
        # the 1e-12 covers the rounding of the column sums alone
        rng = np.random.default_rng(75)
        cases = [(demo_net, 101), (demo_net.with_gains(g=-1e4), 101)]
        cases += [(net, 33) for net in heterogeneous_nets(rng, 3)]
        for net, nx in cases:
            sim = SimConfig(nx=nx)
            jumps = _frame_jumps(assemble_operator(net, sim), sim)
            assert jumps.lengths == [10] * 250
            step, (unit, _) = jumps.maps[1]
            p, q = _expanded(step)
            # the one-step map's factored Q gives a bound on its norm
            assert _norm1(step) >= _norm1((p, q))
            m = net.n + 1
            dense = np.zeros((nx, m, nx, m))
            dense[np.arange(nx), :, np.arange(nx), :] = p
            dense[:, :, 0, :] += q
            dense = dense.reshape(nx * m, nx * m)
            # the structured norm is the dense one: the feedback column counts
            assert _norm1((p, q)) == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-12)
            power = np.eye(nx * m)
            for _ in range(jumps.lengths[0]):
                power = dense @ power
                assert np.abs(power).sum(axis=0).max() <= jumps.gamma * (1.0 + 1e-12)
            for t0 in np.linspace(0.0, 2.0, 41):
                forced = np.zeros(nx * m)
                for i in range(jumps.lengths[0]):
                    # after i + 1 steps from source time t0
                    forced = dense @ forced + np.sin(np.pi * (t0 + i * sim.dt)) * unit.reshape(-1)
                    assert np.abs(forced).sum() <= jumps.delta * (1.0 + 1e-12)
            assert jumps.gamma < 1e4 and jumps.delta > 0.0

    def test_jump_length_follows_cost(self, demo_net):
        # products of maps cost N+1 steps each: they pay on the demo, not on
        # 20 agents over 101 steps; a short last stride goes step by step
        sim = SimConfig(nx=33, dt=2e-3, t_end=0.202)
        jumps = _frame_jumps(assemble_operator(demo_net, sim), sim)
        assert jumps.lengths == [10] * 10 + [1]
        (net,) = heterogeneous_nets(np.random.default_rng(76), 1, n_min=20, n_max=20)
        jumps = _frame_jumps(assemble_operator(net, sim), sim)
        assert jumps.lengths == [1] * 101
        assert list(jumps.maps) == [1]

    def test_ic_preset_needs_five_agents(self):
        net = NetworkConfig(graph=single_agent(), alpha=0.0)
        with pytest.raises(DimensionMismatch):
            simulate(net, SimConfig(nx=21, t_end=0.01, initial_conditions="sectionV"))

    def test_backward_euler_also_decays(self, demo_net):
        sim = SimConfig(
            nx=41, dt=1e-3, t_end=1.0, scheme="backward_euler",
            initial_conditions="sectionV",
        )
        series = sync_errors(simulate(demo_net, sim))
        assert series.total_l2[-1] < 0.5 * series.total_l2[0]


class TestSyncErrors:
    def test_pairwise_max_matches_pair_loop(self, demo_net):
        # same arithmetic per pair as the loop over all pairs, so equal bits
        rng = np.random.default_rng(81)
        trajs = [simulate(demo_net, SimConfig(nx=41, t_end=0.5, initial_conditions="sectionV"))]
        for n in (1, 2, 7):
            trajs.append(
                Trajectory(
                    times=np.arange(4.0),
                    grid=np.linspace(0.0, 1.0, 17),
                    z=rng.standard_normal((n, 4, 17)),
                    z_leader=rng.standard_normal((4, 17)),
                )
            )
        for traj in trajs:
            assert np.array_equal(sync_errors(traj).pairwise_max, pairwise_max(traj))

    def test_zero_on_synchronized_state(self):
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=3.0, g=-2.0)
        nx = 41
        x = np.linspace(0, 1, nx)
        shared = leader_profile(x)
        ic = (np.tile(shared, (5, 1)), shared)
        sim = SimConfig(nx=nx, dt=1e-3, t_end=0.5, source="paper", initial_conditions=ic)
        series = sync_errors(simulate(net, sim))
        assert series.total_l2.max() <= 1e-9
        assert series.pairwise_max.max() <= 1e-9
        assert np.abs(series.avg_error_field).max() <= 1e-9

    def test_total_is_root_sum_of_squares(self, demo_net):
        sim = SimConfig(nx=41, dt=1e-3, t_end=0.5, initial_conditions="sectionV")
        series = sync_errors(simulate(demo_net, sim))
        recomputed = np.sqrt((series.per_agent_l2**2).sum(axis=0))
        rel = np.abs(series.total_l2 - recomputed) / np.maximum(series.total_l2, 1e-30)
        assert rel.max() <= 1e-12

    def test_summed_error_field_converges(self, demo_net):
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV")
        series = sync_errors(simulate(demo_net, sim))
        start = np.abs(series.avg_error_field[0]).max()
        end = np.abs(series.avg_error_field[-1]).max()
        assert end <= 0.15 * start

    def test_self_coupling_only_asymptotes(self):
        # coupling off: the uncontrolled agents keep exactly the mean of
        # their initial error; oracle values from the closed-form integrals
        net = NetworkConfig(graph=demo_graph(), alpha=0.0, k=3.0, g=0.0)
        sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, initial_conditions="sectionV")
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
            grid=np.linspace(0, 1, 11),
            per_agent_l2=total[np.newaxis, :],
            total_l2=total,
            avg_error_field=np.zeros((n, 11)),
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
        k, g = preset_gains(preset)
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
        k, g = preset_gains("sectionV")
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

    def test_grid_convergence_second_order(self, demo_net):
        totals = {}
        for nx in (51, 101, 201):
            sim = SimConfig(nx=nx, dt=1e-3, t_end=2.5, initial_conditions="sectionV")
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
