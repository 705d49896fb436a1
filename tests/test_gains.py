import numpy as np
import pytest

from heatsync import (
    NetworkConfig,
    build_graph,
    certificate_matrix,
    demo_graph,
    design,
    evaluate_certificate,
    k_window_partial,
    search_g,
)
from heatsync.errors import (
    DimensionMismatch,
    EmptyWindow,
    InfeasibleInBracket,
    InvalidLeaderCount,
    UncontrollableComponent,
)
from heatsync.gains import G_MIN
from heatsync.graph import connected_components

from conftest import random_connected_graph, random_graph
from oracles import sym_eigenvalues

PI2 = np.pi**2


def kernel_2x2_negative_definite(alpha, k):
    """Eigenvalue oracle for the 2x2 certificate kernel."""
    m = np.array([[-PI2 / 2, k], [k, 2 * (alpha - k)]])
    return sym_eigenvalues(m).eigenvalues[-1] < 0


class TestWindowFull:
    """Every agent hears the leader: the (n, s) = (1, 1) window."""

    def test_alpha_zero(self):
        w = k_window_partial(0.0, 1, 1)
        assert not w.empty
        assert w.lo == pytest.approx(0.0, abs=1e-12)
        assert w.hi == pytest.approx(PI2, abs=1e-12)

    def test_critical_alpha_empty(self):
        assert k_window_partial(PI2 / 4, 1, 1).empty
        assert k_window_partial(PI2 / 4 + 1.0, 1, 1).empty

    def test_alpha_minus_one_endpoints(self):
        w = k_window_partial(-1.0, 1, 1)
        radius = np.pi / 2 * np.sqrt(PI2 + 4.0)
        assert w.lo == pytest.approx(max(-1 - PI2 / 4, PI2 / 2 - radius), abs=1e-12)
        assert w.hi == pytest.approx(PI2 / 2 + radius, abs=1e-12)
        # interior points are certified, exterior are not
        for k in (w.lo + 1e-3, w.midpoint, w.hi - 1e-3):
            assert kernel_2x2_negative_definite(-1.0, k)
        for k in (w.lo - 1e-3, w.hi + 1e-3):
            assert not kernel_2x2_negative_definite(-1.0, k)

    def test_grid_agreement_with_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            alpha = float(rng.uniform(-2.0, PI2 / 4 + 1.0))
            k = float(rng.uniform(-1.0, 12.0))
            w = k_window_partial(alpha, 1, 1)
            if not w.empty and min(abs(k - w.lo), abs(k - w.hi)) <= 1e-6:
                continue
            inside = w.lo < k < w.hi
            assert inside == kernel_2x2_negative_definite(alpha, k)


class TestWindowPartial:
    def test_alpha_zero_any_shape(self):
        for (n, s) in [(5, 3), (8, 1), (4, 4)]:
            w = k_window_partial(0.0, n, s)
            assert w.lo == pytest.approx(0.0, abs=1e-12)
            assert w.hi == pytest.approx(PI2, abs=1e-12)

    def test_demo_gain_in_window(self):
        w = k_window_partial(0.0, 5, 3)
        assert w.lo < 3.0 < w.hi

    def test_full_leader_set_matches_full_window(self):
        # the window depends on n/s only, so every s = n gives the same one
        for alpha in (-1.5, -0.2, 0.0, 1.0, 2.0, PI2 / 4):
            wf = k_window_partial(alpha, 1, 1)
            wp = k_window_partial(alpha, 6, 6)
            assert wf.empty == wp.empty
            if not wf.empty:
                assert (wf.lo, wf.hi) == (wp.lo, wp.hi)

    def test_empty_above_threshold(self):
        assert k_window_partial(3 * PI2 / 20, 5, 3).empty  # threshold exactly
        assert not k_window_partial(3 * PI2 / 20 - 0.01, 5, 3).empty

    def test_invalid_leader_count(self):
        with pytest.raises(InvalidLeaderCount):
            k_window_partial(0.0, 5, 0)
        with pytest.raises(InvalidLeaderCount):
            k_window_partial(0.0, 5, 6)

    def test_widens_with_more_leaders_for_unstable_plants(self):
        # for alpha > 0 the endpoints move strictly outward as s grows
        for alpha in (0.1, 0.3, 0.6):
            n = 8
            s_values = [s for s in range(1, n + 1) if alpha < s * PI2 / (4 * n)]
            windows = [k_window_partial(alpha, n, s) for s in s_values]
            for prev, nxt in zip(windows, windows[1:]):
                assert nxt.lo < prev.lo
                assert nxt.hi > prev.hi


class TestSearchG:
    def test_demo_scenario(self, demo_net):
        g_star, cert = search_g(demo_net)
        assert cert.feasible and g_star < 0
        # a moderate gain and the published one must also verify directly
        for g in (-100.0, -2.0):
            assert evaluate_certificate(certificate_matrix(demo_net.with_gains(g=g))).feasible

    def test_fully_controlled_zero_gain_feasible(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 3, 4])
        cfg = NetworkConfig(graph=g, alpha=0.0, k=k_window_partial(0.0, 1, 1).midpoint, g=0.0)
        g_star, cert = search_g(cfg)
        assert cert.feasible
        # with all agents controlled, g = 0 is feasible on its own
        direct = evaluate_certificate(certificate_matrix(cfg.with_gains(g=0.0)))
        assert direct.feasible

    def test_infeasible_outside_window(self):
        cfg = NetworkConfig(graph=demo_graph(), alpha=0.0, k=PI2 + 1.0, g=0.0)
        with pytest.raises(InfeasibleInBracket) as exc:
            search_g(cfg)
        assert exc.value.max_eig > 0
        assert exc.value.g_best == G_MIN
        for g in (-10.0, -1e6):
            assert evaluate_certificate(certificate_matrix(cfg.with_gains(g=g))).max_eig > 0

    def test_disconnected_matches_design(self):
        # the certificate block-decomposes over components, so one search on
        # the whole network is what design runs when every component has a
        # leader link
        g = build_graph(3, [(1, 2)], [1, 3])
        gd = design(g, alpha=0.0)
        g_star, cert = search_g(NetworkConfig(graph=g, alpha=0.0, k=gd.k, g=0.0))
        assert cert.feasible
        assert g_star == gd.g
        assert cert.max_eig == gd.certificate.max_eig

    def test_component_without_leader_link_infeasible(self):
        # node 3 is isolated and unheard: its block [[-pi^2/2, 0], [0, 2 alpha]]
        # keeps the eigenvalue 2 alpha > 0 whatever g is
        g = build_graph(3, [(1, 2)], [1, 2])
        cfg = NetworkConfig(graph=g, alpha=0.1, k=3.0, g=0.0)
        with pytest.raises(InfeasibleInBracket) as exc:
            search_g(cfg)
        assert exc.value.max_eig == pytest.approx(0.2, abs=1e-12)

    def test_returns_bracket_lower_end(self, demo_net):
        # one certificate at G_MIN decides [G_MIN, 0]: the gain is G_MIN
        # exactly, and the certificate (or the error) is the one built there
        rng = np.random.default_rng(45)
        cases = [demo_net, demo_net.with_gains(g=-3.5), demo_net.with_gains(k=PI2 + 1.0)]
        for _ in range(10):
            graph = random_connected_graph(rng)
            n, s = graph.n, len(graph.leader_set)
            alpha = s * PI2 / (4 * n) - 0.1
            cases.append(
                NetworkConfig(graph=graph, alpha=alpha, k=k_window_partial(alpha, n, s).midpoint)
            )
        outcomes = set()
        for cfg in cases:
            direct = evaluate_certificate(certificate_matrix(cfg.with_gains(g=G_MIN)))
            outcomes.add(direct.feasible)
            if not direct.feasible:
                with pytest.raises(InfeasibleInBracket) as exc:
                    search_g(cfg)
                assert (exc.value.g_best, exc.value.max_eig) == (G_MIN, direct.max_eig)
                continue
            g_star, cert = search_g(cfg)
            assert g_star == G_MIN
            assert np.array_equal(cert.matrix.mat, direct.matrix.mat)
            assert cert.matrix.asym_residual == direct.matrix.asym_residual
            assert (cert.max_eig, cert.feasible, cert.margin) == (
                direct.max_eig,
                direct.feasible,
                direct.margin,
            )
        assert outcomes == {True, False}

    def test_top_eigenvalue_nonincreasing_in_g(self):
        # Omega(g) = Omega(0) + g (0 (+) L) with L positive semidefinite, so by
        # Weyl's inequality the top eigenvalue cannot rise with g: the reason
        # search_g answers from G_MIN alone
        rng = np.random.default_rng(44)
        disconnected = 0
        for _ in range(60):
            graph = random_graph(rng, edge_prob=float(rng.uniform(0.1, 0.6)))
            disconnected += len(connected_components(graph)) > 1
            base = NetworkConfig(
                graph=graph,
                alpha=float(rng.uniform(-2.0, 2.0)),
                beta=float(rng.uniform(0.1, 5.0)),
                k=rng.uniform(0.0, 12.0, graph.n).tolist(),
            )
            certs = [
                evaluate_certificate(certificate_matrix(base.with_gains(g=float(g))))
                for g in np.sort(rng.uniform(-1e3, 10.0, 12))
            ]
            for lo, hi in zip(certs, certs[1:]):
                norm = max(1.0, *(np.linalg.norm(c.matrix.mat, 2) for c in (lo, hi)))
                assert lo.max_eig <= hi.max_eig + 1e-12 * norm
        assert disconnected > 0

    def test_objective_is_midpoint_convex(self, demo_net):
        lo, hi = -50.0, 0.0
        points = np.linspace(lo, hi, 20)
        f = {
            g: evaluate_certificate(certificate_matrix(demo_net.with_gains(g=float(g)))).max_eig
            for g in points
        }
        for a in points:
            for b in points:
                mid = (a + b) / 2
                if mid in f:
                    assert f[mid] <= (f[a] + f[b]) / 2 + 1e-8

    def test_witness_direction_is_gain_independent(self):
        # the Schur-optimal direction over the all-ones vector gives the
        # quadratic form 1'Q1, which no coupling gain can move (L annihilates
        # the all-ones vector): when the scalar existence test fails, sweeping
        # g six orders of magnitude never helps
        cfg = NetworkConfig(graph=demo_graph(), alpha=1.0, k=12.0, g=0.0)
        n, s, k, alpha = 5, 3, 12.0, 1.0
        mask_ones = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        witness = np.concatenate([(2 * k / PI2) * mask_ones, np.ones(n)])
        expected = 2 * alpha * n - 2 * k * s + (2 * k**2 / PI2) * s
        assert expected > 0
        for gg in (0.0, -1.0, -1e3, -1e6):
            value = witness @ certificate_matrix(cfg.with_gains(g=gg)).mat @ witness
            assert value == pytest.approx(expected, abs=1e-6)

    def test_existence_over_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            g = random_connected_graph(rng)
            n, s = g.n, len(g.leader_set)
            alpha = s * PI2 / (4 * n) - 0.1
            k = k_window_partial(alpha, n, s).midpoint
            cfg = NetworkConfig(graph=g, alpha=alpha, k=k, g=0.0)
            g_star, cert = search_g(cfg)
            assert cert.feasible and g_star < 0


class TestDesign:
    def test_demo_graph_pipeline(self):
        gd = design(demo_graph(), alpha=0.0, beta=1.0)
        assert gd.k == pytest.approx(PI2 / 2, abs=1e-12)
        assert gd.g < 0
        assert gd.certificate.feasible
        assert gd.k_window.lo < gd.k < gd.k_window.hi
        assert len(gd.per_component) == 1
        plan = gd.per_component[0]
        assert plan.component == (1, 2, 3, 4, 5)
        assert plan.n_nodes == 5 and plan.leader_count == 3

    def test_uncontrollable_component(self):
        g = build_graph(3, [(1, 2)], [1])
        with pytest.raises(UncontrollableComponent) as exc:
            design(g, alpha=0.0)
        assert exc.value.component == (3,)

    def test_no_followers(self):
        with pytest.raises(DimensionMismatch):
            design(build_graph(0, [], []), alpha=0.0)

    def test_empty_window(self):
        g = build_graph(3, [(1, 2), (2, 3)], [1, 2, 3])
        with pytest.raises(EmptyWindow):
            design(g, alpha=PI2 / 4)

    def test_two_components_use_narrowest_window(self):
        # components (1,2) with one leader and (3,4) with two leaders at
        # alpha > 0: the (1,2) window is narrower and provides k
        g = build_graph(4, [(1, 2), (3, 4)], [1, 3, 4])
        alpha = 0.3
        gd = design(g, alpha=alpha)
        w12 = k_window_partial(alpha, 2, 1)
        assert gd.k == pytest.approx(w12.midpoint, abs=1e-12)
        assert gd.certificate.feasible
        assert [p.component for p in gd.per_component] == [(1, 2), (3, 4)]

    def test_nonunit_diffusion_reverifies_at_true_beta(self):
        gd = design(demo_graph(), alpha=0.0, beta=2.0)
        assert gd.certificate.feasible
        # the certificate really was built at beta = 2
        top_left = gd.certificate.matrix.mat[0, 0]
        assert top_left == pytest.approx(-2 * PI2 / 2)

    def test_single_fully_controlled_component_alpha_above_quarter_pi2(self):
        g = build_graph(2, [(1, 2)], [1, 2])
        with pytest.raises(EmptyWindow):
            design(g, alpha=PI2 / 4 + 0.1)

    def test_fully_controlled_design_keeps_zero_coupling_feasible(self):
        # when every agent hears the leader, the synthesized k works with
        # g = 0 as well (the coupling is not necessary for synchronization)
        g = build_graph(5, demo_graph().edges, [1, 2, 3, 4, 5])
        gd = design(g, alpha=0.0)
        assert gd.certificate.feasible
        base = NetworkConfig(graph=g, alpha=0.0, k=gd.k, g=0.0)
        assert evaluate_certificate(certificate_matrix(base)).feasible
