import numpy as np
import pytest

from heatsync import (
    NetworkConfig,
    SymMatrix,
    build_graph,
    certificate_matrix,
    evaluate_certificate,
    laplacian,
    search_g,
)
from heatsync import certify
from heatsync.certify import certificate_sweep
from heatsync.errors import DimensionMismatch, InfeasibleInBracket
from heatsync.scenarios import FEASIBILITY_MARGIN

from conftest import demo_graph, random_connected_graph, random_graph
from oracles import (
    GridTooCoarse,
    closed_form_certificate,
    coupling_gain_feasible,
    is_negative_definite,
    schur_reduction,
    sym_eigenvalues,
    wirtinger_check,
)

PI2 = np.pi**2


def random_normalized_config(rng, n_max=8):
    g = random_connected_graph(rng, n_max=n_max)
    return NetworkConfig(
        graph=g,
        alpha=float(rng.uniform(-2.0, 2.0)),
        beta=1.0,
        k=float(rng.uniform(0.0, 12.0)),
        g=float(rng.uniform(-10.0, 0.0)),
    )


def random_general_config(rng, n_max=8):
    """Any beta, per-agent gains (nonzero k on unheard agents too), any graph."""
    g = random_graph(rng, n_max=n_max)
    return NetworkConfig(
        graph=g,
        alpha=float(rng.uniform(-2.0, 2.0)),
        beta=float(rng.uniform(0.1, 5.0)),
        k=rng.uniform(0.0, 12.0, g.n).tolist(),
        g=rng.uniform(-10.0, 0.0, g.n).tolist(),
    )


class TestNetworkConfig:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            NetworkConfig(graph=demo_graph(), alpha=0.0, beta=0.0)

    def test_rejects_wrong_length_gains(self):
        with pytest.raises(ValueError):
            NetworkConfig(graph=demo_graph(), alpha=0.0, k=[1.0, 2.0])

    # a bool is not read as 0 or 1, nor a string parsed, nor an integer beyond
    # the float range let through, in a scalar or a gain list
    @pytest.mark.parametrize(
        "bad",
        [
            np.nan, np.inf, -np.inf, True, pytest.param(np.True_, id="np.True_"), "0.5",
            pytest.param(10**400, id="10**400"),
            pytest.param(np.array([True] * 5), id="bool-array"),
            pytest.param(np.array(["0.5"] * 5), id="str-array"),
        ],
    )
    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "k", "g", "k_vector", "g_vector"]
    )
    def test_rejects_non_finite_numbers(self, field, bad):
        values = {"alpha": 0.0, "beta": 1.0, "k": 3.0, "g": -2.0}
        if field.endswith("_vector"):
            values[field[0]] = [1.0, 1.0, bad, 1.0, 1.0]
        else:
            values[field] = bad
        # an array is named by its first entry
        match = r"\[0\] must be a number" if isinstance(bad, np.ndarray) else None
        with pytest.raises(ValueError, match=match):
            NetworkConfig(graph=demo_graph(), **values)


class TestGeneralBuilder:
    def test_single_agent_closed_form(self):
        g = build_graph(1, [], [1])
        cfg = NetworkConfig(graph=g, alpha=0.0, beta=1.0, k=3.0, g=-7.0)
        mat = certificate_matrix(cfg).mat
        assert np.array_equal(mat, np.array([[-PI2 / 2, 3.0], [3.0, -6.0]]))
        assert evaluate_certificate(certificate_matrix(cfg)).feasible

    def test_demo_scenario_feasible(self, demo_net):
        cert = evaluate_certificate(certificate_matrix(demo_net))
        assert cert.feasible
        assert cert.max_eig < -1e-9
        assert cert.margin == pytest.approx(-cert.max_eig)

    def test_all_couplings_off(self):
        cfg = NetworkConfig(graph=demo_graph(), alpha=0.0, k=0.0, g=0.0)
        mat = certificate_matrix(cfg).mat
        expected = np.zeros((10, 10))
        expected[:5, :5] = -(PI2 / 2) * np.eye(5)
        assert np.array_equal(mat, expected)
        cert = evaluate_certificate(certificate_matrix(cfg))
        assert cert.max_eig == pytest.approx(0.0, abs=1e-12)
        assert not cert.feasible


class TestEvaluateCertificate:
    def test_margin_is_zero_unless_feasible(self):
        # the top eigenvalue sits inside the feasibility margin band
        cert = evaluate_certificate(SymMatrix(np.diag([-5e-10, -1.0])))
        assert cert.max_eig == -5e-10
        assert not cert.feasible
        assert cert.margin == 0.0
        cert = evaluate_certificate(SymMatrix(np.diag([-2e-9, -1.0])))
        assert cert.feasible
        assert cert.margin == -cert.max_eig == 2e-9

    def test_agrees_with_jacobi_oracle(self):
        # random certificates, half of them shifted so that the top
        # eigenvalue lands within 1e-12 of -margin
        rng = np.random.default_rng(39)
        margin = FEASIBILITY_MARGIN
        near = 0
        for trial in range(300):
            cfg = random_normalized_config(rng)
            mat = certificate_matrix(cfg).mat
            if trial % 2:
                offset = float(rng.uniform(-1e-12, 1e-12))
                shift = np.linalg.eigvalsh(mat)[-1] + margin + offset
                mat = mat - shift * np.eye(mat.shape[0])
            cert = evaluate_certificate(SymMatrix(mat))
            top = sym_eigenvalues(mat).eigenvalues[-1]
            assert abs(cert.max_eig - top) <= 1e-10
            assert cert.feasible == (cert.max_eig < -margin)
            assert cert.margin == (-cert.max_eig if cert.feasible else 0.0)
            near += abs(cert.max_eig + margin) <= 1e-11
        assert near >= 100


def one_cell(cfg, k, g):
    """(max_eig, feasible) of one sweep cell by the one-cell route; nan when it refuses."""
    try:
        cert = evaluate_certificate(certificate_matrix(cfg.with_gains(k=float(k), g=float(g))))
    except ValueError:  # an overflow, or a LinAlgError
        return np.nan, False
    return cert.max_eig, cert.feasible


class TestCertificateSweep:
    def test_bit_equal_to_one_cell_route(self):
        # per-agent k and g on the config are overridden by each cell's
        # scalars; n up to 40 spans several stacks, and gains up to 1e308
        # overflow some cells
        rng = np.random.default_rng(20)
        overflowed = stacked = 0
        for _ in range(40):
            cfg = random_general_config(rng, n_max=40)
            k = np.concatenate([rng.uniform(-2.0, 14.0, 30), [3.0, 1e308]])
            g = np.concatenate([rng.uniform(-12.0, 2.0, 30), [0.0, -1e308]])
            rng.shuffle(k)
            max_eig, feasible = certificate_sweep(cfg, k, g)
            want = [one_cell(cfg, kc, gc) for kc, gc in zip(k, g)]
            assert max_eig.tobytes() == np.array([w[0] for w in want]).tobytes()
            assert feasible.tolist() == [w[1] for w in want]
            overflowed += np.isnan(max_eig).sum()
            stacked += len(k) * 4 * cfg.n**2 > certify._STACK_ENTRIES
        assert overflowed >= 40 and stacked >= 5

    def test_stacks_are_symmetric_as_built(self):
        # both off-diagonal blocks are beta Kbar and the lower block adds
        # sym(G L), so every stack equals its transpose bit for bit, for
        # per-agent gains as for gains common to all followers
        rng = np.random.default_rng(22)
        for _ in range(200):
            cfg = random_general_config(rng, n_max=12)
            for cols in (cfg.n, 1):
                k = rng.uniform(-2.0, 14.0, (5, cols))
                g = rng.uniform(-12.0, 2.0, (5, cols))
                a, _ = certify._certificate_stack(cfg, k, g)
                assert np.array_equal(a, a.swapaxes(1, 2))

    def test_half_range_entries_refused_as_by_one_cell_route(self):
        # an entry past half the float range is finite in the stack, but
        # SymMatrix's (a + a^T)/2 overflows on it and certificate_matrix
        # refuses the cell: the sweep blanks it too; 2 alpha = 8e307 is not refused
        k, g = np.array([3.0, 0.0, 1e308]), np.array([-2.0, 0.0, -1.0])
        for alpha, beta in ((6e307, 1.0), (0.0, 2e307), (4e307, 1.0), (0.0, 1.0)):
            cfg = NetworkConfig(graph=demo_graph(), alpha=alpha, beta=beta)
            max_eig, feasible = certificate_sweep(cfg, k, g)
            want = [one_cell(cfg, kc, gc) for kc, gc in zip(k, g)]
            assert max_eig.tobytes() == np.array([w[0] for w in want]).tobytes()
            assert feasible.tolist() == [w[1] for w in want]
            assert np.isnan(max_eig[:2]).all() == (alpha > 5e307 or beta > 1e307)

    def test_failed_solve_blanks_only_its_cell(self, monkeypatch):
        # a LinAlgError fails the stack it is raised in; each of its cells is
        # solved again alone, and only the cell that fails again is blank
        solve = np.linalg.eigvalsh

        def failing(a):
            if (a[..., 0, 5] == 7.0).any():  # the boundary gain of follower 1
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a)

        cfg = NetworkConfig(graph=demo_graph(), alpha=0.0, k=3.0, g=-2.0)
        k, g = np.repeat([1.0, 7.0, 9.0], 2), np.tile([-4.0, -1.0], 3)
        want = [one_cell(cfg, kc, gc)[0] for kc, gc in zip(k, g)]
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        max_eig, _ = certificate_sweep(cfg, k, g)
        assert np.isnan(max_eig).tolist() == [False, False, True, True, False, False]
        assert max_eig[[0, 1, 4, 5]].tolist() == [want[i] for i in (0, 1, 4, 5)]

    def test_no_followers_raises(self):
        cfg = NetworkConfig(graph=build_graph(0, [], []), alpha=0.0)
        with pytest.raises(DimensionMismatch):
            certificate_sweep(cfg, np.ones(3), -np.ones(3))


def fully_controlled_kernel(n, alpha, k):
    """The 2x2 kernel [[-pi^2/2, k], [k, 2(alpha - k)]] expanded over n agents."""
    return np.kron(np.array([[-PI2 / 2, k], [k, 2.0 * (alpha - k)]]), np.eye(n))


def fully_controlled_certificate(n, alpha, k):
    """certificate_matrix of n uncoupled agents that all hear the leader."""
    edgeless = build_graph(n, [], range(1, n + 1))
    return certificate_matrix(NetworkConfig(graph=edgeless, alpha=alpha, k=k, g=0.0))


class TestFullyControlledBuilder:
    def test_single_agent(self):
        mat = fully_controlled_certificate(1, 0.0, 3.0).mat
        assert np.array_equal(mat, np.array([[-PI2 / 2, 3.0], [3.0, -6.0]]))

    def test_gains_off_infeasible(self):
        m = fully_controlled_certificate(3, 0.0, 0.0)
        assert np.array_equal(m.mat, fully_controlled_kernel(3, 0.0, 0.0))
        assert not evaluate_certificate(m).feasible

    def test_eigenvalue_multiplicity(self):
        # expanding the 2x2 kernel over n agents replicates its spectrum
        one = fully_controlled_certificate(1, 0.0, 3.0)
        pair = fully_controlled_certificate(2, 0.0, 3.0)
        assert np.array_equal(one.mat, fully_controlled_kernel(1, 0.0, 3.0))
        assert np.array_equal(pair.mat, fully_controlled_kernel(2, 0.0, 3.0))
        base = sym_eigenvalues(one).eigenvalues
        two = sym_eigenvalues(pair).eigenvalues
        assert np.allclose(two, np.sort(np.repeat(base, 2)), atol=1e-9)


class TestBuilderConsistency:
    def test_exact_agreement_on_normalized_configs(self):
        # scalar gains at beta = 1, then per-agent gains at any beta
        rng = np.random.default_rng(32)
        configs = [random_normalized_config(rng) for _ in range(50)]
        configs += [random_general_config(rng) for _ in range(50)]
        for cfg in configs:
            assert np.array_equal(certificate_matrix(cfg).mat, closed_form_certificate(cfg))

    def test_full_mask_decomposition(self):
        # with every agent leader-connected the normalized certificate is the
        # fully controlled one plus the coupling block
        rng = np.random.default_rng(33)
        for _ in range(20):
            g = random_connected_graph(rng)
            g_all = build_graph(g.n, g.edges, range(1, g.n + 1))
            k = float(rng.uniform(0.0, 10.0))
            gg = float(rng.uniform(-5.0, 0.0))
            alpha = float(rng.uniform(-1.0, 1.0))
            cfg = NetworkConfig(graph=g_all, alpha=alpha, k=k, g=gg)
            lhs = certificate_matrix(cfg).mat
            rhs = fully_controlled_kernel(g.n, alpha, k)
            rhs[g.n :, g.n :] += gg * laplacian(g_all).astype(float)
            assert np.array_equal(lhs, rhs)

    def test_normalized_builder_rejects_general_configs(self):
        # the Schur and kernel oracles hold only at beta = 1 with scalar gains
        g = demo_graph()
        for cfg in (
            NetworkConfig(graph=g, alpha=0.0, beta=2.0, k=3.0, g=-2.0),
            NetworkConfig(graph=g, alpha=0.0, k=[3.0] * 5, g=-2.0),
            NetworkConfig(graph=g, alpha=0.0, k=3.0, g=[-2.0] * 5),
        ):
            with pytest.raises(AssertionError):
                schur_reduction(cfg)
            with pytest.raises(AssertionError):
                coupling_gain_feasible(cfg)


class TestSchurReduction:
    def test_demo_equivalence(self, demo_net):
        omega_nd = evaluate_certificate(certificate_matrix(demo_net)).feasible
        d_min = sym_eigenvalues(schur_reduction(demo_net)).eigenvalues[0]
        assert omega_nd and d_min > 0

    def test_diagonal_case(self):
        cfg = NetworkConfig(graph=demo_graph(), alpha=-0.5, k=0.0, g=0.0)
        assert np.array_equal(schur_reduction(cfg).mat, 1.0 * np.eye(5))

    def test_ones_quadratic_form_formula(self):
        # 1' D 1 = 2 k s - 2 alpha N - (2 k^2 / pi^2) s, independent of g
        rng = np.random.default_rng(34)
        for _ in range(50):
            cfg = random_normalized_config(rng)
            n, s = cfg.n, len(cfg.graph.leader_set)
            ones = np.ones(n)
            value = ones @ schur_reduction(cfg).mat @ ones
            expected = 2 * cfg.k_scalar * s - 2 * cfg.alpha * n - (
                2 * cfg.k_scalar**2 / PI2
            ) * s
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_equivalence_on_random_configs(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 200:
            cfg = random_normalized_config(rng)
            omega = certificate_matrix(cfg)
            top = sym_eigenvalues(omega).eigenvalues[-1]
            if abs(top) <= 1e-8:  # boundary band excluded
                continue
            omega_nd = is_negative_definite(omega)
            d_pd = sym_eigenvalues(schur_reduction(cfg)).eigenvalues[0] > 0
            assert omega_nd == d_pd
            checked += 1

    def test_no_coupling_decouples_unconnected_agents(self):
        # g = 0 with a partial leader set: the lower block is diagonal
        # outside the mask, with 2*alpha on the rows of unconnected agents
        alpha = 0.7
        cfg = NetworkConfig(graph=demo_graph(), alpha=alpha, k=3.0, g=0.0)
        mat = certificate_matrix(cfg).mat
        lower = mat[5:, 5:]
        for agent in (4, 5):  # not leader-connected
            row = lower[agent - 1]
            assert row[agent - 1] == pytest.approx(2 * alpha)
            assert np.abs(np.delete(row, agent - 1)).max() == 0.0
            assert np.abs(mat[agent - 1 + 5, :5]).max() == 0.0  # no cross block


class TestCouplingGainExistence:
    def test_demo_parameters(self, demo_net):
        # scalar form: 2 alpha N - 2 k s + (2 k^2 / pi^2) s = -18 + 54/pi^2 < 0
        assert coupling_gain_feasible(demo_net)
        assert 2 * 0 - 2 * 3 * 3 + (2 * 9 / PI2) * 3 == pytest.approx(-12.5287, abs=1e-4)

    def test_zero_gain_boundary(self):
        cfg = NetworkConfig(graph=demo_graph(), alpha=0.0, k=0.0, g=0.0)
        assert not coupling_gain_feasible(cfg)

    def test_upper_endpoint_boundary(self):
        cfg = NetworkConfig(graph=demo_graph(), alpha=0.0, k=PI2, g=0.0)
        assert not coupling_gain_feasible(cfg)

    def test_disconnected_rejected(self):
        # a larger Laplacian kernel makes the scalar test incomplete
        g = build_graph(3, [(1, 2)], [1])
        cfg = NetworkConfig(graph=g, alpha=0.0, k=3.0, g=0.0)
        with pytest.raises(AssertionError):
            coupling_gain_feasible(cfg)

    def test_soundness_negative_verdict_means_no_gain(self):
        # when the kernel test fails, no coupling gain over six orders of
        # magnitude makes the certificate feasible
        rng = np.random.default_rng(36)
        found = 0
        while found < 10:
            g = random_connected_graph(rng)
            k = float(rng.uniform(0.0, 14.0))
            alpha = float(rng.uniform(-0.5, 2.0))
            cfg = NetworkConfig(graph=g, alpha=alpha, k=k, g=0.0)
            if coupling_gain_feasible(cfg):
                continue
            found += 1
            for gg in [0.0] + [-(10.0**e) for e in range(0, 7)]:
                m = certificate_matrix(cfg.with_gains(g=gg))
                assert not is_negative_definite(m, 1e-9)

    def test_completeness_positive_verdict_means_search_succeeds(self):
        rng = np.random.default_rng(37)
        found = 0
        while found < 10:
            g = random_connected_graph(rng)
            k = float(rng.uniform(0.5, 9.0))
            alpha = float(rng.uniform(-1.0, 1.0))
            cfg = NetworkConfig(graph=g, alpha=alpha, k=k, g=0.0)
            if not coupling_gain_feasible(cfg):
                continue
            found += 1
            g_star, cert = search_g(cfg)
            assert cert.feasible and g_star < 0


class TestPermutationEquivariance:
    def test_relabeling_conjugates_certificate(self):
        rng = np.random.default_rng(38)
        for _ in range(15):
            cfg = random_normalized_config(rng)
            n = cfg.n
            perm = rng.permutation(n)  # old index i -> new index perm[i]
            relabeled = build_graph(
                n,
                [(int(perm[i - 1]) + 1, int(perm[j - 1]) + 1) for (i, j) in cfg.graph.edges],
                [int(perm[v - 1]) + 1 for v in cfg.graph.leader_set],
            )
            cfg_rel = NetworkConfig(
                graph=relabeled, alpha=cfg.alpha, k=cfg.k, g=cfg.g
            )
            p = np.zeros((n, n))
            p[perm, np.arange(n)] = 1.0
            block = np.kron(np.eye(2), p)
            a = certificate_matrix(cfg).mat
            b = certificate_matrix(cfg_rel).mat
            assert np.allclose(block @ a @ block.T, b, atol=1e-12)
            ev_a = sym_eigenvalues(a).eigenvalues
            ev_b = sym_eigenvalues(b).eigenvalues
            assert np.allclose(ev_a, ev_b, atol=1e-9)


class TestWirtinger:
    def test_equality_case(self):
        x = np.linspace(0.0, 1.0, 201)
        lhs, rhs = wirtinger_check(np.sin(np.pi * x / 2), dx=1 / 200)
        assert lhs == pytest.approx(PI2 / 8, rel=1e-3)
        assert rhs == pytest.approx(PI2 / 8, rel=1e-3)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-3)

    def test_zero_function(self):
        lhs, rhs = wirtinger_check(np.zeros(64), dx=1 / 63)
        assert lhs == 0.0 and rhs == 0.0

    def test_strict_case(self):
        # h = cos(pi x / 2) - 1: lhs = pi^2/8, rhs = (pi^2/4)(3/2 - 4/pi)
        x = np.linspace(0.0, 1.0, 201)
        lhs, rhs = wirtinger_check(np.cos(np.pi * x / 2) - 1.0, dx=1 / 200)
        assert lhs == pytest.approx(PI2 / 8, rel=1e-3)
        assert rhs == pytest.approx(PI2 / 4 * (1.5 - 4 / np.pi), rel=1e-3)
        assert lhs > rhs

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            wirtinger_check(np.zeros(7), dx=1 / 6)

    def test_nonvanishing_start_rejected(self):
        with pytest.raises(ValueError):
            wirtinger_check(np.ones(32), dx=1 / 31)

    def test_wrong_span_rejected(self):
        with pytest.raises(ValueError):
            wirtinger_check(np.zeros(32), dx=1.0)
