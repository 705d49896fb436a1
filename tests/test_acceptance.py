"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every expected value is either exact, derived from an independent oracle
computed in the test body, or a property bound; tolerances are stated
inline next to each assertion.
"""
import json
import os
import time

import numpy as np
import pytest

from heatsync import (
    NetworkConfig,
    SimConfig,
    build_graph,
    certificate_matrix,
    evaluate_certificate,
    fit_decay_rate,
    k_window_partial,
    search_g,
    simulate,
    spectral_abscissa,
    sync_errors,
)
from heatsync.cli import main

from conftest import demo_graph, random_connected_graph
from oracles import (
    coupling_gain_feasible,
    is_negative_definite,
    schur_reduction,
    sym_eigenvalues,
    wirtinger_check,
)

PI2 = np.pi**2


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def demo_net():
    return NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=-2.0)


def test_c01_demo_certificate(demo_net):
    t0 = time.perf_counter()
    cert = evaluate_certificate(certificate_matrix(demo_net))
    elapsed = time.perf_counter() - t0
    ok = cert.feasible and cert.max_eig < -1e-9 and elapsed < 1.0
    report(
        "C1",
        ok,
        f"demo-scenario certificate negative definite "
        f"(max eig {cert.max_eig:.6f}, {elapsed * 1e3:.1f} ms)",
    )


def test_c02_gain_window_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    agree = 0
    total = 0
    alphas = np.linspace(-2.0, PI2 / 4 + 1.0, 25)
    ks = np.linspace(-1.0, 12.0, 40)
    for alpha in alphas:
        for k in ks:
            w = k_window_partial(float(alpha), 1, 1)
            if w is not None and min(abs(k - w.lo), abs(k - w.hi)) <= 1e-6:
                continue
            kernel = np.array([[-PI2 / 2, k], [k, 2 * (alpha - k)]])
            oracle = sym_eigenvalues(kernel).eigenvalues[-1] < 0
            total += 1
            if (w is not None and w.lo < float(k) < w.hi) == oracle:
                agree += 1
    elapsed = time.perf_counter() - t0
    ok = total >= 990 and agree == total and elapsed < 5.0
    report(
        "C2",
        ok,
        f"window membership vs eigenvalue oracle: {agree}/{total} agree "
        f"({elapsed:.2f} s)",
    )


def test_c03_coupling_gain_existence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    feasible_hits = 0
    infeasible_hits = 0
    trials = 100
    for _ in range(trials):
        g = random_connected_graph(rng, n_max=8)
        n, s = g.n, len(g.leader_set)
        alpha = s * PI2 / (4 * n) - 0.1
        window = k_window_partial(alpha, n, s)
        cfg = NetworkConfig(graph=g, alpha=alpha, k=window.midpoint, g=0.0)
        g_star, cert = search_g(cfg)
        if cert.feasible and g_star < 0:
            feasible_hits += 1
        # half a unit above the admissible interval no coupling gain helps
        cfg_bad = cfg.with_gains(k=window.hi + 0.5)
        if not evaluate_certificate(certificate_matrix(cfg_bad.with_gains(g=-1e6))).feasible:
            sampled = [0.0] + [-(10.0**e) for e in range(0, 7)]
            if all(
                not is_negative_definite(
                    certificate_matrix(cfg_bad.with_gains(g=gg)), 1e-9
                )
                for gg in sampled
            ):
                infeasible_hits += 1
    elapsed = time.perf_counter() - t0
    ok = feasible_hits == trials and infeasible_hits == trials and elapsed < 30.0
    report(
        "C3",
        ok,
        f"existence at window midpoint {feasible_hits}/{trials}, "
        f"infeasible above window {infeasible_hits}/{trials} ({elapsed:.1f} s)",
    )


def test_c04_schur_and_kernel_consistency():
    rng = np.random.default_rng(103)
    schur_checked = 0
    schur_agree = 0
    kernel_checked = 0
    kernel_agree = 0
    while schur_checked < 200:
        g = random_connected_graph(rng, n_max=8)
        cfg = NetworkConfig(
            graph=g,
            alpha=float(rng.uniform(-2.0, 2.0)),
            k=float(rng.uniform(0.0, 12.0)),
            g=float(rng.uniform(-10.0, 0.0)),
        )
        omega = certificate_matrix(cfg)
        top = sym_eigenvalues(omega).eigenvalues[-1]
        if abs(top) <= 1e-8:
            continue
        omega_nd = is_negative_definite(omega)
        d_pd = sym_eigenvalues(schur_reduction(cfg)).eigenvalues[0] > 0
        schur_checked += 1
        if omega_nd == d_pd:
            schur_agree += 1

        n, s, k = cfg.n, len(g.leader_set), cfg.k_scalar
        kernel_value = 2 * cfg.alpha * n - 2 * k * s + (2 * k**2 / PI2) * s
        if abs(kernel_value) <= 1e-3:
            continue  # boundary band for the existence test
        exists = coupling_gain_feasible(cfg)
        found = evaluate_certificate(certificate_matrix(cfg.with_gains(g=-1e6))).feasible
        kernel_checked += 1
        if exists == found:
            kernel_agree += 1
    ok = schur_agree == schur_checked and kernel_agree == kernel_checked
    report(
        "C4",
        ok,
        f"schur equivalence {schur_agree}/{schur_checked}, kernel test vs "
        f"gain sweep {kernel_agree}/{kernel_checked}",
    )


def test_c05_wirtinger_equality_convergence():
    deviations = {}
    for nx in (201, 401):
        x = np.linspace(0.0, 1.0, nx)
        lhs, rhs = wirtinger_check(np.sin(np.pi * x / 2.0), dx=1.0 / (nx - 1))
        deviations[nx] = abs(lhs / rhs - 1.0)
    shrink = deviations[201] / deviations[401]
    ok = deviations[201] <= 2e-3 and 2.5 <= shrink <= 6.0
    report(
        "C5",
        ok,
        f"equality-case ratio deviates {deviations[201]:.2e} at nx=201, "
        f"refining shrinks it {shrink:.2f}x (second order)",
    )


def test_c06_uncoupled_asymptotes():
    net = NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=0.0)
    sim = SimConfig(nx=201, dt=1e-3, t_end=2.5, source="paper",
                    initial_conditions="sectionV")
    series = sync_errors(simulate(net, sim))
    # mean-mode oracle: without coupling the uncontrolled agents keep the mean
    # of their initial error; the closed-form integrals of the demo profiles
    leader_mean = 2.0 + 2.0 * np.sin(7.0) / 7.0  # profile mean, exact integral
    expected4 = abs(1.5 - leader_mean)
    expected5 = abs(0.0 - leader_mean)
    got4 = series.per_agent_l2[3, -1]
    got5 = series.per_agent_l2[4, -1]
    controlled_decay = [
        series.per_agent_l2[i, -1] / series.per_agent_l2[i, 0] for i in range(3)
    ]
    ok = (
        abs(got4 - expected4) <= 0.01 * expected4
        and abs(got5 - expected5) <= 0.01 * expected5
        and all(r <= 0.02 for r in controlled_decay)
    )
    report(
        "C6",
        ok,
        f"isolated agents settle at {got4:.4f}/{got5:.4f} "
        f"(oracle {expected4:.4f}/{expected5:.4f}), controlled agents decay "
        f"to {max(controlled_decay):.2%} of start",
    )


def test_c07_coupling_only_scenario():
    t0 = time.perf_counter()
    net = NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=0.0, g=-2.0)
    sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, source="paper",
                    initial_conditions="sectionV")
    series = sync_errors(simulate(net, sim))
    elapsed = time.perf_counter() - t0
    pair_ratio = series.pairwise_max[-1] / series.pairwise_max[0]
    leader_ratio = series.total_l2[-1] / series.total_l2[0]
    ok = pair_ratio < 0.05 and leader_ratio > 0.25 and elapsed < 60.0
    report(
        "C7",
        ok,
        f"followers agree (disagreement at {pair_ratio:.2%} of start) but "
        f"leader error persists ({leader_ratio:.2%} of start) in {elapsed:.1f} s",
    )


def test_c08_closed_loop_decay(demo_net):
    sim = SimConfig(nx=101, dt=1e-3, t_end=2.5, source="paper",
                    initial_conditions="sectionV")
    series = sync_errors(simulate(demo_net, sim))
    ratio = series.total_l2[-1] / series.total_l2[0]
    rate = fit_decay_rate(series, (0.5, 2.0))
    ok = ratio <= 0.10 and rate < 0.0
    report(
        "C8",
        ok,
        f"total error falls to {ratio:.2%} of start by t=2.5, fitted rate "
        f"{rate:.3f} < 0",
    )


def test_c09_spectral_diagnostics():
    got = {}
    single = build_graph(1, [], [1])
    for alpha in (-1.0, 0.0, 0.5):
        net = NetworkConfig(graph=single, alpha=alpha, k=0.0, g=0.0)
        sim = SimConfig(nx=81, dt=0.01, source="off")
        got[alpha] = spectral_abscissa(net, sim)
    open_ok = all(
        abs(got[a] - a) <= max(0.02 * abs(a), 1e-4) for a in got
    )
    # unstable plant, boundary gain from the fully controlled window: the
    # closed loop is stable even though the open loop grows
    grows = got[0.5] > 0
    all_leaders = build_graph(5, demo_graph().edges, [1, 2, 3, 4, 5])
    k_mid = k_window_partial(0.5, 1, 1).midpoint
    closed = NetworkConfig(graph=all_leaders, alpha=0.5, k=k_mid, g=0.0)
    closed_abscissa = spectral_abscissa(
        closed, SimConfig(nx=81, dt=1e-3, source="off")
    )
    ok = open_ok and grows and closed_abscissa < 0
    report(
        "C9",
        ok,
        f"open-loop abscissas {[round(v, 5) for v in got.values()]} match the "
        f"dominant analytic mode; alpha=0.5 grows open loop yet closes to "
        f"{closed_abscissa:.3f} < 0 with k={k_mid:.3f}",
    )


def test_c10_determinism(tmp_path):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(
        json.dumps(
            {"scenario_preset": "sectionV", "sim": {"nx": 101, "dt": 0.001}}
        )
    )
    outputs = []
    for run in ("a", "b"):
        assert main(["certify", str(cfg_path)]) == 0
        cert_bytes = (tmp_path / "demo.certify.json").read_bytes()
        out_dir = tmp_path / run
        assert main(["simulate", str(cfg_path), "--out", str(out_dir)]) == 0
        sim_bytes = b"".join(
            (out_dir / name).read_bytes()
            for name in ("errors.csv", "boundary.csv", "avg_error.csv", "manifest.json")
        )
        outputs.append((cert_bytes, sim_bytes))
    ok = outputs[0] == outputs[1]
    # the bytes hold at a fixed BLAS thread count, not across thread counts
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    report("C10", ok, "repeated certify and simulate runs are byte-identical "
                      f"(OPENBLAS_NUM_THREADS={threads})")
