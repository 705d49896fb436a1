"""The package surface that the benchmark in perfbench/ drives.

perfbench/run.py replays each workload in process and calls heatsync by
module and function name, and perfbench/spans.py wraps the functions it
lists in ``LAYER_FUNCTIONS``.  A rename in the package breaks those runs;
these tests make it break the suite too.
"""
import dataclasses
import importlib
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heatsync import cli, gains, pdesim
from heatsync.certify import Certificate

from oracles import dense_simulate, on_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """Import ``perfbench/<name>.py`` without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # the matrixkit layer and certify's build_certificate* are retired;
    # spans.py skips what the package no longer has, so only the rest is held
    layers = perfbench_module("spans").LAYER_FUNCTIONS
    wanted = {layer: layers[layer] for layer in ("cli", "graph", "gains", "pdesim")}
    wanted["certify"] = ("certificate_matrix", "evaluate_certificate")
    assert set(wanted["certify"]) <= set(layers["certify"])
    for layer, names in wanted.items():
        module = importlib.import_module(f"heatsync.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"heatsync.{layer}.{name}"


@pytest.mark.parametrize("name", ["demo", "large_network"])
def test_in_process_replay_calls(tmp_path, name):
    wl = perfbench_module("workloads").build(name, 1, scale=0.25)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wl.config))
    scn = cli.load_scenario(path)
    net, sim = scn.net, scn.sim

    one_step = dataclasses.replace(sim, t_end=sim.dt)
    traj = pdesim.simulate(net, one_step)
    assert traj.times.tolist() == [0.0, sim.dt]

    k_design = gains.design(net.graph, net.alpha, net.beta).k
    g, cert = gains.search_g(net.with_gains(k=k_design, g=0.0))
    assert isinstance(g, float) and isinstance(cert, Certificate)
    assert cert.matrix.dim == 2 * net.n

    op = pdesim.assemble_operator(net, sim)
    assert op.coupling.shape == (net.n, net.n)


@pytest.mark.parametrize("name", ["demo", "large_network"])
def test_workload_simulate_matches_dense_stepper(tmp_path, name):
    # at a quarter of its size large_network runs 62 steps at stride 10,
    # so its last stride is a partial one
    wl = perfbench_module("workloads").build(name, 1, scale=0.25)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wl.config))
    scn = cli.load_scenario(path)
    traj, ref = on_grid(pdesim.simulate(scn.net, scn.sim)), dense_simulate(scn.net, scn.sim)
    assert np.array_equal(traj.times, ref.times)
    got = np.concatenate([traj.z.reshape(-1), traj.z_leader.reshape(-1)])
    want = np.concatenate([ref.z.reshape(-1), ref.z_leader.reshape(-1)])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_large_network_sweep_memory_is_bounded(tmp_path):
    # a sweep solves its certificates in stacks of a bounded size, so 900
    # cells of the N=32 graph stay within a few stacks' worth of memory
    wl = perfbench_module("workloads").build("large_network", 1)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wl.config))
    args = ["sweep", str(path), "--k=1:9:30", "--g=-8:-1:30", "--out", str(tmp_path / "sweep.csv")]
    tracemalloc.start()
    try:
        assert cli.main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 901
    assert peak <= 8 * 2**20
