"""The config format's one home, ``heatsync.scenarios``, and what a config may ask of the machine.

``load_scenario`` reads a config and ``network_block`` writes its network
keys, so a design report, whose network block ``network_block`` writes,
reads back as a config.  Reading a config builds no grid, so a config the
machine cannot hold is refused as a config error (exit 2) by the commands
that would build it, and answered by the ones that never do.
"""
import ast
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heatsync import cli, pdesim, scenarios
from heatsync.cli import main
from heatsync.pdesim import _frame_steps, simulate, spectral_abscissa
from heatsync.scenarios import (CONFIG_KEYS, GRAPH_KEYS, PRESETS, NetworkConfig, SimConfig,
                                load_scenario, network_block)

from conftest import demo_graph, random_graph

HUGE_NX = 10**15  # no address space holds one field of it
# 60 followers on a path with g alternating +-1: no agent basis, so the block map runs
SIGN_PATH = {
    "graph": {"n": 60, "edges": [[i, i + 1] for i in range(1, 60)], "leader_set": [1, 20, 40]},
    "alpha": 0.0, "beta": 1.0, "k": 3.0, "g": [(-1.0) ** i for i in range(60)],
    "sim": {"nx": 201, "t_end": 0.25, "source": "paper"},
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def assert_refused(code, err, *phrases):
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    for phrase in phrases:
        assert phrase in err


class TestHome:
    MOVED = ("Scenario", "GRAPH_KEYS", "CONFIG_KEYS", "_block", "load_scenario", "network_block")

    def test_scenarios_defines_the_format(self):
        assert all(hasattr(scenarios, name) for name in self.MOVED)
        assert cli.load_scenario is scenarios.load_scenario

    def test_cli_defines_none_of_it(self):
        path = Path(cli.__file__)
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {node.targets[0].id if isinstance(node, ast.Assign) else node.name
                   for node in tree.body
                   if isinstance(node, (ast.Assign, ast.FunctionDef, ast.ClassDef))}
        assert defined.isdisjoint(self.MOVED)
        from_scenarios = [alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) and node.module == "scenarios"
                          for alias in node.names]
        assert "load_scenario" in from_scenarios
        assert not [name for name in from_scenarios if name.startswith("_")]


def random_payload(rng):
    """A random network block: partial leader sets, scalar or per-agent k and g."""
    graph = random_graph(rng, n_max=7)
    n = graph.n

    def gain():
        per_agent = rng.normal(0.0, 4.0, n).tolist()
        return per_agent if rng.random() < 0.5 else per_agent[0] if n else 0.0

    return {
        "graph": {"n": n, "edges": [list(e) for e in graph.edges],
                  "leader_set": sorted(graph.leader_set)},
        "alpha": float(rng.normal()),
        "beta": float(rng.uniform(0.1, 3.0)),
        "k": gain(),
        "g": gain(),
    }


class TestNetworkBlock:
    @pytest.mark.parametrize("case", [*PRESETS, *range(24)])
    def test_block_reads_back_as_the_net(self, tmp_path, case):
        if isinstance(case, str):
            payload = {"scenario_preset": case}
        else:
            payload = random_payload(np.random.default_rng(case))
        net = load_scenario(write_config(tmp_path / "in.json", payload)).net
        block = network_block(net)
        assert set(block) <= set(CONFIG_KEYS) and set(block["graph"]) <= set(GRAPH_KEYS)
        back = load_scenario(write_config(tmp_path / "out.json", block)).net
        assert (back.n, back.graph.edges, back.graph.leader_set) == (
            net.n, net.graph.edges, net.graph.leader_set)
        assert (back.alpha, back.beta, back.k, back.g) == (net.alpha, net.beta, net.k, net.g)
        assert json.dumps(network_block(back)) == json.dumps(block)
        if not isinstance(case, str):
            assert block == payload

    @pytest.mark.parametrize("payload", [
        {"scenario_preset": "sectionV"},
        {"graph": {"n": 4, "edges": [[1, 2], [3, 4]], "leader_set": [1, 3]}, "alpha": 0.5},
    ], ids=["preset", "two_components"])
    def test_design_report_is_a_config(self, tmp_path, payload, capsys):
        cfg = write_config(tmp_path / "plant.json", payload)
        assert main(["design", cfg]) == 0
        report_path = tmp_path / "plant.design.json"
        report = json.loads(report_path.read_text())
        assert set(report) <= set(CONFIG_KEYS)
        assert set(report["graph"]) <= set(GRAPH_KEYS)
        net = load_scenario(report_path).net
        assert (net.k, net.g) == (report["k"], report["g"])
        assert main(["certify", str(report_path)]) == 0


class TestBeyondMemory:
    def test_huge_grid_is_answered_where_no_grid_is_built(self, tmp_path, capsys):
        outputs = {}
        for nx in (101, HUGE_NX):
            cfg = write_config(tmp_path / f"nx{nx}.json",
                               {"scenario_preset": "sectionV", "sim": {"nx": nx}})
            codes = [main(["certify", cfg]), main(["design", cfg])]
            sweep = tmp_path / f"sweep{nx}.csv"
            codes.append(main(["sweep", cfg, "--k", "1:9:3", "--g", "-4:0:2", "--out", str(sweep)]))
            out, err = capsys.readouterr()
            outputs[nx] = (codes, out.replace(str(sweep), "sweep.csv"), err, sweep.read_bytes())
        assert outputs[HUGE_NX] == outputs[101]
        assert outputs[101][0] == [0, 0, 0]

    @pytest.mark.parametrize("args, phrase", [
        (["simulate", "--out", "{out}"], "frames of"),
        (["sweep", "--k", "1:9:3", "--g", "-4:0:2", "--out", "{out}/s.csv", "--simulate"],
         "frames of"),
        (["spectrum"], "the spectrum's arrays take"),
    ], ids=["simulate", "sweep_simulate", "spectrum"])
    def test_huge_grid_is_a_config_error(self, tmp_path, capsys, args, phrase):
        cfg = write_config(tmp_path / "huge.json",
                           {"scenario_preset": "sectionV", "sim": {"nx": HUGE_NX}})
        out = tmp_path / "out"
        code = main([args[0], cfg, *(a.format(out=out) for a in args[1:])])
        assert_refused(code, capsys.readouterr().err, phrase, "bytes of physical memory")
        assert not out.exists()

    def test_oversized_sweep_grid_is_a_config_error(self, tmp_path, capsys):
        # 10^12 values of k alone would take 8 TB: the cells are counted from
        # the parsed ranges, before either range is built
        cfg = write_config(tmp_path / "scenario.json", {"scenario_preset": "sectionV"})
        out = tmp_path / "new" / "deep" / "sweep.csv"
        for k, g, cells in [("1:9:10000000", "-4:0:10000000", 10**14),
                            ("1:9:1000000000000", "-4:0:2", 2 * 10**12)]:
            code = main(["sweep", cfg, f"--k={k}", f"--g={g}", "--out", str(out)])
            assert_refused(code, capsys.readouterr().err, f"the sweep's {cells} cells take "
                           f"{cli._CELL_BYTES * cells} bytes")
            assert not (tmp_path / "new").exists()

    def test_sweep_peak_is_within_its_count(self, tmp_path):
        # the cells stay the arrays they were solved as and each row is formatted as it
        # is written: Python rows of every cell once peaked at 282 bytes a cell here
        from heatsync import certify  # noqa: F401  (loaded before the peak is traced)

        cfg = write_config(tmp_path / "scenario.json", {"scenario_preset": "sectionV"})
        out = tmp_path / "sweep.csv"
        args = ["sweep", cfg, "--k=1:9:300", "--g=-4:0:300", "--out", str(out)]
        assert traced_peak(main, args) <= cli._CELL_BYTES * 300**2
        assert len(out.read_text().splitlines()) == 1 + 300**2


def small_machine(monkeypatch, memory=64 * 2**20):
    """Make physical memory read ``memory`` bytes."""
    sysconf = os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))


def section_v(nx, t_end):
    entry = PRESETS["sectionV"]
    return {key: entry[key] for key in ("graph", "alpha", "beta", "k", "g")} | {
        "sim": {**entry["sim"], "nx": nx, "t_end": t_end}}


class TestModeMatrix:
    """No nx x nx mode matrix is built: frames reach the grid through ``to_grid``, so a
    run holds its frames, two blocks of them, nx-long working fields, a few N x N arrays
    and the D table or, without an agent basis, the block map, and the refusal counts
    these; a spectrum holds nx-long and N x N arrays."""

    def test_fine_grid_runs_on_a_small_machine(self, tmp_path, capsys, monkeypatch):
        # 2 frames of 6 x 4001 samples, a block of them and 16 working fields are
        # 3.65 MB; the mode matrix and its int64 phase table, 256 MB, once made this
        # run four times the machine
        cfg = write_config(tmp_path / "fine.json", section_v(4001, 0.01))
        small_machine(monkeypatch)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        assert {"errors.csv", "boundary.csv", "avg_error.csv"} <= {p.name for p in out.iterdir()}
        code = main(["sweep", cfg, "--k", "1:9:3", "--g", "-4:0:2", "--out", f"{out}/s.csv",
                     "--simulate"])
        assert code in (0, 1) and (out / "s.csv").exists()
        assert "config error" not in capsys.readouterr().err
        scn = load_scenario(cfg)
        assert simulate(scn.net, scn.sim).frames.shape == (2, 5, 4001)

    def test_fine_grid_peak_is_a_few_fields(self, tmp_path):
        # 10 steps at nx = 4001 peaked at 256.84 MB with the mode matrix; now
        # within 5 times the 2 frames and one field of each of the 6 agents, 2.88 MB
        scn = load_scenario(write_config(tmp_path / "fine.json", section_v(4001, 0.01)))
        net, sim = scn.net, scn.sim
        assert sim.n_steps == 10
        tracemalloc.start()
        try:
            traj = simulate(net, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames = traj.frames.nbytes + traj.leader.nbytes
        assert frames == 8 * 2 * (net.n + 1) * sim.nx
        assert peak <= 5 * (frames + 8 * (net.n + 1) * sim.nx)

    def test_block_map_counts_against_memory(self, tmp_path, capsys, monkeypatch):
        # without an agent basis the run also holds the block map: 26 frames of
        # 61 x 201 samples, two blocks of 4 of them, 16 working fields and 10 N x N
        # arrays are 5.19 MB, the map 11.58 MB more
        cfg = write_config(tmp_path / "path.json", SIGN_PATH)
        size = 8 * (26 + 2 * 4 + 16) * 61 * 201 + 8 * 10 * 60**2 + 16 * 201 * 60**2
        small_machine(monkeypatch, 8 * 2**20)
        out = tmp_path / "out"
        assert_refused(main(["simulate", cfg, "--out", str(out)]), capsys.readouterr().err,
                       f"the run's 26 frames with its working fields and block map take {size} bytes")
        assert not out.exists()
        # every sweep cell has a common g, so it has a basis and no block map to count
        code = main(["sweep", cfg, "--k", "1:9:2", "--g", "-4:-2:2", "--out", f"{out}/s.csv",
                     "--simulate"])
        assert code in (0, 1) and (out / "s.csv").exists(), capsys.readouterr().err

    def test_count_covers_the_run_peak(self, tmp_path, counts):
        # the refusal counts what the run holds at its peak: its frames, two blocks of
        # them, 16 working fields of N + 1 agents, 10 N x N arrays and the largest D
        # table or, without an agent basis, the block map's blocks and inverses, 16 nx
        # N^2 bytes.  The first three runs peak within 5 % of it.  The last two once
        # peaked past it: a stride of 1000 steps walked for all 101 frames at once at
        # 3.95x the count, and a dense graph's edge tables at 4.9x
        demo = NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=-2.0)
        path = load_scenario(write_config(tmp_path / "path.json", SIGN_PATH))
        fine = load_scenario(write_config(tmp_path / "fine.json", section_v(2001, 2.5)))
        long_strides = linked_net(100), SimConfig(
            nx=101, t_end=100.0, output_stride=1000, source="paper",
            initial_conditions=smooth_profiles(100, 101))
        dense = linked_net(200), SimConfig(
            nx=101, t_end=0.01, source="paper", initial_conditions=smooth_profiles(200, 101))
        cases = [
            (demo, SimConfig(nx=1001, t_end=0.01, source="paper", initial_conditions="sectionV"),
             1.05),
            (path.net, path.sim, 1.05),
            (fine.net, fine.sim, 1.05),
            (*long_strides, 1.0),
            (*dense, 1.0),
        ]
        for net, sim, bound in cases:
            count, field = len(_frame_steps(net, sim)), 8 * (net.n + 1) * sim.nx
            peak = traced_peak(simulate, net, sim)
            assert count * field <= peak <= bound * counts[-1]

    def test_spectrum_count_covers_its_peak(self, counts):
        # the spectrum counts three nx-long arrays and four N x N ones, no longer an
        # (nx - 1) x N table of eigenvalues: it once counted 51 kB here, against a
        # 3.85 MB peak
        peak = traced_peak(spectral_abscissa, linked_net(400), SimConfig(nx=16))
        assert peak <= counts[-1] == 8 * (3 * 16 + 4 * 400**2)


def linked_net(n, seed=0):
    """n followers with 10 % of the pairs linked, k = pi^2 / 2 and g = -2."""
    graph = random_graph(np.random.default_rng(seed), n_max=n, n_min=n, edge_prob=0.1)
    return NetworkConfig(graph=graph, alpha=0.0, beta=1.0, k=np.pi**2 / 2, g=-2.0)


def smooth_profiles(n, nx, seed=1):
    """n followers' start fields of four cosine modes each, and a leader at zero."""
    x = np.linspace(0.0, 1.0, nx)
    modes = np.cos(np.outer(np.arange(4), np.pi * x))
    return np.random.default_rng(seed).standard_normal((n, 4)) @ modes, np.zeros(nx)


@pytest.fixture
def counts(monkeypatch):
    """The sizes that ``pdesim``'s memory refusals count, in order, as it runs."""
    sizes, refuse = [], pdesim.refuse_beyond_memory
    monkeypatch.setattr(pdesim, "refuse_beyond_memory",
                        lambda size, what: sizes.append(size) or refuse(size, what))
    return sizes


def traced_peak(run, *args) -> int:
    """The tracemalloc peak of ``run(*args)``, in bytes."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
