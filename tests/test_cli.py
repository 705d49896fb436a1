import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import heatsync
from heatsync.cli import load_scenario, main
from heatsync.pdesim import simulate
from heatsync.scenarios import CONFIG_KEYS, FEASIBILITY_MARGIN, demo_initial_profiles

from conftest import random_connected_graph
from oracles import dense_abscissa, grid_errors, on_grid, pairwise_max


def fresh_python(args, **kwargs):
    """Run a new interpreter that imports heatsync from the same source tree."""
    src = str(Path(heatsync.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, **kwargs)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def assert_config_error(proc):
    """A fresh-process run that stopped with exit 2 and one ``config error:`` line."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.fixture
def preset_config(tmp_path):
    return write_config(
        tmp_path / "scenario.json",
        {"scenario_preset": "sectionV", "sim": {"nx": 41, "dt": 0.002}},
    )


@pytest.fixture
def explicit_config(tmp_path):
    return write_config(
        tmp_path / "explicit.json",
        {
            "graph": {
                "n": 5,
                "edges": [[1, 3], [2, 4], [3, 4], [4, 5]],
                "leader_set": [1, 2, 3],
            },
            "alpha": 0.0,
            "beta": 1.0,
            "k": 3.0,
            "g": -2.0,
            "sim": {
                "nx": 41,
                "dt": 0.002,
                "t_end": 0.5,
                "source": "off",
                "initial_conditions": "sectionV",
            },
        },
    )


class TestParsing:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.json")]) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "p.json", {"scenario_preset": "mystery"})
        assert main(["certify", cfg]) == 2

    def test_missing_graph_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "g.json", {"alpha": 0.0})
        assert main(["certify", cfg]) == 2

    @pytest.mark.parametrize(
        "command, block, key, value",
        [
            ("certify", None, "k", float("nan")),
            ("simulate", None, "k", float("nan")),
            ("simulate", "sim", "dt", float("nan")),
            (
                "simulate",
                "sim",
                "initial_conditions",
                {"followers": [[float("nan")] * 21] * 3, "leader": [0.0] * 21},
            ),
        ],
    )
    def test_nan_number_exits_2(self, tmp_path, capsys, command, block, key, value):
        # json reads NaN and Infinity literals; they must not reach a verdict
        payload = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "k": 3.0,
            "g": -2.0,
            "sim": {"nx": 21, "dt": 0.01, "t_end": 0.1},
        }
        (payload[block] if block else payload)[key] = value
        cfg = write_config(tmp_path / "nan.json", payload)
        args = [command, cfg] + (["--out", str(tmp_path / "out")] if command == "simulate" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "feasible" not in captured.out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("edges", [[1]]),
            ("edges", [[1, 2, 3]]),
            ("edges", [[2, 2]]),
            ("edges", [[1, 4]]),
            ("edges", [[1, 2], [2, 1]]),
            ("leader_set", [1.5]),
            ("leader_set", [4]),
            ("leader_set", [True]),
            ("n", 2.7),
            ("leaders", [1]),
        ],
        ids=[
            "edge-of-one-node",
            "edge-of-three-nodes",
            "self-loop",
            "edge-node-out-of-range",
            "duplicate-edge",
            "fractional-leader",
            "leader-out-of-range",
            "boolean-leader",
            "fractional-n",
            "misspelled-leader_set",
        ],
    )
    def test_malformed_graph_exits_2(self, tmp_path, capsys, key, value):
        # a graph block that is not a valid graph is a config error, never
        # a traceback, a domain outcome or a silently truncated graph
        graph = {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]}
        graph[key] = value
        cfg = write_config(tmp_path / "graph.json", {"graph": graph, "k": 3.0, "g": -2.0})
        assert main(["certify", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "feasible" not in captured.out

    @pytest.mark.parametrize(
        "block, key, value",
        [
            (None, "alpha", "0.5"),
            (None, "beta", True),
            (None, "k", "3"),
            (None, "g", False),
            (None, "k", [3.0, "3", 3.0]),
            (None, "g", [-2.0, True, -2.0]),
            ("sim", "dt", "0.01"),
            ("sim", "t_end", "0.1"),
            (
                "sim",
                "initial_conditions",
                {"followers": [["1"] + [0.0] * 20] + [[0.0] * 21] * 2, "leader": [0.0] * 21},
            ),
            ("sim", "initial_conditions", {"followers": [[0.0] * 21] * 3, "leader": [True] * 21}),
            (
                "sim",
                "initial_conditions",
                {
                    "followers": [[0.0] * 21, [0.0] * 10 + [True] + [0.0] * 10, [0.0] * 21],
                    "leader": [0.0] * 21,
                },
            ),
        ],
        ids=[
            "string-alpha",
            "bool-beta",
            "string-k",
            "bool-g",
            "string-in-per-agent-k",
            "bool-in-per-agent-g",
            "string-dt",
            "string-t_end",
            "string-in-profile",
            "all-bool-leader-profile",
            "one-true-among-profile-floats",
        ],
    )
    def test_non_numeric_number_exits_2(self, tmp_path, capsys, block, key, value):
        # strings and booleans are not coerced into physics, gains, times or profiles
        payload = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "k": 3.0,
            "g": -2.0,
            "sim": {"nx": 21, "dt": 0.01, "t_end": 0.1},
        }
        (payload[block] if block else payload)[key] = value
        cfg = write_config(tmp_path / "typed.json", payload)
        assert main(["certify", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "feasible" not in captured.out

    @pytest.mark.parametrize(
        "initial",
        [
            "bogus",
            "sectionV",
            {"followers": [[0.0] * 21] * 2, "leader": [0.0] * 21},
            {"followers": [], "leader": [0.0] * 21},
            {"followers": [[0.0] * 21] * 3, "leader": [0.0] * 20},
            [[[0.0] * 21] * 3, [0.0] * 21],
            {"followers": [[0.0] * 21] * 3, "leader": [0.0] * 21, "leeder": [0.0] * 21},
        ],
        ids=[
            "unknown-token",
            "sectionV-on-three-agents",
            "two-follower-rows",
            "no-follower-rows",
            "short-leader",
            "bare-array-pair",
            "misspelled-leader",
        ],
    )
    @pytest.mark.parametrize("command", ["certify", "design", "simulate", "sweep"])
    def test_bad_initial_conditions_exit_2(self, tmp_path, capsys, command, initial):
        # the token and the profile shapes are checked when the config is
        # read: every command stops with a config error before it prints or
        # writes anything
        payload = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "k": 3.0,
            "g": -2.0,
            "sim": {"nx": 21, "dt": 0.01, "t_end": 0.1, "initial_conditions": initial},
        }
        cfg = write_config(tmp_path / "ic.json", payload)
        out = tmp_path / "out"
        extra = {
            "simulate": ["--out", str(out)],
            "sweep": ["--k", "1:9:2", "--g", "-4:0:2", "--out", str(out / "sweep.csv")],
        }
        assert main([command, cfg, *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert not list(tmp_path.glob("ic.*.json"))

    def test_integer_numbers_accepted(self, tmp_path):
        payload = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "alpha": 0,
            "beta": 2,
            "k": [3, 3, 1],
            "g": -2,
            "sim": {"nx": 21, "dt": 1, "t_end": 4},
        }
        scn = load_scenario(write_config(tmp_path / "ints.json", payload))
        assert (scn.net.alpha, scn.net.beta, scn.net.g) == (0.0, 2.0, -2.0)
        assert scn.net.k == [3.0, 3.0, 1.0]
        assert (scn.sim.dt, scn.sim.t_end) == (1.0, 4.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("nx", 41.9),
            ("output_stride", 2.5),
            ("nx", float("inf")),
            ("output_stride", "10"),
            ("output_stride", True),
        ],
        ids=["fractional-nx", "fractional-stride", "infinite-nx", "string-stride", "boolean-stride"],
    )
    def test_non_integral_sim_count_exits_2(self, tmp_path, capsys, key, value):
        # grid size and output stride are counts: never truncated or coerced
        sim = {"nx": 41, "dt": 0.01, key: value}
        cfg = write_config(tmp_path / "sim.json", {"scenario_preset": "sectionV", "sim": sim})
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            (None, "graph", {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]}),
            (None, "alpha", 2.0),
            (None, "beta", 1.0),
            (None, "k", 40.0),
            (None, "g", -2.0),
            ("sim", "source", "off"),
            ("sim", "t_end", 0.1),
            ("sim", "initial_conditions", "sectionV"),
        ],
    )
    def test_preset_pinned_key_exits_2(self, tmp_path, capsys, block, key, value):
        # a preset fixes these values; a file that sets one too is refused,
        # not read as the preset with the key silently dropped
        payload = {"scenario_preset": "sectionV", "sim": {"nx": 21, "dt": 0.01}}
        (payload[block] if block else payload)[key] = value
        cfg = write_config(tmp_path / "pinned.json", payload)
        assert main(["certify", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert (f"sim.{key}" if block else key) in captured.err
        assert captured.out == ""

    def test_unknown_sim_key_exits_2(self, tmp_path):
        # a misspelled key would leave its field at the default unnoticed
        sim = {"nx": 21, "t_ned": 0.05, "dtt": 0.5}
        cfg = write_config(tmp_path / "typo.json", {"scenario_preset": "sectionV", "sim": sim})
        out = tmp_path / "out"
        proc = fresh_python(["-m", "heatsync", "simulate", cfg, "--out", str(out)], text=True)
        assert_config_error(proc)
        assert "'t_ned'" in proc.stderr and "'dtt'" in proc.stderr
        assert not out.exists()

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        # "alhpa" would leave alpha at 0 and certify a different plant
        payload = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "alhpa": 0.5,
            "k": 3.0,
            "g": -2.0,
        }
        cfg = write_config(tmp_path / "typo.json", payload)
        proc = fresh_python(["-m", "heatsync", "certify", cfg], text=True)
        assert_config_error(proc)
        assert "'alhpa'" in proc.stderr
        assert not (tmp_path / "typo.certify.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario_preset": "sectionV", "alhpa": 0.5},
            {"scenario_preset": "sectionV2"},
            {"scenario_preset": "sectionV", "k": 4.0},
            {"graph": {"n": 2, "edges": [[1, 1]], "leader_set": [1]}},
            {"graph": {"edges": [], "leader_set": []}},
            {"graph": {"n": 1, "edges": [], "leader_set": [1]}, "alpha": float("nan")},
            {
                "graph": {"n": 1, "edges": [], "leader_set": [1]},
                "sim": {
                    "nx": 16,
                    "initial_conditions": {
                        "followers": [[0.0] * 16], "leader": [0.0] * 16, "leeder": [0.0] * 16,
                    },
                },
            },
            [{"scenario_preset": "sectionV"}],
            {"alpha": 0.0, "k": 3.0},
        ],
        ids=[
            "unknown-key", "unknown-preset", "preset-pins-k", "self-loop", "graph-without-n",
            "nan-alpha", "leeder", "list-root", "no-graph",
        ],
    )
    def test_refusal_names_the_file(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path / "refused.json", payload)
        assert main(["certify", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert cfg in err

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"alpha": "\xe9"}')
        assert main(["certify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}:") and err.count("\n") == 1

    def test_readme_configs_load(self, tmp_path):
        # the configs the README documents pass the key and number rules
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), flags=re.S)
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            assert load_scenario(path).net.n == 5

    def test_readme_python_example_holds(self):
        # the README's one Python block runs as written, and its comments hold
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
        assert len(blocks) == 1
        scope = {}
        exec(blocks[0], scope)
        assert scope["cert"].feasible is True
        assert abs(scope["cert"].max_eig - (-0.896)) <= 1e-3
        series = scope["series"]
        assert abs(series.total_l2[-1] / series.total_l2[0] - 0.066) <= 1e-3
        assert scope["fit_decay_rate"](series, (0.5, 2.0)) < 0

    @pytest.mark.parametrize(
        "command, params",
        [
            ("certify", {"beta": 1e308, "k": 3, "g": -2}),
            ("design", {"beta": 1e308}),
            ("spectrum", {"beta": 1e308, "k": 3, "g": -2}),
            ("simulate", {"beta": 1e308, "k": 3, "g": -2}),
            ("certify", {"alpha": 1e308}),
            ("certify", {"k": 1e308}),
            ("spectrum", {"k": 3, "g": 1e308}),
            ("spectrum", {"alpha": 1e308, "g": 5e307}),
            # t_end / dt overflows: no step count, so no OverflowError deep in simulate
            ("simulate", {"sim": {"nx": 21, "dt": 1e-320}}),
            # t_end / dt is finite but beyond the int64 step indices
            ("simulate", {"sim": {"nx": 21, "dt": 1e-300}}),
        ],
        ids=[
            "beta-certify", "beta-design", "beta-spectrum", "beta-simulate", "alpha", "k",
            "g-spectrum", "alpha-g-spectrum", "dt-simulate", "dt-steps-simulate",
        ],
    )
    def test_overflowing_matrices_exit_2(self, tmp_path, command, params):
        # finite parameters whose certificate or operator overflows are a
        # config error: no LinAlgError, no overflow warning, no divergence
        payload = {
            "graph": {"n": 2, "edges": [[1, 2]], "leader_set": [1]},
            "sim": {"nx": 21, "t_end": 0.05},
            **params,
        }
        cfg = write_config(tmp_path / "big.json", payload)
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "simulate" else []
        proc = fresh_python(["-m", "heatsync", command, cfg, *extra], text=True)
        assert_config_error(proc)
        if "sim" in params:  # the message names the file and the step size
            assert f"bad config {cfg}" in proc.stderr and f"dt={params['sim']['dt']}" in proc.stderr
        assert not out.exists()
        assert not list(tmp_path.glob("big.*.json"))

    def test_integral_float_sim_count_accepted(self, tmp_path):
        sim = {"nx": 41.0, "dt": 0.01, "output_stride": 5.0}
        cfg = write_config(tmp_path / "sim.json", {"scenario_preset": "sectionV", "sim": sim})
        scn = load_scenario(cfg)
        assert (scn.sim.nx, scn.sim.output_stride) == (41, 5)
        assert isinstance(scn.sim.nx, int) and isinstance(scn.sim.output_stride, int)


class TestDispatch:
    """The command line's grammar: ``COMMAND CONFIG`` and ``--name value`` or ``--name=value``."""

    SWEEP = ["--k", "1:9:3", "--g", "-4:0:2", "--out"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus", "{cfg}", "--out", "{out}"],
            [],
            ["simulate", "{cfg}", "--out", "{out}", "--bogus"],
            ["sweep", "{cfg}", *SWEEP, "{out}", "--sim"],
            ["sweep", "{cfg}", *SWEEP, "{out}", "--simulate=yes"],
            ["simulate", "--out", "{out}"],
            ["simulate", "{cfg}", "--snapshots", "0.1", "--out"],
            ["sweep", "{cfg}", "--k", "1:9:3", "--out", "{out}"],
            ["simulate", "{cfg}", "{cfg}", "--out", "{out}"],
            ["certify", "{cfg}", "-x"],
        ],
        ids=["unknown-command", "no-command", "unknown-option", "abbreviated-option",
             "flag-with-value", "missing-config", "missing-value", "missing-required-option",
             "second-positional", "single-dash"],
    )
    def test_usage_error_exits_2(self, explicit_config, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(cfg=explicit_config, out=out) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: heatsync") and error.startswith("heatsync: error: ")
        assert not out.exists()
        assert not list(tmp_path.glob("explicit.*.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "{cfg}", "--k", "1:9:3", "--g", "-4:0:3", "--out", "{out}"],
            ["sweep", "{cfg}", "--k=1:9:3", "--g=-4:0:3", "--out={out}"],
            ["sweep", "--g", "-4:0:3", "--out", "{out}", "--k", "1:9:3", "{cfg}"],
        ],
        ids=["spaced", "joined", "options-first"],
    )
    def test_accepted_spellings(self, explicit_config, tmp_path, argv):
        # a value may begin with "-", and options may come before the config
        out = tmp_path / "sweep.csv"
        assert main([a.format(cfg=explicit_config, out=out) for a in argv]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,g,max_eig_omega,feasible" and len(lines) == 1 + 9
        assert [line.split(",")[1] for line in lines[1:4]] == ["-4.0", "-2.0", "0.0"]

    def test_command_help_lists_its_options(self, capsys):
        assert main(["sweep", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: heatsync sweep CONFIG") and captured.err == ""
        for option in ("--k K", "--g G", "--out OUT", "--simulate"):
            assert f"\n  {option} " in captured.out


class TestPresets:
    @pytest.mark.parametrize("name", list(heatsync.PRESETS))
    def test_preset_is_its_config(self, tmp_path, monkeypatch, capsys, name):
        # the preset file and its PRESETS entry written out as a config
        # give the same bytes; only the reports' preset field tells them apart
        numerics = {"nx": 41, "dt": 0.002}
        entry, before = heatsync.PRESETS[name], json.dumps(heatsync.PRESETS)
        payloads = {
            "preset": {"scenario_preset": name, "sim": numerics},
            "explicit": {**entry, "sim": {**entry["sim"], **numerics}},
        }
        outputs = {}
        for kind, payload in payloads.items():
            (tmp_path / kind).mkdir()
            monkeypatch.chdir(tmp_path / kind)
            write_config(Path("scenario.json"), payload)
            runs = []  # exit code and stdout of each command
            for argv in (["certify"], ["design"], ["simulate", "--out", "out"]):
                runs.append((main([argv[0], "scenario.json", *argv[1:]]), capsys.readouterr().out))
            files = {
                str(p): p.read_bytes()
                for p in sorted(Path().rglob("*")) if p.is_file() and p.name != "scenario.json"
            }
            preset_line = f'  "preset": "{name if kind == "preset" else ""}",\n'.encode()
            for report in ("scenario.certify.json", "out/manifest.json"):
                assert preset_line in files[report]
                files[report] = files[report].replace(preset_line, b"")
            outputs[kind] = runs, files
        assert len(outputs["preset"][1]) == 6
        assert outputs["preset"] == outputs["explicit"]
        assert json.dumps(heatsync.PRESETS) == before  # loading leaves the entry alone

    @pytest.mark.parametrize("name", list(heatsync.PRESETS))
    def test_preset_keys_are_config_keys(self, name):
        entry = heatsync.PRESETS[name]
        sim_keys = {f.name for f in fields(heatsync.SimConfig)}
        assert set(entry) <= set(CONFIG_KEYS) - {"scenario_preset"}
        assert set(entry["sim"]) <= sim_keys


class TestCertify:
    def test_feasible_preset(self, preset_config, tmp_path, capsys):
        assert main(["certify", preset_config]) == 0
        out = capsys.readouterr().out
        assert "feasible:         true" in out
        report = json.loads((tmp_path / "scenario.certify.json").read_text())
        assert report["feasible"] is True
        assert report["max_eig"] < -1e-9
        assert report["command"] == "certify"

    def test_infeasible_gain_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "k12.json",
            {
                "graph": {
                    "n": 5,
                    "edges": [[1, 3], [2, 4], [3, 4], [4, 5]],
                    "leader_set": [1, 2, 3],
                },
                "alpha": 0.0,
                "k": 12.0,
                "g": -2.0,
            },
        )
        assert main(["certify", cfg]) == 1
        report = json.loads((tmp_path / "k12.certify.json").read_text())
        assert report["feasible"] is False


class TestDesign:
    def test_design_and_round_trip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "plant.json",
            {
                "graph": {
                    "n": 5,
                    "edges": [[1, 3], [2, 4], [3, 4], [4, 5]],
                    "leader_set": [1, 2, 3],
                },
                "alpha": 0.0,
                "beta": 1.0,
            },
        )
        assert main(["design", cfg]) == 0
        out = capsys.readouterr().out
        assert "chosen k" in out
        report_path = tmp_path / "plant.design.json"
        report = json.loads(report_path.read_text())
        assert report["k"] == pytest.approx(4.934802200544679)
        assert report["g"] < 0
        # the design report is itself a valid scenario: feed it back
        assert main(["certify", str(report_path)]) == 0

    def test_reports_carry_the_certificate_margin(self, tmp_path, preset_config):
        # design's report carries no margin key; certifying it writes one
        plant = write_config(
            tmp_path / "plant.json",
            {"graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]}},
        )
        assert main(["design", plant]) == 0
        assert main(["certify", str(tmp_path / "plant.design.json")]) == 0
        assert main(["certify", preset_config]) == 0
        for name in ("plant.design.certify.json", "scenario.certify.json"):
            report = json.loads((tmp_path / name).read_text())
            assert report["feasibility_margin"] == FEASIBILITY_MARGIN

    def test_gains_in_config_warned_and_ignored(self, explicit_config, capsys):
        assert main(["design", explicit_config]) == 0
        assert "ignored" in capsys.readouterr().err

    def test_uncontrollable_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "island.json",
            {"graph": {"n": 3, "edges": [[1, 2]], "leader_set": [1]}, "alpha": 0.0},
        )
        assert main(["design", cfg]) == 1
        assert "(3,)" in capsys.readouterr().err

    def test_no_followers_exits_1(self, tmp_path):
        # the certificate needs a follower, and so does the design it vouches for
        cfg = write_config(
            tmp_path / "empty.json",
            {"graph": {"n": 0, "edges": [], "leader_set": []}, "alpha": 0.0},
        )
        proc = fresh_python(["-m", "heatsync", "design", cfg], text=True)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "empty.design.json").exists()

    def test_empty_window_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "hot.json",
            {
                "graph": {
                    "n": 5,
                    "edges": [[1, 3], [2, 4], [3, 4], [4, 5]],
                    "leader_set": [1, 2, 3],
                },
                "alpha": 3.0,
            },
        )
        assert main(["design", cfg]) == 1


class TestSimulate:
    def test_output_files_and_headers(self, preset_config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["simulate", preset_config, "--out", str(out_dir)]) == 0
        errors = (out_dir / "errors.csv").read_text().splitlines()
        assert errors[0] == (
            "t,err_agent_1,err_agent_2,err_agent_3,err_agent_4,err_agent_5,"
            "err_total,pairwise_max"
        )
        boundary = (out_dir / "boundary.csv").read_text().splitlines()
        assert boundary[0] == "t,z_1,z_2,z_3,z_4,z_5,z_leader"
        avg = (out_dir / "avg_error.csv").read_text().splitlines()
        assert avg[0] == "x,ebar_t_0.1,ebar_t_0.5,ebar_t_1,ebar_t_2.5"
        assert len(avg) == 41 + 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["preset"] == "sectionV"
        assert manifest["outputs"] == "errors.csv;boundary.csv;avg_error.csv"

    def test_manifest_records_the_last_written_time(self, explicit_config, tmp_path):
        # dt = 0.3 takes 3 steps to t_end = 1.0, so the last row is at 3 dt
        payload = json.loads(Path(explicit_config).read_text())
        payload["sim"].update(dt=0.3, t_end=1.0)
        cfg = write_config(tmp_path / "coarse.json", payload)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        last = float((out_dir / "errors.csv").read_text().splitlines()[-1].split(",")[0])
        assert manifest["t_end"] == 1.0
        assert manifest["t_final"] == last == 3 * 0.3 != 1.0

    def test_custom_snapshots(self, explicit_config, tmp_path):
        out_dir = tmp_path / "snap"
        assert (
            main(
                [
                    "simulate",
                    explicit_config,
                    "--out",
                    str(out_dir),
                    "--snapshots",
                    "0.1,0.25",
                ]
            )
            == 0
        )
        header = (out_dir / "avg_error.csv").read_text().splitlines()[0]
        assert header == "x,ebar_t_0.1,ebar_t_0.25"

    @pytest.mark.parametrize("snapshots", ["nan", "0.1,inf", "-inf,0.5"])
    def test_non_finite_snapshot_exits_2(self, explicit_config, tmp_path, capsys, snapshots):
        out_dir = tmp_path / "snap"
        code = main(
            ["simulate", explicit_config, "--out", str(out_dir), f"--snapshots={snapshots}"]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("snapshots", [["--snapshots="], ["--snapshots", " , "]])
    def test_empty_snapshot_list_exits_2(self, explicit_config, tmp_path, capsys, snapshots):
        # a list given but naming no time is refused, not read as the default times
        out_dir = tmp_path / "snap"
        assert main(["simulate", explicit_config, "--out", str(out_dir), *snapshots]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --snapshots") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("snapshots", ["0.1,5", "-0.1,0.2", "0.6"])
    def test_snapshot_outside_horizon_exits_2(
        self, explicit_config, tmp_path, capsys, snapshots
    ):
        # t_end is 0.5: a later time would be written under its own header
        # but hold the field of the last simulated step
        out_dir = tmp_path / "snap"
        code = main(
            ["simulate", explicit_config, "--out", str(out_dir), f"--snapshots={snapshots}"]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_snapshots_at_horizon_ends_accepted(self, explicit_config, tmp_path):
        out_dir = tmp_path / "snap"
        assert main(["simulate", explicit_config, "--out", str(out_dir), "--snapshots", "0,0.5"]) == 0
        header = (out_dir / "avg_error.csv").read_text().splitlines()[0]
        assert header == "x,ebar_t_0,ebar_t_0.5"

    def test_divergence_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "blowup.json",
            {
                "graph": {"n": 1, "edges": [], "leader_set": []},
                "alpha": 80.0,
                "k": 0.0,
                "g": 0.0,
                "sim": {
                    "nx": 21,
                    "dt": 0.001,
                    "t_end": 5.0,
                    "source": "off",
                    "initial_conditions": {
                        "followers": [[1.0] * 21],
                        "leader": [0.0] * 21,
                    },
                },
            },
        )
        assert main(["simulate", cfg, "--out", str(tmp_path / "d")]) == 1
        assert "diverged" in capsys.readouterr().err
        # nothing was written, so no output directory was made either
        assert not (tmp_path / "d").exists()

    def test_run_too_large_to_hold_exits_2(self, explicit_config, tmp_path, capsys):
        # 10^12 steps, each a frame of 6 agents x 101 nodes: refused by its
        # size before any array of the run is made, so nothing is allocated
        payload = json.loads(Path(explicit_config).read_text())
        payload["sim"].update(nx=101, dt=1e-9, t_end=1000.0, output_stride=1)
        cfg = write_config(tmp_path / "huge.json", payload)
        count, size = 10**12 + 1, (10**12 + 1) * 6 * 101 * 8
        assert size > 2**50
        out_dir = tmp_path / "huge"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert f"{count} frames of {size} bytes" in err
        assert not out_dir.exists()
        scn = load_scenario(cfg)
        with pytest.raises(ValueError, match=f"{count} frames"):
            simulate(scn.net, scn.sim)

    @pytest.mark.parametrize("g", [-2.0, [1.0, -1.0, 1.0, -1.0, 0.0]], ids=["preset", "mixed_g"])
    def test_errors_ignore_a_common_shift_and_the_source(self, explicit_config, tmp_path, g):
        # the errors run apart from the leader and the source: shifting every
        # profile by one field phi, or switching the source, leaves
        # errors.csv byte for byte.  The profiles are dyadic, so the shift
        # is exact and so are the initial errors
        x = np.linspace(0.0, 1.0, 41)
        followers, leader = (np.round(p * 2**20) / 2**20 for p in demo_initial_profiles(x))
        phi = np.round((1.0 + 0.5 * np.cos(3.0 * np.pi * x)) * 2**20) / 2**20
        payload = json.loads(Path(explicit_config).read_text())
        payload["g"] = g
        outputs = {}
        for shift in (0.0, 1.0):
            for source in ("off", "paper"):
                initial = {"followers": (followers + shift * phi).tolist(),
                           "leader": (leader + shift * phi).tolist()}
                payload["sim"].update(source=source, initial_conditions=initial)
                name = f"{shift:g}-{source}"
                out_dir = tmp_path / name
                assert main(["simulate", write_config(tmp_path / f"{name}.json", payload),
                             "--out", str(out_dir)]) == 0
                outputs[name] = [(out_dir / f).read_bytes() for f in ("errors.csv", "boundary.csv")]
        errors, boundaries = zip(*outputs.values())
        assert len(set(errors)) == 1
        assert len(set(boundaries)) == 4  # the fields themselves do move

    @pytest.mark.parametrize("g", [-2.0, [1.0, -1.0, 1.0, -1.0, 0.0]], ids=["preset", "mixed_g"])
    def test_outputs_match_the_grid_route(self, tmp_path, g):
        # every frame mapped to the grid and read there; mixed-sign g runs on the block map
        preset = heatsync.PRESETS["sectionV"]
        cfg = write_config(
            tmp_path / "scenario.json",
            {**preset, "g": g, "sim": {**preset["sim"], "nx": 41, "dt": 0.002}},
        )
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == 0
        scn = load_scenario(cfg)
        grid = on_grid(simulate(scn.net, scn.sim))
        per, total, summed = grid_errors(grid)
        snap_idx = [int(np.argmin(np.abs(grid.times - t))) for t in (0.1, 0.5, 1.0, 2.5)]
        expected = {
            "errors.csv": [grid.times, *per, total, pairwise_max(grid)],
            "boundary.csv": [grid.times, *grid.z[..., -1], grid.z_leader[:, -1]],
            "avg_error.csv": [scn.sim.grid, *summed[snap_idx]],
        }
        for name, columns in expected.items():
            want = np.column_stack(columns)
            got = np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name

    def test_leader_only(self, tmp_path):
        # no followers: no errors to the leader and no pairs, all zeros, and
        # nothing averages over the empty follower set; the source moves the
        # leader, from zero or from an explicit profile beside an empty
        # followers list, which reads as zero followers
        leader = 1.5 + np.sin(3.0 * np.linspace(0.0, 1.0, 21))
        explicit = {"followers": [], "leader": leader.tolist()}
        for name, initial in (("zero", None), ("explicit", explicit)):
            sim = {"nx": 21, "dt": 0.01, "t_end": 0.5, "source": "paper"}
            if initial:
                sim["initial_conditions"] = initial
            cfg = write_config(tmp_path / f"{name}.json", {"graph": {"n": 0}, "sim": sim})
            out_dir = tmp_path / name
            assert main(["simulate", cfg, "--out", str(out_dir)]) == 0
            errors = (out_dir / "errors.csv").read_text().splitlines()
            assert errors[0] == "t,err_total,pairwise_max"
            assert len(errors) == 1 + 6
            assert all(line.split(",")[1:] == ["0.0", "0.0"] for line in errors[1:])
            boundary = (out_dir / "boundary.csv").read_text().splitlines()
            assert boundary[0] == "t,z_leader"
            assert len(boundary) == 1 + 6 and float(boundary[-1].split(",")[1]) > 0.0
            start = float(boundary[1].split(",")[1])
            assert abs(start - (leader[-1] if initial else 0.0)) <= 1e-13
            avg = (out_dir / "avg_error.csv").read_text().splitlines()
            assert avg[0] == "x,ebar_t_0.1,ebar_t_0.5"
            assert all(line.split(",")[1:] == ["0.0", "0.0"] for line in avg[1:])
        # a follower row where the graph has none is still refused
        explicit["followers"] = [[0.0] * 21]
        sim["initial_conditions"] = explicit
        cfg = write_config(tmp_path / "extra_row.json", {"graph": {"n": 0}, "sim": sim})
        assert main(["simulate", cfg, "--out", str(tmp_path / "refused")]) == 2


class TestSpectrum:
    def test_prints_modes_and_abscissa(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "modes.json",
            {
                "graph": {"n": 1, "edges": [], "leader_set": [1]},
                "alpha": -1.0,
                "k": 0.0,
                "g": 0.0,
                "sim": {"nx": 81, "dt": 0.01, "source": "off"},
            },
        )
        assert main(["spectrum", cfg]) == 0
        out = capsys.readouterr().out
        assert "analytic open-loop modes" in out
        assert "spectral abscissa" in out
        abscissa = float(out.strip().splitlines()[-1].split()[-1])
        assert abscissa == pytest.approx(-1.0, rel=0.02)

    def test_random_16_agent_network(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        graph = random_connected_graph(rng, n_max=16, n_min=16)
        cfg = write_config(
            tmp_path / "net16.json",
            {
                "graph": {
                    "n": graph.n,
                    "edges": [list(e) for e in graph.edges],
                    "leader_set": sorted(graph.leader_set),
                },
                "alpha": 0.5,
                "k": list(rng.uniform(0.5, 5.0, graph.n)),
                "g": list(rng.uniform(-3.0, 0.0, graph.n)),
                "sim": {"nx": 50, "dt": 0.001, "source": "off"},
            },
        )
        assert main(["spectrum", cfg]) == 0
        abscissa = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
        scn = load_scenario(cfg)
        assert abs(abscissa - dense_abscissa(scn.net, scn.sim)) <= 1e-9

    def test_no_followers_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "none.json", {"graph": {"n": 0}, "sim": {"nx": 21}})
        assert main(["spectrum", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spectral abscissa needs at least one follower\n"

    def test_stdout_does_not_depend_on_dt(self, tmp_path, capsys):
        printed = []
        for dt in (1e-3, 5e-2):
            cfg = write_config(
                tmp_path / "dt.json", {"scenario_preset": "sectionV", "sim": {"dt": dt}}
            )
            assert main(["spectrum", cfg]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_stdout_byte_identical(self, preset_config):
        runs = [fresh_python(["-m", "heatsync", "spectrum", preset_config]) for _ in range(2)]
        assert all(run.returncode == 0 for run in runs)
        assert runs[0].stdout == runs[1].stdout


class TestSweep:
    def test_grid_csv(self, explicit_config, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", explicit_config, "--k", "1:9:5", "--g", "-4:0:3",
                 "--out", str(out_csv)]
            )
            == 0
        )
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "k,g,max_eig_omega,feasible"
        assert len(lines) == 1 + 15
        rows = {}
        for line in lines[1:]:
            k, g, eig, feas = line.split(",")
            rows[(float(k), float(g))] = (float(eig), feas)
        assert rows[(3.0, -2.0)][1] == "true"  # published gains feasible
        assert all(feas == "false" for (k, g), (_, feas) in rows.items() if g == 0.0)

    def test_out_of_window_column_infeasible(self, explicit_config, tmp_path):
        out_csv = tmp_path / "k12.csv"
        assert (
            main(
                ["sweep", explicit_config, "--k", "12:13:2", "--g", "-6:-1:3",
                 "--out", str(out_csv)]
            )
            == 0
        )
        for line in out_csv.read_text().splitlines()[1:]:
            assert line.split(",")[3] == "false"

    def test_with_decay_rates(self, explicit_config, tmp_path):
        out_csv = tmp_path / "rates.csv"
        assert (
            main(
                ["sweep", explicit_config, "--k", "2:4:2", "--g", "-3:-1:2",
                 "--out", str(out_csv), "--simulate"]
            )
            == 0
        )
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "k,g,max_eig_omega,feasible,decay_rate"
        for line in lines[1:]:
            assert line.split(",")[4] != ""

    def test_failed_cells_keep_column_count(self, tmp_path):
        # cells whose simulation diverges keep their gain and certificate
        # columns and blank the decay rate
        cfg = write_config(
            tmp_path / "edge.json",
            {
                "graph": {"n": 1, "edges": [], "leader_set": [1]},
                "alpha": 80.0,
                "k": 0.0,
                "g": 0.0,
                "sim": {
                    "nx": 21,
                    "dt": 0.001,
                    "t_end": 4.0,
                    "source": "off",
                    "initial_conditions": {
                        "followers": [[1.0] * 21],
                        "leader": [0.0] * 21,
                    },
                },
            },
        )
        out = tmp_path / "cells.csv"
        code = main(
            ["sweep", cfg, "--k", "0:1:2", "--g", "-1:0:2", "--out", str(out),
             "--simulate"]
        )
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["k", "g", "max_eig_omega", "feasible", "decay_rate"]
        assert len(lines) == 5
        blank_rows = 0
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert cells[2] != "" and cells[3] in ("true", "false")
            blank_rows += cells[4] == ""
        assert blank_rows >= 1
        assert (code == 1) == (blank_rows == 4)

    def test_failed_fit_keeps_the_certificate(self, tmp_path):
        # zero initial fields leave no error to fit a rate to, but every cell's
        # certificate was solved: only the decay rate is blank, and with no row
        # complete the sweep exits 1
        cfg = write_config(tmp_path / "zero.json", {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]], "leader_set": [1]},
            "k": 3.0, "g": -1.0, "sim": {"nx": 21, "t_end": 1.0}})
        out = tmp_path / "cells.csv"
        code = main(["sweep", cfg, "--k", "1:9:2", "--g", "-4:-2:2", "--out", str(out),
                     "--simulate"])
        assert code == 1
        no_sim = tmp_path / "certificates.csv"
        assert main(["sweep", cfg, "--k", "1:9:2", "--g", "-4:-2:2", "--out", str(no_sim)]) == 0
        certified = no_sim.read_text().splitlines()
        rows = out.read_text().splitlines()
        assert rows[0] == certified[0] + ",decay_rate"
        assert rows[1:] == [line + "," for line in certified[1:]]

    def test_overflowing_cell_blank(self, explicit_config, tmp_path):
        # a cell whose certificate overflows fails like any other cell
        out_csv = tmp_path / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["sweep", explicit_config, "--k", "3:1e308:2", "--g", "-2:0:2",
                 "--out", str(out_csv)]
            )
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [row[2:] == ["", ""] for row in rows] == [False, False, True, True]

    def test_no_followers_blanks_every_cell(self, tmp_path):
        cfg = write_config(tmp_path / "empty.json", {"graph": {"n": 0}, "alpha": 0.0})
        out_csv = tmp_path / "empty.csv"
        code = main(["sweep", cfg, "--k", "1:9:3", "--g", "-4:0:2", "--out", str(out_csv)])
        assert code == 1
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == 6 and all(row[2:] == ["", ""] for row in rows)

    def test_bad_range_exits_2(self, explicit_config, tmp_path):
        code = main(
            ["sweep", explicit_config, "--k", "1:9:1", "--g", "-4:0:3",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        code = main(
            ["sweep", explicit_config, "--k", "oops", "--g", "-4:0:3",
             "--out", str(tmp_path / "y.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "k_range, g_range",
        [("nan:1:3", "-2:0:2"), ("1:inf:3", "-2:0:2"), ("1:9:3", "-inf:0:2"), ("1:9:3", "-2:nan:2")],
    )
    def test_non_finite_range_exits_2(self, explicit_config, tmp_path, capsys, k_range, g_range):
        out = tmp_path / "x.csv"
        code = main(["sweep", explicit_config, "--k", k_range, "--g", g_range, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_run_too_large_to_hold_exits_2(self, explicit_config, tmp_path, capsys):
        # the size refusal belongs to the run, not to a cell: made once, with
        # simulate's message, before any cell runs or any path is made.  Each
        # frame of 10^12 + 1 is 6 agents x 101 nodes, so nothing is allocated
        payload = json.loads(Path(explicit_config).read_text())
        payload["sim"].update(nx=101, dt=1e-9, t_end=1000.0, output_stride=1)
        cfg = write_config(tmp_path / "huge.json", payload)
        count, size = 10**12 + 1, (10**12 + 1) * 6 * 101 * 8
        assert size > 2**50
        out = tmp_path / "new" / "sweep.csv"
        code = main(
            ["sweep", cfg, "--k", "1:9:3", "--g", "-4:0:2", "--out", str(out), "--simulate"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert f"{count} frames of {size} bytes" in err
        assert not out.parent.exists()
        # without --simulate nothing is simulated, so nothing is refused
        assert main(["sweep", cfg, "--k", "1:9:3", "--g", "-4:0:2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7


class TestOutputPaths:
    @pytest.mark.parametrize(
        "command, out",
        [("simulate", "taken"), ("sweep", "taken/sweep.csv"), ("sweep", ".")],
    )
    def test_file_in_the_way_exits_2(self, explicit_config, tmp_path, command, out):
        # refused before any work, where the write would raise OSError after it
        (tmp_path / "taken").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        ranges = ["--k", "1:9:2", "--g", "-4:0:2"] if command == "sweep" else []
        proc = fresh_python(
            ["-m", "heatsync", command, explicit_config, *ranges, "--out", out],
            text=True,
            cwd=tmp_path,
        )
        assert_config_error(proc)
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"


class TestDeterminism:
    def test_simulate_byte_identical(self, preset_config, tmp_path, walked):
        # mixed-sign g runs on the block map, and a start of 3e11 (a largest
        # field of 1.05e12) puts the first frame's sum past the limit without
        # diverging, so the block map walks the first stride
        preset = heatsync.PRESETS["sectionV"]
        sim = {**preset["sim"], "nx": 41, "dt": 0.002}
        followers, leader = demo_initial_profiles(np.linspace(0.0, 1.0, 41))
        big = {"followers": (3e11 * followers).tolist(), "leader": leader.tolist()}
        configs = [
            preset_config,
            write_config(
                tmp_path / "mixed.json", {**preset, "g": [1.0, -1.0, 1.0, -1.0, 0.0], "sim": sim}
            ),
            write_config(
                tmp_path / "big.json", {**preset, "sim": {**sim, "initial_conditions": big}}
            ),
        ]
        for i, cfg in enumerate(configs):
            dirs = [tmp_path / f"{i}a", tmp_path / f"{i}b"]
            for d in dirs:
                walked.clear()
                assert main(["simulate", cfg, "--out", str(d)]) == 0
                if i == 2:
                    assert walked == [0]
            for name in ("errors.csv", "boundary.csv", "avg_error.csv", "manifest.json"):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_certify_byte_identical(self, preset_config, tmp_path):
        report = tmp_path / "scenario.certify.json"
        assert main(["certify", preset_config]) == 0
        first = report.read_bytes()
        assert main(["certify", preset_config]) == 0
        assert report.read_bytes() == first


class TestPackaging:
    def test_module_entry_point(self):
        proc = fresh_python(["-m", "heatsync", "--version"], text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_cli_import_loads_no_scipy(self, preset_config, tmp_path):
        # the package needs only numpy: a process that runs every command on
        # the preset never imports scipy
        out = str(tmp_path / "out")
        commands = [
            ["certify", preset_config],
            ["design", preset_config],
            ["simulate", preset_config, "--out", out],
            ["spectrum", preset_config],
            ["sweep", preset_config, "--k", "1:9:2", "--g", "-4:0:2",
             "--out", out + "/sweep.csv", "--simulate"],
        ]
        code = (
            "import sys; from heatsync.cli import main; "
            f"print([main(a) for a in {commands!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = fresh_python(["-c", code], text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]

    def test_entrypoint_flushes_before_it_ends_the_process(self, tmp_path, preset_config,
                                                            monkeypatch):
        # entrypoint ends the process without the interpreter's teardown, which would have
        # flushed stdout: through a pipe stdout is block-buffered, so an unflushed report is lost
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        infeasible = write_config(tmp_path / "k12.json", {
            "graph": {"n": 5, "edges": [[1, 3], [2, 4], [3, 4], [4, 5]], "leader_set": [1, 2, 3]},
            "k": 12.0, "g": -2.0})
        missing = str(tmp_path / "missing.json")
        for config, code in ((preset_config, 0), (infeasible, 1), (missing, 2)):
            report = Path(config).with_suffix(".certify.json")
            proc = fresh_python(["-m", "heatsync", "certify", config], text=True)
            assert proc.returncode == code, proc.stderr
            if code == 2:
                assert proc.stdout == "" and not report.exists()
                assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
            else:
                assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
                    "certificate size", "max eigenvalue", "feasible", "margin"]
                assert proc.stderr == ""
                assert json.loads(report.read_text())["feasible"] is (code == 0)
            # a library caller's main returns the code and the process goes on
            assert main(["certify", config]) == code


class TestLoading:
    """Each command loads only the layers it runs; the package loads them on demand."""

    LAYERS = ("heatsync.gains", "heatsync.pdesim")
    # the certificates stay unloaded unless a command judges one
    NO_CERTIFICATES = ("heatsync.certify", "heatsync.gains")

    # the command line is read without argparse, whose messages look up translations
    PARSING = {"argparse", "gettext", "locale"}

    def loaded(self, args, cwd):
        """The heatsync modules a fresh ``python`` process imports to run ``args``.

        The process must import none of ``PARSING``.
        """
        proc = fresh_python(["-X", "importtime", *args], text=True, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        names = {line.split("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")}
        assert names.isdisjoint(self.PARSING), sorted(names & self.PARSING)
        return {name for name in names if name.startswith("heatsync")}

    @pytest.mark.parametrize(
        "args, unloaded",
        [
            (["certify", "scenario.json"], LAYERS),
            (["sweep", "scenario.json", "--k", "1:9:3", "--g", "-4:0:2", "--out", "s.csv"], LAYERS),
            (["design", "scenario.json"], ("heatsync.pdesim",)),
            (["simulate", "scenario.json", "--out", "sim"], NO_CERTIFICATES),
            (["spectrum", "scenario.json"], NO_CERTIFICATES),
        ],
    )
    def test_command_loads_only_its_layers(self, preset_config, args, unloaded):
        loaded = self.loaded(["-m", "heatsync", *args], Path(preset_config).parent)
        if "heatsync.certify" not in unloaded:
            assert "heatsync.certify" in loaded
        assert loaded.isdisjoint(unloaded), sorted(loaded)

    def test_cli_import_loads_no_layer(self, tmp_path):
        loaded = self.loaded(["-c", "import heatsync.cli"], tmp_path)
        assert loaded == {"heatsync", "heatsync.cli", "heatsync.errors", "heatsync.graph",
                          "heatsync.scenarios"}

    def test_help_lists_every_command(self):
        proc = fresh_python(["-m", "heatsync", "--help"], text=True)
        assert proc.returncode == 0
        for command in ("certify", "design", "simulate", "spectrum", "sweep"):
            assert command in proc.stdout

    def test_star_import_yields_every_public_name(self):
        code = (
            "from heatsync import *; import heatsync; "
            "print(all(name in globals() for name in heatsync.__all__), len(heatsync.__all__))"
        )
        proc = fresh_python(["-c", code], text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", str(len(heatsync.__all__))]
