"""Reduced-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at a quarter of its size for one second, untraced and
traced, and fails (exit 1) unless each run is correct and emits exactly the
metrics BENCHMARK.json names.  It also holds the benchmark's references to
the program they stand in for: the sparse closed loop against the program's
dense ``assemble_operator``, and shift-invert ``eigs`` against a dense
eigen-solve.  Last, it runs ``run.py`` in a directory without ``src/`` and
expects a non-zero exit and no result line.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import oracle
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spec(problems: list[str]) -> dict:
    spec = run.load_spec()
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    if [w["name"] for w in spec["workloads"]] != list(workloads.WHY):
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for w in spec["workloads"]:
        if w["why"] != workloads.WHY[w["name"]]:
            problems.append(f"why of {w['name']} differs from workloads.WHY")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        problems.append("no setup_s")
    return spec


def check_references(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    from heatsync.cli import load_scenario
    from heatsync.pdesim import assemble_operator

    for name in workloads.WHY:
        wl = workloads.build(name, 7, scale=0.25)
        work = run.WORK / "smoke-ref"
        work.mkdir(parents=True, exist_ok=True)
        (work / "scenario.json").write_text(json.dumps(wl.config))
        scn = load_scenario(work / "scenario.json")
        op = assemble_operator(scn.net, scn.sim)
        full, err = getattr(op, "full", None), getattr(op, "error_subsystem", None)
        if isinstance(full, np.ndarray) and not np.array_equal(oracle.closed_loop(wl.config).toarray(), full):
            problems.append(f"{name}: sparse closed loop differs from assemble_operator().full")
        if isinstance(err, np.ndarray):
            if not np.array_equal(oracle.closed_loop(wl.config, with_leader=False).toarray(), err):
                problems.append(f"{name}: sparse error subsystem differs from assemble_operator()")
            dense = float(np.linalg.eigvals(err).real.max())
            if abs(dense - oracle.spectral_abscissa(wl.config)) > 1e-8:
                problems.append(f"{name}: eigs abscissa differs from the dense eigenvalues")
        shutil.rmtree(work)


def check_runs(spec: dict, problems: list[str]) -> None:
    for name in workloads.WHY:
        for trace in (False, True):
            out = run.run(name, seed=3, seconds=1.0, trace=trace, scale=0.25)
            res = out["result"]
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            print(f"{label}: {res['attempted']} operations, {res['failed']} failed", flush=True)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if got != wanted:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(wanted))} missing or extra")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: {out['raw']['errors']}")
            if not trace:
                zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
                problems += [f"{label}: {k} is not positive" for k in zero]


def check_without_sources(problems: list[str]) -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=120)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py ran without src/")


def main() -> int:
    problems: list[str] = []
    spec = check_spec(problems)
    check_references(problems)
    check_runs(spec, problems)
    check_without_sources(problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
