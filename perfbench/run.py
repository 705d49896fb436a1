"""heatsync benchmark runner.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the benchmark runs the workload's CLI
commands in fresh processes, one after another (a closed loop with one
client), for ``--seconds`` seconds, checks every output against an
independent reference and reports the end-to-end metrics as medians over
the invocations, scaled by a calibration job timed in the same run (see
CALIBRATION_ARGS).  With ``--trace 1`` it replays the same commands in
process through ``heatsync.cli.main``, once plain and once with spans
around each layer's public functions, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are the human-readable report.  Spans and the full result go to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

IMPORT_ARGS = ["-c", "import heatsync.cli"]

# The host's speed drifts by up to 1.7x over minutes (other tenants), far
# more than the effects the benchmark must resolve.  Each run therefore also
# times this fixed job, which uses no heatsync code (interpreter start, the
# numpy and scipy.linalg imports, a Python loop over small arrays and a dense
# LU with solves), and reports every end-to-end time scaled by
# CALIBRATION_NOMINAL_S / (median time of the job in the same run), i.e. at
# the host speed at which the job takes CALIBRATION_NOMINAL_S.  The raw
# medians are in the report and in the result file.
CALIBRATION_ARGS = ["-c", """
import numpy as np
import scipy.linalg as la
rng = np.random.default_rng(0)
w = rng.standard_normal((48, 48))
for k in range(17000):
    p, q = k % 47, 47 - k % 47
    rp, rq = w[p, :].copy(), w[q, :].copy()
    w[p, :] = 0.8 * rp - 0.6 * rq
    w[q, :] = 0.6 * rp + 0.8 * rq
a = rng.standard_normal((1200, 1200)) + 1200 * np.eye(1200)
lu = la.lu_factor(a)
b = rng.standard_normal(1200)
for _ in range(60):
    b = la.lu_solve(lu, a @ b)
"""]
CALIBRATION_NOMINAL_S = 0.6

IMPORT_PROBE_REPEATS = 3
CHILD_LIMIT_S = 60.0
SNAPSHOTS = (0.1, 0.5, 1.0, 2.5)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cores": os.cpu_count(),
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


@dataclasses.dataclass
class Proc:
    wall: float
    rss_mb: float
    code: int
    stdout: str


def run_fresh(args: list[str], cwd: Path) -> Proc:
    """One fresh interpreter; wall time to exit and peak RSS via wait4."""
    with (cwd / "stdout.txt").open("w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read())


def cli_args(cmd: str, wl: workloads.Workload, base: str = "") -> list[str]:
    """Arguments of one CLI command; file names are relative to ``base``."""
    if cmd == "recertify":
        return ["certify", os.path.join(base, "scenario.design.json")]
    config = os.path.join(base, "scenario.json")
    if cmd == "simulate":
        return ["simulate", config, "--out", os.path.join(base, "sim")]
    if cmd == "sweep":
        k, g = wl.sweep_k, wl.sweep_g
        return ["sweep", config, f"--k={k[0]!r}:{k[1]!r}:{k[2]}",
                f"--g={g[0]!r}:{g[1]!r}:{g[2]}", "--out", os.path.join(base, "sweep.csv")]
    return [cmd, config]


def clear_outputs(work: Path) -> None:
    for p in work.iterdir():
        if p.name != "scenario.json":
            shutil.rmtree(p) if p.is_dir() else p.unlink()


class Session:
    """The references for one workload and the output checks that use them."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl, self.work = wl, work
        cfg = wl.config
        (work / "scenario.json").write_text(json.dumps(cfg))
        self.snapshots = [t for t in SNAPSHOTS if t <= cfg["sim"]["t_end"] + 1e-12]
        self.cert = oracle.verdict(cfg, cfg["k"], cfg["g"])
        self.sweep = oracle.sweep_reference(cfg, wl.sweep_k, wl.sweep_g)
        self.sim = oracle.simulate_reference(cfg)
        self.spectrum = oracle.spectral_abscissa(cfg) if "spectrum" in wl.commands else None
        self.design_report: dict = {}
        self.output_bytes = 0
        self.errors: list[str] = []

    def check(self, cmd: str, code: int, stdout: str) -> bool:
        """True when the invocation exited as expected and its outputs hold."""
        cfg, work = self.wl.config, self.work
        try:
            if cmd == "certify":
                oracle.check_certify(work / "scenario.certify.json", code, self.cert)
                return True
            if code != 0:
                raise oracle.CheckFailed(f"{cmd} exited {code}")
            if cmd == "design":
                self.design_report = oracle.check_design(cfg, work / "scenario.design.json")
            elif cmd == "simulate":
                self.output_bytes = oracle.check_simulate(cfg, work / "sim", self.sim, self.snapshots)
            elif cmd == "spectrum":
                oracle.check_spectrum(stdout, self.spectrum)
            elif cmd == "sweep":
                oracle.check_sweep(work / "sweep.csv", self.sweep)
            return True
        except (oracle.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"{cmd}: {exc}")
            return False


# ------------------------------------------------------------- end to end


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


METRICS = {"setup": "setup_s", "certify": "certify_s", "design": "design_s", "simulate": "simulate_s",
           "spectrum": "spectrum_s", "sweep": "sweep_cells_per_s"}


def measure_end_to_end(wl: workloads.Workload, seconds: float, work: Path) -> dict:
    session = Session(wl, work)
    warm = run_fresh(IMPORT_ARGS, work)  # compiles bytecode on a fresh checkout
    if warm.code != 0:
        raise SystemExit("cannot import heatsync.cli from src/")

    # Closed loop with one client: each invocation starts when the previous
    # one has exited.  "setup" is a bare import of heatsync.cli.  The first
    # pass runs every command once; spectrum_s is reported but not gated, so
    # spectrum runs only then, as does feeding the design report back to
    # certify.  Then rounds over the timed commands fill the run, so every
    # metric gets about as many samples as the others, spread over the run.
    first = ["calibrate", "setup"] + [
        c for cmd in wl.commands for c in ((cmd, "recertify") if cmd == "design" else (cmd,))]
    timed = ["calibrate", "setup"] + [c for c in wl.commands if c != "spectrum"]
    samples: dict[str, list[float]] = {}
    peak_rss = warm.rss_mb
    attempted = failed = 0
    timeline = []
    start = time.perf_counter()
    for op in itertools.chain(first, itertools.cycle(timed)):
        if op in samples and time.perf_counter() - start + statistics.median(samples[op]) > seconds:
            break
        if op not in ("calibrate", "setup", "recertify"):
            clear_outputs(work)
        args = {"calibrate": CALIBRATION_ARGS, "setup": IMPORT_ARGS}.get(op) or ["-m", "heatsync", *cli_args(op, wl)]
        began = time.perf_counter() - start
        proc = run_fresh(args, work)
        timeline.append((op, began, proc.wall))
        attempted += 1
        failed += not session.check(op, proc.code, proc.stdout)
        if op != "calibrate":
            peak_rss = max(peak_rss, proc.rss_mb)
        samples.setdefault(op, []).append(proc.wall)

    factor = CALIBRATION_NOMINAL_S / statistics.median(samples["calibrate"])
    stats = {"calibration_s": summary(samples["calibrate"])}
    for op, name in METRICS.items():
        if op in samples:
            rate = op == "sweep"
            stats[name] = summary([wl.sweep_cells / w for w in samples[op]] if rate else samples[op])
            stats[name]["value"] = stats[name]["median"] / factor if rate else stats[name]["median"] * factor
    stats["peak_rss_mb"] = summary([peak_rss])
    stats["peak_rss_mb"]["value"] = peak_rss
    return {"stats": stats, "attempted": attempted, "failed": failed, "errors": session.errors,
            "timeline": timeline}


# ----------------------------------------------------------------- traced


def import_probe(work: Path) -> dict:
    """Fresh interpreters timing ``import heatsync``; -X importtime for scipy.linalg."""
    code = ("import sys, time; n0 = len(sys.modules); t0 = time.perf_counter(); import heatsync; "
            "print(time.perf_counter() - t0, len(sys.modules) - n0)")
    walls, mods, scipy_s = [], [], []
    for _ in range(IMPORT_PROBE_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=work, env=child_env(),
                             capture_output=True, text=True, check=True, timeout=60).stdout.split()
        walls.append(float(out[0]))
        mods.append(int(out[1]))
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import heatsync"], cwd=work,
                             env=child_env(), capture_output=True, text=True, check=True, timeout=60).stderr
        cumulative = [int(ln.split("|")[1]) for ln in err.splitlines()
                      if ln.startswith("import time:") and ln.split("|")[2].strip() == "scipy.linalg"]
        scipy_s.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return {"heatsync.import_s": statistics.median(walls),
            "heatsync.scipy_linalg_import_s": statistics.median(scipy_s),
            "heatsync.modules_loaded": max(mods)}


def operator_footprint(op) -> tuple[int, int]:
    """Bytes and nonzeros of every matrix and array the operator object holds."""
    nbytes = nnz = 0
    for value in vars(op).values():
        if isinstance(value, np.ndarray):
            nbytes += value.nbytes
            nnz += int(np.count_nonzero(value)) if value.ndim == 2 else 0
        elif hasattr(value, "nnz"):
            nbytes += sum(getattr(value, a).nbytes for a in ("data", "indices", "indptr") if hasattr(value, a))
            nnz += int(value.nnz)
    return nbytes, nnz


def replay(cli, wl: workloads.Workload, session: Session, tracer: Tracer | None) -> tuple[float, int, int]:
    """The workload's commands once, in process; returns (wall, attempted, failed)."""
    work = session.work
    attempted = failed = 0
    start = time.perf_counter()
    steps = [c for cmd in wl.commands for c in ((cmd, "recertify") if cmd == "design" else (cmd,))]
    for cmd in steps:
        if cmd != "recertify":
            clear_outputs(work)
        span = tracer.begin(f"bench.{cmd}") if tracer else None
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cli_args(cmd, wl, str(work)))
        if span:
            tracer.end(span)
        attempted += 1
        failed += not session.check(cmd, code, out.getvalue())
    return time.perf_counter() - start, attempted, failed


def measure_traced(wl: workloads.Workload, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import heatsync.cli as cli
    from heatsync import gains, pdesim

    session = Session(wl, work)
    metrics: dict[str, list[float]] = {}
    plain_walls, traced_walls = [], []
    attempted = failed = 0
    spans, self_times = [], {}
    scn = cli.load_scenario(work / "scenario.json")
    one_step = dataclasses.replace(scn.sim, t_end=scn.sim.dt)
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] < seconds:
        wall, a, f = replay(cli, wl, session, None)
        plain_walls.append(wall)
        attempted, failed = attempted + a, failed + f

        tr = Tracer()
        tr.install()
        try:
            wall, a, f = replay(cli, wl, session, tr)
        finally:
            tr.uninstall()
        traced_walls.append(wall)
        attempted, failed = attempted + a, failed + f

        probe = Tracer()
        probe.install()
        try:
            k_design = session.design_report.get("k", scn.net.k_scalar)
            gains.search_g(scn.net.with_gains(k=k_design, g=0.0))
            pdesim.simulate(scn.net, one_step)
        finally:
            probe.uninstall()

        fixed = probe.total("pdesim.simulate")
        sample = {
            "graph.laplacian_s": tr.total("graph.laplacian"),
            "graph.connected_components_s": tr.total("graph.connected_components"),
            "matrixkit.sym_eigenvalues_s": tr.total("matrixkit.sym_eigenvalues"),
            "matrixkit.sym_eigenvalues_rotations": tr.count("matrixkit.sym_eigenvalues", "rotations"),
            "matrixkit.is_negative_definite_s": tr.total("matrixkit.is_negative_definite"),
            "certify.certificate_matrix_s": tr.total("certify.certificate_matrix"),
            "certify.evaluate_certificate_s": tr.total("certify.evaluate_certificate"),
            "certify.cert_dim": max((s.counts.get("cert_dim", 0) for s in tr.spans), default=0),
            "gains.design_s": tr.total("gains.design"),
            "gains.search_g_s": probe.total("gains.search_g"),
            "gains.design_g": session.design_report.get("g", 0.0),
            "gains.design_margin": session.design_report.get("margin", 0.0),
            "pdesim.assemble_operator_s": tr.total("pdesim.assemble_operator"),
            "pdesim.simulate_fixed_s": fixed,
            "pdesim.step_ms": 1e3 * (tr.total("pdesim.simulate") - fixed) / max(1, wl.n_steps - 1),
            "pdesim.n_steps": wl.n_steps,
            "pdesim.spectral_abscissa_s": tr.total("pdesim.spectral_abscissa"),
            "pdesim.sync_errors_s": tr.total("pdesim.sync_errors"),
            "cli.load_scenario_s": tr.total("cli.load_scenario"),
            "cli.simulate_overhead_s": tr.inside("bench.simulate", "cli.main")
            - tr.inside("bench.simulate", "pdesim.simulate")
            - tr.inside("bench.simulate", "pdesim.sync_errors"),
            "cli.output_bytes": session.output_bytes,
        }
        for key, value in sample.items():
            metrics.setdefault(key, []).append(value)
        spans = tr.dump() + [dict(s, id=s["id"] + len(tr.spans), probe=True,
                                  parent=None if s["parent"] is None else s["parent"] + len(tr.spans))
                             for s in probe.dump()]
        self_times = tr.self_times()

    op = pdesim.assemble_operator(scn.net, scn.sim)
    op_bytes, op_nnz = operator_footprint(op)
    del op
    tracemalloc.start()
    pdesim.simulate(scn.net, scn.sim)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    values = {k: statistics.median(v) for k, v in metrics.items()}
    values.update(import_probe(work))
    values.update({
        "pdesim.operator_bytes": op_bytes,
        "pdesim.operator_nnz": op_nnz,
        "pdesim.state_dim": (wl.n + 1) * wl.nx,
        "pdesim.simulate_peak_mb": peak / 2**20,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
        "trace.replays": len(traced_walls),
    })
    return {"values": values, "attempted": attempted, "failed": failed, "errors": session.errors,
            "spans": spans, "self_times": self_times,
            "walls": {"plain": plain_walls, "traced": traced_walls}}


# ------------------------------------------------------------------ main


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the result object plus the report."""
    wl = workloads.build(workload, seed, scale)
    spec = load_spec()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            raw = measure_traced(wl, seconds, work)
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": float(raw["values"][m["name"]]), "unit": m["unit"]} for m in wanted}
        else:
            raw = measure_end_to_end(wl, seconds, work)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: {"value": raw["stats"][m["name"]]["value"], "unit": m["unit"]}
                       for m in wanted}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return {"result": result, "raw": raw, "workload": wl, "machine": machine()}


def report(out: dict, seed: int, trace: bool) -> list[str]:
    wl, raw, res = out["workload"], out["raw"], out["result"]
    lines = [f"machine: {json.dumps(out['machine'])}",
             f"workload {wl.name} (seed {seed}, N={wl.n}, nx={wl.nx}, steps={wl.n_steps}): {wl.why}",
             f"operations: {res['attempted']} attempted, {res['failed']} failed, "
             f"failure_rate {res['failed'] / res['attempted']:.4g} (failed/attempted)"]
    lines += [f"  check failed: {e}" for e in raw["errors"]]
    if trace:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for name, value in raw["values"].items():
            lines.append(f"  {name:<40} {value:>14.6g} {units.get(name, '(report only)')}")
        lines.append("  self time per span, last traced replay:")
        for name, t in sorted(raw["self_times"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<38} {t:>12.6f} s")
    else:
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
        units.update(spectrum_s="s (report only)", calibration_s="s (calibration job)")
        lines.append("  metric               reported  [raw: median q1 q3 min max, samples]")
        for name, st in raw["stats"].items():
            reported = f"{st['value']:.6g}" if "value" in st else "-"
            lines.append(f"  {name:<20} {reported:>9} {units[name]:<8} [{st['median']:.6g} {st['q1']:.6g} "
                         f"{st['q3']:.6g} {st['min']:.6g} {st['max']:.6g}, n={st['n']}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heatsync" / "__init__.py").is_file():
        print(f"no heatsync sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for name in workloads.WHY if args.workload == "all" else [args.workload]:
        out = run(name, args.seed, args.seconds, bool(args.trace))
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        record = {"machine": out["machine"], "result": out["result"], "seed": args.seed,
                  **{k: v for k, v in out["raw"].items() if k != "spans"}}
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            (OUT / f"{stem}.spans.json").write_text(json.dumps(out["raw"]["spans"]))
        print("\n".join(report(out, args.seed, bool(args.trace))))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
