"""Command-line entry point: certify / design / simulate / spectrum / sweep.

Scenario configs are JSON with explicit keys; agent indices in files are
1-based.  Exit codes: 0 success (certificate feasible where applicable),
1 domain-level negative outcome (infeasible, uncontrollable, divergence),
2 usage or config parse error.  All emitted files are deterministic:
floats are written as shortest round-trip decimals and JSON keys sorted,
so re-running a command on the same config reproduces outputs byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    FEASIBILITY_MARGIN,
    NetworkConfig,
    certificate_matrix,
    evaluate_certificate,
)
from .errors import (
    DimensionMismatch,
    Divergence,
    DuplicateEdge,
    HeatSyncError,
    IndexOutOfRange,
    SelfLoop,
)
from .gains import design as design_gains
from .graph import FollowerGraph, build_graph
from .pdesim import (
    SimConfig,
    _resolve_initial_conditions,
    analytic_open_loop_spectrum,
    fit_decay_rate,
    simulate,
    spectral_abscissa,
    sync_errors,
)
from .scenarios import (
    DEMO_ALPHA,
    DEMO_BETA,
    DEMO_T_END,
    PRESET_NAMES,
    demo_graph,
    preset_gains,
)

DEFAULT_SNAPSHOTS = (0.1, 0.5, 1.0, 2.5)


class ConfigError(Exception):
    """Config file unreadable or malformed (exit code 2)."""


@dataclass
class Scenario:
    net: NetworkConfig
    sim: SimConfig
    preset: str | None
    raw: dict


def _fmt(value: float) -> str:
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row; string cells are written as they are, numbers via _fmt."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n")


def _graph_from_dict(d: dict) -> FollowerGraph:
    try:
        return build_graph(d["n"], d.get("edges", []), d.get("leader_set", []))
    except (KeyError, TypeError, ValueError, DuplicateEdge, IndexOutOfRange, SelfLoop) as exc:
        raise ConfigError(f"bad graph block: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read and resolve a scenario config file.

    A ``scenario_preset`` pins the demo network, physics, gains, forcing,
    initial profiles and horizon; the ``sim`` block still controls the
    numerics (nx, dt, scheme, output stride).  Without a preset the file
    must carry the graph and physics explicitly.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    sim_block = raw.get("sim", {})
    if not isinstance(sim_block, dict):
        raise ConfigError("'sim' must be a JSON object")
    unknown = sorted(set(sim_block) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ConfigError(f"unknown sim key(s): {', '.join(map(repr, unknown))}")
    sim_fields = {"source": "off", **sim_block}
    preset = raw.get("scenario_preset")
    try:
        if preset is not None:
            if preset not in PRESET_NAMES:
                raise ConfigError(
                    f"unknown scenario_preset {preset!r}; expected one of {PRESET_NAMES}"
                )
            k, g = preset_gains(preset)
            graph = demo_graph()
            alpha, beta = DEMO_ALPHA, DEMO_BETA
            sim_fields.update(source="paper", t_end=DEMO_T_END, initial_conditions="sectionV")
        else:
            if "graph" not in raw:
                raise ConfigError("config needs a 'graph' block or a scenario_preset")
            graph = _graph_from_dict(raw["graph"])
            alpha, beta = raw.get("alpha", 0.0), raw.get("beta", 1.0)
            k, g = raw.get("k", 0.0), raw.get("g", 0.0)
            initial = sim_fields.get("initial_conditions")
            if isinstance(initial, dict):
                sim_fields["initial_conditions"] = (initial["followers"], initial["leader"])
            elif initial is not None and not isinstance(initial, str):
                raise ConfigError("sim.initial_conditions must be a preset token or an object")
        net = NetworkConfig(graph=graph, alpha=alpha, beta=beta, k=k, g=g)
        sim = SimConfig(**sim_fields)
        # profile shapes are checked here, before any command runs or writes
        _resolve_initial_conditions(net, sim)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return Scenario(net=net, sim=sim, preset=preset, raw=raw)


def _resolved_params(scn: Scenario, command: str) -> dict:
    net, sim = scn.net, scn.sim
    gains_k = net.k_scalar if net.k_scalar is not None else list(net.k_vector)
    gains_g = net.g_scalar if net.g_scalar is not None else list(net.g_vector)
    return {
        "command": command,
        "version": __version__,
        "preset": scn.preset or "",
        "n": net.n,
        "edges": ";".join(f"{i}-{j}" for (i, j) in net.graph.edges),
        "leader_set": ";".join(str(v) for v in sorted(net.graph.leader_set)),
        "alpha": net.alpha,
        "beta": net.beta,
        "k": gains_k if isinstance(gains_k, float) else json.dumps(gains_k),
        "g": gains_g if isinstance(gains_g, float) else json.dumps(gains_g),
        "nx": sim.nx,
        "dt": sim.dt,
        "t_end": sim.t_end,
        "source": sim.source,
        "scheme": sim.scheme,
        "output_stride": sim.output_stride,
        "feasibility_margin": FEASIBILITY_MARGIN,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _output_dir(path: Path) -> Path:
    """``path``, refused before any work when a file stands where a directory must go."""
    existing = next(part for part in (path, *path.parents) if part.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write under {path}: {existing} is not a directory")
    return path


def _report_path(config_path, kind: str) -> Path:
    p = Path(config_path)
    return p.with_name(p.stem + f".{kind}.json")


def cmd_certify(args) -> int:
    scn = load_scenario(args.config)
    cert = evaluate_certificate(certificate_matrix(scn.net))
    print(f"certificate size: {2 * scn.net.n} x {2 * scn.net.n}")
    print(f"max eigenvalue:   {_fmt(cert.max_eig)}")
    print(f"feasible:         {'true' if cert.feasible else 'false'}")
    print(f"margin:           {_fmt(cert.margin)}")
    report = _resolved_params(scn, "certify")
    report.update(
        {
            "max_eig": cert.max_eig,
            "feasible": cert.feasible,
            "margin": cert.margin,
        }
    )
    _write_json(_report_path(args.config, "certify"), report)
    return 0 if cert.feasible else 1


def cmd_design(args) -> int:
    scn = load_scenario(args.config)
    if scn.preset is None and ("k" in scn.raw or "g" in scn.raw):
        print("note: k/g in config are ignored; design synthesizes them", file=sys.stderr)
    gd = design_gains(scn.net.graph, scn.net.alpha, scn.net.beta)
    for plan in gd.per_component:
        print(
            f"component {plan.component}: n={plan.n_nodes}, s={plan.leader_count}, "
            f"k window ({_fmt(plan.window.lo)}, {_fmt(plan.window.hi)})"
        )
    print(f"chosen k:         {_fmt(gd.k)}")
    print(f"coupling gain g:  {_fmt(gd.g)}")
    print(f"max eigenvalue:   {_fmt(gd.certificate.max_eig)}")
    print(f"margin:           {_fmt(gd.certificate.margin)}")
    # The report doubles as a scenario config, so it can be fed straight
    # back into `certify`.
    report = {
        "graph": {
            "n": scn.net.n,
            "edges": [list(e) for e in scn.net.graph.edges],
            "leader_set": sorted(scn.net.graph.leader_set),
        },
        "alpha": scn.net.alpha,
        "beta": scn.net.beta,
        "k": gd.k,
        "g": gd.g,
        "command": "design",
        "version": __version__,
        "k_window_lo": gd.k_window.lo,
        "k_window_hi": gd.k_window.hi,
        "max_eig": gd.certificate.max_eig,
        "margin": gd.certificate.margin,
        "components": [
            {
                "nodes": list(p.component),
                "n": p.n_nodes,
                "s": p.leader_count,
                "window_lo": p.window.lo,
                "window_hi": p.window.hi,
            }
            for p in gd.per_component
        ],
    }
    _write_json(_report_path(args.config, "design"), report)
    return 0


def _in_horizon(t: float, t_end: float) -> bool:
    return 0.0 <= t <= t_end + 1e-12


def _parse_snapshots(text: str, t_end: float) -> list[float]:
    try:
        times = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad snapshot list {text!r}: {exc}") from exc
    if not np.isfinite(times).all():
        raise ConfigError(f"snapshot times must be finite, got {text!r}")
    if not all(_in_horizon(t, t_end) for t in times):
        raise ConfigError(f"snapshot times must lie in [0, {t_end:g}], got {text!r}")
    return times


def cmd_simulate(args) -> int:
    scn = load_scenario(args.config)
    snapshots = (
        _parse_snapshots(args.snapshots, scn.sim.t_end)
        if args.snapshots
        else [t for t in DEFAULT_SNAPSHOTS if _in_horizon(t, scn.sim.t_end)]
    )
    out_dir = _output_dir(Path(args.out))
    traj = simulate(scn.net, scn.sim)
    series = sync_errors(traj)
    n = scn.net.n
    # made only now, so a run that diverges leaves no empty directory behind
    out_dir.mkdir(parents=True, exist_ok=True)

    err_path = out_dir / "errors.csv"
    _write_csv(
        err_path,
        ["t"] + [f"err_agent_{i + 1}" for i in range(n)] + ["err_total", "pairwise_max"],
        zip(series.times, *series.per_agent_l2, series.total_l2, series.pairwise_max),
    )
    bdy_path = out_dir / "boundary.csv"
    _write_csv(
        bdy_path,
        ["t"] + [f"z_{i + 1}" for i in range(n)] + ["z_leader"],
        zip(traj.times, *traj.z[:, :, -1], traj.z_leader[:, -1]),
    )
    snap_idx = [int(np.argmin(np.abs(series.times - t))) for t in snapshots]
    avg_path = out_dir / "avg_error.csv"
    _write_csv(
        avg_path,
        ["x"] + [f"ebar_t_{t:g}" for t in snapshots],
        zip(series.grid, *series.avg_error_field[snap_idx]),
    )

    manifest = _resolved_params(scn, "simulate")
    manifest["snapshots"] = ";".join(f"{t:g}" for t in snapshots)
    manifest["snapshot_times_resolved"] = ";".join(
        _fmt(series.times[i]) for i in snap_idx
    )
    manifest["outputs"] = "errors.csv;boundary.csv;avg_error.csv"
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {err_path}, {bdy_path}, {avg_path}")
    return 0


def cmd_spectrum(args) -> int:
    scn = load_scenario(args.config)
    absc = spectral_abscissa(scn.net, scn.sim)
    modes = analytic_open_loop_spectrum(scn.net.alpha, scn.net.beta, n_modes=6)
    print("analytic open-loop modes:", ", ".join(_fmt(m) for m in modes))
    print(f"discrete closed-loop spectral abscissa: {_fmt(absc)}")
    return 0


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --{name} range {text!r}: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"--{name} bounds must be finite, got {text!r}")
    if count < 2:
        raise ConfigError(f"--{name} needs at least 2 points, got {count}")
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    scn = load_scenario(args.config)
    k_values = _parse_range(args.k, "k")
    g_values = _parse_range(args.g, "g")
    out_path = Path(args.out)
    if out_path.is_dir():
        raise ConfigError(f"cannot write {out_path}: it is a directory")
    _output_dir(out_path.parent).mkdir(parents=True, exist_ok=True)
    run_sim = bool(args.simulate)
    cols = ["k", "g", "max_eig_omega", "feasible"] + (["decay_rate"] if run_sim else [])
    successes = 0
    rows = []
    for k in k_values:
        for g in g_values:
            row = [k, g]
            try:
                cfg = scn.net.with_gains(k=float(k), g=float(g))
                cert = evaluate_certificate(certificate_matrix(cfg))
                row += [cert.max_eig, "true" if cert.feasible else "false"]
                if run_sim:
                    traj = simulate(cfg, scn.sim)
                    series = sync_errors(traj)
                    t_end = scn.sim.t_end
                    window = (min(0.5, t_end / 5.0), min(2.0, t_end))
                    row.append(fit_decay_rate(series, window))
                successes += 1
            except (HeatSyncError, ValueError):
                # failed cell: keep the gains, blank the metric columns
                row = row[:2] + [""] * (len(cols) - 2)
            rows.append(row)
    _write_csv(out_path, cols, rows)
    print(f"wrote {out_path} ({len(k_values) * len(g_values)} cells)")
    return 0 if successes > 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatsync",
        description=(
            "Certify, synthesize and simulate leader synchronization of "
            "coupled one-dimensional heat equations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="check the synchronization certificate")
    p.add_argument("config")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("design", help="synthesize boundary and coupling gains")
    p.add_argument("config")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="run the closed loop and write CSVs")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--snapshots", help="comma-separated times for avg_error.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="analytic modes and discrete abscissa")
    p.add_argument("config")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="grid sweep over gains")
    p.add_argument("config")
    p.add_argument("--k", required=True, help="boundary gain range lo:hi:n")
    p.add_argument("--g", required=True, help="coupling gain range lo:hi:n")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--simulate", action="store_true", help="also fit decay rates")
    p.set_defaults(func=cmd_sweep)
    return parser


def _merge_range_flags(argv: list[str]) -> list[str]:
    # argparse treats "-4:0:3" as a flag; fold range values into --k=... form.
    merged, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in ("--k", "--g") else None
        merged.append(tok if value is None else f"{tok}={value}")
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_range_flags(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        # the package raises ValueError on parameters outside its domain,
        # such as ones whose certificate or operator overflows
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Divergence as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 1
    except HeatSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
