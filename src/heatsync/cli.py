"""Command-line entry point: certify / design / simulate / spectrum / sweep.

This module holds the command line and the formats of its reports and
CSVs; configs are read, and a design report's network block written, by
``scenarios``.  ``main`` reads ``COMMAND CONFIG`` and the command's options
off one table, ``_COMMANDS``: an option is ``--name value`` or
``--name=value``, spelled in full, and a value may begin with ``-``.
Exit codes: 0 success (certificate feasible where applicable), 1 a
negative answer about a valid scenario (infeasible, uncontrollable,
divergence: a HeatSyncError, printed as ``error: ...``), 2 a usage error
(a ``usage:`` line and one ``heatsync: error: ...`` line) or a config error
(a ValueError, printed as ``config error: ...``), which includes a run or a
sweep grid the machine cannot hold, refused before anything of it is built.
``entrypoint``, the route of the console script and of ``python -m
heatsync``, flushes stdout and stderr once ``main`` returns and ends the
process with ``os._exit``, so the interpreter's teardown, atexit hooks
included, does not run; ``main`` itself returns the code to its caller.
A command imports only the layers it runs: ``certify`` and ``sweep`` the
certificates (``sweep`` solves its whole grid with
``certify.certificate_sweep``), ``design`` the gain synthesis, which loads
them too, and ``simulate``, ``spectrum`` and ``sweep --simulate`` the
simulator.  Reading a config loads neither.
All emitted files are deterministic: floats are written as shortest
round-trip decimals and JSON keys sorted, so re-running a command on the
same config reproduces outputs byte for byte.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HeatSyncError
from .scenarios import (FEASIBILITY_MARGIN, Scenario, load_scenario, network_block,
                        refuse_beyond_memory)

DEFAULT_SNAPSHOTS = (0.1, 0.5, 1.0, 2.5)
# a sweep holds its cells as arrays, k, g, max_eig and, with --simulate, the decay rate and
# the indices of the cells to run (8 bytes each) and the verdict (1), and formats each row
# from them as it is written.  The certificate stacks add about 1.4 MB whatever the grid:
# on sectionV the tracemalloc peak is 39.4 bytes a cell at 9e4 cells and 27.9 at 3.6e5
_CELL_BYTES = 48


def _fmt(value: float) -> str:
    """Shortest round-trip decimal, the ``str`` of a Python float."""
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row of strings and floats, each cell as ``str`` writes it."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _resolved_params(scn: Scenario, command: str) -> dict:
    net, sim = scn.net, scn.sim
    return {
        "command": command,
        "version": __version__,
        "preset": scn.preset or "",
        "n": net.n,
        "edges": ";".join(f"{i}-{j}" for (i, j) in net.graph.edges),
        "leader_set": ";".join(str(v) for v in sorted(net.graph.leader_set)),
        "alpha": net.alpha,
        "beta": net.beta,
        "k": net.k_scalar if net.k_scalar is not None else json.dumps(list(net.k_vector)),
        "g": net.g_scalar if net.g_scalar is not None else json.dumps(list(net.g_vector)),
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
        raise ValueError(f"cannot write under {path}: {existing} is not a directory")
    return path


def cmd_certify(args) -> int:
    from .certify import certificate_matrix, evaluate_certificate

    scn = load_scenario(args["config"])
    cert = evaluate_certificate(certificate_matrix(scn.net))
    print(f"certificate size: {2 * scn.net.n} x {2 * scn.net.n}")
    print(f"max eigenvalue:   {_fmt(cert.max_eig)}")
    print(f"feasible:         {'true' if cert.feasible else 'false'}")
    print(f"margin:           {_fmt(cert.margin)}")
    report = _resolved_params(scn, "certify")
    report.update(max_eig=cert.max_eig, feasible=cert.feasible, margin=cert.margin)
    _write_json(Path(args["config"]).with_suffix(".certify.json"), report)
    return 0 if cert.feasible else 1


def cmd_design(args) -> int:
    from .gains import design as design_gains

    scn = load_scenario(args["config"])
    if "k" in scn.raw or "g" in scn.raw:
        print("note: k/g in config are ignored; design synthesizes them", file=sys.stderr)
    gd = design_gains(scn.net.graph, scn.net.alpha, scn.net.beta)
    for plan in gd.per_component:
        print(f"component {plan.component}: n={len(plan.component)}, s={plan.leader_count}, "
              f"k window ({_fmt(plan.window.lo)}, {_fmt(plan.window.hi)})")
    print(f"chosen k:         {_fmt(gd.k)}")
    print(f"coupling gain g:  {_fmt(gd.g)}")
    print(f"max eigenvalue:   {_fmt(gd.certificate.max_eig)}")
    print(f"margin:           {_fmt(gd.certificate.margin)}")
    # The report doubles as a scenario config, so it can be fed straight
    # back into `certify`.
    report = {
        **network_block(scn.net.with_gains(k=gd.k, g=gd.g)),
        "command": "design",
        "version": __version__,
        "k_window_lo": gd.k_window.lo,
        "k_window_hi": gd.k_window.hi,
        "max_eig": gd.certificate.max_eig,
        "margin": gd.certificate.margin,
        "components": [
            {
                "nodes": list(p.component),
                "n": len(p.component),
                "s": p.leader_count,
                "window_lo": p.window.lo,
                "window_hi": p.window.hi,
            }
            for p in gd.per_component
        ],
    }
    _write_json(Path(args["config"]).with_suffix(".design.json"), report)
    return 0


def _in_horizon(t: float, t_end: float) -> bool:
    return 0.0 <= t <= t_end + 1e-12


def _parse_snapshots(text: str, t_end: float) -> list[float]:
    try:
        times = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad snapshot list {text!r}: {exc}") from exc
    if not times:
        raise ValueError(f"--snapshots names no time, got {text!r}")
    if not np.isfinite(times).all():
        raise ValueError(f"snapshot times must be finite, got {text!r}")
    if not all(_in_horizon(t, t_end) for t in times):
        raise ValueError(f"snapshot times must lie in [0, {t_end:g}], got {text!r}")
    return times


def cmd_simulate(args) -> int:
    from .pdesim import simulate, sync_errors, to_grid

    scn = load_scenario(args["config"])
    snapshots = (
        _parse_snapshots(args["snapshots"], scn.sim.t_end)
        if args["snapshots"] is not None
        else [t for t in DEFAULT_SNAPSHOTS if _in_horizon(t, scn.sim.t_end)]
    )
    out_dir = _output_dir(Path(args["out"]))
    traj = simulate(scn.net, scn.sim)
    series = sync_errors(traj)
    n = scn.net.n
    # made only now, so a run that diverges leaves no empty directory behind
    out_dir.mkdir(parents=True, exist_ok=True)

    err_path = out_dir / "errors.csv"
    _write_csv(
        err_path,
        ["t"] + [f"err_agent_{i + 1}" for i in range(n)] + ["err_total", "pairwise_max"],
        np.column_stack([series.times, *series.per_agent_l2, series.total_l2,
                         series.pairwise_max]).tolist(),
    )
    bdy_path = out_dir / "boundary.csv"
    at_one = (-1.0) ** np.arange(scn.sim.nx)  # cos(j pi) at x = 1
    leader = traj.leader @ at_one
    _write_csv(
        bdy_path,
        ["t"] + [f"z_{i + 1}" for i in range(n)] + ["z_leader"],
        np.column_stack([traj.times, traj.frames @ at_one + leader[:, np.newaxis],
                         leader]).tolist(),
    )
    snap_idx = [int(np.argmin(np.abs(series.times - t))) for t in snapshots]
    ebar = to_grid(traj.frames[snap_idx].sum(axis=1))  # only these reach the grid
    avg_path = out_dir / "avg_error.csv"
    _write_csv(
        avg_path,
        ["x"] + [f"ebar_t_{t:g}" for t in snapshots],
        np.column_stack([scn.sim.grid, *ebar]).tolist(),
    )

    manifest = _resolved_params(scn, "simulate")
    manifest["snapshots"] = ";".join(f"{t:g}" for t in snapshots)
    manifest["snapshot_times_resolved"] = ";".join(_fmt(series.times[i]) for i in snap_idx)
    manifest["t_final"] = float(series.times[-1])  # the last time written, n_steps dt
    manifest["outputs"] = "errors.csv;boundary.csv;avg_error.csv"
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {err_path}, {bdy_path}, {avg_path}")
    return 0


def cmd_spectrum(args) -> int:
    from .pdesim import analytic_open_loop_spectrum, spectral_abscissa

    scn = load_scenario(args["config"])
    absc = spectral_abscissa(scn.net, scn.sim)
    modes = analytic_open_loop_spectrum(scn.net.alpha, scn.net.beta, n_modes=6)
    print("analytic open-loop modes:", ", ".join(_fmt(m) for m in modes))
    print(f"discrete closed-loop spectral abscissa: {_fmt(absc)}")
    return 0


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    """(lo, hi, n) of a range ``lo:hi:n``, for ``np.linspace`` once its size is allowed."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad --{name} range {text!r}: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"--{name} bounds must be finite, got {text!r}")
    if count < 2:
        raise ValueError(f"--{name} needs at least 2 points, got {count}")
    return lo, hi, count


def cmd_sweep(args) -> int:
    from .certify import certificate_sweep

    scn = load_scenario(args["config"])
    k_range, g_range = _parse_range(args["k"], "k"), _parse_range(args["g"], "g")
    cells = k_range[2] * g_range[2]
    refuse_beyond_memory(_CELL_BYTES * cells, f"the sweep's {cells} cells take")
    k_values, g_values = np.linspace(*k_range), np.linspace(*g_range)
    out_path = Path(args["out"])
    if out_path.is_dir():
        raise ValueError(f"cannot write {out_path}: it is a directory")
    if args["simulate"]:
        from .pdesim import _frame_steps, fit_decay_rate, simulate, sync_errors

        # a run too large to hold is refused once, for all cells, each of which has a common g
        _frame_steps(scn.net.with_gains(g=g_values[0]), scn.sim)
        window = (min(0.5, scn.sim.t_end / 5.0), min(2.0, scn.sim.t_end))
    _output_dir(out_path.parent).mkdir(parents=True, exist_ok=True)
    cols = ["k", "g", "max_eig_omega", "feasible"] + (["decay_rate"] if args["simulate"] else [])
    # row-major: k, then g
    k_cells, g_cells = np.repeat(k_values, len(g_values)), np.tile(g_values, len(k_values))
    try:
        max_eig, feasible = certificate_sweep(scn.net, k_cells, g_cells)
    except HeatSyncError:  # no followers: no cell has a certificate
        max_eig, feasible = np.full(cells, np.nan), np.zeros(cells, bool)
    columns = [k_cells, g_cells, max_eig, feasible]
    if args["simulate"]:
        columns.append(np.full(cells, np.nan))  # the decay rates, fitted under a certificate
        for c in np.flatnonzero(~np.isnan(max_eig)):
            with contextlib.suppress(HeatSyncError, ValueError):  # a failed run or fit: no rate
                net = scn.net.with_gains(k=k_cells[c], g=g_cells[c])
                columns[-1][c] = fit_decay_rate(sync_errors(simulate(net, scn.sim)), window)
    # a failed cell keeps its gains and blanks the columns it failed to fill
    rows = ([k, g] + (["", ""] if np.isnan(eig) else [eig, "true" if ok else "false"])
            + ["" if np.isnan(r) else r for r in rate] for k, g, eig, ok, *rate in zip(*columns))
    _write_csv(out_path, cols, rows)
    print(f"wrote {out_path} ({cells} cells)")
    # a row is complete when its last number is: a rate is fitted only under a certificate
    return 1 if np.isnan(columns[-1] if args["simulate"] else max_eig).all() else 0


# each command's handler, help line and options, the options spelled as its usage line
# spells them: an option in brackets may be left out, and one without a value is a flag
_COMMANDS = {
    "certify": (cmd_certify, "check the synchronization certificate", {}),
    "design": (cmd_design, "synthesize boundary and coupling gains", {}),
    "simulate": (cmd_simulate, "run the closed loop and write CSVs", {
        "--out OUT": "output directory",
        "[--snapshots SNAPSHOTS]": "comma-separated times for avg_error.csv"}),
    "spectrum": (cmd_spectrum, "analytic modes and discrete abscissa", {}),
    "sweep": (cmd_sweep, "grid sweep over gains", {
        "--k K": "boundary gain range lo:hi:n",
        "--g G": "coupling gain range lo:hi:n",
        "--out OUT": "output CSV path",
        "[--simulate]": "also fit decay rates"}),
}


def _help(command: str | None) -> str:
    """The usage line, then what ``heatsync`` or ``heatsync COMMAND`` does and takes."""
    if command is None:
        usage = f"[--version] {{{','.join(_COMMANDS)}}} CONFIG [OPTIONS]"
        text = ("Certify, synthesize and simulate leader synchronization of coupled 1-D heat\n"
                "equations.  'heatsync COMMAND --help' prints a command's options.")
        rows = {name: line for name, (_, line, _) in _COMMANDS.items()}
    else:
        _, text, options = _COMMANDS[command]
        usage = " ".join([command, "CONFIG", *options])
        rows = {option.strip("[]"): line for option, line in options.items()}
    return "\n".join([f"usage: heatsync {usage}", "", text, "",
                      *(f"  {name:<25}{line}" for name, line in rows.items())])


def _refuse(command: str | None, message: str) -> int:
    print(_help(command).partition("\n")[0], f"heatsync: error: {message}", sep="\n",
          file=sys.stderr)
    return 2


def main(argv=None) -> int:
    """Run one command line: ``COMMAND CONFIG`` and the command's options, in any order.

    Options are ``--name value`` or ``--name=value``, and a value may begin with ``-``.
    The handler reads an option not given as None and a flag given as True.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help", "--version"):
        print(__version__ if command == "--version" else _help(None))
        return 0
    if command not in _COMMANDS:
        return _refuse(None, f"unknown command {command!r}" if argv else "no command given")
    handler, _, options = _COMMANDS[command]
    spelling = {option.strip("[]").split()[0]: option for option in options}  # --k: --k K
    args, tokens = dict.fromkeys(["config", *(name[2:] for name in spelling)]), iter(argv[1:])
    for token in tokens:
        name, given, value = token.partition("=")
        if token in ("-h", "--help"):
            print(_help(command))
            return 0
        if " " in spelling.get(name, ""):  # an option that takes a value
            args[name[2:]] = value if given else next(tokens, None)
            if args[name[2:]] is None:
                return _refuse(command, f"{name} needs a value")
        elif name in spelling and not given:  # a flag
            args[name[2:]] = True
        elif not token.startswith("-") and args["config"] is None:
            args["config"] = token
        else:
            return _refuse(command, f"unrecognized argument {token!r}")
    missing = ["CONFIG"] * (args["config"] is None) + [
        name for name, option in spelling.items() if option[0] != "[" and args[name[2:]] is None]
    if missing:
        return _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    try:
        return handler(args)
    except ValueError as exc:
        # input that is not a scenario: the package raises ValueError on it,
        # and HeatSyncError only on valid input
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeatSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    # the OS takes the memory and files back: end here, once what was printed is out,
    # and skip the interpreter's teardown
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
