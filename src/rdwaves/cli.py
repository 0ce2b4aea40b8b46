"""Command-line surface: sampling, verification, simulation, figure data.

Subcommands: list, sample, verify, ode-check, simulate, velocity, chain,
figures.  Grids and reports are deterministic: CSV cells use fixed ``%.17e``
scientific notation (18 significant digits) and repeated invocations produce
byte-identical files.  All outputs are written atomically (temp + rename)
and every run that writes files also writes a manifest listing them.

Wire formats: sampled grids are CSV with header ``x,t,u,defined`` (masked
cells carry ``nan`` and flag 0); checkpoint profiles are ``x,u``.  JSON
reports carry ``schema: 1``; equation objects serialize as
``{"variant": <EquationSpec class name>, "params": {<field>: <value>}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import CatalogError, Sampler, build_family, chain_constant, family_info, phi_chain
from .equations import spec_to_json
from .simulate import SimConfig, SimulationError, compare_exact, integrate
from .verify import (
    Grid2D,
    VerificationImpossibleError,
    clean_chain_samples,
    ode_residual,
    pde_residual,
    proposition_suite,
)

SCHEMA = 1


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _emit(path: Path, text: str, outputs: list[Path]) -> None:
    """Write one output file atomically and record it for the command's manifest."""
    _atomic_write(path, text)
    outputs.append(path)


def _json_text(payload: dict) -> str:
    """The JSON text of a report, manifest or listing: payload under schema, sorted keys."""
    return json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True) + "\n"


def _write_manifest(base: Path, command: str, parameters: dict, outputs: list[Path]) -> None:
    _atomic_write(base, _json_text({
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": sorted(str(p) for p in outputs),
    }))


def _write_report(out: str | None, command: str, payload: dict, parameters: dict) -> None:
    """JSON report at out and its manifest beside it; nothing when out is unset."""
    if out:
        outputs: list[Path] = []
        _emit(Path(out), _json_text(payload), outputs)
        _write_manifest(Path(out).with_suffix(".manifest.json"), command, parameters, outputs)


def _grid_csv(x, t, u, defined) -> str:
    """CSV of u on the 1-D axes x (varying slowest) and t; each axis value is formatted once."""
    t_cols = ["%.17e," % v for v in t.tolist()]
    parts = ["x,t,u,defined\n"]
    for xv, u_row, d_row in zip(x.tolist(), u.tolist(), defined.tolist()):
        lead = "%.17e," % xv
        cells = ["%.17e,1\n" % v if d else "nan,0\n" for v, d in zip(u_row, d_row)]
        parts.append(lead)
        parts.append(lead.join(map(str.__add__, t_cols, cells)))
    return "".join(parts)


def _profile_csv(x, u) -> str:
    return "x,u\n" + "".join(map("%.17e,%.17e\n".__mod__, zip(x.tolist(), u.tolist())))


def _gnuplot_script(csv_path: Path, title: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 'x'\nset ylabel 't'\nset zlabel 'u'\n"
        f"splot '{csv_path.name}' every ::1 using 1:2:3 with points pt 7 ps 0.3 notitle\n"
    )


def _parse_params(raw: str | None) -> dict:
    if not raw:
        return {}
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--params must be a JSON object: {exc}")
    if not isinstance(obj, dict):
        raise SystemExit("--params must be a JSON object")
    return obj


def _usage(flag: str, build, *args, **kwargs):
    """build(*args, **kwargs); a value it rejects ends in SystemExit naming flag."""
    try:
        return build(*args, **kwargs)
    except (ValueError, SimulationError, VerificationImpossibleError) as exc:
        raise SystemExit(f"{flag}: {exc}") from None


def _parse_flag(flag: str, raw: str, fields: str, build=lambda *values: values):
    """build(*values) of the comma flag raw, read against fields such as "x0,x1,nx".

    Fields named n* are ints, the others finite floats.  A wrong count, a
    malformed number or a value build rejects ends in SystemExit naming flag.
    """
    names, parts = fields.split(","), raw.split(",")
    if len(parts) != len(names):
        raise SystemExit(f"{flag}: expects {fields}, got {raw!r}")
    values = [_usage(flag, int if n.startswith("n") else float, v) for n, v in zip(names, parts)]
    if not all(map(math.isfinite, values)):
        raise SystemExit(f"{flag}: values must be finite, got {raw!r}")
    return _usage(flag, build, *values)


def _parse_grid(raw: str, sampler) -> Grid2D:
    if raw:
        return _parse_flag("--grid", raw, "x0,x1,nx,t0,t1,nt", Grid2D)
    x0, x1, t0, t1 = sampler.suggested_window
    nx, nt = sampler.suggested_resolution
    return _usage("--grid", Grid2D, x0, x1, nx, t0, t1, nt)


def _build(args) -> Sampler:
    try:
        return build_family(args.family, _parse_params(args.params))
    except CatalogError as exc:
        raise SystemExit(f"cannot build family {args.family!r}: {exc}")


def cmd_list(args) -> int:
    print(_json_text({"families": family_info()}), end="")
    return 0


def cmd_sample(args) -> int:
    sampler = _build(args)
    grid = _parse_grid(args.grid, sampler)
    X, T = np.meshgrid(grid.x, grid.t, indexing="ij")
    u, defined = sampler.sample(X, T)
    frac = float(defined.mean())
    if frac < 1.0:
        print(f"warning: defined fraction {frac:.4f} (masked region in the window)",
              file=sys.stderr)
    outputs: list[Path] = []
    out = Path(args.out)
    _emit(out, _grid_csv(grid.x, grid.t, u, defined), outputs)
    if args.gnuplot:
        _emit(out.with_suffix(".gp"), _gnuplot_script(out, f"{args.family} {sampler.params}"),
              outputs)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "sample",
                    {"family": args.family, "params": sampler.params,
                     "grid": args.grid, "defined_fraction": frac}, outputs)
    print(f"wrote {out} ({u.size} samples, defined fraction {frac:.4f})")
    return 0


def cmd_verify(args) -> int:
    sampler = _build(args)
    grid = _parse_grid(args.grid, sampler)
    report = _usage("--grid", pde_residual, sampler, sampler.equation, grid, args.order)
    payload = {
        "family": args.family,
        "params": sampler.params,
        "equation": spec_to_json(sampler.equation),
        "residual_clean_expected": sampler.residual_clean,
        "grid": list(astuple(grid)),
        "report": asdict(report),
    }
    _write_report(args.out, "verify", payload, {"family": args.family, "params": sampler.params})
    order = f"{report.order_estimate:.2f}" if report.order_estimate is not None else "n/a"
    print(f"{args.family}: max residual {report.max_abs:.3e}, l2 {report.l2:.3e}, "
          f"order {order}, defined {report.defined_fraction:.3f}")
    if not sampler.residual_clean:
        print("note: this variant is cataloged as failing verification "
              "(see its domain note)")
    ok = report.converges(args.tol)
    print("verdict:", "converges" if ok else "DOES NOT CONVERGE")
    return 0 if ok == sampler.residual_clean else 1


def cmd_ode_check(args) -> int:
    state = _usage("--chain-index", phi_chain, args.chain_index)
    rows = _usage("--chain-index", proposition_suite, max_index=args.chain_index)
    y = _usage("--samples", clean_chain_samples, args.chain_index, args.samples)
    rep = ode_residual(state, y)
    print(f"chain element {args.chain_index}: C_estimate {rep.c_estimate:+.9f} "
          f"(expected {chain_constant(args.chain_index):+.9f}), "
          f"first-integral std {rep.first_integral_std:.2e}, "
          f"second-order residual {rep.second_order_max:.2e} on {rep.n_valid} samples")
    for r in rows:
        print(f"  [{'pass' if r.passed else 'FAIL'}] index {r.index}: {r.proposition} "
              f"(max deviation {r.max_deviation:.2e})")
    _write_report(args.out, "ode-check", {
        "chain_index": args.chain_index,
        "ode_residual": asdict(rep),
        "propositions": [asdict(r) for r in rows],
    }, {"chain_index": args.chain_index})
    return 0 if all(r.passed for r in rows) else 1


def cmd_simulate(args) -> int:
    sampler = _build(args)
    window = _parse_flag("--window", args.window, "x0,x1,nx")
    tspan = _parse_flag("--time", args.time, "t0,t1")
    cfg = _usage("--window/--time/--safety/--checkpoints", SimConfig, *window, *tspan,
                 safety=args.safety, space_order=args.space_order, n_checkpoints=args.checkpoints)
    hist = _usage("--window/--time/--safety", integrate, sampler.equation, sampler, cfg)
    rep = _usage("--window/--time/--level", compare_exact, hist, sampler, level=args.level,
                 registration=args.registration)
    outputs: list[Path] = []
    prefix = Path(args.out)
    for i, u in enumerate(hist.fields):
        _emit(prefix.parent / f"{prefix.name}_ck{i}.csv", _profile_csv(hist.x, u), outputs)
    _emit(prefix.parent / f"{prefix.name}_report.json", _json_text({
        "family": args.family,
        "params": sampler.params,
        "config": {k: v for k, v in asdict(cfg).items() if k != "n_checkpoints"},
        "steps": hist.steps_taken,
        "report": asdict(rep),
    }), outputs)
    _write_manifest(prefix.parent / f"{prefix.name}_manifest.json", "simulate",
                    {"family": args.family, "params": sampler.params}, outputs)
    print(f"simulated {hist.steps_taken} steps; max checkpoint error "
          f"{max(rep.max_abs_errors):.3e}; wrote {len(outputs)} files under {prefix}")
    return 0


_VELOCITY_MAX_POINTS = 1 << 16


def _velocity_setup(sampler, h: float):
    """Simulation window, duration and level for a front-speed measurement."""
    v = sampler.predicted_velocity
    if v is None:
        raise SystemExit("--family: this family carries no predicted velocity")
    if not h > 0:
        raise ValueError(f"grid step must be positive, got {h}")
    duration = min(3.0, max(0.5, 1.8 / max(abs(v), 0.6)))
    if sampler.family_id == "bell":  # masked for x <= v (t - t_shift) + x_shift - 2C
        p = sampler.params
        edge = p.get("x_shift", 0.0) - v * p.get("t_shift", 0.0) - 2.0 * p["C"]
        x0 = max(0.0, v * duration) + max(0.0, edge) + 0.7
        x1, width, level, registration = x0 + 8.0, 8.0, None, True
    else:
        # locate the mid-level crossing of the initial profile near the origin
        probe = np.linspace(-30.0, 30.0, 4001)
        u0, ok = sampler.sample(probe, 0.0)
        if not ok.any():
            raise SystemExit("the initial profile is masked on the whole probe window "
                             "x in [-30, 30]; no front to locate")
        lo, hi = u0[ok][0], u0[ok][-1]
        mid = 0.5 * (lo + hi)
        idx = np.where(np.sign(u0 - mid)[:-1] * np.sign(u0 - mid)[1:] < 0)[0]
        x_front = float(probe[idx[0]]) if idx.size else 0.0
        x0 = x_front - 7.0 - max(0.0, -v) * duration - 2.0
        x1 = x_front + 7.0 + max(0.0, v) * duration + 2.0
        width, level, registration = x1 - x0, float(mid), False
    # the window widens with the predicted speed: refuse it before allocating it
    if not width / h < _VELOCITY_MAX_POINTS:
        raise ValueError(f"a window {width:.6g} wide at step {h:g} needs more than "
                         f"{_VELOCITY_MAX_POINTS} points (predicted speed {v:.6g})")
    return SimConfig(x0, x1, int(width / h) + 1, 0.0, duration,
                     n_checkpoints=9), level, registration


def cmd_velocity(args) -> int:
    sampler = _build(args)
    cfg, level, registration = _usage("--h", _velocity_setup, sampler, args.h)
    if args.level is not None:
        level = args.level
    hist = _usage("--h", integrate, sampler.equation, sampler, cfg)
    rep = _usage("--level", compare_exact, hist, sampler, level=level, registration=registration)
    predicted = sampler.predicted_velocity
    measured = rep.measured_velocity
    # a front predicted to stand still has no relative error: judge the absolute one
    kind = "relative" if predicted else "absolute"
    err = abs(measured - predicted) / (abs(predicted) or 1.0)
    note = "" if predicted else " (absolute error: predicted speed is 0)"
    print(f"family            predicted      measured       {kind[:3]}.err   r2")
    print(f"{args.family:16s} {predicted:+.6f}  {measured:+.6f}  {err:8.2e}  "
          f"{rep.velocity_fit_r2:.6f}{note}")
    _write_report(args.out, "velocity", {
        "family": args.family,
        "params": sampler.params,
        "predicted_velocity": predicted,
        "measured_velocity": measured,
        f"{kind}_error": err,
        "r2": rep.velocity_fit_r2,
        "method": rep.velocity_method + note,
    }, {"family": args.family, "params": sampler.params})
    return 0 if err <= 0.01 else 1


def cmd_chain(args) -> int:
    if not 0 <= args.depth <= 26:  # row n lists 2^ceil(n/2) + 1 lattice points, 8,193 at 26
        raise SystemExit(f"--depth: must be between 0 and 26, got {args.depth}")
    rows = []
    print("index  C_n             zeros (one period)                 singular points")
    for n in range(args.depth + 1):
        zeros, poles = ([round(v, 6) for v in a.tolist()] for a in phi_chain(n).lattice())
        rows.append({"index": n, "c_n": chain_constant(n), "zeros": zeros, "singular": poles})
        print(f"{n:5d}  {chain_constant(n):+12.6f}   {str(zeros):34s} {poles}")
    _write_report(args.out, "chain", {"depth": args.depth, "elements": rows},
                  {"depth": args.depth})
    return 0


# figure id -> (family, params, window x0,x1,t0,t1, grid nx,nt, caption)
FIGURES: dict[int, dict] = {
    1: {"family": "chain", "params": {"kind": "direct", "index": 0},
        "window": (-3.0, 3.0, 0.005, 200.0), "grid": (181, 201),
        "caption": "chain solution, index 0, long-time window"},
    2: {"family": "chain", "params": {"kind": "direct", "index": 1},
        "window": (-3.0, 3.0, 0.005, 200.0), "grid": (181, 201),
        "caption": "chain solution, index 1, long-time window"},
    3: {"family": "chain", "params": {"kind": "inverse", "index": 1},
        "window": (-3.0, 3.0, 0.005, 200.0), "grid": (181, 201),
        "caption": "inverse chain solution, index 1"},
    4: {"family": "chain", "params": {"kind": "focusing", "index": 0},
        "window": (-3.0, 3.0, 0.005, 200.0), "grid": (181, 201),
        "caption": "focusing-equation chain solution, index 0"},
    5: {"family": "chain", "params": {"kind": "focusing", "index": 2},
        "window": (-3.0, 3.0, 0.005, 200.0), "grid": (181, 201),
        "caption": "focusing-equation chain solution, index 2"},
    6: {"family": "fisher-weierstrass", "params": {"C": 1e2, "k_shift": 0.0},
        "window": (0.0, 10.0, -6.0, -2.0), "grid": (161, 129),
        "caption": "Weierstrass-family Fisher solution, C = 10^2"},
    7: {"family": "fisher-weierstrass", "params": {"C": 1e4, "k_shift": 0.0},
        "window": (0.0, 10.0, -6.0, -2.0), "grid": (161, 129),
        "caption": "Weierstrass-family Fisher solution, C = 10^4"},
    8: {"family": "fisher-weierstrass", "params": {"C": 1e6, "k_shift": 0.0},
        "window": (0.0, 10.0, -6.0, -2.0), "grid": (161, 129),
        "caption": "Weierstrass-family Fisher solution, C = 10^6"},
}


def figure_data(fig_id: int):
    """(sampler, X, T, u, defined, spec) for one registered figure."""
    spec = FIGURES[fig_id]
    sampler = build_family(spec["family"], spec["params"])
    x0, x1, t0, t1 = spec["window"]
    nx, nt = spec["grid"]
    X, T = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(t0, t1, nt), indexing="ij")
    u, defined = sampler.sample(X, T)
    return sampler, X, T, u, defined, spec


def figure_gate(fig_id: int) -> dict:
    """Finiteness/defined-fraction of the plot data plus a residual probe
    of the family on its clean verification window."""
    sampler, _, _, u, defined, _ = figure_data(fig_id)
    return _gate(fig_id, sampler, u, defined)[0]


def _gate(fig_id: int, sampler, u, defined) -> tuple[dict, bool]:
    """figure_gate's checks on plot data that is already sampled, and whether they
    pass: defined share at least 0.9, finite values and the probe's verify verdict."""
    frac = float(defined.mean())
    finite = bool(np.all(np.isfinite(u[defined])))
    probe = pde_residual(sampler, sampler.equation, _parse_grid(None, sampler), 4)
    return {
        "figure": fig_id,
        "defined_fraction": frac,
        "finite": finite,
        "residual_order": probe.order_estimate,
        "residual_max": probe.max_abs,
    }, frac >= 0.9 and finite and probe.converges()


def cmd_figures(args) -> int:
    ids = sorted(FIGURES)
    if args.id:
        ids = [_parse_flag("--id", s, "n", int) for s in args.id.split(",")]
    unknown = sorted(set(ids) - FIGURES.keys())
    if unknown:
        raise SystemExit(f"--id: unknown figure ids {unknown}; valid: {sorted(FIGURES)}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    all_ok = True
    for fig_id in ids:
        sampler, X, T, u, defined, spec = figure_data(fig_id)
        gate, ok = _gate(fig_id, sampler, u, defined)
        csv_path = outdir / f"figure{fig_id}.csv"
        _emit(csv_path, _grid_csv(X[:, 0], T[0, :], u, defined), outputs)
        _emit(outdir / f"figure{fig_id}.json", _json_text({"caption": spec["caption"], **gate}),
              outputs)
        if args.gnuplot:
            _emit(outdir / f"figure{fig_id}.gp", _gnuplot_script(csv_path, spec["caption"]),
                  outputs)
        all_ok &= ok
        print(f"figure {fig_id}: defined {gate['defined_fraction']:.4f}, "
              f"finite {gate['finite']}, residual order "
              f"{gate['residual_order']:.2f}, {'ok' if ok else 'GATE FAILED'}")
    _write_manifest(outdir / "figures_manifest.json", "figures",
                    {"ids": ids}, outputs)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdwaves",
        description="Exact reaction-diffusion solution families with residual "
                    "verification and front-velocity measurement",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate solution families (JSON)")

    p = sub.add_parser("sample", help="sample a family onto a grid (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None, help="JSON object of family parameters")
    p.add_argument("--grid", default=None, help="x0,x1,nx,t0,t1,nt")
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true")

    p = sub.add_parser("verify", help="PDE residual with convergence order")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--order", type=int, default=4, choices=(2, 4))
    p.add_argument("--tol", type=float, default=None,
                   help="max residual of a converging verdict (default: RESIDUAL_TOL[order])")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ode-check", help="chain-element checks and the assertion suite")
    p.add_argument("--chain-index", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="method-of-lines run against the exact profile")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--window", required=True, help="x0,x1,nx")
    p.add_argument("--time", required=True, help="t0,t1")
    p.add_argument("--checkpoints", type=int, default=9)
    p.add_argument("--safety", type=float, default=0.9)
    p.add_argument("--space-order", type=int, default=4, choices=(2, 4))
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--registration", action="store_true")
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("velocity", help="measured vs predicted front velocity")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--out", default=None)

    p = sub.add_parser("chain", help="first-integral constants and pole inventory")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out", default=None)

    p = sub.add_parser("figures", help="plot data for the catalog showcase figures")
    p.add_argument("--id", default=None, help="comma-separated figure ids (default all)")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--gnuplot", action="store_true")
    return parser


_COMMANDS = {
    "list": cmd_list,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "ode-check": cmd_ode_check,
    "simulate": cmd_simulate,
    "velocity": cmd_velocity,
    "chain": cmd_chain,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # numpy raises where it would warn: a value that overflows or turns invalid
    # ends the command as a usage error instead of reaching an output as inf or nan
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            return _COMMANDS[args.command](args)
        except FloatingPointError as exc:
            raise SystemExit(f"{args.command}: {exc}; the parameters or the grid leave "
                             "the floating-point range") from None


if __name__ == "__main__":
    sys.exit(main())
