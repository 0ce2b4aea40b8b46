"""Command-line surface: sampling, verification, simulation, figure data.

Subcommands: list, sample, verify, ode-check, simulate, velocity, chain,
figures.  Grids and reports are deterministic: CSV cells use fixed ``%.17e``
scientific notation (18 significant digits) and repeated invocations produce
byte-identical files in any locale.  All outputs are written atomically (temp
+ rename) and every run that writes files also writes a manifest listing them.

Wire formats: sampled grids are CSV with header ``x,t,u,defined`` (cells that
are not finite carry ``nan`` and flag 0); checkpoint profiles are ``x,u``.  JSON
reports carry ``schema: 1``; equation objects serialize as
``{"variant": <EquationSpec class name>, "params": {<field>: <value>}}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from ._csvfmt import csv_text as _csv_text
from .catalog import CatalogError, Sampler, build_family, chain_constant, family_info, phi_chain
from .equations import spec_to_json
from .simulate import SimConfig, SimulationError, compare_exact, integrate
from .verify import (
    CANDIDATES_PER_SAMPLE,
    Grid2D,
    VerificationImpossibleError,
    _residual_tol,
    clean_chain_samples,
    ode_residual,
    pde_residual,
    proposition_suite,
)

SCHEMA = 1


# characters a write: each slice is encoded on its own, so no encoded copy of
# a whole file is held at once
_WRITE_SLICE = 1 << 16


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path by way of a temp file, in the encoding and error handler
    with which os.fsencode encodes a file name, so a name in the text reads as
    that file's bytes in every locale; a write that raises leaves no temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding=sys.getfilesystemencoding(),
                      errors=sys.getfilesystemencodeerrors()) as f:
            for i in range(0, len(text), _WRITE_SLICE):
                f.write(text[i:i + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        # each name as its bytes read as UTF-8, the same in every locale
        "outputs": sorted(os.fsencode(p).decode("utf-8", "surrogateescape") for p in outputs),
    }))


def _write_report(out: str | None, command: str, payload: dict, parameters: dict) -> None:
    """JSON report at out and its manifest beside it; nothing when out is unset."""
    if out:
        outputs: list[Path] = []
        _emit(Path(out), _json_text(payload), outputs)
        _write_manifest(Path(out).with_suffix(".manifest.json"), command, parameters, outputs)


def _gnuplot_quote(text: str) -> str:
    """text as a gnuplot single-quoted string, in which '' stands for '."""
    return "'" + text.replace("'", "''") + "'"


def _gnuplot_script(csv_path: Path, title: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set title {_gnuplot_quote(title)}\n"
        "set xlabel 'x'\nset ylabel 't'\nset zlabel 'u'\n"
        f"splot {_gnuplot_quote(csv_path.name)} every ::1 using 1:2:3 with points pt 7 ps 0.3 "
        "notitle\n"
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
    _usage("--grid", _check_grid, grid, 1, "sample")
    X, T = np.meshgrid(grid.x, grid.t, indexing="ij")
    u, defined = sampler.sample(X, T)
    frac = float(defined.mean())
    if frac < 1.0:
        print(f"warning: defined fraction {frac:.4f} (masked region in the window)",
              file=sys.stderr)
    outputs: list[Path] = []
    out = Path(args.out)
    _emit(out, _csv_text(grid.x, grid.t, u), outputs)
    if args.gnuplot:
        _emit(out.with_suffix(".gp"), _gnuplot_script(out, f"{args.family} {sampler.params}"),
              outputs)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "sample",
                    {"family": args.family, "params": sampler.params,
                     "grid": args.grid, "defined_fraction": frac}, outputs)
    print(f"wrote {out} ({u.size} samples, defined fraction {frac:.4f})")
    return 0


def cmd_verify(args) -> int:
    _usage("--tol", _residual_tol, args.order, args.tol)
    sampler = _build(args)
    grid = _parse_grid(args.grid, sampler)
    # the study samples u and f(u) on the finest grid of its refinement triple
    _usage("--grid", _check_grid, grid.refined().refined(), 2, "finest")
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
    _usage("--samples", _check_samples, args.chain_index, args.samples)
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
    _usage("--window/--time/--checkpoints", _check_work, cfg, cfg.h)
    hist = _usage("--window/--time/--safety", integrate, sampler.equation, sampler, cfg)
    rep = _usage("--window/--time/--registration", compare_exact, hist, sampler,
                 registration=args.registration)
    outputs: list[Path] = []
    prefix = Path(args.out)
    for i, u in enumerate(hist.fields):
        _emit(prefix.parent / f"{prefix.name}_ck{i}.csv", _csv_text(hist.x, None, u), outputs)
    _emit(prefix.parent / f"{prefix.name}_report.json", _json_text({
        "family": args.family,
        "params": sampler.params,
        # simulate always marches RK4, so the report leaves the method out
        "config": {k: v for k, v in asdict(cfg).items() if k not in ("n_checkpoints", "method")},
        "steps": hist.steps_taken,
        "report": asdict(rep),
    }), outputs)
    _write_manifest(prefix.parent / f"{prefix.name}_manifest.json", "simulate",
                    {"family": args.family, "params": sampler.params}, outputs)
    print(f"simulated {hist.steps_taken} steps; max checkpoint error "
          f"{max(rep.max_abs_errors):.3e}; wrote {len(outputs)} files under {prefix}")
    return 0


_VELOCITY_MAX_POINTS = 1 << 16
# steps times points of one march, 3.4e7: about 10 s of RKC (the bell at h = 0.005
# plans 2.8e7, 8.4 s on a 2-CPU host); velocity plans at most 1.9e6 at h = 0.05 and
# 8.3e6 at h = 0.01.  ode-check's draws and sample's and verify's grid values share it
_MAX_WORK = 1 << 25


def _check_budget(work, refusal: str) -> None:
    """ValueError(refusal) where work exceeds _MAX_WORK: the one comparison with it."""
    if work > _MAX_WORK:
        raise ValueError(refusal)


def _check_grid(grid: Grid2D, fields: int, label: str) -> None:
    """Refuse a grid of more than _MAX_WORK values, fields a point, before allocating any."""
    values = grid.n_x * grid.n_t * fields
    _check_budget(values, f"{values} values ({fields} a point on a {grid.n_x} x {grid.n_t} "
                          f"{label} grid) exceed the budget of {_MAX_WORK}")


def _check_work(cfg: SimConfig, step: float) -> None:
    """Refuse a march whose steps (cfg.interval_steps summed) times points exceed _MAX_WORK,
    before any checkpoint time exists where one step an interval, or an infinite span, does."""
    span = cfg.t1 - cfg.t0  # inf where t0 and t1 lie near either end of the floats
    intervals = cfg.n_checkpoints - 1
    refusal = (f"{{}} steps of {cfg.n_x} points at step {step:g} exceed the budget of "
               f"{_MAX_WORK} point-steps").format
    counted = intervals if span < math.inf else span  # an infinite span is refused as it is
    _check_budget(counted * cfg.n_x, refusal(counted))
    steps = int(cfg.interval_steps.sum())
    _check_budget(steps * cfg.n_x, refusal(steps))


def _check_samples(index: int, n: int) -> None:
    """Refuse n samples whose worst-case draw times index + 1 recurrence levels tops _MAX_WORK."""
    draws = CANDIDATES_PER_SAMPLE * n
    _check_budget(draws * (index + 1), f"{n} samples at chain index {index} may draw {draws} "
                  f"candidates, each walked through {index + 1} recurrence levels: over the "
                  f"budget of {_MAX_WORK} point-levels")


def _velocity_setup(sampler, h: float) -> SimConfig:
    """Simulation window and duration for a front-speed measurement."""
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
        x1, width = x0 + 8.0, 8.0
    else:
        # locate the mid-level crossing of the initial profile near the origin
        probe = np.linspace(-30.0, 30.0, 4001)
        u0, ok = sampler.sample(probe, 0.0)
        if not ok.any():
            raise SystemExit("the initial profile is masked on the whole probe window "
                             "x in [-30, 30]; no front to locate")
        lo, hi = u0[ok][0], u0[ok][-1]
        mid = 0.5 * (lo + hi)
        d = u0 - mid
        idx = np.where(np.sign(d)[:-1] * np.sign(d)[1:] < 0)[0]
        # a front crosses its mid level once and stays between its two end
        # states; a pole band crosses it again and overshoots them
        crossings = idx.size + int(np.count_nonzero(d == 0.0))
        if crossings != 1 or np.max(np.abs(d[ok])) > abs(hi - lo):
            raise SystemExit(
                f"--family: {sampler.family_id}: the probe window x in [-30, 30] holds no "
                f"single bounded front (mid level {mid:.6g} crossed {crossings} times, "
                f"values {np.min(u0[ok]):.6g} to {np.max(u0[ok]):.6g})")
        x_front = float(probe[idx[0]] if idx.size else probe[d == 0.0][0])
        x0 = x_front - 7.0 - max(0.0, -v) * duration - 2.0
        x1 = x_front + 7.0 + max(0.0, v) * duration + 2.0
        # a quarter of the window holds 1.1 x the travel, as far as the point cap allows
        trail = max(0.0, min(4.4 * abs(v) * duration, (_VELOCITY_MAX_POINTS - 1) * h) - (x1 - x0))
        x0, x1 = (x0 - trail, x1) if v > 0 else (x0, x1 + trail)
        width = x1 - x0
    # the window widens with the predicted speed: refuse it before allocating it
    if not width / h < _VELOCITY_MAX_POINTS:
        raise ValueError(f"a window {width:.6g} wide at step {h:g} needs more than "
                         f"{_VELOCITY_MAX_POINTS} points (predicted speed {v:.6g})")
    cfg = SimConfig(x0, x1, int(width / h) + 1, 0.0, duration, n_checkpoints=9, method="rkc")
    _check_work(cfg, h)
    return cfg


def cmd_velocity(args) -> int:
    sampler = _build(args)
    cfg = _usage("--h", _velocity_setup, sampler, args.h)
    hist = _usage("--h", integrate, sampler.equation, sampler, cfg)
    rep = _usage("--h", compare_exact, hist, sampler, registration=True)
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
        "shape_error": rep.shape_error,
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
        _emit(csv_path, _csv_text(X[:, 0], T[0, :], u), outputs)
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

    sub.add_parser("list", help="enumerate solution families (JSON)").set_defaults(run=cmd_list)

    p = sub.add_parser("sample", help="sample a family onto a grid (CSV)")
    p.set_defaults(run=cmd_sample)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None, help="JSON object of family parameters")
    p.add_argument("--grid", default=None, help="x0,x1,nx,t0,t1,nt")
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true")

    p = sub.add_parser("verify", help="PDE residual with convergence order")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--order", type=int, default=4, choices=(2, 4))
    p.add_argument("--tol", type=float, default=None,
                   help="max residual of a converging verdict (default: RESIDUAL_TOL[order])")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ode-check", help="chain-element checks and the assertion suite")
    p.set_defaults(run=cmd_ode_check)
    p.add_argument("--chain-index", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="method-of-lines run against the exact profile")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--window", required=True, help="x0,x1,nx")
    p.add_argument("--time", required=True, help="t0,t1")
    p.add_argument("--checkpoints", type=int, default=9)
    p.add_argument("--safety", type=float, default=0.9)
    p.add_argument("--space-order", type=int, default=4, choices=(2, 4))
    p.add_argument("--registration", action="store_true")
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("velocity", help="measured vs predicted front velocity")
    p.set_defaults(run=cmd_velocity)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--out", default=None)

    p = sub.add_parser("chain", help="first-integral constants and pole inventory")
    p.set_defaults(run=cmd_chain)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out", default=None)

    p = sub.add_parser("figures", help="plot data for the catalog showcase figures")
    p.set_defaults(run=cmd_figures)
    p.add_argument("--id", default=None, help="comma-separated figure ids (default all)")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--gnuplot", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args never writes to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # argparse before Python 3.13 drops the value "--" of --flag=-- and stores
    # an empty list, past the flag's type; no flag takes a list
    for name, value in vars(args).items():
        if value == []:
            _parser().error(f"argument --{name.replace('_', '-')}: expected one argument")
    # numpy raises where it would warn: a value that overflows or turns invalid
    # ends the command as a usage error instead of reaching an output as inf or nan
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            return args.run(args)
        except FloatingPointError as exc:
            raise SystemExit(f"{args.command}: {exc}; the parameters or the grid leave "
                             "the floating-point range") from None
        except MemoryError as exc:  # numpy's "Unable to allocate ..." included
            detail = f" ({exc})" if str(exc) else ""
            raise SystemExit(f"{args.command}: out of memory{detail}; ask for a smaller "
                             "grid, window or sample count") from None


if __name__ == "__main__":
    sys.exit(main())
