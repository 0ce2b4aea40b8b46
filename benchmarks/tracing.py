"""Spans around rdwaves' public functions, installed from outside the package.

A traced run replaces every module binding of the traced functions (``cli``
imports ``integrate`` and ``pde_residual`` by name, ``catalog`` imports
``jacobi_sn_cn_dn``) and the traced methods at class level, and restores
them afterwards.  Spans are kept in memory as
(name, start, end, parent, op, points, error) and written out at the end;
per-layer counts and self times are derived from them, self time being a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np

import rdwaves.catalog as catalog
import rdwaves.cli as cli
import rdwaves.elliptic as elliptic
import rdwaves.equations as equations
import rdwaves.simulate as simulate
import rdwaves.verify as verify

MODULES = (elliptic, equations, catalog, verify, simulate, cli)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _no_points(args, kwargs, result):
    return 0


def _first_arg_size(args, kwargs, result):
    return int(np.size(args[0]))


def _result_size(args, kwargs, result):
    return int(np.size(result[0]))


def _rhs_size(args, kwargs, result):
    return int(np.size(args[1]))


def _finest_points(args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    return (4 * grid.n_x - 3) * (4 * grid.n_t - 3)


def _steps(args, kwargs, result):
    return int(result.steps_taken)


def _text_bytes(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "text").encode())


# span name -> (function, points); points are elements evaluated, finest-grid
# points for pde, RK4 steps for integrate and bytes for writes
FUNCTIONS = [
    ("elliptic.jacobi", elliptic.jacobi_sn_cn_dn, _first_arg_size),
    ("elliptic.weierstrass", elliptic.weierstrass_p, _first_arg_size),
    ("catalog.build", catalog.build_family, _no_points),
    ("verify.pde", verify.pde_residual, _finest_points),
    ("verify.potential", verify.potential_residual, _no_points),
    ("verify.ode", verify.ode_residual, _no_points),
    ("verify.ode", verify.clean_chain_samples, _no_points),
    ("verify.ode", verify.proposition_suite, _no_points),
    ("simulate.integrate", simulate.integrate, _steps),
    ("simulate.compare", simulate.compare_exact, _no_points),
    ("simulate.register", simulate.register_shift, _no_points),
    ("cli.main", cli.main, _no_points),
    ("cli.figure_data", cli.figure_data, _no_points),
    ("cli.write", cli._atomic_write, _text_bytes),
]


def _methods():
    out = [("catalog.sample", catalog.Sampler, "sample", _result_size),
           ("catalog.phi", catalog.PhiState, "eval", _result_size)]
    pending = list(equations.EquationSpec.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "rhs" in vars(cls):
            out.append(("equations.rhs", cls, "rhs", _rhs_size))
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, points):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, tracer.op, 0, True)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, tracer.op, points(args, kwargs, result), False)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        for name, fn, points in FUNCTIONS:
            wrapper = self._wrap(name, fn, points)
            for mod in MODULES:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        for name, cls, attr, points in _methods():
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, points))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5], int(s[6])] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                               "points", "error"],
                                    "names": names, "spans": rows}, separators=(",", ":")))


def layer_metrics(spans: list, ranges: list[tuple[int, int]], n_figures: int) -> dict:
    """Per-layer counts, self times and ratios over the spans in ``ranges``."""
    selected = [i for lo, hi in ranges for i in range(lo, hi)]
    child = {i: 0.0 for i in selected}
    # enclosing integrate / pde span of each span, found top-down: parents precede children
    within: dict[int, int] = {}
    for i in selected:
        name, start, end, parent = spans[i][:4]
        if parent >= 0:
            child[parent] += end - start
        if name in ("simulate.integrate", "verify.pde"):
            within[i] = i
        elif parent in within:
            within[i] = within[parent]

    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    under_integrate = {"catalog.sample": 0, "equations.rhs": 0}
    pde_sampled = 0
    for i in selected:
        name, start, end, _, _, pts, err = spans[i]
        calls[name] = calls.get(name, 0) + 1
        points[name] = points.get(name, 0) + pts
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        layer = name.split(".")[0]
        errors[layer] = errors.get(layer, 0) + int(err)
        if i in within and within[i] != i:
            owner = spans[within[i]][0]
            if owner == "simulate.integrate" and name in under_integrate:
                under_integrate[name] += 1
            elif owner == "verify.pde" and name == "catalog.sample":
                pde_sampled += pts

    def c(name):
        return calls.get(name, 0)

    def p(name):
        return points.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = p("simulate.integrate")
    cli_self = s("cli.main") + s("cli.figure_data") + s("cli.write")
    out = {}
    for key, span in (("jacobi", "elliptic.jacobi"), ("weierstrass", "elliptic.weierstrass")):
        out[f"elliptic.{key}.calls"] = c(span)
        out[f"elliptic.{key}.points"] = p(span)
        out[f"elliptic.{key}.self_s"] = s(span)
        out[f"elliptic.{key}.mpts_per_s"] = ratio(p(span), s(span)) / 1e6
    out.update({
        "catalog.sample.calls": c("catalog.sample"),
        "catalog.sample.points": p("catalog.sample"),
        "catalog.sample.points_per_call": ratio(p("catalog.sample"), c("catalog.sample")),
        "catalog.sample.self_s": s("catalog.sample"),
        "catalog.phi.points": p("catalog.phi"),
        "catalog.phi.self_s": s("catalog.phi"),
        "catalog.build.calls": c("catalog.build"),
        "catalog.build.self_s": s("catalog.build"),
        "equations.rhs.calls": c("equations.rhs"),
        "equations.rhs.points": p("equations.rhs"),
        "equations.rhs.self_s": s("equations.rhs"),
        "verify.pde.calls": c("verify.pde"),
        "verify.pde.self_s": s("verify.pde"),
        "verify.pde.sampled_points": pde_sampled,
        "verify.pde.sampled_per_finest": ratio(pde_sampled, p("verify.pde")),
        "verify.potential.calls": c("verify.potential"),
        "verify.potential.self_s": s("verify.potential"),
        "verify.ode.calls": c("verify.ode"),
        "verify.ode.self_s": s("verify.ode"),
        "verify.errors": errors.get("verify", 0),
        "simulate.integrate.calls": c("simulate.integrate"),
        "simulate.integrate.self_s": s("simulate.integrate"),
        "simulate.steps": steps,
        "simulate.steps_per_s": ratio(steps, total_s.get("simulate.integrate", 0.0)),
        # the one initial-profile sample per integrate call is not a step's work
        "simulate.sample_calls_per_step": ratio(
            under_integrate["catalog.sample"] - c("simulate.integrate"), steps),
        "simulate.rhs_calls_per_step": ratio(under_integrate["equations.rhs"], steps),
        "simulate.compare.self_s": s("simulate.compare"),
        "simulate.register.calls": c("simulate.register"),
        "simulate.register.self_s": s("simulate.register"),
        "simulate.errors": errors.get("simulate", 0),
        "cli.self_s": cli_self,
        "cli.bytes_written": p("cli.write"),
        "cli.write_mb_per_s": ratio(p("cli.write"), cli_self) / 1e6,
        "cli.figure_data_per_figure": ratio(c("cli.figure_data"), n_figures),
    })
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Key-wise median over passes; counts are equal in every pass."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
