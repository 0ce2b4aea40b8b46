"""Workload definitions: seeded inputs, timed operations and their checks.

Every operation drives rdwaves through its public API, ``rdwaves.cli.main``
or the library functions, always looked up on the module at call time so
that a traced run sees its wrappers.  Inputs are drawn from the seed once,
during set-up; the timed call sees only the generated arguments.  Each
operation carries a check that runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rdwaves import catalog, cli, verify

# the CLI's order-4 verdict: converges when order >= 3.5 and max <= 1e-6
MIN_ORDER = 3.5
RESIDUAL_TOL = 1e-6
VELOCITY_REL_TOL = 0.01  # the velocity subcommand's own exit-code rule
SIMULATION_TOL = 1e-4  # max checkpoint error bound of the simulation tests


@dataclass
class Outcome:
    """Result of one operation's check; ``known`` names a seed-state disagreement."""

    ok: bool
    note: str = ""
    known: str = ""
    value: float | None = None


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ordered operations of one pass; every pass repeats the same list."""
    builders = {"verify-sweep": _verify_sweep, "front-velocity": _front_velocity,
                "figures-emit": _figures_emit}
    return builders[workload](np.random.default_rng(seed), workdir)


# ---------------------------------------------------------------- inputs

# the acceptance suite's non-chain residual cases; chain cases are
# enumerated separately for every kind at indices 0-6
RESIDUAL_CORE = [
    ("chain-exp", {"sign": -1, "kind": "direct", "index": 0}),
    ("chain-exp", {"sign": 1, "kind": "direct", "index": 0}),
    ("chain-exp", {"sign": -1, "kind": "direct", "index": 1}),
    ("chain-exp", {"sign": 1, "kind": "focusing", "index": 0}),
    ("chain-exp", {"sign": -1, "kind": "focusing", "index": 0}),
    ("plane-wave", {"n": 2.0, "c1": -1.0, "c2": 1.0, "lambda2": 0.0}),
    ("plane-wave", {"n": 3.0, "c1": -1.0, "c2": 1.0, "lambda2": 0.0}),
    ("plane-wave", {"n": 2.0, "c1": -2.0, "c2": 1.0, "lambda2": -3.0}),
    ("solitary", {"n": 2.0, "nu": -1.5, "sigma": 0.9, "branch": "tanh"}),
    ("solitary", {"n": 3.0, "nu": -2.0, "sigma": 1.5, "branch": "tanh"}),
    ("solitary", {"n": 2.0, "nu": -1.5, "sigma": 0.9, "branch": "tanh_inverse"}),
    ("solitary", {"n": 2.0, "nu": 0.8, "sigma": 0.9, "branch": "tan", "C": -1.2}),
    ("solitary", {"n": 2.0, "nu": 0.0, "sigma": 0.9, "branch": "rational"}),
    ("fisher-exp", {"c2": 1.0}),
    ("fisher-front", {"form": "tanh"}),
    ("fisher-front", {"form": "coth"}),
    ("fisher-weierstrass", {"C": 1e2}),
    ("fisher-weierstrass", {"C": 1e4}),
    ("fisher-weierstrass", {"C": 1e6}),
    ("bell", {"epsilon": 0.3}),
    ("generalized-fisher", {"c1": 2.0}),
    ("generalized-fisher", {"c1": -2.0}),
    ("generalized-fisher", {"c1": 2.0, "form": "coth"}),
    ("quadratic-rational", {"sign": 1}),
    ("quadratic-rational", {"sign": -1}),
]

CHAIN_KINDS = ([("direct", i) for i in range(7)] + [("inverse", i) for i in (1, 3, 5)]
               + [("focusing", i) for i in (0, 2, 4, 6)])

# a fixed case that disagrees with its catalog verdict at the seed state
# (ROADMAP's parameter-space item names it)
KNOWN_CASES = [("generalized-fisher", {"c1": 0.0})]


def known_disagreement(family: str, p: dict) -> str:
    """Why a residual-clean case fails its verdict at the seed state, or ''."""
    if family == "chain" and (p["kind"], p["index"]) in {("direct", 5), ("direct", 6),
                                                         ("inverse", 5)}:
        return "chain index 5/6 on its suggested window: max 1.3-1.5e-4 at order ~3.67"
    if family == "fisher-weierstrass" and p["C"] < 0:
        return "fisher-weierstrass C < 0: max 2.9e-6 at order 3.99"
    if family == "generalized-fisher" and p["c1"] == 0.0:
        return "generalized-fisher c1 = 0 builds u = 0: order undefined"
    return ""


# (n, c1, lambda2) of the plane-wave acceptance cases (criteria 4 and 8)
PLANE_WAVE_CASES = [(2.0, -1.0, 0.0), (3.0, -1.0, 0.0), (2.0, -2.0, -3.0)]
# solitary branch -> [(n, nu, (C_lo, C_hi))]: (n, nu) of the acceptance cases,
# C between the values the tests use on that branch
SOLITARY_CASES = {
    "tanh": [(2.0, -1.5, (0.0, 0.4)), (3.0, -2.0, (0.0, 0.0))],
    "tanh_inverse": [(2.0, -1.5, (0.0, 0.0))],
    "tan": [(2.0, 0.8, (-1.2, 0.0))],
    "rational": [(2.0, 0.0, (0.0, 0.0))],
}


def draw_params(family: str, rng: np.random.Generator, sign: float = 0.0,
                case: int | str | None = None) -> dict:
    """Parameters drawn between values the repository itself uses for the family.

    The sources are the acceptance cases, the tests, the figures, the README
    and ROADMAP (``benchmarks/DESIGN.md`` lists them); a parameter with one
    such value keeps it.  ``sign`` fixes the sign of a drawn parameter that
    has one (fisher-weierstrass C, generalized-fisher c1); 0 draws it.
    ``case`` fixes the discrete choice: an index into PLANE_WAVE_CASES, or a
    solitary branch; None draws it.
    """
    def pm():
        return sign if sign else float(rng.choice([-1.0, 1.0]))

    if family == "chain":
        kind, index = CHAIN_KINDS[rng.integers(len(CHAIN_KINDS))]
        return {"kind": kind, "index": index, "sign": int(pm())}
    if family == "chain-exp":
        combos = [p for f, p in RESIDUAL_CORE if f == "chain-exp"]
        return dict(combos[rng.integers(len(combos))])
    if family == "plane-wave":
        n, c1, lambda2 = PLANE_WAVE_CASES[
            rng.integers(len(PLANE_WAVE_CASES)) if case is None else case]
        return {"n": n, "c1": c1, "c2": float(rng.uniform(0.8, 1.0)), "lambda2": lambda2}
    if family == "solitary":
        branch = str(rng.choice(list(SOLITARY_CASES))) if case is None else case
        cases = SOLITARY_CASES[branch]
        n, nu, (c_lo, c_hi) = cases[rng.integers(len(cases))]
        return {"n": n, "nu": nu, "sigma": float(rng.uniform(0.5, 1.5)), "branch": branch,
                "C": float(rng.uniform(c_lo, c_hi))}
    if family == "fisher-front":
        return {"form": str(rng.choice(["tanh", "coth"])), "complement": bool(rng.integers(2))}
    if family == "fisher-exp":
        return {"c2": float(rng.uniform(0.8, 1.0))}
    if family == "fisher-weierstrass":
        s = pm()
        lo, hi = (2.0, 6.0) if s > 0 else (np.log10(5.0), 4.0)
        return {"C": s * float(10.0 ** rng.uniform(lo, hi))}
    if family == "generalized-fisher":
        c1 = pm() * float(rng.uniform(1.0, 2.0))
        return {"c1": c1, "form": str(rng.choice(["tanh", "coth"])) if c1 > 0 else "tanh"}
    if family == "bell":
        return {"epsilon": 0.3, "C": float(rng.uniform(0.0, 0.4))}
    if family == "quadratic-rational":
        return {"sign": int(pm())}
    raise ValueError(f"no parameter range for family {family!r}")


# ---------------------------------------------------------------- helpers

def _cli(argv: list[str]) -> tuple[int, str]:
    """``rdwaves.cli.main(argv)`` with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _parse_csv(path: Path, header: str) -> np.ndarray:
    """Rows of a CSV of numbers (``nan`` allowed) under the given header.

    numpy's C reader parses it, with correct rounding and without holding the
    text, so the check needs less memory than the program's own writer.
    """
    with path.open() as f:
        head = f.readline().rstrip("\n")
        if head != header:
            raise ValueError(f"CSV header is {head!r}, not {header!r}")
        return np.loadtxt(f, delimiter=",", ndmin=2)


def _grid_matches(path: Path, X, T, u, defined) -> str:
    """'' when the CSV reads back exactly to the independently sampled grid."""
    x, t, uc, dc = _parse_csv(path, "x,t,u,defined").T
    if x.size != X.size:
        return f"{x.size} rows, expected {X.size}"
    if not (np.array_equal(x, X.ravel()) and np.array_equal(t, T.ravel())):
        return "grid coordinates differ"
    if not np.array_equal(dc, defined.ravel()):
        return "defined flags differ"
    if not np.array_equal(uc, u.ravel(), equal_nan=True):
        return "values differ from an independent sample"
    return ""


class _FileCheck:
    """Checks each written file once per distinct content; repeats compare digests."""

    def __init__(self, verify_file: Callable[[Path], str]):
        self.verify_file = verify_file
        self.verified: set[str] = set()

    def __call__(self, path: Path) -> str:
        with path.open("rb") as f:
            digest = hashlib.file_digest(f, "sha256").hexdigest()
        if digest in self.verified:
            return ""
        problem = self.verify_file(path)
        if not problem:
            self.verified.add(digest)
        return problem


def _writing_op(label: str, kind: str, argv: list[str],
                 files: list[tuple[Path, Callable[[Path], str]]]) -> Op:
    """A CLI command that must exit 0 and write files that pass their checks."""
    checks = [(path, _FileCheck(verify_file)) for path, verify_file in files]

    def run():
        return _cli(argv)

    def check(res) -> Outcome:
        rc, _ = res
        if rc != 0:
            return Outcome(False, f"exit {rc}")
        for path, file_check in checks:
            problem = file_check(path)
            if problem:
                return Outcome(False, f"{path.name}: {problem}")
        return Outcome(True)

    return Op(label, kind, run, check)


# ---------------------------------------------------------------- verify-sweep

def _verdict_op(family: str, params: dict, control: bool) -> Op:
    sampler = catalog.build_family(family, dict(params))
    known = "" if control else known_disagreement(family, sampler.params)
    if control:
        sampler = sampler.perturbed()
    x0, x1, t0, t1 = sampler.suggested_window
    nx, nt = sampler.suggested_resolution
    grid = verify.Grid2D(x0, x1, nx, t0, t1, nt)
    expected = sampler.residual_clean

    def run():
        return verify.pde_residual(sampler, sampler.equation, grid, 4)

    def check(rep) -> Outcome:
        converged = (rep.order_estimate or 0.0) >= MIN_ORDER and rep.max_abs <= RESIDUAL_TOL
        if converged == expected:
            return Outcome(True, value=rep.max_abs)
        if known and not converged:
            return Outcome(True, known=known, value=rep.max_abs)
        return Outcome(False, f"verdict {'converges' if converged else 'does not converge'}, "
                              f"expected the opposite (order {rep.order_estimate}, "
                              f"max {rep.max_abs:.3e})", value=rep.max_abs)

    label = f"pde_residual {family} {json.dumps(params, sort_keys=True)}"
    return Op(label + (" perturbed" if control else ""), "verdict", run, check)


def _potential_ops() -> list[Op]:
    cases = [
        ("chain-potential[0]", catalog.z_from_phi(0), {"k": 1.0},
         verify.Grid2D(0.45, 0.85, 33, 0.04, 0.1, 17), 1e-6),
        ("plane-wave-potential", catalog.z_plane_wave(2.0, -1.0, 0.8, 0.0),
         {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, verify.Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17),
         1e-7),
    ]
    ops = []
    for label, z, params, grid, tol in cases:
        def run(z=z, params=params, grid=grid):
            return verify.potential_residual(z, params, grid)

        def check(rep, tol=tol) -> Outcome:
            ok = rep.max_abs < tol and (rep.order_estimate or 0.0) > 3.0
            return Outcome(ok, "" if ok else f"max {rep.max_abs:.3e}, order {rep.order_estimate}",
                           value=rep.max_abs)

        ops.append(Op(f"potential_residual {label}", "potential", run, check))
    return ops


def _ode_ops(max_index: int = 6) -> list[Op]:
    ops = []
    for index in range(max_index + 1):
        state = catalog.phi_chain(index)
        c_n = catalog.chain_constant(index)

        def run(index=index, state=state):
            return verify.ode_residual(state, verify.clean_chain_samples(index, 200))

        def check(rep, c_n=c_n) -> Outcome:
            # first-integral-normalized, as in the proposition suite
            scale = abs(c_n)
            dev = max(abs(rep.c_estimate - c_n) / scale, rep.first_integral_std / scale,
                      rep.second_order_max / scale ** 0.75)
            ok = dev <= 1e-7
            return Outcome(ok, "" if ok else f"normalized deviation {dev:.3e}", value=dev)

        ops.append(Op(f"ode_residual index {index}", "ode", run, check))

        def run_suite(index=index):
            return verify.proposition_suite(max_index=index)

        def check_suite(rows, index=index) -> Outcome:
            failed = [r for r in rows if not r.passed]
            ok = len(rows) == 2 * (index + 1) and not failed
            return Outcome(ok, "" if ok else f"{len(failed)} of {len(rows)} rows fail")

        ops.append(Op(f"proposition_suite max_index {index}", "propositions", run_suite,
                      check_suite))
    return ops


def _chain_command_op(depth: int = 6) -> Op:
    expected = [catalog.chain_constant(n) for n in range(depth + 1)]

    def run():
        return _cli(["chain", "--depth", str(depth)])

    def check(res) -> Outcome:
        rc, out = res
        rows = out.strip().splitlines()[1:]
        got = [float(r.split()[1]) for r in rows]
        ok = rc == 0 and len(got) == depth + 1 and all(
            abs(g - e) <= 5e-7 * max(1.0, abs(e)) for g, e in zip(got, expected))
        return Outcome(ok, "" if ok else f"exit {rc}, constants {got}")

    return Op(f"cli chain --depth {depth}", "cli-chain", run, check)


def _verify_sweep(rng: np.random.Generator, workdir: Path) -> list[Op]:
    cases = [("chain", {"kind": k, "index": i, "sign": int(rng.choice([-1, 1]))})
             for k, i in CHAIN_KINDS]
    cases += RESIDUAL_CORE
    # plane-wave and solitary draws keep a fixed case per slot, so the seed
    # moves parameters and not the mix of op costs.  The n = 2 plane waves
    # and the tanh_inverse and rational solitary waves (14-19 ms a verdict)
    # fill the gap between the cheap verdicts (4-10 ms) and the elliptic ones
    # (28-60 ms), where the median op would otherwise sit
    draws = [(family, None) for family in ("chain-exp", "fisher-front", "fisher-exp",
                                           "generalized-fisher", "generalized-fisher",
                                           "bell", "quadratic-rational")]
    draws += [("plane-wave", k) for k in (0, 2) for _ in range(3)] + [("plane-wave", 1)]
    draws += [("solitary", b) for b in ("tanh_inverse", "rational") for _ in range(3)]
    draws += [("solitary", "tanh"), ("solitary", "tan")]
    cases += [(family, draw_params(family, rng, case=case)) for family, case in draws]
    # one positive and one negative C per pass: the negative one is a known disagreement
    cases += [("fisher-weierstrass", draw_params("fisher-weierstrass", rng, sign=s))
              for s in (1.0, -1.0)]
    cases += KNOWN_CASES
    ops = []
    for family, params in cases:
        ops.append(_verdict_op(family, params, control=False))
        ops.append(_verdict_op(family, params, control=True))
    return ops + _potential_ops() + _ode_ops() + [_chain_command_op()]


# ---------------------------------------------------------------- front-velocity

def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int,
                accept: Callable[[float], bool]) -> list[float]:
    """One draw per equal-width stratum of [lo, hi], redrawn until accepted."""
    width = (hi - lo) / count
    out = []
    for k in range(count):
        while True:
            v = float(rng.uniform(lo + k * width, lo + (k + 1) * width))
            if accept(v):
                out.append(v)
                break
    return out


def _velocity_op(family: str, params: dict) -> Op:
    argv = ["velocity", "--family", family]
    if params:
        argv += ["--params", json.dumps(params)]

    def run():
        return _cli(argv)

    def check(res) -> Outcome:
        rc, out = res
        fields = out.strip().splitlines()[-1].split()
        rel = float(fields[3])
        ok = rc == 0 and rel <= VELOCITY_REL_TOL
        return Outcome(ok, "" if ok else f"exit {rc}, relative error {rel:.3e}", value=rel)

    return Op(f"cli velocity {family} {json.dumps(params, sort_keys=True)}", "velocity",
              run, check)


def _simulate_op(workdir: Path) -> Op:
    prefix = workdir / "run"
    argv = ["simulate", "--family", "fisher-front", "--window=-10,14,481", "--time", "0,2",
            "--out", str(prefix)]
    x = np.linspace(-10.0, 14.0, 481)
    exact = catalog.build_family("fisher-front")

    def checkpoint(t: float) -> Callable[[str], str]:
        def verify_file(path: Path) -> str:
            cells = _parse_csv(path, "x,u")
            if not np.array_equal(cells[:, 0], x):
                return "checkpoint grid differs"
            u_exact, _ = exact.sample(x, t)
            err = float(np.max(np.abs(cells[:, 1] - u_exact)))
            return "" if err <= SIMULATION_TOL else f"checkpoint error {err:.3e} at t={t}"
        return verify_file

    files = [(prefix.parent / f"{prefix.name}_ck{k}.csv", checkpoint(float(t)))
             for k, t in enumerate(np.linspace(0.0, 2.0, 9))]
    return _writing_op("cli simulate fisher-front (README run)", "simulate", argv, files)


def _front_velocity(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = [_velocity_op(family, {}) for family in ("fisher-front", "fisher-exp", "plane-wave")]
    # stationary fronts (|v| < 0.1) are excluded: the relative error is undefined there
    def moving(c1):
        front = catalog.build_family("generalized-fisher", {"c1": c1})
        return abs(front.predicted_velocity) >= 0.1

    # c1 between the velocity cases of acceptance criterion 6, -2, -1, 1 and 2:
    # two strata of [-2, -1] and one draw from [1, 2].  A run's duration and
    # window follow the front speed, yet every c1 on one side costs about the
    # same, so a pass costs nearly the same from seed to seed.  The bell keeps
    # its one tested epsilon, 0.3, and draws C between the tests' 0 and 0.4;
    # its speed, and so its cost, does not depend on C
    c1s = _stratified(rng, -2.0, -1.0, 2, moving) + _stratified(rng, 1.0, 2.0, 1, moving)
    ops += [_velocity_op("generalized-fisher", {"c1": c1}) for c1 in c1s]
    ops.append(_velocity_op("bell", {"epsilon": 0.3, "C": float(rng.uniform(0.0, 0.4))}))
    ops.append(_simulate_op(workdir))
    return ops


# ---------------------------------------------------------------- figures-emit

# (family, n_x, n_t) of the sample slots; each pass samples every slot once.
# 31k-41k points a grid, near the figures' 21k-36k, so that sample and figure
# ops form one cluster of costs and the median op does not sit in a gap
SAMPLE_SLOTS = [
    ("chain", 321, 129), ("chain-exp", 241, 129), ("plane-wave", 321, 129),
    ("solitary", 281, 129), ("fisher-front", 401, 97), ("fisher-exp", 401, 97),
    ("fisher-weierstrass", 241, 161), ("generalized-fisher", 401, 97), ("bell", 321, 113),
    ("quadratic-rational", 281, 113),
]


def _figure_op(fig_id: int, outdir: Path) -> Op:
    argv = ["figures", "--id", str(fig_id), "--gnuplot", "--outdir", str(outdir)]

    def verify_file(path: Path) -> str:
        _, X, T, u, defined, _ = cli.figure_data(fig_id)
        return _grid_matches(path, X, T, u, defined)

    return _writing_op(f"cli figures --id {fig_id}", "figures", argv,
                       [(outdir / f"figure{fig_id}.csv", verify_file)])


def _sample_op(family: str, nx: int, nt: int, rng: np.random.Generator, outdir: Path) -> Op:
    params = draw_params(family, rng)
    sampler = catalog.build_family(family, dict(params))
    x0, x1, t0, t1 = sampler.suggested_window
    centre, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0) * float(rng.uniform(0.8, 1.25))
    centre += half * float(rng.uniform(-0.1, 0.1))
    grid = verify.Grid2D(centre - half, centre + half, nx,
                         t0, t0 + (t1 - t0) * float(rng.uniform(0.8, 1.25)), nt)
    out = outdir / f"sample-{family}.csv"
    grid_arg = f"--grid={grid.x_min!r},{grid.x_max!r},{nx},{grid.t_min!r},{grid.t_max!r},{nt}"
    argv = ["sample", "--family", family, "--params", json.dumps(params), grid_arg,
            "--out", str(out)]

    def verify_file(path: Path) -> str:
        X, T = np.meshgrid(grid.x, grid.t, indexing="ij")
        u, defined = catalog.build_family(family, dict(params)).sample(X, T)
        return _grid_matches(path, X, T, u, defined)

    return _writing_op(f"cli sample {family} {json.dumps(params, sort_keys=True)} {grid_arg}",
                       "sample", argv, [(out, verify_file)])


def _figures_emit(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = [_figure_op(fig_id, workdir / "figures") for fig_id in sorted(cli.FIGURES)]
    ops += [_sample_op(family, nx, nt, rng, workdir) for family, nx, nt in SAMPLE_SLOTS]
    return ops
