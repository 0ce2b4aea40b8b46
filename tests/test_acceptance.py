"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All ten criteria pass.  Criteria 7 (bell speed) and 9 (closed
forms of the low chain elements) assert the values derived from the
equations, and each also asserts that the transcribed reference value is
refuted, so the discrepancy stays on record; the printed line shows both.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from rdwaves.catalog import (
    build_family,
    chain_constant,
    closed_forms,
    crosscheck_closed_forms,
    phi_chain,
)
from rdwaves.cli import figure_gate
from rdwaves.elliptic import (
    MODULUS_INV_SQRT2,
    EllipticModulus,
    complete_elliptic_K,
    jacobi_sn_cn_dn,
)
from rdwaves.equations import Fisher, QuadraticDecay
from rdwaves.simulate import SimConfig, compare_exact, integrate, registration_velocity
from rdwaves.verify import Grid2D, clean_chain_samples, pde_residual

SQRT6 = math.sqrt(6.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_elliptic_kernel():
    rng = np.random.default_rng(42)
    worst = 0.0
    for kk in (0.1, 0.5, 1.0 / math.sqrt(2.0), 0.9):
        m = EllipticModulus(kk)
        K = complete_elliptic_K(m)
        y = rng.uniform(-4 * K, 4 * K, 10_000)
        sn, cn, dn = jacobi_sn_cn_dn(y, m)
        worst = max(worst,
                    float(np.max(np.abs(sn**2 + cn**2 - 1))),
                    float(np.max(np.abs(dn**2 + kk**2 * sn**2 - 1))))
    k = 1.0 / math.sqrt(2.0)
    oracle, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                       0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    k_dev = abs(complete_elliptic_K(MODULUS_INV_SQRT2) - oracle)
    ok = worst < 1e-12 and k_dev < 1e-12 and err < 5e-13
    report(1, ok, f"jacobi identities worst {worst:.2e} (<1e-12), "
                  f"K(1/sqrt2) vs quadrature {k_dev:.2e} (<1e-12)")
    assert ok


def test_criterion_02_chain_first_integrals():
    worst = 0.0
    for index in range(7):
        y = clean_chain_samples(index, 200, seed=100 + index)
        phi, dphi = phi_chain(index).eval(y)
        assert np.isfinite(phi).all() and np.isfinite(dphi).all()
        dev = float(np.max(np.abs(dphi**2 - phi**4 - chain_constant(index))))
        worst = max(worst, dev)
    ok = worst <= 1e-7
    report(2, ok, f"C_n = (-4)^n (-1/4) for n = 0..6, per-sample deviation "
                  f"{worst:.2e} (<=1e-7)")
    assert ok


def test_criterion_03_propositions():
    from rdwaves.verify import proposition_suite

    rows = proposition_suite(max_index=6, n_samples=200)
    worst = max(r.max_deviation for r in rows)
    ok = all(r.passed for r in rows)
    report(3, ok, f"assertion suite indices 0..6, worst deviation {worst:.2e} (<=1e-7)")
    assert ok, [(r.index, r.proposition, r.max_deviation) for r in rows if not r.passed]


RESIDUAL_CASES = [
    ("chain", {"kind": "direct", "index": 0}),
    ("chain", {"kind": "direct", "index": 1}),
    ("chain", {"kind": "direct", "index": 2}),
    ("chain", {"kind": "direct", "index": 3}),
    ("chain", {"kind": "direct", "index": 4}),
    ("chain", {"kind": "inverse", "index": 1}),
    ("chain", {"kind": "inverse", "index": 3}),
    ("chain", {"kind": "focusing", "index": 0}),
    ("chain", {"kind": "focusing", "index": 2}),
    ("chain", {"kind": "focusing", "index": 4}),
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
    ("fisher-weierstrass", {"C": 1e2, "reflect_y": True}),
    ("fisher-weierstrass", {"C": 1e4, "reflect_y": True}),
    ("bell", {"epsilon": 0.3}),
    ("generalized-fisher", {"c1": 2.0}),
    ("generalized-fisher", {"c1": -2.0}),
    ("generalized-fisher", {"c1": 2.0, "form": "coth"}),
    ("quadratic-rational", {"sign": 1}),
    ("quadratic-rational", {"sign": -1}),
]


def test_criterion_04_residual_convergence():
    failures = []
    worst_order, worst_max = math.inf, 0.0
    for family, params in RESIDUAL_CASES:
        s = build_family(family, dict(params))
        x0, x1, t0, t1 = s.suggested_window
        nx, nt = s.suggested_resolution
        rep = pde_residual(s, s.equation, Grid2D(x0, x1, nx, t0, t1, nt), 4)
        order = rep.order_estimate or 0.0
        worst_order = min(worst_order, order)
        worst_max = max(worst_max, rep.max_abs)
        if order < 3.5 or rep.max_abs > 1e-6:
            failures.append((family, params, order, rep.max_abs))
    # negative controls: mismatched pair and perturbed profile must not converge
    front = build_family("fisher-front")
    g = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
    bad1 = pde_residual(front, QuadraticDecay(), g, 4)
    bad2 = pde_residual(front.perturbed(0.01), Fisher(), g, 4)
    controls_ok = ((bad1.order_estimate or 0.0) < 1.0 and bad1.max_abs > 0.1
                   and (bad2.order_estimate or 0.0) < 1.0 and bad2.max_abs > 1e-3)
    ok = not failures and controls_ok
    report(4, ok, f"{len(RESIDUAL_CASES)} families: worst order {worst_order:.2f} "
                  f"(>=3.5), worst max residual {worst_max:.2e} (<=1e-6); "
                  f"negative controls diverge: {controls_ok}")
    assert ok, failures


# criteria 5-7 hold under both time steppers: RK4, and the RKC2 that
# `rdwaves velocity` marches with
METHODS = ("rk4", "rkc")


def test_criterion_05_fisher_velocity():
    s = build_family("fisher-front")
    predicted = 5.0 / SQRT6
    rels = {}
    for method in METHODS:
        cfg = SimConfig(-10.0, 14.0, 481, 0.0, 2.0, n_checkpoints=9, method=method)  # h = 0.05
        hist = integrate(s.equation, s, cfg)
        rep = compare_exact(hist, s, level=0.5)
        rels[method] = abs(rep.measured_velocity - predicted) / predicted
        report(5, rels[method] <= 0.01, f"{method}: front speed {rep.measured_velocity:.6f} vs "
                                        f"5/sqrt6 = {predicted:.6f} (rel err "
                                        f"{rels[method]:.2e} <= 1e-2)")
    assert max(rels.values()) <= 0.01, rels


def test_criterion_06_generalized_fisher_velocities():
    failures = []
    for c1, method in itertools.product((-2.0, -1.0, 1.0, 2.0), METHODS):
        s = build_family("generalized-fisher", {"c1": c1})
        v = s.predicted_velocity
        span = 7.0 + abs(v) * 2.0 + 2.0
        x0 = -span if v < 0 else -7.0
        x1 = 7.0 if v < 0 else span
        cfg = SimConfig(x0, x1, int((x1 - x0) / 0.05) + 1, 0.0, 2.0, n_checkpoints=9,
                        method=method)
        hist = integrate(s.equation, s, cfg)
        rep = compare_exact(hist, s, level=0.5 * c1**2)
        expected = abs(2.0 * c1 - 3.0) / SQRT6
        rel = abs(abs(rep.measured_velocity) - expected) / expected
        if rel > 0.01:
            failures.append((c1, method, rep.measured_velocity, expected))
    gf = build_family("generalized-fisher", {"c1": -1.0})
    ff = build_family("fisher-front")
    y = np.linspace(-8.0, 8.0, 401)
    ug, _ = gf.sample(y, 0.37)
    uf, _ = ff.sample(y, 0.37)
    pointwise = float(np.max(np.abs(ug - uf)))
    ok = not failures and pointwise <= 1e-12
    report(6, ok, f"speeds |2c1-3|/sqrt6 matched within 1% for c1 in "
                  f"{{-2,-1,1,2}} under rk4 and rkc; c1=-1 equals the Fisher front to "
                  f"{pointwise:.2e}")
    assert ok, failures


def _bell_balance_speed(eps: float) -> float:
    """Speed that balances u = (3/2) sech^2(s), s = (x - v t)/2 + C, in
    u_t - u_xx = u(u - 1 + eps sqrt(3/2 - u)) on s > 0.

    With w = sech^2 s and T = tanh s the left side is
    1.5 v w T - 1.5 w + 2.25 w^2 and the right side is
    2.25 w^2 - 1.5 w + 1.5 eps sqrt(3/2) w |T|, so v = eps sqrt(3/2)
    = 3 eps/sqrt6.  The balance is solved for v pointwise and must not
    depend on s.
    """
    s = np.linspace(0.1, 3.0, 30)
    w = 1.0 / np.cosh(s) ** 2
    T = np.tanh(s)
    u = 1.5 * w
    u_xx = 1.5 * w - 2.25 * w**2
    f = u * (u - 1.0 + eps * np.sqrt(1.5 - u))
    v = (f + u_xx) / (1.5 * w * T)
    assert np.ptp(v) <= 1e-12 * abs(v[0])
    return float(v[0])


def test_criterion_07_bell_translation():
    # The bell translates at the speed that balances the traveling wave,
    # 3 eps/sqrt6; the transcribed value eps/sqrt6 is a third of it and is
    # asserted refuted.
    eps = 0.3
    s = build_family("bell", {"epsilon": eps})
    derived = _bell_balance_speed(eps)
    transcribed = eps / SQRT6
    for method in METHODS:
        cfg = SimConfig(1.2, 9.5, 333, 0.0, 2.0, n_checkpoints=9, method=method)
        hist = integrate(s.equation, s, cfg)
        v, r2, shape_err = registration_velocity(hist)
        rel_derived = abs(v - derived) / derived
        rel_transcribed = abs(v - transcribed) / transcribed
        ok = rel_derived <= 0.01 and shape_err <= 1e-3 and rel_transcribed > 0.5
        report(7, ok, f"{method}: bell speed measured {v:.6f} vs derived 3 eps/sqrt6 = "
                      f"{derived:.6f} (rel err {rel_derived:.2e} <= 1e-2); shape "
                      f"error {shape_err:.2e} (<=1e-3); transcribed eps/sqrt6 = "
                      f"{transcribed:.6f} refuted (rel err {rel_transcribed:.2f} > 0.5)")
        assert shape_err <= 1e-3, method
        assert rel_derived <= 0.01, method
        assert rel_transcribed > 0.5, (
            f"{method}: measured speed {v:.6f} matches the transcribed eps/sqrt6 = "
            f"{transcribed:.6f}, not the traveling-wave balance {derived:.6f} "
            "(see the perturbed_fisher_bell docstring in src/rdwaves/catalog.py)"
        )


def test_criterion_08_plane_wave_velocities():
    cases = [(2.0, -1.0, 0.0, 0.5, 0.4), (3.0, -1.0, 0.0, -0.5, 0.6),
             (2.0, -2.0, -3.0, 2.0, 0.3)]
    failures = []
    for n, c1, lam2, level, t1 in cases:
        s = build_family("plane-wave", {"n": n, "c1": c1, "c2": 1.0, "lambda2": lam2})
        v = s.predicted_velocity
        x0, x1 = -7.0, 7.0 + v * t1 + 2.0
        cfg = SimConfig(x0, x1, int((x1 - x0) / 0.05) + 1, 0.0, t1, n_checkpoints=9)
        hist = integrate(s.equation, s, cfg)
        rep = compare_exact(hist, s, level=level)
        k = 2.0 / (n - 1.0)
        expected = k + 1.0 - k * c1
        rel = abs(rep.measured_velocity - expected) / abs(expected)
        if rel > 0.01:
            failures.append((n, c1, rep.measured_velocity, expected))
    ok = not failures
    report(8, ok, "plane-wave speeds k+1-kc1 matched within 1% for "
                  "(n,c1) in {(2,-1),(3,-1),(2,-2)}")
    assert ok, failures


def test_criterion_09_closed_form_crosschecks():
    rep = crosscheck_closed_forms(100)
    matching = ("u1", "u2", "u3_corrected", "tilde1", "hat0", "hat2")
    devs = {name: rep[name]["max_abs_deviation"] for name in matching}
    # the transcribed inner constant (9/4) sqrt2 is not even a constant
    # multiple of the chain, in u3 and in its inverse-family twin tilde3
    refuted = {name: rep[name]["max_abs_deviation"] > 1e-3
               and rep[name]["ratio_spread"] > 0.1
               for name in ("u3_printed", "tilde3_printed")}
    u3p, t3 = rep["u3_printed"], rep["tilde3_printed"]
    ok = max(devs.values()) <= 1e-9 and all(refuted.values())
    report(9, ok, ", ".join(f"|{name}| dev {dev:.2e}" for name, dev in devs.items())
                  + f" (<=1e-9); transcribed u3 form refuted: {refuted['u3_printed']} "
                  f"(dev {u3p['max_abs_deviation']:.2e} > 1e-3, ratio spread "
                  f"{u3p['ratio_spread']:.3f} > 0.1); transcribed tilde3 form "
                  f"refuted: {refuted['tilde3_printed']} (median ratio "
                  f"{t3['median_ratio']:.3f}, spread {t3['ratio_spread']:.3f})")
    assert max(devs.values()) <= 1e-9, devs
    assert all(refuted.values()), (
        "a transcribed form with inner constant (9/4) sqrt2 matches the "
        f"recurrence ({refuted}); the derived inner constant is 1/2 "
        "(see the closed_forms docstring in src/rdwaves/catalog.py)"
    )


def test_criterion_10_figures():
    failures = []
    for fig_id in range(1, 9):
        gate = figure_gate(fig_id)
        if not (gate["defined_fraction"] >= 0.9 and gate["finite"]
                and (gate["residual_order"] or 0.0) >= 3.5):
            failures.append(gate)
    ok = not failures
    report(10, ok, "figure data 1..8 finite with defined fraction >= 0.9 and "
                   "residual gate order >= 3.5")
    assert ok, failures
