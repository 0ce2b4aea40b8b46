"""Catalog construction: chain recurrence, closed-form cross-checks, samplers."""

import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdwaves.catalog import (
    FAMILIES,
    CatalogError,
    _masked_pow,
    build_family,
    chain_constant,
    closed_forms,
    cosh_cos_solution,
    crosscheck_closed_forms,
    elliptic_solution,
    family_info,
    fisher_exponential,
    fisher_front,
    fisher_weierstrass,
    generalized_fisher,
    perturbed_fisher_bell,
    phi_chain,
    plane_wave,
    potential_transform,
    quadratic_rational,
    solitary_wave,
    z_from_phi,
    z_plane_wave,
)
from rdwaves.elliptic import (
    MODULUS_INV_SQRT2,
    POLE_EPS,
    WeierstrassInvariants,
    complete_elliptic_K,
    jacobi_sn_cn_dn,
    weierstrass_p,
)
from rdwaves.verify import _well_conditioned

K = complete_elliptic_K(MODULUS_INV_SQRT2)
SQRT6 = math.sqrt(6.0)


def recurrence_eval(state, y):
    """(phi, phi') of the chain element through its recurrence: the last of levels."""
    *_, last = state.levels(y)
    return last


def chain_samples(index: int, n: int = 300, lo: float = 0.05, seed: int = 3):
    """Random y avoiding poles/zeros of every element up to the given index."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(lo, 2 * K - lo, 40 * n)
    keep = np.ones_like(y, dtype=bool)
    for j in range(index + 1):
        phi, dphi = phi_chain(j).eval(y)
        keep &= np.isfinite(phi) & (np.abs(phi) > 5e-2) & (np.abs(phi) < 4e1) & (np.abs(dphi) < 4e3)
    y = y[keep]
    assert y.size >= n, f"only {y.size} clean samples for index {index}"
    return y[:n]


class TestPhiChain:
    def test_seed_values_and_derivative(self):
        # phi0 = ds with phi0' = -cs*ns, cross-checked by finite differences
        y = 1.0
        phi, dphi = phi_chain(0).eval(y)
        sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        assert np.isfinite(phi) and np.isfinite(dphi)
        assert phi == pytest.approx(dn / sn, abs=1e-14)
        h = 1e-5
        f = lambda q: phi_chain(0).eval(q)[0]
        fd = (f(y - 2 * h) - 8 * f(y - h) + 8 * f(y + h) - f(y + 2 * h)) / (12 * h)
        assert dphi == pytest.approx(fd, abs=1e-10)
        assert dphi == pytest.approx(-cn / sn**2, abs=1e-12)

    def test_first_element_is_cs_over_dn(self):
        y = chain_samples(1, 50)
        phi, _ = phi_chain(1).eval(y)
        sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        assert np.isfinite(phi).all()
        assert np.max(np.abs(phi - (-cn / sn / dn))) < 1e-12

    def test_constants(self):
        assert chain_constant(0) == -0.25
        assert chain_constant(1) == 1.0
        assert chain_constant(3) == 16.0
        for n in range(6):
            assert chain_constant(n + 1) == -4.0 * chain_constant(n)

    def test_constant_overflow_names_the_index(self):
        assert math.isfinite(chain_constant(511))
        with pytest.raises(CatalogError, match="chain index 512"):
            chain_constant(512)
        with pytest.raises(CatalogError, match="chain index 600"):
            chain_constant(np.int64(600))
        with pytest.raises(CatalogError, match="chain index 600"):
            phi_chain(600)
        with pytest.raises(CatalogError, match="chain index 600"):
            build_family("chain", {"index": 600})

    @pytest.mark.parametrize("index", range(7))
    def test_first_integral_along_chain(self, index):
        y = chain_samples(index, 200)
        phi, dphi = phi_chain(index).eval(y)
        assert np.isfinite(phi).all() and np.isfinite(dphi).all()
        resid = dphi**2 - phi**4 - chain_constant(index)
        assert np.max(np.abs(resid)) < 1e-8

    def test_derivative_propagation_matches_fd(self):
        # analytic derivative of each element vs a finite difference on it
        for index in (1, 2, 3):
            y = chain_samples(index, 40)
            h = 1e-5
            f = lambda q: phi_chain(index).eval(q)[0]
            fd = (f(y - 2 * h) - 8 * f(y - h) + 8 * f(y + h) - f(y + 2 * h)) / (12 * h)
            _, dphi = phi_chain(index).eval(y)
            assert np.max(np.abs(dphi - fd)) < 1e-6

    def test_negative_index_rejected(self):
        with pytest.raises(CatalogError):
            phi_chain(-1)


class TestClosedForms:
    def test_u2_exact(self):
        y = chain_samples(2, 100)
        chain, _ = phi_chain(2).eval(y)
        closed = closed_forms(y)["u2"]
        assert np.isfinite(closed).all()
        assert np.max(np.abs(chain - closed)) < 1e-9

    def test_u3_corrected_exact(self):
        y = chain_samples(3, 100)
        chain, _ = phi_chain(3).eval(y)
        closed = closed_forms(y)["u3_corrected"]
        sel = np.isfinite(closed)
        assert sel.sum() >= 90
        assert np.max(np.abs(chain[sel] - closed[sel])) < 1e-9

    def test_u3_printed_is_not_the_chain(self):
        # transcribed inner constant (9/4) sqrt2 fails: the mismatch is not even
        # a constant factor
        rep = crosscheck_closed_forms(100)
        assert rep["u3_printed"]["max_abs_deviation"] > 1e-3
        assert rep["u3_printed"]["ratio_spread"] > 0.1
        assert rep["u3_corrected"]["max_abs_deviation"] < 1e-9

    def test_tilde1_and_hat0_match_up_to_sign(self):
        rep = crosscheck_closed_forms(100)
        assert rep["tilde1"]["max_abs_deviation"] < 1e-9
        assert rep["hat0"]["max_abs_deviation"] < 1e-9
        assert rep["u2"]["max_abs_deviation"] < 1e-9

    def test_masked_cells_are_nan(self):
        # the zeros of sn and cn at multiples of K, points within 1e-9 of them
        # and arguments too large to reduce
        y = np.r_[np.arange(-4, 9) * K, np.arange(-4, 9) * K + 1e-9, np.linspace(-3.0, 9.0, 101),
                  1e9, -1e9]
        for name, value in closed_forms(y).items():
            ok = np.isfinite(value)
            assert not ok.all() and ok.any(), name
            assert np.isnan(value[~ok]).all(), name  # masked, never an infinity

    def test_unreducible_argument_masked_in_every_form(self):
        # |y| eps > POLE_EPS: jacobi_sn_cn_dn returns nan, and no form may call it defined
        forms = closed_forms(np.array([1.0, 1e9, -1e9]))
        assert all(list(np.isfinite(value)) == [True, False, False] for value in forms.values())

    def test_hat2_corrected_matches(self):
        rep = crosscheck_closed_forms(100)
        assert rep["hat2"]["max_abs_deviation"] < 1e-9

    def test_tilde3_printed_reported_not_hidden(self):
        rep = crosscheck_closed_forms(100)
        assert rep["tilde3_printed"]["ratio_spread"] > 0.1  # y-dependent mismatch


class TestEllipticSolution:
    def test_index0_is_x_ds_form(self):
        s = elliptic_solution("direct", 0)
        x = np.array([0.4, 0.8, 1.1])
        t = np.array([0.02, 0.05, 0.01])
        u, ok = s.sample(x, t)
        y = x**2 + 6 * t
        sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        assert ok.all()
        assert np.max(np.abs(u - 2 * x * dn / sn)) < 1e-13

    def test_hat0_is_x_sd(self):
        s = elliptic_solution("focusing", 0)
        x, t = 0.7, 0.03
        u, ok = s.sample(x, t)
        y = x**2 + 6 * t
        sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        assert bool(ok)
        assert float(u) == pytest.approx(x * sn / dn, abs=1e-13)

    def test_parity_errors(self):
        with pytest.raises(CatalogError):
            elliptic_solution("inverse", 2)
        with pytest.raises(CatalogError):
            elliptic_solution("focusing", 1)
        with pytest.raises(CatalogError):
            elliptic_solution("nope", 1)

    def test_index2_closed_form_agreement(self):
        s = elliptic_solution("direct", 2)
        y = chain_samples(2, 100)
        # map y-samples onto (x, t) pairs with x = 0.5
        x = np.full_like(y, 0.5)
        t = (y - 0.25) / 6.0
        u, ok = s.sample(x, t)
        closed = closed_forms(y)["u2"]
        assert (ok & np.isfinite(closed)).all()
        assert np.max(np.abs(np.abs(u) - np.abs(2 * x * closed))) < 1e-9

    def test_sign_and_k1_guards(self):
        with pytest.raises(CatalogError, match="sign must be"):
            elliptic_solution("direct", 1, sign=2)
        with pytest.raises(CatalogError, match="sign must be"):
            cosh_cos_solution(2, 0.5, 0.0, "direct", 0)
        with pytest.raises(CatalogError, match="k1 must be nonzero"):
            cosh_cos_solution(-1, 0.0, 0.0, "direct", 0)

    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_chain_exp_masks_unreducible_arguments(self, index):
        # w = k1 cosh(x) e^(3t) reaches 1e260 by t = 200; once the argument
        # 2^m w of sn/cn/dn has rounding |2^m w| eps > POLE_EPS, its
        # reduction modulo 4K means nothing, so those cells are masked
        X, T = np.meshgrid(np.linspace(-3.0, 3.0, 61), np.linspace(0.0, 200.0, 41),
                           indexing="ij")
        u, ok = cosh_cos_solution(-1, 0.5, 0.0, "direct", index).sample(X, T)
        y = 2.0 ** (index // 2) * 0.5 * np.cosh(X) * np.exp(3.0 * T)
        assert ok.any() and np.isfinite(u[ok]).all()
        assert not (ok & (y * np.finfo(float).eps > POLE_EPS)).any()

    def test_sign_flag(self):
        sp = elliptic_solution("direct", 1, sign=1)
        sm = elliptic_solution("direct", 1, sign=-1)
        u1, _ = sp.sample(0.5, 0.05)
        u2, _ = sm.sample(0.5, 0.05)
        assert float(u1) == pytest.approx(-float(u2), abs=1e-14)

    def test_pole_masking(self):
        s = elliptic_solution("direct", 0)
        u, ok = s.sample(0.0, 0.0)  # y = 0 is a pole of ds
        assert not bool(ok)
        assert np.isnan(float(u))


class TestSamplers:
    def test_plane_wave_constant_solution(self):
        s = plane_wave(2.0, -1.0, 0.0, 0.0)
        u, ok = s.sample(np.linspace(-2, 2, 9), 0.1)
        assert ok.all()
        assert np.max(np.abs(u - 1.0)) < 1e-14

    def test_plane_wave_equals_exponential_fisher(self):
        # n=2, c1=-1, lambda2=0 front at (x, t) equals the exponential Fisher
        # form at (y, tau) = (sqrt6 x, 6 t)
        c2 = 0.8
        s = plane_wave(2.0, -1.0, c2, 0.0)
        f = fisher_exponential(c2)
        x = np.linspace(-2, 2, 41)
        t = 0.13
        upw, _ = s.sample(x, t)
        uaz, _ = f.sample(SQRT6 * x, 6 * t)
        assert np.max(np.abs(upw - uaz)) < 1e-12

    def test_plane_wave_velocity_metadata(self):
        assert plane_wave(2.0, -1.0, 1.0, 0.0).predicted_velocity == pytest.approx(5.0)
        assert plane_wave(3.0, -1.0, 1.0, 0.0).predicted_velocity == pytest.approx(3.0)
        assert plane_wave(2.0, -2.0, 1.0, -3.0).predicted_velocity == pytest.approx(7.0)

    def test_plane_wave_fractional_k_guard(self):
        with pytest.raises(CatalogError):
            plane_wave(2.5, -1.0, 1.0, 0.0)
        with pytest.raises(CatalogError, match="c1 must be nonzero"):
            plane_wave(2.0, 0.0, 1.0, 0.0)
        # n = -1 gives k = -1, and c1^k = 1e9 from a base below POLE_EPS
        with pytest.raises(CatalogError, match="not a real number"):
            plane_wave(-1.0, 1e-9, 1.0, 0.0)

    def test_plane_wave_singular_line_masked(self):
        s = plane_wave(2.0, -1.0, -1.0, 0.0)  # c2 < 0: denominator crosses 0
        u, ok = s.sample(np.array([0.0]), np.array([0.0]))
        assert not ok.any()

    def test_solitary_branch_guards(self):
        with pytest.raises(CatalogError):
            solitary_wave(2.0, 0.5, 0.3, "tanh")
        with pytest.raises(CatalogError):
            solitary_wave(2.0, -0.5, 0.3, "tan")
        with pytest.raises(CatalogError):
            solitary_wave(2.0, 0.5, 0.3, "rational")
        with pytest.raises(CatalogError):
            solitary_wave(2.0, -0.5, 0.3, "sech")

    def test_solitary_tan_poles_masked(self):
        s = solitary_wave(2.0, 0.8, 0.5, "tan", C=0.0)
        b = math.sqrt(0.8 / 2.0)
        x_pole = (math.pi / 2.0) / b
        u, ok = s.sample(np.array([x_pole]), np.array([0.0]))
        assert not ok.any()

    def test_solitary_valid_side_mask(self):
        s = solitary_wave(2.0, -1.5, 0.9, "tanh", C=0.0)
        _, ok_neg = s.sample(-3.0, 0.0)
        _, ok_pos = s.sample(3.0, 0.0)
        assert bool(ok_pos) and not bool(ok_neg)

    def test_solitary_transforms_to_bell(self):
        # nu -> -3/2, sigma = 3 eps, u_bell = 3/2 - u_sol at (x/sqrt3, t/3):
        # the solitary theta equals the bell argument s point for point
        eps = 0.3
        sol = solitary_wave(2.0, -1.5, 3.0 * eps, "tanh", C=0.4)
        bell = perturbed_fisher_bell(eps, C=0.4)
        x = np.linspace(1.0, 5.0, 17)
        t = 0.6
        ub, okb = bell.sample(x, t)
        us, oks = sol.sample(x / math.sqrt(3.0), t / 3.0)
        assert okb.all() and oks.all()
        assert np.max(np.abs(ub - (1.5 - us))) < 1e-12

    def test_fisher_front_center_value(self):
        s = fisher_front("tanh", c=0.0)
        u, _ = s.sample(0.0, 0.0)  # theta = 0: u = 1/4
        assert float(u) == pytest.approx(0.25, abs=1e-15)

    def test_fisher_front_complement_flagged(self):
        s = fisher_front("tanh", complement=True)
        assert not s.residual_clean
        u, _ = s.sample(0.0, 0.0)
        assert float(u) == pytest.approx(0.75, abs=1e-15)

    def test_form_and_sign_guards(self):
        with pytest.raises(CatalogError, match="form must be"):
            fisher_front("sech")
        with pytest.raises(CatalogError, match="form must be"):
            generalized_fisher(2.0, "sech")
        with pytest.raises(CatalogError, match="sign must be"):
            quadratic_rational(0)

    def test_fisher_coth_singular_line(self):
        s = fisher_front("coth", c=0.0)
        u, ok = s.sample(0.0, 0.0)
        assert not bool(ok)

    def test_generalized_fisher_reduces_to_fisher(self):
        gf = generalized_fisher(-1.0, "tanh", c=0.0)
        ff = fisher_front("tanh", c=0.0)
        y = np.linspace(-6, 6, 101)
        tau = 0.37
        ug, _ = gf.sample(y, tau)
        uf, _ = ff.sample(y, tau)
        assert np.max(np.abs(ug - uf)) < 1e-12

    def test_generalized_fisher_velocities(self):
        assert abs(generalized_fisher(2.0).predicted_velocity) == pytest.approx(1.0 / SQRT6)
        assert abs(generalized_fisher(-2.0).predicted_velocity) == pytest.approx(7.0 / SQRT6)
        assert generalized_fisher(1.5).predicted_velocity == pytest.approx(0.0, abs=1e-15)

    def test_generalized_fisher_amplitude(self):
        # amplitude is c1^2: theta -> +inf gives u -> c1^2
        gf = generalized_fisher(2.0, "tanh", c=0.0)
        u, _ = gf.sample(200.0, 0.0)
        assert float(u) == pytest.approx(4.0, rel=1e-10)

    def test_bell_mask_and_peak(self):
        bell = perturbed_fisher_bell(0.3, C=0.0)
        u, ok = bell.sample(1.0, 0.0)
        assert bool(ok)
        assert float(u) == pytest.approx(1.5 / math.cosh(0.5) ** 2, abs=1e-14)
        _, ok2 = bell.sample(-1.0, 0.0)
        assert not bool(ok2)

    def test_quadratic_rational_value(self):
        # corrected closed form at (x, t) = (0, 1), plus branch
        s = quadratic_rational(+1)
        u, ok = s.sample(0.0, 1.0)
        expect = 120.0 * (12.0 + 5.0 * SQRT6) / (10.0 * (3.0 + SQRT6)) ** 2
        assert bool(ok)
        assert float(u) == pytest.approx(expect, rel=1e-14)

    def test_quadratic_rational_decay(self):
        s = quadratic_rational(+1)
        x = np.array([100.0, 200.0, 400.0])
        u, _ = s.sample(x, 1.0)
        assert np.max(np.abs(u * x**2 / (12.0 * (4.0 + SQRT6)) - 1.0)) < 1e-2

    def test_quadratic_rational_singular_circle_masked(self):
        s = quadratic_rational(+1)
        beta = 10.0 * (3.0 + SQRT6)
        t = -1.0
        x = math.sqrt(beta)  # x^2 + beta t = 0
        u, ok = s.sample(np.array([x]), np.array([t]))
        assert not ok.any()

    def test_weierstrass_c_zero_rejected(self):
        with pytest.raises(CatalogError):
            fisher_weierstrass(0.0)

    def test_weierstrass_bounded_window(self):
        s = fisher_weierstrass(1e6, 0.0)
        y = np.linspace(1.0, 9.0, 33)
        tau = np.full_like(y, -3.0)
        u, ok = s.sample(y, tau)
        assert ok.all()
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) < 10.0

    def test_translation_covariance(self):
        s = fisher_front("tanh").shifted(2.0, 0.5)
        u, _ = s.sample(2.0, 0.5)
        u0, _ = fisher_front("tanh").sample(0.0, 0.0)
        assert float(u) == pytest.approx(float(u0), abs=1e-15)
        # the window moves with the solution; a sampler without one keeps none
        assert s.suggested_window == (-6.0, 10.0, 0.5, 1.0)
        z = potential_transform(z_from_phi(0), 1.0)
        assert z.suggested_window is None and z.shifted(2.0, 0.5).suggested_window is None


class TestPotentialTransform:
    def test_exponential_gives_constant(self):
        from rdwaves.catalog import ZSampler

        a = 0.7
        z = ZSampler(fn=lambda x, t: (np.exp(a * x), a * np.exp(a * x)), label="exp")
        s = potential_transform(z, 1.0)
        u, ok = s.sample(np.linspace(-1, 1, 11), 0.0)
        assert ok.all()
        assert np.max(np.abs(u - a)) < 1e-14

    def test_plane_wave_potential_reproduces_front(self):
        n, c1, c2, lam2 = 2.0, -1.0, 0.8, 0.0
        s_direct = plane_wave(n, c1, c2, lam2)
        s_pot = potential_transform(z_plane_wave(n, c1, c2, lam2), 2.0)
        x = np.linspace(-2, 2, 31)
        t = 0.1
        u1, _ = s_direct.sample(x, t)
        u2, ok = s_pot.sample(x, t)
        assert ok.all()
        assert np.max(np.abs(u1 - u2)) < 1e-12

    def test_chain_potential_identity(self):
        # z = phi0(x^2+6t), k=1: u = 2x phi0'/phi0 = first chain solution
        s_pot = potential_transform(z_from_phi(0), 1.0)
        s_chain = elliptic_solution("direct", 1)
        x = np.linspace(0.3, 0.7, 9)
        t = 0.02
        u1, ok1 = s_pot.sample(x, t)
        u2, ok2 = s_chain.sample(x, t)
        sel = ok1 & ok2
        assert sel.all()
        assert np.max(np.abs(u1 - u2)) < 1e-11


class TestRegistry:
    def test_every_family_listed_and_buildable(self):
        info = family_info()
        assert set(info) == set(FAMILIES)
        for fid in FAMILIES:
            s = build_family(fid)
            assert s.family_id == fid
            x0, x1, t0, t1 = s.suggested_window
            u, ok = s.sample(np.linspace(x0, x1, 21), np.full(21, 0.5 * (t0 + t1)))
            assert ok.mean() > 0.9
            assert np.all(np.isfinite(u[ok]))

    def test_unknown_family(self):
        with pytest.raises(CatalogError):
            build_family("nope")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(CatalogError, match="'epsilon' must be finite"):
            build_family("bell", {"epsilon": value})

    def test_shift_params(self):
        s = build_family("fisher-front", {"x_shift": 1.0})
        u, _ = s.sample(1.0, 0.0)
        assert float(u) == pytest.approx(0.25, abs=1e-15)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CatalogError, match="'C1'"):
            build_family("generalized-fisher", {"C1": 3})

    def test_shift_keys_shift_the_sampler(self):
        base = build_family("generalized-fisher", {"c1": 3.0})
        s = build_family("generalized-fisher", {"c1": 3.0, "x_shift": 0.4, "t_shift": 0.1})
        assert s.params == {**base.params, "x_shift": 0.4, "t_shift": 0.1}
        x = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(s.sample(x, 0.3)[0], base.sample(x - 0.4, 0.2)[0])

    @pytest.mark.parametrize("fid", sorted(FAMILIES))
    def test_builder_defaults_match_build_family(self, fid):
        info = FAMILIES[fid]
        direct, built = info.builder(**info.defaults), build_family(fid)
        assert direct.params == built.params
        x0, x1, t0, t1 = built.suggested_window
        X, T = np.meshgrid(np.linspace(x0, x1, 17), np.linspace(t0, t1, 9), indexing="ij")
        for a, b in zip(direct.sample(X, T), built.sample(X, T)):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("fid, params, key", [
        ("chain", {"index": "a"}, "index"),
        ("chain", {"index": True}, "index"),
        ("chain", {"kind": 1}, "kind"),
        ("fisher-front", {"complement": "no"}, "complement"),
        ("fisher-front", {"complement": 0}, "complement"),
        ("bell", {"epsilon": None}, "epsilon"),
        ("bell", {"x_shift": "1"}, "x_shift"),
    ])
    def test_wrong_value_type_rejected(self, fid, params, key):
        with pytest.raises(CatalogError, match=f"'{key}' must be a"):
            build_family(fid, params)

    def test_numbers_accept_ints_and_floats(self):
        a = build_family("generalized-fisher", {"c1": 3, "x_shift": 1})
        b = build_family("generalized-fisher", {"c1": 3.0, "x_shift": 1.0})
        assert a.params == b.params
        assert build_family("chain", {"index": np.int64(2)}).params["index"] == 2


# exact y = x^2 + 6t pole and zero points of the chain elements (multiples of
# K/8 at t = 0), and the zero of cos at x = pi/2, so that masks are exercised
POLE_X = np.r_[np.sqrt(np.arange(17) * K / 8.0), math.pi / 2.0]


def _masked_cases():
    cases = [(fid, {}) for fid in FAMILIES]
    cases += [("plane-wave", {"c2": -0.5}), ("solitary", {"branch": "tanh_inverse"}),
              ("solitary", {"branch": "tan", "nu": 1.2}),
              ("solitary", {"branch": "rational", "nu": 0.0}), ("fisher-front", {"form": "coth"}),
              ("fisher-exp", {"c2": -0.5}), ("generalized-fisher", {"form": "coth"}),
              ("quadratic-rational", {"sign": -1})]
    for fid, depth in (("chain", 8), ("chain-exp", 4)):
        for kind, first in (("direct", 0), ("inverse", 1), ("focusing", 0)):
            step = 1 if kind == "direct" else 2
            for index in range(first, depth, step):
                for sign in (-1, 1):
                    cases.append((fid, {"kind": kind, "index": index, "sign": sign}))
    return cases


class TestMaskedCells:
    """Sampler.sample is nan wherever defined is False, for every variant."""

    @staticmethod
    def grid(s):
        x0, x1, t0, t1 = s.suggested_window
        w, ht = x1 - x0, t1 - t0
        x = np.r_[np.linspace(x0 - w, x1 + w, 33), POLE_X]
        t = np.r_[np.linspace(t0 - ht, t1 + ht, 17), 0.0]
        return np.meshgrid(x, t, indexing="ij")

    @pytest.mark.parametrize("fid, params", _masked_cases())
    def test_masked_cells_are_nan(self, fid, params):
        s = build_family(fid, params)
        X, T = self.grid(s)
        dx, dt = 0.5, 0.25
        for sampler, x, t in ((s, X, T), (s.perturbed(), X, T),
                              (s.shifted(dx, dt), X + dx, T + dt)):
            u, defined = sampler.sample(x, t)
            assert u.shape == defined.shape == X.shape
            assert np.isnan(u[~defined]).all()
        if fid == "chain":  # y = 0 is a pole of every chain element
            assert not s.sample(X, T)[1].all()


def _chain_kind_index(rng, depth: int) -> tuple[str, int]:
    """A chain kind and an index below depth of the parity the kind needs."""
    kind = str(rng.choice(["direct", "inverse", "focusing"]))
    index = int(rng.integers(0, depth))
    if kind == "inverse" and index % 2 == 0:
        index += 1
    if kind == "focusing" and index % 2 == 1:
        index -= 1
    return kind, index


def draw_family_params(fid: str, rng) -> dict:
    """Parameters of family fid drawn around its documented ranges, singular
    variants (coth, tan, negative c2, both signs) included; some draws are
    refused by the builder, and the caller draws again."""
    pm = lambda: float(rng.choice([-1.0, 1.0]))
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    if fid == "chain":
        kind, index = _chain_kind_index(rng, 10)
        return {"kind": kind, "index": index, "sign": int(pm())}
    if fid == "chain-exp":
        kind, index = _chain_kind_index(rng, 6)
        return {"sign": int(pm()), "k1": pm() * u(0.2, 1.0), "k2": u(-0.3, 0.3),
                "kind": kind, "index": index}
    if fid == "plane-wave":
        return {"n": float(rng.choice([2.0, 3.0, 5.0, 1.5, 0.5, -1.0])), "c1": pm() * u(0.3, 2.0),
                "c2": u(-1.0, 1.0), "lambda2": u(-2.0, 2.0)}
    if fid == "solitary":
        branch = str(rng.choice(["tanh", "tanh_inverse", "tan", "rational"]))
        nu = {"tanh": -1.0, "tanh_inverse": -1.0, "tan": 1.0, "rational": 0.0}[branch]
        return {"n": float(rng.choice([2.0, 2.5, 3.0, 4.0, 5.0])), "nu": nu * u(0.5, 2.0),
                "sigma": u(-1.5, 1.5), "branch": branch, "C": u(-0.5, 0.5)}
    if fid == "fisher-front":
        return {"form": str(rng.choice(["tanh", "coth"])), "complement": bool(rng.integers(2)),
                "c": u(-1.0, 1.0), "reflect_y": bool(rng.integers(2))}
    if fid == "fisher-exp":
        return {"c2": u(-1.0, 1.0)}
    if fid == "fisher-weierstrass":
        return {"C": pm() * 10.0 ** u(0.7, 6.0), "k_shift": u(-0.5, 0.5),
                "reflect_y": bool(rng.integers(2))}
    if fid == "generalized-fisher":
        c1 = pm() * u(0.5, 2.5)
        return {"c1": c1, "form": str(rng.choice(["tanh", "coth"])) if c1 > 0 else "tanh",
                "c": u(-0.5, 0.5), "reflect_y": bool(rng.integers(2))}
    if fid == "bell":
        return {"epsilon": u(0.1, 1.0), "C": u(-0.5, 0.5)}
    if fid == "quadratic-rational":
        return {"sign": int(pm())}
    raise ValueError(fid)


def _one_mask_cases(draws: int = 3) -> list:
    """Every family at its defaults and at draws seeded parameter sets."""
    rng = np.random.default_rng(28)
    cases = []
    for fid, info in FAMILIES.items():
        cases.append((fid, dict(info.defaults)))
        while len(cases) % (draws + 1):
            params = draw_family_params(fid, rng)
            try:
                build_family(fid, params)
            except CatalogError:
                continue
            cases.append((fid, params))
    return cases


def scaled_window_grid(window, scale: float, nx: int = 65, nt: int = 33):
    """The meshgrid of window with both extents scaled by scale about its centre."""
    x0, x1, t0, t1 = window
    xc, xh = 0.5 * (x0 + x1), 0.5 * (x1 - x0) * scale
    tc, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0) * scale
    return np.meshgrid(np.linspace(xc - xh, xc + xh, nx), np.linspace(tc - th, tc + th, nt),
                       indexing="ij")


def assert_nan_together(values, shape) -> None:
    """values are float arrays of shape, nan at the same points and never infinite."""
    nan = np.isnan(values[0])
    for a in values:
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
        assert np.array_equal(np.isnan(a), nan)
        assert not np.isinf(a).any()


WINDOW_SCALES = (1.0, 4.0, 50.0, 1e4)
ONE_MASK_Y = np.r_[np.linspace(-8.0, 8.0, 4001), np.linspace(-1e4, 1e4, 2001), POLE_X**2,
                   0.0, 1e9, -1e9, np.inf, np.nan]


class TestOneMask:
    """nan is the only mask: an evaluator returns its values alone, every one
    of them nan at the same points, and Sampler.sample's flag is np.isfinite(u)."""

    @pytest.mark.parametrize("fid, params", _one_mask_cases())
    def test_fn_returns_its_values_and_sample_flags_the_finite_ones(self, fid, params):
        s = build_family(fid, params)
        for scale in WINDOW_SCALES:
            X, T = scaled_window_grid(s.suggested_window, scale)
            # far windows overflow cosh and exp; the masks, not the warnings, are tested
            with np.errstate(all="ignore"):
                for sampler in (s, s.perturbed()):
                    u = sampler.fn(X, T)
                    sampled, defined = sampler.sample(X, T)
                    assert_nan_together([u, sampled], X.shape)
                    assert np.array_equal(sampled, u, equal_nan=True)
                    assert np.array_equal(defined, np.isfinite(sampled))

    @pytest.mark.parametrize("depth", range(27))
    def test_chain_element_values_share_their_nan(self, depth):
        state = phi_chain(depth)
        assert_nan_together(state.eval(ONE_MASK_Y), ONE_MASK_Y.shape)
        if depth <= 17:
            for level in state.levels(ONE_MASK_Y):
                assert_nan_together(level, ONE_MASK_Y.shape)

    @pytest.mark.parametrize("g3", [0.0, 1.0, -1.0, 100.0, -5.0, 1e6])
    def test_weierstrass_values_share_their_nan(self, g3):
        z = np.r_[np.linspace(-1.0, 5.0, 6001), np.geomspace(1e-12, 1e6, 3001),
                  0.0, -0.0, np.inf, -np.inf, np.nan]
        p, dp = weierstrass_p(z, WeierstrassInvariants(0.0, g3))
        assert_nan_together([p, dp], z.shape)
        assert np.isnan(p[z <= 0.0]).all() and np.isnan(p[~np.isfinite(z)]).all()

    @pytest.mark.parametrize("z", [z_from_phi(i) for i in range(6)] + [
        z_plane_wave(2.0, -1.0, 1.0, 0.0), z_plane_wave(3.0, 1.0, -0.5, 1.0),
        z_plane_wave(2.0, 2.0, 1.0, 3.0), z_plane_wave(5.0, 0.5, 0.9, 0.2)])
    def test_potential_values_share_their_nan(self, z):
        for scale in WINDOW_SCALES:
            X, T = scaled_window_grid((0.25, 1.2, 0.0, 0.1), scale)
            with np.errstate(all="ignore"):
                values = z.fn(X, T)
            assert len(values) == 2
            assert_nan_together(values, X.shape)


def reference_phi_eval(index: int, y, fourth_power=lambda safe: (safe * safe) ** 2):
    """The chain recurrence with the values re-masked at every level; phi^4 is
    formed as levels forms it unless fourth_power says otherwise."""
    y = np.asarray(y, dtype=float)
    sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
    defined = np.abs(sn) >= POLE_EPS
    safe_sn = np.where(defined, sn, 1.0)
    phi = np.where(defined, dn / safe_sn, np.nan)
    dphi = np.where(defined, -cn / safe_sn**2, np.nan)
    c = -0.25
    for _ in range(index):
        defined = defined & (np.abs(phi) >= POLE_EPS)
        safe = np.where(defined, phi, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_next = dphi / safe
            dphi_next = (fourth_power(safe) - c) / safe**2
        phi = np.where(defined, phi_next, np.nan)
        dphi = np.where(defined, dphi_next, np.nan)
        c = -4.0 * c
    return phi, dphi, defined


# the y grid crosses poles of ds and the dyadic zeros of every element
POLE_GRID = np.r_[np.linspace(-2 * K - 0.3, 4 * K + 0.3, 4001), np.arange(-16, 33) * K / 8.0]

# closed form against the recurrence, |eval - ref| / max(1, |ref|), at depths
# 0..12: measured 1.2e-11 for phi and 1.0e-10 for phi' on POLE_GRID, both
# set by the recurrence's rounding, which grows with depth (6.7e-10 at 16)
CLOSED_FORM_RTOL = 1e-9


class TestPhiStateMasking:
    @pytest.mark.parametrize("depth", range(8))
    def test_eval_matches_per_level_masking(self, depth):
        # the recurrence's last level matches the reference that re-masks
        # every level, bit for bit
        got = recurrence_eval(phi_chain(depth), POLE_GRID)
        expected = reference_phi_eval(depth, POLE_GRID)
        for a in got:
            assert np.array_equal(np.isfinite(a), expected[2])
        assert not expected[2].all()
        for a, b in zip(got, expected[:2]):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("depth", [0, 3, 8])
    def test_levels_match_eval(self, depth):
        levels = list(phi_chain(depth).levels(POLE_GRID))
        assert len(levels) == depth + 1
        for j, (phi, dphi) in enumerate(levels):
            expected = reference_phi_eval(j, POLE_GRID)
            for a, b in zip((phi, dphi), expected[:2]):
                # nan under the mask, as in eval
                assert np.array_equal(np.isfinite(a), expected[2])
                assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("depth", [1, 3, 8, 12, 17])
    def test_levels_match_the_power_form(self, depth):
        # levels forms phi^4 as (phi^2)^2; against phi**4 the masks are the
        # same and the values move by the recurrence's rounding alone:
        # measured 2.8e-10 for phi and 5.6e-10 for phi' at depth 17
        *_, (phi, dphi) = phi_chain(depth).levels(POLE_GRID)
        ref_phi, ref_dphi, ref_defined = reference_phi_eval(depth, POLE_GRID, lambda s: s**4)
        defined = np.isfinite(phi)
        assert np.array_equal(defined, ref_defined)
        assert np.array_equal(np.isfinite(dphi), ref_defined)
        for a, b in ((phi, ref_phi), (dphi, ref_dphi)):
            a, b = a[defined], b[defined]
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= CLOSED_FORM_RTOL

    @pytest.mark.parametrize("depth", range(13))
    def test_closed_form_matches_recurrence(self, depth):
        phi, dphi = phi_chain(depth).eval(POLE_GRID)
        ref_phi, ref_dphi, ref_defined = reference_phi_eval(depth, POLE_GRID)
        defined = np.isfinite(phi)
        assert np.array_equal(defined, ref_defined)
        assert np.isnan(phi[~defined]).all() and np.isnan(dphi[~defined]).all()
        assert np.isfinite(dphi[defined]).all()
        rtol = 0.0 if depth == 0 else CLOSED_FORM_RTOL  # the seed is the same arithmetic
        for a, b in ((phi, ref_phi), (dphi, ref_dphi)):
            a, b = a[defined], b[defined]
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= rtol

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(depth=st.integers(0, 12), y=st.floats(0.05, 2 * K - 0.05))
    def test_closed_form_property(self, depth, y):
        # any y that clean_chain_samples would keep: the closed form agrees
        # with the recurrence and keeps the first integral (phi')^2 - phi^4 = C_n
        state = phi_chain(depth)
        y = np.array([y])
        assume(_well_conditioned(state, y)[0])
        phi, dphi = state.eval(y)
        ref_phi, ref_dphi = recurrence_eval(state, y)
        assert np.isfinite(phi[0]) and np.isfinite(dphi[0])
        for a, b in ((phi, ref_phi), (dphi, ref_dphi)):
            assert abs(a[0] - b[0]) / max(1.0, abs(b[0])) <= CLOSED_FORM_RTOL
        c_n = chain_constant(depth)
        # measured at most 2.8e-14 |C_n| on clean samples at depths 0..12
        assert abs(dphi[0] ** 2 - phi[0] ** 4 - c_n) <= 1e-12 * abs(c_n)


# the sign-change scan that rdwaves chain ran before it stated the lattice:
# one step of its grid bounds how far its points sit from the exact ones
SCAN_Y = np.linspace(1e-4, 2 * K - 1e-4, 200001)
SCAN_STEP = SCAN_Y[1] - SCAN_Y[0]


@functools.cache
def reference_chain_scan() -> tuple:
    """(zeros, singular) rows of elements 0..26, as the scan printed them."""
    rows = []
    singular = [0.0, float(round(2 * K, 6))]
    for phi, _ in phi_chain(26).levels(SCAN_Y):
        phi = np.where(np.isfinite(phi) & (np.abs(phi) < 1e3), phi, 0.0)
        zeros = [float(round(SCAN_Y[i], 6)) for i in np.where(phi[:-1] * phi[1:] < 0)[0]]
        rows.append((zeros, sorted(singular)))
        singular = sorted(set(singular) | set(zeros))
    return tuple(rows)


class TestLattice:
    @pytest.mark.parametrize("depth", range(27))
    def test_matches_the_scan(self, depth):
        # the scan's rounded point is at most one grid step below the exact
        # one (it reports the left end of the bracketing pair) plus 5e-7
        for exact, scanned in zip(phi_chain(depth).lattice(), reference_chain_scan()[depth]):
            assert exact.size == len(scanned)
            assert np.all(np.abs(exact - scanned) <= SCAN_STEP + 5e-7)

    @pytest.mark.parametrize("depth", range(27))
    def test_eval_is_singular_at_poles_and_vanishes_at_zeros(self, depth):
        state = phi_chain(depth)
        zeros, poles = state.lattice()
        assert zeros.size == (2 ** (depth // 2) if depth % 2 else 0)
        assert poles.size == 2 ** (depth // 2) + 1
        assert poles[0] == 0.0 and poles[-1] == 2 * K
        assert np.isnan(state.eval(poles)).all()
        phi, dphi = state.eval(zeros)
        assert np.isfinite(phi).all() and np.isfinite(dphi).all()
        # |phi| / sqrt(C_n) is the distance to the zero in y: measured at most 4.2e-16
        assert np.all(np.abs(phi) <= 1e-14 * math.sqrt(abs(chain_constant(depth))))


def reference_masked_pow(base, p: float):
    """The masked power as written before it took its values from equations._frac_pow,
    np.power's bits on every base."""
    base = np.asarray(base, dtype=float)
    if abs(p - round(p)) < 1e-12:
        ip = int(round(p))
        if ip >= 0:
            return np.power(base, ip), np.isfinite(base)
        defined = np.abs(base) >= POLE_EPS
        return np.where(defined, 1.0 / np.where(defined, base, 1.0) ** -ip, np.nan), defined
    defined = base > POLE_EPS if p < 0 else base >= 0.0
    with np.errstate(invalid="ignore"):
        val = np.where(defined, np.power(np.maximum(base, 0.0), p), np.nan)
    return val, defined


def same_bits(a, b) -> bool:
    """a and b hold the same float64 bits, signed zeros included; any nan matches any nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestMaskedPow:
    BASES = np.r_[np.linspace(-3.0, 3.0, 6001), 0.0, -0.0, 1e-8, -1e-8, np.inf, -np.inf,
                  np.nan, 1e200, -1e200, POLE_EPS, -POLE_EPS, 2 * POLE_EPS]

    @pytest.mark.parametrize("p", [-3, -2, -1, 0, 1, 2, 3, 2 + 1e-13, -1 - 1e-13, -2.5, -1.5,
                                   -0.5, -1 / 3, 1 / 3, 0.5, 2 / 3, 1.5, 2.5])
    def test_matches_reference(self, p):
        with np.errstate(all="ignore"):
            ref, ref_defined = reference_masked_pow(self.BASES, p)
            at_abs = reference_masked_pow(np.abs(self.BASES), p)[0]
        # the power may overflow at 1e200, but a masked point never warns
        with np.errstate(over="ignore", divide="raise", invalid="raise"):
            got = _masked_pow(self.BASES, p)
        defined = ~np.isnan(got)
        assert np.array_equal(defined, ref_defined)
        # np.power's bits on a base that is not negative; an integer power of a
        # negative base is the mirror (-1)^p of np.power's value at |base|
        expected = ref
        if abs(p - round(p)) < 1e-12:
            expected = np.where(self.BASES < 0.0, (-1.0) ** round(p) * at_abs, ref)
        assert same_bits(got[defined], expected[defined])
        assert np.isnan(got[~defined]).all()

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_integer_power_within_one_ulp_of_exact(self, p):
        # the exact power of each finite non-zero base, rounded once; a power
        # past the float range must be the infinity of its sign
        bases = self.BASES[np.isfinite(self.BASES) & (self.BASES != 0.0)]
        with np.errstate(over="ignore"):
            got = _masked_pow(bases, p)
        assert not np.isnan(got).any()
        for base, value in zip(bases.tolist(), got.tolist()):
            exact = Fraction(base) ** p
            if abs(exact) > Fraction(sys.float_info.max):
                assert value == (math.inf if exact > 0 else -math.inf)
                continue
            rounded = float(exact)
            assert abs(value - rounded) <= math.ulp(rounded), (base, value, rounded)
