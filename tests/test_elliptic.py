"""Elliptic kernel tests against independent oracles (quadrature, ODE marching)."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import ellipj

import rdwaves
from rdwaves.catalog import CHAIN_K, phi_chain
from rdwaves.cli import main
from rdwaves.elliptic import (
    MODULUS_INV_SQRT2,
    POLE_EPS,
    EllipticError,
    EllipticModulus,
    UnboundedPeriodError,
    WeierstrassInvariants,
    _off_pole,
    _pole_div,
    _sin_cos,
    _weierstrass_jacobi,
    complete_elliptic_K,
    jacobi_sn_cn_dn,
    weierstrass_p,
    weierstrass_real_half_period,
)

MODULI = [EllipticModulus(0.1), EllipticModulus(0.5), MODULUS_INV_SQRT2, EllipticModulus(0.9)]


def incomplete_F(phi: float, k: float) -> float:
    """Quadrature oracle: F(phi, k) = int_0^phi dt / sqrt(1 - k^2 sin^2 t)."""
    val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 5e-13
    return val


def jacobi_oracle(y: float, k: float) -> tuple[float, float, float]:
    """Invert F(phi, k) = y by bracketing root-finding; y must sit in (0, K)."""
    phi = brentq(lambda p: incomplete_F(p, k) - y, 0.0, math.pi / 2, xtol=1e-15, rtol=8.9e-16)
    sn = math.sin(phi)
    return sn, math.cos(phi), math.sqrt(1.0 - (k * sn) ** 2)


class TestCompleteK:
    def test_circular_limit(self):
        assert complete_elliptic_K(EllipticModulus(0.0)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_monotone_in_k(self):
        ks = np.linspace(0.0, 0.99, 34)
        vals = [complete_elliptic_K(EllipticModulus(k)) for k in ks]
        assert np.all(np.diff(vals) > 0)

    def test_quadrature_oracle_at_inv_sqrt2(self):
        k = 1.0 / math.sqrt(2.0)
        oracle = incomplete_F(math.pi / 2, k)
        assert abs(complete_elliptic_K(MODULUS_INV_SQRT2) - oracle) < 1e-12

    def test_pinned_at_the_catalog_moduli(self):
        # the chain's k = 1/sqrt2 and the moduli of P for g3 > 0 and g3 < 0
        moduli = [MODULUS_INV_SQRT2] + [_weierstrass_jacobi(WeierstrassInvariants(0.0, g3))[2]
                                        for g3 in (1.0, -1.0)]
        expected = ["0x1.daa4a35759e4ap+0", "0x1.991fd5916ff46p+0", "0x1.624fe4a54f95ap+1"]
        assert [complete_elliptic_K(m).hex() for m in moduli] == expected
        assert CHAIN_K.hex() == expected[0]

    def test_k_one_unbounded(self):
        with pytest.raises(UnboundedPeriodError):
            complete_elliptic_K(EllipticModulus(1.0))

    def test_domain_error(self):
        with pytest.raises(EllipticError):
            EllipticModulus(1.5)
        with pytest.raises(EllipticError):
            EllipticModulus(-0.1)


class TestJacobiTriple:
    def test_origin(self):
        for m in MODULI:
            sn, cn, dn = jacobi_sn_cn_dn(0.0, m)
            assert (sn, cn, dn) == (0.0, 1.0, 1.0)

    # the k = 0 and k = 1 branches are the circular functions of _sin_cos and the
    # hyperbolic functions, bit for bit
    def test_circular_degeneration(self):
        y = np.linspace(-40, 40, 4001)
        for a, b in zip(jacobi_sn_cn_dn(y, EllipticModulus(0.0)), (*_sin_cos(y), 1.0)):
            assert np.array_equal(a, np.broadcast_to(b, y.shape))

    def test_hyperbolic_degeneration(self):
        y = np.linspace(-40, 40, 4001)
        for a, b in zip(jacobi_sn_cn_dn(y, EllipticModulus(1.0)),
                        (np.tanh(y), 1 / np.cosh(y), 1 / np.cosh(y))):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k, forms", [
        (0.0, lambda y: (*_sin_cos(y), np.ones_like(y))),
        (1.0, lambda y: (np.tanh(y), 1 / np.cosh(y), 1 / np.cosh(y))),
    ], ids=["k=0", "k=1"])
    def test_degenerate_branches_keep_the_argument_bound(self, k, forms):
        # the same nan rule as every other modulus, applied before any
        # transcendental: sin(1e300) is not noise-free, sin(inf) and cosh(800)
        # would warn; sech(800) = 1/inf = 0 is correctly rounded
        y = np.array([0.0, 1.0, 800.0, -800.0, 1e300, np.inf, -np.inf, np.nan])
        with np.errstate(all="raise"):
            got = jacobi_sn_cn_dn(y, EllipticModulus(k))
        with np.errstate(over="ignore"):
            expected = forms(y[:4])
        for a, b in zip(got, expected):
            assert np.array_equal(a[:4], b)
            assert np.isnan(a[4:]).all()
        assert jacobi_sn_cn_dn(800.0, EllipticModulus(1.0))[1] == 0.0

    def test_quadrature_inversion_oracle(self):
        k = 1.0 / math.sqrt(2.0)
        sn_o, cn_o, dn_o = jacobi_oracle(1.0, k)
        sn, cn, dn = jacobi_sn_cn_dn(1.0, MODULUS_INV_SQRT2)
        assert abs(sn - sn_o) < 1e-11
        assert abs(cn - cn_o) < 1e-11
        assert abs(dn - dn_o) < 1e-11

    @pytest.mark.parametrize("m", MODULI, ids=lambda m: f"k={m.k:.4f}")
    def test_pythagorean_identities(self, m):
        rng = np.random.default_rng(7)
        K = complete_elliptic_K(m)
        y = rng.uniform(-4 * K, 4 * K, 10_000)
        sn, cn, dn = jacobi_sn_cn_dn(y, m)
        assert np.max(np.abs(sn**2 + cn**2 - 1)) < 1e-12
        assert np.max(np.abs(dn**2 + m.k2 * sn**2 - 1)) < 1e-12
        assert np.max(np.abs(sn)) <= 1.0 + 1e-15
        assert np.max(np.abs(cn)) <= 1.0 + 1e-15
        assert np.all(dn <= 1.0 + 1e-15) and np.all(dn >= m.k_comp - 1e-15)

    @pytest.mark.parametrize("m", MODULI, ids=lambda m: f"k={m.k:.4f}")
    def test_derivative_identities(self, m):
        # Richardson-extrapolated central differences, h and h/2
        rng = np.random.default_rng(3)
        y = rng.uniform(-5, 5, 300)
        h = 1e-3

        def d_dy(component, yv):
            def stencil(hh):
                f = lambda q: jacobi_sn_cn_dn(q, m)[component]
                return (f(yv - 2 * hh) - 8 * f(yv - hh) + 8 * f(yv + hh) - f(yv + 2 * hh)) / (12 * hh)
            return (16 * stencil(h / 2) - stencil(h)) / 15.0

        sn, cn, dn = jacobi_sn_cn_dn(y, m)
        assert np.max(np.abs(d_dy(0, y) - cn * dn)) < 1e-8
        assert np.max(np.abs(d_dy(1, y) + sn * dn)) < 1e-8
        assert np.max(np.abs(d_dy(2, y) + m.k2 * sn * cn)) < 1e-8

    def test_unreducible_arguments_are_nan(self):
        # past |y| eps = POLE_EPS the rounding of y exceeds the pole threshold;
        # neither those arguments nor ordinary ones make numpy raise
        bound = POLE_EPS / np.finfo(float).eps
        y = np.array([1.0, -bound, bound, np.nextafter(bound, np.inf), -2.0 * bound, 1e300,
                      np.inf, -np.inf, np.nan])
        for m in MODULI + ORACLE_MODULI:
            with np.errstate(all="raise"):
                got = np.array(jacobi_sn_cn_dn(np.r_[y, np.linspace(-50.0, 50.0, 201)], m))
            assert list(np.isfinite(got[:, :9]).all(axis=0)) == [True, True, True] + [False] * 6
            assert np.isnan(got[:, 3:9]).all() and np.isfinite(got[:, 9:]).all()

    @pytest.mark.parametrize("k", [1e-9, 1e-12])
    def test_an_empty_gauss_ladder_keeps_the_argument_bound(self, k):
        # k^2 < 2^-53 leaves no ascent step to write dn; past the bound dn is
        # nan with sn and cn, and inside it the values stay _sin_cos's and 1
        y = np.array([0.5, 1e300, np.inf, -np.inf, np.nan])
        with np.errstate(all="raise"):
            got = jacobi_sn_cn_dn(y, EllipticModulus(k))
            assert all(np.isnan(v) for v in jacobi_sn_cn_dn(1e300, EllipticModulus(k)))
        for a, b in zip(got, (*_sin_cos(0.5), 1.0)):
            assert a[0] == b and np.isnan(a[1:]).all()

    def test_periodicity(self):
        for m in MODULI:
            K = complete_elliptic_K(m)
            y = np.linspace(-10, 10, 2001)
            a = np.array(jacobi_sn_cn_dn(y, m))
            b = np.array(jacobi_sn_cn_dn(y + 4 * K, m))
            assert np.max(np.abs(a - b)) < 1e-10


def reference_jacobi(y, m: EllipticModulus):
    """The descending Landen kernel that the Gauss ascent replaced, for 0 < k < 1:
    the amplitude climbs back one arcsin a level (Abramowitz & Stegun 16.4),
    after the same argument bound and the same reduction modulo 4K."""
    a, b, c = [1.0], m.k_comp, [m.k]
    while c[-1] > 1e-16 * a[-1] and len(a) < 24:
        a_next, b_next = 0.5 * (a[-1] + b), math.sqrt(a[-1] * b)
        c.append(0.5 * (a[-1] - b))
        a.append(a_next)
        b = b_next
    K = complete_elliptic_K(m)
    y = np.asarray(y, dtype=float)
    y = np.where(np.abs(y) <= POLE_EPS / np.finfo(float).eps, y, np.nan)
    y_red = y - 4.0 * K * np.round(y / (4.0 * K))
    n_last = len(a) - 1
    phi = (2.0**n_last) * a[n_last] * y_red
    for n in range(n_last, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m.k2 * sn * sn)


ORACLE_MODULI = [EllipticModulus(k) for k in (
    1.0 / math.sqrt(2.0), math.sin(math.pi / 12), math.cos(math.pi / 12),
    1e-6, 0.01, 0.5, 0.999, 1.0 - 1e-12)]

# max |kernel - scipy| over every draw below, which the reference meets too:
# measured 1.6e-14 for both, most of it scipy's own dn error at |y| ~ 8K
ORACLE_ATOL = 5e-14
# the kernel's max error on a draw is at most this multiple of the
# reference's, or of eps max(1, |y|), the error the rounding of y alone
# carries: measured 3.0, on draws near y = 0 where both read a few ulps
ORACLE_RATIO = 4.0


def oracle_half_width(m: EllipticModulus) -> float:
    """Draws span [-w, w]: 8K, except at k = 1 - 1e-12, where scipy's ellipj
    (Cephes ellpj) switches to its m -> 1 tanh expansion, which holds to
    rounding only while (1 - m) cosh^2 y is tiny."""
    return 4.0 if m.k > 1.0 - 1e-10 else 8.0 * complete_elliptic_K(m)


def max_errors(kernel, y, m, expected):
    return np.array([np.max(np.abs(a - b)) for a, b in zip(kernel(y, m), expected)])


def assert_matches_oracle(y, m, expected):
    new = max_errors(jacobi_sn_cn_dn, y, m, expected)
    ref = max_errors(reference_jacobi, y, m, expected)
    assert new.max() <= ORACLE_ATOL and ref.max() <= ORACLE_ATOL
    floor = np.finfo(float).eps * max(1.0, float(np.max(np.abs(y))))
    assert (new <= ORACLE_RATIO * np.maximum(ref, floor)).all(), (new, ref)


class TestScipyOracle:
    """sn, cn and dn against scipy.special.ellipj, and the replaced kernel's errors."""

    @pytest.mark.parametrize("m", ORACLE_MODULI, ids=lambda m: f"k={m.k:.12g}")
    def test_uniform_draw(self, m):
        w = oracle_half_width(m)
        y = np.random.default_rng(17).uniform(-w, w, 4000)
        assert_matches_oracle(y, m, ellipj(y, m.k2)[:3])

    @pytest.mark.parametrize("m", ORACLE_MODULI, ids=lambda m: f"k={m.k:.12g}")
    def test_multiples_of_K(self, m):
        # exact there (DLMF 22.5.1): sn, cn, dn = (0, 1, 1), (1, 0, k'),
        # (0, -1, 1), (-1, 0, k') at j = 0, 1, 2, 3 mod 4
        j = np.arange(-8, 9)
        quarter = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, m.k_comp],
                            [0.0, -1.0, 1.0], [-1.0, 0.0, m.k_comp]])
        assert_matches_oracle(j * complete_elliptic_K(m), m, quarter[j % 4].T)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(m=st.sampled_from(ORACLE_MODULI), t=st.floats(-1.0, 1.0))
    def test_hypothesis_draw(self, m, t):
        y = np.array([t * oracle_half_width(m)])
        assert_matches_oracle(y, m, ellipj(y, m.k2)[:3])


class TestKernelContract:
    @pytest.mark.parametrize("m", ORACLE_MODULI, ids=lambda m: f"k={m.k:.12g}")
    def test_inputs_are_never_written(self, m):
        y = np.linspace(-9.0, 9.0, 64)
        y.flags.writeable = False
        jacobi_sn_cn_dn(y, m)
        # a writable stride-0 view: a write through it would land in every row
        row = np.linspace(-9.0, 9.0, 64)
        view = np.lib.stride_tricks.as_strided(row, shape=(5, 64), strides=(0, row.itemsize))
        assert view.flags.writeable
        got = jacobi_sn_cn_dn(view, m)
        assert np.array_equal(row, np.linspace(-9.0, 9.0, 64))
        for a, b in zip(got, jacobi_sn_cn_dn(np.tile(row, (5, 1)), m)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("y", [1.5, np.float64(1.5), np.array(1.5), [0.5, 1.5],
                                   np.linspace(0.0, 3.0, 12).reshape(3, 4), np.arange(4)],
                             ids=["float", "float64", "0-d", "list", "2-d", "int"])
    def test_shapes_and_types_match_the_reference(self, y):
        for m in ORACLE_MODULI:
            for a, b in zip(jacobi_sn_cn_dn(y, m), reference_jacobi(y, m)):
                assert type(a) is type(b)
                assert np.shape(a) == np.shape(b) and a.dtype == b.dtype

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "chain", "--params", '{"index": 5}'],
        ["verify", "--family", "chain", "--params", '{"index": 3}'],
        ["verify", "--family", "fisher-weierstrass", "--params", '{"C": 100}'],
        ["ode-check", "--chain-index", "17"],
    ], ids=["sample-chain-5", "verify-chain-3", "verify-fisher-weierstrass", "ode-check-17"])
    def test_cli_runs_under_raise(self, argv, tmp_path, capsys):
        with np.errstate(all="raise"):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()


def ds_forms(y):
    """The quotient ds = dn/sn at modulus 1/sqrt2 as the package forms it: chain
    element 0 from its closed form (eval) and from its recurrence (levels),
    each (ds, ds'), both nan where masked."""
    state = phi_chain(0)
    return state.eval(y), next(state.levels(y))


class TestJacobiQuotient:
    """ds = dn/sn, the quotient the chain is seeded with (element 0)."""

    def test_definitional_identity(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0.2, 3.0, 500)
        sn, _, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        for ds, dds in ds_forms(y):
            assert np.isfinite(ds).all() and np.isfinite(dds).all()
            assert np.max(np.abs(ds * sn - dn)) < 1e-13

    def test_pole_masking(self):
        for val, dval in ds_forms(np.array([0.0, 1.0])):
            assert np.isnan(val[0]) and np.isnan(dval[0])
            assert np.isfinite(val[1]) and np.isfinite(dval[1])

    def test_ds_leading_laurent(self):
        # sn ~ y near 0 so ds * y -> 1; oracle value from the series of sn
        y = np.array([1e-4, 1e-5])
        for val, dval in ds_forms(y):
            assert np.isfinite(val).all() and np.isfinite(dval).all()
            assert np.max(np.abs(val * y - 1.0)) < 1e-7

    def test_cs_over_dn_matches_log_derivative_of_ds(self):
        # phi = ds has phi'/phi = -cs/dn: finite differences pick the sign
        m = MODULUS_INV_SQRT2
        y = 1.2
        h = 1e-5
        sn, cn, dn = jacobi_sn_cn_dn(y, m)
        cs = cn / sn
        for form in (0, 1):  # eval, then levels
            f = lambda q: ds_forms(q)[form][0]
            dphi = (f(y - 2 * h) - 8 * f(y - h) + 8 * f(y + h) - f(y + 2 * h)) / (12 * h)
            ratio = dphi / f(y)
            assert abs(abs(ratio) - abs(cs / dn)) < 1e-9
            assert abs(ratio - (-cs / dn)) < 1e-9
            # the analytic derivative that the chain carries has the same sign
            phi, dphi = ds_forms(y)[form]
            assert abs(dphi / phi - (-cs / dn)) < 1e-12

    def test_first_integral_of_ds(self):
        # (phi')^2 - phi^4 = -1/4 at modulus 1/sqrt(2), phi = ds
        m = MODULUS_INV_SQRT2
        rng = np.random.default_rng(11)
        y = rng.uniform(0.15, 3.55, 400)
        sn, cn, dn = jacobi_sn_cn_dn(y, m)
        phi = dn / sn
        dphi = -cn / sn**2  # exact derivative of ds at any modulus with k'=k
        assert np.max(np.abs(dphi**2 - phi**4 + 0.25)) < 1e-9


def wp_ode_oracle(z_target: float, inv: WeierstrassInvariants, z0: float = 0.1):
    """Series-seeded high-order integration of P'' = 6P^2 - g2/2.

    Seeded with the truncated Laurent series (1/z^2 + g2 z^2/20 + g3 z^4/28
    plus the next recurrence terms) at a z0 small enough for the truncation
    to sit below 1e-12 but far enough from the pole that relative error
    control stays meaningful.
    """
    c2, c3 = inv.g2 / 20.0, inv.g3 / 28.0
    c4, c5 = c2 * c2 / 3.0, 3.0 * c2 * c3 / 11.0
    c6 = (c3 * c3 + 2.0 * c2 * c4) / 13.0
    p0 = 1.0 / z0**2 + sum(c * z0 ** (2 * m - 2) for m, c in enumerate((c2, c3, c4, c5, c6), start=2))
    q0 = -2.0 / z0**3 + sum((2 * m - 2) * c * z0 ** (2 * m - 3)
                            for m, c in enumerate((c2, c3, c4, c5, c6), start=2))
    sol = solve_ivp(
        lambda z, y: [y[1], 6.0 * y[0] ** 2 - 0.5 * inv.g2],
        (z0, z_target), [p0, q0], method="DOP853", rtol=1e-13, atol=1e-14,
    )
    assert sol.success
    return sol.y[0][-1], sol.y[1][-1]


class TestWeierstrass:
    def test_degenerate_lattice(self):
        inv = WeierstrassInvariants(0.0, 0.0)
        z = np.array([0.25, 1.0, 3.0])
        p, dp = weierstrass_p(z, inv)
        assert np.isfinite(p).all() and np.isfinite(dp).all()
        assert np.allclose(p, 1.0 / z**2, rtol=1e-14)
        assert np.allclose(dp, -2.0 / z**3, rtol=1e-14)
        with pytest.raises(EllipticError, match="g3 != 0"):
            weierstrass_real_half_period(inv)

    @pytest.mark.parametrize("g3", [1.0, 100.0, 1e4, 1e6, -1.0, -4.0, -37.5, -1e4])
    def test_defining_identity(self, g3):
        inv = WeierstrassInvariants(0.0, g3)
        om = weierstrass_real_half_period(inv)
        z = np.linspace(1e-3, 3.7 * om, 20_001)
        p, dp = weierstrass_p(z, inv)
        ok = np.isfinite(p)
        assert np.array_equal(np.isfinite(dp), ok) and ok.any()
        resid = dp**2 - (4 * p**3 - inv.g2 * p - inv.g3)
        scale = np.abs(dp) ** 2 + np.abs(4 * p**3) + abs(g3)
        assert np.max(np.abs(resid[ok]) / scale[ok]) < 1e-13

    # g3 > 0 has modulus k = sin 15 deg, g3 < 0 has k = cos 15 deg
    @pytest.mark.parametrize("g3", [100.0, -5.0, -37.5])
    def test_ode_oracle(self, g3):
        inv = WeierstrassInvariants(0.0, g3)
        p_o, dp_o = wp_ode_oracle(0.3, inv)
        p, dp = weierstrass_p(0.3, inv)
        assert np.isfinite(p) and np.isfinite(dp)
        assert abs(p - p_o) / abs(p_o) < 1e-9
        assert abs(dp - dp_o) / abs(dp_o) < 1e-9

    def test_general_invariants_rejected(self):
        # only the g2 = 0 lattices have period reduction and pole masking
        with pytest.raises(EllipticError, match="g2"):
            WeierstrassInvariants(3.0, 1.0)

    def test_near_zero_laurent(self):
        inv = WeierstrassInvariants(0.0, 100.0)
        z = np.array([1e-3, 5e-3])
        p, dp = weierstrass_p(z, inv)
        assert np.isfinite(p).all() and np.isfinite(dp).all()
        assert np.max(np.abs(p * z**2 - 1.0)) < 1e-8

    def test_pole_masking_and_nonpositive(self):
        inv = WeierstrassInvariants(0.0, 1.0)
        om = weierstrass_real_half_period(inv)
        # at z = 1e9 the rounding of the Jacobi argument alone exceeds POLE_EPS
        z = np.array([-1.0, 0.0, 2 * om, 1e-10, 0.5 * om, 1e9])
        for value in weierstrass_p(z, inv):
            assert list(np.isfinite(value)) == [False, False, False, False, True, False]
            assert np.isnan(value[[0, 1, 2, 3, 5]]).all()

    def test_second_order_identity_fd(self):
        # P'' = 6 P^2 - g2/2, Richardson-extrapolated central differences
        inv = WeierstrassInvariants(0.0, 1.0)
        om = weierstrass_real_half_period(inv)
        z = np.linspace(0.55 * om, 1.45 * om, 61)
        offsets = np.array([-2, -1, 0, 1, 2])

        def d2(h):
            st = np.array([weierstrass_p(z + o * h, inv)[0] for o in offsets])
            return (-st[0] + 16 * st[1] - 30 * st[2] + 16 * st[3] - st[4]) / (12 * h**2)

        rich = (16 * d2(0.01) - d2(0.02)) / 15.0
        p = weierstrass_p(z, inv)[0]
        assert np.max(np.abs(rich - (6 * p**2 - 0.5 * inv.g2))) < 1e-7

    # the last three are subnormal (where g3/4 would lose bits) or near the largest float
    @pytest.mark.parametrize("g3", [1.0, 100.0, 1e4, 1e6, -1.0, -4.0, -5.0, -37.5, -1e4,
                                    5e-324, -1e-310, 1.7e308])
    def test_half_period_gamma_closed_form(self, g3):
        # omega = Gamma(1/3)^3/(4 pi) |g3|^(-1/6), times sqrt(3) for g3 < 0
        omega = math.gamma(1.0 / 3.0) ** 3 / (4.0 * math.pi) * abs(g3) ** (-1.0 / 6.0)
        if g3 < 0:
            omega *= math.sqrt(3.0)
        inv = WeierstrassInvariants(0.0, g3)
        assert weierstrass_real_half_period(inv) == pytest.approx(omega, rel=1e-14, abs=0.0)

    def test_half_period_value(self):
        # P(omega) equals the real root of 4 e^3 = g3, with P'(omega) = 0
        for g3 in (1.0, 100.0):
            inv = WeierstrassInvariants(0.0, g3)
            om = weierstrass_real_half_period(inv)
            p, dp = weierstrass_p(om, inv)
            assert np.isfinite(p) and np.isfinite(dp)
            assert abs(p - (g3 / 4.0) ** (1.0 / 3.0)) < 1e-10 * max(1.0, abs(p))
            assert abs(dp) < 1e-6 * max(1.0, g3 ** 0.5)


class TestPoleDiv:
    DEN = np.array([-2.5, -1.0, -3e-8, -POLE_EPS, -np.nextafter(POLE_EPS, 0.0), -POLE_EPS / 2,
                    -0.0, 0.0, POLE_EPS / 2, np.nextafter(POLE_EPS, 0.0), POLE_EPS,
                    np.nextafter(POLE_EPS, 1.0), 0.3, 7.0, np.inf, -np.inf, np.nan])
    OUTSIDE = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0], dtype=bool)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_value_is_the_division_where_defined(self, power):
        num = np.linspace(-2.0, 3.0, self.DEN.size)
        val = _pole_div(num, self.DEN, power)
        defined = ~np.isnan(val)
        assert np.array_equal(defined, self.OUTSIDE)
        with np.errstate(all="ignore"):
            expected = num / self.DEN**power
        # bitwise: the same IEEE operations on the defined points
        assert np.array_equal(val[defined].view(np.int64), expected[defined].view(np.int64))
        assert np.isnan(val[~defined]).all()

    def test_mask_flips_exactly_at_pole_eps_and_a_nan_denominator_masks(self):
        # a point masked upstream reaches _pole_div as a nan denominator
        den = np.array([POLE_EPS, np.nextafter(POLE_EPS, 0.0), -POLE_EPS,
                        -np.nextafter(POLE_EPS, 0.0), 1.0, np.nan])
        val = _pole_div(1.0, den)
        defined = ~np.isnan(val)
        assert list(defined) == [True, False, True, False, True, False]
        assert np.array_equal(_off_pole(den), defined)
        assert np.isnan(val[~defined]).all() and np.isfinite(val[defined]).all()

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_masked_denominators_never_raise(self, power):
        den = np.array([0.0, -0.0, POLE_EPS / 2, -POLE_EPS / 2, np.nan, np.inf, -np.inf])
        with np.errstate(all="raise"):
            val = _pole_div(np.ones_like(den), den, power)
        assert list(~np.isnan(val)) == [False] * 4 + [False, True, True]
        assert np.isnan(val[:5]).all() and (val[5:] == 0.0).all()


# (module, function, comparison) of every read of POLE_EPS in the package: the
# pole rule's two halves, and one bound that compares no denominator, the
# argument range of the Jacobi reduction
POLE_EPS_READS = {
    ("elliptic.py", "_off_pole", "den >= POLE_EPS"),
    ("elliptic.py", "_off_pole", "den <= -POLE_EPS"),
    ("elliptic.py", "jacobi_sn_cn_dn", "np.abs(y) <= POLE_EPS / np.finfo(float).eps"),
}


def pole_eps_reads(node, function="<module>", comparison=None):
    """(function, comparison) of every read of POLE_EPS under node; the comparison
    is None for a read outside one, and an import under another name counts."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif isinstance(node, ast.Compare):
        comparison = ast.unparse(node)
    elif ((isinstance(node, ast.Name) and node.id == "POLE_EPS" and isinstance(node.ctx, ast.Load))
          or (isinstance(node, ast.Attribute) and node.attr == "POLE_EPS")
          or (isinstance(node, ast.alias) and node.name == "POLE_EPS" and node.asname)):
        yield function, comparison
    for child in ast.iter_child_nodes(node):
        yield from pole_eps_reads(child, function, comparison)


class TestOnePoleRule:
    def test_pole_eps_is_read_by_the_rule_and_one_bound_only(self):
        # any other comparison with POLE_EPS would restate the pole rule
        # beside _off_pole, which _pole_div and every mask-only site call
        reads = set()
        for path in sorted(Path(rdwaves.__file__).parent.glob("*.py")):
            for function, comparison in pole_eps_reads(ast.parse(path.read_text())):
                reads.add((path.name, function, comparison))
        assert reads == POLE_EPS_READS

    def test_the_rule_is_the_absolute_comparison(self):
        # two comparisons instead of np.abs: the same mask at every edge value
        edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, POLE_EPS, -POLE_EPS]
        near = [np.nextafter(v, d) for v in (POLE_EPS, -POLE_EPS, 0.0, -0.0) for d in (-np.inf, np.inf)]
        near += [np.nextafter(v, 0.0) for v in (np.inf, -np.inf)]
        den = np.array(edges + near)
        got = _off_pole(den)
        assert got.dtype == bool and np.array_equal(got, np.abs(den) >= POLE_EPS)
        assert list(got[:7]) == [False, True, True, False, False, True, True]
        for value in den:
            assert _off_pole(value) == (abs(value) >= POLE_EPS)


BOUND = POLE_EPS / np.finfo(float).eps  # the largest argument jacobi_sn_cn_dn reduces


def mp_sin_cos(z):
    """sin and cos of each double in z, correctly rounded (mpmath at 120 bits)."""
    with mpmath.workprec(120):
        return (np.array([float(mpmath.sin(mpmath.mpf(float(v)))) for v in z]),
                np.array([float(mpmath.cos(mpmath.mpf(float(v)))) for v in z]))


class TestSinCos:
    """_sin_cos, the one source of sin and cos: both from tan(z/2)."""

    @pytest.mark.parametrize("half_width", [math.pi, 40.0, BOUND], ids=["pi", "40", "bound"])
    def test_against_mpmath(self, half_width):
        z = np.random.default_rng(29).uniform(-half_width, half_width, 3000)
        sin, cos = _sin_cos(z)
        sin_mp, cos_mp = mp_sin_cos(z)
        assert np.all(np.abs(sin - sin_mp) <= 4 * np.spacing(np.abs(sin_mp)))
        assert np.all(np.abs(cos - cos_mp) <= 2 * np.finfo(float).eps)

    def test_near_odd_multiples_of_pi(self):
        # tan(z/2) is huge there: sin is 2/t to a few ulp and cos is -1
        centres = np.pi * np.array([1.0, -1.0, 3.0, -5.0, 101.0, 2.0**20 + 1, 1.4e7 + 1])
        z = np.concatenate([centres, np.nextafter(centres, np.inf), np.nextafter(centres, -np.inf)])
        with np.errstate(all="raise"):
            sin, cos = _sin_cos(z)
        sin_mp, cos_mp = mp_sin_cos(z)
        assert np.all(np.abs(sin - sin_mp) <= 4 * np.spacing(np.abs(sin_mp)))
        assert np.all(np.sign(sin) == np.sign(sin_mp))
        assert np.all(np.abs(cos + 1.0) <= 2 * np.finfo(float).eps)

    def test_nan_and_signed_zeros(self):
        z = np.array([np.nan, 0.0, -0.0])
        with np.errstate(all="raise"):
            sin, cos = _sin_cos(z)
        assert np.isnan(sin[0]) and np.isnan(cos[0])
        assert list(np.signbit(sin[1:])) == [False, True] and (sin[1:] == 0.0).all()
        assert (cos[1:] == 1.0).all()

    def test_buffers_give_the_same_bits(self):
        z = np.linspace(-BOUND, BOUND, 1001)
        t, t2, den = np.empty_like(z), np.empty_like(z), np.empty_like(z)
        work = z.copy()
        got = _sin_cos(work, t=work, t2=t2, den=den)
        for a, b in zip(got, _sin_cos(z)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert np.array_equal(den, 1.0 + t2) and np.array_equal(t2, work * work)
        got = _sin_cos(z, t=t, t2=t2, den=den)
        assert np.array_equal(t, np.tan(0.5 * z)) and np.array_equal(got[0], _sin_cos(z)[0])

    def test_scalars_stay_scalars(self):
        for z in (0.5, np.float64(0.5), np.array(0.5)):
            for value, expected in zip(_sin_cos(z), (math.sin(0.5), math.cos(0.5))):
                assert type(value) is np.float64 and value == pytest.approx(expected, rel=1e-15)


def circular_calls(node, function="<module>"):
    """The enclosing function of every sin or cos of np, numpy or math under
    node, and of every import of one of them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif ((isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
           and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "math"))
          or (isinstance(node, ast.alias) and node.name in ("sin", "cos"))):
        yield function
    for child in ast.iter_child_nodes(node):
        yield from circular_calls(child, function)


class TestOneTangent:
    def test_sin_and_cos_are_read_in_sin_cos_only(self):
        # every other site calls _sin_cos, so a circular function has one source
        sites = set()
        for path in sorted(Path(rdwaves.__file__).parent.glob("*.py")):
            sites.update((path.name, f) for f in circular_calls(ast.parse(path.read_text())))
        assert sites <= {("elliptic.py", "_sin_cos")}

    def test_the_guard_sees_a_call(self):
        tree = ast.parse("import math\nfrom numpy import cos\ndef f(x):\n    return np.sin(x) + math.cos(x)\n")
        assert sorted(circular_calls(tree)) == ["<module>", "f", "f"]
