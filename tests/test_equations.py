"""Equation registry: right-hand sides, derived constants, KPP checks."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import re
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import rdwaves
from rdwaves import equations
from rdwaves.equations import (
    CubicPolynomial,
    EquationError,
    Fisher,
    GeneralFamily,
    GeneralizedFisher,
    KPPGeneric,
    PerturbedFisher,
    PowerLaw,
    QuadraticDecay,
    SigmaFamily,
    build_eq47,
    central_difference,
    derived_constants,
    kpp_check,
    rhs_eval,
    spec_from_json,
    spec_to_json,
)


class TestDerivedConstants:
    @pytest.mark.parametrize("n,k,lam", [(3, 1, 2), (2, 2, 6), (-1, -1, 0)])
    def test_values(self, n, k, lam):
        dc = derived_constants(n)
        assert dc.k == pytest.approx(k, abs=1e-15)
        assert dc.lam == pytest.approx(lam, abs=1e-15)

    def test_n_one_rejected(self):
        with pytest.raises(EquationError):
            derived_constants(1.0)

    def test_recomputable(self):
        for n in (1.5, 2.0, 4.7, -3.0):
            dc = derived_constants(n)
            assert dc.k * (n - 1) == pytest.approx(2.0, abs=1e-14)


class TestRhs:
    def test_fisher_equilibria(self):
        assert rhs_eval(Fisher(), 0.0) == 0.0
        assert rhs_eval(Fisher(), 1.0) == 0.0

    def test_power_law_n3(self):
        assert rhs_eval(PowerLaw(3), 2.0) == pytest.approx(-16.0, abs=1e-12)

    def test_generalized_fisher_reduces_to_fisher(self):
        u = np.linspace(0.0, 1.0, 500)
        gf = GeneralizedFisher(c1=-1.0)
        assert np.max(np.abs(gf.rhs(u) - Fisher().rhs(u))) < 1e-14

    def test_quadratic_decay(self):
        assert rhs_eval(QuadraticDecay(), 3.0) == -9.0

    def test_fractional_power_domain_error(self):
        with pytest.raises(EquationError, match="non-positive base"):
            rhs_eval(GeneralFamily(n=2.0, lambda2=1.0), -0.5)

    def test_perturbed_fisher_domain(self):
        pf = PerturbedFisher(epsilon=0.3)
        assert rhs_eval(pf, 1.0) == pytest.approx(0.3 * math.sqrt(0.5), abs=1e-15)
        with pytest.raises(EquationError):
            rhs_eval(pf, 2.0)

    def test_cubic_alpha_validation(self):
        with pytest.raises(EquationError):
            CubicPolynomial(alpha=2, b=0.0, c=0.0)

    def test_halfpower_sign_validation(self):
        with pytest.raises(EquationError, match="halfpower_sign"):
            GeneralFamily(n=2.0, halfpower_sign=0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_general_family_all_couplings(self, sign):
        # n = 3/2, k = 4: every coupling on, lambda3 included, against the
        # written-out k(-(k+1)u^n + l1 u + s l2 u^((n+1)/2) + s l3 u^((3-n)/2) + l4 u^(2-n))
        l1, l2, l3, l4 = 0.5, 0.7, -1.1, 0.4
        spec = GeneralFamily(n=1.5, lambda1=l1, lambda2=l2, lambda3=l3, lambda4=l4,
                             halfpower_sign=sign)
        u = np.linspace(0.05, 3.0, 200)
        expected = 4.0 * (-5.0 * u**1.5 + l1 * u + sign * l2 * u**1.25
                          + sign * l3 * u**0.75 + l4 * u**0.5)
        assert np.max(np.abs(spec.rhs(u) - expected)) < 1e-12
        with pytest.raises(EquationError, match="non-positive base"):
            rhs_eval(spec, -0.5)

    def test_sigma_family_factored_form(self):
        # n = 2 rhs equals (u + nu)(-3u + sigma sqrt(u) - nu) pointwise
        nu, sigma = -1.5, 0.7
        sf = SigmaFamily(n=2.0, nu=nu, sigma=sigma)
        u = np.linspace(0.05, 3.0, 400)
        factored = (u + nu) * (-3.0 * u + sigma * np.sqrt(u) - nu)
        assert np.max(np.abs(sf.rhs(u) - factored)) < 1e-12

    def test_sigma_family_sigma_zero_is_cubic_factorization(self):
        nu = 0.8
        sf = SigmaFamily(n=2.0, nu=nu, sigma=0.0)
        u = np.linspace(0.05, 3.0, 400)
        assert np.max(np.abs(sf.rhs(u) - (u + nu) * (-3.0 * u - nu))) < 1e-12

    @pytest.mark.parametrize("spec", [PowerLaw(3), GeneralFamily(n=-1, lambda4=-2),
                                      GeneralFamily(n=3, lambda1=2), GeneralFamily(n=3, lambda1=-2)],
                             ids=["power-law-3", "cubic-plus", "cubic-lambda1-2", "cubic-lambda1-m2"])
    def test_odd_equations_are_exactly_odd(self, spec):
        # the chain equations are odd in u, so rhs(-u) is -rhs(u) exactly: a
        # non-zero value bit for bit, and nan where nan.  A zero may carry
        # either sign, since x + (-x) rounds to +0 whatever the sign of x
        rng = np.random.default_rng(7)
        mags = np.r_[0.0, np.geomspace(1e-8, 1e8, 4001), 4.0 * rng.random(4000), 1e200, np.inf]
        u = np.r_[mags, -mags, np.nan]
        with np.errstate(all="ignore"):
            plus, minus = spec.rhs(u), spec.rhs(-u)
        assert np.array_equal(minus, -plus, equal_nan=True)
        assert np.isinf(plus).any() and np.isnan(plus).any()

    def test_kpp_generic_callable(self):
        spec = KPPGeneric(f=lambda u: np.zeros_like(u), label="zero")
        assert rhs_eval(spec, 0.7) == 0.0


# (derivative, order); each central stencil is exact on polynomials up to
# degree order + derivative - 1
STENCILS = [(1, 2), (1, 4), (2, 2), (2, 4), (3, 4)]


class TestCentralDifference:
    @staticmethod
    def monomial(x, j, derivative):
        """d^derivative/dx^derivative of x^j."""
        if j < derivative:
            return np.zeros_like(x)
        return math.perm(j, derivative) * x ** (j - derivative)

    @pytest.mark.parametrize("derivative, order", STENCILS)
    def test_exact_on_polynomials_up_to_degree(self, derivative, order):
        h = 0.125
        x = -1.0 + h * np.arange(17)
        r = (len(x) - len(central_difference(x, h, derivative, order))) // 2
        assert r == (derivative + 1) // 2 + order // 2 - 1
        for j in range(order + derivative):
            got = central_difference(x**j, h, derivative, order)
            want = self.monomial(x[r:-r], j, derivative)
            assert np.max(np.abs(got - want)) < 1e-10, j

    @pytest.mark.parametrize("derivative, order", STENCILS)
    def test_first_inexact_degree_converges_at_order(self, derivative, order):
        # on x^(order + derivative) the error at x = 1 is C h^order: halving h
        # divides it by 2^order
        j = order + derivative
        errors = []
        for h in (0.125, 0.0625):
            r = (derivative + 1) // 2 + order // 2 - 1
            x = 1.0 + h * np.arange(-r, r + 1)
            got = central_difference(x**j, h, derivative, order)[0]
            errors.append(abs(got - math.perm(j, derivative)))
        assert errors[1] > 0.0
        assert math.log2(errors[0] / errors[1]) == pytest.approx(order, abs=0.05)

    def test_differences_along_axis_zero(self):
        # a(x, t) = x^2 (1 + 3t): a gives a_xx = 2 (1 + 3t), its transpose a_t = 3 x^2
        h = 0.25
        x, t = h * np.arange(9), h * np.arange(5)
        a = np.outer(x**2, 1.0 + 3.0 * t)
        a_xx = central_difference(a, h, 2, 4)
        assert a_xx.shape == (5, 5)
        assert np.allclose(a_xx, np.outer(np.full(5, 2.0), 1.0 + 3.0 * t), rtol=0, atol=1e-12)
        a_t = central_difference(a.T, h, 1, 2).T
        assert a_t.shape == (9, 3)
        assert np.allclose(a_t, np.outer(3.0 * x**2, np.ones(3)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("derivative, order", [(3, 2), (1, 6), (0, 4)])
    def test_unknown_stencil_rejected(self, derivative, order):
        for shape in ((9,), (9, 4)):
            with pytest.raises(ValueError, match="no central stencil"):
                central_difference(np.zeros(shape), 0.1, derivative, order)


def reference_central_difference(a, h, derivative, order):
    """The five stencils written out term by term, summed in ascending offset order."""
    match derivative, order:
        case 1, 2:
            return (a[2:] - a[:-2]) / (2.0 * h)
        case 1, 4:
            return (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)
        case 2, 2:
            return (a[:-2] - 2.0 * a[1:-1] + a[2:]) / h**2
        case 2, 4:
            return (-a[:-4] + 16.0 * a[1:-3] - 30.0 * a[2:-2] + 16.0 * a[3:-1]
                    - a[4:]) / (12.0 * h**2)
        case 3, 4:
            return (a[:-6] - 8.0 * a[1:-5] + 13.0 * a[2:-4] - 13.0 * a[4:-2] + 8.0 * a[5:-1]
                    - a[6:]) / (8.0 * h**3)


def scaled_draws(shape, seed):
    """Normal draws scaled by 10^-3 .. 10^2, so the terms of a stencil differ in size."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)


class TestWeightTable:
    def test_table_holds_every_stencil(self):
        assert sorted(equations.STENCILS) == STENCILS
        for (derivative, order), (weights, den, power) in equations.STENCILS.items():
            assert all(isinstance(w, int) for w in weights) and isinstance(den, int)
            assert den > 0 and power == derivative
            # symmetric for even derivatives, antisymmetric for odd ones
            assert weights == tuple((-1) ** derivative * w for w in reversed(weights))

    @pytest.mark.parametrize("shape", [(385, 193), (193, 385), (97, 49), (9, 3), (7, 1)])
    @pytest.mark.parametrize("derivative, order", STENCILS)
    def test_two_dimensional_is_the_written_out_sum(self, derivative, order, shape):
        # the weighted-slice loop keeps the summation order of the written-out
        # stencils, so every verify and figure output stays byte-identical
        a = scaled_draws(shape, 3)
        a[0, 0], a[shape[0] // 2, -1], a[-1, 0] = np.inf, np.nan, -np.inf
        for h in (0.05, 0.0123, 3.7):
            with np.errstate(invalid="ignore"):
                got = central_difference(a, h, derivative, order)
                want = reference_central_difference(a, h, derivative, order)
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("n", [7, 8, 161, 481])
    @pytest.mark.parametrize("derivative, order", STENCILS)
    def test_one_dimensional_within_rounding(self, derivative, order, n):
        # any summation order of sum_j w_j a_j lies within width * eps/2 * sum |w_j a_j|
        # of the exact sum (Higham, Accuracy and Stability, 2nd ed., sec. 3.1), so two
        # orders differ by at most width * eps * sum |w| max |a|; the shared final
        # division by den * h^power scales that bound with it
        weights, den, power = equations.STENCILS[derivative, order]
        a = scaled_draws(n, n)
        for h in (0.05, 0.0123, 3.7):
            got = central_difference(a, h, derivative, order)
            want = reference_central_difference(a, h, derivative, order)
            bound = (2 * len(weights) * np.finfo(float).eps * sum(map(abs, weights))
                     * np.max(np.abs(a)) / (den * h**power))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("n", [5, 16, 481])
    @pytest.mark.parametrize("order", [2, 4])
    def test_bound_kernel_is_the_one_dimensional_path(self, order, n):
        # the integrator binds the second-derivative kernel and scale once per
        # march and divides the correlation in place: central_difference's
        # result bit for bit, non-finite entries included
        rng = np.random.default_rng(n)
        a = scaled_draws(n, n)
        a[rng.choice(n, 3, replace=False)] = np.inf, -np.inf, np.nan
        for h in (0.05, 0.0123, 3.7):
            kernel, scale = equations.stencil_kernel(2, order, h)
            with np.errstate(invalid="ignore"):
                got = np.correlate(a, kernel, "valid")
                got /= scale
                want = central_difference(a, h, 2, order)
            assert np.array_equal(got, want, equal_nan=True)

    def test_bound_kernel_only_without_zero_weights(self):
        # derivatives 1 and 3 weigh their centre by 0, so they are summed by slices
        for (derivative, order), (_, den, power) in equations.STENCILS.items():
            kernel, scale = equations.stencil_kernel(derivative, order, 0.5)
            assert scale == den * 0.5**power
            assert (kernel is None) == (derivative != 2)
        with pytest.raises(ValueError, match="no central stencil"):
            equations.stencil_kernel(2, 6, 0.5)
        with pytest.raises(ValueError, match="overflows when raised to the power 2"):
            central_difference(np.zeros(9), 1e200, 2, 4)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("derivative, order", STENCILS)
    def test_one_dimensional_finiteness_pattern(self, derivative, order, bad):
        # a non-finite entry spoils exactly the outputs whose stencil weighs it; under
        # the zero centre weight of derivatives 1 and 3 it must not (0 * inf is nan)
        base = scaled_draws(15, 1)
        for i in range(len(base)):
            for j in (i, len(base) - 1 - i):  # one bad entry, or a pair of them
                a = base.copy()
                a[i] = bad
                a[j] = -bad if j != i else bad
                with np.errstate(invalid="ignore"):
                    got = central_difference(a, 0.1, derivative, order)
                    want = reference_central_difference(a, 0.1, derivative, order)
                assert np.array_equal(np.isfinite(got), np.isfinite(want)), (i, j)


def stencils_reads(tree) -> int:
    """How many times tree loads or imports STENCILS, under any name."""
    return sum((isinstance(node, ast.Name) and node.id == "STENCILS"
                and isinstance(node.ctx, ast.Load))
               or (isinstance(node, ast.Attribute) and node.attr == "STENCILS")
               or (isinstance(node, ast.alias) and node.name == "STENCILS")
               for node in ast.walk(tree))


class TestSharedTables:
    def test_stencils_are_read_in_equations_only(self):
        # every other module reaches a weight through stencil_kernel or
        # central_difference, so the table has one reader
        readers = {path.name for path in Path(rdwaves.__file__).parent.glob("*.py")
                   if stencils_reads(ast.parse(path.read_text()))}
        assert readers == {"equations.py"}

    def test_module_arrays_are_read_only(self):
        # a module's numpy table is shared by every call that reads it: none may
        # be written, whether it is a global or the value of a global mapping
        arrays = {}
        for info in pkgutil.iter_modules(rdwaves.__path__):
            module = importlib.import_module(f"rdwaves.{info.name}")
            for name, value in vars(module).items():
                values = value.values() if isinstance(value, Mapping) else [value]
                for i, a in enumerate(values):
                    if isinstance(a, np.ndarray):
                        arrays[f"{info.name}.{name}[{i}]"] = a.flags.writeable
        assert len(arrays) >= 10  # the csv, stencil and verify tables
        assert not any(arrays.values()), arrays

    def test_module_tables_are_read_only_containers(self):
        # no module global holds a dict, list or set, nor does any mapping,
        # tuple or frozen dataclass under one: the registries and every table
        # are shared by every call in the process
        def mutable(value, where):
            if isinstance(value, (dict, list, set, bytearray)):
                yield where
            elif isinstance(value, Mapping):
                for key, item in value.items():
                    yield from mutable(item, f"{where}[{key!r}]")
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    yield from mutable(item, f"{where}[{i}]")
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                for f in dataclasses.fields(value):
                    yield from mutable(getattr(value, f.name), f"{where}.{f.name}")

        found = []
        for info in pkgutil.iter_modules(rdwaves.__path__):
            module = importlib.import_module(f"rdwaves.{info.name}")
            for name, value in vars(module).items():
                if not name.startswith("__"):
                    found += mutable(value, f"{info.name}.{name}")
        assert found == []

    def test_a_returned_kernel_cannot_be_written(self):
        kernel, _ = equations.stencil_kernel(2, 4, 0.125)
        with pytest.raises(ValueError, match="read-only"):
            kernel[:] = 0.0
        # (x^2)'' = 2 on the grid of step 1/8, whatever the write attempted
        x = np.linspace(0.0, 1.0, 9)
        assert central_difference(x**2, 0.125, 2, 4) == pytest.approx(np.full(5, 2.0))


class TestKPPCheck:
    def test_fisher(self):
        rep = kpp_check(Fisher())
        assert rep.all_ok
        assert rep.fprime0 == pytest.approx(1.0, abs=1e-5)

    def test_fitzhugh_nagumo_equilibria(self):
        c = 0.4
        rep = kpp_check(CubicPolynomial(alpha=-1, b=-c - 1.0, c=c))
        assert rep.f0_zero and rep.f1_zero

    def test_undefined_rhs_reads_nan_without_a_warning(self):
        # f(0) = (1 + 1/u) * 0 is inf * 0: rhs_eval names the nan itself, so no
        # numpy warning may escape ahead of it (CI runs with warnings as errors)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = kpp_check(SigmaFamily(n=2.0, nu=1.0, sigma=0.0))
        assert math.isnan(rep.f0) and math.isnan(rep.fprime0)
        assert rep.f1 == pytest.approx(-8.0, abs=1e-12)
        assert not rep.f0_zero and not rep.fprime0_positive and not rep.all_ok

    def test_power_law_fails_at_one(self):
        rep = kpp_check(PowerLaw(3))
        assert not rep.f1_zero
        assert rep.f1 == pytest.approx(-2.0, abs=1e-12)


class TestBuildEq47:
    def test_fisher_after_rescaling(self):
        # n = 2, c1 = -1, lambda2 = 0: f(u) = 6 u (1 - u), the Fisher rhs
        # times the tau = 6t time rescaling factor
        build = build_eq47(2.0, -1.0, 0.0)
        u = np.linspace(0.0, 1.0, 300)
        assert np.max(np.abs(build.spec.rhs(u) - 6.0 * u * (1.0 - u))) < 1e-12

    def test_front_condition_and_velocity(self):
        build = build_eq47(2.0, -1.0, 0.0)
        assert build.kpp_condition_holds
        assert build.velocity == pytest.approx(5.0, abs=1e-13)
        assert build_eq47(3.0, -1.0, 0.0).velocity == pytest.approx(3.0, abs=1e-13)
        assert build_eq47(2.0, -2.0, -3.0).velocity == pytest.approx(7.0, abs=1e-13)
        assert not build_eq47(2.0, -1.0, 0.5).kpp_condition_holds

    @pytest.mark.parametrize("n", [2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("c1", [-2.0, -1.0, 0.5, 2.0])
    def test_constant_state_is_equilibrium(self, n, c1):
        k = derived_constants(n).k
        if c1 < 0 and abs(k - round(k)) > 1e-12:
            pytest.skip("c1^k complex for fractional k")
        build = build_eq47(n, c1, 0.7)
        u0 = c1**k
        assert abs(rhs_eval(build.spec, u0)) < 1e-10

    def test_n_one_rejected(self):
        with pytest.raises(EquationError):
            build_eq47(1.0, -1.0, 0.0)

    def test_negative_branch_recorded(self):
        assert build_eq47(2.0, -2.0, -3.0).spec.halfpower_sign == -1
        assert build_eq47(2.0, 1.5, 0.0).spec.halfpower_sign == 1
        assert build_eq47(3.0, -1.0, 0.0).spec.halfpower_sign == 1


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            Fisher(),
            CubicPolynomial(alpha=-1, b=-1.4, c=0.4),
            PowerLaw(3.0),
            GeneralFamily(n=2.0, lambda1=3.0, lambda2=-3.0, halfpower_sign=-1),
            SigmaFamily(n=2.0, nu=-1.5, sigma=0.9),
            PerturbedFisher(epsilon=0.3),
            GeneralizedFisher(c1=2.0),
            QuadraticDecay(),
        ],
    )
    def test_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_kpp_generic_not_deserializable(self):
        obj = spec_to_json(KPPGeneric(f=lambda u: u, label="ident"))
        assert obj == {"variant": "KPPGeneric", "params": {"label": "ident"}}
        with pytest.raises(EquationError):
            spec_from_json(obj)

    def test_unknown_variant(self):
        # the valid list is every EquationSpec subclass except KPPGeneric
        names = ["CubicPolynomial", "Fisher", "GeneralFamily", "GeneralizedFisher",
                 "PerturbedFisher", "PowerLaw", "QuadraticDecay", "SigmaFamily"]
        with pytest.raises(EquationError, match=re.escape(f"valid: {names!r}")):
            spec_from_json({"variant": "Nope", "params": {}})
