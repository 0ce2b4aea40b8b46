"""Residual verifiers: convergence orders, chain checks, negative controls."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import rdwaves.verify as verify
from rdwaves.catalog import (
    CHAIN_K,
    FAMILIES,
    Sampler,
    ZSampler,
    build_family,
    chain_constant,
    elliptic_solution,
    fisher_front,
    phi_chain,
    z_from_phi,
    z_plane_wave,
)
from rdwaves.equations import Fisher, QuadraticDecay
from rdwaves.verify import (
    RESIDUAL_TOL,
    Grid2D,
    ResidualReport,
    VerificationImpossibleError,
    _dilate,
    _usable,
    clean_chain_samples,
    ode_residual,
    pde_residual,
    potential_residual,
    proposition_suite,
)

SQRT6 = math.sqrt(6.0)


def constant_sampler(value: float, equation) -> Sampler:
    def fn(x, t):
        u = np.full_like(np.asarray(x, dtype=float), value)
        return u, np.ones_like(u, dtype=bool)

    return Sampler(fn=fn, equation=equation, family_id="constant", params={"value": value})


class TestGrid:
    def test_spacing_and_refinement(self):
        g = Grid2D(0.0, 1.0, 11, 0.0, 2.0, 9)
        assert g.h_x == pytest.approx(0.1)
        assert g.h_t == pytest.approx(0.25)
        r = g.refined()
        assert r.n_x == 21 and r.n_t == 17
        assert r.h_x == pytest.approx(0.05)
        rr = r.refined()
        assert np.array_equal(r.x[::2], g.x) and np.array_equal(r.t[::2], g.t)
        assert np.array_equal(rr.x[::4], g.x) and np.array_equal(rr.t[::4], g.t)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_refinement_keeps_suggested_points_exactly(self, family):
        # the residual driver reads the coarse levels as strides of the
        # finest sample, which needs every coarse point reproduced bit for bit
        s = build_family(family)
        x0, x1, t0, t1 = s.suggested_window
        nx, nt = s.suggested_resolution
        g = Grid2D(x0, x1, nx, t0, t1, nt)
        r = g.refined()
        rr = r.refined()
        assert np.array_equal(r.x[::2], g.x) and np.array_equal(r.t[::2], g.t)
        assert np.array_equal(rr.x[::4], g.x) and np.array_equal(rr.t[::4], g.t)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            Grid2D(0.0, 1.0, 4, 0.0, 1.0, 9)

    def test_extent(self):
        with pytest.raises(ValueError):
            Grid2D(1.0, 0.0, 9, 0.0, 1.0, 9)


def rolled_dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Reference Chebyshev dilation: np.roll with the wrapped rows cleared."""
    out = mask.copy()
    for axis in (0, 1):
        acc = out.copy()
        for shift in range(1, radius + 1):
            for s in (shift, -shift):
                rolled = np.roll(out, s, axis=axis)
                edge = [slice(None), slice(None)]
                edge[axis] = slice(0, s) if s > 0 else slice(s, None)
                rolled[tuple(edge)] = False
                acc |= rolled
        out = acc
    return out


class TestDilate:
    @pytest.mark.parametrize("shape", [(20, 12), (9, 31), (97, 49)])
    @pytest.mark.parametrize("radius", [0, 1, 3, 10, 40])
    def test_matches_rolled_reference(self, shape, radius):
        # radius 40 exceeds every axis here: nothing may wrap round
        rng = np.random.default_rng(radius * 1000 + shape[0])
        for density in (0.002, 0.03, 0.3):
            mask = rng.random(shape) < density
            got = _dilate(mask, radius)
            assert np.array_equal(got, rolled_dilate(mask, radius))
            assert not np.shares_memory(got, mask)

    def test_single_cell_grows_a_clipped_box(self):
        mask = np.zeros((10, 8), dtype=bool)
        mask[1, 6] = True
        expected = np.zeros_like(mask)
        expected[0:5, 3:8] = True
        assert np.array_equal(_dilate(mask, 3), expected)
        corner = np.zeros((10, 8), dtype=bool)
        corner[0, 0] = True
        assert _dilate(corner, 9).all() and not _dilate(corner, 8)[9].any()


def reference_pde_masks(defined, r):
    """pde_residual's plus-stencil loop and standoff, written out for one radius r."""
    ok = defined.copy()
    for shift in range(1, r + 1):
        ok[shift:, :] &= defined[:-shift, :]
        ok[:-shift, :] &= defined[shift:, :]
        ok[:, shift:] &= defined[:, :-shift]
        ok[:, :-shift] &= defined[:, shift:]
    core = np.s_[r:-r, r:-r]
    return ok[core], _dilate(~defined, 5 * r)[core]


def reference_potential_valid(ok):
    """potential_residual's (3, 2) stencil loop and standoff, written out by hand."""
    okc = ok.copy()
    for shift in range(1, 4):
        okc[shift:, :] &= ok[:-shift, :]
        okc[:-shift, :] &= ok[shift:, :]
    for shift in range(1, 3):
        okc[:, shift:] &= ok[:, :-shift]
        okc[:, :-shift] &= ok[:, shift:]
    return okc[3:-3, 2:-2] & ~_dilate(~ok, 15)[3:-3, 2:-2]


class TestUsable:
    @pytest.mark.parametrize("rx, rt", [(1, 1), (2, 2), (3, 2)])
    def test_matches_both_stencil_loops(self, rx, rt):
        rng = np.random.default_rng(10 * rx + rt)
        for density in (0.0005, 0.005, 0.2):
            defined = rng.random((97, 65)) >= density
            defined[40:43, 20:22] = False  # a hole wider than one point
            plus, clear = _usable(defined, rx, rt)
            assert plus.shape == clear.shape == (97 - 2 * rx, 65 - 2 * rt)
            if rx == rt:
                ref_plus, standoff = reference_pde_masks(defined, rx)
                assert np.array_equal(plus, ref_plus)
                assert np.array_equal(clear, ~standoff)
            else:
                assert np.array_equal(plus & clear, reference_potential_valid(defined))
            assert plus.any() and not clear.all()


class TestPdeResidual:
    def test_fisher_front_spec_window(self):
        # finest spacing 0.02 on x in [-20, 20], t in [0, 5]
        s = fisher_front("tanh")
        g = Grid2D(-20.0, 20.0, 501, 0.0, 5.0, 64)
        rep = pde_residual(s, s.equation, g, 4)
        assert rep.max_abs <= 1e-7
        assert rep.order_estimate is not None and rep.order_estimate >= 3.5

    def test_constant_solution_residual_zero(self):
        s = constant_sampler(1.0, Fisher())
        g = Grid2D(-5.0, 5.0, 17, 0.0, 1.0, 9)
        rep = pde_residual(s, s.equation, g, 4)
        assert rep.max_abs == 0.0

    def test_negative_control_wrong_equation(self):
        s = fisher_front("tanh")
        g = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        rep = pde_residual(s, QuadraticDecay(), g, 4)
        assert rep.max_abs > 0.1
        assert rep.order_estimate is None or rep.order_estimate < 1.0

    def test_negative_control_perturbed_sampler(self):
        s = fisher_front("tanh").perturbed(0.01)
        g = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        rep = pde_residual(s, Fisher(), g, 4)
        assert rep.max_abs > 1e-3
        assert rep.order_estimate is None or rep.order_estimate < 1.0

    def test_second_order_stencil(self):
        s = fisher_front("tanh")
        g = Grid2D(-10.0, 10.0, 41, 0.0, 0.5, 17)
        rep = pde_residual(s, s.equation, g, 2)
        assert rep.order_estimate == pytest.approx(2.0, abs=0.3)
        with pytest.raises(ValueError, match="stencil_order must be 2 or 4"):
            pde_residual(s, s.equation, g, 3)

    def test_masked_hole_does_not_leak(self):
        # garbage values under the mask must never touch any used stencil
        base = fisher_front("tanh")

        def fn(x, t):
            u, ok = base.fn(x, t)
            hole = (np.abs(x) < 1.0) & (t > 0.2) & (t < 0.3)
            u = np.where(hole, 1e300, u)
            return u, ok & ~hole

        s = Sampler(fn=fn, equation=Fisher(), family_id="holed", params={})
        g = Grid2D(-10.0, 10.0, 65, 0.0, 0.5, 33)
        rep = pde_residual(s, Fisher(), g, 4)
        assert rep.defined_fraction < 1.0
        assert rep.max_abs < 1e-5

    def test_verification_impossible_when_mostly_masked(self):
        def fn(x, t):
            u = np.zeros_like(x)
            ok = np.abs(x) < 0.05
            return u, ok

        sliver = Sampler(fn=fn, equation=Fisher(), family_id="sliver", params={},
                         domain_note="almost everything masked")
        # 18% of the tan stencils are defined, but every one sits inside the
        # standoff of a pole: no usable stencil is left to report on
        tan = build_family("solitary", {"nu": 0.8, "branch": "tan", "C": -1.2})
        for s, g in [(sliver, Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)),
                     (tan, Grid2D(-50.0, 50.0, 64, 0.0, 0.25, 9))]:
            with pytest.raises(VerificationImpossibleError, match="masked"):
                pde_residual(s, s.equation, g, 4)

    def test_translation_covariance(self):
        # autonomous equations: shifted samplers still verify
        s = fisher_front("tanh").shifted(1.5, 0.25)
        g = Grid2D(-8.0, 10.0, 33, 0.0, 0.6, 17)
        rep = pde_residual(s, Fisher(), g, 4)
        assert rep.order_estimate is not None and rep.order_estimate >= 3.5
        assert rep.max_abs < 1e-6

    @pytest.mark.parametrize("dx, dt", [(3.0, 0.0), (1.0, 0.5), (-2.0, -1.0)])
    @pytest.mark.parametrize("family, params", [
        ("chain", {}), ("chain", {"index": 3}), ("fisher-weierstrass", {}),
        ("fisher-weierstrass", {"C": 1e4, "reflect_y": True}),
        ("solitary", {"nu": 0.8, "branch": "tan", "C": -1.2})])
    def test_shifted_family_verifies_on_its_moved_window(self, family, params, dx, dt):
        # a shifted sampler judged on the unshifted window read up to 1.3e21
        x0, x1, t0, t1 = build_family(family, params).suggested_window
        s = build_family(family, {**params, "x_shift": dx, "t_shift": dt})
        assert s.suggested_window == (x0 + dx, x1 + dx, t0 + dt, t1 + dt)
        g = Grid2D(x0 + dx, x1 + dx, s.suggested_resolution[0],
                   t0 + dt, t1 + dt, s.suggested_resolution[1])
        rep = pde_residual(s, s.equation, g, 4)
        assert rep.max_abs <= 1e-6
        assert rep.order_estimate is not None and rep.order_estimate >= 3.5
        bad = pde_residual(s.perturbed(), s.equation, g, 4)
        assert bad.max_abs > 1e-3
        assert bad.order_estimate is None or bad.order_estimate < 1.0

    def test_fisher_weierstrass_verdict_is_scale_invariant(self):
        # the suggested window scales with C, so every C sees the same field
        # and the residual may not depend on C beyond rounding
        reps = []
        for C in (1e2, 1e4, 1e6):
            for reflect_y in (False, True):
                s = build_family("fisher-weierstrass", {"C": C, "reflect_y": reflect_y})
                x0, x1, t0, t1 = s.suggested_window
                g = Grid2D(x0, x1, s.suggested_resolution[0], t0, t1, s.suggested_resolution[1])
                reps.append(pde_residual(s, s.equation, g, 4))
        orders = [rep.order_estimate for rep in reps]
        maxes = [rep.max_abs for rep in reps]
        assert max(orders) - min(orders) <= 0.01
        assert max(maxes) <= 1.01 * min(maxes)
        assert all(rep.converges() for rep in reps)

    def test_order_estimate_within_band(self):
        # observed order stays within [stencil_order - 0.5, stencil_order + 1]
        for order in (2, 4):
            s = fisher_front("tanh")
            g = Grid2D(-10.0, 10.0, 41, 0.0, 0.5, 17)
            rep = pde_residual(s, s.equation, g, order)
            assert order - 0.5 <= rep.order_estimate <= order + 1.0

    def test_worst_offenders_reported(self):
        s = fisher_front("tanh")
        g = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        rep = pde_residual(s, s.equation, g, 4)
        assert 0 < len(rep.worst) <= 10
        assert abs(rep.worst[0][2]) == pytest.approx(rep.max_abs)

    def test_samples_finest_grid_once(self):
        base = fisher_front("tanh")
        shapes = []

        def fn(x, t):
            shapes.append(np.shape(x))
            return base.fn(x, t)

        s = Sampler(fn=fn, equation=Fisher(), family_id="counted", params={})
        pde_residual(s, Fisher(), Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17), 4)
        assert shapes == [(129, 65)]

    @pytest.mark.parametrize("kind, index", [("direct", i) for i in range(7, 12)]
                             + [("inverse", i) for i in (7, 9, 11)]
                             + [("focusing", i) for i in (8, 10)])
    def test_deep_chain_window_holds_no_pole(self, kind, index):
        # past index 6 the suggested window follows the pole lattice, which
        # halves every two indices; a fixed window would hold a pole (1e16)
        s = build_family("chain", {"kind": kind, "index": index})
        (x0, x1, t0, t1), (nx, nt) = s.suggested_window, s.suggested_resolution
        g = Grid2D(x0, x1, nx, t0, t1, nt)
        rep = pde_residual(s, s.equation, g, 4)
        assert rep.max_abs < 0.05
        assert rep.order_estimate is not None and rep.order_estimate > 3.0
        assert pde_residual(s.perturbed(), s.equation, g, 4).max_abs > 1.0

    def test_report_serializes(self):
        s = fisher_front("tanh")
        g = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        rep = pde_residual(s, s.equation, g, 4)
        obj = asdict(rep)
        assert obj["stencil_order"] == 4
        assert len(obj["level_max_abs"]) == 3


def default_reports(family: str, order: int) -> tuple[ResidualReport, ResidualReport]:
    """pde_residual of the family's defaults and of their perturbed() control
    on the suggested grid, at the given stencil order."""
    s = build_family(family, {})
    (x0, x1, t0, t1), (nx, nt) = s.suggested_window, s.suggested_resolution
    g = Grid2D(x0, x1, nx, t0, t1, nt)
    return (pde_residual(s, s.equation, g, order),
            pde_residual(s.perturbed(), s.equation, g, order))


def report_with(order_estimate, max_abs, stencil_order=4) -> ResidualReport:
    return ResidualReport(max_abs=max_abs, l2=max_abs, defined_fraction=1.0,
                          order_estimate=order_estimate, level_max_abs=(max_abs,) * 3,
                          orders=(0.0, 0.0), stencil_order=stencil_order)


class TestConverges:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_the_inline_rule(self, family, order):
        # the order-and-max rule written out, as the method's reference
        for rep in default_reports(family, order):
            inline = (rep.order_estimate or 0.0) >= order - 0.5 and rep.max_abs <= 1e-6
            assert rep.converges(1e-6) == inline

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_order_two_decides_by_order_alone(self, family):
        # second-order truncation (up to 1.4e-1) overlaps the controls'
        # residuals (down to 1.6e-2): the default tolerance leaves the order
        # to tell a solution from its perturbed control
        clean, control = default_reports(family, 2)
        assert RESIDUAL_TOL[2] == math.inf
        assert clean.converges()
        assert not control.converges()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_order_four_default_is_1e_6(self, family):
        assert RESIDUAL_TOL[4] == 1e-6
        for rep in default_reports(family, 4):
            assert rep.converges() == rep.converges(1e-6)

    @pytest.mark.parametrize("p", [2, 4])
    def test_order_boundary(self, p):
        assert report_with(p - 0.5, 1e-9, p).converges()
        assert not report_with(math.nextafter(p - 0.5, 0.0), 1e-9, p).converges()

    def test_max_boundary(self):
        assert report_with(4.0, 1e-6).converges(1e-6)
        assert not report_with(4.0, math.nextafter(1e-6, 1.0)).converges(1e-6)
        assert report_with(4.0, 2e-3).converges(2e-3)

    @pytest.mark.parametrize("p", [2, 4])
    def test_no_order_estimate_never_converges(self, p):
        assert not report_with(None, 0.0, p).converges()
        assert not report_with(None, 0.0, p).converges(math.inf)


class TestOdeResidual:
    def test_seed_constant(self):
        y = clean_chain_samples(0, 300)
        rep = ode_residual(phi_chain(0), y)
        assert rep.c_estimate == pytest.approx(-0.25, abs=1e-9)
        assert rep.first_integral_std < 1e-9
        assert rep.second_order_max < 1e-7

    def test_chain3_constant(self):
        y = clean_chain_samples(3, 300)
        rep = ode_residual(phi_chain(3), y)
        assert rep.c_estimate == pytest.approx(16.0, abs=1e-7)
        assert rep.first_integral_std < 1e-7

    def test_reciprocal_element_first_integral_constant(self):
        # hat element sqrt(B0)/phi with B0 = 1/4: (hat')^2 + hat^4 constant
        y = clean_chain_samples(0, 300)
        phi, dphi, _ = phi_chain(0).eval(y)
        hphi = 0.5 / phi
        hdphi = -0.5 * dphi / phi**2
        first = hdphi**2 + hphi**4
        assert np.std(first) < 1e-9
        # the constant is B0 itself, not B0^2
        assert np.mean(first) == pytest.approx(0.25, abs=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(VerificationImpossibleError):
            ode_residual(phi_chain(0), np.zeros(5))

    @pytest.mark.parametrize("n", [0, -3])
    def test_clean_samples_need_a_positive_count(self, n):
        with pytest.raises(ValueError, match="at least one sample"):
            clean_chain_samples(2, n)


def reference_clean_chain_samples(max_index: int, n: int, seed: int = 77) -> np.ndarray:
    """clean_chain_samples as it drew all 200 n candidates in one call."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.05, 2 * CHAIN_K - 0.05, 200 * n)
    keep = np.ones_like(y, dtype=bool)
    for j, (phi, _, ok) in enumerate(phi_chain(max_index).levels(y)):
        keep &= ok & (np.abs(phi) <= 2.5 * abs(chain_constant(j)) ** 0.25)
    y = y[keep]
    if y.size < n:
        raise VerificationImpossibleError(
            f"only {y.size} well-conditioned samples available for depth {max_index}"
        )
    return y[:n]


class TestCleanChainSamples:
    @pytest.mark.parametrize("index", range(13))
    def test_chunked_draws_match_the_one_shot_draw(self, index):
        for n in (1, 50, 200):
            got = clean_chain_samples(index, n, seed=77 + index)
            assert np.array_equal(got, reference_clean_chain_samples(index, n, seed=77 + index))

    def test_too_few_after_every_candidate_names_the_count(self):
        with pytest.raises(VerificationImpossibleError,
                           match="only 119 well-conditioned samples available for depth 40"):
            reference_clean_chain_samples(40, 200)
        with pytest.raises(VerificationImpossibleError,
                           match="only 119 well-conditioned samples available for depth 40"):
            clean_chain_samples(40, 200)


class TestPropositionSuite:
    def test_all_rows_pass(self):
        rows = proposition_suite(max_index=6, n_samples=200)
        assert all(r.passed for r in rows), [
            (r.index, r.proposition, r.max_deviation) for r in rows if not r.passed
        ]

    @pytest.mark.parametrize("max_index", [18, 40])
    def test_refuses_indices_past_its_oracle(self, monkeypatch, max_index):
        # past index 17 the recurrence's rounding exceeds the 1e-7 tolerance;
        # the suite says so before drawing a single sample
        def no_work(*args, **kwargs):
            raise AssertionError("the suite drew samples before refusing")

        monkeypatch.setattr(verify, "clean_chain_samples", no_work)
        with pytest.raises(VerificationImpossibleError, match=r"> 17: .*rounding"):
            proposition_suite(max_index=max_index)

    def test_structure(self):
        rows = proposition_suite(max_index=3, n_samples=50)
        assert len(rows) == 8  # two rows per index
        odd = [r for r in rows if r.index % 2 == 1]
        assert all("first integral" in r.proposition for r in odd if "chain" not in r.proposition)


class TestPotentialResidual:
    def test_chain_potential_trilinear(self):
        z = z_from_phi(0)
        g = Grid2D(0.45, 0.85, 33, 0.04, 0.1, 17)
        rep = potential_residual(z, {"k": 1.0}, g)
        assert rep.max_abs < 1e-6
        assert rep.order_estimate is not None and rep.order_estimate > 3.0

    def test_plane_wave_potential_trilinear(self):
        z = z_plane_wave(2.0, -1.0, 0.8, 0.0)
        g = Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)
        rep = potential_residual(z, {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, g)
        assert rep.max_abs < 1e-7
        assert rep.order_estimate is not None and rep.order_estimate > 3.0

    def test_samples_finest_grid_once(self):
        base = z_plane_wave(2.0, -1.0, 0.8, 0.0)
        shapes = []

        def fn(x, t):
            shapes.append(np.shape(x))
            return base.fn(x, t)

        g = Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)
        potential_residual(ZSampler(fn=fn, label="counted"),
                           {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, g)
        assert shapes == [(129, 65)]

    def test_overflowing_products_raise_named_error(self):
        # z stays finite far left, but its stencil products overflow: the
        # study must refuse the verdict instead of reporting a NaN maximum
        z = z_plane_wave(2, -1, 0.8, 0)
        g = Grid2D(-800, -600, 33, 0, 0.3, 17)
        with np.errstate(all="ignore"), pytest.raises(
                VerificationImpossibleError, match=r"usable stencils give a non-finite residual"):
            potential_residual(z, {"k": 2, "lambda1": 3}, g)

    def test_overflowing_products_raise_no_warning(self):
        # the named error is the only signal: numpy warns of nothing first
        z = z_plane_wave(2, -1, 0.8, 0)
        g = Grid2D(-800, -600, 33, 0, 0.3, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VerificationImpossibleError,
                               match=r"usable stencils give a non-finite residual"):
                potential_residual(z, {"k": 2, "lambda1": 3}, g)

    def test_defined_fraction_counts_before_the_standoff(self):
        # the same meaning as pde_residual's: the finest level's plus share,
        # not the smaller share that also clears the standoff around the hole
        base = z_plane_wave(2.0, -1.0, 0.8, 0.0)

        def fn(x, t):
            zv, zt, ok = base.fn(x, t)
            return zv, zt, ok & ~((np.abs(x) < 0.2) & (t > 0.1) & (t < 0.15))

        g = Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)
        rep = potential_residual(ZSampler(fn=fn, label="holed"),
                                 {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, g)
        fine = g.refined().refined()
        X, T = np.meshgrid(fine.x, fine.t, indexing="ij")
        plus, clear = _usable(fn(X, T)[2], 3, 2)
        assert rep.defined_fraction == float(plus.mean())
        assert rep.defined_fraction > float((plus & clear).mean())

    def test_constant_z_identically_zero(self):
        z = ZSampler(fn=lambda x, t: (np.ones_like(x), np.zeros_like(x), np.ones_like(x, bool)),
                     label="const")
        g = Grid2D(-1.0, 1.0, 17, 0.0, 1.0, 9)
        rep = potential_residual(z, {"k": 2.0, "lambda1": 1.0}, g)
        assert rep.max_abs == 0.0

    def test_fisher_exponential_reduced_system(self):
        # z = exp(-y/sqrt6 + 5 tau/6) satisfies z_tau = 5 z_yy and
        # 4 z_y z_yyy - z_yy^2 = z_y^2 / 2 with analytic derivatives
        y = np.linspace(-2.0, 2.0, 41)
        tau = 0.3
        z = np.exp(-y / SQRT6 + 5.0 * tau / 6.0)
        z_tau = 5.0 / 6.0 * z
        z_y = -z / SQRT6
        z_yy = z / 6.0
        z_yyy = -z / (6.0 * SQRT6)
        assert np.max(np.abs(z_tau - 5.0 * z_yy)) < 1e-14
        assert np.max(np.abs(4.0 * z_y * z_yyy - z_yy**2 - 0.5 * z_y**2)) < 1e-14
