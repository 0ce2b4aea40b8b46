"""Residual verifiers: convergence orders, chain checks, negative controls."""

import math
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdwaves.verify as verify
from rdwaves.catalog import (
    CHAIN_K,
    FAMILIES,
    PhiState,
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
from rdwaves.equations import Fisher, QuadraticDecay, central_difference
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
        return np.full_like(np.asarray(x, dtype=float), value)

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


def reference_usable(defined, rx, rt):
    """_usable as written before it dilated only the box around the masked
    points: every dilation runs over the whole grid."""
    masked = ~defined
    plus = ~(_dilate(masked, rx, (0,)) | _dilate(masked, rt, (1,)))
    core = np.s_[rx:-rx, rt:-rt]
    return plus[core], ~_dilate(masked, verify._STANDOFF_FACTOR * rx)[core]


def assert_usable_matches_reference(defined, rx, rt):
    got, ref = _usable(defined, rx, rt), reference_usable(defined, rx, rt)
    for g, r in zip(got, ref):
        assert g.dtype == bool and g.shape == r.shape
        assert np.array_equal(g, r)


@st.composite
def sparse_masks(draw):
    """A grid of at least 8 x 8 points with a few masked cells and rectangles."""
    nx, nt = draw(st.integers(8, 90)), draw(st.integers(8, 70))
    defined = np.ones((nx, nt), dtype=bool)
    for i, j in draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, nt - 1)),
                              max_size=6)):
        defined[i, j] = False
    for i, j, h, w in draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, nt - 1),
                                              st.integers(1, 6), st.integers(1, 6)), max_size=2)):
        defined[i:i + h, j:j + w] = False
    return defined


RADII = [(1, 1), (2, 2), (3, 2)]


class TestUsable:
    @pytest.mark.parametrize("rx, rt", RADII)
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

    @pytest.mark.parametrize("rx, rt", RADII)
    @pytest.mark.parametrize("shape", [(8, 8), (9, 31), (40, 12), (97, 65)])
    def test_box_matches_whole_grid_dilation(self, shape, rx, rt):
        nx, nt = shape
        empty = np.ones(shape, dtype=bool)
        assert_usable_matches_reference(empty, rx, rt)
        assert_usable_matches_reference(~empty, rx, rt)
        # one masked cell at each corner, at the middle of each edge and at the centre
        for i in (0, nx // 2, nx - 1):
            for j in (0, nt // 2, nt - 1):
                defined = empty.copy()
                defined[i, j] = False
                assert_usable_matches_reference(defined, rx, rt)
        # masks on and next to the grid's edge, whose box is clipped there
        edges = [np.s_[0, :], np.s_[:, -1], np.s_[1, 2:5], np.s_[-2:, 1], np.s_[2:4, 0:2],
                 np.s_[nx // 3, nt - 2:], np.s_[:, 0]]
        for edge in edges:
            defined = empty.copy()
            defined[edge] = False
            assert_usable_matches_reference(defined, rx, rt)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(sparse_masks(), st.sampled_from(RADII))
    def test_box_matches_whole_grid_dilation_on_draws(self, defined, radii):
        assert_usable_matches_reference(defined, *radii)

    def test_nothing_masked_runs_no_dilation(self, monkeypatch):
        calls = []

        def counted(mask, radius, axes=(0, 1)):
            calls.append(mask.shape)
            return _dilate(mask, radius, axes)

        monkeypatch.setattr(verify, "_dilate", counted)
        plus, clear = _usable(np.ones((97, 65), dtype=bool), 2, 2)
        assert calls == [] and plus.all() and clear.all()
        defined = np.ones((97, 65), dtype=bool)
        defined[50, 30] = False
        _usable(defined, 2, 2)
        # the cell's box grown by the standoff of 10 points: 21 x 21
        assert calls == [(21, 21)] * 3
        # a fully defined study dilates nothing on any of its three levels
        calls.clear()
        s = fisher_front("tanh")
        rep = pde_residual(s, s.equation, Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17), 4)
        assert rep.defined_fraction == 1.0 and calls == []
        # nor calls _usable on any level; a masked study calls it on its masked levels only
        levels = counted_usable(monkeypatch)
        grid = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        pde_residual(s, s.equation, grid, 4)
        assert levels == []
        finest = grid.refined().refined()
        shapes = [(g.n_x, g.n_t) for g in (grid, grid.refined(), finest)]
        # finest index (64, 32) lies on every level, (64, 34) on the h/2 and h/4
        # levels, and (64, 33) on the h/4 level alone
        for j, masked_levels in ((32, shapes), (34, shapes[1:]), (33, shapes[2:])):
            levels.clear()
            holed = masked_at(s, [(finest.x[64], finest.t[j])])
            pde_residual(holed, s.equation, grid, 4)
            assert levels == masked_levels


def assert_strips_tile_finest_grid(strips, grid: Grid2D) -> None:
    """The (x, t) strips a sampler saw, in call order, tile the finest grid of
    grid's refinement triple: every point once, none skipped, none repeated,
    and no strip over the study's bound."""
    finest = grid.refined().refined()
    X, T = np.meshgrid(finest.x, finest.t, indexing="ij")
    assert len(strips) > 1  # 129 x 65 finest points exceed one strip
    assert all(x.size <= verify._STRIP_POINTS for x, _ in strips)
    assert np.array_equal(np.concatenate([x for x, _ in strips]), X)
    assert np.array_equal(np.concatenate([t for _, t in strips]), T)


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
        # the masked hole, zero-filled by the study, must never touch any used stencil
        base = fisher_front("tanh")

        def fn(x, t):
            hole = (np.abs(x) < 1.0) & (t > 0.2) & (t < 0.3)
            return np.where(hole, np.nan, base.fn(x, t))

        s = Sampler(fn=fn, equation=Fisher(), family_id="holed", params={})
        g = Grid2D(-10.0, 10.0, 65, 0.0, 0.5, 33)
        rep = pde_residual(s, Fisher(), g, 4)
        assert rep.defined_fraction < 1.0
        assert rep.max_abs < 1e-5

    def test_verification_impossible_when_mostly_masked(self):
        def fn(x, t):
            return np.where(np.abs(x) < 0.05, 0.0, np.nan)

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
        strips = []

        def fn(x, t):
            strips.append((np.array(x), np.array(t)))
            return base.fn(x, t)

        s = Sampler(fn=fn, equation=Fisher(), family_id="counted", params={})
        grid = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        pde_residual(s, Fisher(), grid, 4)
        assert_strips_tile_finest_grid(strips, grid)

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


CHAIN_CASES = ([("direct", i) for i in range(7)] + [("inverse", i) for i in (1, 3, 5)]
               + [("focusing", i) for i in (0, 2, 4, 6)])


def suggested_grid(s: Sampler) -> Grid2D:
    (x0, x1, t0, t1), (nx, nt) = s.suggested_window, s.suggested_resolution
    return Grid2D(x0, x1, nx, t0, t1, nt)


def negated(s: Sampler) -> Sampler:
    """s with its field negated, solving the same equation where that is odd in u."""
    inner = s.fn

    def fn(x, t):
        return -inner(x, t)

    return replace(s, fn=fn)


def assert_mirrored(minus: ResidualReport, plus: ResidualReport) -> None:
    """minus is plus with every residual negated: the same statistics and order,
    and the same worst points with negated residuals."""
    assert minus.worst
    mirror = replace(plus, worst=tuple((x, t, -r) for x, t, r in plus.worst))
    assert repr(minus) == repr(mirror)


class TestSignMirror:
    # the chain equations u_t - u_xx = -+2u^3 are odd in u, so u and -u have
    # residuals of opposite sign, bit for bit
    @pytest.mark.parametrize("kind, index", CHAIN_CASES)
    def test_chain_signs_give_mirrored_reports(self, kind, index):
        plus, minus = (build_family("chain", {"kind": kind, "index": index, "sign": sign})
                       for sign in (1, -1))
        grid = suggested_grid(plus)
        assert_mirrored(pde_residual(minus, minus.equation, grid, 4),
                        pde_residual(plus, plus.equation, grid, 4))

    @pytest.mark.parametrize("index, sign", [(0, -1), (0, 1), (1, -1)])
    def test_chain_exp_negated_field_gives_mirrored_report(self, index, sign):
        # u_t - u_xx = -2(u^3 + s u): GeneralFamily(n=3, lambda1=-2s)
        s = build_family("chain-exp", {"kind": "direct", "index": index, "sign": sign})
        grid = suggested_grid(s)
        assert_mirrored(pde_residual(negated(s), s.equation, grid, 4),
                        pde_residual(s, s.equation, grid, 4))


def default_reports(family: str, order: int) -> tuple[ResidualReport, ResidualReport]:
    """pde_residual of the family's defaults and of their perturbed() control
    on the suggested grid, at the given stencil order."""
    s = build_family(family, {})
    g = suggested_grid(s)
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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, -5e-324])
    def test_nan_or_negative_tol_is_refused(self, tol):
        # such a tol once read every family as "DOES NOT CONVERGE"
        with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
            report_with(4.0, 1e-9).converges(tol)

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
        phi, dphi = phi_chain(0).eval(y)
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
    for j, (phi, _) in enumerate(phi_chain(max_index).levels(y)):
        keep &= np.isfinite(phi) & (np.abs(phi) <= 2.5 * abs(chain_constant(j)) ** 0.25)
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


def reference_fd_second(f, y: np.ndarray, h: float) -> np.ndarray:
    """The Richardson second derivative as it differenced a callable, one
    evaluation of f per stencil point."""
    def stencil(hh):
        return central_difference(np.stack([f(y + j * hh) for j in range(-2, 3)]), hh, 2, 4)[0]

    return (16.0 * stencil(h / 2) - stencil(h)) / 15.0


class TestLadder:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Counts of PhiState.levels walks and of clean_chain_samples' filter
        calls, one walk each."""
        counts = {"levels": 0, "filter": 0}
        levels, well_conditioned = PhiState.levels, verify._well_conditioned

        def counted_levels(state, y):
            counts["levels"] += 1
            return levels(state, y)

        def counted_filter(state, y):
            counts["filter"] += 1
            return well_conditioned(state, y)

        monkeypatch.setattr(PhiState, "levels", counted_levels)
        monkeypatch.setattr(verify, "_well_conditioned", counted_filter)
        return counts

    @pytest.mark.parametrize("index", [0, 5, 17])
    def test_ode_residual_walks_once(self, walks, index):
        y = clean_chain_samples(index, 200)
        walks["levels"] = 0
        ode_residual(phi_chain(index), y)
        assert walks["levels"] == 1

    def test_suite_walks_once_an_index_besides_its_samples(self, walks):
        # proposition 1 reads the same ladder as propositions 2 and 3
        proposition_suite(max_index=17)
        assert walks["levels"] - walks["filter"] == 18

    def test_rows_are_the_stencil_points(self):
        y = clean_chain_samples(5, 200)
        h = 0.012 / abs(chain_constant(5)) ** 0.25
        expected = [y + j * (h / 2) for j in range(-2, 3)] + [y + j * h for j in range(-2, 3)]
        assert np.array_equal(y + verify._FD_ROWS * h, np.stack(expected))

    @pytest.mark.parametrize("index", [0, 5, 12, 17])
    def test_second_derivative_matches_the_callable_form(self, index):
        state, y = phi_chain(index), clean_chain_samples(index, 200)
        phis, _, h = verify._ladder(state, y)
        expected = reference_fd_second(lambda q: list(state.levels(q))[-1][0], y, h)
        assert np.array_equal(verify._fd_second(phis, h), expected)


class TestZeroFill:
    def test_the_study_fills_masked_cells_before_the_residual(self, monkeypatch):
        # every window is the zero-filled strided rows of its strip with their
        # halo, and the windows of a level cover each interior row once; at 60
        # points the h/4 level (31 interior columns) is strips of one row and
        # the h/2 level (15 columns) strips of 4 rows, the last of 3
        def sample(X, T):
            # a point is masked where any field is not finite: nan in one, inf in the other
            defined = X < 0.8
            return np.where(defined, X, np.nan), np.where(defined, T, np.inf)

        def level_residual(fields, hx, ht):
            # copies: the study packs its squares into the finest field's rows it is done with
            seen.append((hx, [np.array(a) for a in fields]))
            return 0.0 * fields[0][1:-1, 1:-1]

        grid = Grid2D(0.0, 1.0, 9, 0.0, 1.0, 9)
        levels = [grid, grid.refined(), grid.refined().refined()]
        X, T = np.meshgrid(levels[-1].x, levels[-1].t, indexing="ij")
        filled = [np.where(X < 0.8, X, 0.0), np.where(X < 0.8, T, 0.0)]
        for points, windows in ((8192, [1, 1, 1]), (60, [1, 4, 31])):
            monkeypatch.setattr(verify, "_STRIP_POINTS", points)
            seen = []
            verify._refinement_study(sample, grid, level_residual, (1, 1), 4, "")
            # the levels run coarse to fine, each its windows in row order
            assert [hx for hx, _ in seen] == [g.h_x for g, n in zip(levels, windows)
                                              for _ in range(n)]
            for stride, g in zip((4, 2, 1), levels):
                row = 0  # the first interior row the next window serves
                for fields in (w for hx, w in seen if hx == g.h_x):
                    for a, b in zip(fields, filled):
                        assert np.array_equal(a, b[::stride, ::stride][row:row + a.shape[0]])
                    row += fields[0].shape[0] - 2
                assert row == g.n_x - 2  # every interior row once

    def test_a_residual_off_its_margin_is_refused(self):
        def sample(X, T):
            return (X,)

        grid = Grid2D(0.0, 1.0, 9, 0.0, 1.0, 9)
        with pytest.raises(ValueError, match="margin"):
            verify._refinement_study(sample, grid, lambda f, hx, ht: f[0][1:-1, 1:-1],
                                     (2, 1), 4, "")


def reference_refinement_study(sample, grid, level_residual, margin, stencil_order,
                               masked_where):
    """The whole-grid study: one sample call on the meshgrid of the finest grid,
    defined where every field is finite, zero-filled copies, and the
    statistics taken from full-grid temporaries."""
    grids = [grid, grid.refined(), grid.refined().refined()]
    X, T = np.meshgrid(grids[-1].x, grids[-1].t, indexing="ij")
    fields = sample(X, T)
    defined = np.all([np.isfinite(a) for a in fields], axis=0)
    fields = [np.where(defined, a, 0.0) for a in fields]
    rx, rt = margin
    maxima, fractions = [], []
    for lvl, g in enumerate(grids):
        stride = 2 ** (len(grids) - 1 - lvl)
        level_defined = defined[::stride, ::stride]
        res = level_residual([a[::stride, ::stride] for a in fields], g.h_x, g.h_t)
        assert res.shape == (level_defined.shape[0] - 2 * rx, level_defined.shape[1] - 2 * rt)
        plus, clear = _usable(level_defined, rx, rt)
        valid = plus & clear
        if np.count_nonzero(valid & ~np.isfinite(res)):
            raise VerificationImpossibleError("non-finite residual")
        fractions.append(float(plus.mean()))
        step = 2**lvl
        shared = np.s_[(rx * (step - 1)) % step::step, (rt * (step - 1)) % step::step]
        sel = res[shared][valid[shared]]
        maxima.append(float(np.max(np.abs(sel))) if sel.size else math.nan)
    if valid.mean() < 0.1:
        raise VerificationImpossibleError("usable fraction " + masked_where)
    vals = res[valid]
    orders = [math.log2(a / b) if (a > 0 and b > 0) else math.nan
              for a, b in zip(maxima[:-1], maxima[1:])]
    order_estimate = None
    if all(f > 0.5 for f in fractions) and all(math.isfinite(o) for o in orders):
        order_estimate = float(np.mean(orders))
    Xc, Tc = X[rx:-rx, rt:-rt], T[rx:-rx, rt:-rt]
    # the 10 largest scores, ties in row-major order; the unusable ones are dropped
    score = np.abs(np.where(valid, res, 0.0)).ravel()
    worst = []
    for idx in np.argsort(-score, kind="stable")[:10]:
        i, j = np.unravel_index(idx, res.shape)
        if valid[i, j]:
            worst.append((float(Xc[i, j]), float(Tc[i, j]), float(res[i, j])))
    return ResidualReport(float(np.max(np.abs(vals))), float(np.sqrt(np.mean(vals**2))),
                          fractions[-1], order_estimate, tuple(maxima), tuple(orders),
                          tuple(worst), stencil_order)


def holed_plane_wave() -> ZSampler:
    """The plane-wave potential with a masked hole at |x| < 0.2, 0.1 < t < 0.15."""
    base = z_plane_wave(2.0, -1.0, 0.8, 0.0)

    def fn(x, t):
        hole = (np.abs(x) < 0.2) & (t > 0.1) & (t < 0.15)
        return tuple(np.where(hole, np.nan, a) for a in base.fn(x, t))

    return ZSampler(fn=fn, label="holed")


def masked_at(base: Sampler, cells) -> Sampler:
    """base with a masked (nan) cell at each (x, t) of cells, matched exactly."""

    def fn(x, t):
        hit = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)), dtype=bool)
        for xc, tc in cells:
            hit |= (x == xc) & (t == tc)
        return np.where(hit, np.nan, base.fn(x, t))

    return Sampler(fn=fn, equation=base.equation, family_id="masked-cells", params={})


def counted_usable(monkeypatch) -> list[tuple[int, int]]:
    """The shapes of the level masks verify._usable is called on from now on, in order."""
    shapes = []

    def counted(defined, rx, rt):
        shapes.append(defined.shape)
        return _usable(defined, rx, rt)

    monkeypatch.setattr(verify, "_usable", counted)
    return shapes


def level_strip_edges(grid: Grid2D, margin, points: int) -> list[tuple[int, list[int]]]:
    """(interior rows, first interior row of every strip but the first) of
    each level of grid's refinement triple, coarse first, at strips of at
    most points stencils."""
    rx, rt = margin
    levels = []
    for g in (grid, grid.refined(), grid.refined().refined()):
        n_i, span = g.n_x - 2 * rx, max(1, points // (g.n_t - 2 * rt))
        levels.append((n_i, list(range(span, n_i, span))))
    return levels


class TestStripStudy:
    """The strip-wise study reports, to the last bit, what the whole-grid
    study reports on the same sampler and grid."""

    @staticmethod
    def assert_matches_whole_grid(monkeypatch, run):
        """run() returns the reports of the studies it makes, in order."""
        studies = []
        study = verify._refinement_study

        def capture(*args):
            studies.append(args)
            return study(*args)

        monkeypatch.setattr(verify, "_refinement_study", capture)
        reports = list(map(repr, run()))
        assert reports == [repr(reference_refinement_study(*args)) for args in studies]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_and_its_control_at_defaults(self, monkeypatch, family):
        self.assert_matches_whole_grid(monkeypatch, lambda: default_reports(family, 4))

    def test_mask_crossing_strip_boundaries(self, monkeypatch):
        # the bell is masked left of x = 0.367 t: on 641 x 97 finest points,
        # 8 strips of 84 rows, that edge crosses the strip boundaries at
        # x = 0.05, 1.1 and 2.15
        s = build_family("bell", {})
        grid = Grid2D(-1.0, 7.0, 161, 0.0, 8.0, 25)
        finest = grid.refined().refined()
        _, defined = s.sample(finest.x[:, None], finest.t)
        rows = verify._STRIP_POINTS // finest.n_t
        crossed = [b for b in range(rows, finest.n_x, rows)
                   if not defined[b - 1].all() and defined[b - 1].any()
                   and not defined[b].all() and defined[b].any()]
        assert len(crossed) >= 2
        self.assert_matches_whole_grid(monkeypatch, lambda: [pde_residual(s, s.equation, grid, 4)])

    @pytest.mark.parametrize("order", [2, 4])
    def test_levels_of_several_strips_with_a_short_last_one(self, monkeypatch, order):
        # 200 stencils a strip: at order 4 the h, h/2 and h/4 levels are
        # 29, 61 and 125 interior rows in strips of 15, 6 and 3 rows
        monkeypatch.setattr(verify, "_STRIP_POINTS", 200)
        grid = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        r = order // 2
        for n_i, edges in level_strip_edges(grid, (r, r), 200):
            assert len(edges) >= 1 and n_i % edges[0] != 0
        s = fisher_front("tanh")
        self.assert_matches_whole_grid(monkeypatch, lambda: [
            pde_residual(s, s.equation, grid, order),
            pde_residual(s.perturbed(), s.equation, grid, order)])

    def test_masked_cells_cross_strip_boundaries_on_every_level(self, monkeypatch):
        # 500 stencils a strip: the bell's masked half-plane x < 0.367 t
        # leaves rows partly masked on both sides of 3, 11 and 47 strip
        # boundaries of the h, h/2 and h/4 levels
        monkeypatch.setattr(verify, "_STRIP_POINTS", 500)
        s = build_family("bell", {})
        grid = Grid2D(-1.0, 7.0, 161, 0.0, 8.0, 25)
        finest = grid.refined().refined()
        _, defined = s.sample(finest.x[:, None], finest.t)
        for stride, (_, edges) in zip((4, 2, 1), level_strip_edges(grid, (2, 2), 500)):
            rows = defined[::stride, ::stride]
            partial = rows.any(axis=1) & ~rows.all(axis=1)
            # interior row b sits on level row b + 2
            assert sum(partial[b + 1] and partial[b + 2] for b in edges) >= 3
        self.assert_matches_whole_grid(monkeypatch, lambda: [pde_residual(s, s.equation, grid, 4)])

    @pytest.mark.parametrize("points", [None, 200])
    def test_masked_cells_at_finest_only_points(self, monkeypatch, points):
        # an odd finest x or t index lies on neither coarse level, so the h and
        # h/2 levels are whole and only the h/4 level runs _usable
        if points:
            monkeypatch.setattr(verify, "_STRIP_POINTS", points)
        grid = Grid2D(-10.0, 10.0, 33, 0.0, 0.5, 17)
        finest = grid.refined().refined()
        s = masked_at(fisher_front("tanh"), [(finest.x[i], finest.t[j])
                                             for i, j in ((41, 21), (77, 10), (64, 33))])
        levels = counted_usable(monkeypatch)
        self.assert_matches_whole_grid(monkeypatch, lambda: [pde_residual(s, s.equation, grid, 4)])
        assert levels == [(finest.n_x, finest.n_t)]

    @pytest.mark.parametrize("points", [None, 200])
    def test_sample_strips_alternate_between_whole_and_masked(self, monkeypatch, points):
        # one masked cell in the first row of every second sample strip: 6
        # strips of 126 rows at the default, 214 strips of 3 rows at 200 points
        if points:
            monkeypatch.setattr(verify, "_STRIP_POINTS", points)
        grid = Grid2D(-10.0, 10.0, 161, 0.0, 0.5, 17)
        finest = grid.refined().refined()
        starts = range(0, finest.n_x, verify._STRIP_POINTS // finest.n_t)
        assert len(starts) >= 6
        base = masked_at(fisher_front("tanh"), [(finest.x[i], finest.t[4]) for i in starts[1::2]])
        masked = []

        def fn(x, t):
            u = base.fn(x, t)
            masked.append(bool(np.isnan(u).any()))
            return u

        s = replace(base, fn=fn)
        self.assert_matches_whole_grid(monkeypatch, lambda: [pde_residual(s, s.equation, grid, 4)])
        # the study's strips, then the whole-grid reference's one call
        assert masked == [k % 2 == 1 for k in range(len(starts))] + [True]

    POTENTIALS = [
        (z_from_phi(0), {"k": 1.0}, Grid2D(0.45, 0.85, 33, 0.04, 0.1, 17)),
        (z_plane_wave(2.0, -1.0, 0.8, 0.0), {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0},
         Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)),
        (holed_plane_wave(), {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0},
         Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)),
    ]

    @pytest.mark.parametrize("z, params, grid", POTENTIALS)
    def test_potential(self, monkeypatch, z, params, grid):
        self.assert_matches_whole_grid(monkeypatch, lambda: [potential_residual(z, params, grid)])

    @pytest.mark.parametrize("z, params, grid", POTENTIALS)
    def test_potential_margin_in_strips(self, monkeypatch, z, params, grid):
        # at 300 stencils the (3, 2) margin's windows are 4 + 6 rows at h/4
        # (123 rows, 61 columns), and every level's last strip is short
        monkeypatch.setattr(verify, "_STRIP_POINTS", 300)
        for n_i, edges in level_strip_edges(grid, (3, 2), 300):
            assert len(edges) >= 1 and n_i % edges[0] != 0
        self.assert_matches_whole_grid(monkeypatch, lambda: [potential_residual(z, params, grid)])

    def test_non_finite_count_covers_the_whole_level(self, monkeypatch):
        # at 300 stencils a strip the h/2 level's overflowing stencils lie in
        # 4 of its 6 strips; the error names all 498 usable ones, the count
        # of the whole-level study
        monkeypatch.setattr(verify, "_STRIP_POINTS", 300)
        z = z_plane_wave(2, -1, 0.8, 0)
        g = Grid2D(-800, -600, 33, 0, 0.3, 17)
        with np.errstate(all="ignore"), pytest.raises(
                VerificationImpossibleError,
                match=r"^498 usable stencils give a non-finite residual on the h/2 level"):
            potential_residual(z, {"k": 2, "lambda1": 3}, g)

    def test_worst_ties_in_row_major_order(self):
        # the plane wave's defaults tie 7 stencils at |res| = 7.4076e-10, and
        # the next 3 at 7.4051e-10: each tie lists its stencils by x, then t
        s = build_family("plane-wave", {})
        worst = pde_residual(s, s.equation, suggested_grid(s), 4).worst
        assert [w[:2] for w in worst[:7]] == [
            (0.1875, 0.004166666666666667), (0.203125, 0.007291666666666667),
            (0.234375, 0.013541666666666667), (0.296875, 0.026041666666666668),
            (0.3125, 0.029166666666666667), (0.359375, 0.03854166666666667),
            (0.390625, 0.04479166666666667)]
        assert {w[2] for w in worst[:7]} == {7.407621183119772e-10}
        assert {w[2] for w in worst[7:]} == {7.405087654177578e-10}
        assert [w[:2] for w in worst[7:]] == sorted(w[:2] for w in worst[7:])

    @staticmethod
    def chain_verdict_peak(nx: int) -> tuple[int, int]:
        """(numpy allocation peak of the chain direct 0 verdict on its default
        window at nx coarse x-points, finest points)."""
        s = build_family("chain", {"kind": "direct", "index": 0})
        (x0, x1, t0, t1), (_, nt) = s.suggested_window, s.suggested_resolution
        grid = Grid2D(x0, x1, nx, t0, t1, nt)
        pde_residual(s, s.equation, grid, 4)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pde_residual(s, s.equation, grid, 4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        finest = grid.refined().refined()
        return peak, finest.n_x * finest.n_t

    def test_chain_verdict_peak_memory(self):
        # the whole-grid study peaked at 6.4 MB of numpy allocations here, the
        # sampler's temporaries on all 385 x 193 finest points among them
        peak, points = self.chain_verdict_peak(97)
        assert points == 385 * 193
        assert peak <= 4.0e6

    def test_peak_beyond_the_sample_grows_under_8_bytes_a_point(self):
        # the two sampled fields (u and f(u)) and the defined mask take 17
        # bytes a finest point; whole-level residual temporaries took 28.4
        # bytes a point more, where the level masks and strips take about 3
        (small, n_small), (large, n_large) = map(self.chain_verdict_peak, (97, 385))
        assert (n_small, n_large) == (385 * 193, 1537 * 193)
        assert (large - small) / (n_large - n_small) - 17 < 8


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
        strips = []

        def fn(x, t):
            strips.append((np.array(x), np.array(t)))
            return base.fn(x, t)

        g = Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)
        potential_residual(ZSampler(fn=fn, label="counted"),
                           {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, g)
        assert_strips_tile_finest_grid(strips, g)

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
        z = holed_plane_wave()
        g = Grid2D(-2.0, 2.0, 33, 0.0, 0.3, 17)
        rep = potential_residual(z, {"k": 2.0, "lambda1": 3.0, "lambda2": 0.0}, g)
        fine = g.refined().refined()
        X, T = np.meshgrid(fine.x, fine.t, indexing="ij")
        plus, clear = _usable(np.isfinite(z.fn(X, T)[0]), 3, 2)
        assert rep.defined_fraction == float(plus.mean())
        assert rep.defined_fraction > float((plus & clear).mean())

    def test_constant_z_identically_zero(self):
        z = ZSampler(fn=lambda x, t: (np.ones_like(x), np.zeros_like(x)), label="const")
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
