"""Ground-truth numerical verification of the catalog.

PDE residuals R = u_t - u_xx - f(u) are formed by central differences on
the exactly-sampled field over a nested (h, h/2, h/4) grid triple; the
observed convergence order of the max residual is itself part of the check
(an exact solution must converge at the stencil's order, a mismatched pair
must not).  ODE-level checks validate the chain elements: second-order
residuals by Richardson-extrapolated finite differences, first integrals
from the analytically propagated derivative pairs.  The catalog's
evaluators mark a masked point by a nan value, so every check here reads
its mask as np.isfinite of the values it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .catalog import CHAIN_K, PhiState, Sampler, ZSampler, chain_constant, phi_chain
from .equations import EquationSpec, central_difference

__all__ = [
    "VerificationImpossibleError",
    "Grid2D",
    "RESIDUAL_TOL",
    "ResidualReport",
    "pde_residual",
    "OdeResidualReport",
    "ode_residual",
    "PropositionRow",
    "proposition_suite",
    "clean_chain_samples",
    "potential_residual",
]

_STANDOFF_FACTOR = 5  # stencils within 5 x-radii of a masked point are skipped
# finest-grid points per sample() call and stencils per level_residual() call:
# 8,192 make a float64 field 64 KiB, under glibc's default 128 KiB mmap
# threshold, so a strip's temporaries come from the heap and are reused instead
# of being mapped, page-faulted in and unmapped
_STRIP_POINTS = 8192
# finest max residual of a converging verdict by stencil order; at 2 the order alone decides
RESIDUAL_TOL = MappingProxyType({2: math.inf, 4: 1e-6})
CANDIDATES_PER_SAMPLE = 200  # the most candidates clean_chain_samples draws a kept sample


def _residual_tol(stencil_order: int, tol: float | None) -> float:
    """tol, or RESIDUAL_TOL of the stencil order when None; ValueError for a nan or negative tol."""
    if tol is None:
        return RESIDUAL_TOL[stencil_order]
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol}")
    return tol


class VerificationImpossibleError(RuntimeError):
    """Too much of the requested grid is masked to verify anything."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform verification grid; n_x, n_t >= 8."""

    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int

    def __post_init__(self):
        if self.n_x < 8 or self.n_t < 8:
            raise ValueError("grids need at least 8 points per axis")
        if not (self.x_max > self.x_min and self.t_max > self.t_min):
            raise ValueError("empty grid extent")

    @property
    def h_x(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def h_t(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t)

    def refined(self) -> "Grid2D":
        """Halve both spacings, keeping every coarse point."""
        return Grid2D(self.x_min, self.x_max, 2 * self.n_x - 1,
                      self.t_min, self.t_max, 2 * self.n_t - 1)


@dataclass(frozen=True)
class ResidualReport:
    """Residual statistics at the finest level of the refinement triple.

    defined_fraction is the finest level's share of stencils whose plus-shaped
    neighbourhood is defined, counted before the standoff exclusion around
    masked points; max_abs, l2 and worst cover the stencils that also clear
    the standoff.  worst holds (x, t, residual) of up to 10 of the largest
    |residual|, the largest first and ties in row-major order.
    """

    max_abs: float
    l2: float
    defined_fraction: float
    order_estimate: float | None
    level_max_abs: tuple[float, ...]
    orders: tuple[float, ...]
    worst: tuple[tuple[float, float, float], ...] = ()
    stencil_order: int = 4

    def converges(self, tol: float | None = None) -> bool:
        """Roache's observed-order verdict: order estimate within 0.5 of the stencil order
        and max_abs at most tol (RESIDUAL_TOL of the stencil order when None).
        A nan or negative tol raises ValueError."""
        tol = _residual_tol(self.stencil_order, tol)
        return (self.order_estimate or 0.0) >= self.stencil_order - 0.5 and self.max_abs <= tol


def _dilate(mask: np.ndarray, radius: int, axes=(0, 1)) -> np.ndarray:
    """Dilation of a boolean mask by radius grid steps along each of axes in
    turn (Chebyshev distance over both axes); nothing wraps at the edges."""
    out = mask.copy()
    for axis in axes:
        view = np.moveaxis(out, axis, 0)
        # one step along the view's first axis a pass; numpy buffers overlapping operands
        for _ in range(min(radius, view.shape[0] - 1)):
            view[1:] |= view[:-1]
            view[:-1] |= view[1:]
    return out


def _usable(defined: np.ndarray, rx: int, rt: int) -> tuple[np.ndarray, np.ndarray]:
    """(plus, clear) on the interior rx, rt points inside the grid of defined.

    plus marks stencils whose plus-shaped neighbourhood (rx points along x,
    rt along t) is defined; clear marks points farther than _STANDOFF_FACTOR
    * rx grid steps (Chebyshev distance) from every masked point.

    Only the box that encloses the masked points, grown by the standoff (and
    by at least rx along x and rt along t) and clipped at the grid's edge, is
    dilated: no dilation reaches past it, so plus and clear are True outside
    it, and a grid with nothing masked runs no dilation at all.  The
    refinement study calls it only on a level that holds a masked point.
    """
    masked = ~defined
    nx, nt = defined.shape
    plus = np.ones((nx - 2 * rx, nt - 2 * rt), dtype=bool)
    clear = np.ones_like(plus)
    rows = np.flatnonzero(masked.any(axis=1))
    if rows.size:
        cols = np.flatnonzero(masked.any(axis=0))
        standoff = _STANDOFF_FACTOR * rx  # at least rx
        gt = max(standoff, rt)
        x0, x1 = max(rows[0] - standoff, 0), min(rows[-1] + standoff + 1, nx)
        t0, t1 = max(cols[0] - gt, 0), min(cols[-1] + gt + 1, nt)
        near = masked[x0:x1, t0:t1]
        # the box's part of the interior, in box and in interior coordinates;
        # never empty, since the box reaches rx, rt points past a masked point
        cx0, cx1, ct0, ct1 = max(x0, rx), min(x1, nx - rx), max(t0, rt), min(t1, nt - rt)
        inside = np.s_[cx0 - x0:cx1 - x0, ct0 - t0:ct1 - t0]
        out = np.s_[cx0 - rx:cx1 - rx, ct0 - rt:ct1 - rt]
        plus[out] = ~(_dilate(near, rx, (0,)) | _dilate(near, rt, (1,)))[inside]
        clear[out] = ~_dilate(near, standoff)[inside]
    return plus, clear


def _refinement_study(sample, grid: Grid2D, level_residual, margin: tuple[int, int],
                      stencil_order: int, masked_where: str) -> ResidualReport:
    """ResidualReport of a residual over the nested (h, h/2, h/4) triple.

    Only the finest grid is sampled, and every point of it once, in strips:
    sample(X, T) gets whole x-rows of the finest grid's broadcast views, at
    most _STRIP_POINTS points a call (one row where a row alone is longer),
    and returns the fields on them; a point is defined where every field is
    finite.  The strips are copied into arrays allocated once per study, and
    a strip that holds an undefined point has each field zero-filled there,
    once.  Strips keep a sampler's temporaries cache-sized: on the whole
    finest grid each temporary would be a fresh mapping, page-faulted in on
    every study.
    refined() keeps every coarse point and divides the spacing by a power of
    two, so the h and h/2 levels are the exact [::4, ::4] and [::2, ::2]
    strides of that sample.

    Each level's residual is formed and reduced in strips too, of at most
    _STRIP_POINTS stencils (one interior row where a row alone is longer):
    level_residual(fields, h_x, h_t) gets the rows of the level's fields that
    a strip's stencils reach and returns the residual on their interior, which
    is margin = (r_x, r_t), the stencil radius along x and t, smaller at each
    end of either axis; a residual row depends on the 2 r_x + 1 field rows
    around it alone.  On a level that holds an undefined point, _usable turns
    defined into whole-level stencil masks (1 byte a point) with the same
    margin, and each strip selects and compresses its usable stencils; a
    level with nothing masked skips all three, since every stencil on it is
    usable and its plus share is exactly 1.  A strip hands on only its
    non-finite count, its maxima and, on the finest level, its largest
    |residual| and its usable squared residuals.  The squares are packed in
    row-major order into the flat storage of the first finest field, behind
    the strip that produced them: the coarse levels, which read that field,
    run first, and no later strip reads a row above its own.  So the l2 is
    the mean of exactly the operand a whole-level res[usable] ** 2 would be,
    and no float array of a whole level is allocated besides the sampled
    fields.

    worst lists the usable stencils among the 10 largest |residual| (0 at
    unusable stencils), the largest first, ties in row-major order.  The
    order estimate needs a plus share above 0.5 on every level.  A usable
    stencil whose residual is not finite (its products overflowed) raises
    VerificationImpossibleError naming the level and its count; below a
    finest usable share (plus and clear) of 0.1 the study raises the same
    error, its message ending in masked_where.
    """
    grids = [grid, grid.refined(), grid.refined().refined()]
    x, t = grids[-1].x, grids[-1].t
    rows = max(1, _STRIP_POINTS // t.size)
    X, T = np.broadcast_arrays(x[:, None], t)
    defined = np.empty(X.shape, dtype=bool)
    fields: list[np.ndarray] = []
    for start in range(0, x.size, rows):
        strip = np.s_[start:start + rows]
        values = sample(X[strip], T[strip])
        if not fields:
            fields = [np.empty(defined.shape) for _ in values]
        ok = np.isfinite(values[0], out=defined[strip])
        for a in values[1:]:
            ok &= np.isfinite(a)
        masked = None if ok.all() else ~ok
        for out, a in zip(fields, values):
            out[strip] = a
            if masked is not None:
                np.copyto(out[strip], 0.0, where=masked)
    rx, rt = margin
    packed = fields[0].reshape(-1)  # the finest level's usable squares, packed
    count = 0
    # the finest level's 10 largest |res| so far: (|res|, res, flat position)
    top = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    maxima: list[float] = []
    fractions: list[float] = []
    for lvl, g in enumerate(grids):
        finest = lvl == len(grids) - 1
        stride = 2 ** (len(grids) - 1 - lvl)
        level_fields = [a[::stride, ::stride] for a in fields]
        level_defined = defined[::stride, ::stride]
        n_i, n_j = level_defined.shape[0] - 2 * rx, level_defined.shape[1] - 2 * rt
        # valid is None on a level with nothing masked: every stencil is usable
        valid, plus_share = None, 1.0
        if not level_defined.all():
            plus, clear = _usable(level_defined, rx, rt)
            valid = plus & clear
            plus_share = float(np.count_nonzero(plus) / plus.size)  # plus.mean(), to the bit
        fractions.append(plus_share)
        # points shared with the coarse level: residual index r(2^lvl - 1)
        # mod 2^lvl accounts for the interior offset by the stencil radius
        step = 2**lvl
        si, sj = (rx * (step - 1)) % step, (rt * (step - 1)) % step
        span = max(1, _STRIP_POINTS // n_j)
        nonfinite, level_max, shared_max = 0, 0.0, 0.0
        for i0 in range(0, n_i, span):
            i1 = min(i0 + span, n_i)
            res = level_residual([a[i0:i1 + 2 * rx] for a in level_fields], g.h_x, g.h_t)
            if res.shape != (i1 - i0, n_j):
                raise ValueError(f"level_residual gave {res.shape} on a {i1 - i0 + 2 * rx} x "
                                 f"{n_j + 2 * rt} window, not its margin {margin} smaller")
            ok = None if valid is None else valid[i0:i1]
            if ok is None:
                score = np.abs(res)
            else:  # |res| on usable stencils and 0 elsewhere, in one temporary
                score = np.where(ok, res, 0.0)
                np.abs(score, out=score)
            strip_max = float(np.max(score))
            if not math.isfinite(strip_max):
                nonfinite += int(np.count_nonzero(~np.isfinite(score)))
            level_max = max(level_max, strip_max)
            first = (si - i0) % step  # the strip's first shared row
            if first < i1 - i0:
                shared_max = max(shared_max, float(np.max(score[first::step, sj::step])))
            if finest:
                kept = res if ok is None else res[ok]
                np.multiply(kept, kept, out=packed[count:count + kept.size].reshape(kept.shape))
                count += kept.size
                if top[0].size < 10 or strip_max > top[0][-1]:  # else no stencil here enters
                    top = _merge_top(top, score.reshape(-1), res.reshape(-1), i0 * n_j)
        if nonfinite:
            raise VerificationImpossibleError(
                f"{nonfinite} usable stencils give a non-finite residual on the "
                f"{('h', 'h/2', 'h/4')[lvl]} level (overflow in the stencil arithmetic)")
        # a whole level shares points with the coarse one: its n_i, n_j exceed step
        maxima.append(shared_max if valid is None or valid[si::step, sj::step].any()
                      else math.nan)

    # valid, level_max and fractions[-1] now belong to the finest level
    usable = 1.0 if valid is None else np.count_nonzero(valid) / valid.size
    if usable < 0.1:
        raise VerificationImpossibleError(
            f"usable fraction {usable:.3f} < 0.1 (defined {fractions[-1]:.3f}) "
            + masked_where)
    orders = [math.log2(a / b) if (a > 0 and b > 0) else math.nan
              for a, b in zip(maxima[:-1], maxima[1:])]
    order_estimate = None
    if all(f > 0.5 for f in fractions) and all(math.isfinite(o) for o in orders):
        order_estimate = float(np.mean(orders))

    worst = []
    for _, value, position in zip(*top):
        i, j = divmod(int(position), n_j)
        if valid is None or valid[i, j]:
            worst.append((float(x[rx + i]), float(t[rt + j]), float(value)))
    return ResidualReport(
        max_abs=level_max,
        l2=float(np.sqrt(np.mean(packed[:count]))),
        defined_fraction=fractions[-1],
        order_estimate=order_estimate,
        level_max_abs=tuple(maxima),
        orders=tuple(orders),
        worst=tuple(worst),
        stencil_order=stencil_order,
    )


def _merge_top(top, score: np.ndarray, res: np.ndarray, offset: int):
    """top, (|res|, res, flat position) of the 10 largest scores so far, merged
    with a strip's flat score and res whose first position is offset, which
    lies past every position in top: the largest first, ties to the earlier
    position."""
    scores, values, positions = top
    if scores.size == 10:  # a later position needs a larger score than the 10th
        pick = np.flatnonzero(score > scores[-1])
        if pick.size > 10:
            cand = score[pick]
            pick = pick[cand >= np.partition(cand, -10)[-10]]
    else:  # every score at least the strip's 10th largest; a row of a Grid2D holds over 10
        pick = np.flatnonzero(score >= np.partition(score, -10)[-10])
    scores = np.concatenate([scores, score[pick]])
    keep = np.argsort(-scores, kind="stable")[:10]  # stable: ties stay in position order
    return (scores[keep], np.concatenate([values, res[pick]])[keep],
            np.concatenate([positions, pick + offset])[keep])


def pde_residual(sampler: Sampler, eq: EquationSpec, grid: Grid2D,
                 stencil_order: int = 4) -> ResidualReport:
    """Residual of u_t - u_xx = f(u) over the nested (h, h/2, h/4) triple.

    Reports the finest level's statistics plus the convergence order
    estimated from log2 of successive max-residual ratios at the points the
    three levels share.  Raises VerificationImpossibleError when fewer than
    10 percent of the stencils are usable.  Each strip's residual is formed
    in u_t's fresh array: u_xx, then f, subtracted in place.
    """
    if stencil_order not in (2, 4):
        raise ValueError("stencil_order must be 2 or 4")
    r = stencil_order // 2

    def sample(X, T):
        u, _ = sampler.sample(X, T)  # u is nan where masked
        with np.errstate(all="ignore"):
            f = eq.rhs(u)
        return u, f

    def level_residual(fields, hx, ht):
        u, f = fields
        res = central_difference(u[r:-r].T, ht, 1, stencil_order).T  # u_t, a fresh array
        res -= central_difference(u[:, r:-r], hx, 2, stencil_order)
        res -= f[r:-r, r:-r]
        return res

    return _refinement_study(
        sample, grid, level_residual, (r, r), stencil_order,
        f"on the finest grid; mask cause: {sampler.domain_note or 'sampler mask'}")


@dataclass(frozen=True)
class OdeResidualReport:
    second_order_max: float
    first_integral_std: float
    c_estimate: float
    n_valid: int


# rows y + _FD_ROWS h of _fd_second: 0-4 at step h/2, 5-9 at step h, row 2 is y;
# halving is exact, so each row is bit-identical to y + j (h/2) or y + j h
_FD_ROWS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, -2.0, -1.0, 0.0, 1.0, 2.0])[:, None]
_FD_ROWS.flags.writeable = False


def _fd_second(values: np.ndarray, h: float) -> np.ndarray:
    """Richardson-extrapolated 4th-order (net 6th) second derivative from rows y + _FD_ROWS h."""
    return (16.0 * central_difference(values[:5], h / 2, 2, 4)[0]
            - central_difference(values[5:], h, 2, 4)[0]) / 15.0


def _chain_scale(c_n: float) -> float:
    """Natural magnitude |C_n|^(1/4) of a chain element; lengths go as 1/scale."""
    return abs(c_n) ** 0.25


def _ladder(state: PhiState, y: np.ndarray):
    """(phi, phi', h) on _fd_second's rows y + _FD_ROWS h, the last level of
    one walk of the recurrence (nan where masked), at C_n's step
    h = 0.012 / |C_n|^(1/4): its oscillation length, balancing truncation
    against the rounding noise of the chain values."""
    h = 0.012 / _chain_scale(state.c_n)
    *_, last = state.levels(y + _FD_ROWS * h)
    return (*last, h)


def ode_residual(state: PhiState, y_samples) -> OdeResidualReport:
    """Chain-element check: phi'' = 2 phi^3 by finite differences, plus the
    first integral (phi')^2 - phi^4 from the analytic pair.

    The samples must be well conditioned, as clean_chain_samples gives: with
    every element up to this one moderate, no pole lies within the stencil's
    reach.  Samples on a pole (masked by the chain) are dropped.  The chain
    is evaluated through its recurrence, independent of the closed-form
    PhiState.eval that the samplers use.
    """
    return _ode_report(*_ladder(state, np.asarray(y_samples, dtype=float)))


def _ode_report(phis, dphis, h) -> OdeResidualReport:
    """ode_residual's report from a _ladder walk."""
    ok = np.isfinite(phis[2])  # row 2 holds the values at y
    phis, dphi = phis[:, ok], dphis[2, ok]
    if dphi.size == 0:
        raise VerificationImpossibleError("all samples masked at chain poles")
    second_order_max = float(np.max(np.abs(_fd_second(phis, h) - 2.0 * phis[2]**3)))
    first = dphi**2 - phis[2]**4
    return OdeResidualReport(
        second_order_max=second_order_max,
        first_integral_std=float(np.std(first)),
        c_estimate=float(np.mean(first)),
        n_valid=int(dphi.size),
    )


def _well_conditioned(state: PhiState, y: np.ndarray) -> np.ndarray:
    """Mask of the y where every element of state's ladder is finite and
    below 2.5 |C_j|^(1/4), read through the recurrence (a nan compares False)."""
    keep = np.ones_like(y, dtype=bool)
    for j, (phi, _) in enumerate(state.levels(y)):
        keep &= np.abs(phi) <= 2.5 * _chain_scale(chain_constant(j))
    return keep


def clean_chain_samples(max_index: int, n: int, seed: int = 77) -> np.ndarray:
    """Sample y on one period with every element up to max_index moderate.

    Conditioning filter only: each element's magnitude must stay below
    2.5 |C_j|^(1/4) (its natural scale), which keeps the whole ladder away
    from pole neighborhoods - an element blowing up is exactly what flags
    proximity to a zero of its predecessor.  Up to CANDIDATES_PER_SAMPLE n
    candidates are drawn in chunks of 4n, 8n, ... from one uniform stream, so
    the kept samples are the first n of the one-shot draw; VerificationImpossibleError
    when all of them leave fewer than n.  n must be positive (ValueError).
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    state = phi_chain(max_index)
    kept: list[np.ndarray] = []
    n_kept = 0
    remaining, chunk = CANDIDATES_PER_SAMPLE * n, 4 * n
    while remaining:
        y = rng.uniform(0.05, 2 * CHAIN_K - 0.05, min(chunk, remaining))
        remaining -= y.size
        chunk *= 2
        kept.append(y[_well_conditioned(state, y)])
        n_kept += kept[-1].size
        if n_kept >= n:
            return np.concatenate(kept)[:n]
    raise VerificationImpossibleError(
        f"only {n_kept} well-conditioned samples available for depth {max_index}"
    )


@dataclass(frozen=True)
class PropositionRow:
    index: int
    proposition: str
    max_deviation: float
    passed: bool


def proposition_suite(max_index: int = 6, n_samples: int = 200) -> list[PropositionRow]:
    """Numerical checks of the three chain assertions at indices 0..max_index.

    1: each element solves phi'' = 2 phi^3 (ode_residual's finite differences);
    2: for odd index (C_n > 0), sqrt(C_n)/phi satisfies the same first
       integral with the same constant;
    3: for even index (C_n = -B_n < 0), sqrt(B_n)/phi satisfies
       phi'' = -2 phi^3 and (phi')^2 = -phi^4 + B_n.  The last constant is
       B_n to first power: the transcribed B_n^2 fails the oracle except at
       B_n = 1 and is not reproduced here.

    Finite-difference identities are evaluated in first-integral-normalized
    variables (phi and y scaled by |C_n|^(1/4)), where the tolerance keeps
    the same meaning at every depth; C_n itself grows like 4^n, so raw
    deviations of deep elements would measure magnitude, not correctness.
    Through index 17 every check passes at a normalized deviation of at most
    1e-7; past it the recurrence's own rounding, which grows with depth,
    takes proposition 1 past it (1.5e-7 at index 18), so a max_index above
    17 raises VerificationImpossibleError before any work.
    """
    if max_index > 17:
        raise VerificationImpossibleError(f"max index {max_index} > 17: past 17 the recurrence's "
                                          "own rounding exceeds the suite's 1e-7 tolerance")
    tol = 1e-7
    rows: list[PropositionRow] = []
    for index in range(max_index + 1):
        y = clean_chain_samples(index, n_samples, seed=77 + index)
        ladder = _ladder(phi_chain(index), y)
        phis, dphis, h = ladder
        phi, dphi = phis[2], dphis[2]
        c_n = chain_constant(index)
        s = _chain_scale(c_n)

        dev1 = _ode_report(*ladder).second_order_max / s**3
        rows.append(PropositionRow(index, "chain element solves phi''=2phi^3",
                                   dev1, dev1 <= tol))

        if index % 2 == 1:
            root = math.sqrt(c_n)
            # odd elements pass through zero; cap the inverse element's
            # magnitude the same way the direct ones are capped
            sel = np.abs(phi) >= s / 3.0
            tphi = root / phi[sel]
            tdphi = -root * dphi[sel] / phi[sel] ** 2
            dev2 = float(np.max(np.abs(tdphi**2 - tphi**4 - c_n))) / s**4
            rows.append(PropositionRow(index, "inverse element keeps the first integral",
                                       dev2, dev2 <= tol))
        else:
            b_n = -c_n
            root = math.sqrt(b_n)
            hphi = root / phi
            hdphi = -root * dphi / phi**2
            d2h = _fd_second(root / phis, h)
            dev3a = float(np.max(np.abs(d2h + 2.0 * hphi**3))) / s**3
            dev3b = float(np.max(np.abs(hdphi**2 + hphi**4 - b_n))) / s**4
            dev3 = max(dev3a, dev3b)
            rows.append(PropositionRow(index, "reciprocal element solves phi''=-2phi^3",
                                       dev3, dev3 <= tol))
    return rows


def potential_residual(z: ZSampler, params: dict, grid: Grid2D) -> ResidualReport:
    """Residual of the homogeneous trilinear form satisfied by z.

    z (z_x z_tx - z_x z_xxx - l3 z z_x - l4 z^2 - (k-1) z_xx^2)
      = z_x^2 (z_t + l1 z + l2 z_x - (2k+1) z_xx),
    evaluated with 4th-order central differences (7-point for z_xxx) on the
    same (h, h/2, h/4) refinement triple as pde_residual.  The form is
    homogeneous of degree three in z, so the residual is normalized by the
    sum of the term magnitudes to make thresholds scale-free.
    """
    k = params["k"]
    l1 = params.get("lambda1", 0.0)
    l2 = params.get("lambda2", 0.0)
    l3 = params.get("lambda3", 0.0)
    l4 = params.get("lambda4", 0.0)

    def sample(X, T):
        return z.fn(X, T)[:1]  # z alone: the form needs no analytic z_x

    def level_residual(fields, hx, ht):
        (zfill,) = fields
        # far from the origin the products overflow; the study names the
        # non-finite stencils in its error, so numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            # x-derivatives on the x-interior 3 points in, kept whole along t
            z_x = central_difference(zfill, hx, 1, 4)[1:-1]
            z_xx = central_difference(zfill, hx, 2, 4)[1:-1]
            z_xxx = central_difference(zfill, hx, 3, 4)
            zc = zfill[3:-3, 2:-2]
            z_t = central_difference(zfill[3:-3].T, ht, 1, 4).T
            z_tx = central_difference(z_x.T, ht, 1, 4).T
            z_xc, z_xxc, z_xxxc = z_x[:, 2:-2], z_xx[:, 2:-2], z_xxx[:, 2:-2]
            # the form zc * sum(lhs) = z_x^2 * sum(rhs); scale sums the magnitudes of its terms
            lhs = (z_xc * z_tx, -z_xc * z_xxxc, -l3 * zc * z_xc, -l4 * zc**2,
                   -(k - 1.0) * z_xxc**2)
            rhs = (z_t, l1 * zc, l2 * z_xc, -(2.0 * k + 1.0) * z_xxc)
            scale = np.abs(zc) * sum(map(np.abs, lhs)) + z_xc**2 * sum(map(np.abs, rhs))
            return (zc * sum(lhs) - z_xc**2 * sum(rhs)) / np.maximum(scale, 1e-12)

    return _refinement_study(sample, grid, level_residual, (3, 2), 4, "for the potential")
