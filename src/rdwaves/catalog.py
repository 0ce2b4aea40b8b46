"""Every exact solution family, constructed as samplers (x, t) -> value.

The chain elements are defined from the seed phi = ds(y, 1/sqrt2) by the
logarithmic-derivative recurrence phi -> phi'/phi, with derivatives
propagated analytically through the first integral (phi')^2 - phi^4 = C_n
(C_{n+1} = -4 C_n): no numerical differentiation ever enters the chain.
The samplers evaluate each element from its closed form, a scaled copy of
element 0 or 1 (PhiState.eval, one sn/cn/dn evaluation at any depth) with
an exact dyadic lattice of zeros and poles (PhiState.lattice); the recurrence
(PhiState.levels) is the oracle that verify and the closed-form cross-check walk.
Sign conventions follow exact differentiation of the seed; transcribed
closed forms are matched up to overall sign by the cross-check helpers.

nan is the mask: every evaluator here (a sampler's fn, PhiState.eval and
levels, a ZSampler's fn, closed_forms) returns values alone, nan where the
point is masked, and a masked denominator is nan before it divides.
Sampler.sample alone returns a flag beside u, defined = np.isfinite(u).

Each sampler carries the equation it actually solves, a validity note, and
a suggested verification window.  Where a transcribed closed form failed
the residual oracle (see the cross-check helpers and the notes on individual
families), the constructor keeps the oracle-validated form and the metadata
records the deviation rather than hiding it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .elliptic import (
    MODULUS_INV_SQRT2,
    WeierstrassInvariants,
    _off_pole,
    _pole_div,
    _sin_cos,
    complete_elliptic_K,
    jacobi_sn_cn_dn,
    weierstrass_p,
    weierstrass_real_half_period,
)
from .equations import (
    EquationError,
    EquationSpec,
    Fisher,
    GeneralFamily,
    GeneralizedFisher,
    PerturbedFisher,
    PowerLaw,
    QuadraticDecay,
    SigmaFamily,
    _frac_pow,
    build_eq47,
    derived_constants,
)

__all__ = [
    "CatalogError",
    "Sampler",
    "PhiState",
    "phi_chain",
    "chain_constant",
    "elliptic_solution",
    "cosh_cos_solution",
    "plane_wave",
    "solitary_wave",
    "fisher_front",
    "fisher_exponential",
    "fisher_weierstrass",
    "generalized_fisher",
    "perturbed_fisher_bell",
    "quadratic_rational",
    "ZSampler",
    "potential_transform",
    "z_from_phi",
    "z_plane_wave",
    "closed_forms",
    "crosscheck_closed_forms",
    "FAMILIES",
    "build_family",
    "family_info",
]

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)

# survivor of probing u = A z^2 P(z; 0, C) in the Fisher residual over
# A in {1/2, 1, 2}; the bare printed prefactor 1/2 fails (see tests)
WEIERSTRASS_PREFACTOR = 1.0


class CatalogError(ValueError):
    """Invalid family construction request."""


def _as_grid(x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.broadcast_arrays(x, t)


def _stored(a):
    """a cut to length 1 along every axis where it repeats one stored value (stride 0,
    as a broadcast view does): the same values, each once, broadcasting back to a."""
    a = np.asarray(a)
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


def _masked_pow(base, p: float):
    """base**p: signed for integer p, principal branch otherwise; nan where masked.

    The values are equations._frac_pow's: an integer power of a negative base
    is the mirror of its power at |base|, (-1)**p |base|**p, so the odd chain
    and plane-wave powers stay on numpy's vector loop and are exactly odd.  The
    mask is the pole rule for p < 0 and finiteness otherwise; _frac_pow is nan
    at a negative base under a fractional p."""
    base = np.asarray(base, dtype=float)
    defined = _off_pole(base) if p < 0 else np.isfinite(base)
    return np.where(defined, _frac_pow(base, p), np.nan)


@dataclass(frozen=True)
class Sampler:
    """Exact solution u(x, t) and the equation it solves.

    fn(x, t) returns u on the broadcast grid, nan where the point is masked.
    """

    fn: Callable = field(compare=False)
    equation: EquationSpec
    family_id: str
    params: dict
    domain_note: str = ""
    predicted_velocity: float | None = None
    residual_clean: bool = True
    suggested_window: tuple[float, float, float, float] | None = None  # x0, x1, t0, t1
    suggested_resolution: tuple[int, int] = (49, 25)  # base residual grid (n_x, n_t)

    def sample(self, x, t):
        """Vectorized (u, defined), broadcasting x and t; defined = np.isfinite(u)."""
        u = self.fn(*_as_grid(x, t))
        return u, np.isfinite(u)

    def shifted(self, dx: float = 0.0, dt: float = 0.0) -> "Sampler":
        """Translate u and its window: the equations are autonomous, so shifts stay solutions."""
        inner = self.fn
        w = self.suggested_window
        return replace(
            self,
            fn=lambda x, t: inner(x - dx, t - dt),
            params={**self.params, "x_shift": dx, "t_shift": dt},
            suggested_window=None if w is None else (w[0] + dx, w[1] + dx, w[2] + dt, w[3] + dt),
        )

    def perturbed(self, amplitude: float = 0.01) -> "Sampler":
        """Additive sin(x) perturbation: a negative control for verifiers."""
        inner = self.fn

        def fn(x, t):
            # sin(x) once per stored x: on a broadcast grid x repeats along t
            return inner(x, t) + amplitude * _sin_cos(_stored(x))[0]

        return replace(self, fn=fn, residual_clean=False,
                       domain_note=f"perturbed by {amplitude}*sin(x): not a solution")


def chain_constant(n: int) -> float:
    """First-integral constant C_n = (-4)^n * (-1/4) of the chain.

    C_n leaves the float range at n = 512, which raises CatalogError; the
    float exponent keeps numpy integers on Python's raising power.
    """
    try:
        return (-4.0) ** float(n) * (-0.25)
    except OverflowError:
        raise CatalogError(f"chain index {n} is too deep: C_n = (-4)^n * (-1/4) "
                           "overflows a float from index 512 on") from None


@dataclass(frozen=True)
class PhiState:
    """Chain element: y -> (phi, phi'), both nan where masked, with its first-integral constant.

    All elements satisfy phi'' = 2 phi^3 and (phi')^2 - phi^4 = C_n; the
    derivative of the next element comes from the analytic step
    (phi'/phi, (phi^4 - C_n)/phi^2).
    """

    index: int
    c_n: float

    def levels(self, y):
        """Yield (phi, phi') at y for the elements 0..index in turn.

        One pass of the recurrence walks the whole ladder; phi and phi' are
        nan where masked, as in eval.
        """
        y = np.asarray(y, dtype=float)
        sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
        phi, dphi = _pole_div(dn, sn), _pole_div(-cn, sn, 2)
        yield phi, dphi
        c = -0.25
        for _ in range(self.index):
            # one masked denominator a step for both quotients; phi^4 as
            # sq * sq, because ** 4 leaves numpy's vector loop on a mixed-sign field
            den = np.where(_off_pole(phi), phi, np.nan)
            sq = den * den
            phi, dphi = dphi / den, (sq * sq - c) / sq
            c = -4.0 * c
            yield phi, dphi

    def eval(self, y):
        """(phi, phi') at y from the closed form, both nan where masked.

        With m, r = divmod(index, 2), phi_n(y) = s_n 2^m B_r(2^m y) and
        phi_n'(y) = s_n 4^m B_r'(2^m y), where B_0 = ds, B_1 = -cn/(sn dn)
        and s_n = -1 for even n >= 2, +1 otherwise (phi_{n+2}(y) =
        2 phi_n(2y) for n >= 1; DLMF 22.6, 22.13).  One sn/cn/dn evaluation
        at any depth; a point is kept where |sn(2^m y)| >= POLE_EPS, and for
        odd index, whose phi divides by sn dn, where |sn dn| >= POLE_EPS for
        both values.  levels() walks the recurrence and stays the independent
        oracle for this form.
        """
        m, r = divmod(self.index, 2)
        scale = 2.0**m
        sign = -1.0 if r == 0 and m > 0 else 1.0
        sn, cn, dn = jacobi_sn_cn_dn(scale * np.asarray(y, dtype=float), MODULUS_INV_SQRT2)
        # one mask for both quotients
        sn = np.where(_off_pole(sn if r == 0 else sn * dn), sn, np.nan)
        if r == 0:
            phi, dphi = dn / sn, -cn / sn**2
        else:
            phi = -cn / (sn * dn)
            dphi = 1.0 / sn**2 - cn * cn / (2.0 * dn * dn)
        return sign * scale * phi, sign * scale * scale * dphi

    @property
    def lattice_level(self) -> int:
        return (self.index + 1) // 2

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """(zeros, poles) on the period [0, 2K], each within one rounding of exact; together
        they are the multiples of 2K / 2^lattice_level.  With m = index // 2, poles sit where
        sn(2^m y) = 0 and, for odd index only, zeros where cn(2^m y) = 0 (DLMF 22.4)."""
        points = np.arange(2**self.lattice_level + 1) * (2.0 * CHAIN_K / 2**self.lattice_level)
        if self.index % 2:
            return points[1::2], points[::2]
        return points[:0], points


def phi_chain(index: int) -> PhiState:
    """Chain element of the given depth; index 0 is the ds seed."""
    if index < 0 or index != int(index):
        raise CatalogError("chain index must be a non-negative integer")
    return PhiState(index=int(index), c_n=chain_constant(int(index)))


# real quarter-period K(1/sqrt2) of the chain seed ds: its poles sit at multiples of 2K
CHAIN_K = complete_elliptic_K(MODULUS_INV_SQRT2)

# equations solved by the chain kinds
_EQ_CUBIC_MINUS = PowerLaw(3.0)  # u_t - u_xx = -2 u^3
_EQ_CUBIC_PLUS = GeneralFamily(n=-1.0, lambda4=-2.0)  # u_t - u_xx = +2 u^3

_CHAIN_KINDS = ("direct", "inverse", "focusing")


def _chain_factor(kind: str, index: int) -> float:
    """Multiplier m in u = m * x / phi (inverse/focusing) or m * x * phi."""
    c_n = chain_constant(index)
    if kind == "direct":
        return 2.0
    if kind == "inverse":
        if index % 2 == 0:
            raise CatalogError("inverse chain solutions need an odd index (C_n > 0)")
        return 2.0 * math.sqrt(c_n)
    if kind == "focusing":
        if index % 2 == 1:
            raise CatalogError("focusing chain solutions need an even index (C_n < 0)")
        return 2.0 * math.sqrt(-c_n)
    raise CatalogError(f"unknown chain kind {kind!r}; valid: {_CHAIN_KINDS}")


def _chain_u(kind: str, amp, phi):
    """amp * phi (direct) or amp / phi (inverse/focusing), nan where masked."""
    if kind == "direct":
        return amp * phi
    return _pole_div(amp, phi)


_CHAIN_WINDOWS = MappingProxyType({
    # pole-free y-windows per lattice level (PhiState.lattice_level)
    0: (0.65, 2.9),
    1: (0.45, 1.5),
    2: (0.25, 0.68),
    3: (0.54, 0.85),
})


def _chain_xt_window(level: int) -> tuple[float, float, float, float]:
    # the lattice spacing halves every level: past 3, scale the level-3
    # y-window by 2^(3 - level); split it between the x- and t-extents
    # so that x^2 + 6t stays inside it across the whole rectangle
    scale = 2.0 ** min(0, 3 - level)
    y_lo, y_hi = (scale * y for y in _CHAIN_WINDOWS[min(level, 3)])
    x0 = 0.25
    x1 = math.sqrt(x0 * x0 + 0.45 * (y_hi - y_lo))
    t0 = (y_lo - x0 * x0) / 6.0
    t1 = (y_hi - x1 * x1) / 6.0
    return (x0, x1, t0, t1)


def elliptic_solution(kind: str, index: int, sign: int = 1) -> Sampler:
    """Chain solution over the parabolic variable y = x^2 + 6t.

    direct: u = 2x phi_n, inverse: u = 2x sqrt(C_n)/phi_n (odd n, same
    equation u_t - u_xx = -2u^3), focusing: u = 2x sqrt(-C_n)/phi_n (even n,
    equation u_t - u_xx = +2u^3).  sign flips the sampler; both signs solve
    (the equations are odd in u), covering the printed-sign ambiguity of the
    seed's logarithmic derivative.
    """
    state = phi_chain(index)  # validates index before _chain_factor reads C_n
    factor = _chain_factor(kind, index)
    eq = _EQ_CUBIC_PLUS if kind == "focusing" else _EQ_CUBIC_MINUS
    if sign not in (-1, 1):
        raise CatalogError("sign must be +1 or -1")

    def fn(x, t, state=state, factor=factor, sign=sign, kind=kind):
        return _chain_u(kind, sign * factor * x, state.eval(x * x + 6.0 * t)[0])

    return Sampler(
        fn=fn,
        equation=eq,
        family_id="chain",
        params={"kind": kind, "index": index, "sign": sign},
        domain_note="poles where sn(y) = 0 or an intermediate chain element vanishes, "
        "y = x^2 + 6t on the dyadic grid of quarter-period fractions",
        suggested_window=_chain_xt_window(state.lattice_level),
        suggested_resolution=(97, 49) if index <= 2 else (65, 33),
    )


def cosh_cos_solution(sign: int, k1: float, k2: float, kind: str, index: int) -> Sampler:
    """Chain solution through w-substitution, u = w_x psi(w).

    For direct/inverse kinds the equation is u_t - u_xx = -2(u^3 + s u) with
    s = sign; the residual oracle fixes the pairing s = -1 <-> w = k1
    cosh(x+k2) e^{3t} and s = +1 <-> w = k1 cos(x+k2) e^{-3t} (the decaying
    exponential is required for the cos case).  For the focusing kind the
    equation is u_t - u_xx = +2(u^3 + s u) with s = +1 <-> cosh and
    s = -1 <-> cos.
    """
    if k1 == 0.0:
        raise CatalogError("k1 must be nonzero")
    if sign not in (-1, 1):
        raise CatalogError("sign must be +1 or -1")
    state = phi_chain(index)  # validates index before _chain_factor reads C_n
    factor = _chain_factor(kind, index)
    if kind == "focusing":
        use_cosh = sign == 1
        eq = GeneralFamily(n=-1.0, lambda4=-2.0, lambda1=-2.0 * sign)  # 2u^3 + 2 s u
    else:
        use_cosh = sign == -1
        eq = GeneralFamily(n=3.0, lambda1=-2.0 * sign)  # -2u^3 - 2 s u

    def fn(x, t, state=state, factor=factor, use_cosh=use_cosh, kind=kind):
        arg = x + k2
        if use_cosh:
            damp = np.exp(3.0 * t)
            w = k1 * np.cosh(arg) * damp
            wx = k1 * np.sinh(arg) * damp
        else:
            damp = np.exp(-3.0 * t)
            sin, cos = _sin_cos(arg)
            w = k1 * cos * damp
            wx = -k1 * sin * damp
        return _chain_u(kind, (factor / 2.0) * wx, state.eval(w)[0])

    shape = "cosh" if use_cosh else "cos"
    # keep w inside the clean chain interval; the cosh exponential grows, so
    # its window can be wider before hitting the first singular w
    window = (0.25, 1.05, 0.0, 0.1) if use_cosh else (0.3, 0.9, 0.0, 0.05)
    return Sampler(
        fn=fn,
        equation=eq,
        family_id="chain-exp",
        params={"sign": sign, "k1": k1, "k2": k2, "kind": kind, "index": index, "shape": shape},
        domain_note=f"w = k1*{shape}(x+k2)*exp({'+' if use_cosh else '-'}3t); "
        "poles where the chain element is singular in w",
        suggested_window=window,
        # a coarse t-base keeps the truncation error above the evaluation
        # noise floor through all three refinement levels
        suggested_resolution=(49, 9),
    )


def plane_wave(n: float, c1: float, c2: float, lambda2: float) -> Sampler:
    """Exponential front u = c1^k / (1 + c2 e^theta)^k.

    theta = -c1 x - ((2k+1)c1^2 - lambda2 c1) t; the front moves with
    velocity lambda2 - (2k+1)c1, which reduces to k + 1 - k c1 under the
    front condition lambda2 = (k+1)(c1+1).
    """
    if c1 == 0.0:
        raise CatalogError("c1 must be nonzero")
    build = build_eq47(n, c1, lambda2)
    k = derived_constants(n).k
    k_is_int = abs(k - round(k)) < 1e-12
    if not k_is_int and c1 < 0.0:
        raise CatalogError("fractional k needs c1 > 0 for a real amplitude c1^k")
    if np.isnan(_masked_pow(np.asarray(c1), k)):
        raise CatalogError("c1^k is not a real number for these parameters")
    rate = (2.0 * k + 1.0) * c1**2 - lambda2 * c1

    def fn(x, t):
        theta = -c1 * x - rate * t
        with np.errstate(over="ignore"):
            den = 1.0 + c2 * np.exp(theta)
        return _masked_pow(_pole_div(c1, den), k)

    velocity = lambda2 - (2.0 * k + 1.0) * c1
    note = "smooth for c2 >= 0" if c2 >= 0 else "singular line where 1 + c2 e^theta = 0 (masked)"
    if build.spec.halfpower_sign < 0:
        note += "; equation carries the negative half-power branch (c1 < 0, even k)"
    return Sampler(
        fn=fn,
        equation=build.spec,
        family_id="plane-wave",
        params={"n": n, "c1": c1, "c2": c2, "lambda2": lambda2},
        domain_note=note,
        predicted_velocity=velocity,
        suggested_window=(-3.0, 3.0, 0.0, 0.2),
        suggested_resolution=(97, 49),
    )


_SOLITARY_BRANCHES = ("tanh", "tanh_inverse", "tan", "rational")


def solitary_wave(n: float, nu: float, sigma: float, branch: str, C: float = 0.0) -> Sampler:
    """Traveling-wave families of the square-root-coupled equation.

    theta = b(x - sigma t / sqrt2) + C with b = (n-1) sqrt(|nu|/2):
    tanh branch (nu < 0): u = (-nu)^(1/(n-1)) tanh(theta)^(2/(n-1));
    tanh_inverse (nu < 0): the coth power; tan (nu > 0): the oracle-validated
    form uses -tan(theta); rational (nu = 0):
    u = 2^(1/(n-1)) ((n-1)(x - sigma t/sqrt2 + C))^(2/(1-n)) - the exponent
    of the leading 2 is the reciprocal of the as-given one, which only
    matches the n = 2 case (fixed by matching powers in the equation).

    For even n with sigma != 0 the equation's u^((n+1)/2) term is
    branch-sensitive and the solution holds on one half-plane; the mask is
    restricted accordingly.
    """
    if branch not in _SOLITARY_BRANCHES:
        raise CatalogError(f"unknown branch {branch!r}; valid: {_SOLITARY_BRANCHES}")
    if branch in ("tanh", "tanh_inverse") and not nu < 0.0:
        raise CatalogError(f"{branch} branch requires nu < 0")
    if branch == "tan" and not nu > 0.0:
        raise CatalogError("tan branch requires nu > 0")
    if branch == "rational" and nu != 0.0:
        raise CatalogError("rational branch requires nu = 0")
    eq = SigmaFamily(n=n, nu=nu, sigma=sigma)
    k_exp = 2.0 / (n - 1.0)
    half_sensitive = sigma != 0.0 and abs((n + 1.0) / 2.0 - round((n + 1.0) / 2.0)) > 1e-12

    t1_win = 0.25
    drift = max(0.0, sigma) * t1_win / SQRT2  # front motion across the window

    if branch == "rational":
        amp = 2.0 ** (1.0 / (n - 1.0)) * (n - 1.0) ** (-k_exp)

        def fn(x, t):
            base = x - sigma * t / SQRT2 + C
            u = _masked_pow(base, -k_exp)
            if half_sensitive:
                u = np.where(base > 0.0, u, np.nan)
            return amp * u

        note = "moving singular point at x = sigma t/sqrt2 - C (masked)"
        x0 = 1.0 - C + drift
        window = (x0, x0 + 2.6, 0.0, t1_win)
    else:
        b = (n - 1.0) * math.sqrt(abs(nu) / 2.0)
        amp = abs(nu) ** (1.0 / (n - 1.0))
        p = k_exp if branch != "tanh_inverse" else -k_exp

        def fn(x, t):
            theta = b * (x - sigma * t / SQRT2) + C
            if branch == "tan":
                s = np.where(_off_pole(_sin_cos(theta)[1]), -np.tan(theta), np.nan)
            else:
                s = np.tanh(theta)
            u = _masked_pow(s, p)
            if half_sensitive:
                u = np.where(s > 0.0, u, np.nan)
            return amp * u

        if branch == "tan":
            note = "periodic poles of tan masked; valid on the -tan > 0 half-periods"
            # window tracking theta in [-1.1, -0.35], where -tan > 0
            x0 = (-1.1 - C) / b + drift
            x1 = (-0.35 - C) / b - max(0.0, -sigma) * t1_win / SQRT2
            window = (x0, x1, 0.0, t1_win)
        elif branch == "tanh_inverse":
            note = "singular line theta = 0 masked; valid half-plane theta > 0"
            x0 = (0.9 - C) / b + drift
            window = (x0, x0 + 2.6 / b, 0.0, t1_win)
        else:
            note = "valid half-plane theta > 0 for even n with sigma != 0"
            x0 = (0.5 - C) / b + drift
            window = (x0, x0 + 2.6 / b, 0.0, t1_win)

    return Sampler(
        fn=fn,
        equation=eq,
        family_id="solitary",
        params={"n": n, "nu": nu, "sigma": sigma, "branch": branch, "C": C},
        domain_note=note,
        predicted_velocity=sigma / SQRT2,
        suggested_window=window,
        suggested_resolution=(97, 49) if branch in ("tanh_inverse", "rational") else (65, 33),
    )


def _tanh_or_coth(form: str, theta):
    """tanh or coth of theta; coth is nan where |tanh| < POLE_EPS."""
    th = np.tanh(theta)
    return th if form == "tanh" else _pole_div(1.0, th)


def fisher_front(form: str = "tanh", complement: bool = False, c: float = 0.0,
                 reflect_y: bool = False) -> Sampler:
    """Hyperbolic Fisher fronts u = (1 -+ tanh/coth(theta))^2 / 4.

    theta = y/(2 sqrt6) - 5 tau/12 - c; reflect_y applies y -> -y.  The
    complement variants 1 - u are cataloged alongside: the map u -> 1 - u is
    often treated as a symmetry here, but it flips the reaction sign and the
    residual oracle rejects the complements, so they are flagged
    residual_clean=False and excluded from verification defaults.
    """
    if form not in ("tanh", "coth"):
        raise CatalogError("form must be 'tanh' or 'coth'")
    sgn_y = -1.0 if reflect_y else 1.0

    def fn(y, tau):
        theta = sgn_y * y / (2.0 * SQRT6) - 5.0 * tau / 12.0 - c
        u = 0.25 * (1.0 - _tanh_or_coth(form, theta)) ** 2
        return 1.0 - u if complement else u

    v = 5.0 / SQRT6 * sgn_y
    if form == "coth":
        # keep theta comfortably above the singular line over the window
        y0 = (1.0 + c) * 2.0 * SQRT6 + 5.0 * 0.5 / 12.0 * 2.0 * SQRT6
        window = (sgn_y * y0, sgn_y * (y0 + 10.0), 0.0, 0.5)
        window = (min(window[0], window[1]), max(window[0], window[1]), 0.0, 0.5)
    else:
        window = (-8.0, 8.0, 0.0, 0.5)
    return Sampler(
        fn=fn,
        equation=Fisher(),
        family_id="fisher-front",
        params={"form": form, "complement": complement, "c": c, "reflect_y": reflect_y},
        domain_note=("singular line theta = 0 masked; " if form == "coth" else "")
        + ("complement form fails the residual oracle (kept for completeness)" if complement else "entire plane"),
        predicted_velocity=v,
        residual_clean=not complement,
        suggested_window=window,
    )


def fisher_exponential(c2: float) -> Sampler:
    """Fisher front in exponential form u = (1 + c2 e^(y/sqrt6 - 5 tau/6))^-2."""

    def fn(y, tau):
        with np.errstate(over="ignore"):
            den = 1.0 + c2 * np.exp(y / SQRT6 - 5.0 * tau / 6.0)
        return _pole_div(1.0, den, 2)

    return Sampler(
        fn=fn,
        equation=Fisher(),
        family_id="fisher-exp",
        params={"c2": c2},
        domain_note="smooth for c2 >= 0; singular line masked for c2 < 0",
        predicted_velocity=5.0 / SQRT6,
        suggested_window=(-8.0, 8.0, 0.0, 0.5),
    )


def fisher_weierstrass(C: float, k_shift: float = 0.0, reflect_y: bool = False) -> Sampler:
    """Two-parameter Fisher family u = z^2 P(z; 0, C), z = e^(-y/sqrt6 + 5 tau/6 + k).

    The overall prefactor is the residual-oracle survivor (1, not the
    as-given 1/2).  Bounded on the band where z stays below the first real
    pole of P; points within the pole threshold are masked.
    """
    if C == 0.0:
        raise CatalogError("C must be nonzero (C = 0 degenerates to the exponential front)")
    inv = WeierstrassInvariants(0.0, C)
    sgn_y = -1.0 if reflect_y else 1.0

    def fn(y, tau):
        z = np.exp(-sgn_y * y / SQRT6 + 5.0 * tau / 6.0 + k_shift)
        return WEIERSTRASS_PREFACTOR * z * z * weierstrass_p(z, inv)[0]

    omega = weierstrass_real_half_period(inv)
    # rectangle keeping z inside [0.03, 0.45] * 2*omega: scales with C so
    # every C sees the same structure, clear of both the flat z -> 0 limit
    # and the first pole
    tau0, tau1 = -2.4, -0.6
    y_lo = SQRT6 * (5.0 * tau1 / 6.0 + k_shift - math.log(0.45 * 2.0 * omega))
    y_hi = SQRT6 * (5.0 * tau0 / 6.0 + k_shift - math.log(0.03 * 2.0 * omega))
    if reflect_y:
        y_lo, y_hi = -y_hi, -y_lo
    return Sampler(
        fn=fn,
        equation=Fisher(),
        family_id="fisher-weierstrass",
        params={"C": C, "k_shift": k_shift, "reflect_y": reflect_y},
        domain_note=f"bounded for z < 2*omega = {2*omega:.6g}; pole bands masked",
        predicted_velocity=5.0 / SQRT6 * sgn_y,
        suggested_window=(y_lo, y_hi, tau0, tau1),
        suggested_resolution=(97, 49),
    )


def generalized_fisher(c1: float, form: str = "tanh", c: float = 0.0,
                       reflect_y: bool = False) -> Sampler:
    """Tunable-velocity fronts u = c1^2 (1 + tanh/coth(theta))^2 / 4.

    theta = c1 y/(2 sqrt6) + c1(2 c1 - 3) tau/12 - c.  The amplitude c1^2
    is required by the residual oracle (the as-given form omits it and only
    matches |c1| = 1).  The front moves with speed |2 c1 - 3|/sqrt6; for
    c1 < 0 the equation's sqrt(u) rides the negative branch.
    """
    if form not in ("tanh", "coth"):
        raise CatalogError("form must be 'tanh' or 'coth'")
    sgn_y = -1.0 if reflect_y else 1.0
    halfpower = -1 if c1 < 0 else 1
    eq = GeneralizedFisher(c1=c1, halfpower_sign=halfpower)

    def fn(y, tau):
        theta = c1 * sgn_y * y / (2.0 * SQRT6) + c1 * (2.0 * c1 - 3.0) * tau / 12.0 - c
        h = _tanh_or_coth(form, theta)
        if form == "coth":
            h = np.where(theta > 0.0, h, np.nan)  # coth < -1 side rides the flipped sqrt branch
        return 0.25 * c1**2 * (1.0 + h) ** 2

    v = -(2.0 * c1 - 3.0) / SQRT6 * sgn_y
    if form == "coth" and c1 != 0.0:
        # theta in [1.0, 3.2] across tau in [0, 0.4], solved for y
        tau1 = 0.4
        shift = c1 * (2.0 * c1 - 3.0) * tau1 / 12.0
        ya = (1.0 + c + max(0.0, shift)) * 2.0 * SQRT6 / (c1 * sgn_y)
        yb = (3.2 + c + min(0.0, shift)) * 2.0 * SQRT6 / (c1 * sgn_y)
        window = (min(ya, yb), max(ya, yb), 0.0, tau1)
    else:
        window = (-8.0, 8.0, 0.0, 0.5)
    return Sampler(
        fn=fn,
        equation=eq,
        family_id="generalized-fisher",
        params={"c1": c1, "form": form, "c": c, "reflect_y": reflect_y},
        domain_note="coth form restricted to theta > 0 (branch side)" if form == "coth" else "entire plane",
        predicted_velocity=v,
        suggested_window=window,
        suggested_resolution=(65, 33),
    )


def perturbed_fisher_bell(epsilon: float, C: float = 0.0) -> Sampler:
    """Bell profile u = 3/(2 cosh^2(s)), s = (x - 3 eps t/sqrt6)/2 + C.

    Solves the square-root-perturbed Fisher equation on the half-plane
    s > 0: the equation's sqrt(3/2 - u) is single-signed while the wave's
    internal tanh changes sign at the crest, so the trailing flank rides
    the other branch.  The translation speed is 3 eps/sqrt6 (sigma/sqrt6 in
    the pre-transform parameter); the as-given value eps/sqrt6 understates
    it by a factor of three.
    """
    velocity = 3.0 * epsilon / SQRT6

    def fn(x, t):
        s = 0.5 * (x - velocity * t) + C
        return np.where(s > 0.0, 1.5 / np.cosh(s) ** 2, np.nan)

    return Sampler(
        fn=fn,
        equation=PerturbedFisher(epsilon=epsilon),
        family_id="bell",
        params={"epsilon": epsilon, "C": C},
        domain_note="valid half-plane s > 0 (principal square-root branch); "
        "the profile continues smoothly but stops solving the equation at s <= 0",
        predicted_velocity=velocity,
        suggested_window=(1.0, 7.0, 0.0, 0.8),
    )


def quadratic_rational(sign: int = 1) -> Sampler:
    """Rational solution of u_t - u_xx = -u^2.

    u = 12[(4 +- sqrt6) x^2 + 10(12 +- 5 sqrt6) t] / (x^2 + 10(3 +- sqrt6) t)^2.
    The transcribed numerator reads (3 +- sqrt6) x^2 without the overall 12;
    polynomial matching in the equation (confirmed by the residual oracle)
    fixes both.  Smooth for t > 0; the t < 0 region carries a moving
    singular circle (masked).
    """
    if sign not in (-1, 1):
        raise CatalogError("sign must be +1 or -1")
    r6 = sign * SQRT6
    a = 12.0 * (4.0 + r6)
    b = 120.0 * (12.0 + 5.0 * r6)
    beta = 10.0 * (3.0 + r6)

    def fn(x, t):
        den = x * x + beta * t
        den = np.where(np.abs(den) >= 1e-6 * (1.0 + x * x + np.abs(beta * t)), den, np.nan)
        return _pole_div(a * x * x + b * t, den, 2)

    return Sampler(
        fn=fn,
        equation=QuadraticDecay(),
        family_id="quadratic-rational",
        params={"sign": sign},
        domain_note="singular circle x^2 = -beta t (t < 0) masked; smooth for t > 0",
        suggested_window=(-4.0, 4.0, 1.0, 3.0),
        suggested_resolution=(65, 33),
    )


@dataclass(frozen=True)
class ZSampler:
    """Potential-level solution z(x, t) with its analytic x-derivative.

    fn(x, t) returns (z, z_x) from one evaluation on arrays of one shape,
    both nan where the point is masked.
    """

    fn: Callable = field(compare=False)
    label: str = ""


def potential_transform(z: ZSampler, k: float) -> Sampler:
    """u = (z_x / z)^k; masked where z vanishes or the base is non-positive
    under a fractional exponent."""

    def fn(x, t):
        zv, zx = z.fn(x, t)
        return _masked_pow(_pole_div(zx, zv), k)  # the nan base of a masked point stays masked

    return Sampler(
        fn=fn,
        equation=QuadraticDecay(),
        family_id="potential-transform",
        params={"k": k, "z": z.label},
        domain_note="logarithmic-derivative power of the potential solution",
    )


def z_from_phi(index: int) -> ZSampler:
    """z = phi_n(x^2 + 6t) with z_x = 2x phi_n'(y)."""
    state = phi_chain(index)

    def fn(x, t):
        phi, dphi = state.eval(x * x + 6.0 * t)
        return phi, 2.0 * x * dphi

    return ZSampler(fn=fn, label=f"chain-potential[{index}]")


def z_plane_wave(n: float, c1: float, c2: float, lambda2: float) -> ZSampler:
    """z = e^(c1 x + k c1^2 t) + c2 e^((lambda2 c1 - (k+1) c1^2) t)."""
    k = derived_constants(n).k

    def fn(x, t):
        with np.errstate(over="ignore"):  # an overflowed z is masked, not an error
            lead = np.exp(c1 * x + k * c1**2 * t)
            zv = lead + c2 * np.exp((lambda2 * c1 - (k + 1.0) * c1**2) * t)
        ok = np.isfinite(zv)
        return np.where(ok, zv, np.nan), np.where(ok, c1 * lead, np.nan)

    return ZSampler(fn=fn, label="plane-wave-potential")


def closed_forms(y):
    """Transcribed closed forms of the low chain elements, per unit 2x.

    Returns a dict name -> value, nan where masked: every form but 'hat2',
    which divides by no Jacobi function, is masked at the poles of sn and of
    cn alike.  'u3_printed'/'tilde3_printed' keep the transcribed inner
    constant (9/4) sqrt2, which the recurrence refutes; 'u3_corrected'
    carries the derived inner constant 1/2 that matches the chain exactly.
    """
    y = np.asarray(y, dtype=float)
    sn, cn, dn = jacobi_sn_cn_dn(y, MODULUS_INV_SQRT2)
    hat2 = -4.0 * sn * cn * dn / (cn**4 + 1.0)
    ok = _off_pole(sn) & _off_pole(cn)
    sn, cn = np.where(ok, sn, np.nan), np.where(ok, cn, np.nan)
    ds, dc, cs, sd, cd = dn / sn, dn / cn, cn / sn, sn / dn, cn / dn
    out = {"u1": cs / dn}
    out["u2"] = (cd - dc) / sn - cn * ds
    c_printed = 2.25 * SQRT2
    den_printed = dn * cs * (c_printed * cn**2 - ds**2)
    out["u3_printed"] = _pole_div(cs**4 - dn**4, den_printed)
    den_corr = dn * cs * (0.5 * cn**2 - ds**2)
    out["u3_corrected"] = _pole_div(cs**4 - dn**4, den_corr)
    out["tilde1"] = dn / cs
    num_t3 = 2.0 * dn * cs * (c_printed * cn**2 - ds**2)
    out["tilde3_printed"] = _pole_div(num_t3, cs**4 - dn**4)
    out["hat0"] = sd / 2.0
    out["hat2"] = hat2
    return out


def crosscheck_closed_forms(n_samples: int = 100) -> dict:
    """Compare |chain| against |transcribed closed forms| on common samples.

    Reports per form the max absolute deviation and the median ratio
    chain/closed; a non-unit or non-constant ratio exposes a transcription
    defect instead of hiding it.
    """
    rng = np.random.default_rng(12345)
    y = rng.uniform(0.25, 2.0 * CHAIN_K - 0.25, 4 * n_samples)
    forms = closed_forms(y)
    ladder = list(phi_chain(3).levels(y))
    chain_vals = {}
    for name, idx, kind in (
        ("u1", 1, "direct"),
        ("u2", 2, "direct"),
        ("u3_printed", 3, "direct"),
        ("u3_corrected", 3, "direct"),
        ("tilde1", 1, "inverse"),
        ("tilde3_printed", 3, "inverse"),
        ("hat0", 0, "focusing"),
        ("hat2", 2, "focusing"),
    ):
        chain_vals[name] = _chain_u(kind, _chain_factor(kind, idx) / 2.0, ladder[idx][0])

    report = {}
    for name, closed in forms.items():
        chain = chain_vals[name]
        ok = np.isfinite(closed) & np.isfinite(chain)
        ok = ok & (np.abs(closed) > 1e-6) & (np.abs(closed) < 1e6)
        sel = np.where(ok)[0][:n_samples]
        a = np.abs(chain[sel])
        b = np.abs(closed[sel])
        report[name] = {
            "n": int(sel.size),
            "max_abs_deviation": float(np.max(np.abs(a - b))) if sel.size else math.nan,
            "median_ratio": float(np.median(a / b)) if sel.size else math.nan,
            "ratio_spread": float(np.max(a / b) - np.min(a / b)) if sel.size else math.nan,
        }
    return report


@dataclass(frozen=True)
class FamilyInfo:
    """Registry entry: builder function, defaults for all its keywords, one-line description.

    defaults is a read-only copy of the mapping it is given."""

    builder: Callable = field(compare=False)
    defaults: Mapping = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))


# read-only, as its entries are: a write would change every later build_family
FAMILIES: Mapping[str, FamilyInfo] = MappingProxyType({
    "chain": FamilyInfo(
        builder=elliptic_solution,
        defaults={"kind": "direct", "index": 0, "sign": 1},
        description="cubic heat equation solutions 2x*psi(x^2+6t) from the elliptic chain",
    ),
    "chain-exp": FamilyInfo(
        builder=cosh_cos_solution,
        defaults={"sign": -1, "k1": 0.5, "k2": 0.0, "kind": "direct", "index": 0},
        description="cubic heat equation with linear term: chain solutions through cosh/cos substitution",
    ),
    "plane-wave": FamilyInfo(
        builder=plane_wave,
        defaults={"n": 2.0, "c1": -1.0, "c2": 1.0, "lambda2": 0.0},
        description="exponential fronts of the three-term power-law family",
    ),
    "solitary": FamilyInfo(
        builder=solitary_wave,
        defaults={"n": 2.0, "nu": -1.5, "sigma": 0.9, "branch": "tanh", "C": 0.0},
        description="tanh/coth/tan/rational traveling waves of the sqrt-coupled family",
    ),
    "fisher-front": FamilyInfo(
        builder=fisher_front,
        defaults={"form": "tanh", "complement": False, "c": 0.0, "reflect_y": False},
        description="hyperbolic Fisher fronts with velocity 5/sqrt6",
    ),
    "fisher-exp": FamilyInfo(
        builder=fisher_exponential,
        defaults={"c2": 1.0},
        description="exponential-form Fisher front",
    ),
    "fisher-weierstrass": FamilyInfo(
        builder=fisher_weierstrass,
        defaults={"C": 100.0, "k_shift": 0.0, "reflect_y": False},
        description="two-parameter Fisher family built on the Weierstrass P function",
    ),
    "generalized-fisher": FamilyInfo(
        builder=generalized_fisher,
        defaults={"c1": 2.0, "form": "tanh", "c": 0.0, "reflect_y": False},
        description="tunable-velocity Fisher generalization, speed |2c1-3|/sqrt6",
    ),
    "bell": FamilyInfo(
        builder=perturbed_fisher_bell,
        defaults={"epsilon": 0.3, "C": 0.0},
        description="solitary bell of the sqrt-perturbed Fisher equation",
    ),
    "quadratic-rational": FamilyInfo(
        builder=quadratic_rational,
        defaults={"sign": 1},
        description="rational solution of the quadratic-decay equation",
    ),
})


def family_info() -> dict:
    """JSON-ready registry summary, one entry per family."""
    out = {}
    for fid, info in FAMILIES.items():
        sampler = info.builder(**info.defaults)
        out[fid] = {
            "description": info.description,
            "defaults": dict(info.defaults),  # a JSON-ready copy of the read-only registry entry
            "equation": sampler.equation.describe(),
            "domain_note": sampler.domain_note,
            "predicted_velocity": sampler.predicted_velocity,
            "residual_clean": sampler.residual_clean,
            "suggested_window": sampler.suggested_window,
        }
    return out


def _json_type(value) -> str:
    """JSON type name of a parameter value; a bool is not a number."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, numbers.Real):
        return "number"
    if isinstance(value, str):
        return "string"
    return type(value).__name__


def build_family(family_id: str, params: dict | None = None) -> Sampler:
    """Instantiate a registry family, defaults merged under params (and x_shift, t_shift).

    A builder's EquationError, or an OverflowError of its scalar math, is
    raised as a CatalogError that names the given parameters.
    """
    if family_id not in FAMILIES:
        raise CatalogError(f"unknown family {family_id!r}; valid families: {sorted(FAMILIES)}")
    info = FAMILIES[family_id]
    defaults = {**info.defaults, "x_shift": 0.0, "t_shift": 0.0}
    merged = {**defaults, **(params or {})}
    unknown = merged.keys() - defaults.keys()
    if unknown:
        raise CatalogError(f"unknown parameter {', '.join(map(repr, sorted(unknown)))}; "
                           f"valid: {sorted(info.defaults)}, x_shift, t_shift")
    for key, value in merged.items():
        expected = _json_type(defaults[key])
        if _json_type(value) != expected:
            raise CatalogError(f"parameter {key!r} must be a {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise CatalogError(f"parameter {key!r} must be finite, got {value}")
    shift_x = merged.pop("x_shift")
    shift_t = merged.pop("t_shift")
    try:
        sampler = info.builder(**merged)
    except (EquationError, OverflowError) as exc:  # the equation's domain, scalar math range
        given = ", ".join(f"{k}={v!r}" for k, v in sorted((params or {}).items()))
        cause = "overflows in floating point" if isinstance(exc, OverflowError) else exc
        raise CatalogError(f"{given or 'the default parameters'} rejected: {cause}") from None
    if shift_x or shift_t:
        sampler = sampler.shifted(shift_x, shift_t)
    return sampler
