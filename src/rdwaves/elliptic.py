"""Jacobi elliptic functions and the Weierstrass P function, from scratch.

Jacobi sn/cn/dn are evaluated by the descending Landen (AGM) transformation
with argument reduction modulo the real period 4K.  The twelve quotient
functions (ds, cs, sd, ...) are formed from the base triple by _pole_div, the
package's one pole rule: a denominator within POLE_EPS of zero masks the point.
The Weierstrass function is evaluated from its Laurent series (terms through
z^10) followed by repeated application of the duplication formula, propagating
the (P, P') pair so no square-root sign choices are needed.  Everything accepts
numpy arrays and is pure: safe to evaluate concurrently over grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipticError",
    "UnboundedPeriodError",
    "EllipticModulus",
    "WeierstrassInvariants",
    "MODULUS_INV_SQRT2",
    "POLE_EPS",
    "complete_elliptic_K",
    "jacobi_sn_cn_dn",
    "jacobi_quotient",
    "QUOTIENT_NAMES",
    "weierstrass_p",
    "weierstrass_real_half_period",
]

POLE_EPS = 1e-8  # a quotient/pole is declared undefined below this threshold

# Real half-period of P(z; g2=0, g3=1): Gamma(1/3)^3 / (4 pi).
_OMEGA_G3_UNIT = 1.5299540370571927


def _pole_div(num, den, power: int = 1, ok=True):
    """The one pole rule: (num / den**power, defined), defined = ok & (|den| >= POLE_EPS).

    The value is nan where not defined.  Masked denominators are replaced by 1
    first, so neither the division nor the power warns about discarded points.
    """
    defined = ok & (np.abs(den) >= POLE_EPS)
    safe = np.where(defined, den, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(defined, num / (safe if power == 1 else safe**power), np.nan), defined


class EllipticError(ValueError):
    """Domain violation in an elliptic-function evaluation."""


class UnboundedPeriodError(EllipticError):
    """K(k) requested at k = 1 where the period diverges."""


@dataclass(frozen=True)
class EllipticModulus:
    """Real modulus k of the Jacobi functions, 0 <= k <= 1."""

    k: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.k <= 1.0):
            raise EllipticError(f"modulus k={self.k} outside [0, 1]")

    @property
    def k2(self) -> float:
        return self.k * self.k

    @property
    def k_comp(self) -> float:
        """Complementary modulus k' = sqrt(1 - k^2)."""
        return math.sqrt(max(0.0, 1.0 - self.k * self.k))


MODULUS_INV_SQRT2 = EllipticModulus(1.0 / math.sqrt(2.0))


def complete_elliptic_K(m: EllipticModulus) -> float:
    """Complete elliptic integral of the first kind K(k) = pi / (2 AGM(1, k')).

    Raises UnboundedPeriodError at k = 1; strictly increasing on [0, 1).
    """
    if m.k == 1.0:
        raise UnboundedPeriodError("K(k) diverges as k -> 1")
    return math.pi / (2.0 * _agm_scheme(m)[0][-1])


def _agm_scheme(m: EllipticModulus) -> tuple[list[float], list[float]]:
    """Descending Landen coefficient ladders (a_n, c_n) down to c_N ~ 0."""
    a = [1.0]
    b = m.k_comp
    c = [m.k]
    while c[-1] > 1e-16 * a[-1] and len(a) < 24:
        a_next = 0.5 * (a[-1] + b)
        b_next = math.sqrt(a[-1] * b)
        c.append(0.5 * (a[-1] - b))
        a.append(a_next)
        b = b_next
    return a, c


def jacobi_sn_cn_dn(y, m: EllipticModulus):
    """Vectorized (sn, cn, dn) at argument y and modulus m.

    k = 0 and k = 1 use the exact circular/hyperbolic branches; otherwise the
    amplitude is recovered by the backward Landen recursion after reducing y
    modulo the real period 4K, and is nan where |y| eps > POLE_EPS: there the
    rounding of y alone exceeds the pole threshold, so the reduction is noise.
    """
    y = np.asarray(y, dtype=float)
    if m.k == 0.0:
        return np.sin(y), np.cos(y), np.ones_like(y)
    if m.k == 1.0:
        sech = 1.0 / np.cosh(y)
        return np.tanh(y), sech, sech
    a, c = _agm_scheme(m)
    K = complete_elliptic_K(m)
    y = np.where(np.abs(y) <= POLE_EPS / np.finfo(float).eps, y, np.nan)
    # reduce to [-2K, 2K]; the backward recursion then stays well conditioned
    y_red = y - 4.0 * K * np.round(y / (4.0 * K))
    n_last = len(a) - 1
    phi = (2.0**n_last) * a[n_last] * y_red
    for n in range(n_last, 0, -1):
        ratio = c[n] / a[n]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn = cos(phi_1 - phi_0) * ... is ill-conditioned near cn = 0; the
    # complementary identity is uniformly stable and keeps dn in [k', 1]
    dn = np.sqrt(1.0 - m.k2 * sn * sn)
    return sn, cn, dn


# quotient name -> (numerator, denominator) drawn from {'sn','cn','dn','1'}
QUOTIENT_NAMES = {
    "sn": ("sn", "1"),
    "cn": ("cn", "1"),
    "dn": ("dn", "1"),
    "ns": ("1", "sn"),
    "nc": ("1", "cn"),
    "nd": ("1", "dn"),
    "sc": ("sn", "cn"),
    "cs": ("cn", "sn"),
    "sd": ("sn", "dn"),
    "ds": ("dn", "sn"),
    "cd": ("cn", "dn"),
    "dc": ("dn", "cn"),
}


def jacobi_quotient(name: str, y, m: EllipticModulus):
    """Named Jacobi quotient (e.g. ds = dn/sn) with pole masking.

    Returns (value, defined); value is nan wherever |denominator| < POLE_EPS.
    """
    if name not in QUOTIENT_NAMES:
        raise EllipticError(f"unknown quotient {name!r}; valid: {sorted(QUOTIENT_NAMES)}")
    sn, cn, dn = jacobi_sn_cn_dn(y, m)
    parts = {"sn": sn, "cn": cn, "dn": dn, "1": np.ones_like(sn)}
    num_name, den_name = QUOTIENT_NAMES[name]
    return _pole_div(parts[num_name], parts[den_name])


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariants (g2, g3) of P; only the g2 = 0 lattices that the catalog
    uses are supported, the ones P's period reduction and pole masking cover."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if self.g2 != 0.0:
            raise EllipticError(f"g2={self.g2}: only g2 = 0 lattices are supported")


def weierstrass_real_half_period(inv: WeierstrassInvariants) -> float:
    """Half the spacing of the real poles of P for the g2 = 0 lattices.

    g3 > 0 gives omega = Gamma(1/3)^3/(4 pi) * g3^(-1/6); for g3 < 0 the real
    pole spacing picks up an extra factor sqrt(3).
    """
    if inv.g3 == 0.0:
        raise EllipticError("closed-form real half-period needs g3 != 0")
    base = _OMEGA_G3_UNIT * abs(inv.g3) ** (-1.0 / 6.0)
    return base if inv.g3 > 0 else math.sqrt(3.0) * base


def _laurent_coeffs(inv: WeierstrassInvariants) -> tuple[float, ...]:
    """Laurent coefficients c2..c9 of P = 1/z^2 + sum c_m z^(2m-2).

    c2 = g2/20, c3 = g3/28, then c_m = 3 sum_{i} c_i c_{m-i} / ((2m+1)(m-3)).
    """
    c = [0.0, 0.0, inv.g2 / 20.0, inv.g3 / 28.0]
    for m_idx in range(4, 10):
        s = sum(c[i] * c[m_idx - i] for i in range(2, m_idx - 1))
        c.append(3.0 * s / ((2 * m_idx + 1) * (m_idx - 3)))
    return tuple(c[2:])


def _laurent_pair(z, inv: WeierstrassInvariants):
    coeffs = _laurent_coeffs(inv)
    z2 = z * z
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for m_idx, cm in zip(range(9, 1, -1), coeffs[::-1]):
        p = z2 * (p + cm)
        dp = z2 * (dp + (2 * m_idx - 2) * cm)
    p = 1.0 / z2 + p
    dp = -2.0 / (z2 * z) + dp / z
    return p, dp


def _duplicate_pair(p, dp, inv: WeierstrassInvariants):
    """(P, P') at 2z from the pair at z; no square roots involved."""
    ppp = 6.0 * p * p - 0.5 * inv.g2  # P''
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2 = ppp * ppp / (4.0 * dp * dp) - 2.0 * p
        dp2 = 3.0 * p * ppp / dp - ppp**3 / (4.0 * dp**3) - dp
    return p2, dp2


def weierstrass_p(z, inv: WeierstrassInvariants):
    """Vectorized (P, P', defined) on the real ray z > 0.

    The argument is first reduced modulo the real period and reflected into
    (0, omega], so accuracy is uniform in z; the pair is then seeded from
    the Laurent series and pushed out by the duplication formula.
    Points within POLE_EPS of a real pole (and non-positive z) are masked.
    """
    z = np.asarray(z, dtype=float)
    defined = np.isfinite(z) & (z > 0.0)
    if inv.g3 == 0.0:  # the degenerate lattice: P collapses to 1/z^2
        p, defined = _pole_div(1.0, z, 2, ok=defined)
        return p, _pole_div(-2.0, z, 3, ok=defined)[0], defined

    omega = weierstrass_real_half_period(inv)
    period = 2.0 * omega
    z_red = np.mod(z, period)
    pole_dist = np.minimum(z_red, period - z_red)
    defined = defined & (pole_dist >= POLE_EPS)
    # reflect into (0, omega]: P is even about omega, P' odd
    reflect = z_red > omega
    z_eff = np.where(reflect, period - z_red, z_red)
    sign = np.where(reflect, -1.0, 1.0)
    z_eff = np.where(defined, z_eff, 0.1 * omega)
    # fixed two duplications: every seed z0 = z_eff/4 <= omega/4 sits well
    # inside the series radius, and the branch-free path keeps the
    # amplification of rounding error to a minimum
    p, dp = _laurent_pair(z_eff / 4.0, inv)
    for _ in range(2):
        p, dp = _duplicate_pair(p, dp, inv)
    dp = sign * dp
    defined = defined & np.isfinite(p) & np.isfinite(dp)
    p = np.where(defined, p, np.nan)
    dp = np.where(defined, dp, np.nan)
    return p, dp, defined
