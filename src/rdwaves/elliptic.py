"""Jacobi elliptic functions and the Weierstrass P function, from scratch.

Jacobi sn/cn/dn are evaluated by the descending Gauss transformation with
an algebraic ascent (DLMF 22.7): after argument reduction modulo the real
period 4K, sin and cos at the smallest modulus are climbed back with
rational steps; K itself comes from the AGM.  Quotients of sn, cn, dn (ds,
cs, ...) are formed where they are used, by _pole_div.  _off_pole is the
package's one pole rule: a denominator within POLE_EPS of zero masks the
point.  nan is the mask: a masked point's value is nan, and no evaluator
returns a boolean mask beside its values.  _pole_div turns a masked
denominator into nan before it divides, so a nan denominator stays masked
too.  The Weierstrass function of the g2 = 0 lattices is the square of one
such quotient, P = e2 + H2 (cn/(sn dn))^2 (the half-angle form of
Abramowitz & Stegun 18.9.12), so it shares the Jacobi kernel and its pole
rule.  Everything accepts numpy arrays and is pure: safe to evaluate
concurrently over grids.
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
    "weierstrass_p",
    "weierstrass_real_half_period",
]

POLE_EPS = 1e-8  # a quotient/pole is declared undefined below this threshold


def _off_pole(den):
    """The one pole rule, |den| >= POLE_EPS: where a point may divide by den (never at nan)."""
    return np.abs(den) >= POLE_EPS


def _pole_div(num, den, power: int = 1):
    """num / den**power, nan where den is nan or fails _off_pole.

    The masked denominator is nan before the division, so no discarded point
    divides by zero, and an inf / inf, which numpy reports as invalid, is nan.
    """
    den = np.where(_off_pole(den), den, np.nan)
    with np.errstate(invalid="ignore"):
        return num / (den if power == 1 else den**power)


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
    return math.pi / (2.0 * _agm(m))


def _agm(m: EllipticModulus) -> float:
    """AGM(1, k'), stopped once the Landen coefficient c_n = (a_{n-1} - b_{n-1})/2
    falls to 1e-16 a_n, after at most 23 steps."""
    a, b, c, n = 1.0, m.k_comp, m.k, 1
    while c > 1e-16 * a and n < 24:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        n += 1
    return a


# sn = sin z - (k^2/4)(z - sin z cos z) cos z + O(k^4), and cn alike, while
# dn = 1 - (k^2/2) sin^2 z + O(k^4) (DLMF 22.10.4-22.10.6).  Once k^2 < 2^-53,
# the unit roundoff, the sn and cn corrections are below 2^-53 for |z| <= pi
# (there |z - sin z cos z| <= pi) and dn's below 2^-54, which rounds to 1:
# sin z, cos z and 1 are sn, cn and dn to the rounding of double precision
_GAUSS_BOTTOM = 2.0**-53


def _gauss_scheme(m: EllipticModulus) -> tuple[list[float], float]:
    """Descending Gauss moduli [k_1, ..., k_N] and prod(1 + k_n), 0 < k < 1.

    k_{n+1} = k_n^2 / (1 + k_n')^2 and k_{n+1}' = 2 sqrt(k_n') / (1 + k_n'):
    (1 - k')/(1 + k') says the same but cancels for small k.  The ladder
    stops at k_N^2 < _GAUSS_BOTTOM, after at most 23 steps.
    """
    k, kc = m.k, m.k_comp
    ladder: list[float] = []
    prod = 1.0
    while k * k >= _GAUSS_BOTTOM and len(ladder) < 23:
        k, kc = k * k / ((1.0 + kc) * (1.0 + kc)), 2.0 * math.sqrt(kc) / (1.0 + kc)
        ladder.append(k)
        prod *= 1.0 + k
    return ladder, prod


def jacobi_sn_cn_dn(y, m: EllipticModulus):
    """Vectorized (sn, cn, dn) at argument y and modulus m.

    The result is nan where |y| eps > POLE_EPS, at every modulus: there the
    rounding of y alone exceeds the pole threshold, so a reduction is noise.
    k = 0 and k = 1 use the exact circular/hyperbolic branches.  Otherwise y
    is reduced modulo the real period 4K, and the descending Gauss
    transformation (DLMF 22.7.1-22.7.3) is climbed back algebraically from
    sin and cos at the bottom modulus.  y is never written.
    """
    y = np.asarray(y, dtype=float)
    # a fresh array, so the work below is done in buffers the kernel owns
    z = np.where(np.abs(y) <= POLE_EPS / np.finfo(float).eps, y, np.nan)
    if m.k == 0.0:
        return np.sin(z), np.cos(z), np.where(np.isnan(z), np.nan, 1.0)[()]
    if m.k == 1.0:
        with np.errstate(over="ignore"):  # cosh overflows to inf, and 1/inf = 0 is sech
            sech = 1.0 / np.cosh(z)
        return np.tanh(z), sech, sech
    K = complete_elliptic_K(m)
    ladder, prod = _gauss_scheme(m)
    z = z.reshape(-1)
    # reduce to [-2K, 2K], that is |z| <= pi at the bottom modulus; s2 holds
    # the period multiple here and k sn^2 in the ascent
    period = 4.0 * K
    s2 = np.divide(z, period)
    np.round(s2, out=s2)
    s2 *= period
    z -= s2
    z /= prod
    sn, cn = np.sin(z), np.cos(z)
    # the ascent writes dn; without a step (k^2 < 2^-53) dn carries z's nan itself
    dn = np.ones_like(z) if ladder else np.where(np.isnan(z), np.nan, 1.0)
    d = z  # z is not read again
    # one step of DLMF 22.7.1-22.7.3 from modulus k_n to k_{n-1}; 22.7.3 is used
    # as dn = (1 - k s^2)/(1 + k s^2), since its printed form
    # (dn^2 - (1 - k))/((1 + k) - dn^2) cancels catastrophically
    for k in reversed(ladder):
        np.multiply(sn, sn, out=s2)
        s2 *= k
        np.add(s2, 1.0, out=d)
        sn *= 1.0 + k
        sn /= d
        cn *= dn
        cn /= d
        np.subtract(1.0, s2, out=dn)
        dn /= d
    # [()] makes a 0-d result a scalar, as a ufunc on a 0-d y would
    return tuple(a.reshape(y.shape)[()] for a in (sn, cn, dn))


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariants (g2, g3) of P; only the g2 = 0 lattices that the catalog
    uses are supported, the ones whose P is a square of Jacobi functions."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if self.g2 != 0.0:
            raise EllipticError(f"g2={self.g2}: only g2 = 0 lattices are supported")


def _weierstrass_jacobi(inv: WeierstrassInvariants) -> tuple[float, float, EllipticModulus]:
    """(e2, H2, k) of the half-angle form of P for g2 = 0 and g3 != 0.

    e2 = (g3/4)^(1/3) is the real root of 4 t^3 = g3, H2 = sqrt(3) |e2| and
    k^2 = 1/2 - 3 e2/(4 H2): sin^2 15 deg for g3 > 0, cos^2 15 deg for g3 < 0.
    """
    # the cube root before the division, so a subnormal g3/4 loses no bits
    e2 = math.copysign(abs(inv.g3) ** (1.0 / 3.0) / 4.0 ** (1.0 / 3.0), inv.g3)
    h2 = math.sqrt(3.0) * abs(e2)
    return e2, h2, EllipticModulus(math.sqrt(0.5 - 0.75 * e2 / h2))


def weierstrass_real_half_period(inv: WeierstrassInvariants) -> float:
    """Half the spacing of the real poles of P for the g2 = 0 lattices: K(k)/sqrt(H2).

    The real poles are the zeros of sn(z sqrt(H2)), spaced 2K apart in that
    argument (see _weierstrass_jacobi for H2 and k).
    """
    if inv.g3 == 0.0:
        raise EllipticError("closed-form real half-period needs g3 != 0")
    _, h2, m = _weierstrass_jacobi(inv)
    return complete_elliptic_K(m) / math.sqrt(h2)


def weierstrass_p(z, inv: WeierstrassInvariants):
    """Vectorized (P, P') on the real ray z > 0, both nan where masked.

    For g3 != 0, P is the half-angle form of Abramowitz & Stegun 18.9.12
    (DLMF 23.6): P = e2 + H2 B^2 with B = cn/(sn dn) at v = z sqrt(H2), and
    P' = 2 H2 sqrt(H2) B B' with B' = k^2 cn^2/dn^2 - 1/sn^2.  The poles are
    the zeros of sn dn, masked by _pole_div; non-positive and non-finite z
    and arguments too large for jacobi_sn_cn_dn's reduction are masked too.
    """
    z = np.asarray(z, dtype=float)
    z = np.where(np.isfinite(z) & (z > 0.0), z, np.nan)
    if inv.g3 == 0.0:  # the degenerate lattice: P collapses to 1/z^2
        return _pole_div(1.0, z, 2), _pole_div(-2.0, z, 3)

    e2, h2, m = _weierstrass_jacobi(inv)
    rt = math.sqrt(h2)
    with np.errstate(over="ignore"):  # an infinite argument comes back nan
        v = z * rt
    sn, cn, dn = jacobi_sn_cn_dn(v, m)
    q = _pole_div(1.0, sn * dn)
    b = cn * q
    db = (m.k2 * (sn * cn) ** 2 - dn * dn) * (q * q)  # k^2 cn^2/dn^2 - 1/sn^2
    return e2 + h2 * b * b, (2.0 * h2 * rt) * b * db
