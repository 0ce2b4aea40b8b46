"""Registry of reaction-diffusion right-hand sides f(u) for u_t - u_xx = f(u).

One EquationSpec variant per family: the Fisher equation, the generic KPP
class, cubic polynomial reactions, the power-law equation and its extension
with four tunable coupling terms, the square-root-coupled family behind the
solitary waves, the perturbed and generalized Fisher equations, and pure
quadratic decay.  Everything is immutable and numpy-vectorized; fractional
powers of non-positive bases are mapped to nan rather than returning complex
values, and the scalar rhs_eval turns such a nan into an EquationError.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "EquationError",
    "EquationSpec",
    "STENCILS",
    "stencil_kernel",
    "central_difference",
    "Fisher",
    "KPPGeneric",
    "CubicPolynomial",
    "PowerLaw",
    "GeneralFamily",
    "SigmaFamily",
    "PerturbedFisher",
    "GeneralizedFisher",
    "QuadraticDecay",
    "DerivedConstants",
    "derived_constants",
    "rhs_eval",
    "kpp_check",
    "KPPReport",
    "build_eq47",
    "Eq47Build",
    "spec_to_json",
    "spec_from_json",
]

_INT_TOL = 1e-12


class EquationError(ValueError):
    """Invalid parameters or out-of-domain evaluation for an EquationSpec."""


def _frac_pow(u, p: float):
    """u**p with integer fast path; fractional power of u < 0 yields nan.  Only
    a negative power can divide by zero (at u = 0), so only it enters np.errstate.
    A half power of a field with no negative or nan entry is one np.sqrt, which
    equals np.power(., 0.5) bit for bit; np.maximum still turns -0.0 into 0.0.

    An integer power is mirrored: |u|**|p|, given u's sign for odd p, and
    inverted last for p < 0.  numpy's vector pow loop takes non-negative bases
    only; one negative entry sends np.power(u, p) element by element, 15 to 30
    times slower, to a scalar pow whose last bit may differ from the mirrored
    value (both within 1 ULP of the exact power).  The mirror keeps every field
    on the vector loop and makes odd powers exactly odd, (-u)**p == -(u**p), so
    an odd equation's rhs(-u) is -rhs(u) bit for bit.  Non-negative bases,
    |p| <= 2 (squares are products) and nan keep np.power's bits; -0.0 keeps
    its sign through copysign.  All three steps write one buffer, so the
    power allocates one array, as np.power(u, p) does."""
    if p == 0.5 and u.size and u.min() >= 0.0:
        return np.sqrt(np.maximum(u, 0.0))
    ip = int(round(p))
    with np.errstate(divide="ignore") if p < 0 else contextlib.nullcontext():
        if abs(p - ip) < _INT_TOL:
            out = np.abs(u, out=np.empty(np.shape(u)))  # an array even for 0-d u
            np.power(out, abs(ip), out=out)
            if ip % 2:
                np.copysign(out, u, out=out)
            return out if ip >= 0 else np.divide(1.0, out, out=out)
        return np.where(u > 0.0 if p < 0 else u >= 0.0, np.power(np.maximum(u, 0.0), p), np.nan)


# (derivative, order) -> (integer weights at offsets -r..r, denominator, power
# of h): the derivative is sum_j w_j a[i + j] / (denominator h^power)
STENCILS: Mapping[tuple[int, int], tuple[tuple[int, ...], int, int]] = MappingProxyType({
    (1, 2): ((-1, 0, 1), 2, 1),
    (1, 4): ((1, -8, 0, 8, -1), 12, 1),
    (2, 2): ((1, -2, 1), 1, 2),
    (2, 4): ((-1, 16, -30, 16, -1), 12, 2),
    (3, 4): ((1, -8, 13, 0, -13, 8, -1), 8, 3),
})
# the weights as np.correlate's float kernel, for the stencils without a zero weight
_KERNELS = MappingProxyType({key: np.array(weights, dtype=float)
                             for key, (weights, _, _) in STENCILS.items() if all(weights)})
for _kernel in _KERNELS.values():
    _kernel.flags.writeable = False  # stencil_kernel hands every caller this array
del _kernel


def stencil_kernel(derivative: int, order: int, h: float) -> tuple[np.ndarray | None, float]:
    """(kernel, scale) of the central stencil of STENCILS for a derivative at
    an order and grid step h: np.correlate(a, kernel, "valid") / scale is the
    derivative of a 1-D a, bit for bit as central_difference returns it.
    scale is denominator * h**power; kernel is None for a stencil with a zero
    weight, which only the weighted-slice sum of central_difference evaluates.
    A caller that differentiates many fields on one grid binds both once.
    """
    entry = STENCILS.get((derivative, order))
    if entry is None:
        raise ValueError(f"no central stencil for derivative {derivative} at order {order}")
    _, den, power = entry
    try:
        scale = den * h**power
    except OverflowError:  # a Python float power raises where numpy would warn
        raise ValueError(f"grid step {h:g} overflows when raised to the power {power}") from None
    return _KERNELS.get((derivative, order)), scale


def central_difference(a, h: float, derivative: int, order: int) -> np.ndarray:
    """Central-difference derivative of a along axis 0 at grid spacing h.

    Derivatives 1 and 2 at orders 2 and 4, and derivative 3 at order 4, with
    the weights of STENCILS (Fornberg, Math. Comp. 51 (1988) 699-706).  The
    result loses the stencil radius r at each end of axis 0; transpose a to
    difference along another axis.  A 1-D a at least as long as the stencil,
    with no zero weight, is one np.correlate call with stencil_kernel's
    kernel, whose sum may round differently in the last bits.  Any other a
    sums the weighted slices a[r + j : n - r + j] in ascending offset j,
    skipping zero weights, so an inf or nan under a zero weight stays out of
    the result.  Either way the sum is divided by stencil_kernel's scale,
    denominator * h**power, last.
    """
    kernel, scale = stencil_kernel(derivative, order, h)
    a = np.asarray(a, dtype=float)
    if a.ndim == 1 and kernel is not None and len(a) >= len(kernel):
        out = np.correlate(a, kernel, "valid")
    else:
        weights = STENCILS[derivative, order][0]
        width = len(weights)
        terms = [(float(w), a[j:j + 1 - width or None]) for j, w in enumerate(weights) if w]
        (w0, s0), *rest = terms
        out = w0 * s0
        for w, s in rest:  # a unit weight adds or subtracts its slice unscaled
            if w == 1:
                out += s
            elif w == -1:
                out -= s
            else:
                out += w * s
    out /= scale
    return out


@dataclass(frozen=True)
class DerivedConstants:
    """k = 2/(n-1) and lambda = 2(n+1)/(n-1)^2 for the power-law families."""

    k: float
    lam: float


def derived_constants(n: float) -> DerivedConstants:
    if n == 1:
        raise EquationError("n = 1 is excluded: k = 2/(n-1) undefined")
    return DerivedConstants(k=2.0 / (n - 1.0), lam=2.0 * (n + 1.0) / (n - 1.0) ** 2)


@dataclass(frozen=True)
class EquationSpec:
    """Base type; subclasses define rhs(u) with the u_t - u_xx = f(u) sign."""

    @property
    def variant(self) -> str:
        return type(self).__name__

    def rhs(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def params(self) -> dict:
        """Field values by name, leaving out callables (KPPGeneric's f)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: val for name, val in values.items() if not callable(val)}

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.variant}({ps})"


@dataclass(frozen=True)
class Fisher(EquationSpec):
    """f(u) = u(1 - u)."""

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        return u * (1.0 - u)


@dataclass(frozen=True)
class KPPGeneric(EquationSpec):
    """f supplied by the caller; serialization is not supported."""

    f: Callable = field(compare=False)
    label: str = "custom"

    def rhs(self, u):
        return np.asarray(self.f(np.asarray(u, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CubicPolynomial(EquationSpec):
    """f(u) = alpha (u^3 + b u^2 + c u), alpha = +-1."""

    alpha: int
    b: float
    c: float

    def __post_init__(self):
        if self.alpha not in (-1, 1):
            raise EquationError("alpha must be +1 or -1")

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * (u**3 + self.b * u**2 + self.c * u)


@dataclass(frozen=True)
class PowerLaw(EquationSpec):
    """f(u) = -lambda u^n with lambda = 2(n+1)/(n-1)^2."""

    n: float

    def __post_init__(self):
        derived_constants(self.n)

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        return -derived_constants(self.n).lam * _frac_pow(u, self.n)


@dataclass(frozen=True)
class GeneralFamily(EquationSpec):
    """f(u) = k(-(k+1)u^n + l1 u + l2 u^((n+1)/2) + l3 u^((3-n)/2) + l4 u^(2-n)).

    halfpower_sign flips the two half-integer-power couplings; it records the
    branch actually solved when the underlying logarithmic-derivative base is
    negative (possible with integer k only).
    """

    n: float
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    lambda4: float = 0.0
    halfpower_sign: int = 1

    def __post_init__(self):
        derived_constants(self.n)
        if self.halfpower_sign not in (-1, 1):
            raise EquationError("halfpower_sign must be +1 or -1")

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        n = self.n
        k = derived_constants(n).k
        s = float(self.halfpower_sign)
        total = self.lambda1 * u
        if k + 1.0 != 0.0:  # skip 0 * u^n, which would poison u = 0 for n < 0
            total = total - (k + 1.0) * _frac_pow(u, n)
        if self.lambda2 != 0.0:
            total = total + self.lambda2 * s * _frac_pow(u, (n + 1.0) / 2.0)
        if self.lambda3 != 0.0:
            total = total + self.lambda3 * s * _frac_pow(u, (3.0 - n) / 2.0)
        if self.lambda4 != 0.0:
            total = total + self.lambda4 * _frac_pow(u, 2.0 - n)
        return k * total


@dataclass(frozen=True)
class SigmaFamily(EquationSpec):
    """f(u) = (1 + nu u^(1-n)) (-(n+1)u^n + nu(n-3)u + sigma u^((n+1)/2))."""

    n: float
    nu: float
    sigma: float

    def __post_init__(self):
        derived_constants(self.n)

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        n = self.n
        factor = 1.0 + self.nu * _frac_pow(u, 1.0 - n)
        inner = (
            -(n + 1.0) * _frac_pow(u, n)
            + self.nu * (n - 3.0) * u
            + self.sigma * _frac_pow(u, (n + 1.0) / 2.0)
        )
        return factor * inner


@dataclass(frozen=True)
class PerturbedFisher(EquationSpec):
    """f(u) = u(u - 1 + eps sqrt(3/2 - u)), defined for u <= 3/2.

    The square-root coupling makes the equation branch-sensitive: the bell
    profile solves it on the half-plane where the wave's internal sign agrees
    with the principal root (see the catalog's domain notes).
    """

    epsilon: float

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        root = np.sqrt(np.where(u <= 1.5, 1.5 - u, np.nan))
        return u * (u - 1.0 + self.epsilon * root)


@dataclass(frozen=True)
class GeneralizedFisher(EquationSpec):
    """f(u) = u(-c1 + (c1+1) sqrt(u) - u); reduces to Fisher at c1 = -1."""

    c1: float
    halfpower_sign: int = 1

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        total = -self.c1 - u
        if self.c1 + 1.0 != 0.0:
            total = total + (self.c1 + 1.0) * self.halfpower_sign * _frac_pow(u, 0.5)
        return u * total


@dataclass(frozen=True)
class QuadraticDecay(EquationSpec):
    """f(u) = -u^2."""

    def rhs(self, u):
        u = np.asarray(u, dtype=float)
        return -u * u


def rhs_eval(spec: EquationSpec, u: float) -> float:
    """Scalar f(u); raises EquationError where f(u) is nan for a non-nan u,
    which every out-of-domain term yields: nan survives each coefficient."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the nan is named below
        val = float(spec.rhs(float(u)))
    if math.isnan(val) and not math.isnan(u):
        raise EquationError(f"{spec.describe()} undefined at u={u}: fractional power of a "
                            "non-positive base or argument outside the domain")
    return val


@dataclass(frozen=True)
class KPPReport:
    """Numerical check of f(0) = 0, f(1) = 0, f'(0) = alpha > 0, f'(u) < alpha."""

    f0: float
    f1: float
    fprime0: float
    f0_zero: bool
    f1_zero: bool
    fprime0_positive: bool
    interior_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.f0_zero and self.f1_zero and self.fprime0_positive and self.interior_bound_ok


def kpp_check(spec: EquationSpec) -> KPPReport:
    """Check the front-supporting conditions on [0, 1] numerically.

    f(0) and f(1) count as zero below 1e-9; f'(0) uses a one-sided
    second-order difference (h = 1e-6) since several families are undefined
    for u < 0, and the bound on f' is checked at 199 interior points.
    """
    h = 1e-6

    def f(u):
        try:
            return rhs_eval(spec, u)
        except EquationError:
            return math.nan

    f0, f1 = f(0.0), f(1.0)
    fprime0 = (-3.0 * f(0.0) + 4.0 * f(h) - f(2.0 * h)) / (2.0 * h)
    us = np.linspace(0.0, 1.0, 201)[1:-1]
    fu = spec.rhs(us)
    dfu = np.gradient(fu, us)
    interior_ok = bool(np.all(np.isfinite(dfu)) and np.all(dfu < fprime0 + 1e-6))
    return KPPReport(
        f0=f0,
        f1=f1,
        fprime0=fprime0,
        f0_zero=abs(f0) < 1e-9,
        f1_zero=abs(f1) < 1e-9,
        fprime0_positive=fprime0 > 0.0,
        interior_bound_ok=interior_ok,
    )


@dataclass(frozen=True)
class Eq47Build:
    """Three-term family built from (n, c1, lambda2), plus front metadata."""

    spec: GeneralFamily
    c1: float
    kpp_condition_holds: bool
    velocity: float | None  # k + 1 - k c1, defined when the condition holds


def build_eq47(n: float, c1: float, lambda2: float) -> Eq47Build:
    """Equation with rhs -k(k+1)u^n + l2 k u^((n+1)/2) + ((k+1)c1^2 - l2 c1)k u.

    The constant state u = c1^k solves it identically.  When the plane-wave
    front condition lambda2 = (k+1)(c1+1) holds, the front travels with
    velocity k + 1 - k c1.  For c1 < 0 with even integer k the half-power
    term of the exact solution lives on the negative branch; the returned
    spec records that via halfpower_sign.
    """
    dc = derived_constants(n)
    k = dc.k
    half_sign = 1
    if c1 < 0.0:
        k_int = abs(k - round(k)) < _INT_TOL
        if k_int and int(round(k)) % 2 == 0:
            half_sign = -1
    spec = GeneralFamily(
        n=n,
        lambda1=(k + 1.0) * c1**2 - lambda2 * c1,
        lambda2=lambda2,
        halfpower_sign=half_sign,
    )
    holds = abs(lambda2 - (k + 1.0) * (c1 + 1.0)) < 1e-12
    return Eq47Build(
        spec=spec,
        c1=c1,
        kpp_condition_holds=holds,
        velocity=(k + 1.0 - k * c1) if holds else None,
    )


def spec_to_json(spec: EquationSpec) -> dict:
    """JSON form {variant, params}; KPPGeneric carries a label only."""
    return {"variant": spec.variant, "params": spec.params()}


def spec_from_json(obj: dict) -> EquationSpec:
    """Inverse of spec_to_json over the EquationSpec subclasses, KPPGeneric excepted."""
    variant = obj.get("variant")
    if variant == "KPPGeneric":
        raise EquationError("KPPGeneric carries a Python callable and cannot be deserialized")
    variants = {cls.__name__: cls for cls in EquationSpec.__subclasses__() if cls is not KPPGeneric}
    if variant not in variants:
        raise EquationError(f"unknown equation variant {variant!r}; valid: {sorted(variants)}")
    return variants[variant](**obj.get("params", {}))
