"""Direct integration of the reaction-diffusion equations (method of lines).

Space is discretized with 2nd- or 4th-order central stencils.  Time is
marched ceil(interval / dt_max) steps to each checkpoint, the last ending on
it (SimConfig.interval_steps), by one of two explicit methods, SimConfig.method:

- "rk4", the default: the classic four-stage Runge-Kutta scheme under the
  diffusive step restriction dt <= safety * h^2 / 2.  `rdwaves simulate`
  and every caller that checks checkpoint fields use it.
- "rkc": the damped second-order Runge-Kutta-Chebyshev scheme (RKC2) of
  Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88 (1998) 315-326,
  with RKC_STAGES stages, whose real stability interval [-beta, 0] grows as
  s^2: dt <= safety * beta / rho, rho the stencil's spectral radius.  At 8
  stages and 4th order that step is 15.4 times RK4's, at twice the f(u)
  calls a step.  The step stays proportional to h^2, so the time error
  falls as h^4 with the stencil's.  `rdwaves velocity`, which judges only
  the front speed, uses it.

Boundary values are pinned to the exact sampler at every stage time, which
removes boundary-induced error when checking that exact profiles translate
as predicted.  The integrator owns its stage buffers and forms each stage
and the update in place.  It binds the second-derivative stencil once per
march (equations.stencil_kernel: the np.correlate kernel and the divisor
denominator * h^power), so a stage's only fresh arrays are f(u), copied
into a buffer, and the Laplacian, one np.correlate call divided in place by
that divisor and added into it: equations.central_difference's 1-D result,
bit for bit, without its per-call lookups.  Front speed has one estimator:
each checkpoint is registered against the initial profile by a Gauss-Newton
shift, warm-started from the previous checkpoint's, on the profile's
gradient taken once, and a line through the shifts gives the speed.  The
level-crossing fit, front_velocity, stays as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Sampler
from .equations import STENCILS, EquationSpec, stencil_kernel

__all__ = [
    "SimulationError",
    "InstabilityError",
    "AmbiguousFrontError",
    "SimConfig",
    "SimHistory",
    "SimReport",
    "integrate",
    "front_velocity",
    "register_shift",
    "registration_velocity",
    "compare_exact",
]


# steps whose boundary values one sampler call provides; bounds the schedule's memory
BLOCK_STEPS = 256
# stages of one Runge-Kutta-Chebyshev step, and the damping of its stability polynomial
RKC_STAGES = 8
RKC_DAMPING = 2.0 / 13.0
METHODS = ("rk4", "rkc")
# the cap on the Gauss-Newton steps of one shift registration; 4 to 10 converge
REGISTRATION_ITERATIONS = 50


class SimulationError(RuntimeError):
    pass


class InstabilityError(SimulationError):
    """Non-finite field encountered during time stepping."""


class AmbiguousFrontError(SimulationError):
    """The front has no well-defined position: a tracked level not crossed
    exactly once per profile, or a registration shift that leaves a quarter
    of the window, meets a flat reference or does not converge."""


@dataclass(frozen=True)
class RKCScheme:
    """Coefficients of the s-stage RKC2 step, indexed by stage j = 0..s.

    With Y_0 = u, F_j = F(t + c_j dt, Y_j) and tau = dt:
    Y_1 = Y_0 + mu_t[1] tau F_0, and for j >= 2
    Y_j = (1 - mu_j - nu_j) Y_0 + mu_j Y_{j-1} + nu_j Y_{j-2}
          + mu_t[j] tau F_{j-1} + gamma_t[j] tau F_0;
    Y_s is the next u.  beta is the length of the real stability interval.
    """

    mu: tuple[float, ...]
    nu: tuple[float, ...]
    mu_t: tuple[float, ...]
    gamma_t: tuple[float, ...]
    c: tuple[float, ...]
    beta: float


def _rkc_scheme(s: int, damping: float) -> RKCScheme:
    """RKC2 coefficients from the Chebyshev polynomials T_j at w0 = 1 + damping/s^2.

    T_j, T_j' and T_j'' come from their three-term recurrences;
    w1 = T_s'/T_s'', b_j = T_j''/T_j'^2 (b_0 = b_1 = b_2) and a_j = 1 - b_j T_j
    (Sommeijer, Shampine & Verwer 1998, section 2).
    """
    w0 = 1.0 + damping / s**2
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for _ in range(2, s + 1):
        ddT.append(4.0 * dT[-1] + 2.0 * w0 * ddT[-1] - ddT[-2])
        dT.append(2.0 * T[-1] + 2.0 * w0 * dT[-1] - dT[-2])
        T.append(2.0 * w0 * T[-1] - T[-2])
    w1 = dT[s] / ddT[s]
    b = [ddT[j] / dT[j] ** 2 if j >= 2 else ddT[2] / dT[2] ** 2 for j in range(s + 1)]
    a = [1.0 - b[j] * T[j] for j in range(s + 1)]
    mu, nu, mu_t, gamma_t = ([0.0] * (s + 1) for _ in range(4))
    mu_t[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = 2.0 * b[j] * w0 / b[j - 1]
        nu[j] = -b[j] / b[j - 2]
        mu_t[j] = 2.0 * b[j] * w1 / b[j - 1]
        gamma_t[j] = -a[j - 1] * mu_t[j]
    # c_j = w1 T_j''/T_j' for 2 <= j < s, c_1 = c_2/T_2', and c_s = 1 exactly
    c = [0.0, 0.0] + [w1 * ddT[j] / dT[j] for j in range(2, s)] + [1.0]
    c[1] = c[2] / dT[2]
    return RKCScheme(tuple(mu), tuple(nu), tuple(mu_t), tuple(gamma_t), tuple(c),
                     (w0 + 1.0) / w1)


RKC = _rkc_scheme(RKC_STAGES, RKC_DAMPING)


@dataclass(frozen=True)
class SimConfig:
    """Spatial window, time window, CFL safety factor, checkpoints and time-stepping method."""

    x_min: float
    x_max: float
    n_x: int
    t0: float
    t1: float
    safety: float = 0.9
    space_order: int = 4
    n_checkpoints: int = 9
    method: str = "rk4"

    def __post_init__(self):
        if self.method not in METHODS:
            raise SimulationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.safety <= 1.0:
            raise SimulationError("safety factor must be in (0, 1]")
        if self.space_order not in (2, 4):
            raise SimulationError("space_order must be 2 or 4")
        if self.n_x < 16:
            raise SimulationError("need at least 16 spatial points")
        if not self.x_max > self.x_min:
            raise SimulationError(f"empty spatial window [{self.x_min:g}, {self.x_max:g}]")
        if not 0.0 < self.h * self.h < math.inf:  # the step bound scales with h^2
            raise SimulationError(f"grid step {self.h:.3e} leaves the floating-point range "
                                  "when squared")
        if self.t1 < self.t0:
            raise SimulationError("t1 must be >= t0")
        if self.n_checkpoints < 2:
            raise SimulationError(f"need at least 2 checkpoints, got {self.n_checkpoints}")
        span = max(abs(self.t0), abs(self.t1))
        if self.t1 > self.t0 and span + self.dt_max == span:
            raise SimulationError(
                f"a time step of {self.dt_max:.3e} does not advance t={span:g} in floating "
                "point; move the time window nearer 0 or coarsen the grid")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt_max(self) -> float:
        """RK4: safety h^2/2.  RKC: safety beta/rho, where rho, the spectral radius
        of the second-derivative stencil, is the sum of its absolute weights over
        denominator h^2 (the symbol's modulus peaks at the grid's Nyquist
        wavenumber): 4/h^2 at order 2, 16/(3 h^2) at order 4.  Under both, the
        reaction's own Jacobian is left to the safety factor."""
        if self.method == "rk4":
            return self.safety * self.h**2 / 2.0
        weights, denominator, power = STENCILS[(2, self.space_order)]
        rho = sum(map(abs, weights)) / (denominator * self.h**power)
        return self.safety * RKC.beta / rho

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def checkpoints(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_checkpoints)

    @property
    def interval_steps(self) -> np.ndarray:  # floats: a count past 2^63 cannot wrap
        return np.ceil(np.diff(self.checkpoints) / self.dt_max)


@dataclass(frozen=True)
class SimHistory:
    """Checkpoint fields u(x, t_k) of one integration."""

    x: np.ndarray = field(compare=False)
    times: np.ndarray = field(compare=False)
    fields: np.ndarray = field(compare=False)  # (n_checkpoints, n_x)
    steps_taken: int = 0


@dataclass(frozen=True)
class SimReport:
    """Per-checkpoint errors against the exact sampler plus front metrics."""

    times: tuple[float, ...]
    max_abs_errors: tuple[float, ...]
    l2_errors: tuple[float, ...]
    measured_velocity: float | None
    velocity_fit_r2: float | None
    velocity_method: str = "none"
    # worst post-shift misfit over the checkpoints; None unless registered
    shape_error: float | None = None


def _rk4(rhs, u: np.ndarray, edges: np.ndarray):
    """(stage-time fractions, step) of four-stage Runge-Kutta.

    step(dt, b) advances u by dt in place; row i of b pins the boundary layers
    at t + fractions[i] dt.  t + dt/2 serves stages 2 and 3, and t + dt serves
    stage 4 and the end-of-step pin.
    """
    k1, k2, k3, k4, stage = np.empty((5, u.size))
    multiply, add = np.multiply, np.add  # closure cells: no module lookup per call

    def step(dt: float, b: np.ndarray) -> None:
        # stage field (c dt) k + u; the update u + (dt/6) (((k1 + 2 k2) + 2 k3)
        # + k4), in place and in that association order
        rhs(u, k1)
        for k_in, k_out, c, row in ((k1, k2, 0.5, b[0]), (k2, k3, 0.5, b[0]),
                                    (k3, k4, 1.0, b[1])):
            multiply(k_in, c * dt, out=stage)
            add(stage, u, out=stage)
            stage[edges] = row
            rhs(stage, k_out)
        multiply(k2, 2.0, out=k2)
        add(k2, k1, out=k2)
        multiply(k3, 2.0, out=k3)
        add(k2, k3, out=k2)
        add(k2, k4, out=k2)
        multiply(k2, dt / 6.0, out=k2)
        add(u, k2, out=u)
        u[edges] = b[1]

    return (0.5, 1.0), step


def _rkc(rhs, u: np.ndarray, edges: np.ndarray):
    """(stage-time fractions, step) of RKC2 with the RKC scheme, as _rk4's.

    Row j - 1 of b pins stage Y_j at t + c_j dt; Y_s is the next u.  Y_j
    overwrites Y_{j-3} in a ring of three stage fields.
    """
    mu, nu, mu_t, gamma_t = RKC.mu, RKC.nu, RKC.mu_t, RKC.gamma_t
    f0, f, scratch, *ring = np.empty((6, u.size))
    Y = [u] + [ring[(j - 1) % 3] for j in range(1, RKC_STAGES + 1)]
    multiply, copyto = np.multiply, np.copyto  # closure cells: no module lookup per call

    def step(dt: float, b: np.ndarray) -> None:
        # Y_j = (((mu_j Y_{j-1} + nu_j Y_{j-2}) + (1 - mu_j - nu_j) u)
        # + (mu_t_j dt) F_{j-1}) + (gamma_t_j dt) F_0, in place and in that order
        rhs(u, f0)
        multiply(f0, mu_t[1] * dt, out=Y[1])
        Y[1] += u
        Y[1][edges] = b[0]
        for j in range(2, RKC_STAGES + 1):
            rhs(Y[j - 1], f)
            y = Y[j]
            multiply(Y[j - 1], mu[j], out=y)
            for coef, term in ((nu[j], Y[j - 2]), (1.0 - mu[j] - nu[j], u),
                               (mu_t[j] * dt, f), (gamma_t[j] * dt, f0)):
                multiply(term, coef, out=scratch)
                y += scratch
            y[edges] = b[j - 1]
        copyto(u, Y[RKC_STAGES])

    return RKC.c[1:], step


def integrate(eq: EquationSpec, init: Sampler, cfg: SimConfig) -> SimHistory:
    """March u_t = u_xx + f(u) with cfg.method: four-stage Runge-Kutta or RKC2.

    The initial profile and the boundary layers (one point per side at 2nd
    order, two at 4th) come from the exact sampler; the initial data must be
    defined across the whole window.  Each distinct stage time of a step is
    sampled once: two a step for RK4 (t + dt/2, t + dt), RKC_STAGES for RKC
    (t + c_j dt, the last t + dt); one call pins both layers for up to
    BLOCK_STEPS steps.  An interval takes ceil(interval / dt_max) steps
    (cfg.interval_steps), each min(dt_max, target - t); the last, target - t,
    ends on the checkpoint, so none is negative.  One of length 0 counts.
    """
    x = cfg.x
    nb = 1 if cfg.space_order == 2 else 2
    u0, ok = init.sample(x, cfg.t0)
    if not ok.all():
        raise SimulationError(
            f"initial profile masked at {int((~ok).sum())} points; shrink the window "
            f"({init.domain_note})"
        )
    u = np.array(u0, dtype=float)
    dt_max = cfg.dt_max
    edges = np.r_[0:nb, cfg.n_x - nb:cfg.n_x]
    x_edges = x[edges]
    # bound once per march: each stage then skips central_difference's table
    # lookups and the divisor's power, with the same arithmetic in the same order
    kernel, scale = stencil_kernel(2, cfg.space_order, cfg.h)
    reaction, copyto, correlate = eq.rhs, np.copyto, np.correlate

    def rhs(values: np.ndarray, out: np.ndarray) -> None:
        """f(u) plus the interior second derivative, into out; the boundary
        layers carry f(u) alone because they are pinned to the exact sampler.
        f's own array is copied, never written: f may return its argument,
        a cached buffer, a read-only view or a scalar."""
        copyto(out, reaction(values))
        lap = correlate(values, kernel, "valid")
        lap /= scale
        out[nb:-nb] += lap

    fractions, step = (_rk4 if cfg.method == "rk4" else _rkc)(rhs, u, edges)
    per_step = len(fractions)
    checkpoints = cfg.checkpoints
    fields = np.empty((len(checkpoints), cfg.n_x))
    fields[0] = u
    t = cfg.t0
    steps = 0
    for k, (target, n) in enumerate(zip(checkpoints[1:], map(int, cfg.interval_steps)), 1):
        for first in range(0, n, BLOCK_STEPS):
            # the stage times of each step, in step order; the last ends the step
            dts, stage_times = [], []
            for j in range(first, min(first + BLOCK_STEPS, n)):
                dt = target - t if j == n - 1 else min(dt_max, target - t)
                dts.append(dt)
                stage_times += (t + c * dt for c in fractions[:-1])
                t = target if j == n - 1 else min(t + dt, target)
                stage_times.append(t)
            vb, okb = init.sample(x_edges, np.array(stage_times)[:, None])
            defined = okb.all(axis=1)
            first_masked = len(stage_times) if defined.all() else int(np.argmin(defined))
            # overflow propagates to the stability check; the sampler call stays
            # outside, so a warning of its own still surfaces
            with np.errstate(all="ignore"):
                for dt, b, t_end in zip(dts[:first_masked // per_step],
                                        vb.reshape(len(dts), per_step, -1),
                                        stage_times[per_step - 1::per_step]):
                    step(dt, b)
                    steps += 1
                    # a finite sum proves every entry finite; an overflowing one
                    # defers to the entrywise check
                    if not math.isfinite(u.sum()) and not np.isfinite(u).all():
                        raise InstabilityError(
                            f"non-finite field at step {steps}, t={t_end:.6g}, "
                            f"dt={dt:.3e} (safety={cfg.safety})"
                        )
            if first_masked < len(stage_times):
                raise SimulationError(
                    f"boundary values masked at t={stage_times[first_masked]}")
        fields[k] = u
    return SimHistory(x=x, times=checkpoints, fields=fields, steps_taken=steps)


def _crossing(x: np.ndarray, u: np.ndarray, level: float) -> float:
    """Position of the unique level crossing, linearly interpolated."""
    d = u - level
    signs = np.sign(d)
    idx = np.where(signs[:-1] * signs[1:] < 0)[0]
    exact = np.where(d == 0.0)[0]
    count = len(idx) + len(exact)
    if count != 1:
        raise AmbiguousFrontError(f"level {level} crossed {count} times")
    if len(exact):
        return float(x[exact[0]])
    i = idx[0]
    frac = d[i] / (d[i] - d[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def _line_fit(t: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(slope, r2) of the least-squares line p = slope * t + intercept."""
    A = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, p, rcond=None)
    fit = A @ np.array([slope, intercept])
    ss_res = float(np.sum((p - fit) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


def front_velocity(history: SimHistory, level: float = 0.5) -> tuple[float, float]:
    """Least-squares velocity of the level crossing across checkpoints.

    The crossing must stay inside the window for at least 80 percent of the
    checkpoints, otherwise the measurement is refused.
    """
    times, positions = [], []
    misses = 0
    for t, u in zip(history.times, history.fields):
        try:
            positions.append(_crossing(history.x, u, level))
            times.append(float(t))
        except AmbiguousFrontError:
            misses += 1
    if misses > 0.2 * len(history.times) or len(times) < 3:
        raise AmbiguousFrontError(
            f"level {level} tracked in only {len(times)}/{len(history.times)} checkpoints"
        )
    return _line_fit(np.asarray(times), np.asarray(positions))


def _core(x: np.ndarray, s: float) -> slice:
    """The points that stay clear of those a shift s pulls in from outside the window."""
    margin = int(np.ceil(abs(s) / (x[1] - x[0]))) + 1
    return slice(margin, len(x) - margin)


def _shift_misfit(x: np.ndarray, u_ref: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """u(x) - u_ref(x - s) by interpolation, on the core of the shift s."""
    core = _core(x, s)
    return u[core] - np.interp(x[core], x + s, u_ref)


def register_shift(x: np.ndarray, u_ref: np.ndarray, u: np.ndarray, start: float = 0.0, *,
                   du_ref: np.ndarray | None = None) -> float:
    """Shift s minimizing sum (u(x) - u_ref(x - s))^2: the one speed estimator's step.

    Gauss-Newton from start: the Jacobian J of the misfit r in s is
    u_ref'(x - s) on the same core, with u_ref' = du_ref, by default
    np.gradient(u_ref, x[1] - x[0]), and s -= <J, r>/<J, J> until a step is
    below 1e-12.  A caller registering many fields against one reference
    passes its gradient once.  Raises
    AmbiguousFrontError where |s| leaves a quarter of the window, where
    <J, J> is not positive (a flat reference), or after
    REGISTRATION_ITERATIONS steps.
    """
    max_shift = 0.25 * (x[-1] - x[0])
    if du_ref is None:
        du_ref = np.gradient(u_ref, x[1] - x[0])
    s = float(start)
    for _ in range(REGISTRATION_ITERATIONS):
        jac = np.interp(x[_core(x, s)], x + s, du_ref)
        jj = float(jac @ jac)
        if not jj > 0.0:
            raise AmbiguousFrontError(f"the reference profile has no finite slope on the core "
                                      f"at shift {s:.6g}")
        step = float(jac @ _shift_misfit(x, u_ref, u, s)) / jj
        s -= step
        if not abs(s) <= max_shift:
            raise AmbiguousFrontError(f"registration shift {s:.6g} leaves a quarter of the "
                                      f"window ({max_shift:.6g})")
        if abs(step) < 1e-12:
            return s
    raise AmbiguousFrontError(f"registration did not converge in {REGISTRATION_ITERATIONS} "
                              f"steps (last shift {s:.6g})")


def registration_velocity(history: SimHistory) -> tuple[float, float, float]:
    """(velocity, r2, worst shape error) from optimal-shift registration.

    Each checkpoint is registered against the initial profile, starting from
    the previous checkpoint's shift, with the profile's gradient taken once
    for all of them; the fitted slope of shift vs time is the
    translation speed and the post-shift residual measures shape preservation.
    """
    x = history.x
    u0 = history.fields[0]
    du0 = np.gradient(u0, x[1] - x[0])
    shifts, errs = [0.0], [0.0]
    for u in history.fields[1:]:
        s = register_shift(x, u0, u, shifts[-1], du_ref=du0)
        shifts.append(s)
        errs.append(float(np.max(np.abs(_shift_misfit(x, u0, u, s)))))
    tt = np.asarray(history.times, dtype=float)
    slope, r2 = _line_fit(tt - tt[0], np.asarray(shifts))
    return slope, r2, float(np.max(errs))


def compare_exact(history: SimHistory, s: Sampler, level: float | None = None,
                  registration: bool = False) -> SimReport:
    """Error norms per checkpoint against the exact sampler, plus the front
    velocity when a level is given (or registration requested)."""
    max_errs, l2_errs = [], []
    for t, u in zip(history.times, history.fields):
        exact, ok = s.sample(history.x, float(t))
        if not ok.all():
            raise SimulationError(
                f"sampler masked inside the comparison window at t={float(t)}"
            )
        err = u - exact
        max_errs.append(float(np.max(np.abs(err))))
        l2_errs.append(float(np.sqrt(np.mean(err**2))))
    velocity = r2 = shape_error = None
    method = "none"
    if registration:
        velocity, r2, shape_error = registration_velocity(history)
        method = "registration"
    elif level is not None:
        velocity, r2 = front_velocity(history, level)
        method = f"level-crossing@{level:g}"
    return SimReport(
        times=tuple(float(t) for t in history.times),
        max_abs_errors=tuple(max_errs),
        l2_errors=tuple(l2_errs),
        measured_velocity=velocity,
        velocity_fit_r2=r2,
        velocity_method=method,
        shape_error=shape_error,
    )
