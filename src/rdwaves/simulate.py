"""Direct integration of the reaction-diffusion equations (method of lines).

Space is discretized with 2nd- or 4th-order central stencils, time with the
classic four-stage Runge-Kutta scheme under the diffusive step restriction
dt <= safety * h^2 / 2.  Boundary values are pinned to the exact sampler,
which removes boundary-induced error when checking that exact profiles
translate as predicted; one sampler call gives them at every stage time of
a block of up to BLOCK_STEPS steps.  The integrator owns the four stage
slopes and one stage field and forms each stage and the update in place;
the only fresh arrays of a stage are f(u), copied into its slope, and the
Laplacian from equations.central_difference (one np.correlate call on the
1-D field), added into it.  Front speeds come from a least-squares fit of
level-crossing positions; bell-shaped profiles use least-squares shift
registration instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Sampler
from .equations import EquationSpec, central_difference

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


class SimulationError(RuntimeError):
    pass


class InstabilityError(SimulationError):
    """Non-finite field encountered during time stepping."""


class AmbiguousFrontError(SimulationError):
    """The tracked level is not crossed exactly once per profile."""


@dataclass(frozen=True)
class SimConfig:
    """Spatial window, time window, CFL safety factor and checkpoints."""

    x_min: float
    x_max: float
    n_x: int
    t0: float
    t1: float
    safety: float = 0.9
    space_order: int = 4
    n_checkpoints: int = 9

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise SimulationError("safety factor must be in (0, 1]")
        if self.space_order not in (2, 4):
            raise SimulationError("space_order must be 2 or 4")
        if self.n_x < 16:
            raise SimulationError("need at least 16 spatial points")
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
        return self.safety * self.h**2 / 2.0

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def checkpoints(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_checkpoints)


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


def integrate(eq: EquationSpec, init: Sampler, cfg: SimConfig) -> SimHistory:
    """March u_t = u_xx + f(u) with four-stage Runge-Kutta.

    The initial profile and the boundary layers (one point per side at 2nd
    order, two at 4th) come from the exact sampler; the initial data must be
    defined across the whole window.  Each distinct stage time is sampled
    once: t + dt/2 serves stages 2 and 3, and t + dt serves stage 4, the
    end-of-step pin and the next step's first stage.  The march runs in
    blocks of at most BLOCK_STEPS steps whose step sizes are fixed up front,
    and both layers at all of a block's stage times come from one call.
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
    h = cfg.h
    dt_max = cfg.dt_max
    edges = np.r_[0:nb, cfg.n_x - nb:cfg.n_x]
    x_edges = x[edges]
    k1, k2, k3, k4 = np.empty((4, cfg.n_x))
    stage = np.empty(cfg.n_x)

    def rhs(values: np.ndarray, out: np.ndarray) -> None:
        """f(u) plus the interior second derivative, into out; the boundary
        layers carry f(u) alone because they are pinned to the exact sampler.
        f's own array is copied, never written: f may return its argument,
        a cached buffer, a read-only view or a scalar."""
        np.copyto(out, eq.rhs(values))
        out[nb:-nb] += central_difference(values, h, 2, cfg.space_order)

    checkpoints = cfg.checkpoints
    fields = np.empty((len(checkpoints), cfg.n_x))
    fields[0] = u
    t = cfg.t0
    steps = 0
    for k, target in enumerate(checkpoints[1:], start=1):
        while t < target - 1e-13:
            # stage times t + dt/2 and t + dt of each step, in step order
            dts, stage_times = [], []
            while t < target - 1e-13 and len(dts) < BLOCK_STEPS:
                dt = min(dt_max, target - t)
                dts.append(dt)
                stage_times += (t + 0.5 * dt, t + dt)
                t += dt
            vb, okb = init.sample(x_edges, np.array(stage_times)[:, None])
            defined = okb.all(axis=1)
            first_masked = len(stage_times) if defined.all() else int(np.argmin(defined))
            # overflow propagates to the stability check; the sampler call stays
            # outside, so a warning of its own still surfaces
            with np.errstate(all="ignore"):
                for dt, b_half, b_end, t_end in zip(dts[:first_masked // 2], vb[0::2],
                                                    vb[1::2], stage_times[1::2]):
                    # stage field (c dt) k + u; the update u + (dt/6) (((k1 + 2 k2)
                    # + 2 k3) + k4), in place and in that association order
                    rhs(u, k1)
                    for k_in, k_out, c, b in ((k1, k2, 0.5, b_half), (k2, k3, 0.5, b_half),
                                              (k3, k4, 1.0, b_end)):
                        np.multiply(k_in, c * dt, out=stage)
                        stage += u
                        stage[edges] = b
                        rhs(stage, k_out)
                    k2 *= 2.0
                    k2 += k1
                    k3 *= 2.0
                    k2 += k3
                    k2 += k4
                    k2 *= dt / 6.0
                    u += k2
                    u[edges] = b_end
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


def _shift_misfit(x: np.ndarray, u_ref: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """u(x) - u_ref(x - s) by interpolation, on the core that stays clear of
    the points the shift pulls in from outside the window."""
    margin = int(np.ceil(abs(s) / (x[1] - x[0]))) + 1
    core = slice(margin, len(x) - margin)
    return u[core] - np.interp(x, x + s, u_ref)[core]


def register_shift(x: np.ndarray, u_ref: np.ndarray, u: np.ndarray) -> float:
    """Shift s minimizing sum (u(x) - u_ref(x - s))^2, by golden-section search
    over interpolated profiles; |s| stays within a quarter of the window."""
    max_shift = 0.25 * (x[-1] - x[0])

    def cost(s: float) -> float:
        d = _shift_misfit(x, u_ref, u, s)
        return float(np.mean(d * d))

    # coarse scan then golden-section refinement
    grid = np.linspace(-max_shift, max_shift, 81)
    costs = [cost(s) for s in grid]
    i0 = int(np.argmin(costs))
    lo = grid[max(0, i0 - 1)]
    hi = grid[min(len(grid) - 1, i0 + 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    cost_c, cost_d = cost(c), cost(d)
    for _ in range(80):
        # the surviving interior point keeps its cost: one new evaluation per step
        if cost_c < cost_d:
            b, d, cost_d = d, c, cost_c
            c = b - phi * (b - a)
            cost_c = cost(c)
        else:
            a, c, cost_c = c, d, cost_d
            d = a + phi * (b - a)
            cost_d = cost(d)
        if b - a < 1e-12:
            break
    return float(0.5 * (a + b))


def registration_velocity(history: SimHistory) -> tuple[float, float, float]:
    """(velocity, r2, worst shape error) from optimal-shift registration.

    Each checkpoint is registered against the initial profile; the fitted
    slope of shift vs time is the translation speed and the post-shift
    residual measures shape preservation.
    """
    x = history.x
    u0 = history.fields[0]
    shifts, errs = [0.0], [0.0]
    for u in history.fields[1:]:
        s = register_shift(x, u0, u)
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
    velocity = r2 = None
    method = "none"
    if registration:
        velocity, r2, _ = registration_velocity(history)
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
    )
