"""Method-of-lines integrator: accuracy, front speeds, controls."""

import math

import numpy as np
import pytest

from rdwaves import simulate
from rdwaves.catalog import (
    Sampler,
    build_family,
    fisher_front,
    generalized_fisher,
    perturbed_fisher_bell,
    plane_wave,
)
from rdwaves.cli import _velocity_setup
from rdwaves.equations import Fisher, KPPGeneric, central_difference
from rdwaves.simulate import (
    BLOCK_STEPS,
    RKC,
    RKC_DAMPING,
    RKC_STAGES,
    AmbiguousFrontError,
    InstabilityError,
    SimConfig,
    SimHistory,
    SimulationError,
    _line_fit,
    _rkc_scheme,
    compare_exact,
    front_velocity,
    integrate,
    register_shift,
    registration_velocity,
)

SQRT6 = math.sqrt(6.0)


def heat_kernel_sampler(t_start: float = -1.0) -> Sampler:
    """The heat kernel of a point source at t_start."""
    def fn(x, t):
        s = t - t_start
        return np.exp(-(x**2) / (4.0 * s)) / np.sqrt(4.0 * math.pi * s)

    return Sampler(fn=fn, equation=KPPGeneric(f=lambda u: np.zeros_like(u), label="diffusion"),
                   family_id="heat-kernel", params={})


class TestConfig:
    def test_guards(self):
        with pytest.raises(SimulationError):
            SimConfig(-1, 1, 64, 0, 1, safety=0.0)
        with pytest.raises(SimulationError):
            SimConfig(-1, 1, 64, 0, 1, space_order=3)
        with pytest.raises(SimulationError):
            SimConfig(-1, 1, 8, 0, 1)

    # a reversed window marched on a descending grid; an empty one divided by
    # h = 0 in the RKC step bound (velocity of the bell at C = -1e300)
    @pytest.mark.parametrize("method", ["rk4", "rkc"])
    @pytest.mark.parametrize("x0, x1", [(3.0, 2.0), (3.0, 3.0), (2e300, 2e300 + 8.0)])
    def test_empty_window_rejected(self, x0, x1, method):
        with pytest.raises(SimulationError, match="empty spatial window"):
            SimConfig(x0, x1, 64, 0, 1, method=method)

    # h^2 overflowed in the step bound, or underflowed into a division by zero
    @pytest.mark.parametrize("method", ["rk4", "rkc"])
    @pytest.mark.parametrize("x0, x1", [(-1e300, 1e300), (-1e308, 1e308), (0.0, 1e-300)])
    def test_step_squared_out_of_range_rejected(self, x0, x1, method):
        with pytest.raises(SimulationError, match="leaves the floating-point range"):
            SimConfig(x0, x1, 64, 0, 1, method=method)

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_needs_two_checkpoints(self, n):
        # one checkpoint integrated 0 steps, none indexed past the end
        with pytest.raises(SimulationError, match="at least 2 checkpoints"):
            SimConfig(-1, 1, 64, 0, 1, n_checkpoints=n)

    def test_stalled_time_step_rejected(self):
        # 1e17 + 1.125e-3 == 1e17: a march from there would never advance t
        with pytest.raises(SimulationError, match="does not advance"):
            SimConfig(-10.0, 14.0, 481, 1e17, 1.0000000000000001e17)
        with pytest.raises(SimulationError, match="does not advance"):
            SimConfig(-10.0, 14.0, 481, -1e17, -1e17 + 16.0)

    def test_dt_bound(self):
        cfg = SimConfig(-1, 1, 101, 0, 1, safety=0.5)
        assert cfg.dt_max == pytest.approx(0.5 * cfg.h**2 / 2.0)

    @pytest.mark.parametrize("space_order, rho_h2", [(2, 4.0), (4, 16.0 / 3.0)])
    def test_dt_bound_rkc(self, space_order, rho_h2):
        # safety * beta(8) / rho, rho the stencil's spectral radius rho_h2 / h^2
        cfg = SimConfig(-1, 1, 101, 0, 1, safety=0.5, space_order=space_order, method="rkc")
        assert RKC.beta == pytest.approx(41.1667, abs=1e-4)
        assert cfg.dt_max == pytest.approx(0.5 * RKC.beta * cfg.h**2 / rho_h2, rel=1e-14)

    def test_rkc_step_against_rk4_at_velocity_defaults(self):
        # h = 0.05 at 4th order and safety 0.9: the RKC step is 15.4 times RK4's 0.45 h^2
        rk4, rkc = (SimConfig(-10.0, 14.0, 481, 0.0, 2.0, method=m) for m in ("rk4", "rkc"))
        assert rk4.dt_max == pytest.approx(0.45 * 0.05**2)
        assert rkc.dt_max / rk4.dt_max == pytest.approx(15.4375, abs=1e-4)

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError, match="method must be one of"):
            SimConfig(-1, 1, 64, 0, 1, method="euler")


class TestIntegrate:
    def test_pure_diffusion_mass_conserved(self):
        s = heat_kernel_sampler()
        cfg = SimConfig(-20.0, 20.0, 201, 0.0, 1.0, n_checkpoints=5)
        hist = integrate(s.equation, s, cfg)
        h = cfg.h
        mass = [float(np.sum(u) * h) for u in hist.fields]
        assert abs(mass[-1] - mass[0]) < 1e-6
        rep = compare_exact(hist, s)
        assert max(rep.max_abs_errors) < 1e-5

    def test_fisher_front_tracks_exact(self):
        # h = 0.05 over a time window of 2: checkpoint error well under 1e-4
        s = fisher_front("tanh")
        cfg = SimConfig(-10.0, 14.0, 481, 0.0, 2.0, n_checkpoints=9)
        hist = integrate(s.equation, s, cfg)
        assert max(compare_exact(hist, s).max_abs_errors) <= 1e-4
        v, r2 = front_velocity(hist, 0.5)
        assert v == pytest.approx(5.0 / SQRT6, rel=1e-4)
        assert r2 > 0.999999

    def test_zero_length_window_identity(self):
        s = fisher_front("tanh")
        cfg = SimConfig(-5.0, 5.0, 101, 0.3, 0.3, n_checkpoints=3)
        hist = integrate(s.equation, s, cfg)
        rep = compare_exact(hist, s)
        assert max(rep.max_abs_errors) == 0.0

    def test_refinement_rate(self):
        # halving h cuts the error by at least 2^(space_order - 0.5)
        s = plane_wave(2.0, -2.0, 1.0, -3.0)
        errs = []
        for n in (81, 161):
            cfg = SimConfig(-4.0, 6.0, n, 0.0, 0.25, n_checkpoints=5)
            hist = integrate(s.equation, s, cfg)
            rep = compare_exact(hist, s)
            errs.append(max(rep.max_abs_errors))
        assert errs[0] / errs[1] >= 2 ** (4 - 0.5)

    def test_second_order_stencil(self):
        s = fisher_front("tanh")
        errs = []
        for n in (81, 161):
            cfg = SimConfig(-8.0, 8.0, n, 0.0, 0.5, space_order=2, n_checkpoints=5)
            hist = integrate(s.equation, s, cfg)
            rep = compare_exact(hist, s)
            errs.append(max(rep.max_abs_errors))
        assert errs[0] / errs[1] >= 2 ** (2 - 0.5)

    def test_full_safety_factor_stays_finite(self):
        # the dt <= h^2/2 bound keeps the four-stage scheme inside its
        # stability region even at safety = 1
        s = fisher_front("tanh")
        cfg = SimConfig(-6.0, 6.0, 121, 0.0, 0.5, safety=1.0, n_checkpoints=3)
        hist = integrate(s.equation, s, cfg)
        assert np.all(np.isfinite(hist.fields))

    def test_instability_reported(self):
        s = heat_kernel_sampler()
        eq = KPPGeneric(f=lambda u: 1e7 * u, label="stiff")
        cfg = SimConfig(-5.0, 5.0, 64, 0.0, 0.5, n_checkpoints=3)
        with pytest.raises(InstabilityError, match="step"):
            integrate(eq, s, cfg)

    def test_large_finite_field_is_not_unstable(self):
        # 101 entries of 5e306 sum to inf in floating point, yet every entry is finite
        def fn(x, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(t))
            return np.full(shape, 5e306)

        s = Sampler(fn=fn, equation=KPPGeneric(f=np.zeros_like, label="diffusion"),
                    family_id="constant", params={})
        cfg = SimConfig(-20.0, 20.0, 101, 0.0, 0.2, n_checkpoints=3)
        hist = integrate(s.equation, s, cfg)
        assert hist.steps_taken > 0 and np.all(hist.fields == 5e306)

    def test_masked_init_rejected(self):
        s = perturbed_fisher_bell(0.3)
        cfg = SimConfig(-5.0, 5.0, 64, 0.0, 0.5)  # crosses the s <= 0 half
        with pytest.raises(SimulationError, match="masked"):
            integrate(s.equation, s, cfg)

    def test_negative_control_mismatched_equation(self):
        s = fisher_front("tanh")
        cfg = SimConfig(-6.0, 6.0, 121, 0.0, 0.5, n_checkpoints=3)
        hist = integrate(s.equation, s, cfg)
        wrong = generalized_fisher(2.0, "tanh")
        rep = compare_exact(hist, wrong)
        assert max(rep.max_abs_errors) > 0.5
        # the bell is masked on x <= 0, inside this window
        with pytest.raises(SimulationError, match="masked inside the comparison window"):
            compare_exact(hist, perturbed_fisher_bell(0.3))


def reference_parts(eq, init: Sampler, cfg: SimConfig):
    """(initial field, boundary, rhs) of the reference loops: boundary(values, t)
    pins values with its own sampler calls, and rhs adds a separate Laplacian."""
    x = cfg.x
    nb = 1 if cfg.space_order == 2 else 2
    h = cfg.h
    u = np.array(init.sample(x, cfg.t0)[0], dtype=float)

    def boundary(values, t_stage):
        for side in (slice(0, nb), slice(-nb, None)):
            values[side] = init.sample(x[side], t_stage)[0]
        return values

    def laplacian(v):
        # the one stencil definition; tests/test_equations.py pins it to the
        # written-out weights
        d2 = np.zeros_like(v)
        with np.errstate(all="ignore"):
            d2[nb:-nb] = central_difference(v, h, 2, cfg.space_order)
        return d2

    def rhs(v):
        with np.errstate(all="ignore"):
            reaction = eq.rhs(v)
        return laplacian(v) + reaction

    return u, boundary, rhs


def reference_rk4(eq, init: Sampler, cfg: SimConfig) -> tuple[np.ndarray, int]:
    """Checkpoint fields of the RK4 loop that pins the boundary at every
    stage with its own sampler calls and a separate Laplacian."""
    u, boundary, rhs = reference_parts(eq, init, cfg)
    fields = [u]
    steps = 0
    t = cfg.t0
    for target in cfg.checkpoints[1:]:
        while t < target - 1e-13:
            dt = min(cfg.dt_max, target - t)
            k1 = rhs(boundary(u.copy(), t))
            k2 = rhs(boundary(u + 0.5 * dt * k1, t + 0.5 * dt))
            k3 = rhs(boundary(u + 0.5 * dt * k2, t + 0.5 * dt))
            k4 = rhs(boundary(u + dt * k3, t + dt))
            u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            u = boundary(u, t)
            steps += 1
        fields.append(u)
    return np.array(fields), steps


def reference_rkc(eq, init: Sampler, cfg: SimConfig) -> tuple[np.ndarray, int]:
    """Checkpoint fields of the RKC2 loop (Sommeijer, Shampine & Verwer 1998)
    with stages written out as a list, each pinned by its own sampler call."""
    u, boundary, rhs = reference_parts(eq, init, cfg)
    mu, nu, mu_t, gamma_t, c = RKC.mu, RKC.nu, RKC.mu_t, RKC.gamma_t, RKC.c
    fields = [u]
    steps = 0
    t = cfg.t0
    for target in cfg.checkpoints[1:]:
        while t < target - 1e-13:
            dt = min(cfg.dt_max, target - t)
            f0 = rhs(boundary(u.copy(), t))
            y = [u, boundary(u + (mu_t[1] * dt) * f0, t + c[1] * dt)]
            for j in range(2, RKC_STAGES + 1):
                f = rhs(y[j - 1])
                y.append(boundary(mu[j] * y[j - 1] + nu[j] * y[j - 2]
                                  + (1.0 - mu[j] - nu[j]) * u
                                  + (mu_t[j] * dt) * f + (gamma_t[j] * dt) * f0,
                                  t + c[j] * dt))
            u = y[RKC_STAGES]
            t += dt
            steps += 1
        fields.append(u)
    return np.array(fields), steps


REFERENCES = {"rk4": reference_rk4, "rkc": reference_rkc}


def recording(base: Sampler) -> tuple[Sampler, list]:
    """base with every fn call's (x, t) grids appended to the returned list."""
    calls = []

    def fn(x, t):
        calls.append((np.array(x), np.array(t)))
        return base.fn(x, t)

    return Sampler(fn=fn, equation=base.equation, family_id="recorded", params={}), calls


def reference_stage_times(eq, base: Sampler, cfg: SimConfig) -> list[float]:
    """The distinct stage times of every step of cfg.method's reference loop,
    in step order: t + dt/2, t + dt for RK4, t + c_j dt (j = 1..s) for RKC.

    The loop pins each stage and the step's end with its own calls; dropping
    repeats of the previous time leaves t0 and then the stage times of each step.
    """
    s, calls = recording(base)
    REFERENCES[cfg.method](eq, s, cfg)
    times = [float(t.flat[0]) for _, t in calls[1:]]
    distinct = [t for prev, t in zip([None] + times, times) if t != prev]
    assert distinct[0] == cfg.t0
    return distinct[1:]


def masked_from(base: Sampler, t_bad: float) -> Sampler:
    def fn(x, t):
        return np.where(t < t_bad, base.fn(x, t), np.nan)

    return Sampler(fn=fn, equation=base.equation, family_id="masked-late", params={})


def stage_blocks(base: Sampler, cfg: SimConfig, block: int) -> int:
    """Number of block calls of one integrate run, after checking them: past
    the full-window initial sample, each call covers both boundary layers at
    every stage time of whole steps, at most one block of them, and together
    they are the reference loop's stage times in order."""
    s, calls = recording(base)
    hist = integrate(s.equation, s, cfg)
    per_step = 2 if cfg.method == "rk4" else RKC_STAGES
    nb = 1 if cfg.space_order == 2 else 2
    x_edges = np.r_[cfg.x[:nb], cfg.x[-nb:]]
    (x_init, t_init), *blocks = calls
    assert np.array_equal(x_init, cfg.x) and np.all(t_init == cfg.t0)
    seen = []
    for x, t in blocks:
        rows = t.shape[0]
        assert rows % per_step == 0 and per_step <= rows <= per_step * block
        assert x.shape == t.shape == (rows, 2 * nb)
        assert np.all(x == x_edges) and np.all(t == t[:, :1])
        seen += t[:, 0].tolist()
    assert len(seen) == per_step * hist.steps_taken
    assert seen == reference_stage_times(s.equation, base, cfg)
    return len(blocks)


def assert_masked_time_named(base: Sampler, cfg: SimConfig, stage: int) -> None:
    """Masked from the reference loop's stage time number `stage` on, the
    march stops there and names that time, whichever block holds it."""
    t_bad = reference_stage_times(base.equation, base, cfg)[stage]
    s = masked_from(base, t_bad)
    with pytest.raises(SimulationError) as exc:
        integrate(s.equation, s, cfg)
    assert str(exc.value) == f"boundary values masked at t={t_bad}"


REFERENCE_CASES = pytest.mark.parametrize("sampler, window, n_x, t1, n_checkpoints", [
    (fisher_front("tanh"), (-6.0, 8.0), 81, 0.5, 5),
    (perturbed_fisher_bell(0.3), (1.2, 9.5), 81, 0.5, 5),
    # one interval of more than BLOCK_STEPS RK4 steps
    (fisher_front("tanh"), (-6.0, 8.0), 161, 1.0, 2),
    (perturbed_fisher_bell(0.3), (1.2, 9.5), 161, 0.4, 2),
    # with fisher-front and the bell, every reaction that velocity marches:
    # c1 = 2 takes _frac_pow's half power, the plane wave GeneralFamily's square
    (generalized_fisher(2.0), (-9.0, 10.0), 81, 0.5, 5),
    (build_family("plane-wave"), (-9.5, 10.5), 81, 0.5, 5),
], ids=["fisher-front", "bell", "fisher-front-long", "bell-long", "generalized-fisher",
        "plane-wave"])


class TestHotPath:
    @pytest.mark.parametrize("block", [BLOCK_STEPS, 7])
    @pytest.mark.parametrize("space_order", [2, 4])
    def test_stage_times_sampled_in_whole_step_blocks(self, monkeypatch, space_order, block):
        # t + dt/2 and t + dt of each step
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        cfg = SimConfig(-6.0, 6.0, 81, 0.0, 0.3, space_order=space_order, n_checkpoints=4)
        n_blocks = stage_blocks(fisher_front("tanh"), cfg, block)
        if block < BLOCK_STEPS:
            assert n_blocks > len(cfg.checkpoints) - 1  # some interval spans blocks

    @pytest.mark.parametrize("block", [BLOCK_STEPS, 4])
    @pytest.mark.parametrize("stage", [0, 1, 6, 13])
    def test_masked_boundary_names_the_reference_time(self, monkeypatch, stage, block):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        assert_masked_time_named(fisher_front("tanh"),
                                 SimConfig(-6.0, 6.0, 81, 0.0, 0.3, n_checkpoints=4), stage)

    def test_instability_reported_before_a_later_masked_boundary(self):
        s = heat_kernel_sampler()
        eq = KPPGeneric(f=lambda u: 1e7 * u, label="stiff")
        cfg = SimConfig(-5.0, 5.0, 64, 0.0, 0.5, n_checkpoints=2)
        with pytest.raises(InstabilityError) as exc:
            integrate(eq, s, cfg)
        blown_at = int(str(exc.value).split("step ")[1].split(",")[0])
        times = reference_stage_times(eq, s, cfg)
        assert 2 * blown_at < len(times) <= 2 * BLOCK_STEPS  # one block holds both
        late = masked_from(s, times[2 * blown_at])  # masked from the next step on
        with pytest.raises(InstabilityError, match=f"step {blown_at},"):
            integrate(eq, late, cfg)

    @pytest.mark.parametrize("space_order", [2, 4])
    @REFERENCE_CASES
    def test_fields_match_reference_loop(self, sampler, window, n_x, t1, n_checkpoints,
                                         space_order):
        cfg = SimConfig(*window, n_x, 0.0, t1, space_order=space_order,
                        n_checkpoints=n_checkpoints)
        hist = integrate(sampler.equation, sampler, cfg)
        ref_fields, ref_steps = reference_rk4(sampler.equation, sampler, cfg)
        assert hist.steps_taken == ref_steps
        if n_checkpoints == 2:
            assert ref_steps > BLOCK_STEPS
        for got, want in zip(hist.fields, ref_fields, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("f", [lambda u: u, lambda u: 0.0,
                                   lambda u: np.broadcast_to(0.0, u.shape)],
                             ids=["aliasing", "scalar", "read-only-broadcast"])
    def test_reaction_not_shaped_like_a_fresh_field(self, f):
        # f(u) = u hands back its argument, which the stencil must not be
        # added into; a scalar f broadcasts over the field, and a read-only
        # view is read, never written
        s = heat_kernel_sampler()
        eq = KPPGeneric(f=f, label="custom")
        cfg = SimConfig(-20.0, 20.0, 101, 0.0, 0.2, n_checkpoints=3)
        hist = integrate(eq, s, cfg)
        ref_fields, _ = reference_rk4(eq, s, cfg)
        assert np.array_equal(hist.fields, ref_fields)

    @pytest.mark.parametrize("read_only", [False, True], ids=["cached-buffer", "read-only"])
    def test_reaction_array_left_as_returned(self, read_only):
        # f(u) = -u/2 handed back in one reused buffer, or as a read-only array: the
        # integrator copies it and never adds its stencil into it
        handed, kept = [], []

        def f(u):
            assert not handed or np.array_equal(handed[-1], kept[-1])  # untouched since
            if read_only:
                out = -0.5 * u
                out.flags.writeable = False
            else:
                out = buffer
                np.multiply(u, -0.5, out=out)
            handed.append(out)
            kept.append(out.copy())
            return out

        s = heat_kernel_sampler()
        cfg = SimConfig(-20.0, 20.0, 101, 0.0, 0.2, n_checkpoints=3)
        buffer = np.empty(cfg.n_x)
        hist = integrate(KPPGeneric(f=f, label="custom"), s, cfg)
        assert np.array_equal(handed[-1], kept[-1])
        ref_fields, _ = reference_rk4(KPPGeneric(f=lambda u: -0.5 * u), s, cfg)
        assert np.array_equal(hist.fields, ref_fields)


SCHEMES = {"_rk4": simulate._rk4, "_rkc": simulate._rkc}


def recorded_march(monkeypatch, cfg: SimConfig):
    """(history, dt of every step, stage times of every step as rows) of a march
    of the heat kernel; each row's last entry is its step's end."""
    dts = []
    for name, scheme in SCHEMES.items():
        def make(rhs, u, edges, scheme=scheme):
            fractions, step = scheme(rhs, u, edges)

            def recording_step(dt, b):
                dts.append(dt)
                step(dt, b)

            return fractions, recording_step

        monkeypatch.setattr(simulate, name, make)
    s, calls = recording(heat_kernel_sampler(min(cfg.t0, 0.0) - 1.0))
    hist = integrate(s.equation, s, cfg)
    per_step = 2 if cfg.method == "rk4" else RKC_STAGES
    times = np.concatenate([t[:, 0] for _, t in calls[1:]]).reshape(-1, per_step)
    return hist, np.array(dts), times


def assert_schedule_kept(monkeypatch, cfg: SimConfig) -> int:
    """The march takes the steps cfg.interval_steps plans, none negative, and the
    last step of each interval ends on its checkpoint exactly; returns the count."""
    planned = cfg.interval_steps
    hist, dts, times = recorded_march(monkeypatch, cfg)
    assert hist.steps_taken == len(dts) == len(times) == int(planned.sum())
    assert np.all(dts >= 0.0)
    # a last step may exceed dt_max by the rounding of the steps before it
    assert np.all(dts <= cfg.dt_max * (1.0 + 1e-5))
    # each step spans its dt, to the rounding of t, and the interval's last ends on
    # its checkpoint
    ends = times[:, -1]
    assert np.all(np.abs(np.diff(ends, prepend=cfg.t0) - dts) <= 4 * np.spacing(np.abs(ends)))
    assert np.array_equal(ends[np.cumsum(planned).astype(int) - 1], cfg.checkpoints[1:])
    return hist.steps_taken


class TestSchedule:
    # the time loop once ran while t < target - 1e-13: from t0 = 1e4 it took 84
    # steps where the budget counted 82, and in the second case 26 for 27.  In
    # the third, t += dt from t0 < 0 ends its last step one ulp short of t1
    @pytest.mark.parametrize("cfg, steps", [
        (SimConfig(0.0, 3.152573252877113, 79, 10000.0, 10000.06027920750074075,
                   n_checkpoints=3), 82),
        (SimConfig(0.0, 4.801854785303741, 55, 0.0, 0.09251590182990053, n_checkpoints=2), 27),
        (SimConfig(0.0, 2.1251358976280725, 32, -0.00034377030774753744, 0.003885763849431158,
                   n_checkpoints=2), 2),
    ], ids=["t0-1e4", "t0-0", "t0-below-0"])
    def test_planned_steps_are_marched(self, monkeypatch, cfg, steps):
        assert assert_schedule_kept(monkeypatch, cfg) == steps

    # spans of k (n_checkpoints - 1) dt_max (1 + delta): within rounding of a whole
    # number of steps an interval, where a tolerance on t decided whether one more
    # step was taken.  A t0 of None starts each window a drawn share of its span
    # before 0, where t + (target - t) can round off the checkpoint
    @pytest.mark.parametrize("method", ["rk4", "rkc"])
    @pytest.mark.parametrize("t0", [0.0, 123.456, 1e3, 1e4, 1e5, None])
    def test_spans_of_whole_steps(self, monkeypatch, method, t0):
        rng = np.random.default_rng([int(t0 or 0), t0 is None, method == "rkc"])
        for delta in (0.0, 3e-16, -3e-16, 1e-15, -1e-15, 1e-14):
            for _ in range(4):
                x0, width = rng.uniform(-3.0, 0.0), rng.uniform(1.0, 5.0)
                n_x, n_checkpoints, k = (int(v) for v in rng.integers((16, 2, 1), (41, 6, 6)))
                dt_max = SimConfig(x0, x0 + width, n_x, 0.0, 0.0, method=method).dt_max
                span = k * (n_checkpoints - 1) * dt_max * (1.0 + delta)
                start = -rng.uniform(0.0, 1.0) * span if t0 is None else t0
                assert_schedule_kept(monkeypatch, SimConfig(
                    x0, x0 + width, n_x, start, start + span, n_checkpoints=n_checkpoints,
                    method=method))


def rkc_amplification(z, scheme=RKC):
    """Y_s of one RKC step of y' = z y from y = 1, by the scheme's stage recurrence."""
    y = [np.ones_like(z), 1.0 + scheme.mu_t[1] * z]
    for j in range(2, len(scheme.c)):
        y.append((1.0 - scheme.mu[j] - scheme.nu[j]) + scheme.mu[j] * y[j - 1]
                 + scheme.nu[j] * y[j - 2] + scheme.mu_t[j] * z * y[j - 1]
                 + scheme.gamma_t[j] * z)
    return y[-1]


class TestRKC:
    @pytest.mark.parametrize("stages", [2, 5, RKC_STAGES, 12])
    def test_scheme_is_stable_and_second_order(self, stages):
        scheme = _rkc_scheme(stages, RKC_DAMPING)
        # |R(z)| <= 1 on the whole real interval [-beta, 0]
        z = np.linspace(-scheme.beta, 0.0, 20001)
        assert np.max(np.abs(rkc_amplification(z, scheme))) <= 1.0 + 1e-12
        # R(z) = exp(z) + O(z^3): the defect falls eightfold as z halves
        d1, d2 = (abs(rkc_amplification(np.array(z), scheme) - math.exp(z))
                  for z in (-1e-2, -5e-3))
        assert 6.0 < d1 / d2 < 10.0
        # beta = (w0 + 1)/w1 is about (2/3)(s^2 - 1)(1 - 2 eps/15)
        assert scheme.beta == pytest.approx(
            (2.0 / 3.0) * (stages**2 - 1) * (1.0 - 2.0 * RKC_DAMPING / 15.0), rel=3e-3)

    def test_stage_times_are_the_stages_of_y_equals_t(self):
        # y' = 1 from y = 0: stage Y_j equals its own time fraction c_j
        mu, nu, mu_t, gamma_t, c = RKC.mu, RKC.nu, RKC.mu_t, RKC.gamma_t, RKC.c
        y = [0.0, mu_t[1]]
        for j in range(2, RKC_STAGES + 1):
            y.append(mu[j] * y[j - 1] + nu[j] * y[j - 2] + mu_t[j] + gamma_t[j])
        assert y == pytest.approx(list(c), abs=1e-14)
        assert c[RKC_STAGES] == 1.0 and list(c) == sorted(c)

    @pytest.mark.parametrize("space_order", [2, 4])
    @REFERENCE_CASES
    def test_fields_match_reference_loop(self, monkeypatch, sampler, window, n_x, t1,
                                         n_checkpoints, space_order):
        # the long cases take about 20 RKC steps: blocks of 5 split their interval
        if n_checkpoints == 2:
            monkeypatch.setattr(simulate, "BLOCK_STEPS", 5)
        cfg = SimConfig(*window, n_x, 0.0, t1, space_order=space_order,
                        n_checkpoints=n_checkpoints, method="rkc")
        hist = integrate(sampler.equation, sampler, cfg)
        ref_fields, ref_steps = reference_rkc(sampler.equation, sampler, cfg)
        assert hist.steps_taken == ref_steps
        if n_checkpoints == 2:
            assert ref_steps > simulate.BLOCK_STEPS
        for got, want in zip(hist.fields, ref_fields, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [BLOCK_STEPS, 3])
    @pytest.mark.parametrize("space_order", [2, 4])
    def test_stage_times_sampled_in_whole_step_blocks(self, monkeypatch, space_order, block):
        # t + c_j dt, j = 1..8, of each step; about 7 steps an interval
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        cfg = SimConfig(-6.0, 6.0, 81, 0.0, 3.0, space_order=space_order, n_checkpoints=4,
                        method="rkc")
        n_blocks = stage_blocks(fisher_front("tanh"), cfg, block)
        if block < BLOCK_STEPS:
            assert n_blocks > len(cfg.checkpoints) - 1

    @pytest.mark.parametrize("block", [BLOCK_STEPS, 2])
    @pytest.mark.parametrize("stage", [0, 1, 7, 8, 21, 44])
    def test_masked_boundary_names_the_reference_time(self, monkeypatch, stage, block):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        assert_masked_time_named(
            fisher_front("tanh"),
            SimConfig(-6.0, 6.0, 81, 0.0, 3.0, n_checkpoints=4, method="rkc"), stage)

    def test_instability_reported(self):
        # one RKC step multiplies this field by about 1e41, so it overflows
        # within the 12 steps to t = 2 (by t = 0.5 it is still finite)
        s = heat_kernel_sampler()
        eq = KPPGeneric(f=lambda u: 1e7 * u, label="stiff")
        cfg = SimConfig(-5.0, 5.0, 64, 0.0, 2.0, n_checkpoints=3, method="rkc")
        with pytest.raises(InstabilityError, match="step"):
            integrate(eq, s, cfg)

    def test_second_order_in_time(self):
        # at h = 0.05 the stencil's error (2.9e-10 under RK4) is far below RKC's
        # time error, so halving the step by the safety factor cuts the error
        # by at least 2^(2 - 0.5)
        s = fisher_front("tanh")
        errs = []
        for safety in (1.0, 0.5):
            cfg = SimConfig(-10.0, 14.0, 481, 0.0, 1.0, safety=safety, n_checkpoints=5,
                            method="rkc")
            errs.append(max(compare_exact(integrate(s.equation, s, cfg), s).max_abs_errors))
        assert errs[0] / errs[1] >= 2 ** (2 - 0.5)


class TestFrontVelocity:
    def synthetic_history(self, v: float) -> SimHistory:
        cfg = SimConfig(-10.0, 10.0, 401, 0.0, 2.0, n_checkpoints=9)
        x = cfg.x
        fields = np.array([0.5 * (1 - np.tanh(x - v * t)) for t in cfg.checkpoints])
        return SimHistory(x=x, times=cfg.checkpoints, fields=fields)

    def test_synthetic_translation(self):
        hist = self.synthetic_history(1.5)
        v, r2 = front_velocity(hist, 0.5)
        assert v == pytest.approx(1.5, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_line_fit(self):
        t = np.linspace(0.0, 2.0, 9)
        slope, r2 = _line_fit(t, 1.5 * t - 0.25)
        assert slope == pytest.approx(1.5, abs=1e-12) and r2 == pytest.approx(1.0, abs=1e-12)
        slope, r2 = _line_fit(t, np.full_like(t, 3.0))  # no spread: a perfect fit
        assert slope == pytest.approx(0.0, abs=1e-12) and r2 == 1.0

    def test_ambiguous_front(self):
        cfg = SimConfig(-10.0, 10.0, 401, 0.0, 1.0, n_checkpoints=5)
        x = cfg.x
        fields = np.array([1.5 / np.cosh(0.5 * (x - 0.4 * t)) ** 2 for t in cfg.checkpoints])
        hist = SimHistory(x=x, times=cfg.checkpoints, fields=fields)
        with pytest.raises(AmbiguousFrontError):
            front_velocity(hist, 0.75)  # a bell crosses any mid level twice

    def test_translation_invariance(self):
        s = fisher_front("tanh")
        vs = []
        for dx in (0.0, 0.00625):
            cfg = SimConfig(-8.0 + dx, 10.0 + dx, 721, 0.0, 1.0, n_checkpoints=7)
            hist = integrate(s.equation, s, cfg)
            v, _ = front_velocity(hist, 0.5)
            vs.append(v)
        assert abs(vs[0] - vs[1]) < 1e-6


class TestRegistration:
    def test_register_shift_roundtrip(self):
        x = np.linspace(-10, 10, 801)
        u0 = 1.5 / np.cosh(0.5 * x) ** 2
        s_true = 0.7312
        u1 = 1.5 / np.cosh(0.5 * (x - s_true)) ** 2
        s = register_shift(x, u0, u1)
        assert s == pytest.approx(s_true, abs=1e-6)

    def test_bell_translates_at_derived_speed(self):
        # the bell rides at 3 eps / sqrt6 (the sqrt-branch-consistent speed);
        # shape is preserved to well under 1e-3 after registration
        eps = 0.3
        s = perturbed_fisher_bell(eps)
        cfg = SimConfig(1.2, 9.5, 333, 0.0, 2.0, n_checkpoints=9)
        hist = integrate(s.equation, s, cfg)
        v, r2, shape_err = registration_velocity(hist)
        assert v == pytest.approx(3.0 * eps / SQRT6, rel=1e-3)
        assert r2 > 0.999999
        assert shape_err < 1e-4  # dominated by the linear-interp registration floor
        # the as-given speed value (eps/sqrt6) is a third of the measured one
        assert abs(v - eps / SQRT6) / (eps / SQRT6) > 1.5

    def test_compare_exact_registration_mode(self):
        s = perturbed_fisher_bell(0.3)
        cfg = SimConfig(1.2, 9.5, 167, 0.0, 1.0, n_checkpoints=5)
        hist = integrate(s.equation, s, cfg)
        rep = compare_exact(hist, s, registration=True)
        assert rep.velocity_method == "registration"
        assert rep.measured_velocity == pytest.approx(s.predicted_velocity, rel=1e-2)
        assert rep.shape_error == registration_velocity(hist)[2] and 0.0 < rep.shape_error < 1e-4
        assert compare_exact(hist, s).shape_error is None

    @pytest.mark.parametrize("profile", [lambda z: 0.5 * (1.0 - np.tanh(z)),
                                         lambda z: 1.5 / np.cosh(0.5 * z) ** 2],
                             ids=["tanh", "sech2"])
    @pytest.mark.parametrize("s_true", [-2.1, -0.3, 0.7312, 1.9])
    def test_gauss_newton_recovers_analytic_shifts(self, profile, s_true):
        # at h = 1/160 linear interpolation biases the shift by about 2.5e-10
        x = np.linspace(-10.0, 10.0, 3201)
        for start in (0.0, s_true - 0.2):
            assert register_shift(x, profile(x), profile(x - s_true), start) == pytest.approx(
                s_true, abs=1e-9)

    def test_the_chained_solve_needs_its_warm_start(self):
        # the bell at eps = 0.8 on velocity's window moves 1.8 of the window's
        # 8: from 0, the step to the last checkpoint overshoots a quarter of
        # the window; from the previous checkpoint's shift it converges
        s = perturbed_fisher_bell(0.8)
        hist = integrate(s.equation, s, _velocity_setup(s, 0.05))
        with pytest.raises(AmbiguousFrontError, match="leaves a quarter of the window"):
            register_shift(hist.x, hist.fields[0], hist.fields[-1])
        v, r2, shape_err = registration_velocity(hist)
        assert v == pytest.approx(s.predicted_velocity, rel=1e-5) and shape_err < 1e-4

    def test_pinned_shift_is_refused(self):
        # the true shift, 0.5, is past a quarter of this window (0.45)
        x = np.linspace(-0.9, 0.9, 181)
        with pytest.raises(AmbiguousFrontError, match="leaves a quarter of the window"):
            register_shift(x, np.tanh(x), np.tanh(x - 0.5), 0.4)

    @pytest.mark.parametrize("u_ref, u", [(1.0, 1.0), (0.0, 2.0), (np.nan, 1.0)])
    def test_flat_reference_is_refused(self, u_ref, u):
        # <J, J> is 0 on a constant reference, where the step would divide by
        # zero, and nan on a non-finite one
        x = np.linspace(-5.0, 5.0, 101)
        with np.errstate(all="raise"):
            with pytest.raises(AmbiguousFrontError, match="no finite slope"):
                register_shift(x, np.full_like(x, u_ref), np.full_like(x, u))

    def test_iteration_cap_is_refused(self, monkeypatch):
        x = np.linspace(-10.0, 10.0, 401)
        monkeypatch.setattr(simulate, "REGISTRATION_ITERATIONS", 2)
        with pytest.raises(AmbiguousFrontError, match="did not converge in 2 steps"):
            register_shift(x, np.tanh(x), np.tanh(x - 1.0))

    @pytest.mark.parametrize("family", ["fisher-front", "bell"])
    def test_velocity_is_the_per_checkpoint_loop(self, family):
        # the reference gradient, taken once for all checkpoints, gives what a
        # loop of plain register_shift calls, each taking its own, gives
        s = build_family(family)
        hist = integrate(s.equation, s, _velocity_setup(s, 0.05))
        x, u0 = hist.x, hist.fields[0]
        shifts, errs = [0.0], [0.0]
        for u in hist.fields[1:]:
            shifts.append(register_shift(x, u0, u, shifts[-1]))
            errs.append(float(np.max(np.abs(simulate._shift_misfit(x, u0, u, shifts[-1])))))
        slope, r2 = _line_fit(hist.times - hist.times[0], np.array(shifts))
        assert registration_velocity(hist) == (slope, r2, max(errs))

    @pytest.mark.parametrize("family", ["bell", "fisher-exp", "fisher-front",
                                        "generalized-fisher", "plane-wave"])
    def test_registration_speed_of_every_velocity_family(self, family):
        # the families velocity marches at their defaults, on its own window
        s = build_family(family)
        hist = integrate(s.equation, s, _velocity_setup(s, 0.05))
        rep = compare_exact(hist, s, registration=True)
        assert rep.measured_velocity == pytest.approx(s.predicted_velocity, rel=1e-2)
