import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import phs_kit as pk
from phs_kit import (
    MollifierConfig,
    SchemeConfig,
    energy_report,
    mollify,
    simulate,
    strong_trajectory_audit,
    weak_residual,
)
from phs_kit.discretize import NamedForce
from phs_kit.verify import _apply_stencil, bump_constant

# 30-digit quadrature of the bump mass, computed independently ahead of time
BUMP_MASS_ORACLE = 0.443993816168079437823048921171


def make_traj(sys_, x_rows, dt=1e-3, n_r=None, n_p=None, f_r=None, e_r=None, f_p=None, e_p=None):
    m = len(x_rows) - 1
    n_r = sys_.n_r if n_r is None else n_r
    n_p = sys_.n_p if n_p is None else n_p
    zeros = lambda w: np.zeros((m, w))
    return pk.Trajectory(
        t=dt * np.arange(m + 1),
        x=np.asarray(x_rows, dtype=float),
        f_r=zeros(n_r) if f_r is None else f_r,
        e_r=zeros(n_r) if e_r is None else e_r,
        f_p=zeros(n_p) if f_p is None else f_p,
        e_p=zeros(n_p) if e_p is None else e_p,
    )


def test_weak_residual_equilibrium_is_zero(oscillator):
    traj = make_traj(oscillator, np.zeros((6, 2)))
    report = weak_residual(oscillator, traj)
    assert report.max_residual == 0.0
    assert report.residuals.shape == (4, 2)


def test_weak_residual_frozen_state(oscillator):
    # constant x = (1, 0) violates the dynamics; closed-form hat integrals
    # give |r| = dt * ||G_s grad H||_max per interior node, i.e. 1 after the
    # per-unit-mass normalization, divided by (1 + max channel) = 2
    traj = make_traj(oscillator, np.tile([1.0, 0.0], (9, 1)))
    report = weak_residual(oscillator, traj)
    assert report.max_residual == pytest.approx(0.5, rel=1e-12)


def test_weak_residual_simulated_oscillator_second_order(oscillator):
    maxima = []
    for dt in (1e-3, 5e-4):
        traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 2.0), SchemeConfig(dt=dt))
        maxima.append(weak_residual(oscillator, traj).max_residual)
    assert maxima[0] <= 1e-4
    assert 3.5 <= maxima[0] / maxima[1] <= 4.5


def test_weak_residual_localizes_corruption(oscillator):
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig(dt=1e-3))
    x = traj.x.copy()
    spike = traj.steps // 2
    x[spike] += np.array([5e-2, 0.0])
    bad = pk.Trajectory(t=traj.t, x=x, f_r=traj.f_r, e_r=traj.e_r, f_p=traj.f_p, e_p=traj.e_p)
    report = weak_residual(oscillator, bad)
    assert report.max_residual > 1.0
    worst_node = int(np.argmax(np.max(report.residuals, axis=1))) + 1
    assert abs(worst_node - spike) <= 1


@pytest.mark.parametrize("audit", [weak_residual, strong_trajectory_audit, energy_report])
def test_weak_residual_shape_mismatch(oscillator, damped, audit):
    traj = make_traj(oscillator, np.zeros((6, 2)))
    with pytest.raises(pk.StructureError, match="trajectory n_r = 0 != system n_r = 1"):
        audit(damped, traj)


@pytest.mark.parametrize("audit", [weak_residual, strong_trajectory_audit])
def test_interior_node_audits_refuse_one_step(oscillator, audit):
    name = {weak_residual: "weak residual", strong_trajectory_audit: "pointwise audit"}[audit]
    traj = make_traj(oscillator, np.zeros((2, 2)))
    with pytest.raises(pk.StructureError, match=f"{name} needs at least two steps"):
        audit(oscillator, traj)


def test_weak_residual_step_forced_vs_strong(forced):
    dt = 1e-3
    t_jump = 0.5 + dt / 3.0
    v = 0.5
    traj = simulate(forced, [1.0, 0.0], {0: lambda t: v if t >= t_jump else 0.0},
                    (0.0, 1.5), SchemeConfig(dt=dt))
    weak = weak_residual(forced, traj)
    audit = strong_trajectory_audit(forced, traj)
    assert weak.max_residual <= 1e-4
    assert audit.max_defect > 0.1
    assert abs(audit.argmax_time - t_jump) <= 2 * dt


def _weak_by_blocks(sys_, traj):
    """The weak residual table assembled block by block, the formula before it applied ker[F, G]."""
    d, dt, x = sys_.dirac, traj.dt, traj.x
    lo, hi = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
    x_lo = (1.0 - lo) * x[:-1] + lo * x[1:]
    x_hi = (1.0 - hi) * x[:-1] + hi * x[1:]
    const = traj.e_r @ d.G_r.T + traj.e_p @ d.G_p.T + traj.f_r @ d.F_r.T + traj.f_p @ d.F_p.T
    g_lo = sys_.ham.gradient(x_lo) @ d.G_s.T + const
    g_hi = sys_.ham.gradient(x_hi) @ d.G_s.T + const
    s_mean = 0.5 * (x_lo + x_hi) @ d.F_s.T
    rising = lo * g_lo + hi * g_hi
    falling = (1.0 - lo) * g_lo + (1.0 - hi) * g_hi
    raw = (s_mean[:-1] - s_mean[1:]) + 0.5 * dt * (rising[:-1] + falling[1:])
    return np.abs(raw) / (dt * (1.0 + traj.channel_magnitude()))


def _weak_cases():
    damped = pk.damped_oscillator(1.0)
    string_tanh, _ = pk.make_example("string", N=16, force="tanh")
    string_linear, _ = pk.make_example("string", N=16, force="linear")
    strain = np.concatenate([np.zeros(17), 0.3 * np.sin(np.pi * (np.arange(16) + 0.5) / 16)])
    shake = {1: lambda t: 0.3 * np.sin(2.0 * t)}
    diffusion, _ = pk.make_example("diffusion", N=16)
    # the left end's velocity and the right end's tension prescribed
    string_mixed, _ = pk.string_system(pk.StringSpec(N=8, force=NamedForce("tanh")),
                                       causality=("effort", "flow"))
    strain_8 = np.concatenate([np.zeros(9), 0.3 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)])
    parametric = pk.assemble(damped.dirac, damped.ham, pk.Parametric(A=[[2.0]], B=[[-1.0]]), ())
    modulated = pk.assemble(
        damped.dirac, damped.ham,
        pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1), (),
    )
    return {
        "string_tanh_im": (string_tanh, strain, shake, "implicit_midpoint"),
        "string_linear_dg": (string_linear, strain, shake, "discrete_gradient"),
        "string_tanh_mixed": (string_mixed, strain_8, shake, "implicit_midpoint"),
        "damped": (damped, [1.0, 0.0], None, "implicit_midpoint"),
        "forced_dg": (pk.forced_oscillator(), [0.6, -0.8], {0: lambda t: 0.3 * np.sin(2.0 * t + 0.5)},
                      "discrete_gradient"),
        "diffusion": (diffusion, np.sin(np.arange(16.0)), {0: 0.3}, "implicit_midpoint"),
        "parametric": (parametric, [1.0, 0.5], None, "implicit_midpoint"),
        "modulated": (modulated, [1.0, 0.0], None, "implicit_midpoint"),
    }


@pytest.mark.parametrize("name", list(_weak_cases()))
def test_weak_residual_matches_block_formula(name):
    sys_, x0, inputs, scheme = _weak_cases()[name]
    traj = simulate(sys_, x0, inputs, (0.0, 0.5), SchemeConfig(scheme=scheme, dt=1e-3))
    report = weak_residual(sys_, traj)
    reference = _weak_by_blocks(sys_, traj)
    assert np.max(np.abs(report.residuals - reference)) <= 1e-12
    node, direction = np.unravel_index(int(np.argmax(reference)), reference.shape)
    assert report.as_dict()["argmax_time"] == traj.t[1 + node]
    assert report.as_dict()["argmax_direction"] == direction


def test_energy_report_lossless(oscillator):
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 2.0), SchemeConfig(dt=1e-3))
    report = energy_report(oscillator, traj)
    assert report.max_abs_gap <= 1e-10
    assert report.cumulative_dissipated == 0.0
    assert report.cumulative_supplied == 0.0


def test_energy_report_damped_cumulative(damped):
    cfg = SchemeConfig(scheme="discrete_gradient", dt=1e-3)
    traj = simulate(damped, [1.0, 0.0], None, (0.0, 10.0), cfg)
    report = energy_report(damped, traj)
    assert traj.steps == 10000
    assert abs(report.cumulative_gap) <= 1e-9
    assert report.ineq_defect <= 1e-12
    assert report.cumulative_ineq_defect <= 0.0


def test_energy_report_diffusion_monotone():
    sys_, _ = pk.diffusion_system(pk.DiffusionSpec(N=12))
    rng = np.random.default_rng(7)
    traj = simulate(sys_, rng.standard_normal(12), None, (0.0, 0.5), SchemeConfig(dt=1e-3))
    report = energy_report(sys_, traj)
    assert np.all(report.dH <= 0.0)
    assert np.all(report.dissipated <= 0.0)
    assert report.cumulative_supplied == 0.0


def test_weak_and_energy_reports_locate_a_perturbed_node(damped):
    traj = simulate(damped, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig(dt=1e-2))
    k = 37
    x = traj.x.copy()
    x[k] += [1e-3, -2e-3]
    bad = pk.Trajectory(t=traj.t, x=x, f_r=traj.f_r, e_r=traj.e_r, f_p=traj.f_p, e_p=traj.e_p)
    weak = weak_residual(damped, bad).as_dict()
    energy = energy_report(damped, bad).as_dict()
    assert weak == weak_residual(damped, bad).as_dict()
    assert energy == energy_report(damped, bad).as_dict()
    for doc in (weak, energy):
        assert abs(doc["argmax_time"] - traj.t[k]) <= traj.dt * (1 + 1e-9)
    assert weak["argmax_direction"] in (0, 1)
    assert energy["max_abs_gap_normalized"] == energy["max_abs_gap"] / (1.0 + bad.channel_magnitude())


def test_energy_report_of_a_general_energy_matches_the_quadratic(damped):
    # the general energy evaluates a batch row by row through its callables
    h = damped.ham
    twin = dataclasses.replace(
        damped, ham=pk.GeneralHamiltonian(value_fn=h.value, gradient_fn=h.gradient, dim=h.dim))
    traj = simulate(damped, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig(dt=1e-2))
    quadratic, general = (energy_report(s, traj) for s in (damped, twin))
    for name in ("energy", "dH", "dissipated", "supplied", "gap"):
        np.testing.assert_allclose(getattr(general, name), getattr(quadratic, name), rtol=0.0, atol=1e-14)
    general_doc = general.as_dict()
    for key, value in quadratic.as_dict().items():
        # the gaps sit at roundoff here, so the interval holding the largest one may differ
        if key != "argmax_time":
            assert abs(general_doc[key] - value) <= 1e-14, key


def test_bump_constant_matches_oracle():
    # approx adds abs=1e-12 unless told otherwise, which would loosen rel=1e-14 100-fold
    assert bump_constant() == pytest.approx(1.0 / BUMP_MASS_ORACLE, rel=1e-14, abs=0.0)


def test_mollify_constant_trajectory_unchanged(damped):
    rows = np.tile([0.7, -0.2], (101, 1))
    f_r = np.full((100, 1), 0.3)
    traj = make_traj(damped, rows, dt=1e-2, f_r=f_r, e_r=-f_r)
    out = mollify(traj, MollifierConfig(n_smooth=20, quad_points=6))
    assert np.max(np.abs(out.x - [0.7, -0.2])) <= 1e-14
    assert np.max(np.abs(out.f_r - 0.3)) <= 1e-14
    assert out.t[0] >= traj.t[0] + 0.05 - 1e-12


def test_mollify_too_short_interval(damped):
    rows = np.zeros((5, 2))
    traj = make_traj(damped, rows, dt=1e-3)
    with pytest.raises(pk.StructureError):
        mollify(traj, MollifierConfig(n_smooth=10))


def _quad_taps(eps, dt):
    """Reference taps, each by its own quad: {offset o: tap} for node and for interval data.

    Data row o rows from an output node gets ∫ delta(tau) hat((tau + o dt)/dt)
    dtau, split at the hat's peak, and data interval o intervals from an output
    interval gets the bump mass on the tau for which the output midpoint minus
    tau falls in that interval.
    """
    scale = bump_constant() / eps

    def delta(tau):
        s = tau / eps
        return scale * np.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

    def tap(lo, hi, weight):
        lo, hi = max(lo, -eps), min(hi, eps)
        if lo >= hi:
            return 0.0
        return quad(lambda tau: delta(tau) * weight(tau), lo, hi, epsabs=0.0, epsrel=1e-13)[0]

    reach = int(np.ceil(eps / dt)) + 1
    node, interval = {}, {}
    for o in range(-reach, reach + 1):
        node[o] = (tap((-o - 1) * dt, -o * dt, lambda tau: 1.0 + (tau + o * dt) / dt)
                   + tap(-o * dt, (-o + 1) * dt, lambda tau: 1.0 - (tau + o * dt) / dt))
        interval[o] = tap((-o - 0.5) * dt, (-o + 0.5) * dt, lambda tau: 1.0)
    return node, interval


def _mollify_by_taps(traj, cfg):
    """Reference: the quad taps applied as a dense (output x data) matrix."""
    eps, dt, t = cfg.eps, traj.dt, traj.t
    keep = (t >= t[0] + eps - 1e-12 * dt) & (t <= t[-1] - eps + 1e-12 * dt)
    t_out, k0 = t[keep], int(np.argmax(keep))
    node, interval = _quad_taps(eps, dt)

    def matrix(taps, rows, cols):
        w = np.zeros((rows, cols))
        for k in range(rows):
            for o, tap_o in taps.items():
                if tap_o != 0.0:
                    assert 0 <= k0 + k + o < cols
                    w[k, k0 + k + o] = tap_o
        return w

    x = matrix(node, t_out.size, t.size) @ traj.x
    w_interval = matrix(interval, t_out.size - 1, traj.steps)
    channels = {name: w_interval @ getattr(traj, name) for name in ("f_r", "e_r", "f_p", "e_p")}
    return t_out, x, channels


@st.composite
def mollifier_grids(draw):
    """(n_smooth, dt) with dt in [1e-4, 0.5]: eps = 1/n_smooth < dt included, and eps
    within a few ulps of a whole multiple of dt."""
    n_smooth = draw(st.integers(1, 64))
    if draw(st.booleans()):
        return n_smooth, 10.0 ** draw(st.floats(-4.0, np.log10(0.5)))
    dt = 1.0 / n_smooth / draw(st.integers(1, 150)) * (1.0 + draw(st.integers(-4, 4)) * 2.0 ** -52)
    assume(dt <= 0.5)
    return n_smooth, dt


def _mollified_impulse_taps(n_smooth, dt):
    """{offset o: tap} of mollify's node and interval stencils, read off a mollified unit impulse.

    Output row k of an impulse at data row j is the tap of offset j - (k0 + k).
    """
    cfg = MollifierConfig(n_smooth=n_smooth)
    m = 4 * int(cfg.eps // dt) + 8
    x, f_r, none = np.zeros((m + 1, 1)), np.zeros((m, 1)), np.zeros((m, 0))
    x[m // 2], f_r[m // 2] = 1.0, 1.0
    out = mollify(pk.Trajectory(t=dt * np.arange(m + 1), x=x, f_r=f_r, e_r=f_r, f_p=none, e_p=none), cfg)
    k0 = int(np.searchsorted(dt * np.arange(m + 1), out.t[0]))
    return [{m // 2 - k0 - k: w for k, w in enumerate(column)} for column in (out.x[:, 0], out.f_r[:, 0])]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mollifier_grids())
@example((1, 1e-4))  # the widest stencil drawn: 2e4 + 1 taps
def test_mollify_taps_match_quad(grid):
    n_smooth, dt = grid
    for got, ref in zip(_mollified_impulse_taps(n_smooth, dt), _quad_taps(1.0 / n_smooth, dt)):
        assert all(abs(got.get(o, 0.0) - ref.get(o, 0.0)) <= 2e-14 for o in got.keys() | ref.keys())
        assert abs(math.fsum(got.values()) - 1.0) <= 1e-14


def _random_traj(dt, t0):
    rng = np.random.default_rng(11)
    m = int(round(1.0 / dt))
    t = t0 + dt * np.arange(m + 1)
    x = np.column_stack([np.sin(3.0 * t), rng.standard_normal(m + 1)])
    f_r, f_p = rng.standard_normal((m, 1)), rng.standard_normal((m, 2))
    return pk.Trajectory(t=t, x=x, f_r=f_r, e_r=-f_r, f_p=f_p, e_p=2.0 * f_p)


def _assert_mollify_matches_reference(traj, cfg):
    t_ref, x_ref, channels_ref = _mollify_by_taps(traj, cfg)
    out = mollify(traj, cfg)
    assert np.array_equal(out.t, t_ref)
    pairs = [(out.x, x_ref)] + [(getattr(out, n), a) for n, a in channels_ref.items()]
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 1.0 / 30.0, 1e-2 * (1.0 + 1e-13)])
def test_mollify_matches_query_reference(dt):
    # eps = 1/n_smooth is a whole multiple of dt for (1e-2, 25), (1/30, 3),
    # (1/30, 10), and within roundoff of one for dt = 1e-2 (1 + 1e-13)
    traj = _random_traj(dt, 0.25)
    for n_smooth in (3, 10, 25, 32):
        for quad_points in (4, 6):
            _assert_mollify_matches_reference(
                traj, MollifierConfig(n_smooth=n_smooth, quad_points=quad_points))


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_mollify_verdict_does_not_depend_on_roundoff_in_dt(t0):
    # a kernel quadrature gated on its own mass once raised for some of these
    # dt and not for others that differ from them only in the last bits
    for dt in (1e-2, 1e-2 * (1.0 - 1e-13), 1e-2 * (1.0 + 1e-13), 1.0 / 30.0):
        traj = _random_traj(dt, t0)
        for n_smooth in (3, 10, 25):
            _assert_mollify_matches_reference(traj, MollifierConfig(n_smooth=n_smooth, quad_points=4))


@pytest.mark.parametrize("quad_points", [3, 4, 5])
def test_mollify_is_shift_invariant(forced, quad_points):
    # for odd quad_points a Gauss node sits on every channel jump; the
    # interval that gets its weight must not change from row to row
    dt, m, cfg = 1e-2, 200, MollifierConfig(n_smooth=3, quad_points=quad_points)
    impulses = np.zeros((2, m, 1))
    impulses[0, 100], impulses[1, 101] = 1.0, 1.0
    outs = [mollify(make_traj(forced, np.zeros((m + 1, 2)), dt=dt, f_p=u, e_p=u), cfg)
            for u in impulses]
    assert outs[0].f_p[:, 0].max() > 0.0
    assert np.array_equal(outs[0].f_p[:-1], outs[1].f_p[1:])
    assert np.array_equal(outs[0].e_p[:-1], outs[1].e_p[1:])


def test_mollify_stencil_never_wraps_outside_the_data():
    values = np.arange(6.0)[:, None]
    assert _apply_stencil(values, 0, 5, np.array([0.5, 0.5]))[:, 0].tolist() == [
        0.5, 1.5, 2.5, 3.5, 4.5]
    for lo, rows in ((-1, 3), (1, 5)):
        with pytest.raises(pk.StructureError):
            _apply_stencil(values, lo, rows, np.array([0.5, 0.5]))


def test_mollify_stencil_matches_a_per_tap_sum():
    rng = np.random.default_rng(5)
    values = rng.random((400, 3))
    for n_taps, lo, rows in ((63, 7, 300), (1, 0, 400), (2, 398, 1)):
        taps = rng.random(n_taps)
        taps /= taps.sum()
        ref = sum(w * values[lo + o:lo + o + rows] for o, w in enumerate(taps))
        np.testing.assert_allclose(_apply_stencil(values, lo, rows, taps), ref, rtol=1e-14, atol=0.0)
    assert _apply_stencil(np.zeros((10, 0)), 0, 8, np.full(3, 1.0 / 3.0)).shape == (8, 0)


def test_mollified_trajectory_near_structure(damped):
    # mollified weakly-valid data satisfies the inclusion pointwise up to
    # discretization error, measured by distance_to_structure
    def max_distance(dt):
        traj = simulate(damped, [1.0, 0.0], None, (0.0, 2.0), SchemeConfig(dt=dt))
        out = mollify(traj, MollifierConfig(n_smooth=25, quad_points=6))
        h = out.dt
        worst = 0.0
        fr_nodes = 0.5 * (out.f_r[:-1] + out.f_r[1:])
        er_nodes = 0.5 * (out.e_r[:-1] + out.e_r[1:])
        for k in range(1, out.t.size - 1):
            xdot = (out.x[k + 1] - out.x[k - 1]) / (2 * h)
            f = np.concatenate([-xdot, fr_nodes[k - 1]])
            e = np.concatenate([pk.ham_grad(damped.ham, out.x[k]), er_nodes[k - 1]])
            worst = max(worst, pk.distance_to_structure(damped.dirac, pk.BondVector(f, e)))
        return worst

    coarse, fine = max_distance(1e-3), max_distance(5e-4)
    assert coarse <= 1e-3
    assert fine < coarse


def test_mollified_quadratic_energy_identity(damped):
    # quadratic energy: the mollified data satisfies the balance identity up
    # to the interval-quadrature error only (no discrete-gradient correction)
    gaps = []
    for dt in (1e-3, 5e-4):
        traj = simulate(damped, [1.0, 0.0], None, (0.0, 2.0), SchemeConfig(dt=dt))
        out = mollify(traj, MollifierConfig(n_smooth=25))
        gaps.append(energy_report(damped, out).max_abs_gap)
    assert gaps[0] <= 1e-10
    assert gaps[1] < gaps[0]


def test_strong_audit_smooth_floor_is_first_order(damped):
    # piecewise-constant channels paired pointwise with node data: O(dt) floor
    audits = []
    for dt in (1e-3, 5e-4):
        traj = simulate(damped, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig(dt=dt))
        audits.append(strong_trajectory_audit(damped, traj).max_defect)
    assert audits[0] < 1e-3
    assert 1.5 <= audits[0] / audits[1] <= 2.5


def _audit_cases():
    damped = pk.damped_oscillator(1.0)
    diffusion, _ = pk.diffusion_system(pk.DiffusionSpec(N=6))
    parametric = pk.assemble(damped.dirac, damped.ham,
                             pk.Parametric(A=[[1.0]], B=[[-1.0]]), ())
    modulated = pk.assemble(
        damped.dirac, damped.ham,
        pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1), (),
    )
    string, _ = pk.make_example("string", N=8, force="tanh")
    bump = np.concatenate([np.zeros(9), 0.5 * np.exp(-((np.arange(8) - 3.5) / 2.0) ** 2)])
    return {
        "damped": (damped, [1.0, 0.0], None),
        "diffusion": (diffusion, np.linspace(-1.0, 2.0, 6), {0: 0.3}),
        "parametric": (parametric, [1.0, 0.0], None),
        "modulated": (modulated, [1.0, 0.0], None),
        "string": (string, bump, {1: 0.2}),
    }


@pytest.mark.parametrize("name", ["damped", "diffusion", "parametric", "modulated", "string"])
def test_strong_audit_matches_per_node_reference(name):
    sys_, x0, inputs = _audit_cases()[name]
    traj = simulate(sys_, x0, inputs, (0.0, 0.2), SchemeConfig(dt=1e-2))
    audit = strong_trajectory_audit(sys_, traj)
    reference = [
        pk.strong_residual(sys_, traj.x[k], (traj.x[k + 1] - traj.x[k - 1]) / (2 * traj.dt),
                           f_r=traj.f_r[k - 1], e_r=traj.e_r[k - 1],
                           f_p=traj.f_p[k - 1], e_p=traj.e_p[k - 1])
        for k in range(1, traj.steps)
    ]
    for got, want in ((audit.dirac_defects, [r.dirac_defect for r in reference]),
                      (audit.resistive_defects, [r.resistive_defect for r in reference])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * audit.normalization)


def test_strong_audit_argmax_includes_resistive_defects():
    # a damping-1 run audited against damping 3: the resistive defect dominates
    traj = simulate(pk.damped_oscillator(1.0), [1.0, 0.0], None, (0.0, 2.0),
                    SchemeConfig(dt=1e-2))
    audit = strong_trajectory_audit(pk.damped_oscillator(3.0), traj)
    k = int(np.argmax(audit.resistive_defects))
    assert audit.max_defect == audit.resistive_defects[k] > np.max(audit.dirac_defects)
    assert audit.argmax_time == audit.t[k]
    assert audit.argmax_time == pytest.approx(1.21)


# --- blocked audits against whole-trajectory references ---------------------

_LO, _HI = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)


def _abs_max_reference(traj):
    return float(max(np.max(np.abs(a)) for a in (traj.x, traj.f_r, traj.e_r, traj.f_p, traj.e_p)
                     if a.size))


def _weak_unblocked(sys_, traj):
    """The weak residual table in one pass over the whole trajectory."""
    half_dt, x = 0.5 * traj.dt, traj.x
    grad_lo = sys_.ham.gradient((1.0 - _LO) * x[:-1] + _LO * x[1:])
    grad_hi = sys_.ham.gradient((1.0 - _HI) * x[:-1] + _HI * x[1:])
    rising = _LO * grad_lo + _HI * grad_hi
    falling = (1.0 - _LO) * grad_lo + (1.0 - _HI) * grad_hi
    x_mid = 0.5 * (x[:-1] + x[1:])
    tested = lambda c: half_dt * (c[:-1] + c[1:]).T
    raw = sys_.dirac.residual(
        np.vstack([(x_mid[:-1] - x_mid[1:]).T, tested(traj.f_r), tested(traj.f_p)]).T,
        np.vstack([half_dt * (rising[:-1] + falling[1:]).T, tested(traj.e_r), tested(traj.e_p)]).T)
    return np.abs(raw) / (traj.dt * (1.0 + _abs_max_reference(traj)))


def _energy_unblocked(sys_, traj):
    """(energy, dH, dissipated, supplied, gap) in one pass over the whole trajectory."""
    h = sys_.ham.value(traj.x)
    dh = np.diff(h)
    zeros = np.zeros(traj.steps)
    dissipated = traj.dt * np.einsum("ij,ij->i", traj.f_r, traj.e_r) if sys_.n_r else zeros
    supplied = traj.dt * np.einsum("ij,ij->i", traj.f_p, traj.e_p) if sys_.n_p else zeros
    return h, dh, dissipated, supplied, dh - dissipated - supplied


def _strong_unblocked(sys_, traj):
    """Pointwise Dirac defects at every interior node in one pass."""
    xdot = (traj.x[2:] - traj.x[:-2]) / (2.0 * traj.dt)
    flows = np.hstack([-xdot, traj.f_r[:-1], traj.f_p[:-1]])
    efforts = np.hstack([sys_.ham.gradient(traj.x[1:-1]), traj.e_r[:-1], traj.e_p[:-1]])
    return np.linalg.norm(sys_.dirac.residual(flows, efforts), axis=1)


def _blocked_cases():
    string, grid = pk.make_example("string", N=64, force="tanh")
    x0 = np.concatenate([np.zeros(65), 0.3 * np.sin(np.pi * grid["h"] * (np.arange(64) + 0.5))])
    return {
        "string": (string, x0, {1: lambda t: 0.3 * np.sin(2.0 * t)}, 2.0),
        "damped": (pk.damped_oscillator(1.0), [1.0, 0.0], None, 30.0),
    }


@pytest.mark.parametrize("name", ["string", "damped"])
def test_blocked_audits_match_the_unblocked_reference(name):
    from phs_kit.system import _row_blocks

    sys_, x0, inputs, t_end = _blocked_cases()[name]
    traj = simulate(sys_, x0, inputs, (0.0, t_end), SchemeConfig(dt=1e-3))
    assert len(_row_blocks(traj.steps - 1, sys_.n)) > 2
    weak = weak_residual(sys_, traj)
    want = _weak_unblocked(sys_, traj)
    assert np.array_equal(weak.residuals, want) and weak.max_residual == want.max()
    energy = energy_report(sys_, traj)
    h, dh, dissipated, supplied, gap = _energy_unblocked(sys_, traj)
    for got, ref in ((energy.energy, h), (energy.dH, dh), (energy.dissipated, dissipated),
                     (energy.supplied, supplied), (energy.gap, gap)):
        assert np.array_equal(got, ref)
    assert energy.max_abs_gap == np.max(np.abs(gap))
    assert energy.ineq_defect == np.max(dh - supplied)
    assert energy.cumulative_gap == np.sum(gap)
    # the pointwise norms are taken per block with np.linalg.norm, row by row as before
    audit = strong_trajectory_audit(sys_, traj)
    assert np.array_equal(audit.dirac_defects, _strong_unblocked(sys_, traj))


def test_row_blocks_cover_in_order_with_balanced_lengths():
    from phs_kit.system import _BLOCK_CELLS, _row_blocks

    for rows, width in ((0, 5), (1, 5), (7, _BLOCK_CELLS), (29999, 3), (299, 1027), (300, 10 ** 6)):
        blocks = _row_blocks(rows, width)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
        sizes = [b.stop - b.start for b in blocks]
        assert all(0 < s <= max(1, _BLOCK_CELLS // width) for s in sizes)
        assert not sizes or max(sizes) - min(sizes) <= 1


def test_channel_magnitude_is_bit_identical_to_the_max_of_abs():
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal((40, 3)), -np.abs(rng.standard_normal((40, 3))),
             np.zeros((40, 3)), np.full((40, 3), -0.0), np.array([[1.0, np.nan]] * 40)]
    for x in cases:
        traj = make_traj(pk.oscillator(), x)
        got, want = traj.channel_magnitude(), _abs_max_reference(traj)
        assert np.array_equal(np.array(got), np.array(want), equal_nan=True)
        assert np.signbit(got) == np.signbit(want)
