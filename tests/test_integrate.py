import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dgecon
from scipy.optimize import root_scalar

import phs_kit as pk
from phs_kit import SchemeConfig, consistent_init, simulate
from phs_kit.discretize import NamedForce
from phs_kit.integrate import _CHUNK, _CHUNK_CELLS, _NewtonSolver, _StepMap, _aux_block, _channels


def closed_form_oscillator(t):
    return np.array([np.cos(t), -np.sin(t)])


def constrained_pair_system():
    """State 1 carries dynamics, state 2 sits on an algebraic constraint e_2 = 0."""
    f_mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    g_mat = np.array([[0.0, 0.0], [0.0, 1.0]])
    dirac = pk.DiracKernelRep(F=f_mat, G=g_mat, n_s=2)
    return pk.assemble(dirac, pk.QuadraticHamiltonian(H=np.eye(2)), None, ())


def potential_splitter():
    """One state tied to two prescribed potentials: contradictory inputs possible."""
    f_mat = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    g_mat = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    dirac = pk.DiracKernelRep(F=f_mat, G=g_mat, n_s=1, n_p=2)
    return pk.assemble(dirac, pk.QuadraticHamiltonian(H=np.eye(1)), None, ("effort", "effort"))


def test_scheme_config_validation():
    with pytest.raises(pk.StructureError):
        SchemeConfig(dt=0.0)
    with pytest.raises(pk.StructureError):
        SchemeConfig(scheme="forward_euler")
    with pytest.raises(pk.StructureError):
        SchemeConfig(newton_tol=-1.0)


@pytest.mark.parametrize("max_iter", [2.5, math.nan, 3.0, True, 0, "5"])
def test_scheme_config_requires_integer_newton_max_iter(max_iter):
    with pytest.raises(pk.StructureError, match="newton_max_iter"):
        SchemeConfig(newton_max_iter=max_iter)


@pytest.mark.parametrize("x0, t1, cfg_kwargs", [
    ([1.0, 0.0], 0.5, {"dt": math.inf}),
    ([1.0, 0.0], 0.5, {"dt": math.nan}),
    ([1.0, 0.0], 0.5, {"newton_tol": math.nan}),
    ([1.0, 0.0], math.nan, {}),
    ([1.0, 0.0], math.inf, {}),
    ([1.0, math.nan], 0.5, {}),
])
def test_simulate_rejects_non_finite_inputs(oscillator, x0, t1, cfg_kwargs):
    with pytest.raises(pk.StructureError):
        simulate(oscillator, x0, None, (0.0, t1), SchemeConfig(**cfg_kwargs))


@pytest.mark.parametrize("t_span, dt", [((-1.7e308, 1.7e308), 1.0), ((0.0, 0.5), 1e-320)])
def test_simulate_refuses_a_step_count_that_is_not_finite(oscillator, t_span, dt):
    # (t1 - t0)/dt overflows to inf: no whole number of steps lands on t1
    with pytest.raises(pk.StructureError, match="not a finite step count"):
        simulate(oscillator, [1.0, 0.0], None, t_span, SchemeConfig(dt=dt))


def test_consistent_init_unconstrained(oscillator):
    x0, report = consistent_init(oscillator, [0.3, -0.7])
    assert x0 == pytest.approx([0.3, -0.7])
    assert report.algebraic_dim == 0
    assert report.distance == 0.0


def test_consistent_init_projects_and_is_idempotent():
    sys_ = constrained_pair_system()
    x0, report = consistent_init(sys_, [1.0, 0.7])
    assert report.projected
    assert x0 == pytest.approx([1.0, 0.0], abs=1e-10)
    assert report.distance == pytest.approx(0.7, abs=1e-10)
    x1, report2 = consistent_init(sys_, x0)
    assert not report2.projected
    assert np.linalg.norm(x1 - x0) <= 1e-10


def tanh_pair_system():
    """The constrained pair with H = x_1^2/2 + (x_2 - tanh x_1)^2/2.

    Its constraint e_2 = 0 is the curve x_2 = tanh x_1.
    """
    energy = pk.GeneralHamiltonian(
        value_fn=lambda x: 0.5 * x[0] ** 2 + 0.5 * (x[1] - np.tanh(x[0])) ** 2,
        gradient_fn=lambda x: np.array([x[0] - (x[1] - np.tanh(x[0])) / np.cosh(x[0]) ** 2,
                                        x[1] - np.tanh(x[0])]),
        dim=2,
    )
    return dataclasses.replace(constrained_pair_system(), ham=energy)


def turning_damper_system():
    """f_R = grad H, and a modulated damper whose flows lie on the line at angle theta(x).

    The Dirac structure is the graph f = J e with f_s = -e_R and f_R = e_s, so
    both resistive rows are algebraic.  The member at x is the image relation
    f_R = lam_1 (c, s), e_R = -2 lam_1 (c, s) + lam_2 (-s, c) with
    theta = 0.3 + 0.5 x_1; with H = |x|^2/2 the constraint curve is
    x_2 cos theta - x_1 sin theta = 0.
    """
    def member(x):
        c, s = math.cos(0.3 + 0.5 * x[0]), math.sin(0.3 + 0.5 * x[0])
        return pk.Parametric(A=[[c, 0.0], [s, 0.0]], B=[[-2.0 * c, -s], [-2.0 * s, c]])

    j = np.zeros((4, 4))
    j[0, 2] = j[1, 3] = -1.0
    j[2, 0] = j[3, 1] = 1.0
    dirac = pk.DiracKernelRep(F=np.eye(4), G=-j, n_s=2, n_r=2)
    return pk.assemble(dirac, pk.QuadraticHamiltonian(H=np.eye(2)),
                       pk.Modulated(family=member, n_r=2), (),
                       resistive_states=[np.zeros(2), np.ones(2)])


def turning_constraint(x):
    theta = 0.3 + 0.5 * x[0]
    return x[1] * math.cos(theta) - x[0] * math.sin(theta)


# both constraint curves are graphs x_2 = phi(x_1): (phi, phi')
GRAPHS = {
    tanh_pair_system: (math.tanh, lambda s: 1.0 - math.tanh(s) ** 2),
    turning_damper_system: (
        lambda s: s * math.tan(0.3 + 0.5 * s),
        lambda s: math.tan(0.3 + 0.5 * s) + 0.5 * s / math.cos(0.3 + 0.5 * s) ** 2,
    ),
}


@pytest.mark.parametrize("make, curve", [
    (tanh_pair_system, lambda x: x[1] - math.tanh(x[0])),
    (turning_damper_system, turning_constraint),
])
def test_consistent_init_matches_slsqp_on_a_nonlinear_constraint(make, curve):
    guess = np.array([1.0, 0.0])
    x0, report = consistent_init(make(), guess)
    # the nearest point minimizes (x_1 - 1)^2 + phi(x_1)^2 over x_1 in [0, 2], where
    # tan has no pole: the bracketed root of half its derivative, which rises
    # through zero once there.  Comparing values instead stops near sqrt(eps).
    phi, slope = GRAPHS[make]
    ref = root_scalar(lambda s: s - 1.0 + phi(s) * slope(s), bracket=(0.0, 2.0), xtol=1e-15)
    assert ref.converged
    nearest = np.array([ref.root, phi(ref.root)])
    assert report.projected and report.converged
    assert abs(curve(x0)) <= 1e-10
    assert np.max(np.abs(x0 - nearest)) <= 1e-8
    assert report.distance == pytest.approx(np.linalg.norm(nearest - guess), abs=1e-8)


def test_consistent_init_rejects_non_finite_guess():
    diffusion, _ = pk.make_example("diffusion", N=8)
    with pytest.raises(pk.StructureError, match="finite"):
        consistent_init(diffusion, np.full(8, np.nan))
    with pytest.raises(pk.StructureError, match="finite"):
        consistent_init(constrained_pair_system(), [math.inf, 0.0])


@pytest.mark.parametrize("signal", [math.nan, math.inf, lambda t: 1.0 if t < 0.05 else -math.inf])
def test_non_finite_prescribed_inputs_are_rejected(forced, signal):
    with pytest.raises(pk.StructureError, match="channel 0"):
        simulate(forced, [0.0, 0.0], {0: signal}, (0.0, 0.1), SchemeConfig(dt=0.01))
    with pytest.raises(pk.StructureError, match="channel 0"):
        consistent_init(potential_splitter(), [0.0], inputs={0: signal, 1: 1.0}, t0=0.1)


def test_consistent_init_contradictory_inputs():
    sys_ = potential_splitter()
    x0, report = consistent_init(sys_, [0.0], inputs={0: 1.0, 1: 1.0})
    assert x0 == pytest.approx([1.0], abs=1e-9)
    with pytest.raises(pk.NewtonError) as err:
        consistent_init(sys_, [0.0], inputs={0: 1.0, 1: 2.0})
    assert "row" in str(err.value)


def test_simulate_oscillator_against_closed_form(oscillator):
    errs = []
    for dt in (2e-3, 1e-3):
        traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 2 * np.pi), SchemeConfig(dt=dt))
        errs.append(np.linalg.norm(traj.x[-1] - closed_form_oscillator(2 * np.pi)))
    assert errs[1] < 1e-5
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_simulate_midpoint_conserves_quadratic_energy(oscillator):
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 3.0), SchemeConfig(dt=1e-3))
    h = 0.5 * np.einsum("ij,ij->i", traj.x, traj.x)
    assert np.max(np.abs(h - h[0])) <= 1e-10


def test_simulate_damped_energy_decreases(damped):
    cfg = SchemeConfig(scheme="discrete_gradient", dt=1e-3)
    traj = simulate(damped, [1.0, 0.0], None, (0.0, 5.0), cfg)
    report = pk.energy_report(damped, traj)
    assert np.all(report.dH <= 1e-14)
    assert report.max_abs_gap <= 1e-10
    assert np.all(report.dissipated <= 1e-14)


def test_simulate_zero_everything_stays_zero(damped):
    traj = simulate(damped, [0.0, 0.0], None, (0.0, 0.5), SchemeConfig(dt=1e-2))
    assert np.max(np.abs(traj.x)) == 0.0
    assert np.max(np.abs(traj.f_r)) == 0.0


def test_simulate_step_residual_bound(oscillator):
    cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 1.0), cfg)
    # scheme co-energy equals grad H at the midpoint for implicit_midpoint,
    # so the stored interval data satisfies the pointwise form to solver tol
    worst = 0.0
    for k in range(traj.steps):
        xdot = (traj.x[k + 1] - traj.x[k]) / traj.dt
        x_mid = 0.5 * (traj.x[k] + traj.x[k + 1])
        res = pk.strong_residual(oscillator, x_mid, xdot)
        worst = max(worst, res.dirac_defect)
    assert worst <= 10 * cfg.newton_tol * (1.0 + 1.5)


def test_simulate_dg_energy_identity_per_step():
    # nonlinear energy: the discrete gradient closes the balance exactly
    spec = pk.StringSpec(N=4, force=lambda xi, eps: np.tanh(eps))
    sys_, grid = pk.string_system(spec)
    x0 = np.concatenate([np.zeros(5), 0.4 * np.sin(np.pi * grid["cells"])])
    cfg = SchemeConfig(scheme="discrete_gradient", dt=1e-3)
    traj = simulate(sys_, x0, None, (0.0, 1.0), cfg)
    report = pk.energy_report(sys_, traj)
    assert report.max_abs_gap <= 1e-10


def test_simulate_dg_second_order():
    # discrete-gradient scheme keeps order 2 on a smooth nonlinear problem;
    # Richardson differences need no reference solution
    spec = pk.StringSpec(N=4, force=lambda xi, eps: np.tanh(eps))
    sys_, grid = pk.string_system(spec)
    x0 = np.concatenate([np.zeros(5), 0.4 * np.sin(np.pi * grid["cells"])])
    cfg = lambda dt: SchemeConfig(scheme="discrete_gradient", dt=dt, newton_tol=1e-11)
    ends = [simulate(sys_, x0, None, (0.0, 0.25), cfg(dt)).x[-1]
            for dt in (2e-3, 1e-3, 5e-4)]
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    assert 3.4 <= d1 / d2 <= 4.6


def test_simulate_reports_conditioning(oscillator):
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 0.1), SchemeConfig(dt=1e-2))
    assert traj.metadata["jacobian_condition"] is not None
    assert traj.metadata["jacobian_condition"] < 1e3
    assert traj.metadata["max_step_residual"] <= 1e-11
    # a dense step Jacobian is inverted, so its 1-norm condition is exact
    step = _StepMap(oscillator, False, traj.dt, np.zeros((1, 0)))
    step.start(0, traj.x[0])
    k_mat = step.jacobian(traj.x[0])
    assert traj.metadata["jacobian_condition"] == pytest.approx(np.linalg.cond(k_mat, 1), rel=1e-12)


def test_simulate_prescribed_flow_and_effort(forced):
    # prescribed force (flow); velocity effort is free
    traj = simulate(forced, [0.0, 0.0], {0: 1.0}, (0.0, 2.0), SchemeConfig(dt=1e-3))
    # constant force drives the state toward the shifted center (u, 0)
    assert np.max(np.abs(traj.x[:, 0])) > 1.0
    assert traj.f_p == pytest.approx(np.ones_like(traj.f_p))
    assert traj.e_p[:, 0] == pytest.approx(
        0.5 * (traj.x[:-1, 1] + traj.x[1:, 1]), abs=1e-9
    )


def test_simulate_newton_failure_reports_step():
    # the energy couples both states, so at dt = 0.5 Newton does not reach
    # the step's root within 8 iterations
    blow_up = pk.GeneralHamiltonian(
        value_fn=lambda x: float(np.exp(10 * x @ x)),
        gradient_fn=lambda x: 20 * x * np.exp(10 * x @ x),
        dim=2,
    )
    dirac = pk.DiracKernelRep(F=np.eye(2), G=np.array([[0.0, 1.0], [-1.0, 0.0]]), n_s=2)
    sys_ = pk.assemble(dirac, blow_up, None, ())
    with pytest.raises(pk.NewtonError) as err:
        simulate(sys_, [1.5, 0.0], None, (0.0, 10.0), SchemeConfig(dt=0.5, newton_max_iter=8))
    assert err.value.step is not None


def test_simulate_modulated_relation():
    # state-dependent damping: stronger when |position| is larger
    damped = pk.damped_oscillator(1.0)
    rel = pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1)
    sys_ = pk.assemble(damped.dirac, damped.ham, rel, (),
                       resistive_states=[np.zeros(2), np.array([2.0, 0.0])])
    traj = simulate(sys_, [1.0, 0.0], None, (0.0, 2.0),
                    SchemeConfig(scheme="discrete_gradient", dt=1e-3))
    report = pk.energy_report(sys_, traj)
    assert report.max_abs_gap <= 1e-10
    assert np.all(report.dissipated <= 1e-14)


def as_general(sys_):
    """The same system with its quadratic energy behind user callables (Newton path)."""
    h = sys_.ham
    general = pk.GeneralHamiltonian(value_fn=h.value, gradient_fn=h.gradient, dim=h.dim)
    return dataclasses.replace(sys_, ham=general)


def parametric_damper():
    """Damped oscillator whose resistive port is the image relation f_R = 2 λ, e_R = -λ."""
    damped = pk.damped_oscillator(1.0)
    return pk.assemble(damped.dirac, damped.ham, pk.Parametric(A=[[2.0]], B=[[-1.0]]), ())


def sin_force(t):
    return 0.3 * math.sin(2.0 * t + 0.5)


def diffusion_case(n_cells=16):
    sys_, _ = pk.make_example("diffusion", N=n_cells)
    x0 = np.sin(np.arange(float(n_cells)))
    return sys_, x0, {0: 0.3, 1: lambda t: -0.2 * math.sin(3.0 * t)}


def affine_cases():
    return {
        "damped": (pk.damped_oscillator(1.0), [1.0, 0.0], None),
        "forced_sin": (pk.forced_oscillator(), [0.6, -0.8], {0: sin_force}),
        "diffusion_16": diffusion_case(),
        # n = 201 >= SPARSE_MIN_N: K is factored by SuperLU
        "diffusion_100": diffusion_case(100),
        "parametric": (parametric_damper(), [1.0, 0.5], None),
    }


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "diffusion_100",
                                  "parametric"])
def test_affine_step_map_matches_newton_reference(case, scheme):
    sys_, x0, inputs = affine_cases()[case]
    cfg = SchemeConfig(scheme=scheme, dt=1e-3)
    fast = simulate(sys_, x0, inputs, (0.0, 2.0), cfg)
    ref = simulate(as_general(sys_), x0, inputs, (0.0, 2.0), cfg)
    assert fast.metadata["step_map"] == "affine"
    assert ref.metadata["step_map"] == "newton"
    for name in ("x", "f_r", "e_r", "f_p", "e_p"):
        expected = getattr(ref, name)
        # rtol per sample, plus the same rtol on the array's scale for
        # samples that cross zero
        np.testing.assert_allclose(getattr(fast, name), expected, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(expected), initial=0.0))


def step_unknowns(sys_, traj):
    """Each step's auxiliary unknowns v = (v_R, v_P), recovered from the channel data."""
    free = np.where(sys_.effort_prescribed, traj.f_p, traj.e_p)
    if sys_.res is None:
        return free
    a, b = sys_.res.linear_maps()
    v_r = np.linalg.lstsq(np.vstack([a, b]), np.hstack([traj.f_r, traj.e_r]).T, rcond=None)[0]
    return np.hstack([v_r.T, free])


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "diffusion_100",
                                  "parametric"])
def test_every_affine_step_meets_the_newton_test(case, scheme):
    sys_, x0, inputs = affine_cases()[case]
    cfg = SchemeConfig(scheme=scheme, dt=1e-3)
    traj = simulate(sys_, x0, inputs, (0.0, 2.0), cfg)
    prescribed = np.where(sys_.effort_prescribed, traj.e_p, traj.f_p)
    step = _StepMap(sys_, scheme == "discrete_gradient", traj.dt, prescribed)
    # z_k = (x_k, v_{k-1}) is step k-1's solution and step k's predictor
    z = np.hstack([traj.x, np.vstack([np.zeros(sys_.n - sys_.n_s), step_unknowns(sys_, traj)])])
    worst = 0.0
    for k in range(traj.steps):
        step.start(k, traj.x[k])
        r, r0 = (np.linalg.norm(step.residual(z[j])) for j in (k + 1, k))
        worst = max(worst, r / (cfg.newton_tol * (1.0 + r0)))
    assert worst <= 1.0


def residual_cases():
    """Every affine case, tanh strings either side of SPARSE_MIN_N and with both causalities,
    and a Modulated relation.
    """
    cases = {name: case[0] for name, case in affine_cases().items()}
    for n_cells in (8, 100):  # n = 19: dense [F | G]; n = 203: CSR [F | G]
        cases[f"tanh_string_{n_cells}"] = pk.make_example("string", N=n_cells, force="tanh")[0]
    cases["tanh_string_mixed"] = pk.string_system(pk.StringSpec(N=8, force=NamedForce("tanh")),
                                                  causality=("effort", "flow"))[0]
    damped = pk.damped_oscillator(1.0)
    cases["modulated"] = pk.assemble(
        damped.dirac, damped.ham,
        pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1), (),
        resistive_states=[np.zeros(2), np.array([2.0, 0.0])])
    return cases


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "diffusion_100",
                                  "parametric", "tanh_string_8", "tanh_string_100",
                                  "tanh_string_mixed", "modulated"])
def test_step_residual_is_the_assembled_bond_vector_product(case, scheme):
    # the step map fills one bond vector and multiplies [F | G] once; the reference
    # concatenates flows and efforts and takes the two products F f + G e
    sys_, dt, use_dg = residual_cases()[case], 1e-3, scheme == "discrete_gradient"
    rng = np.random.default_rng(11)
    step = _StepMap(sys_, use_dg, dt, rng.standard_normal((2, sys_.n_p)))
    abs_f, abs_g = abs(sys_.dirac.F), abs(sys_.dirac.G)
    for k in range(2):
        x0 = rng.standard_normal(sys_.n_s)
        step.start(k, x0)
        for _ in range(3):
            z = rng.standard_normal(sys_.n)
            x1, x_mid = z[: sys_.n_s], 0.5 * (x0 + z[: sys_.n_s])
            f_r, e_r, f_p, e_p = _channels(sys_, z[sys_.n_s:], x_mid, step.u)
            g = pk.discrete_gradient(sys_.ham, x0, x1) if use_dg else pk.ham_grad(sys_.ham, x_mid)
            flows = np.concatenate([-(x1 - x0) / dt, f_r, f_p])
            efforts = np.concatenate([g, e_r, e_p])
            want = sys_.dirac.residual(flows[None], efforts[None])[0]
            scale = abs_f @ np.abs(flows) + abs_g @ np.abs(efforts)
            assert np.all(np.abs(step.residual(z) - want) <= 1e-13 * scale)


def stepwise_reference(sys_, x0, inputs, t1, cfg):
    """The affine steps solved one at a time by Newton, each from (x_k, v_{k-1})."""
    n_steps = round(t1 / cfg.dt)
    dt = t1 / n_steps
    signal = pk.PortSignal.coerce(inputs)
    prescribed = np.array([[signal.value(i, (k + 0.5) * dt) for i in range(sys_.n_p)]
                           for k in range(n_steps)]).reshape(n_steps, sys_.n_p)
    step = _StepMap(sys_, False, dt, prescribed)
    solver = _NewtonSolver(cfg)
    z = np.concatenate([x0, np.zeros(sys_.n - sys_.n_s)])
    x = [x0]
    for k in range(n_steps):
        step.start(k, z[: sys_.n_s])
        z, _ = solver.solve(step, z, k)
        x.append(z[: sys_.n_s])
    return np.array(x)


@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "diffusion_100",
                                  "parametric"])
def test_steps_that_fail_the_certificate_are_newton_solved(monkeypatch, case):
    sys_, x0, inputs = affine_cases()[case]
    cfg = SchemeConfig(dt=1e-3)
    reference = stepwise_reference(sys_, np.asarray(x0, dtype=float), inputs, 0.5, cfg)
    factor = _NewtonSolver.factor
    # the factored K, and so the transition, is off by 1e-9: no step passes
    # the certificate, and each Newton fallback needs a second iteration
    monkeypatch.setattr(_NewtonSolver, "factor", lambda self, jac: factor(self, jac * (1.0 + 1e-9)))
    traj = simulate(sys_, x0, inputs, (0.0, 0.5), cfg)
    assert traj.metadata["newton_iterations"] > traj.steps
    assert traj.metadata["newton_solved_steps"] == traj.steps
    assert traj.metadata["jacobian_rebuilds"] == 1
    np.testing.assert_allclose(traj.x, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference)))


@st.composite
def skew_quadratic_systems(draw):
    """x' = J (H x + b) with J skew and H definite or indefinite, n_s = 2..4 (F = I, G = J)."""
    n = draw(st.integers(2, 4))
    negative = draw(arrays(bool, n))  # the signs of H's eigenvalues
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    # |JH| <= 0.01: modes grow or decay by at most e^3.3 over the 330 time units
    # stepped, so the steps stay clear of their roundoff floor
    j_mat = 0.01 * (a - a.T) / np.linalg.norm(a - a.T, 2)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    h_mat = basis @ np.diag(np.where(negative, -1.0, 1.0) * rng.uniform(0.25, 1.0, n)) @ basis.T
    h_mat = 0.5 * (h_mat + h_mat.T)
    b, x0 = 0.2 * rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    sys_ = pk.assemble(pk.DiracKernelRep(F=np.eye(n), G=j_mat, n_s=n),
                       pk.QuadraticHamiltonian(H=h_mat, b=b), None, ())
    return sys_, j_mat, h_mat, b, x0


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(skew_quadratic_systems())
def test_scanned_recurrence_matches_stepwise_steps(case):
    sys_, j_mat, h_mat, b, x0 = case
    n, dt, n_steps = x0.size, 1e-2, 33_000
    cap, steps_to_cap, length = _CHUNK_CELLS // n, 0, _CHUNK
    while length < cap:
        steps_to_cap, length = steps_to_cap + length, 2 * length
    assert steps_to_cap < n_steps  # the last chunks have the capped length
    cfg = SchemeConfig(dt=dt)
    traj = simulate(sys_, x0, None, (0.0, n_steps * dt), cfg)
    assert traj.metadata["step_map"] == "affine" and traj.steps == n_steps
    # the certificate takes nearly every scanned step: a broken scan fails most
    assert traj.metadata["newton_solved_steps"] <= n_steps // 1000
    x = traj.x
    # Newton's test on every step: r at the step's solution, r0 at its predictor x_k
    r = sys_.dirac.residual(-(x[1:] - x[:-1]) / dt, 0.5 * (x[1:] + x[:-1]) @ h_mat + b)
    r0 = sys_.dirac.residual(np.zeros_like(x[:-1]), x[:-1] @ h_mat + b)
    assert np.all(np.linalg.norm(r, axis=1) <= cfg.newton_tol * (1.0 + np.linalg.norm(r0, axis=1)))
    # stepwise reference x_{k+1} = A x_k + w from (I - dt/2 JH) x_{k+1} = (I + dt/2 JH) x_k + dt J b
    jh = 0.5 * dt * j_mat @ h_mat
    a_mat = np.linalg.solve(np.eye(n) - jh, np.eye(n) + jh)
    w = np.linalg.solve(np.eye(n) - jh, dt * j_mat @ b)
    ref = np.empty_like(x)
    ref[0] = x0
    for k in range(n_steps):
        ref[k + 1] = a_mat @ ref[k] + w
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def test_undamped_oscillator_keeps_energy_and_phase_over_long_chunks(oscillator):
    # |lambda| = 1, and the chunks grow to 8192 steps: the scan's squares reach (A^T)^4096
    traj = simulate(oscillator, [1.0, 0.0], None, (0.0, 20.0), SchemeConfig(dt=1e-3))
    assert traj.steps == 20_000 and traj.metadata["newton_solved_steps"] == 0
    assert pk.energy_report(oscillator, traj).max_abs_gap <= 1e-15
    # implicit midpoint turns the exact rotation by 2 atan(dt / 2) per step
    phase = 2.0 * np.arctan(0.5 * traj.dt) * np.arange(traj.steps + 1)
    np.testing.assert_allclose(traj.x, np.stack([np.cos(phase), -np.sin(phase)], axis=1),
                               rtol=0, atol=5e-12)


def test_newton_tol_below_the_roundoff_floor_stalls(damped):
    with pytest.raises(pk.NewtonError, match="stalled") as err:
        simulate(damped, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig(newton_tol=1e-16))
    assert err.value.step is not None


@pytest.mark.parametrize("case", ["steep_energy", "huge_input"])
def test_a_step_whose_residual_norm_overflows_is_refused(case):
    # ||r0|| overflows at the predictor, where newton_tol (1 + inf) would accept any step
    if case == "steep_energy":
        steep = pk.GeneralHamiltonian(value_fn=lambda x: 5e299 * float(x @ x),
                                      gradient_fn=lambda x: 1e300 * x, dim=2)
        dirac = pk.DiracKernelRep(F=np.eye(2), G=np.array([[0.0, 1.0], [-1.0, 0.0]]), n_s=2)
        sys_, x0, inputs = pk.assemble(dirac, steep, None, ()), [1.0, 0.0], None
    else:
        sys_, x0, inputs = pk.forced_oscillator(), [0.0, 0.0], {0: 1e200}
    with pytest.raises(pk.NewtonError, match="not finite") as err:
        simulate(sys_, x0, inputs, (0.0, 3e-3), SchemeConfig(dt=1e-3))
    assert err.value.step == 0


def test_simulate_refuses_a_relation_whose_unknowns_are_not_n_r(damped):
    # n_r = 1 resistive port, but the image relation f_R = A lam, e_R = B lam has two unknowns
    sys_ = pk.assemble(damped.dirac, damped.ham, pk.Parametric(A=[[1.0, 0.0]], B=[[-1.0, 0.0]]), ())
    with pytest.raises(pk.StructureError, match="needs n_aux = n_r"):
        simulate(sys_, [1.0, 0.0], None, (0.0, 0.01), SchemeConfig())


def test_a_zero_tolerance_stalls_the_affine_scan_at_its_first_step(monkeypatch, damped):
    # the scan's certificate and its Newton fallback read the one tolerance
    monkeypatch.setattr(_NewtonSolver, "tolerance", lambda self, norm0: 0.0 * norm0)
    with pytest.raises(pk.NewtonError, match="stalled") as err:
        simulate(damped, [1.0, 0.0], None, (0.0, 1.0), SchemeConfig())
    assert err.value.step == 0


def test_a_huge_tolerance_accepts_every_newton_predictor(monkeypatch):
    monkeypatch.setattr(_NewtonSolver, "tolerance", lambda self, norm0: 1e300 * (1.0 + norm0))
    sys_, grid = pk.make_example("string", N=8, force="tanh")
    x0 = np.concatenate([np.zeros(9), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(8) + 0.5))])
    traj = simulate(sys_, x0, {1: 0.2}, (0.0, 0.01), SchemeConfig())
    assert traj.metadata["step_map"] == "newton"
    assert traj.metadata["newton_iterations"] == 0 and traj.metadata["jacobian_rebuilds"] == 0
    assert np.array_equal(traj.x, np.broadcast_to(x0, traj.x.shape))


def test_simulate_a_system_without_states():
    # one resistor across one effort-prescribed port: f_R + f_P = 0, e_R = e_P
    dirac = pk.DiracKernelRep(F=[[1.0, 1.0], [0.0, 0.0]], G=[[0.0, 0.0], [1.0, -1.0]],
                              n_s=0, n_r=1, n_p=1)
    sys_ = pk.assemble(dirac, pk.QuadraticHamiltonian(H=np.zeros((0, 0))),
                       pk.LinearGraph(R=[[2.0]]), ("effort",))
    traj = simulate(sys_, np.zeros(0), {0: 1.0}, (0.0, 0.01), SchemeConfig())
    assert traj.x.shape == (11, 0)
    assert np.allclose(traj.e_r, 1.0) and np.allclose(traj.f_p, -traj.f_r)


def test_input_samples_match_the_midpoint_values():
    signal = pk.PortSignal({0: sin_force, 1: lambda t: 1.0 if t < 0.105 else math.nan})
    t0, dt, n_steps = 0.1, 1e-3 / 3, 300
    times = t0 + (np.arange(n_steps) + 0.5) * dt
    expected = [sin_force(t0 + (k + 0.5) * dt) for k in range(n_steps)]
    assert np.array_equal(signal.samples(0, times), expected)
    assert np.array_equal(signal.samples(2, times), np.zeros(n_steps))
    first_bad = next(t for t in times.tolist() if t >= 0.105)
    with pytest.raises(pk.StructureError, match=f"channel 1 is not finite at t = {first_bad}: nan"):
        signal.samples(1, times)


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_newton_step_jacobian_matches_central_differences(scheme):
    sys_, grid = pk.make_example("string", N=8, force="tanh")
    rng = np.random.default_rng(7)
    cells = grid["h"] * (np.arange(8) + 0.5)
    x0 = np.concatenate([0.1 * rng.standard_normal(9), 0.4 * np.sin(np.pi * cells)])
    step = _StepMap(sys_, scheme == "discrete_gradient", 1e-2, np.array([[0.3, -0.2]]))
    step.start(0, x0)
    z = np.concatenate([x0 + 0.05 * rng.standard_normal(x0.size),
                        rng.standard_normal(sys_.n - x0.size)])
    h = 1e-6
    reference = np.column_stack([(step.residual(z + h * e) - step.residual(z - h * e)) / (2 * h)
                                 for e in np.eye(z.size)])
    jac = step.jacobian(z)
    assert np.max(np.abs(jac - reference)) <= 1e-6 * np.max(np.abs(reference))
    # the state block past -F_s/dt, where the energy enters, matches on its own scale
    d = sys_.dirac
    energy_block = reference[:, : x0.size] + d.F_s / step.dt
    assert np.max(np.abs(jac[:, : x0.size] + d.F_s / step.dt - energy_block)) <= (
        1e-6 * np.max(np.abs(energy_block)))


def tanh_string_step_jacobian(n_cells, scheme):
    """A tanh string's Newton step Jacobian at a random point, and its assembly from dense blocks."""
    sys_, grid = pk.make_example("string", N=n_cells, force="tanh")
    rng = np.random.default_rng(7)
    x0 = np.concatenate([0.1 * rng.standard_normal(n_cells + 1),
                         0.4 * np.sin(np.pi * grid["h"] * (np.arange(n_cells) + 0.5))])
    step = _StepMap(sys_, scheme == "discrete_gradient", 1e-2, np.array([[0.3, -0.2]]))
    step.start(0, x0)
    x1 = x0 + 0.05 * rng.standard_normal(x0.size)
    jac = step.jacobian(np.concatenate([x1, rng.standard_normal(sys_.n - x0.size)]))
    d = sys_.dirac
    dense = np.hstack([-d.F_s / step.dt + d.G_s @ step.gradient_jacobian(x1).toarray(),
                       _aux_block(sys_, 0.5 * (x0 + x1))])
    return jac, dense


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_newton_step_jacobian_is_the_sparse_dense_assembly(scheme):
    jac, dense = tanh_string_step_jacobian(100, scheme)  # n = 203 >= SPARSE_MIN_N
    assert scipy.sparse.issparse(jac) and jac.format == "csc"
    assert np.max(np.abs(jac.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_small_newton_step_jacobian_is_the_dense_assembly(scheme):
    jac, dense = tanh_string_step_jacobian(8, scheme)  # n = 19 < SPARSE_MIN_N
    assert type(jac) is np.ndarray
    assert np.max(np.abs(jac - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_sparse_condition_estimate_matches_dgecon():
    sys_, grid = pk.make_example("string", N=100, force="tanh")  # n = 203 >= SPARSE_MIN_N
    x0 = np.concatenate([np.zeros(101), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(100) + 0.5))])
    inputs = {1: lambda t: 0.2 * math.sin(2.0 * t)}
    traj = simulate(sys_, x0, inputs, (0.0, 0.05), SchemeConfig(dt=1e-2))
    condition = traj.metadata["jacobian_condition"]
    assert type(condition) is float
    # the first factorization happens at the predictor of step 0
    step = _StepMap(sys_, False, traj.dt,
                    np.array([[inputs[1](0.5 * traj.dt) if i == 1 else 0.0
                               for i in range(sys_.n_p)]]))
    step.start(0, x0)
    dense = step.jacobian(np.concatenate([x0, np.zeros(sys_.n - sys_.n_s)])).toarray()
    rcond, _ = dgecon(scipy.linalg.lu_factor(dense)[0], np.linalg.norm(dense, 1))
    assert condition == pytest.approx(1.0 / rcond, rel=1e-12)
    assert condition == pytest.approx(np.linalg.cond(dense, 1), rel=1e-12)


def test_simulate_leaves_the_global_rng_alone():
    sys_, grid = pk.make_example("string", N=64, force="tanh")
    x0 = np.concatenate([np.zeros(65), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(64) + 0.5))])
    before = np.random.get_state()
    simulate(sys_, x0, {1: lambda t: 0.2 * math.sin(2.0 * t)}, (0.0, 0.01), SchemeConfig())
    after = np.random.get_state()
    assert after[0] == before[0] and np.array_equal(after[1], before[1])
    assert after[2:] == before[2:]


@pytest.mark.parametrize("defect", ["zero_row", "nan_entry"])
@pytest.mark.parametrize("step_map", ["affine", "newton"])
def test_broken_step_jacobian_raises_newton_error(monkeypatch, step_map, defect):
    damped = pk.damped_oscillator(1.0)
    sys_ = damped if step_map == "affine" else as_general(damped)
    factor = _NewtonSolver.factor

    def broken(self, jac):
        sparse = scipy.sparse.issparse(jac)
        dense = jac.toarray() if sparse else jac.copy()
        if defect == "zero_row":
            dense[1] = 0.0
        else:
            dense[0, 0] = math.nan
        return factor(self, scipy.sparse.csc_array(dense) if sparse else dense)

    monkeypatch.setattr(_NewtonSolver, "factor", broken)
    with pytest.raises(pk.NewtonError) as err:
        simulate(sys_, [0.5, 0.5], None, (0.0, 0.01), SchemeConfig())
    assert err.value.step == 0
    assert not isinstance(err.value.__cause__, scipy.linalg.LinAlgError)


def test_step_map_follows_energy_and_relation():
    damped = pk.damped_oscillator(1.0)
    modulated = pk.assemble(
        damped.dirac, damped.ham,
        pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1), (),
    )
    string, _ = pk.make_example("string", N=4, force="linear")
    expected = {"affine": [pk.oscillator(), damped, pk.forced_oscillator(), parametric_damper()],
                "newton": [modulated, as_general(damped), string]}
    for step_map, systems in expected.items():
        for sys_ in systems:
            traj = simulate(sys_, np.full(sys_.n_s, 0.5), None, (0.0, 0.01), SchemeConfig())
            assert traj.metadata["step_map"] == step_map


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("name", ["damped_oscillator", "forced_oscillator"])
def test_affine_steps_take_one_newton_iteration(name, scheme):
    sys_, _ = pk.make_example(name)
    inputs = {0: sin_force} if sys_.n_p else None
    traj = simulate(sys_, [0.6, -0.8], inputs, (0.0, 5.0), SchemeConfig(scheme=scheme, dt=1e-3))
    assert traj.metadata["newton_iterations"] == traj.steps
    assert traj.metadata["jacobian_rebuilds"] == 1


def test_no_osc_stepping_step_is_newton_solved():
    # the two operations of perfbench's osc_stepping, at three draws of its
    # seeded start angles and force phase: the certificate passes every step
    rng = np.random.default_rng(5)
    for _ in range(3):
        (a, b), phase = rng.uniform(0.0, 2 * math.pi, 2), rng.uniform(0.0, 2 * math.pi)
        damped = simulate(pk.damped_oscillator(), [math.cos(a), math.sin(a)], None, (0.0, 30.0),
                          SchemeConfig(dt=1e-3))
        forced = simulate(pk.forced_oscillator(), [math.cos(b), math.sin(b)],
                          {0: lambda t: 0.3 * math.sin(2.0 * t + phase)}, (0.0, 10.0),
                          SchemeConfig("discrete_gradient", 1e-3))
        assert damped.steps == 30_000 and forced.steps == 10_000
        assert damped.metadata["newton_solved_steps"] == forced.metadata["newton_solved_steps"] == 0


def test_dg_forced_oscillator_near_moving_equilibrium():
    # the state passes close to the force's moving equilibrium, where steps
    # are short: a discrete gradient that divides by |x1 - x0|^2 would stall
    # Newton at its roundoff floor
    force = {0: lambda t: 0.88 * math.sin(2.5 * t + 1.1)}
    sys_ = pk.forced_oscillator()
    cfg = SchemeConfig(scheme="discrete_gradient", dt=1e-3)
    traj = simulate(sys_, [-0.84, 0.21], force, (0.0, 10.0), cfg)
    assert traj.steps == 10_000
    assert pk.energy_report(sys_, traj).max_abs_gap <= 1e-12


def test_dg_shaken_tanh_string_at_n128():
    # at this size the step's roundoff floor sits near newton_tol, so the
    # discrete gradient must not amplify roundoff (dividing by |x1 - x0|^2 does)
    sys_, _ = pk.make_example("string", N=128, force="tanh")
    cells = (np.arange(128) + 0.5) / 128
    x0 = np.concatenate([np.zeros(129), 0.3 * np.sin(np.pi * cells)])
    shake = {1: lambda t: 0.3 * np.sin(2.0 * t)}
    traj = simulate(sys_, x0, shake, (0.0, 0.3), SchemeConfig("discrete_gradient", 1e-3))
    assert traj.steps == 300
    assert traj.metadata["jacobian_rebuilds"] == 1
    assert pk.energy_report(sys_, traj).max_abs_gap <= 1e-12


def _sparse_or_dense_cases():
    string, grid = pk.make_example("string", N=8, force="tanh")
    bump = np.concatenate([np.zeros(9), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(8) + 0.5))])
    diffusion, _ = pk.make_example("diffusion", N=8)
    return {
        "string": (string, bump, {1: lambda t: 0.3 * math.sin(2.0 * t)}),
        "diffusion": (diffusion, np.linspace(-1.0, 2.0, 8), {0: 0.3}),
        "damped": (pk.damped_oscillator(1.0), [1.0, 0.0], None),
        "forced": (pk.forced_oscillator(), [0.3, -0.2], {0: lambda t: math.sin(3.0 * t)}),
    }


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("case", ["string", "diffusion", "damped", "forced"])
def test_dense_and_sparse_structures_give_equal_trajectories(case, scheme):
    sys_, x0, inputs = _sparse_or_dense_cases()[case]
    runs = []
    for form in (lambda a: a.toarray() if scipy.sparse.issparse(a) else a, scipy.sparse.csr_array):
        d = sys_.dirac
        rep = pk.DiracKernelRep(F=form(d.F), G=form(d.G), n_s=d.n_s, n_r=d.n_r, n_p=d.n_p)
        system = pk.assemble(rep, sys_.ham, sys_.res, sys_.causality)
        runs.append(simulate(system, x0, inputs, (0.0, 0.5), SchemeConfig(scheme, dt=1e-2)))
    dense_run, sparse_run = runs
    for name in ("x", "f_r", "e_r", "f_p", "e_p"):
        assert np.array_equal(getattr(dense_run, name), getattr(sparse_run, name))
    assert dense_run.metadata == sparse_run.metadata


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_dense_stored_structure_from_sparse_min_n_keeps_sparse_products(scheme):
    # a dense-list file of a large string: dense residual products would cost O(n^2) per
    # bond vector, several times the CSR products at N = 512
    string, grid = pk.make_example("string", N=128, force="tanh")
    assert string.n >= pk.dirac.SPARSE_MIN_N
    bump = np.concatenate([np.zeros(129), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(128) + 0.5))])
    runs = []
    for form in (lambda a: a.toarray(), scipy.sparse.csr_array):
        d = string.dirac
        rep = pk.DiracKernelRep(F=form(d.F), G=form(d.G), n_s=d.n_s, n_r=d.n_r, n_p=d.n_p)
        assert all(scipy.sparse.issparse(block) for block in rep._product_blocks)
        system = pk.assemble(rep, string.ham, string.res, string.causality)
        inputs = {1: lambda t: 0.3 * math.sin(2.0 * t)}
        runs.append(simulate(system, bump, inputs, (0.0, 0.5), SchemeConfig(scheme, dt=1e-2)))
    dense_run, sparse_run = runs
    for name in ("x", "f_r", "e_r", "f_p", "e_p"):
        assert np.array_equal(getattr(dense_run, name), getattr(sparse_run, name))
    assert dense_run.metadata == sparse_run.metadata


def test_channel_build_holds_no_trajectory_sized_temporary():
    # diffusion N = 256 over 5000 steps stores 30.8 MB; building the channels
    # in one piece held the midpoint states and -(f_R @ R.T) besides, a
    # tracemalloc peak of 43.5 MB
    sys_, _ = pk.make_example("diffusion", N=256)
    tracemalloc.start()
    try:
        traj = simulate(sys_, np.sin(np.arange(256.0)), None, (0.0, 5.0), SchemeConfig(dt=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(getattr(traj, name).nbytes for name in ("t", "x", "f_r", "e_r", "f_p", "e_p"))
    assert peak <= 1.1 * stored
    assert np.array_equal(traj.e_r, sys_.res.effort(traj.f_r))  # the relation applied in one piece


@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "parametric"])
def test_channels_do_not_depend_on_the_row_block(case, monkeypatch):
    sys_, x0, inputs = affine_cases()[case]
    runs = [simulate(sys_, x0, inputs, (0.0, 2.0), SchemeConfig(dt=1e-3))]
    monkeypatch.setattr(pk.system, "_BLOCK_CELLS", 64)  # blocks of 1 to 21 rows
    runs.append(simulate(sys_, x0, inputs, (0.0, 2.0), SchemeConfig(dt=1e-3)))
    for name in ("x", "f_r", "e_r", "f_p", "e_p"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
