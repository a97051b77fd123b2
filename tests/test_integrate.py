import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgecon
from scipy.optimize import minimize

import phs_kit as pk
from phs_kit import SchemeConfig, consistent_init, simulate
from phs_kit.integrate import _AffineStep, _NewtonStep, _aux_block, _fd_jacobian


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


@pytest.mark.parametrize("make, curve", [
    (tanh_pair_system, lambda x: x[1] - math.tanh(x[0])),
    (turning_damper_system, turning_constraint),
])
def test_consistent_init_matches_slsqp_on_a_nonlinear_constraint(make, curve):
    guess = np.array([1.0, 0.0])
    x0, report = consistent_init(make(), guess)
    ref = minimize(
        lambda x: 0.5 * np.sum((x - guess) ** 2), guess, jac=lambda x: x - guess,
        constraints={"type": "eq", "fun": curve}, method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 200},
    )
    assert ref.success
    assert report.projected and report.converged
    assert abs(curve(x0)) <= 1e-10
    assert np.max(np.abs(x0 - ref.x)) <= 1e-8
    assert report.distance == pytest.approx(np.linalg.norm(ref.x - guess), abs=1e-8)


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


def diffusion_case():
    sys_, _ = pk.make_example("diffusion", N=16)
    x0 = np.sin(np.arange(16.0))
    return sys_, x0, {0: 0.3, 1: lambda t: -0.2 * math.sin(3.0 * t)}


def affine_cases():
    diffusion, x0_diffusion, u_diffusion = diffusion_case()
    return {
        "damped": (pk.damped_oscillator(1.0), [1.0, 0.0], None),
        "forced_sin": (pk.forced_oscillator(), [0.6, -0.8], {0: sin_force}),
        "diffusion_16": (diffusion, x0_diffusion, u_diffusion),
        "parametric": (parametric_damper(), [1.0, 0.5], None),
    }


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
@pytest.mark.parametrize("case", ["damped", "forced_sin", "diffusion_16", "parametric"])
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


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_newton_step_jacobian_matches_central_differences(scheme):
    sys_, grid = pk.make_example("string", N=8, force="tanh")
    rng = np.random.default_rng(7)
    cells = grid["h"] * (np.arange(8) + 0.5)
    x0 = np.concatenate([0.1 * rng.standard_normal(9), 0.4 * np.sin(np.pi * cells)])
    effort_prescribed = np.array([c == "effort" for c in sys_.causality])
    step = _NewtonStep(sys_, scheme == "discrete_gradient", effort_prescribed, 1e-2,
                       np.array([[0.3, -0.2]]))
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


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "discrete_gradient"])
def test_newton_step_jacobian_is_the_sparse_dense_assembly(scheme):
    sys_, grid = pk.make_example("string", N=8, force="tanh")
    rng = np.random.default_rng(7)
    x0 = np.concatenate([0.1 * rng.standard_normal(9),
                         0.4 * np.sin(np.pi * grid["h"] * (np.arange(8) + 0.5))])
    effort_prescribed = np.array([c == "effort" for c in sys_.causality])
    step = _NewtonStep(sys_, scheme == "discrete_gradient", effort_prescribed, 1e-2,
                       np.array([[0.3, -0.2]]))
    step.start(0, x0)
    x1 = x0 + 0.05 * rng.standard_normal(x0.size)
    jac = step.jacobian(np.concatenate([x1, rng.standard_normal(sys_.n - x0.size)]))
    assert scipy.sparse.issparse(jac) and jac.format == "csc"
    d = sys_.dirac
    dense = np.hstack([-d.F_s / step.dt + d.G_s @ _fd_jacobian(step.gradient, x1),
                       _aux_block(sys_, effort_prescribed, 0.5 * (x0 + x1))])
    assert np.max(np.abs(jac.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_sparse_condition_estimate_matches_dgecon():
    sys_, grid = pk.make_example("string", N=8, force="tanh")
    x0 = np.concatenate([np.zeros(9), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(8) + 0.5))])
    inputs = {1: lambda t: 0.2 * math.sin(2.0 * t)}
    traj = simulate(sys_, x0, inputs, (0.0, 0.05), SchemeConfig(dt=1e-2))
    condition = traj.metadata["jacobian_condition"]
    assert type(condition) is float
    # the first factorization happens at the predictor of step 0
    effort_prescribed = np.array([c == "effort" for c in sys_.causality])
    step = _NewtonStep(sys_, False, effort_prescribed, traj.dt,
                       np.array([[inputs[1](0.5 * traj.dt) if i == 1 else 0.0
                                  for i in range(sys_.n_p)]]))
    step.start(0, x0)
    dense = step.jacobian(np.concatenate([x0, np.zeros(sys_.n - sys_.n_s)])).toarray()
    rcond, _ = dgecon(scipy.linalg.lu_factor(dense)[0], np.linalg.norm(dense, 1))
    assert condition == pytest.approx(1.0 / rcond, rel=1e-12)


def test_simulate_leaves_the_global_rng_alone():
    sys_, grid = pk.make_example("string", N=64, force="tanh")
    x0 = np.concatenate([np.zeros(65), 0.4 * np.sin(np.pi * grid["h"] * (np.arange(64) + 0.5))])
    before = np.random.get_state()
    simulate(sys_, x0, {1: lambda t: 0.2 * math.sin(2.0 * t)}, (0.0, 0.01), SchemeConfig())
    after = np.random.get_state()
    assert after[0] == before[0] and np.array_equal(after[1], before[1])
    assert after[2:] == before[2:]


@pytest.mark.parametrize("defect", ["zero_row", "nan_entry"])
@pytest.mark.parametrize("step_cls", [_AffineStep, _NewtonStep])
def test_broken_step_jacobian_raises_newton_error(monkeypatch, step_cls, defect):
    damped = pk.damped_oscillator(1.0)
    sys_ = damped if step_cls is _AffineStep else as_general(damped)
    jacobian = step_cls.jacobian

    def broken(self, z):
        jac = jacobian(self, z)
        sparse = scipy.sparse.issparse(jac)
        dense = jac.toarray() if sparse else jac.copy()
        if defect == "zero_row":
            dense[1] = 0.0
        else:
            dense[0, 0] = math.nan
        return scipy.sparse.csc_array(dense) if sparse else dense

    monkeypatch.setattr(step_cls, "jacobian", broken)
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
