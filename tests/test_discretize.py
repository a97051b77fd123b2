import math
import warnings

import numpy as np
import pytest
import scipy.sparse

import phs_kit as pk
from phs_kit._linalg import dense
from phs_kit import DiffusionSpec, StringSpec, diffusion_system, psi_potential, string_system
from phs_kit.discretize import NamedForce


def tanh_force(xi, eps):
    return np.tanh(eps)


def string_state(grid, amp=0.3):
    return np.concatenate([np.zeros(grid["nodes"].size), amp * np.sin(np.pi * grid["cells"])])


def test_psi_potential_linear_exact():
    assert psi_potential(lambda xi, e: e, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert psi_potential(lambda xi, e: e, 0.0, 0.0) == 0.0


def test_psi_potential_tanh_closed_form():
    got = psi_potential(tanh_force, 0.0, 1.0)
    assert got == pytest.approx(math.log(math.cosh(1.0)), abs=1e-10)


def test_psi_potential_matches_simpson_oracle():
    # independent composite-Simpson quadrature of the strain integral
    def simpson(force, xi, eps, panels=2000):
        z = np.linspace(0.0, eps, 2 * panels + 1)
        vals = force(xi, z)
        h = eps / (2 * panels)
        return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())

    for eps in (0.3, 1.0, -1.7, 2.5):
        expected = simpson(tanh_force, 0.0, eps)
        assert psi_potential(tanh_force, 0.0, eps) == pytest.approx(expected, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("kind", ["linear", "tanh"])
def test_named_force_potential_matches_quadrature(kind):
    force = NamedForce(kind, 0.7)
    eps = np.concatenate([-np.geomspace(1e-6, 5.0, 40), [0.0], np.geomspace(1e-6, 5.0, 40)])
    closed = force.potential(eps)
    quadrature = psi_potential(force, 0.0, eps)
    assert np.all(np.abs(closed - quadrature) <= 1e-13 * np.abs(quadrature))


def test_tanh_potential_is_finite_at_large_strain():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        psi = NamedForce("tanh").potential(np.array([-800.0, 800.0]))
    assert np.array_equal(psi, [800.0 - math.log(2.0)] * 2)


@pytest.mark.parametrize("force", [NamedForce("tanh", 0.5), NamedForce("linear"),
                                   lambda xi, eps: (1.0 + xi) * eps ** 3])
def test_string_energy_batch_matches_single_states(force, rng):
    ham = string_system(StringSpec(N=7, force=force, rho=lambda xi: 1.0 + xi))[0].ham
    batch = rng.standard_normal((6, ham.dim))
    singles = [ham.gradient(x) for x in batch]
    assert np.array_equal(ham.gradient(batch), np.stack(singles))
    values = np.array([ham.value(x) for x in batch])
    assert ham.value(batch) == pytest.approx(values, rel=1e-14, abs=0.0)


def test_discretizer_matrices_at_n3():
    k = 1.0 / (1.0 / 3)
    string, _ = string_system(StringSpec(N=3))
    f_string = np.zeros((9, 9))
    f_string[:7, :7] = np.eye(7)
    f_string[0, 7] = f_string[3, 8] = 1.0
    g_string = np.array([
        [0, 0, 0, 0, k, 0, 0, 0, 0],
        [0, 0, 0, 0, -k, k, 0, 0, 0],
        [0, 0, 0, 0, 0, -k, k, 0, 0],
        [0, 0, 0, 0, 0, 0, -k, 0, 0],
        [-k, k, 0, 0, 0, 0, 0, 0, 0],
        [0, -k, k, 0, 0, 0, 0, 0, 0],
        [0, 0, -k, k, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 1],
    ])
    assert scipy.sparse.issparse(string.dirac.F) and scipy.sparse.issparse(string.dirac.G)
    assert np.array_equal(string.dirac.F.toarray(), f_string)
    assert np.array_equal(string.dirac.G.toarray(), g_string)
    diffusion, _ = diffusion_system(DiffusionSpec(N=3))
    k2 = 1.0 / ((1.0 / 3) * (1.0 / 3))
    g_diffusion = np.array([
        [0, 0, 0, -k2, 0, k, 0],
        [0, 0, 0, k2, -k2, 0, 0],
        [0, 0, 0, 0, k2, 0, k],
        [k2, -k2, 0, 0, 0, 0, 0],
        [0, k2, -k2, 0, 0, 0, 0],
        [-k, 0, 0, 0, 0, 0, 0],
        [0, 0, -k, 0, 0, 0, 0],
    ])
    assert scipy.sparse.issparse(diffusion.dirac.F) and scipy.sparse.issparse(diffusion.dirac.G)
    assert np.array_equal(diffusion.dirac.F.toarray(), np.eye(7))
    assert np.array_equal(diffusion.dirac.G.toarray(), g_diffusion)


def test_string_small_case_structure():
    sys_, grid = string_system(StringSpec(N=2))
    assert sys_.n == 7
    report = pk.validate_kernel(sys_.dirac)
    assert report.passed
    assert report.skew_defect <= 1e-14
    assert grid["masses"] == pytest.approx([0.25, 0.5, 0.25])


def test_string_spec_validation():
    with pytest.raises(pk.StructureError):
        StringSpec(N=1)
    with pytest.raises(pk.StructureError):
        string_system(StringSpec(N=4, rho=lambda xi: xi - 0.5))  # nonpositive density


def test_string_hamiltonian_gradient_consistent(rng):
    spec = StringSpec(N=5, force=tanh_force, rho=lambda xi: 1.0 + 0.5 * xi)
    sys_, _ = string_system(spec)
    points = [rng.standard_normal(sys_.n_s) for _ in range(20)]
    assert pk.check_gradient(sys_.ham, points) < 1e-6


def test_string_energy_value_matches_quadrature_oracle():
    # tanh string: cell potential equals log(cosh(eps)) exactly
    spec = StringSpec(N=3, force=tanh_force)
    sys_, grid = string_system(spec)
    p = np.array([0.1, -0.2, 0.3, 0.0])
    e = np.array([0.5, -1.0, 2.0])
    x = np.concatenate([p, e])
    h = grid["h"]
    expected = 0.5 * np.sum(p * p / grid["masses"]) + h * np.sum(np.log(np.cosh(e)))
    assert pk.ham_eval(sys_.ham, x) == pytest.approx(expected, rel=1e-10)


def test_string_clamped_conserves_energy():
    sys_, grid = string_system(StringSpec(N=8))
    x0 = string_state(grid)
    traj = pk.simulate(sys_, x0, None, (0.0, 1.0), pk.SchemeConfig(dt=1e-3))
    h_vals = pk.energy_report(sys_, traj).energy
    assert np.max(np.abs(h_vals - h_vals[0])) <= 1e-10


def test_string_tanh_balance_gap():
    spec = StringSpec(N=8, force=tanh_force)
    sys_, grid = string_system(spec)
    x0 = string_state(grid)
    cfg = pk.SchemeConfig(scheme="discrete_gradient", dt=1e-3)
    traj = pk.simulate(sys_, x0, None, (0.0, 1.0), cfg)
    report = pk.energy_report(sys_, traj)
    assert report.max_abs_gap <= 1e-9


def test_string_power_balance_identity(rng):
    # independent reconstruction: read xdot off the difference equations and
    # check grad H . xdot == <f_P, e_P> at random states and random end forces
    spec = StringSpec(N=6, force=tanh_force, rho=lambda xi: 1.0 + xi)
    sys_, grid = string_system(spec)
    h = grid["h"]
    n_v = grid["nodes"].size
    for _ in range(25):
        x = rng.standard_normal(sys_.n_s)
        grad = pk.ham_grad(sys_.ham, x)
        vel, tension_scaled = grad[:n_v], grad[n_v:] / h  # cell tensions
        f_port = rng.standard_normal(2)
        xdot = np.empty(sys_.n_s)
        for i in range(n_v):  # momentum rate: tension difference + end forces
            left = tension_scaled[i - 1] if i > 0 else 0.0
            right = tension_scaled[i] if i < n_v - 1 else 0.0
            xdot[i] = right - left + (f_port[0] if i == 0 else 0.0) \
                + (f_port[1] if i == n_v - 1 else 0.0)
        for c in range(sys_.n_s - n_v):  # strain rate: velocity difference quotient
            xdot[n_v + c] = (vel[c + 1] - vel[c]) / h
        e_port = np.array([vel[0], vel[-1]])
        assert grad @ xdot == pytest.approx(f_port @ e_port, abs=1e-12)


def test_string_clamped_spectrum_imaginary():
    # linear force, clamped ends (index-2: boundary reactions enforce v = 0).
    # The midpoint step map is the exact Cayley transform of the reduced
    # generator, so its inverse recovers the generator spectrum; the two
    # constraint modes sit exactly at mu = -1 and are excluded.
    sys_, _ = string_system(StringSpec(N=10))
    f_s, g_s, f_p = (dense(block) for block in (sys_.dirac.F_s, sys_.dirac.G_s, sys_.dirac.F_p))
    h_mat = np.zeros((sys_.n_s, sys_.n_s))
    for i in range(sys_.n_s):
        e = np.zeros(sys_.n_s)
        e[i] = 1.0
        h_mat[:, i] = pk.ham_grad(sys_.ham, e)  # linear force: grad H = h_mat x
    dt = 1e-2
    lhs = np.hstack([-f_s / dt + 0.5 * g_s @ h_mat, f_p])
    rhs = -(f_s / dt + 0.5 * g_s @ h_mat)
    step = np.linalg.solve(lhs, rhs)[: sys_.n_s]
    mu = np.linalg.eigvals(step)
    physical = mu[np.abs(mu + 1.0) > 1e-6]
    lam = (2.0 / dt) * (physical - 1.0) / (physical + 1.0)
    assert np.max(np.abs(lam.real)) <= 1e-8


def test_string_refinement_energy_history_ratio():
    # smooth end force from rest (compatible to three orders at t = 0):
    # the energy history converges at second order in h
    def history(n):
        sys_, _ = string_system(StringSpec(N=n), causality=("flow", "flow"))
        inputs = {1: lambda t: 0.3 * t**3 * math.exp(-t)}
        traj = pk.simulate(sys_, np.zeros(sys_.n_s), inputs, (0.0, 0.5),
                           pk.SchemeConfig(dt=2.5e-4))
        return pk.energy_report(sys_, traj).energy

    h8, h16, h32 = history(8), history(16), history(32)
    d1 = np.max(np.abs(h8 - h16))
    d2 = np.max(np.abs(h16 - h32))
    assert 3.5 <= d1 / d2 <= 4.5


def test_diffusion_small_case_structure():
    sys_, grid = diffusion_system(DiffusionSpec(N=3))
    assert sys_.n == 7
    report = pk.validate_kernel(sys_.dirac)
    assert report.passed and report.skew_defect <= 1e-14
    assert grid["faces"] == pytest.approx([1 / 3, 2 / 3])


def test_diffusion_spec_validation():
    with pytest.raises(pk.StructureError):
        DiffusionSpec(N=1)
    with pytest.raises(pk.StructureError):
        diffusion_system(DiffusionSpec(N=4, a_coeff=lambda xi: -np.ones_like(xi)))


def test_diffusion_insulated_constant_state_is_steady():
    sys_, _ = diffusion_system(DiffusionSpec(N=5))
    traj = pk.simulate(sys_, np.full(5, 2.0), None, (0.0, 0.2), pk.SchemeConfig(dt=1e-2))
    assert np.max(np.abs(traj.x - 2.0)) <= 1e-12
    h_vals = pk.energy_report(sys_, traj).energy
    assert np.max(np.abs(h_vals - h_vals[0])) <= 1e-12


def test_diffusion_zero_trace_decays_monotonically(rng):
    sys_, _ = diffusion_system(DiffusionSpec(N=10), causality=("flow", "flow"))
    x0, report = pk.consistent_init(sys_, rng.standard_normal(10))
    assert report.converged
    traj = pk.simulate(sys_, x0, None, (0.0, 0.3), pk.SchemeConfig(dt=1e-3))
    er = pk.energy_report(sys_, traj)
    assert np.all(er.dH <= 0.0)
    assert er.energy[-1] < 0.05 * er.energy[0]


def test_diffusion_mass_conservation_per_step(rng):
    sys_, grid = diffusion_system(DiffusionSpec(N=9))
    traj = pk.simulate(sys_, rng.standard_normal(9), None, (0.0, 0.2), pk.SchemeConfig(dt=1e-3))
    mass = grid["h"] * traj.x.sum(axis=1)
    assert np.max(np.abs(np.diff(mass))) <= 1e-12


def test_diffusion_power_balance_identity(rng):
    # independent reconstruction of the flux-divergence form
    spec = DiffusionSpec(N=7, a_coeff=lambda xi: 1.0 + xi * xi)
    sys_, grid = diffusion_system(spec)
    h, a_face = grid["h"], grid["a_face"]
    for _ in range(25):
        x = rng.standard_normal(7)
        e_port = rng.standard_normal(2)  # inward boundary fluxes, freely chosen
        f_r = np.diff(x) / h
        e_r = -h * a_face * f_r
        flux = np.concatenate([[e_port[0]], e_r / h, [-e_port[1]]])  # outward-directed
        xdot = -(flux[1:] - flux[:-1]) / h
        f_port = np.array([x[0], x[-1]])
        grad = pk.ham_grad(sys_.ham, x)
        balance = grad @ xdot - f_r @ e_r - f_port @ e_port
        assert abs(balance) <= 1e-12


def test_diffusion_resistive_matrix_uses_face_samples():
    spec = DiffusionSpec(N=4, a_coeff=lambda xi: 2.0 + xi)
    sys_, grid = diffusion_system(spec)
    expected = grid["h"] * (2.0 + grid["faces"])
    assert np.diag(sys_.res.R) == pytest.approx(expected)


def test_generators_validate_across_resolutions():
    for n in (2, 8, 32):
        sys_, _ = string_system(StringSpec(N=n))
        assert pk.validate_kernel(sys_.dirac).skew_defect <= 1e-12
    for n in (3, 16, 64):
        sys_, _ = diffusion_system(DiffusionSpec(N=n))
        assert pk.validate_kernel(sys_.dirac).skew_defect <= 1e-12


def test_string_at_n4096_is_built_without_a_dense_structure():
    # one dense n x n array would be 8195^2 doubles = 537 MB
    import tracemalloc

    tracemalloc.start()
    try:
        sys_, _ = pk.make_example("string", N=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys_.metadata["dirac_validation"]["passed"]
    assert scipy.sparse.issparse(sys_.dirac.F) and scipy.sparse.issparse(sys_.dirac.G)
    assert peak < 32 * 2**20
