import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import phs_kit as pk
from phs_kit import discrete_gradient, ham_eval, ham_grad, resistive_check, resistive_residual


def quartic():
    # H(x) = 1/4 |x|^4 test energy
    return pk.GeneralHamiltonian(
        value_fn=lambda x: 0.25 * float(x @ x) ** 2,
        gradient_fn=lambda x: float(x @ x) * x,
        dim=3,
    )


def test_ham_eval_quadratic():
    h = pk.QuadraticHamiltonian(H=np.eye(2))
    assert ham_eval(h, [3.0, 4.0]) == pytest.approx(12.5)
    assert ham_eval(h, [0.0, 0.0]) == 0.0


def test_ham_eval_shape_check():
    h = pk.QuadraticHamiltonian(H=np.eye(2))
    with pytest.raises(pk.StructureError):
        ham_eval(h, [1.0, 2.0, 3.0])


def test_quadratic_requires_symmetry():
    with pytest.raises(pk.StructureError):
        pk.QuadraticHamiltonian(H=[[0.0, 1.0], [0.0, 0.0]])


def test_ham_grad_quadratic():
    h = pk.QuadraticHamiltonian(H=np.eye(2))
    assert ham_grad(h, [3.0, 4.0]) == pytest.approx([3.0, 4.0])
    h2 = pk.QuadraticHamiltonian(H=np.diag([2.0, 0.0]), b=[0.0, 1.0])
    assert ham_grad(h2, [1.0, 1.0]) == pytest.approx([2.0, 1.0])


def test_ham_grad_matches_finite_differences(rng):
    h = quartic()
    points = rng.standard_normal((100, 3))
    assert pk.check_gradient(h, points) < 1e-6


def test_general_hamiltonian_domain():
    h = pk.GeneralHamiltonian(
        value_fn=lambda x: float(np.log(x[0])),
        gradient_fn=lambda x: np.array([1.0 / x[0]]),
        dim=1,
        domain=lambda x: x[0] > 0,
    )
    assert ham_eval(h, [1.0]) == 0.0
    with pytest.raises(pk.DomainError):
        ham_eval(h, [-1.0])


def test_discrete_gradient_coincident_points():
    h = pk.QuadraticHamiltonian(H=np.diag([1.0, 3.0]))
    x = np.array([1.0, 2.0])
    assert discrete_gradient(h, x, x) == pytest.approx(ham_grad(h, x))


def test_discrete_gradient_quadratic_reduces_to_midpoint(rng):
    h = pk.QuadraticHamiltonian(H=np.array([[2.0, 0.5], [0.5, 1.0]]), b=[0.1, -0.2], c=0.3)
    for _ in range(50):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        g = discrete_gradient(h, x, y)
        expected = h.H @ ((x + y) / 2) + h.b
        assert g == pytest.approx(expected, abs=1e-12)


def test_discrete_gradient_quadratic_is_midpoint_gradient_at_close_states(rng):
    # a chord correction would divide roundoff in H(y) - H(x) by |y - x|^2
    h = pk.QuadraticHamiltonian(H=np.array([[2.0, 0.5], [0.5, 1.0]]), b=[0.1, -0.2], c=0.3)
    for _ in range(20):
        x = rng.standard_normal(2)
        y = x + 1e-9 * rng.standard_normal(2)
        np.testing.assert_array_equal(discrete_gradient(h, x, y), h.gradient(0.5 * (x + y)))
    h = quartic()
    for _ in range(20):
        x = rng.standard_normal(3)
        y = x + 1e-9 * rng.standard_normal(3)
        err = np.max(np.abs(discrete_gradient(h, x, y) - h.gradient(0.5 * (x + y))))
        assert err <= 1e-12


@st.composite
def polynomial_energies(draw):
    """H(x) = sum_k c_k (a_k·x)^d_k with degrees d_k <= 12, and two states x, y.

    Returns the energy and the roundoff scale sum_k d_k |c_k| (2 |a_k|_1 r)^d_k,
    r = max(1, |x|_inf, |y|_inf), which bounds every term of H and of g·(y-x).
    """
    n = draw(st.integers(1, 6))
    terms = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = draw(arrays(float, (terms, n), elements=unit))
    c = draw(arrays(float, terms, elements=unit))
    d = draw(arrays(int, terms, elements=st.integers(1, 12)))
    x, y = (draw(arrays(float, n, elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
            for _ in range(2))
    h = pk.GeneralHamiltonian(value_fn=lambda z: float(c @ (a @ z) ** d),
                              gradient_fn=lambda z: a.T @ (c * d * (a @ z) ** (d - 1)), dim=n)
    r = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    scale = float(np.sum(d * np.abs(c) * (2.0 * np.sum(np.abs(a), axis=1) * r) ** d))
    return h, x, y, scale


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polynomial_energies())
def test_discrete_gradient_chord_identity(case):
    # the 6-point rule integrates the gradient of a degree-12 energy exactly,
    # so only roundoff separates g·(y - x) from H(y) - H(x)
    h, x, y, scale = case
    eps = np.finfo(float).eps
    tol = 16 * x.size * eps * scale + np.finfo(float).tiny  # tiny: terms that underflow
    g = discrete_gradient(h, x, y)
    assert abs(g @ (y - x) - (ham_eval(h, y) - ham_eval(h, x))) <= tol
    np.testing.assert_allclose(discrete_gradient(h, x, x), ham_grad(h, x), rtol=4 * eps, atol=tol)


def test_quadratic_self_duality(rng):
    h = pk.QuadraticHamiltonian(H=np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    for _ in range(50):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert x @ (h.H @ y) == pytest.approx(y @ (h.H @ x), abs=1e-12)


def test_resistive_check_linear_graph():
    assert resistive_check(pk.LinearGraph(R=[[1.0]])).passed
    assert not resistive_check(pk.LinearGraph(R=[[-1.0]])).passed


def test_resistive_check_diffusion_relation():
    # face-sampled positive coefficient: e_R = -a f_R is passive
    a = np.array([0.5, 1.0, 2.5, 4.0])
    rel = pk.LinearGraph(R=np.diag(a))
    report = resistive_check(rel)
    assert report.passed
    assert report.min_eig == pytest.approx(0.5)
    assert report.max_eig == pytest.approx(4.0)


def test_resistive_check_parametric():
    # f = lambda, e = -lambda: A^T B = -I is NSD
    assert resistive_check(pk.Parametric(A=np.eye(2), B=-np.eye(2))).passed
    assert not resistive_check(pk.Parametric(A=np.eye(2), B=np.eye(2))).passed


def test_resistive_check_modulated_needs_states():
    rel = pk.Modulated(family=lambda x: pk.LinearGraph(R=[[1.0 + x[0] ** 2]]), n_r=1)
    with pytest.raises(pk.StructureError):
        resistive_check(rel)
    report = resistive_check(rel, states=[np.array([0.0]), np.array([2.0])])
    assert report.passed
    assert report.states_checked == 2


def test_resistive_residual_linear_graph():
    rel = pk.LinearGraph(R=[[2.0]])
    assert resistive_residual(rel, None, [1.0], [-2.0]) == pytest.approx(0.0)
    assert resistive_residual(rel, None, [1.0], [0.0]) == pytest.approx(2.0)


def test_resistive_residual_parametric_matches_qr_oracle(rng):
    rel = pk.Parametric(A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 3)))
    stacked = np.vstack([rel.A, rel.B])
    q, _ = np.linalg.qr(stacked)
    for _ in range(10):
        v = rng.standard_normal(6)
        expected = np.linalg.norm(v - q @ (q.T @ v))
        got = resistive_residual(rel, None, v[:3], v[3:])
        assert got == pytest.approx(expected, abs=1e-12)


def test_passivity_sampling_invariant(rng):
    # every member pair of a validated relation dissipates
    graph = pk.LinearGraph(R=np.array([[1.0, 0.3], [0.3, 0.5]]))
    assert resistive_check(graph).passed
    worst = -np.inf
    for _ in range(500):
        f = rng.standard_normal(2)
        worst = max(worst, float(f @ graph.effort(f)))
    base = rng.standard_normal((2, 2))
    par = pk.Parametric(A=base, B=-base)  # A^T B = -A^T A is NSD
    assert resistive_check(par).passed
    for _ in range(500):
        lam = rng.standard_normal(2)
        worst = max(worst, float((par.A @ lam) @ (par.B @ lam)))
    assert worst <= 1e-12


def test_modulated_residual_uses_state():
    rel = pk.Modulated(family=lambda x: pk.LinearGraph(R=[[abs(x[0]) + 1.0]]), n_r=1)
    # at x = 1 the relation is e = -2 f
    assert resistive_residual(rel, np.array([1.0]), [1.0], [-2.0]) == pytest.approx(0.0)
    assert resistive_residual(rel, np.array([0.0]), [1.0], [-2.0]) == pytest.approx(1.0)


def _relations(rng):
    """One relation of each kind, with the state width used for its x rows."""
    base = rng.standard_normal((3, 3))
    wide = rng.standard_normal((3, 2))
    return {
        "linear_graph": pk.LinearGraph(R=base @ base.T),
        "parametric_square": pk.Parametric(A=base, B=-base),
        "parametric_wide": pk.Parametric(A=wide, B=-2.0 * wide),
        "modulated_graph": pk.Modulated(
            family=lambda x: pk.LinearGraph(R=np.diag([1.0 + x[0] ** 2, 2.0, 0.5 + abs(x[1])])),
            n_r=3,
        ),
    }


@pytest.mark.parametrize("kind", ["linear_graph", "parametric_square", "parametric_wide",
                                  "modulated_graph"])
def test_relation_batched_pair_and_distance_match_rows(rng, kind):
    rel = _relations(rng)[kind]
    m = 7
    x = rng.standard_normal((m, 2))
    v = rng.standard_normal((m, rel.n_aux))
    f_b, e_b = rel.pair(v, x)
    rows = [rel.pair(v[k], x[k]) for k in range(m)]
    np.testing.assert_allclose(f_b, [r[0] for r in rows], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(e_b, [r[1] for r in rows], rtol=1e-14, atol=1e-15)
    # members of the relation sit at distance ~0, perturbed pairs do not
    f_r = f_b + rng.standard_normal(f_b.shape)
    e_r = e_b + rng.standard_normal(e_b.shape)
    for f, e in ((f_b, e_b), (f_r, e_r)):
        batched = rel.distance(x, f, e)
        assert batched.shape == (m,)
        reference = [resistive_residual(rel, x[k], f[k], e[k]) for k in range(m)]
        np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=1e-13)
    assert np.max(rel.distance(x, f_b, e_b)) <= 1e-12
    assert np.min(rel.distance(x, f_r, e_r)) > 1e-3


@pytest.mark.parametrize("kind", ["quadratic", "string"])
def test_hamiltonian_batched_value_and_gradient_match_rows(rng, kind):
    if kind == "quadratic":
        a = rng.standard_normal((4, 4))
        h = pk.QuadraticHamiltonian(H=a @ a.T, b=rng.standard_normal(4), c=0.7)
    else:
        h = pk.make_example("string", N=8, force="tanh")[0].ham
    states = rng.standard_normal((9, h.dim))
    np.testing.assert_allclose(h.value(states), [ham_eval(h, s) for s in states],
                               rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(h.gradient(states), [ham_grad(h, s) for s in states],
                               rtol=1e-14, atol=1e-14)
