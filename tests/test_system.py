import numpy as np
import pytest

import phs_kit as pk
from phs_kit import assemble, strong_residual

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_assemble_oscillator(oscillator):
    assert oscillator.n == 2
    assert oscillator.metadata["dirac_validation"]["passed"]
    assert oscillator.metadata["dirac_tol"] == 1e-10


def test_assemble_damped_matrices_validate(damped):
    report = pk.validate_kernel(damped.dirac)
    assert report.passed
    assert report.skew_defect == 0.0
    assert damped.n_r == 1


def test_assemble_rejects_dimension_mismatch():
    dirac = pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2)
    with pytest.raises(pk.StructureError):
        assemble(dirac, pk.QuadraticHamiltonian(H=np.eye(3)), None, ())


def test_assemble_rejects_invalid_dirac():
    bad = pk.DiracKernelRep(F=np.eye(2), G=np.eye(2), n_s=2)
    with pytest.raises(pk.StructureError):
        assemble(bad, pk.QuadraticHamiltonian(H=np.eye(2)), None, ())


def test_assemble_rejects_bad_causality(forced):
    with pytest.raises(pk.StructureError):
        assemble(forced.dirac, forced.ham, None, ())  # needs one entry
    with pytest.raises(pk.StructureError):
        assemble(forced.dirac, forced.ham, None, ("voltage",))


def test_effort_prescribed_follows_the_causality(oscillator):
    spec = pk.StringSpec(N=8, force=pk.discretize.NamedForce("tanh"))
    mixed, _ = pk.string_system(spec, causality=("effort", "flow"))
    assert mixed.effort_prescribed.dtype == bool
    assert mixed.effort_prescribed.tolist() == [True, False]
    assert oscillator.effort_prescribed.shape == (0,)


def test_assemble_rejects_missing_resistive(damped):
    with pytest.raises(pk.StructureError):
        assemble(damped.dirac, damped.ham, None, ())


def test_strong_residual_on_flow(oscillator):
    res = strong_residual(oscillator, [1.0, 0.0], [0.0, -1.0])
    assert res.dirac_defect <= 1e-14
    assert res.resistive_defect == 0.0


def test_strong_residual_frozen_state(oscillator):
    res = strong_residual(oscillator, [1.0, 0.0], [0.0, 0.0])
    assert res.dirac_defect == pytest.approx(1.0)


def test_strong_residual_equilibrium(oscillator):
    res = strong_residual(oscillator, [0.0, 0.0], [0.0, 0.0])
    assert res.dirac_defect == 0.0


def test_strong_residual_members_from_image(damped, rng):
    # any bond vector from a column of [G^T; F^T] has zero defect when split
    d = damped.dirac
    stacked = np.vstack([d.G.T, d.F.T])
    n = d.n
    for j in range(n):
        f, e = stacked[:n, j], stacked[n:, j]
        f_s, f_r, f_p = d.split_vector(f)
        e_s, e_r, e_p = d.split_vector(e)
        # pick the state whose gradient equals the sampled co-energy block
        x = np.linalg.solve(damped.ham.H, e_s - damped.ham.b)
        res = strong_residual(damped, x, -f_s, f_r=f_r, e_r=e_r, f_p=f_p, e_p=e_p)
        assert res.dirac_defect <= 1e-12


def test_trajectory_shape_checks(oscillator):
    t = np.linspace(0.0, 1.0, 11)
    x = np.zeros((11, 2))
    traj = pk.Trajectory(t=t, x=x, f_r=np.zeros((10, 0)), e_r=np.zeros((10, 0)),
                         f_p=np.zeros((10, 0)), e_p=np.zeros((10, 0)))
    traj.check_shapes(oscillator)
    assert traj.dt == pytest.approx(0.1)
    with pytest.raises(pk.StructureError):
        pk.Trajectory(t=[0.0, 0.1, 0.3], x=np.zeros((3, 2)), f_r=[], e_r=[], f_p=[], e_p=[])


@pytest.mark.parametrize("t", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]])
def test_trajectory_refuses_a_time_grid_that_is_not_finite(t):
    # NaN fails no comparison, and an inf node makes the spread tolerance inf
    with pytest.raises(pk.StructureError, match="time grid must be finite"):
        pk.Trajectory(t=t, x=[1, 2, 3], f_r=[], e_r=[], f_p=[], e_p=[])


def test_trajectory_refuses_channel_rows_that_do_not_match_the_grid():
    t, x = np.arange(5.0), np.zeros((5, 1))
    wide = np.arange(8.0).reshape(2, 4)  # 8 values, but 2 rows on a 4-interval grid
    with pytest.raises(pk.StructureError, match="4 interval rows"):
        pk.Trajectory(t=t, x=x, f_r=wide, e_r=wide, f_p=[], e_p=[])
    with pytest.raises(pk.StructureError, match="2 interval rows"):
        pk.Trajectory(t=t[:3], x=x[:3], f_r=np.ones((1, 2)), e_r=np.ones((1, 2)), f_p=[], e_p=[])
    with pytest.raises(pk.StructureError, match="4 interval rows"):
        pk.Trajectory(t=t, x=x, f_r=np.arange(8.0), e_r=np.arange(8.0), f_p=[], e_p=[])
    column = pk.Trajectory(t=t, x=x, f_r=np.arange(4.0), e_r=-np.arange(4.0), f_p=[], e_p=[])
    assert column.f_r.shape == (4, 1) and column.f_r[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert column.f_p.shape == (4, 0)


def test_trajectory_reads_a_flat_x_as_one_state_column():
    traj = pk.Trajectory(t=[0, 1, 2], x=[1, 2, 3], f_p=[0.5, 0.5], e_p=[1, 1], f_r=[], e_r=[])
    assert traj.x.shape == (3, 1) and traj.x[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert traj.n_s == 1 and traj.f_p.shape == traj.e_p.shape == (2, 1)
    with pytest.raises(pk.StructureError, match="3 node rows"):
        pk.Trajectory(t=[0, 1, 2], x=[1, 2], f_p=[], e_p=[], f_r=[], e_r=[])
    with pytest.raises(pk.StructureError, match="3 node rows"):
        pk.Trajectory(t=[0, 1, 2], x=np.zeros((3, 1, 1)), f_p=[], e_p=[], f_r=[], e_r=[])


def test_trajectory_channel_magnitude():
    t = np.array([0.0, 0.5, 1.0])
    traj = pk.Trajectory(t=t, x=np.array([[1.0], [2.0], [-3.0]]),
                         f_r=np.array([[0.5], [0.25]]), e_r=np.array([[4.0], [0.0]]),
                         f_p=np.zeros((2, 0)), e_p=np.zeros((2, 0)))
    assert traj.channel_magnitude() == pytest.approx(4.0)


def test_port_signal_coercion(forced):
    sig = pk.PortSignal({0: 2.0})
    assert sig.value(0, 0.3) == 2.0
    sig2 = pk.PortSignal.coerce({0: lambda t: t * t})
    assert sig2.value(0, 2.0) == 4.0
    assert sig2.value(1, 2.0) == 0.0  # unset channels default to zero
    with pytest.raises(pk.StructureError):
        pk.PortSignal({3: 1.0}).validate_channels(forced)
