import numpy as np
import pytest
import scipy.linalg

import phs_kit as pk
from phs_kit.dirac import self_orthogonality_defect, subspace_mismatch

from conftest import random_dirac

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_validate_degenerate_one_dimensional():
    rep = pk.DiracKernelRep(F=[[1.0]], G=[[0.0]], n_s=1)
    report = pk.validate_kernel(rep, tol=1e-10)
    assert report.passed
    assert report.rank == 1
    assert report.skew_defect == 0.0


def test_validate_skew_graph():
    rep = pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2)
    assert pk.validate_kernel(rep).passed


def test_validate_failure_reports_defect():
    rep = pk.DiracKernelRep(F=[[1.0]], G=[[1.0]], n_s=1)
    report = pk.validate_kernel(rep)
    assert not report.passed
    assert report.skew_defect == pytest.approx(2.0)
    assert report.rank == 1  # rank is fine, skewness is not


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_validate_refuses_non_positive_or_nan_tol(tol):
    with pytest.raises(pk.StructureError):
        pk.validate_kernel(pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2), tol=tol)
    with pytest.raises(pk.StructureError):
        pk.validate_image(pk.DiracImageRep(K=-J2, L=np.eye(2), n_s=2), tol=tol)
    with pytest.raises(pk.StructureError):
        pk.resistive_check(pk.LinearGraph(R=[[1.0]]), tol=tol)


def test_validate_dimension_mismatch_is_structural():
    with pytest.raises(pk.StructureError):
        pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=1)  # blocks do not sum to n
    with pytest.raises(pk.StructureError):
        pk.DiracKernelRep(F=np.eye(3), G=J2, n_s=2)


def test_pairing_basics():
    d1 = pk.BondVector([1.0], [0.0])
    d2 = pk.BondVector([0.0], [1.0])
    assert pk.pairing(d1, d2) == pytest.approx(1.0)


def test_pairing_self_is_twice_power(rng):
    for _ in range(20):
        f, e = rng.standard_normal(4), rng.standard_normal(4)
        d = pk.BondVector(f, e)
        assert pk.pairing(d, d) == pytest.approx(2.0 * f @ e, rel=1e-12)


def test_pairing_dimension_mismatch():
    with pytest.raises(pk.StructureError):
        pk.pairing(pk.BondVector([1.0], [0.0]), pk.BondVector([1.0, 0.0], [0.0, 0.0]))


def test_pairing_vanishes_on_null_space_basis(rng):
    # enumerate a null-space basis and check all pairs against the pairing
    for n in (2, 3, 5, 8):
        rep = random_dirac(rng, n)
        basis = scipy.linalg.null_space(np.hstack([rep.F, rep.G]))
        assert basis.shape == (2 * n, n)
        for i in range(n):
            for j in range(n):
                d1 = pk.BondVector(basis[:n, i], basis[n:, i])
                d2 = pk.BondVector(basis[:n, j], basis[n:, j])
                assert abs(pk.pairing(d1, d2)) < 1e-10


def test_kernel_to_image_trivial():
    rep = pk.DiracKernelRep(F=[[1.0]], G=[[0.0]], n_s=1)
    img = pk.kernel_to_image(rep)
    assert img.K == pytest.approx(np.zeros((1, 1)))
    assert img.L == pytest.approx(np.ones((1, 1)))
    assert pk.validate_image(img).passed


def test_kernel_to_image_membership(rng):
    rep = pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2)
    img = pk.kernel_to_image(rep)
    assert img.K == pytest.approx(J2.T)
    for _ in range(10):
        phi = rng.standard_normal(2)
        residual = rep.F @ (img.K @ phi) + rep.G @ (img.L @ phi)
        assert np.linalg.norm(residual) <= 1e-12


def test_conversion_round_trip_spans(rng):
    for n in (2, 4, 7):
        rep = random_dirac(rng, n)
        back = pk.image_to_kernel(pk.kernel_to_image(rep))
        b1 = scipy.linalg.null_space(np.hstack([rep.F, rep.G]))
        b2 = scipy.linalg.null_space(np.hstack([back.F, back.G]))
        assert subspace_mismatch(b1, b2) < 1e-10


def test_image_to_kernel_trivial():
    img = pk.DiracImageRep(K=[[0.0]], L=[[1.0]], n_s=1)
    rep = pk.image_to_kernel(img)
    assert rep.F == pytest.approx(np.ones((1, 1)))
    assert rep.G == pytest.approx(np.zeros((1, 1)))
    assert pk.validate_kernel(rep).passed


def test_image_to_kernel_validates():
    img = pk.DiracImageRep(K=-J2, L=np.eye(2), n_s=2)
    assert pk.validate_image(img).passed
    rep = pk.image_to_kernel(img)
    assert pk.validate_kernel(rep).passed


def test_double_conversion_span_idempotent(rng):
    rep = random_dirac(rng, 5)
    img1 = pk.kernel_to_image(rep)
    img2 = pk.kernel_to_image(pk.image_to_kernel(img1))
    s1 = np.vstack([img1.K, img1.L])
    s2 = np.vstack([img2.K, img2.L])
    assert subspace_mismatch(scipy.linalg.orth(s1), scipy.linalg.orth(s2)) < 1e-10


def test_distance_members_are_zero(rng):
    rep = random_dirac(rng, 4)
    img = pk.kernel_to_image(rep)
    stacked = np.vstack([img.K, img.L])
    for j in range(4):
        d = pk.BondVector(stacked[:4, j], stacked[4:, j])
        assert pk.distance_to_structure(rep, d) < 1e-12


def test_distance_axis_case():
    rep = pk.DiracKernelRep(F=[[1.0]], G=[[0.0]], n_s=1)
    assert pk.distance_to_structure(rep, pk.BondVector([1.0], [0.0])) == pytest.approx(1.0)


def test_distance_matches_qr_oracle(rng):
    # independent oracle: least-squares projection onto im [G^T; F^T] via QR
    for n in (2, 3, 6):
        rep = random_dirac(rng, n)
        basis = np.vstack([rep.G.T, rep.F.T])
        q, _ = np.linalg.qr(basis)
        for _ in range(5):
            v = rng.standard_normal(2 * n)
            expected = np.linalg.norm(v - q @ (q.T @ v))
            d = pk.BondVector(v[:n], v[n:])
            assert pk.distance_to_structure(rep, d) == pytest.approx(expected, abs=1e-12)


def test_distance_dimension_mismatch():
    rep = pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2)
    with pytest.raises(pk.StructureError):
        pk.distance_to_structure(rep, pk.BondVector([1.0], [0.0]))


def test_substructure_full_rank_is_trivial():
    rep = pk.DiracKernelRep(F=np.eye(2), G=J2, n_s=2)
    basis = pk.substructure_D0(rep)
    assert basis.shape == (4, 0)


def test_substructure_with_constraint_row():
    # second row is a pure constraint (zero F_s row): e_2 = 0 on the structure
    f_mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    g_mat = np.array([[0.0, 0.0], [0.0, 1.0]])
    rep = pk.DiracKernelRep(F=f_mat, G=g_mat, n_s=2)
    assert pk.validate_kernel(rep).passed
    basis = pk.substructure_D0(rep)
    assert basis.shape[1] >= 1
    rank_fs = np.linalg.matrix_rank(rep.F_s)
    assert basis.shape[1] == rep.n - rank_fs


def test_dimension_identity_random_structures(rng):
    for n in (2, 3, 5, 9):
        rep = random_dirac(rng, n)
        d0 = pk.substructure_D0(rep).shape[1]
        coenergy_dim = np.linalg.matrix_rank(rep.F_s)
        assert d0 + coenergy_dim == n


def test_extrapolation_split_diagonal_case():
    split = pk.extrapolation_split(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert subspace_mismatch(split.kernel_basis, np.array([[0.0], [1.0]])) < 1e-12
    assert subspace_mismatch(split.coenergy_basis, np.array([[1.0], [0.0]])) < 1e-12


def test_extrapolation_split_invertible_case(rng):
    f_s = rng.standard_normal((3, 3)) + 4 * np.eye(3)
    split = pk.extrapolation_split(f_s)
    assert split.kernel_basis.shape[1] == 0
    assert split.projector_coenergy == pytest.approx(np.eye(3), abs=1e-12)


def test_extrapolation_split_matches_pinv_oracle(rng):
    # oracle: orthogonal projector onto the row space via the pseudoinverse
    for (rows, cols, rank) in ((5, 4, 2), (3, 6, 3), (7, 7, 4)):
        left = rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols))
        f_s = left @ right
        split = pk.extrapolation_split(f_s)
        p_oracle = np.linalg.pinv(f_s) @ f_s
        assert np.max(np.abs(split.projector_coenergy - p_oracle)) < 1e-10
        assert split.rank == rank
        assert split.kernel_dim + rank == cols


def test_extrapolation_split_projector_identities(rng):
    f_s = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 5))
    split = pk.extrapolation_split(f_s)
    p_k, p_c = split.projector_kernel, split.projector_coenergy
    assert p_k + p_c == pytest.approx(np.eye(5), abs=1e-12)
    assert p_k @ p_k == pytest.approx(p_k, abs=1e-12)
    assert p_c @ p_c == pytest.approx(p_c, abs=1e-12)
    assert p_k @ p_c == pytest.approx(np.zeros((5, 5)), abs=1e-12)
    assert p_k.T == pytest.approx(p_k, abs=1e-14)
    for _ in range(5):
        x = rng.standard_normal(5)
        assert p_k @ x + p_c @ x == pytest.approx(x, abs=1e-12)


def test_self_orthogonality_invariant(rng):
    for n in (2, 4, 6, 10):
        rep = random_dirac(rng, n)
        assert self_orthogonality_defect(rep) < 1e-10


def test_maximality_dimension(rng):
    rep = random_dirac(rng, 7)
    basis = scipy.linalg.null_space(np.hstack([rep.F, rep.G]))
    assert basis.shape[1] == 7
