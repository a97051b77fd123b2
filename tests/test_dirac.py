import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

import phs_kit as pk
from phs_kit._linalg import dense, subspace_bases
from phs_kit.dirac import SPARSE_MIN_N, _algebraic_basis

from conftest import random_dirac, self_orthogonality_defect, subspace_mismatch

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


def _with_blocks(rep, f, g):
    return pk.DiracKernelRep(F=f, G=g, n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


@st.composite
def structures_with_entry(draw):
    """A random Dirac structure (dense or banded, either side of SPARSE_MIN_N) and one (row, column)."""
    n = draw(st.integers(1, 40) | st.integers(SPARSE_MIN_N - 20, SPARSE_MIN_N + 100))
    band = draw(st.none() | st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_dirac(rng, n, band=band), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(structures_with_entry())
def test_validate_agrees_with_svd(case):
    rep, row, col = case
    report = pk.validate_kernel(rep)
    svals = scipy.linalg.svdvals(np.hstack([rep.F, rep.G]))
    assert report.sigma_min == pytest.approx(svals[-1], rel=1e-10)
    svd_rank = np.count_nonzero(svals > 2 * rep.n * np.finfo(float).eps * svals[0])
    svd_passed = svd_rank == rep.n and np.max(np.abs(rep.F @ rep.G.T + rep.G @ rep.F.T)) <= report.tol
    assert report.passed == svd_passed

    f, g = rep.F.copy(), rep.G.copy()
    f[row] = g[row] = 0.0
    singular = pk.validate_kernel(_with_blocks(rep, f, g))
    assert not singular.passed
    assert singular.rank < singular.rank_required

    g = rep.G.copy()
    g[row, col] += 1e-6
    skewed = pk.validate_kernel(_with_blocks(rep, rep.F, g))
    assert not skewed.passed
    assert skewed.skew_defect > skewed.tol


@st.composite
def structures_with_bond_rows(draw):
    """A random Dirac structure with n_s, n_r, n_p > 0 and a batch of m bond vectors."""
    n = draw(st.integers(3, 40) | st.integers(SPARSE_MIN_N - 20, SPARSE_MIN_N + 100))
    n_s = draw(st.integers(1, n - 2))
    n_r = draw(st.integers(1, n - n_s - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep = random_dirac(rng, n, band=draw(st.none() | st.integers(1, 3)))
    rep = pk.DiracKernelRep(F=rep.F, G=rep.G, n_s=n_s, n_r=n_r, n_p=n - n_s - n_r)
    m = draw(st.integers(1, 6))
    return rep, rng.standard_normal((m, n)), rng.standard_normal((m, n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(structures_with_bond_rows())
def test_residual_matches_dense_products(case):
    rep, f, e = case
    want = f @ rep.F.T + e @ rep.G.T
    scale = np.abs(f) @ np.abs(rep.F).T + np.abs(e) @ np.abs(rep.G).T
    batch = rep.residual(f, e)
    assert batch.shape == f.shape
    assert np.all(np.abs(batch - want) <= 1e-13 * scale)
    single = rep.residual(f[0], e[0])
    assert single.shape == (rep.n,)
    assert np.all(np.abs(single - want[0]) <= 1e-13 * scale[0])
    n = rep.n
    for bad_f, bad_e in ((f[0, :-1], e[0, :-1]), (np.zeros((2, n + 1)), np.zeros((2, n + 1))),
                         (f, e[:, :-1]), (f[0], e), (np.zeros((1, 1, n)), np.zeros((1, 1, n)))):
        with pytest.raises(pk.StructureError, match="width"):
            rep.residual(bad_f, bad_e)


@pytest.mark.parametrize("kind, small, large", [("string", 2, 512), ("diffusion", 3, 256)])
def test_validate_both_sides_of_sparse_cutoff(kind, small, large):
    reps = [pk.make_example(kind, N=n)[0].dirac for n in (small, large)]
    assert reps[0].n < SPARSE_MIN_N <= reps[1].n
    for rep in reps:
        report = pk.validate_kernel(rep)
        assert report.passed
        assert report.rank == rep.n
        sigma = scipy.linalg.svdvals(np.hstack([dense(rep.F), dense(rep.G)]))[-1]
        assert report.sigma_min == pytest.approx(sigma, rel=1e-10)
        image = pk.validate_image(pk.kernel_to_image(rep))
        assert image.passed
        assert image.sigma_min == pytest.approx(report.sigma_min, rel=1e-12)


def test_validate_accepts_fine_diffusion():
    # G carries 1/h^2, so kappa([F, G]) ~ 2 N^2 = 2.1e6: a threshold with n in place
    # of the longest row of [F, G] (3 entries here) would refuse this structure
    rep = pk.make_example("diffusion", N=1024)[0].dirac
    report = pk.validate_kernel(rep)
    assert report.passed
    assert report.sigma_min == pytest.approx(1.0, rel=1e-8)
    assert report.threshold < 0.1


def test_validate_rank_deficient_sparse_structure_fails_without_raising():
    rep = pk.make_example("string", N=512)[0].dirac
    f, g = rep.F.toarray(), rep.G.toarray()
    f[5] = g[5] = 0.0
    broken = _with_blocks(rep, f, g)
    report = pk.validate_kernel(broken)
    assert not report.passed
    assert report.rank < rep.n
    image = pk.validate_image(pk.kernel_to_image(broken))
    assert (image.passed, image.rank, image.sigma_min) == (report.passed, report.rank, report.sigma_min)
    # two rows made inexact combinations of others: SuperLU factors M, and the rank counts both
    f, g = rep.F.toarray(), rep.G.toarray()
    for row, (a, b) in ((7, (20, 600)), (300, (40, 900))):
        f[row], g[row] = 0.3 * f[a] - 1.7 * f[b], 0.3 * g[a] - 1.7 * g[b]
    assert pk.validate_kernel(_with_blocks(rep, f, g)).rank == rep.n - 2


def test_validate_runs_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validation ran an SVD")

    for module, name in ((np.linalg, "svd"), (scipy.linalg, "svd"), (scipy.linalg, "svdvals")):
        monkeypatch.setattr(module, name, refuse)
    for kind, n in (("string", 2), ("string", 128), ("diffusion", 256)):
        rep = pk.make_example(kind, N=n)[0].dirac
        assert pk.validate_kernel(rep).passed
        assert pk.validate_image(pk.kernel_to_image(rep)).passed


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


def test_extrapolation_split_accepts_a_sparse_f_s(rng):
    assert np.array_equal(pk.extrapolation_split(scipy.sparse.csr_array(np.eye(2))).projector_coenergy,
                          np.eye(2))
    f_s = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    sparse, dense_ = (pk.extrapolation_split(form(f_s)) for form in (scipy.sparse.csr_array, np.asarray))
    assert sparse.rank == dense_.rank == 2
    assert np.array_equal(sparse.kernel_basis, dense_.kernel_basis)


def test_extrapolation_split_keeps_only_its_two_bases(rng):
    assert [f.name for f in dataclasses.fields(pk.ExtrapolationSplit)] == ["kernel_basis",
                                                                         "coenergy_basis"]
    for (rows, cols, rank) in ((5, 4, 2), (3, 6, 3), (4, 4, 4), (2, 3, 0)):
        f_s = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        split = pk.extrapolation_split(f_s)
        k, c = split.kernel_basis, split.coenergy_basis
        assert (split.n_s, split.rank, split.kernel_dim) == (cols, c.shape[1], k.shape[1])
        assert (split.rank, split.kernel_dim) == (rank, cols - rank)
        assert np.array_equal(split.projector_kernel, k @ k.T)
        assert np.array_equal(split.projector_coenergy, c @ c.T)


def test_self_orthogonality_invariant(rng):
    for n in (2, 4, 6, 10):
        rep = random_dirac(rng, n)
        assert self_orthogonality_defect(rep) < 1e-10


def test_maximality_dimension(rng):
    rep = random_dirac(rng, 7)
    basis = scipy.linalg.null_space(np.hstack([rep.F, rep.G]))
    assert basis.shape[1] == 7


def _with_form(rep, form):
    """The same structure with F and G stored dense or as scipy.sparse arrays."""
    return pk.DiracKernelRep(F=form(rep.F), G=form(rep.G), n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


def _reference_geometry(rep):
    """D0 and ker[F, G] from SVDs of 2n-wide matrices, the formulas the geometry replaced.

    D0 is the null space of [[F, G], [0, S_e]], S_e selecting the co-energy
    block of the efforts; the distance projects onto the null space of [F, G].
    """
    n, stacked = rep.n, np.hstack([dense(rep.F), dense(rep.G)])
    selector = np.zeros((rep.n_s, 2 * n))
    selector[:, n : n + rep.n_s] = np.eye(rep.n_s)
    return subspace_bases(np.vstack([stacked, selector]))[1], subspace_bases(stacked)[1]


def _geometry_cases():
    rng = np.random.default_rng(20261022)
    for n in range(2, 13):
        for band in (None, 2):
            yield pytest.param(random_dirac(rng, n, band=band), id=f"random-{n}-band{band}")
    for kind in ("string", "diffusion"):
        for n in (8, 64, 128):
            rep = pk.make_example(kind, N=n)[0].dirac
            yield pytest.param(_with_form(rep, dense), id=f"{kind}-{n}-dense")
            yield pytest.param(_with_form(rep, scipy.sparse.csr_array), id=f"{kind}-{n}-sparse")


@pytest.mark.parametrize("rep", list(_geometry_cases()))
def test_image_form_geometry_matches_the_2n_wide_svds(rep):
    n, stacked = rep.n, np.hstack([dense(rep.F), dense(rep.G)])
    roundoff = 10 * n * np.finfo(float).eps
    d0, (d0_reference, kernel_reference) = pk.substructure_D0(rep), _reference_geometry(rep)
    assert d0.shape == d0_reference.shape == (2 * n, n - np.linalg.matrix_rank(dense(rep.F_s)))
    assert subspace_mismatch(d0, d0_reference) <= 1e-10
    if d0.size:
        assert np.linalg.norm(stacked @ d0, axis=0).max() <= roundoff * np.linalg.norm(stacked, 2)
        assert abs(d0[n : n + rep.n_s]).max() <= roundoff
        assert abs(d0.T @ d0 - np.eye(d0.shape[1])).max() <= roundoff
    w = _algebraic_basis(rep)
    assert w.shape[1] == d0.shape[1]
    assert abs(dense(rep.F_s).T @ w).max() <= roundoff * np.linalg.norm(dense(rep.F_s), 2)
    rng = np.random.default_rng(n)
    for v in rng.standard_normal((4, 2 * n)):
        expected = np.linalg.norm(v - kernel_reference @ (kernel_reference.T @ v))
        distance = pk.distance_to_structure(rep, pk.BondVector(v[:n], v[n:]))
        assert abs(distance - expected) <= 1e-12 * max(1.0, expected)


@pytest.mark.parametrize("kind, n", [("string", 8), ("diffusion", 8), ("string", 128),
                                     ("diffusion", 256), ("damped_oscillator", None)])
def test_dense_and_sparse_structures_validate_alike(kind, n):
    rep = pk.make_example(kind, **({} if n is None else {"N": n}))[0].dirac
    as_dense = _with_form(rep, dense)
    as_sparse = _with_form(rep, scipy.sparse.csr_array)
    assert not scipy.sparse.issparse(as_dense.F) and scipy.sparse.issparse(as_sparse.G)
    # below SPARSE_MIN_N a sparse structure takes the dense branch too
    assert pk.validate_kernel(as_sparse) == pk.validate_kernel(as_dense)
    assert pk.validate_kernel(as_sparse).passed
    assert pk.substructure_D0(as_sparse).shape == pk.substructure_D0(as_dense).shape
    assert np.array_equal(pk.extrapolation_split(as_sparse).projector_kernel,
                          pk.extrapolation_split(as_dense).projector_kernel)


def test_products_follow_the_size_rule_not_the_stored_form():
    small = pk.make_example("string", N=8)[0].dirac  # n = 19, stored sparse
    copy = _with_form(small, dense)
    assert scipy.sparse.issparse(small.F) and not scipy.sparse.issparse(copy.F)
    for rep in (small, copy):
        assert type(rep.stacked) is np.ndarray and rep.stacked.shape == (rep.n, 2 * rep.n)
        assert all(type(block) is np.ndarray for block in rep._product_blocks)
    f, e = np.random.default_rng(3).standard_normal((2, 5, small.n))
    for args in ((f[0], e[0]), (f, e)):
        assert np.array_equal(small.residual(*args), copy.residual(*args))
    large = pk.make_example("string", N=128)[0].dirac  # n = 259
    for rep in (large, _with_form(large, dense)):
        assert scipy.sparse.issparse(rep.stacked) and rep.stacked.format == "csr"
        assert all(scipy.sparse.issparse(block) for block in rep._product_blocks)


def test_dense_structure_from_sparse_min_n_is_applied_dense():
    # a dense structure holds far more than SPARSE_MAX_ROW_NNZ nonzeros per row: it is
    # multiplied as it is validated and factored, dense
    rep = random_dirac(np.random.default_rng(11), 220)
    assert rep.n >= SPARSE_MIN_N and not rep.sparse_linalg
    assert type(rep.stacked) is np.ndarray and rep.stacked.shape == (rep.n, 2 * rep.n)
    assert all(type(block) is np.ndarray for block in rep._product_blocks)
    f_csr, g_csr = (scipy.sparse.csr_array(block) for block in (rep.F, rep.G))
    f, e = np.random.default_rng(12).standard_normal((2, 64, rep.n))
    for args in ((f[0], e[0]), (f, e)):
        want = (f_csr @ args[0].T + g_csr @ args[1].T).T
        got = rep.residual(*args)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_sparse_structure_keeps_its_csr_arrays():
    rep = pk.make_example("string", N=16)[0].dirac
    assert rep.csr[0] is rep.F and rep.csr[1] is rep.G
    assert all(scipy.sparse.issparse(block) and block.format == "csr"
               for block in (rep.F_s, rep.G_s, rep.F_r, rep.G_p))
    assert np.array_equal(rep.G_p.toarray(), rep.G.toarray()[:, rep.n_s + rep.n_r:])
    coo = _with_form(rep, scipy.sparse.coo_array)
    assert coo.F.format == "csr" and np.array_equal(coo.F.toarray(), rep.F.toarray())
