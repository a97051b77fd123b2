"""Finite-dimensional Dirac structures: representations, validation, decompositions.

A Dirac structure on R^n x R^n is a subspace that equals its own orthogonal
complement under the indefinite pairing

    <<(f1, e1), (f2, e2)>> = <f1, e2> + <f2, e1>.

Two concrete representations are supported: the kernel form ker[F, G] and the
image form im[K; L].  A structure in kernel form is valid iff rank [F, G] = n
and F G^T + G F^T = 0, in which case ker[F, G] = im[G^T; F^T].

A kernel form keeps F and G as given: dense arrays, or scipy.sparse arrays
(stored as CSR), which is how the discretizers build them.  One rule,
``DiracKernelRep.sparse_linalg``, decides how every stage applies them: from
``SPARSE_MIN_N`` bonds on, with at most ``SPARSE_MAX_ROW_NNZ`` nonzeros per
row of F and G, the products (``DiracKernelRep.residual``), validation and the
step Jacobians of ``integrate`` use the CSR view of F and G, SuperLU and
shift-invert Lanczos; any other structure is multiplied, validated and
factored dense, whatever its stored form.  One bond vector is multiplied by
the stacked operator [F | G] in one product; the geometry below densifies the
blocks with ``_linalg.dense``.  ``scipy.sparse`` is imported on first use, so
a structure stored dense that the rule keeps dense never loads it.

Validation decides both conditions from n x n products, never from an SVD of
[F, G]: the skew defect from F G^T, the rank from the smallest eigenvalue of
the Gram matrix F F^T + G G^T.

The geometry takes no 2n-wide SVD: one SVD of F_s splits ker(F_s) ⊕ im(F_s^T),
one of F_s^T gives W = ker(F_s^T), and by ker[F, G] = im[G^T; F^T] the thin QR
factors of [G^T; F^T] W and [F, G]^T give D0 and the distance to D.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import EPS, as_matrix, dense, issparse, subspace_bases
from .errors import StructureError

__all__ = [
    "BondVector",
    "DiracKernelRep",
    "DiracImageRep",
    "DiracValidation",
    "ExtrapolationSplit",
    "validate_kernel",
    "validate_image",
    "pairing",
    "kernel_to_image",
    "image_to_kernel",
    "distance_to_structure",
    "substructure_D0",
    "extrapolation_split",
]

# Products, validation and step Jacobians go sparse from SPARSE_MIN_N bonds (the
# measured crossover on the string and diffusion), unless F and G hold more than
# SPARSE_MAX_ROW_NNZ nonzeros per row: on dense blocks CSR products and SuperLU
# lose to dense BLAS and LAPACK (``DiracKernelRep.sparse_linalg``).
SPARSE_MIN_N = 200
SPARSE_MAX_ROW_NNZ = 16


def _check_partition(n, n_s, n_r, n_p):
    if min(n_s, n_r, n_p) < 0 or n <= 0:
        raise StructureError("block dimensions must be nonnegative with n > 0")
    if n_s + n_r + n_p != n:
        raise StructureError(
            f"block widths n_s+n_r+n_p = {n_s}+{n_r}+{n_p} do not sum to n = {n}"
        )


@dataclass(frozen=True)
class BondVector:
    """A flow/effort pair (f, e) in the bond space R^n x R^n."""

    f: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        e = np.atleast_1d(np.asarray(self.e, dtype=float))
        if f.ndim != 1 or e.ndim != 1 or f.shape != e.shape:
            raise StructureError("flow and effort must be 1-D vectors of equal length")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "e", e)

    @property
    def n(self):
        return self.f.shape[0]

    def stacked(self):
        """The 2n-vector (f; e)."""
        return np.concatenate([self.f, self.e])


def _stored_block(a, name):
    """A sparse block as a float CSR array, anything else as a dense 2-D float array."""
    if issparse(a):
        import scipy.sparse

        return scipy.sparse.csr_array(a, dtype=float)
    return as_matrix(a, name)


@dataclass(frozen=True)
class DiracKernelRep:
    """Kernel representation D = ker[F, G] with column blocks [s | r | p].

    F and G are n x n, dense or sparse (kept as CSR); the first n_s columns act
    on the state flow / co-energy pair, the next n_r on the resistive pair, the
    last n_p on the port pair.  The block properties slice the stored form.
    """

    F: np.ndarray
    G: np.ndarray
    n_s: int
    n_r: int = 0
    n_p: int = 0

    def __post_init__(self):
        F = _stored_block(self.F, "F")
        G = _stored_block(self.G, "G")
        if F.shape != G.shape or F.shape[0] != F.shape[1]:
            raise StructureError(f"F and G must be square with equal shape, got {F.shape}, {G.shape}")
        _check_partition(F.shape[0], self.n_s, self.n_r, self.n_p)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)

    @property
    def n(self):
        return self.F.shape[0]

    @cached_property
    def csr(self):
        """(F, G) as scipy.sparse CSR arrays: the stored ones, or built from dense blocks on first use.

        The form of ``_product_blocks`` when ``sparse_linalg`` holds.  Reading it
        imports ``scipy.sparse``.
        """
        import scipy.sparse

        return tuple(b if issparse(b) else scipy.sparse.csr_array(b) for b in (self.F, self.G))

    @cached_property
    def sparse_linalg(self):
        """True iff products, validation and step Jacobians use the CSR view, SuperLU and Lanczos.

        From SPARSE_MIN_N bonds on, unless F and G hold more than
        SPARSE_MAX_ROW_NNZ nonzeros per row.  It counts the nonzeros of the
        stored blocks, not their form, so dense and sparse copies of one
        structure are applied alike; no CSR copy is built to decide.
        """
        return self.n >= SPARSE_MIN_N and sum(
            b.nnz if issparse(b) else np.count_nonzero(b) for b in (self.F, self.G)
        ) <= SPARSE_MAX_ROW_NNZ * self.n

    @cached_property
    def _product_blocks(self):
        """(F, G) in the form every stage applies them: the CSR view if ``sparse_linalg`` holds, else dense.

        ``residual`` multiplies a batch by them, ``validate_kernel`` forms its
        products from them and the step Jacobians slice their state columns.
        """
        return self.csr if self.sparse_linalg else (dense(self.F), dense(self.G))

    @cached_property
    def stacked(self):
        """[F | G], n x 2n in the form of ``_product_blocks``: F f + G e is one product with (f; e).

        Built on first use.  A batch keeps its two products: a stacked dense product rounds a
        row differently in a block of rows than in the whole batch; two products do not.
        """
        if not self.sparse_linalg:
            return np.hstack(self._product_blocks)
        import scipy.sparse

        return scipy.sparse.hstack(self._product_blocks, format="csr")

    def residual(self, f, e):
        """F f + G e: zero iff the bond vector (f, e) lies in ker[F, G].

        ``f`` and ``e`` have shape (n,), multiplied as (f; e) by ``stacked``, or
        (m, n) with one bond vector per row, by the blocks of ``_product_blocks``;
        the sparse products read a batch stored column-major in place.
        """
        f, e = np.asarray(f, dtype=float), np.asarray(e, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != self.n or e.shape != f.shape:
            raise StructureError(f"flows and efforts must be rows of width n = {self.n}, "
                                 f"got shapes {f.shape} and {e.shape}")
        F, G = self._product_blocks
        return self.stacked @ np.concatenate((f, e)) if f.ndim == 1 else (F @ f.T + G @ e.T).T

    # column blocks
    @property
    def F_s(self):
        return self.F[:, : self.n_s]

    @property
    def F_r(self):
        return self.F[:, self.n_s : self.n_s + self.n_r]

    @property
    def F_p(self):
        return self.F[:, self.n_s + self.n_r :]

    @property
    def G_s(self):
        return self.G[:, : self.n_s]

    @property
    def G_r(self):
        return self.G[:, self.n_s : self.n_s + self.n_r]

    @property
    def G_p(self):
        return self.G[:, self.n_s + self.n_r :]

    def split_vector(self, v, name="vector"):
        """Split an n-vector into (state, resistive, port) blocks."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if v.shape != (self.n,):
            raise StructureError(f"{name} must have length {self.n}, got {v.shape}")
        return v[: self.n_s], v[self.n_s : self.n_s + self.n_r], v[self.n_s + self.n_r :]


@dataclass(frozen=True)
class DiracImageRep:
    """Image representation D = im[K; L] with the same block partition metadata."""

    K: np.ndarray
    L: np.ndarray
    n_s: int
    n_r: int = 0
    n_p: int = 0

    def __post_init__(self):
        K = as_matrix(self.K, "K")
        L = as_matrix(self.L, "L")
        if K.shape != L.shape or K.shape[0] != K.shape[1]:
            raise StructureError(f"K and L must be square with equal shape, got {K.shape}, {L.shape}")
        _check_partition(K.shape[0], self.n_s, self.n_r, self.n_p)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)

    @property
    def n(self):
        return self.K.shape[0]


@dataclass(frozen=True)
class DiracValidation:
    """Outcome of a Dirac-structure validation.

    For a kernel form ker[F, G], ``skew_defect`` is the max-norm of
    F G^T + G F^T and ``sigma_min`` = sqrt(lambda_min(M)) the smallest singular
    value of [F, G], taken from the Gram matrix M = F F^T + G G^T.  An image
    form im[K; L] is read as ker[L^T, K^T].  Each entry of M is an inner
    product of two rows of [F, G] with at most m <= 2n nonzeros, so
    lambda_min(M) is known only to about m * eps * ||M||, and
    ``threshold`` = sqrt(m * eps * ||M||_1) is the cutoff on singular values:
    ``rank`` counts those above it, and the rank test passes iff
    ``sigma_min`` > ``threshold``.
    """

    passed: bool
    rank: int
    rank_required: int
    skew_defect: float
    tol: float
    sigma_min: float
    threshold: float

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "rank": int(self.rank),
            "rank_required": int(self.rank_required),
            "skew_defect": float(self.skew_defect),
            "tol": float(self.tol),
            "sigma_min": float(self.sigma_min),
            "threshold": float(self.threshold),
        }


@dataclass(frozen=True)
class ExtrapolationSplit:
    """Orthogonal decomposition of the state space R^{n_s}.

    ``kernel_basis`` spans ker(F_s) (state directions whose derivative is
    annihilated by the structure) and ``coenergy_basis`` spans im(F_s^T), the
    space of occurring co-energy variables.  The rest is read from these two
    orthonormal bases; the two orthogonal projectors sum to the identity.
    """

    kernel_basis: np.ndarray
    coenergy_basis: np.ndarray

    @property
    def n_s(self):
        return self.kernel_basis.shape[0]

    @property
    def rank(self):
        return self.coenergy_basis.shape[1]

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]

    @property
    def projector_kernel(self):
        return self.kernel_basis @ self.kernel_basis.T

    @property
    def projector_coenergy(self):
        return self.coenergy_basis @ self.coenergy_basis.T


def validate_kernel(rep, tol=1e-10):
    """Check the two Dirac conditions for a kernel representation.

    Parameters
    ----------
    rep : DiracKernelRep
    tol : float
        Bound on the max-norm of F G^T + G F^T.  The rank test needs no
        tolerance: [F, G] has rank n iff its smallest singular value
        sigma_min = sqrt(lambda_min(F F^T + G G^T)) exceeds the threshold
        sqrt(m * eps * ||F F^T + G G^T||_1), m the most nonzeros in a row of
        [F, G] (2n for dense blocks): the accuracy to which the Gram matrix
        determines it.

    Returns
    -------
    DiracValidation
    """
    if not tol > 0:
        raise StructureError("tol must be positive")
    n, sparse, (f, g) = rep.n, rep.sparse_linalg, rep._product_blocks
    if sparse:
        longest = (np.diff(f.indptr) + np.diff(g.indptr)).max()
        gram = f @ f.T + g @ g.T
    else:
        longest = (rep.stacked != 0).sum(axis=1).max()
        gram = rep.stacked @ rep.stacked.T
    cross = f @ g.T
    defect = float(abs(cross + cross.T).max())
    threshold = math.sqrt(int(longest) * EPS * float(abs(gram).sum(axis=0).max()))
    lam_min = _sparse_gram_min(gram.tocsc()) if sparse else None
    if lam_min is not None and np.sqrt(max(lam_min, 0.0)) > threshold:
        lam = np.array([lam_min])
    else:
        # dense blocks, or a sparse rank deficiency: count every small eigenvalue
        lam = np.linalg.eigvalsh(gram.toarray() if sparse else gram)
    sigma = np.sqrt(np.maximum(lam, 0.0))  # ascending
    rank = n - int(np.searchsorted(sigma, threshold, side="right"))
    return DiracValidation(
        passed=(rank == n) and (defect <= tol),
        rank=rank,
        rank_required=n,
        skew_defect=defect,
        tol=float(tol),
        sigma_min=float(sigma[0]),
        threshold=threshold,
    )


def validate_image(rep, tol=1e-10):
    """Check rank [K; L] = n and K^T L + L^T K = 0 for an image representation.

    im[K; L] = ker[L^T, K^T], whose defect and Gram matrix are L^T K + K^T L
    and L^T L + K^T K, so both forms share the rule of ``validate_kernel``.
    """
    return validate_kernel(image_to_kernel(rep), tol)


def _sparse_gram_min(gram):
    """Smallest eigenvalue of a sparse Gram matrix by SuperLU and shift-invert Lanczos.

    The fixed start vector makes repeated calls agree.  None when the factor is
    exactly singular or the eigensolve does not converge.
    """
    import scipy.sparse.linalg  # imported on use: small systems never load it

    try:
        lu = scipy.sparse.linalg.splu(gram)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None
    inverse = scipy.sparse.linalg.LinearOperator(gram.shape, matvec=lu.solve, dtype=float)
    start = np.random.default_rng(0).standard_normal(gram.shape[0])
    try:
        lam = scipy.sparse.linalg.eigsh(gram, k=1, sigma=0.0, OPinv=inverse, v0=start,
                                        return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError:
        return None
    return float(lam[0])


def pairing(d1, d2):
    """Indefinite bond-space pairing <f1, e2> + <f2, e1>."""
    if d1.n != d2.n:
        raise StructureError(f"bond vectors have different dimensions {d1.n} != {d2.n}")
    return float(d1.f @ d2.e + d2.f @ d1.e)


def kernel_to_image(rep):
    """Convert ker[F, G] to the image form im[G^T; F^T] (same subspace)."""
    return DiracImageRep(K=dense(rep.G).T, L=dense(rep.F).T, n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


def image_to_kernel(rep):
    """Convert im[K; L] to the kernel form ker[L^T, K^T] (same subspace)."""
    return DiracKernelRep(F=rep.L.T, G=rep.K.T, n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


def _algebraic_basis(rep):
    """Orthonormal basis of W = ker(F_s^T): the row combinations of [F, G] free of state flows."""
    return subspace_bases(dense(rep.F_s).T)[1]


def distance_to_structure(rep, d):
    """Euclidean distance from a bond vector to the subspace ker[F, G].

    ||Q^T (f; e)||, Q the thin QR factor of [F, G]^T: the projection onto the
    orthogonal complement of ker[F, G], zero (up to roundoff) exactly for
    members.  Requires rank [F, G] = n; otherwise the result is not defined.
    """
    if d.n != rep.n:
        raise StructureError(f"bond vector dimension {d.n} does not match structure n = {rep.n}")
    q = np.linalg.qr(dense(rep.stacked).T)[0]
    return float(np.linalg.norm(q.T @ d.stacked()))


def substructure_D0(rep):
    """Orthonormal basis of D0 = D ∩ {co-energy block = 0}.

    D0 collects the bond vectors of the structure whose state-effort block
    vanishes.  In the image form D = im[G^T; F^T] that block is F_s^T λ, so D0
    is the image of W = ker(F_s^T) and dim D0 = n - rank(F_s): the basis is the
    thin QR factor of [G^T; F^T] W.  Requires a valid Dirac structure (rank n
    and skew); otherwise the result is not defined.

    Returns
    -------
    ndarray, shape (2n, dim D0)
    """
    image = kernel_to_image(rep)
    return np.linalg.qr(np.vstack([image.K, image.L]) @ _algebraic_basis(rep))[0]


def extrapolation_split(rep_or_matrix):
    """Split the state space into ker(F_s) ⊕ im(F_s^T).

    Accepts a DiracKernelRep or a bare F_s matrix, dense or scipy.sparse.  The
    co-energy part is the row space of F_s; its orthogonal complement in
    R^{n_s} is ker(F_s).  Both come from one SVD of F_s.
    """
    f_s = rep_or_matrix.F_s if isinstance(rep_or_matrix, DiracKernelRep) else rep_or_matrix
    coenergy, kernel = subspace_bases(as_matrix(dense(f_s), "F_s"))
    return ExtrapolationSplit(kernel_basis=kernel, coenergy_basis=coenergy)
