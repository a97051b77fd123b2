"""Finite-dimensional Dirac structures: representations, validation, decompositions.

A Dirac structure on R^n x R^n is a subspace that equals its own orthogonal
complement under the indefinite pairing

    <<(f1, e1), (f2, e2)>> = <f1, e2> + <f2, e1>.

Two concrete representations are supported: the kernel form ker[F, G] and the
image form im[K; L].  A structure in kernel form is valid iff rank [F, G] = n
and F G^T + G F^T = 0, in which case ker[F, G] = im[G^T; F^T].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from ._linalg import (
    as_matrix,
    null_space_basis,
    numerical_rank,
    rank_tolerance,
    subspace_angle_max,
)
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


@dataclass(frozen=True)
class DiracKernelRep:
    """Kernel representation D = ker[F, G] with column blocks [s | r | p].

    F and G are n x n; the first n_s columns act on the state flow / co-energy
    pair, the next n_r on the resistive pair, the last n_p on the port pair.
    """

    F: np.ndarray
    G: np.ndarray
    n_s: int
    n_r: int = 0
    n_p: int = 0

    def __post_init__(self):
        F = as_matrix(self.F, "F")
        G = as_matrix(self.G, "G")
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
        """(F, G) as scipy.sparse CSR arrays, built on first use; F and G stay the stored form."""
        return scipy.sparse.csr_array(self.F), scipy.sparse.csr_array(self.G)

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

    ``skew_defect`` is the max-norm of F G^T + G F^T (resp. K^T L + L^T K) and
    ``rank`` the numerical rank of [F, G] (resp. [K; L]); ``threshold`` is the
    singular-value cutoff used, ``sigma_min`` the smallest singular value, so
    the rank gap is visible to callers.
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
    space of occurring co-energy variables.  The projectors are the orthogonal
    projectors onto the two subspaces and sum to the identity.
    """

    kernel_basis: np.ndarray
    coenergy_basis: np.ndarray
    projector_kernel: np.ndarray
    projector_coenergy: np.ndarray
    rank: int = 0

    @property
    def n_s(self):
        return self.projector_kernel.shape[0]

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]


def validate_kernel(rep, tol=1e-10):
    """Check the two Dirac conditions for a kernel representation.

    Parameters
    ----------
    rep : DiracKernelRep
    tol : float
        Bound on the max-norm of F G^T + G F^T.  The rank test uses the
        standard numerical-rank convention (singular values below
        max(n, 2n) * eps * sigma_max count as zero).

    Returns
    -------
    DiracValidation
    """
    return _validate(rep.F @ rep.G.T + rep.G @ rep.F.T, np.hstack([rep.F, rep.G]), rep.n, tol)


def validate_image(rep, tol=1e-10):
    """Check rank [K; L] = n and K^T L + L^T K = 0 for an image representation."""
    return _validate(rep.K.T @ rep.L + rep.L.T @ rep.K, np.vstack([rep.K, rep.L]), rep.n, tol)


def _validate(skew, stacked, n, tol):
    """Validation from the symmetric defect matrix and the stacked representation."""
    if not tol > 0:
        raise StructureError("tol must be positive")
    defect = float(np.max(np.abs(skew))) if skew.size else 0.0
    rank, svals, threshold = numerical_rank(stacked)
    sigma_min = float(svals[-1]) if svals.size else 0.0
    return DiracValidation(
        passed=(rank == n) and (defect <= tol),
        rank=rank,
        rank_required=n,
        skew_defect=defect,
        tol=float(tol),
        sigma_min=sigma_min,
        threshold=threshold,
    )


def pairing(d1, d2):
    """Indefinite bond-space pairing <f1, e2> + <f2, e1>."""
    if d1.n != d2.n:
        raise StructureError(f"bond vectors have different dimensions {d1.n} != {d2.n}")
    return float(d1.f @ d2.e + d2.f @ d1.e)


def kernel_to_image(rep):
    """Convert ker[F, G] to the image form im[G^T; F^T] (same subspace)."""
    return DiracImageRep(K=rep.G.T, L=rep.F.T, n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


def image_to_kernel(rep):
    """Convert im[K; L] to the kernel form ker[L^T, K^T] (same subspace)."""
    return DiracKernelRep(F=rep.L.T, G=rep.K.T, n_s=rep.n_s, n_r=rep.n_r, n_p=rep.n_p)


def _kernel_basis_2n(rep):
    """Orthonormal basis (2n x n) of ker[F, G] for a validated representation."""
    return null_space_basis(np.hstack([rep.F, rep.G]))


def distance_to_structure(rep, d):
    """Euclidean distance from a bond vector to the subspace ker[F, G].

    Computed by orthogonal projection onto an orthonormal null-space basis;
    zero (up to roundoff) exactly for members.
    """
    if d.n != rep.n:
        raise StructureError(f"bond vector dimension {d.n} does not match structure n = {rep.n}")
    basis = _kernel_basis_2n(rep)
    v = d.stacked()
    return float(np.linalg.norm(v - basis @ (basis.T @ v)))


def substructure_D0(rep):
    """Orthonormal basis of D0 = D ∩ {co-energy block = 0}.

    D0 collects the bond vectors of the structure whose state-effort block
    vanishes; its dimension satisfies dim D0 = n - rank(F_s).

    Returns
    -------
    ndarray, shape (2n, dim D0)
    """
    n = rep.n
    selector = np.zeros((rep.n_s, 2 * n))
    selector[:, n : n + rep.n_s] = np.eye(rep.n_s)
    stacked = np.vstack([np.hstack([rep.F, rep.G]), selector])
    return null_space_basis(stacked)


def extrapolation_split(rep_or_matrix):
    """Split the state space into ker(F_s) ⊕ im(F_s^T).

    Accepts a DiracKernelRep or a bare F_s matrix.  The co-energy part is the
    row space of F_s; its orthogonal complement in R^{n_s} is ker(F_s).  Both
    orthogonal projectors are returned; they are symmetric, idempotent,
    mutually annihilating and sum to the identity.
    """
    if isinstance(rep_or_matrix, DiracKernelRep):
        f_s = rep_or_matrix.F_s
    else:
        f_s = as_matrix(rep_or_matrix, "F_s")
    n_s = f_s.shape[1]
    if f_s.size == 0 or not np.any(f_s):
        kernel, coenergy = np.eye(n_s), np.zeros((n_s, 0))
    else:
        # one SVD so the two subspaces come from a single rank decision
        _, svals, vt = np.linalg.svd(f_s, full_matrices=True)
        threshold = rank_tolerance(f_s.shape, svals[0])
        rank = int(np.count_nonzero(svals > threshold))
        coenergy = vt[:rank].T
        kernel = vt[rank:].T
    p_co = coenergy @ coenergy.T
    p_ker = kernel @ kernel.T
    return ExtrapolationSplit(
        kernel_basis=kernel,
        coenergy_basis=coenergy,
        projector_kernel=p_ker,
        projector_coenergy=p_co,
        rank=coenergy.shape[1],
    )


def self_orthogonality_defect(rep):
    """Max |pairing| over all pairs of a computed null-space basis of [F, G].

    Diagnostic for the forward direction of the Dirac property; zero up to
    roundoff for valid structures.
    """
    basis = _kernel_basis_2n(rep)
    n = rep.n
    fs, es = basis[:n, :], basis[n:, :]
    gram = fs.T @ es + es.T @ fs
    return float(np.max(np.abs(gram))) if gram.size else 0.0


def subspace_mismatch(basis_a, basis_b):
    """Largest principal angle between two column spans (test convenience)."""
    return subspace_angle_max(np.asarray(basis_a, float), np.asarray(basis_b, float))
