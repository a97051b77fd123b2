"""Small shared linear-algebra helpers (dense views, numerical rank, subspaces, a difference Jacobian).

``scipy.sparse`` is imported on first use: only a sparse structure needs it.
"""

import sys

import numpy as np

EPS = np.finfo(float).eps


def as_matrix(a, name="matrix"):
    """Return ``a`` as a 2-D float array (no copy if already one)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def issparse(a):
    """True iff ``a`` is a scipy.sparse array or matrix, importing nothing.

    No sparse array can exist while ``scipy.sparse`` is not yet imported, so
    then the answer is False without loading it.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def dense(a):
    """``a`` as a dense array: a sparse array is densified, anything else returned as is.

    The one way a reader that needs dense Dirac blocks (an SVD, a LAPACK
    factorization, a small validation) gets them from a sparse structure.
    """
    return a.toarray() if issparse(a) else a


def csr_from_coo(shape, rows, cols, values):
    """The CSR array with ``values`` at (``rows``, ``cols``); entries at one position add up.

    Its indices are int32, as in the CSR array scipy builds from a dense one.
    """
    import scipy.sparse

    index = np.int32 if max(*shape, len(values)) < 2**31 else np.int64
    rows, cols = np.asarray(rows, dtype=index), np.asarray(cols, dtype=index)
    return scipy.sparse.coo_array((values, (rows, cols)), shape=shape).tocsr()


def subspace_bases(m):
    """Orthonormal bases (columns) of im(m^T) and ker(m), from one SVD.

    The numerical rank counts the singular values above max(shape) * eps times
    the largest one; a zero or empty matrix has rank 0.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0 or not np.any(m):
        return np.zeros((m.shape[1], 0)), np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > max(m.shape) * EPS * s[0]))
    return vt[:rank].T, vt[rank:].T


def _fd_jacobian(fn, y):
    """Forward-difference Jacobian of ``fn`` at y, step sqrt(eps)*(1+||y||)."""
    f0 = fn(y)
    jac = np.empty((f0.size, y.size))
    h = np.sqrt(EPS) * (1.0 + float(np.linalg.norm(y)))
    for j in range(y.size):
        yp = y.copy()
        yp[j] += h
        jac[:, j] = (fn(yp) - f0) / h
    return jac
