"""Small shared linear-algebra helpers (numerical rank, subspaces)."""

import numpy as np

EPS = np.finfo(float).eps


def as_matrix(a, name="matrix"):
    """Return ``a`` as a 2-D float array (no copy if already one)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


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


def subspace_angle_max(a, b):
    """Largest principal angle (radians) between the column spans of a, b.

    Computed through its sine (max singular value of the projection of one
    orthonormal basis onto the other's complement), which stays accurate for
    nearly identical subspaces where the cosine formula loses half the digits.
    """
    if a.shape[1] != b.shape[1]:
        return np.pi / 2 if max(a.shape[1], b.shape[1]) else 0.0
    if a.shape[1] == 0:
        return 0.0
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    rejection = qb - qa @ (qa.T @ qb)
    sine = np.linalg.svd(rejection, compute_uv=False).max()
    return float(np.arcsin(np.clip(sine, 0.0, 1.0)))
