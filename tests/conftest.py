import numpy as np
import pytest

import phs_kit as pk
from phs_kit.dirac import _kernel_basis_2n


def random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def random_dirac(rng, n, mix=True, band=None):
    """Valid kernel representation from the graph of a random skew map.

    D = {(J e, e)} gives F = I, G = -J; an optional well-conditioned left
    factor changes the representation without changing the subspace.  With
    ``band``, J keeps only its entries within ``band`` of the diagonal and the
    left factor is a scaled row permutation, so F and G stay sparse.
    """
    j = random_skew(rng, n)
    if band is not None:
        j = np.triu(np.tril(j, band), -band)
    f_mat, g_mat = np.eye(n), -j
    if mix:
        if band is None:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        else:
            q = np.eye(n)[rng.permutation(n)]
        scale = np.diag(rng.uniform(0.5, 2.0, size=n))
        m = q @ scale
        f_mat, g_mat = m @ f_mat, m @ g_mat
    splits = sorted(rng.choice(n + 1, size=2))
    n_s = max(1, splits[0]) if n > 1 else 1
    n_r = splits[1] - splits[0] if splits[1] >= n_s else 0
    n_s = min(n_s, n)
    n_r = min(n_r, n - n_s)
    n_p = n - n_s - n_r
    return pk.DiracKernelRep(F=f_mat, G=g_mat, n_s=n_s, n_r=n_r, n_p=n_p)


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


def subspace_mismatch(a, b):
    """Largest principal angle (radians) between the column spans of a, b.

    Computed through its sine (max singular value of the projection of one
    orthonormal basis onto the other's complement), which stays accurate for
    nearly identical subspaces where the cosine formula loses half the digits.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape[1] != b.shape[1]:
        return np.pi / 2 if max(a.shape[1], b.shape[1]) else 0.0
    if a.shape[1] == 0:
        return 0.0
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    rejection = qb - qa @ (qa.T @ qb)
    sine = np.linalg.svd(rejection, compute_uv=False).max()
    return float(np.arcsin(np.clip(sine, 0.0, 1.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def oscillator():
    return pk.oscillator()


@pytest.fixture
def damped():
    return pk.damped_oscillator(1.0)


@pytest.fixture
def forced():
    return pk.forced_oscillator()
