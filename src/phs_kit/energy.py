"""Hamiltonians, the discrete gradient, and passive resistive relations.

This module defines the energy types (discretize adds the string's) and the
relation types; the simulator, the audits and the file layer use only these
methods.  An energy has ``value`` and ``gradient`` on one state (n_s,) or a
batch (m, n_s), ``hessian(x)`` at one state (an array or a sparse array),
``hessian()`` -> the constant Hessian of an affine gradient (else None), and
``to_dict`` (None when it has no file form); the one discrete gradient,
``discrete_gradient(h, x, y)``, needs only these.  A relation has ``n_aux``
(its auxiliary unknowns in a time step), ``at(x)`` (the concrete relation at
a state), ``pair(v, x)`` -> (f_R, e_R), ``linear_maps()`` -> (A, B) when
f_R = A v and e_R = B v at every state (else None), ``check(tol, states)`` ->
ResistiveValidation, ``distance(x, f_R, e_R)`` and ``to_dict``.  ``pair`` and
``distance`` take one vector or a batch over leading axes; the state x matters
only to a Modulated relation, which resolves a batch row by row.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._linalg import _fd_jacobian, as_matrix, subspace_bases
from .errors import DomainError, StructureError

# 6-point Gauss-Legendre rule mapped to [0, 1] for the averaged vector field
_AVF_NODES, _AVF_WEIGHTS = np.polynomial.legendre.leggauss(6)
_AVF_NODES, _AVF_WEIGHTS = 0.5 * (_AVF_NODES + 1.0), 0.5 * _AVF_WEIGHTS

__all__ = [
    "QuadraticHamiltonian",
    "GeneralHamiltonian",
    "LinearGraph",
    "Parametric",
    "Modulated",
    "ResistiveValidation",
    "ham_eval",
    "ham_grad",
    "discrete_gradient",
    "resistive_check",
    "resistive_residual",
    "check_gradient",
]


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H(x) = 1/2 x^T H x + b^T x + c with symmetric (self-dual) H."""

    H: np.ndarray
    b: np.ndarray = None
    c: float = 0.0
    sym_tol: float = 1e-10

    def __post_init__(self):
        H = as_matrix(self.H, "H")
        if H.shape[0] != H.shape[1]:
            raise StructureError(f"H must be square, got {H.shape}")
        b = np.zeros(H.shape[0]) if self.b is None else np.atleast_1d(np.asarray(self.b, float))
        if b.shape != (H.shape[0],):
            raise StructureError(f"b must have length {H.shape[0]}, got {b.shape}")
        defect = float(np.max(np.abs(H - H.T))) if H.size else 0.0
        if defect > self.sym_tol:
            raise StructureError(f"H is not symmetric: max |H - H^T| = {defect:.3e}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self):
        return self.H.shape[0]

    def value(self, x):
        """Energy of a state (float) or of each row of a batch (array)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(0.5 * x @ (self.H @ x) + self.b @ x + self.c)
        return 0.5 * np.einsum("ij,ij->i", x @ self.H.T, x) + x @ self.b + self.c

    def gradient(self, x):
        """Gradient of a state, or of each row of a batch."""
        return np.asarray(x, dtype=float) @ self.H.T + self.b

    def hessian(self, x=None):
        """H, at every state: the gradient is the affine map H x + b."""
        return self.H

    def to_dict(self):
        """Inline file form."""
        return {"type": "quadratic", "H": self.H.tolist(), "b": self.b.tolist(), "c": self.c}


@dataclass(frozen=True)
class GeneralHamiltonian:
    """Differentiable energy given by user callables for value and gradient.

    The callables take one state; a batch (m, n_s) is evaluated row by row.
    ``domain`` (optional) is a predicate for the open set on which the energy
    is defined; evaluations outside raise DomainError.
    """

    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    domain: Optional[Callable[[np.ndarray], bool]] = None

    def _check(self, x):
        if self.domain is not None and not self.domain(x):
            raise DomainError(f"state outside Hamiltonian domain: {x}")

    def value(self, x):
        """Energy of a state (float) or of each row of a batch (array)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([self.value(row) for row in x])
        self._check(x)
        return float(self.value_fn(x))

    def gradient(self, x):
        """Gradient of a state, or of each row of a batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([self.gradient(row) for row in x]).reshape(len(x), self.dim)
        self._check(x)
        g = np.atleast_1d(np.asarray(self.gradient_fn(x), dtype=float))
        if g.shape != (self.dim,):
            raise StructureError(f"gradient must have length {self.dim}, got {g.shape}")
        return g

    def hessian(self, x=None):
        """Forward difference of the gradient at x; None without x (not known to be constant)."""
        return None if x is None else _fd_jacobian(self.gradient, np.asarray(x, dtype=float))

    def to_dict(self):
        """None: user callables have no file form; a subclass may give one."""
        return None


def ham_eval(h, x):
    """Energy value H(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.dim,):
        raise StructureError(f"state must have length {h.dim}, got {x.shape}")
    return h.value(x)


def ham_grad(h, x):
    """Energy gradient (the co-energy variable at state x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.dim,):
        raise StructureError(f"state must have length {h.dim}, got {x.shape}")
    return h.gradient(x)


def discrete_gradient(h, x, y):
    """Averaged vector field g = ∫_0^1 grad H(x + s (y - x)) ds between states x and y.

    g·(y-x) = H(y) - H(x) and g(x, x) = grad H(x).  An affine gradient
    (``hessian()`` not None) gives the midpoint gradient, exactly.
    Otherwise a fixed 6-point Gauss-Legendre rule on [0, 1] integrates it:
    exact for polynomial H up to degree 12, else the energy defect is about
    1.9e-16 |y-x|^13 max ||D^13 H|| along the segment.  A ``domain``
    predicate is checked at the rule's interior points, not at x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (h.dim,) or y.shape != (h.dim,):
        raise StructureError(f"states must have length {h.dim}, got {x.shape} and {y.shape}")
    if h.hessian() is not None:
        return h.gradient(0.5 * (x + y))
    return _AVF_WEIGHTS @ h.gradient(x + _AVF_NODES[:, None] * (y - x))


def check_gradient(h, points, step=1e-6):
    """Verify gradient/value consistency by central differences at given points.

    Returns the worst relative error; raises nothing.  Intended for validating
    user-supplied GeneralHamiltonian pairs.
    """
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        g = ham_grad(h, x)
        fd = np.zeros_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            fd[i] = (ham_eval(h, x + e) - ham_eval(h, x - e)) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
    return worst


# --- resistive relations ----------------------------------------------------


@dataclass(frozen=True)
class ResistiveValidation:
    """Result of a passivity check on a resistive relation."""

    passed: bool
    min_eig: float
    max_eig: float
    tol: float
    kind: str
    states_checked: int = 0

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "min_eig": float(self.min_eig),
            "max_eig": float(self.max_eig),
            "tol": float(self.tol),
            "kind": self.kind,
            "states_checked": int(self.states_checked),
        }


def _sym_eigrange(m):
    """Extreme eigenvalues of sym(m) and the tolerance scale max(1, max|m|)."""
    if m.size == 0:
        return 0.0, 0.0, 1.0
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(w[0]), float(w[-1]), max(1.0, float(np.max(np.abs(m))))


@dataclass(frozen=True)
class LinearGraph:
    """Graph relation e_R = -R f_R; passive iff sym(R) is PSD.

    The auxiliary unknowns are f_R itself (n_aux = n_r).
    """

    R: np.ndarray

    def __post_init__(self):
        R = as_matrix(self.R, "R") if np.ndim(self.R) == 2 else np.atleast_2d(np.asarray(self.R, float))
        if R.shape[0] != R.shape[1]:
            raise StructureError(f"R must be square, got {R.shape}")
        object.__setattr__(self, "R", R)

    @property
    def n_r(self):
        return self.R.shape[0]

    @property
    def n_aux(self):
        return self.n_r

    def at(self, x):
        """The relation itself: it does not depend on the state."""
        return self

    def effort(self, f_r):
        return -(np.asarray(f_r, dtype=float) @ self.R.T)

    def pair(self, v, x=None):
        """(f_R, e_R) = (v, -R v)."""
        return v, self.effort(v)

    def linear_maps(self):
        """(I, -R): f_R = v and e_R = -R v."""
        return np.eye(self.n_r), -self.R

    def check(self, tol=1e-10, states=None):
        """Passes iff sym(R) >= -tol * max(1, max|R|)."""
        lo, hi, scale = _sym_eigrange(self.R)
        return ResistiveValidation(lo >= -tol * scale, lo, hi, tol, "linear_graph")

    def distance(self, x, f_r, e_r):
        """||e_R + R f_R||."""
        return np.linalg.norm(e_r - self.effort(f_r), axis=-1)

    def to_dict(self):
        return {"type": "linear_graph", "R": self.R.tolist()}


@dataclass(frozen=True)
class Parametric:
    """Image relation f_R = A λ, e_R = B λ; passive iff sym(A^T B) is NSD.

    The auxiliary unknowns are the parameters λ (n_aux = n_lambda).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape != B.shape:
            raise StructureError(f"A and B must have equal shape, got {A.shape}, {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n_r(self):
        return self.A.shape[0]

    @property
    def n_lambda(self):
        return self.A.shape[1]

    @property
    def n_aux(self):
        return self.n_lambda

    def at(self, x):
        """The relation itself: it does not depend on the state."""
        return self

    def pair(self, v, x=None):
        """(f_R, e_R) = (A λ, B λ) for λ = v."""
        return v @ self.A.T, v @ self.B.T

    def linear_maps(self):
        """(A, B): f_R = A λ and e_R = B λ."""
        return self.A, self.B

    def check(self, tol=1e-10, states=None):
        """Passes iff sym(A^T B) <= tol * max(1, max|A^T B|)."""
        lo, hi, scale = _sym_eigrange(self.A.T @ self.B)
        return ResistiveValidation(hi <= tol * scale, lo, hi, tol, "parametric")

    def distance(self, x, f_r, e_r):
        """Euclidean distance of the stacked pair (f_R; e_R) to im[A; B]."""
        q = subspace_bases(np.vstack([self.A, self.B]).T)[0]
        w = np.concatenate([f_r, e_r], axis=-1)
        return np.linalg.norm(w - (w @ q) @ q.T, axis=-1)

    def to_dict(self):
        return {"type": "parametric", "A": self.A.tolist(), "B": self.B.tolist()}


@dataclass(frozen=True)
class Modulated:
    """State-modulated family of resistive relations.

    ``family`` maps a state to a LinearGraph or Parametric; passivity is only
    checkable at sampled states (relative closedness of the family is a
    modeling assumption, not decided numerically).  A modulated relation has
    no file form.
    """

    family: Callable[[np.ndarray], object]
    n_r: int

    @property
    def n_aux(self):
        return self.n_r

    def at(self, x):
        """The concrete relation at state x."""
        rel = self.family(np.asarray(x, dtype=float))
        if isinstance(rel, Modulated):
            raise StructureError("modulated family must resolve to a concrete relation")
        if rel.n_r != self.n_r:
            raise StructureError(f"family returned n_r = {rel.n_r}, expected {self.n_r}")
        return rel

    def pair(self, v, x):
        """(f_R, e_R) of the member at x; a batch (m, n_aux) needs states x (m, n_s)."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return self.at(x).pair(v)
        f_r, e_r = np.empty((2, len(v), self.n_r))
        for k, (x_k, v_k) in enumerate(zip(x, v)):
            f_r[k], e_r[k] = self.at(x_k).pair(v_k)
        return f_r, e_r

    def linear_maps(self):
        """None: the maps depend on the state."""
        return None

    def check(self, tol=1e-10, states=None):
        """Checks the family member at every sample state (required)."""
        if states is None or len(states) == 0:
            raise StructureError("checking a modulated relation requires sample states")
        subs = [self.at(x).check(tol) for x in states]
        return ResistiveValidation(
            all(s.passed for s in subs), min(s.min_eig for s in subs),
            max(s.max_eig for s in subs), tol, "modulated", states_checked=len(subs),
        )

    def distance(self, x, f_r, e_r):
        """Distance to the member at x, row by row for a batch."""
        f_r = np.asarray(f_r, dtype=float)
        if f_r.ndim == 1:
            return self.at(x).distance(x, f_r, e_r)
        return np.array([self.at(x_k).distance(x_k, f_k, e_k)
                         for x_k, f_k, e_k in zip(x, f_r, e_r)])

    def to_dict(self):
        raise StructureError("modulated resistive relations have no file form")


def resistive_check(rel, tol=1e-10, states=None):
    """Passivity check via eigenvalues of the relevant symmetric part.

    LinearGraph passes iff sym(R) >= -tol*scale; Parametric iff
    sym(A^T B) <= tol*scale.  A Modulated relation is checked at the supplied
    sample states (required).  The eigenvalue tolerance is scaled by the
    matrix max-norm to be robust to roundoff.
    """
    if not tol > 0:
        raise StructureError("tol must be positive")
    if rel is None:
        return ResistiveValidation(True, 0.0, 0.0, tol, "none")
    return rel.check(tol, states)


def resistive_residual(rel, x, f_r, e_r):
    """Distance of (f_R, e_R) to the relation (at state x for modulated ones).

    LinearGraph: ||e_R + R f_R||.  Parametric: Euclidean distance of the
    stacked pair to im[A; B].  Returns 0.0 for a trivial (None) relation.
    """
    f_r = np.atleast_1d(np.asarray(f_r, dtype=float))
    e_r = np.atleast_1d(np.asarray(e_r, dtype=float))
    if rel is None:
        if f_r.size or e_r.size:
            raise StructureError("system has no resistive port but resistive values were given")
        return 0.0
    if f_r.shape != (rel.n_r,) or e_r.shape != (rel.n_r,):
        raise StructureError(f"resistive values must have length {rel.n_r}")
    return float(rel.distance(x, f_r, e_r))
