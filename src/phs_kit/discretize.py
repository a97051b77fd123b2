"""Staggered-grid discretizers producing finite-dimensional port-Hamiltonian DAEs.

Both generators build kernel representations whose skew-compatibility holds in
exact arithmetic (summation by parts on staggered grids), so the Dirac
conditions are met to roundoff for every resolution, and the discrete power
balance grad H(x)·xdot = <f_R, e_R> + <f_P, e_P> is an algebraic identity.
F and G are assembled from index arrays as sparse CSR arrays: no n x n dense
array is formed at any resolution.  ``scipy.sparse`` is imported when a
discretizer first runs, not with the package.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from ._linalg import EPS, csr_from_coo
from .dirac import DiracKernelRep
from .energy import GeneralHamiltonian, LinearGraph, QuadraticHamiltonian
from .errors import StructureError
from .system import assemble

__all__ = [
    "NamedForce",
    "StringHamiltonian",
    "StringSpec",
    "DiffusionSpec",
    "string_system",
    "diffusion_system",
    "psi_potential",
]

# one 40-point Gauss-Legendre rule mapped to [0, 1] for strain-energy integrals
_PSI_NODES, _PSI_WEIGHTS = np.polynomial.legendre.leggauss(40)
_PSI_NODES, _PSI_WEIGHTS = 0.5 * (_PSI_NODES + 1.0), 0.5 * _PSI_WEIGHTS


def psi_potential(force, xi, eps):
    """Stored elastic energy density: ∫_0^eps force(xi, z) dz.

    A 40-point Gauss-Legendre rule on [0, eps]: exact for polynomial force
    laws up to degree 79 and ~1e-14 accurate for smooth ones at moderate
    strains.  ``xi`` and ``eps`` broadcast.
    """
    xi = np.asarray(xi, dtype=float)
    eps = np.asarray(eps, dtype=float)
    z = eps[..., None] * _PSI_NODES
    vals = force(xi[..., None], z)
    out = eps * (vals @ _PSI_WEIGHTS)
    return float(out) if out.ndim == 0 else out


def _log_cosh(eps):
    """log cosh eps to a few ulp, without overflow at any strain."""
    a = np.abs(eps)
    near = np.log1p(2.0 * np.sinh(0.5 * np.minimum(a, 1.0)) ** 2)  # no cancellation near 0
    return np.where(a < 1.0, near, a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))


# named restoring-force laws f(eps), their potentials ∫_0^eps f and their slopes f'(eps)
FORCE_KINDS = {
    "linear": (lambda eps: eps, lambda eps: 0.5 * eps * eps, np.ones_like),
    "tanh": (np.tanh, _log_cosh, lambda eps: 1.0 - np.tanh(eps) ** 2),
}


@dataclass(frozen=True)
class NamedForce:
    """Restoring force ``force(xi, eps) = scale * f(eps)`` of a kind in FORCE_KINDS.

    ``potential(eps)`` is its energy density and ``slope(eps)`` its derivative,
    both in closed form; kind and scale are the string energy's file form.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in FORCE_KINDS:
            raise StructureError(
                f"unknown force kind {self.kind!r}; choose from {sorted(FORCE_KINDS)}")

    def __call__(self, xi, eps):
        return self.scale * FORCE_KINDS[self.kind][0](eps)

    def potential(self, eps):
        return self.scale * FORCE_KINDS[self.kind][1](eps)

    def slope(self, eps):
        return self.scale * FORCE_KINDS[self.kind][2](eps)


def _sample_coefficient(coeff, points, name):
    """A callable, a constant or samples of a coefficient, as values at ``points``."""
    vals = np.asarray(coeff(points) if callable(coeff) else coeff, dtype=float)
    vals = vals * np.ones_like(points)
    if np.any(vals <= 0):
        raise StructureError(f"{name} must be positive on the sampled grid")
    return vals


@dataclass(frozen=True)
class StringSpec:
    """Vibrating string with a (possibly nonlinear) restoring-force law.

    ``force(xi, eps)`` must broadcast over numpy arrays; a NamedForce also
    gives the energy a file form.  ``rho`` is a positive mass density: a
    callable, a constant, or a sequence of its N+1 node samples.
    """

    N: int
    interval: Tuple[float, float] = (0.0, 1.0)
    rho: Union[Callable, float, Tuple[float, ...]] = 1.0
    force: Callable = lambda xi, eps: eps

    def __post_init__(self):
        if self.N < 2:
            raise StructureError("string discretization needs N >= 2 cells")
        a, b = self.interval
        if not b > a:
            raise StructureError("interval must satisfy b > a")


def string_grid(spec):
    """Nodes, cell midpoints, spacing and lumped node masses for a StringSpec."""
    a, b = spec.interval
    h = (b - a) / spec.N
    nodes = a + h * np.arange(spec.N + 1)
    cells = a + h * (np.arange(spec.N) + 0.5)
    rho = _sample_coefficient(spec.rho, nodes, "rho")
    masses = h * rho
    masses[0] *= 0.5
    masses[-1] *= 0.5  # half cells at the boundary nodes
    return {"nodes": nodes, "cells": cells, "h": h, "masses": masses, "rho": rho}


def _strain_coupling(n_cells):
    """Rows, columns and signs of the +-1/h entries of the string's G (see ``string_system``)."""
    c, n_v = np.arange(n_cells), n_cells + 1
    rows = np.concatenate([c, c + 1, n_v + c, n_v + c])
    cols = np.concatenate([n_v + c, n_v + c, c, c + 1])
    return rows, cols, np.repeat([1.0, -1.0, -1.0, 1.0], n_cells)


class StringHamiltonian(GeneralHamiltonian):
    """Kinetic plus elastic energy of the staggered string discretization.

    State layout: momenta at the N+1 nodes, then strains on the N cells.
    ``value`` and ``gradient`` (also ``value_fn`` and ``gradient_fn``) take
    one state or a batch (m, n_s) in one array expression.  The strain energy
    is a NamedForce's ``potential``, else ``psi_potential`` of the force.
    """

    def __init__(self, spec, grid=None):
        grid = grid or string_grid(spec)
        self.spec = spec
        self.masses, self.cells, self.h = grid["masses"], grid["cells"], grid["h"]
        super().__init__(value_fn=self.value, gradient_fn=self.gradient, dim=2 * spec.N + 1)

    def value(self, x):
        """Energy of a state (float) or of each row of a batch (array)."""
        x = np.asarray(x, dtype=float)
        p, e = x[..., :self.masses.size], x[..., self.masses.size:]
        force = self.spec.force
        psi = (force.potential(e) if isinstance(force, NamedForce)
               else psi_potential(force, self.cells, e))
        out = 0.5 * np.sum(p * p / self.masses, axis=-1) + self.h * np.sum(psi, axis=-1)
        return float(out) if x.ndim == 1 else out

    def gradient(self, x):
        """Gradient of a state, or of each row of a batch."""
        x = np.asarray(x, dtype=float)
        p, e = x[..., :self.masses.size], x[..., self.masses.size:]
        return np.concatenate([p / self.masses, self.h * self.spec.force(self.cells, e)], axis=-1)

    def hessian(self, x=None):
        """Sparse diagonal Hessian at x: 1/masses, then h f'(strain); None without x.

        A callable force's f' is one elementwise forward difference.
        """
        if x is None:
            return None
        import scipy.sparse

        e, force = np.asarray(x, dtype=float)[self.masses.size:], self.spec.force
        if isinstance(force, NamedForce):
            slope = force.slope(e)
        else:
            step = (e + np.sqrt(EPS) * (1.0 + np.abs(e))) - e
            slope = (force(self.cells, e + step) - force(self.cells, e)) / step
        return scipy.sparse.diags_array(np.concatenate([1.0 / self.masses, self.h * slope]))

    def to_dict(self):
        """The "builtin" file form; None for a callable force or density."""
        spec, force = self.spec, self.spec.force
        if not isinstance(force, NamedForce) or callable(spec.rho):
            return None
        params = {"N": spec.N, "interval": list(spec.interval), "rho": spec.rho,
                  "force": {"kind": force.kind, "scale": float(force.scale)}}
        return {"type": "builtin", "name": "string", "params": params}

    def check_structure(self, dirac):
        """StructureError unless the 4N coupling entries of ``dirac.G`` are this interval's 1/h."""
        rows, cols, signs = _strain_coupling(self.spec.N)
        carried = signs * dirac.csr[1][rows, cols]
        worst = carried[np.argmax(np.abs(carried * self.h - 1.0))]
        if not abs(worst * self.h - 1.0) <= 1e-12:
            raise StructureError(f"the string's interval {list(self.spec.interval)} gives "
                                 f"1/h = {1.0 / self.h!r}, but G carries {float(worst)!r}")

    @classmethod
    def from_params(cls, params):
        """The energy of a "builtin" string document's ``params`` (see ``to_dict``)."""
        force = params.get("force", {"kind": "linear", "scale": 1.0})
        return cls(StringSpec(
            N=int(params["N"]),
            interval=tuple(params.get("interval", (0.0, 1.0))),
            rho=params.get("rho", 1.0),
            force=NamedForce(str(force["kind"]), float(force.get("scale", 1.0))),
        ))


def string_system(spec, causality=("effort", "effort")):
    """Assemble the staggered string system.

    State: momenta p_0..p_N at the nodes and strains on the N cells
    (n_s = 2N+1, n_r = 0, n_p = 2).  The two port channels carry the boundary
    tensions as flows, f_P = (-tension(a), +tension(b)), and the boundary
    velocities as efforts, e_P = (v(a), v(b)), so <f_P, e_P> is the supplied
    power.  Default causality prescribes the end velocities (clamped ends for
    zero input).

    Returns
    -------
    sys : PhsSystem
    grid : dict with nodes, cells, h, masses
    """
    grid = string_grid(spec)
    n_v = spec.N + 1  # momentum nodes
    n_e = spec.N      # strain cells
    n_s = n_v + n_e
    n = n_s + 2
    h = grid["h"]

    # identity on the states; the boundary tensions enter the end momentum rows
    diagonal = np.arange(n_s)
    f_mat = csr_from_coo((n, n), np.r_[diagonal, 0, n_v - 1], np.r_[diagonal, n_s, n_s + 1],
                         np.ones(n_s + 2))

    # momentum rows: tension differences / h; strain rows: velocity differences / h;
    # port effort rows: e_P = boundary velocities
    rows, cols, signs = _strain_coupling(n_e)
    g_mat = csr_from_coo((n, n), np.r_[rows, n_s, n_s, n_s + 1, n_s + 1],
                         np.r_[cols, n_s, 0, n_s + 1, n_v - 1],
                         np.r_[signs / h, 1.0, -1.0, 1.0, -1.0])

    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=n_s, n_r=0, n_p=2)
    ham = StringHamiltonian(spec, grid)
    sys = assemble(dirac, ham, None, causality)
    return sys, grid


@dataclass(frozen=True)
class DiffusionSpec:
    """Scalar diffusion on an interval with trace/flux boundary ports.

    ``a_coeff`` is the positive diffusion coefficient (callable or constant).
    """

    N: int
    interval: Tuple[float, float] = (0.0, 1.0)
    a_coeff: Union[Callable, float] = 1.0

    def __post_init__(self):
        if self.N < 2:
            raise StructureError("diffusion discretization needs N >= 2 cells")
        a, b = self.interval
        if not b > a:
            raise StructureError("interval must satisfy b > a")


def diffusion_grid(spec):
    a, b = spec.interval
    h = (b - a) / spec.N
    cells = a + h * (np.arange(spec.N) + 0.5)
    faces = a + h * np.arange(1, spec.N)  # interior faces only
    a_face = _sample_coefficient(spec.a_coeff, faces, "a_coeff")
    return {"cells": cells, "faces": faces, "h": h, "a_face": a_face}


def diffusion_system(spec, causality=("effort", "effort")):
    """Assemble the finite-volume diffusion system.

    State: N cell averages (n_s = N).  Interior faces carry the resistive
    port (n_r = N-1): f_R are the difference quotients of the state across
    each face and e_R = -R f_R with R = h*diag(a(face)), so <f_R, e_R> is the
    dissipated power.  The two boundary channels carry the nearest-cell trace
    as f_P and the inward boundary flux as e_P; <f_P, e_P> is the supplied
    power.  Default causality prescribes the boundary fluxes (insulated for
    zero input).

    Returns
    -------
    sys : PhsSystem
    grid : dict with cells, faces, h, a_face
    """
    import scipy.sparse

    grid = diffusion_grid(spec)
    n_c = spec.N
    n_f = spec.N - 1
    n = n_c + n_f + 2
    h = grid["h"]

    inv_h2 = 1.0 / (h * h)
    j = np.arange(n_f)
    ones = np.ones(n_f)
    # cell rows: flux divergence, then the inward boundary fluxes; face rows:
    # f_R = state difference quotient; trace rows: f_P = nearest cell value
    g_mat = csr_from_coo((n, n),
                         np.r_[j, j + 1, 0, n_c - 1, n_c + j, n_c + j, n_c + n_f, n_c + n_f + 1],
                         np.r_[n_c + j, n_c + j, n_c + n_f, n_c + n_f + 1, j, j + 1, 0, n_c - 1],
                         np.r_[-inv_h2 * ones, inv_h2 * ones, 1.0 / h, 1.0 / h,
                               inv_h2 * ones, -inv_h2 * ones, -1.0 / h, -1.0 / h])
    f_mat = scipy.sparse.eye_array(n, format="csr")

    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=n_c, n_r=n_f, n_p=2)
    ham = QuadraticHamiltonian(H=h * np.eye(n_c))
    res = LinearGraph(R=np.diag(h * grid["a_face"]))
    sys = assemble(dirac, ham, res, causality)
    return sys, grid
