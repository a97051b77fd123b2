"""Staggered-grid discretizers producing finite-dimensional port-Hamiltonian DAEs.

Both generators build kernel representations whose skew-compatibility holds in
exact arithmetic (summation by parts on staggered grids), so the Dirac
conditions are met to roundoff for every resolution, and the discrete power
balance grad H(x)·xdot = <f_R, e_R> + <f_P, e_P> is an algebraic identity.
"""

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .dirac import DiracKernelRep
from .energy import GeneralHamiltonian, LinearGraph, QuadraticHamiltonian
from .errors import StructureError
from .system import assemble

__all__ = [
    "StringSpec",
    "DiffusionSpec",
    "string_system",
    "diffusion_system",
    "psi_potential",
]

# composite Gauss-Legendre used for strain-energy integrals
_PSI_PANELS = 4
_PSI_POINTS = 10


def _psi_rule():
    x, w = np.polynomial.legendre.leggauss(_PSI_POINTS)
    # map panels of [0, 1] to nodes/weights on the unit interval
    edges = np.linspace(0.0, 1.0, _PSI_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


_PSI_NODES, _PSI_WEIGHTS = _psi_rule()


def psi_potential(force, xi, eps):
    """Stored elastic energy density: ∫_0^eps force(xi, z) dz.

    Composite Gauss-Legendre quadrature (4 panels x 10 points on the scaled
    unit interval); exact for polynomial force laws and ~1e-14 accurate for
    smooth ones at moderate strains.  ``xi`` and ``eps`` broadcast.
    """
    xi = np.asarray(xi, dtype=float)
    eps = np.asarray(eps, dtype=float)
    z = eps[..., None] * _PSI_NODES
    vals = force(xi[..., None], z)
    out = eps * (vals @ _PSI_WEIGHTS)
    return float(out) if out.ndim == 0 else out


def _sample_coefficient(fn_or_value, points, name):
    if callable(fn_or_value):
        vals = np.asarray(fn_or_value(points), dtype=float) * np.ones_like(points)
    else:
        vals = float(fn_or_value) * np.ones_like(points)
    if np.any(vals <= 0):
        raise StructureError(f"{name} must be positive on the sampled grid")
    return vals


@dataclass(frozen=True)
class StringSpec:
    """Vibrating string with a (possibly nonlinear) restoring-force law.

    ``force(xi, eps)`` must broadcast over numpy arrays; ``rho`` is a positive
    mass density (callable or constant).
    """

    N: int
    interval: Tuple[float, float] = (0.0, 1.0)
    rho: Union[Callable, float] = 1.0
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


def string_hamiltonian(spec, grid=None):
    """Kinetic plus elastic energy of the staggered string discretization.

    State layout: momenta at the N+1 nodes, then strains on the N cells.
    """
    grid = grid or string_grid(spec)
    masses, cells, h = grid["masses"], grid["cells"], grid["h"]
    n_nodes = masses.size
    force = spec.force

    def value(x):
        p, e = x[:n_nodes], x[n_nodes:]
        return 0.5 * np.sum(p * p / masses) + h * np.sum(psi_potential(force, cells, e))

    def gradient(x):
        p, e = x[:n_nodes], x[n_nodes:]
        return np.concatenate([p / masses, h * force(cells, e)])

    return GeneralHamiltonian(value_fn=value, gradient_fn=gradient, dim=2 * spec.N + 1)


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

    f_mat = np.zeros((n, n))
    g_mat = np.zeros((n, n))
    f_mat[:n_s, :n_s] = np.eye(n_s)
    f_mat[0, n_s] = 1.0        # left boundary tension enters the first momentum row
    f_mat[n_v - 1, n_s + 1] = 1.0

    for i in range(n_v):       # momentum rows: tension differences / h
        if i < n_e:
            g_mat[i, n_v + i] = 1.0 / h
        if i > 0:
            g_mat[i, n_v + i - 1] = -1.0 / h
    for c in range(n_e):       # strain rows: velocity differences / h
        g_mat[n_v + c, c] = -1.0 / h
        g_mat[n_v + c, c + 1] = 1.0 / h
    g_mat[n_s, n_s] = 1.0      # port effort rows: e_P = boundary velocities
    g_mat[n_s, 0] = -1.0
    g_mat[n_s + 1, n_s + 1] = 1.0
    g_mat[n_s + 1, n_v - 1] = -1.0

    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=n_s, n_r=0, n_p=2)
    ham = string_hamiltonian(spec, grid)
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
    grid = diffusion_grid(spec)
    n_c = spec.N
    n_f = spec.N - 1
    n = n_c + n_f + 2
    h = grid["h"]

    f_mat = np.eye(n)
    g_mat = np.zeros((n, n))
    inv_h2 = 1.0 / (h * h)
    for i in range(n_c):       # cell rows: flux divergence
        if i > 0:
            g_mat[i, n_c + i - 1] = inv_h2
        if i < n_f:
            g_mat[i, n_c + i] = -inv_h2
    g_mat[0, n_c + n_f] = 1.0 / h       # inward boundary fluxes
    g_mat[n_c - 1, n_c + n_f + 1] = 1.0 / h
    for j in range(n_f):       # face rows: f_R = state difference quotient
        g_mat[n_c + j, j] = inv_h2
        g_mat[n_c + j, j + 1] = -inv_h2
    g_mat[n_c + n_f, 0] = -1.0 / h      # trace rows: f_P = nearest cell value
    g_mat[n_c + n_f + 1, n_c - 1] = -1.0 / h

    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=n_c, n_r=n_f, n_p=2)
    ham = QuadraticHamiltonian(H=h * np.eye(n_c))
    res = LinearGraph(R=np.diag(h * grid["a_face"]))
    sys = assemble(dirac, ham, res, causality)
    return sys, grid
