"""Built-in example systems reachable from the library and the CLI."""

import numpy as np

from .dirac import DiracKernelRep
from .discretize import DiffusionSpec, NamedForce, StringSpec, diffusion_system, string_system
from .energy import LinearGraph, QuadraticHamiltonian
from .errors import StructureError
from .system import assemble

__all__ = [
    "EXAMPLE_NAMES",
    "oscillator",
    "damped_oscillator",
    "forced_oscillator",
    "make_example",
]

EXAMPLE_NAMES = ("oscillator", "damped_oscillator", "forced_oscillator", "string", "diffusion")


def oscillator():
    """Lossless harmonic oscillator: canonical skew graph, H = |x|^2 / 2."""
    dirac = DiracKernelRep(
        F=np.eye(2),
        G=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        n_s=2,
    )
    return assemble(dirac, QuadraticHamiltonian(H=np.eye(2)), None, ())


def damped_oscillator(damping=1.0):
    """Oscillator with a linear resistive port: f_R = velocity, e_R = -c f_R."""
    if damping < 0:
        raise StructureError("damping must be nonnegative")
    f_mat = np.diag([-1.0, -1.0, 1.0])
    g_mat = np.array([
        [0.0, -1.0, 0.0],
        [1.0, 0.0, -1.0],
        [0.0, -1.0, 0.0],
    ])
    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=2, n_r=1)
    return assemble(dirac, QuadraticHamiltonian(H=np.eye(2)), LinearGraph(R=[[damping]]), ())


def forced_oscillator():
    """Oscillator with one external channel: force as port flow, velocity as effort."""
    f_mat = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    g_mat = np.array([
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0],
    ])
    dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=2, n_p=1)
    return assemble(dirac, QuadraticHamiltonian(H=np.eye(2)), None, ("flow",))


def make_example(name, **params):
    """Build a named example system.

    Returns
    -------
    sys : PhsSystem
        Its Hamiltonian's ``to_dict`` is its file form (the string's is a
        "builtin" document with N, interval, rho and the named force).
    info : dict
        Grid/parameter metadata.
    """
    if name == "oscillator":
        return oscillator(), {}
    if name == "damped_oscillator":
        return damped_oscillator(damping=float(params.get("damping", 1.0))), {
            "damping": float(params.get("damping", 1.0))
        }
    if name == "forced_oscillator":
        return forced_oscillator(), {}
    if name == "string":
        n = int(params.get("N", 8))
        force = str(params.get("force", "linear"))
        scale = float(params.get("scale", 1.0))
        rho = float(params.get("rho", 1.0))
        interval = tuple(params.get("interval", (0.0, 1.0)))
        spec = StringSpec(N=n, interval=interval, rho=rho, force=NamedForce(force, scale))
        sys, grid = string_system(spec)
        return sys, {"h": grid["h"], "N": n, "force": force}
    if name == "diffusion":
        n = int(params.get("N", 8))
        a_coeff = float(params.get("a_coeff", 1.0))
        interval = tuple(params.get("interval", (0.0, 1.0)))
        spec = DiffusionSpec(N=n, interval=interval, a_coeff=a_coeff)
        sys, grid = diffusion_system(spec)
        return sys, {"h": grid["h"], "N": n, "a_coeff": a_coeff}
    raise StructureError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
