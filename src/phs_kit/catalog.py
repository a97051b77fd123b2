"""Built-in example systems reachable from the library and the CLI."""

import numpy as np

from .dirac import DiracKernelRep
from .discretize import DiffusionSpec, StringSpec, diffusion_system, string_system
from .energy import LinearGraph, QuadraticHamiltonian
from .errors import StructureError
from .system import assemble

__all__ = [
    "EXAMPLE_NAMES",
    "oscillator",
    "damped_oscillator",
    "forced_oscillator",
    "make_example",
    "builtin_hamiltonian",
]

EXAMPLE_NAMES = ("oscillator", "damped_oscillator", "forced_oscillator", "string", "diffusion")

FORCE_KINDS = {
    "linear": lambda scale: (lambda xi, eps: scale * eps),
    "tanh": lambda scale: (lambda xi, eps: scale * np.tanh(eps)),
}


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


def _string_force_spec(force, scale):
    if force not in FORCE_KINDS:
        raise StructureError(f"unknown force kind {force!r}; choose from {sorted(FORCE_KINDS)}")
    return {"kind": force, "scale": float(scale)}


def builtin_hamiltonian(name, params):
    """Reconstruct a declarative ("builtin") Hamiltonian from file parameters."""
    if name != "string":
        raise StructureError(f"unknown builtin Hamiltonian {name!r}")
    from .discretize import string_hamiltonian  # local import to avoid cycle at module load

    force = params.get("force", {"kind": "linear", "scale": 1.0})
    spec = StringSpec(
        N=int(params["N"]),
        interval=tuple(params.get("interval", (0.0, 1.0))),
        rho=_rho_from_params(params.get("rho", 1.0)),
        force=FORCE_KINDS[force["kind"]](float(force.get("scale", 1.0))),
    )
    return string_hamiltonian(spec)


def _rho_from_params(rho):
    if np.isscalar(rho):
        return float(rho)
    values = np.asarray(rho, dtype=float)

    def lookup(points):
        # node samples serialized in grid order
        return values

    return lookup


def make_example(name, **params):
    """Build a named example system.

    Returns
    -------
    sys : PhsSystem
        With ``metadata["hamiltonian_spec"]`` set when the energy is not a
        plain quadratic (needed to serialize the system declaratively).
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
        force_spec = _string_force_spec(force, scale)
        spec = StringSpec(N=n, interval=interval, rho=rho, force=FORCE_KINDS[force](scale))
        sys, grid = string_system(spec)
        sys.metadata["hamiltonian_spec"] = {
            "type": "builtin",
            "name": "string",
            "params": {
                "N": n,
                "interval": list(interval),
                "rho": rho,
                "force": force_spec,
            },
        }
        return sys, {"h": grid["h"], "N": n, "force": force}
    if name == "diffusion":
        n = int(params.get("N", 8))
        a_coeff = float(params.get("a_coeff", 1.0))
        interval = tuple(params.get("interval", (0.0, 1.0)))
        spec = DiffusionSpec(N=n, interval=interval, a_coeff=a_coeff)
        sys, grid = diffusion_system(spec)
        return sys, {"h": grid["h"], "N": n, "a_coeff": a_coeff}
    raise StructureError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
