"""System (JSON) and trajectory (CSV) file formats.

SystemFileV1: a JSON document with the dimensions, the kernel-representation
matrices in row-major order, the Hamiltonian (inline quadratic data or a
declarative "builtin" reference), the resistive relation, the per-channel
causality and free-form metadata.

TrajectoryFileV1: CSV with header ``t, x_0.., fR_0.., eR_0.., fP_0.., eP_0..``
and one row per grid node; channel columns carry the preceding interval's
value and are blank on the first row.  Floats are serialized with 17
significant digits, so write -> read round-trips bit-identically.
"""

import csv
import io
import json

import numpy as np

from .catalog import builtin_hamiltonian
from .dirac import DiracKernelRep
from .energy import LinearGraph, Parametric, QuadraticHamiltonian
from .errors import StructureError
from .system import Trajectory, assemble

__all__ = [
    "FileFormatError",
    "SYSTEM_FILE_VERSION",
    "system_to_dict",
    "parse_system_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "save_trajectory",
    "load_trajectory",
]

SYSTEM_FILE_VERSION = "1"


class FileFormatError(ValueError):
    """Malformed or unsupported system/trajectory file."""


def _fmt(value):
    return format(float(value), ".17g")


def _matrix(data, name):
    try:
        m = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if m.ndim != 2:
        raise FileFormatError(f"field {name!r} must be a row-major 2-D array")
    return m


def system_to_dict(sys, metadata=None):
    """Serialize an assembled system to the SystemFileV1 structure."""
    ham_doc = sys.ham.to_dict() or sys.metadata.get("hamiltonian_spec")
    if not ham_doc:
        raise StructureError(
            "only quadratic or builtin Hamiltonians can be serialized; "
            "arbitrary user Hamiltonians are library-level only"
        )
    res_doc = {"type": "none"} if sys.res is None else sys.res.to_dict()
    return {
        "version": SYSTEM_FILE_VERSION,
        "dims": {"n_s": sys.n_s, "n_r": sys.n_r, "n_p": sys.n_p},
        "F": sys.dirac.F.tolist(),
        "G": sys.dirac.G.tolist(),
        "hamiltonian": dict(ham_doc),
        "resistive": res_doc,
        "causality": list(sys.causality),
        "metadata": metadata if metadata is not None else {},
    }


def parse_system_dict(doc):
    """Parse a SystemFileV1 dict into unassembled components.

    Returns
    -------
    components : dict
        Keys dirac, ham, res, causality, metadata, hamiltonian_spec.

    Raises
    ------
    FileFormatError
        For missing/malformed fields (the caller maps this to exit code 2).
    """
    if not isinstance(doc, dict):
        raise FileFormatError("system file must contain a JSON object")
    if str(doc.get("version")) != SYSTEM_FILE_VERSION:
        raise FileFormatError(f"unsupported system file version {doc.get('version')!r}")
    try:
        dims = doc["dims"]
        n_s, n_r, n_p = int(dims["n_s"]), int(dims["n_r"]), int(dims["n_p"])
        f_mat = _matrix(doc["F"], "F")
        g_mat = _matrix(doc["G"], "G")
        ham_doc = doc["hamiltonian"]
        res_doc = doc.get("resistive", {"type": "none"})
        causality = [str(c) for c in doc.get("causality", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"missing or malformed system field: {exc}") from exc

    try:
        dirac = DiracKernelRep(F=f_mat, G=g_mat, n_s=n_s, n_r=n_r, n_p=n_p)
    except StructureError as exc:
        raise FileFormatError(f"inconsistent system dimensions: {exc}") from exc

    ham_spec = None
    ham_type = ham_doc.get("type") if isinstance(ham_doc, dict) else None
    if ham_type == "quadratic":
        try:
            ham = QuadraticHamiltonian(
                H=_matrix(ham_doc["H"], "hamiltonian.H"),
                b=np.asarray(ham_doc.get("b", np.zeros(n_s)), dtype=float),
                c=float(ham_doc.get("c", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed quadratic Hamiltonian: {exc}") from exc
    elif ham_type == "builtin":
        try:
            ham = builtin_hamiltonian(str(ham_doc["name"]), ham_doc.get("params", {}))
            ham_spec = {"type": "builtin", "name": str(ham_doc["name"]),
                        "params": ham_doc.get("params", {})}
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed builtin Hamiltonian: {exc}") from exc
    else:
        raise FileFormatError(f"unknown Hamiltonian type {ham_type!r}")

    res_type = res_doc.get("type") if isinstance(res_doc, dict) else None
    if res_type in (None, "none"):
        res = None
    elif res_type == "linear_graph":
        res = LinearGraph(R=_matrix(res_doc["R"], "resistive.R"))
    elif res_type == "parametric":
        res = Parametric(A=_matrix(res_doc["A"], "resistive.A"),
                         B=_matrix(res_doc["B"], "resistive.B"))
    else:
        raise FileFormatError(f"unknown resistive type {res_type!r}")

    return {
        "dirac": dirac,
        "ham": ham,
        "res": res,
        "causality": causality,
        "metadata": doc.get("metadata", {}),
        "hamiltonian_spec": ham_spec,
    }


def system_from_dict(doc):
    """Parse and assemble (validations re-run; StructureError on failure)."""
    parts = parse_system_dict(doc)
    sys = assemble(parts["dirac"], parts["ham"], parts["res"], parts["causality"])
    if parts["hamiltonian_spec"]:
        sys.metadata["hamiltonian_spec"] = parts["hamiltonian_spec"]
    sys.metadata["file_metadata"] = parts["metadata"]
    return sys


def save_system(sys, path, metadata=None):
    doc = system_to_dict(sys, metadata=metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc
    return system_from_dict(doc)


# --- trajectory CSV ----------------------------------------------------------


def _traj_header(n_s, n_r, n_p):
    cols = ["t"]
    cols += [f"x_{i}" for i in range(n_s)]
    cols += [f"fR_{i}" for i in range(n_r)]
    cols += [f"eR_{i}" for i in range(n_r)]
    cols += [f"fP_{i}" for i in range(n_p)]
    cols += [f"eP_{i}" for i in range(n_p)]
    return cols


def trajectory_to_csv(traj):
    """Render TrajectoryFileV1 as a string."""
    n_s = traj.x.shape[1]
    n_r = traj.f_r.shape[1]
    n_p = traj.f_p.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_traj_header(n_s, n_r, n_p))
    blank = [""] * (2 * n_r + 2 * n_p)
    writer.writerow([_fmt(traj.t[0])] + [_fmt(v) for v in traj.x[0]] + blank)
    for k in range(traj.steps):
        row = [_fmt(traj.t[k + 1])]
        row += [_fmt(v) for v in traj.x[k + 1]]
        row += [_fmt(v) for v in traj.f_r[k]]
        row += [_fmt(v) for v in traj.e_r[k]]
        row += [_fmt(v) for v in traj.f_p[k]]
        row += [_fmt(v) for v in traj.e_p[k]]
        writer.writerow(row)
    return buf.getvalue()


def save_trajectory(traj, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trajectory_to_csv(traj))


def trajectory_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError("empty trajectory file") from None
    counts = {"x": 0, "fR": 0, "eR": 0, "fP": 0, "eP": 0}
    if not header or header[0].strip() != "t":
        raise FileFormatError("trajectory header must start with 't'")
    for name in header[1:]:
        base = name.strip().split("_")[0]
        if base not in counts:
            raise FileFormatError(f"unexpected trajectory column {name!r}")
        counts[base] += 1
    n_s, n_r, n_p = counts["x"], counts["fR"], counts["fP"]
    if counts["eR"] != n_r or counts["eP"] != n_p:
        raise FileFormatError("flow/effort column counts do not match")
    width = 1 + n_s + 2 * n_r + 2 * n_p

    rows = [row for row in reader if row]
    if len(rows) < 2:
        raise FileFormatError("trajectory needs at least two grid nodes")
    t = np.empty(len(rows))
    x = np.empty((len(rows), n_s))
    f_r = np.empty((len(rows) - 1, n_r))
    e_r = np.empty((len(rows) - 1, n_r))
    f_p = np.empty((len(rows) - 1, n_p))
    e_p = np.empty((len(rows) - 1, n_p))
    for k, row in enumerate(rows):
        if len(row) != width:
            raise FileFormatError(f"row {k + 1} has {len(row)} fields, expected {width}")
        try:
            t[k] = float(row[0])
            x[k] = [float(v) for v in row[1 : 1 + n_s]]
            if k > 0:
                vals = [float(v) for v in row[1 + n_s :]]
                f_r[k - 1] = vals[:n_r]
                e_r[k - 1] = vals[n_r : 2 * n_r]
                f_p[k - 1] = vals[2 * n_r : 2 * n_r + n_p]
                e_p[k - 1] = vals[2 * n_r + n_p :]
        except ValueError as exc:
            raise FileFormatError(f"non-numeric value in row {k + 1}: {exc}") from exc
    try:
        return Trajectory(t=t, x=x, f_r=f_r, e_r=e_r, f_p=f_p, e_p=e_p)
    except StructureError as exc:
        raise FileFormatError(f"inconsistent trajectory data: {exc}") from exc


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_csv(fh.read())
