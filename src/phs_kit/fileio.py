"""System (JSON) and trajectory (CSV) file formats.

SystemFileV1: a JSON document with the dimensions, the kernel-representation
matrices, the Hamiltonian (its own ``to_dict``: inline quadratic data, or the
"builtin" string energy's parameters), the resistive relation, the per-channel
causality and free-form metadata.  Matrices are row-major lists of rows,
except a sparse F or G (the discretizers' form): COO triplets
``{"shape": [n, n], "row": [...], "col": [...], "data": [...]}`` in CSR order,
read back into the same CSR array.  F and G read in either form; floats are
written as their shortest repr, so both forms round-trip bit-identically.

TrajectoryFileV1: CSV with header ``t,x_0..,fR_0..,eR_0..,fP_0..,eP_0..``
and one row per grid node; channel columns carry the preceding interval's
value and are blank on the first row.  The header must be exactly this
canonical one (no reordered, repeated, renumbered or padded names), fields are
plain unquoted numbers, and only trailing blank lines are allowed; LF and CRLF
line endings both read.  Floats are serialized with 17 significant
digits, so write -> read round-trips bit-identically.

Trajectory files are written and read one row block (``system._row_blocks``)
at a time, never as the whole text: the reader counts the lines first and
parses each block into arrays allocated once.  A pipe is copied to a
temporary file first, so the count can rewind it.  A malformed row is
reported by its row number in the file.
"""

import io
import json
import re
import shutil
import tempfile
from collections import Counter
from itertools import islice

import numpy as np

from ._linalg import csr_from_coo, issparse
from .dirac import DiracKernelRep
from .discretize import StringHamiltonian
from .energy import LinearGraph, Parametric, QuadraticHamiltonian
from .errors import StructureError
from .system import Trajectory, _row_blocks, assemble

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


def _matrix_doc(m):
    """A matrix's file form: COO triplets for a sparse array, else a list of rows."""
    if not issparse(m):
        return m.tolist()
    coo = m.tocoo()
    return {"shape": list(coo.shape), "row": coo.row.tolist(), "col": coo.col.tolist(),
            "data": coo.data.tolist()}


def _sparse_matrix(doc, name):
    """The CSR array of a COO-triplet document; FileFormatError unless it is well formed."""
    try:
        shape, row, col = doc["shape"], np.asarray(doc["row"]), np.asarray(doc["col"])
        data = np.asarray(doc["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"field {name!r} is not a COO triplet matrix: {exc}") from exc
    if not isinstance(shape, list) or len(shape) != 2:
        raise FileFormatError(f"{name}.shape must be a list of two whole numbers")
    shape = tuple(_whole(size, f"{name}.shape") for size in shape)
    if not row.ndim == col.ndim == data.ndim == 1 or not row.size == col.size == data.size:
        raise FileFormatError(f"{name}.row, .col and .data must be flat lists of one length")
    if data.size and not (row.dtype.kind == col.dtype.kind == "i"
                          and 0 <= min(row.min(), col.min())
                          and row.max() < shape[0] and col.max() < shape[1]):
        raise FileFormatError(f"{name}.row and .col must be whole numbers inside the shape {list(shape)}")
    return csr_from_coo(shape, row, col, data)


def _matrix(data, name):
    try:
        m = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if m.ndim != 2:
        raise FileFormatError(f"field {name!r} must be a row-major 2-D array")
    return m


def _whole(value, label):
    """A dimension must be a JSON whole number: int() alone would truncate 2.7."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise FileFormatError(f"{label} must be a whole number, got {value!r}")
    return int(value)


def system_to_dict(sys, metadata=None):
    """Serialize an assembled system to the SystemFileV1 structure."""
    ham_doc = sys.ham.to_dict()
    if not ham_doc:
        raise StructureError(
            "only quadratic or builtin Hamiltonians can be serialized; "
            "arbitrary user Hamiltonians are library-level only"
        )
    res_doc = {"type": "none"} if sys.res is None else sys.res.to_dict()
    return {
        "version": SYSTEM_FILE_VERSION,
        "dims": {"n_s": sys.n_s, "n_r": sys.n_r, "n_p": sys.n_p},
        "F": _matrix_doc(sys.dirac.F),
        "G": _matrix_doc(sys.dirac.G),
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
        Keys dirac, ham, res, causality, metadata.

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
        n_s, n_r, n_p = (_whole(dims[key], f"dims.{key}") for key in ("n_s", "n_r", "n_p"))
        F, G = (_sparse_matrix(doc[key], key) if isinstance(doc[key], dict) else _matrix(doc[key], key)
                for key in ("F", "G"))
        dirac = DiracKernelRep(F=F, G=G, n_s=n_s, n_r=n_r, n_p=n_p)
        ham_doc = doc["hamiltonian"]
        ham_type = ham_doc.get("type") if isinstance(ham_doc, dict) else None
        if ham_type == "quadratic":
            ham = QuadraticHamiltonian(
                H=_matrix(ham_doc["H"], "hamiltonian.H"),
                b=np.asarray(ham_doc.get("b", np.zeros(n_s)), dtype=float),
                c=float(ham_doc.get("c", 0.0)),
            )
        elif ham_type == "builtin":
            params = ham_doc.get("params", {})
            if not isinstance(params, dict):
                raise FileFormatError("hamiltonian.params must be a JSON object")
            if ham_doc["name"] != "string":
                raise FileFormatError(f"unknown builtin Hamiltonian {ham_doc['name']!r}")
            n_cells = _whole(params["N"], "hamiltonian.params.N")
            if 2 * n_cells + 1 != n_s:
                raise FileFormatError(f"a string of N = {n_cells} cells has n_s = "
                                      f"{2 * n_cells + 1} states, but dims.n_s = {n_s}")
            ham = StringHamiltonian.from_params(params)
            ham.check_structure(dirac)
        else:
            raise FileFormatError(f"unknown Hamiltonian type {ham_type!r}")

        res_doc = doc.get("resistive", {"type": "none"})
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
        causality = [str(c) for c in doc.get("causality", [])]
    except (KeyError, TypeError, ValueError) as exc:
        # StructureError and FileFormatError are ValueErrors too
        raise FileFormatError(f"missing or malformed system field: {exc}") from exc

    return {
        "dirac": dirac,
        "ham": ham,
        "res": res,
        "causality": causality,
        "metadata": doc.get("metadata", {}),
    }


def system_from_dict(doc):
    """Parse and assemble (validations re-run; StructureError on failure)."""
    parts = parse_system_dict(doc)
    sys = assemble(parts["dirac"], parts["ham"], parts["res"], parts["causality"])
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
        except ValueError as exc:  # undecodable bytes or invalid JSON
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


def trajectory_csv_blocks(traj):
    """TrajectoryFileV1 text in pieces: the header and first row, then one piece per row block.

    Each block holds at most ``system._BLOCK_CELLS`` numbers, so writing a
    trajectory holds one block's text at a time, never the whole file's.
    """
    names = _traj_header(traj.n_s, traj.f_r.shape[1], traj.f_p.shape[1])
    head = np.concatenate([traj.t[:1], traj.x[0]])
    first = ",".join(["%.17g"] * head.size + [""] * (len(names) - head.size)) + "\n"
    yield ",".join(names) + "\n" + first % tuple(head.tolist())
    row = ",".join(["%.17g"] * len(names)) + "\n"
    # the row of interval k holds node k + 1 of t and x and interval k of each channel
    body = [traj.t[1:, None], traj.x[1:], traj.f_r, traj.e_r, traj.f_p, traj.e_p]
    for rows in _row_blocks(traj.steps, len(names)):
        block = np.column_stack([a[rows] for a in body])
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def trajectory_to_csv(traj):
    """Render TrajectoryFileV1 as a string."""
    return "".join(trajectory_csv_blocks(traj))


def save_trajectory(traj, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(trajectory_csv_blocks(traj))  # one block at a time


def _parse_rows(lines, width):
    """Parse CSV lines into a (rows, width) float array; ValueError otherwise."""
    rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if rows.shape[1] != width:
        raise ValueError(f"{rows.shape[1]} fields, expected {width}")
    return rows


def _row_error(row, exc):
    """FileFormatError naming a row of the file (numpy's own row count is dropped)."""
    return FileFormatError(f"row {row}: " + re.sub(r" at row \d+", "", str(exc)))


def _first_bad_row(lines, width):
    """Index of the first of ``lines`` that does not parse, and its ValueError.

    A prefix of ``lines`` parses iff every line in it does, so bisection on
    the prefix length finds that line without a Python loop over the rows.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[:mid], width)
            lo = mid
        except ValueError:
            hi = mid
    try:
        _parse_rows(lines[lo:hi], width)
    except ValueError as exc:
        return lo, exc
    return lo, ValueError("malformed row")


def _content_lines(fh):
    """Count an open text file's lines up to its last non-blank one, then rewind it.

    The line ends after that line are not counted: blank lines may trail the rows.
    """
    lines = content = 0
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        end = len(chunk.rstrip("\n"))
        if end:
            content = lines + chunk.count("\n", 0, end) + 1
        lines += chunk.count("\n")
    fh.seek(0)
    return content


def _read_trajectory(fh):
    """Parse TrajectoryFileV1 from an open text file, one row block at a time.

    The file must be read with universal newlines: every line then ends in a
    line feed, and a blank line is a lone one.  A file that cannot be rewound
    (a pipe) is first copied to a temporary file, as the line count rewinds.
    """
    if not fh.seekable():
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            shutil.copyfileobj(fh, spool)
            spool.seek(0)
            return _read_trajectory(spool)
    count = _content_lines(fh)
    if not count:
        raise FileFormatError("empty trajectory file")
    header = fh.readline().rstrip("\n")
    names = header.split(",")
    counts = Counter(name.split("_")[0] for name in names)
    n_s, n_r, n_p = counts["x"], counts["fR"], counts["fP"]
    if names != _traj_header(n_s, n_r, n_p):
        raise FileFormatError(
            f"trajectory header must be exactly {','.join(_traj_header(n_s, n_r, n_p))!r}, "
            f"got {header!r}")
    if count < 3:
        raise FileFormatError("trajectory needs at least two grid nodes")
    width, steps = len(names), count - 2

    line = fh.readline()
    if line == "\n":
        raise FileFormatError("row 2 is blank")
    fields = line.rstrip("\n").split(",")
    if len(fields) != width:
        raise FileFormatError(f"row 2 has {len(fields)} fields, expected {width}")
    if any(fields[1 + n_s:]):
        raise FileFormatError("row 2: channel fields must be blank on the first row")
    try:
        head = np.loadtxt([line], delimiter=",", comments=None, usecols=range(1 + n_s), ndmin=1)
    except ValueError as exc:
        raise _row_error(2, exc) from exc

    # the Trajectory's own arrays, allocated once and filled one row block at a time
    t, x = np.empty(steps + 1), np.empty((steps + 1, n_s))
    t[0], x[0] = head[0], head[1:]
    channels = [np.empty((steps, size)) for size in (n_r, n_r, n_p, n_p)]
    body = [t[1:, None], x[1:], *channels]  # the writer's body columns, as views
    columns = np.cumsum([0, 1, n_s, n_r, n_r, n_p, n_p])
    for rows in _row_blocks(steps, width):
        lines = list(islice(fh, rows.stop - rows.start))
        if "\n" in lines:
            blank = rows.start + lines.index("\n") + 3
            raise FileFormatError(f"row {blank} is blank")
        try:
            block = _parse_rows(lines, width)
        except ValueError as exc:
            index, reason = _first_bad_row(lines, width)
            raise _row_error(rows.start + index + 3, reason) from exc
        for a, lo, hi in zip(body, columns[:-1], columns[1:]):
            a[rows] = block[:, lo:hi]
    try:
        return Trajectory(t, x, *channels)
    except StructureError as exc:
        raise FileFormatError(f"inconsistent trajectory data: {exc}") from exc


def trajectory_from_csv(text):
    """Parse TrajectoryFileV1 text; FileFormatError on any deviation from the format."""
    # UTF-8 bytes decoded a chunk at a time hold one byte per character; an
    # io.StringIO would hold four
    raw = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return _read_trajectory(io.TextIOWrapper(raw, encoding="utf-8", errors="surrogatepass"))


def load_trajectory(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_trajectory(fh)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from exc
