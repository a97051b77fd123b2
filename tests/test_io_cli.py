import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import phs_kit as pk
from phs_kit.cli import main
from phs_kit.fileio import (
    FileFormatError,
    _matrix,
    _matrix_doc,
    _sparse_matrix,
    system_from_dict,
    system_to_dict,
    trajectory_csv_blocks,
    trajectory_from_csv,
    trajectory_to_csv,
)
from phs_kit.system import _row_blocks


@pytest.fixture
def runner():
    return CliRunner()


def test_system_dict_round_trip(damped):
    doc = system_to_dict(damped)
    sys2 = system_from_dict(doc)
    assert np.array_equal(sys2.dirac.F, damped.dirac.F)
    assert np.array_equal(sys2.dirac.G, damped.dirac.G)
    assert sys2.res.R == pytest.approx(damped.res.R)


def test_system_dict_builtin_round_trip():
    sys_, _ = pk.make_example("string", N=4, force="tanh")
    doc = system_to_dict(sys_)
    assert doc["hamiltonian"]["type"] == "builtin"
    sys2 = system_from_dict(doc)
    x = np.linspace(-0.5, 0.5, sys_.n_s)
    assert pk.ham_eval(sys2.ham, x) == pytest.approx(pk.ham_eval(sys_.ham, x), rel=1e-14)
    assert pk.ham_grad(sys2.ham, x) == pytest.approx(pk.ham_grad(sys_.ham, x), rel=1e-14)


# written by `phs-kit example string --n 4 --force tanh` before the string
# energy wrote its own file form
STRING_N4_TANH = Path(__file__).parent / "data" / "string_n4_tanh.json"


def test_builtin_string_file_loads_and_resaves_unchanged(runner, tmp_path):
    text = STRING_N4_TANH.read_text(encoding="utf-8")
    doc = json.loads(text)
    sys_ = system_from_dict(doc)
    assert sys_.ham.to_dict() == doc["hamiltonian"]
    path = tmp_path / "resaved.json"
    pk.save_system(sys_, path)
    resaved = pk.load_system(path)
    assert system_to_dict(resaved)["hamiltonian"] == doc["hamiltonian"]
    # the example now writes F and G as COO triplets; the file holds them as dense rows
    example = json.loads(runner.invoke(main, ["example", "string", "--n", "4", "--force", "tanh"]).output)
    blocks = system_from_dict(example).dirac.csr
    for key, block in zip(("F", "G"), blocks):
        assert np.array_equal(block.toarray(), doc.pop(key))
        assert set(example.pop(key)) == {"shape", "row", "col", "data"}
    assert example == doc


def test_builtin_string_file_with_node_sampled_density():
    doc = json.loads(STRING_N4_TANH.read_text(encoding="utf-8"))
    rho = [1.0, 1.5, 2.0, 2.5, 3.0]
    doc["hamiltonian"]["params"]["rho"] = rho
    sys_ = system_from_dict(doc)
    assert np.array_equal(sys_.ham.masses, 0.25 * np.array(rho) * [0.5, 1, 1, 1, 0.5])
    assert system_to_dict(sys_)["hamiltonian"] == doc["hamiltonian"]
    doc["hamiltonian"]["params"]["rho"] = rho[:-1]
    with pytest.raises(FileFormatError):
        system_from_dict(doc)


@pytest.mark.parametrize("n_cells, message", [
    (4.7, "whole number"), (True, "whole number"), ("4", "whole number"), (5, "dims.n_s = 9"),
])
def test_builtin_string_file_refuses_a_bad_cell_count(runner, tmp_path, n_cells, message):
    doc = json.loads(STRING_N4_TANH.read_text(encoding="utf-8"))
    doc["hamiltonian"]["params"]["N"] = n_cells
    with pytest.raises(FileFormatError, match=message):
        system_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 2
    doc["hamiltonian"]["params"]["N"] = 4.0
    assert system_from_dict(doc).ham.spec.N == 4


@pytest.mark.parametrize("interval, accepted", [
    ([0.0, 2.0], False), ([0.0, 1.0 + 1e-10], False), ([0.0, 1.0 + 1e-14], True), ([1.0, 2.0], True),
])
def test_builtin_string_file_refuses_an_interval_that_disagrees_with_g(runner, tmp_path, interval,
                                                                       accepted):
    # the stored G carries 1/h = 4: the interval must give h = (b - a)/N = 0.25
    doc = json.loads(STRING_N4_TANH.read_text(encoding="utf-8"))
    doc["hamiltonian"]["params"]["interval"] = interval
    path = tmp_path / "string.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if accepted:
        assert system_from_dict(doc).ham.h == pytest.approx(0.25, rel=1e-13)
        assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    else:
        with pytest.raises(FileFormatError, match="interval"):
            system_from_dict(doc)
        assert runner.invoke(main, ["validate", str(path)]).exit_code == 2


def test_callable_force_string_refuses_save(tmp_path):
    sys_, _ = pk.string_system(pk.StringSpec(N=4, force=lambda xi, eps: np.sinh(eps)))
    with pytest.raises(pk.StructureError, match="only quadratic or builtin Hamiltonians"):
        pk.save_system(sys_, tmp_path / "string.json")


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import phs_kit.cli, sys; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
            "'scipy.sparse', 'scipy.sparse.linalg') if m in sys.modules])")
    src = str(Path(pk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_certify_pipeline_leaves_scipy_integrate_unloaded(tmp_path, forced):
    # load -> weak, energy and pointwise audits -> mollify -> save, in a fresh interpreter
    pk.save_system(forced, tmp_path / "forced.json")
    traj = pk.simulate(forced, [0.3, -0.2], {0: lambda t: np.sign(np.sin(5.0 * t))}, (0.0, 2.0),
                       pk.SchemeConfig(dt=1e-3))
    pk.save_trajectory(traj, tmp_path / "traj.csv")
    code = ("import sys, phs_kit as pk; "
            "system, traj = pk.load_system(sys.argv[1]), pk.load_trajectory(sys.argv[2]); "
            "[audit(system, traj) for audit in "
            "(pk.weak_residual, pk.energy_report, pk.strong_trajectory_audit)]; "
            "pk.save_trajectory(pk.mollify(traj, pk.MollifierConfig(n_smooth=8)), sys.argv[3]); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    src = str(Path(pk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "forced.json"),
                           str(tmp_path / "traj.csv"), str(tmp_path / "smooth.csv")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
    smooth = pk.mollify(traj, pk.MollifierConfig(n_smooth=8))
    assert np.array_equal(pk.load_trajectory(tmp_path / "smooth.csv").x, smooth.x)


SMALL_SYSTEM_PATH = """
import dataclasses
import sys
import numpy as np
import phs_kit as pk

folder = sys.argv[1]
for name, build in (("forced", pk.forced_oscillator), ("damped", pk.damped_oscillator)):
    system = build()
    assert pk.validate_kernel(system.dirac).passed
    inputs = {0: lambda t: np.sign(np.sin(5.0 * t))} if system.n_p else None
    for scheme in ("implicit_midpoint", "discrete_gradient"):
        traj = pk.simulate(system, [0.3, -0.2], inputs, (0.0, 1.0), pk.SchemeConfig(scheme, dt=1e-3))
        for audit in (pk.weak_residual, pk.energy_report, pk.strong_trajectory_audit):
            audit(system, traj)
        smooth = pk.mollify(traj, pk.MollifierConfig(n_smooth=8))
        pk.save_trajectory(smooth, f"{folder}/{name}.csv")
        assert np.array_equal(pk.load_trajectory(f"{folder}/{name}.csv").x, smooth.x)
    pk.save_system(system, f"{folder}/{name}.json")
    assert pk.load_system(f"{folder}/{name}.json").dirac.F.tolist() == system.dirac.F.tolist()
forced = pk.forced_oscillator()
general = dataclasses.replace(forced, ham=pk.GeneralHamiltonian(
    value_fn=forced.ham.value, gradient_fn=forced.ham.gradient, dim=forced.ham.dim))
for scheme in ("implicit_midpoint", "discrete_gradient"):
    traj = pk.simulate(general, [0.3, -0.2], {0: lambda t: np.sin(3.0 * t)}, (0.0, 1.0),
                       pk.SchemeConfig(scheme, dt=1e-3))
    assert traj.metadata["step_map"] == "newton"
loaded = [m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules]
string, _ = pk.make_example("string", N=8)
print(loaded, string.n, "scipy.sparse" in sys.modules)
"""


def test_small_system_path_leaves_scipy_sparse_unloaded(tmp_path):
    # build, validate, simulate (the forced oscillator also behind a GeneralHamiltonian, on
    # the Newton map), audit, mollify and save/load small dense systems in a fresh
    # interpreter: none of it loads scipy.sparse or scipy.linalg, and the string still
    # builds afterwards
    src = str(Path(pk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", SMALL_SYSTEM_PATH, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[]", "19", "True"]


def test_system_dict_rejects_garbage():
    with pytest.raises(FileFormatError):
        system_from_dict({"version": "2"})
    with pytest.raises(FileFormatError):
        system_from_dict({"version": "1", "dims": {"n_s": 1, "n_r": 0, "n_p": 0}})
    doc = system_to_dict(pk.oscillator())
    doc["hamiltonian"] = {"type": "spline"}
    with pytest.raises(FileFormatError):
        system_from_dict(doc)


@st.composite
def file_matrices(draw):
    """A matrix of any finite doubles, about half of them zero, dense or as a CSR array."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(arrays(float, (n_rows, n_cols), elements=st.floats(allow_nan=False)))
    kept = draw(arrays(bool, (n_rows, n_cols)))
    m = np.where(kept, values, 0.0)
    return scipy.sparse.csr_array(m) if draw(st.booleans()) else m


def _bits(a):
    return np.asarray(a).view(np.uint64 if np.asarray(a).dtype == float else np.asarray(a).dtype)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(file_matrices())
def test_matrix_file_forms_round_trip_bit_identically(m):
    doc = json.loads(json.dumps(_matrix_doc(m)))
    if scipy.sparse.issparse(m):
        assert set(doc) == {"shape", "row", "col", "data"}
        back = _sparse_matrix(doc, "G")
        for name in ("data", "indices", "indptr"):
            want, got = getattr(m, name), getattr(back, name)
            assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
        assert back.shape == m.shape
    else:
        back = _matrix(doc, "G")
        assert back.shape == m.shape and np.array_equal(_bits(back), _bits(m))


@pytest.mark.parametrize("kind", ["string", "diffusion"])
def test_sparse_system_file_round_trip_is_bit_identical(tmp_path, kind):
    sys_, _ = pk.make_example(kind, N=64)
    path = tmp_path / "sys.json"
    pk.save_system(sys_, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["G"]["shape"] == [sys_.n, sys_.n]
    loaded = pk.load_system(path)
    for got, want in zip(loaded.dirac.csr, sys_.dirac.csr):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name)))
    assert (loaded.n_s, loaded.n_r, loaded.n_p) == (sys_.n_s, sys_.n_r, sys_.n_p)


@pytest.mark.parametrize("key, value, message", [
    ("shape", [19], "two whole numbers"),
    ("shape", [19, 19.5], "whole number"),
    ("row", "auto", "flat lists"),
    ("data", [1.0], "flat lists"),
    ("row", [1.5] * 36, "whole numbers inside"),
    ("col", [19] * 36, "whole numbers inside"),
    ("row", [-1] * 36, "whole numbers inside"),
    ("shape", [20, 20], "square with equal shape"),
])
def test_sparse_matrix_field_refuses_malformed_triplets(key, value, message):
    doc = system_to_dict(pk.make_example("string", N=8)[0])
    assert len(doc["G"]["row"]) == 36
    doc["G"][key] = value
    with pytest.raises(FileFormatError, match=message):
        system_from_dict(doc)
    del doc["G"]["data"]
    with pytest.raises(FileFormatError, match="COO triplet"):
        system_from_dict(doc)


def test_system_file_round_trip_on_disk(tmp_path, damped):
    path = tmp_path / "sys.json"
    pk.save_system(damped, path, metadata={"note": "fixture"})
    sys2 = pk.load_system(path)
    assert np.array_equal(sys2.dirac.F, damped.dirac.F)
    assert sys2.metadata["file_metadata"] == {"note": "fixture"}


def test_trajectory_csv_round_trip_bit_identical(oscillator):
    traj = pk.simulate(oscillator, [1.0, 0.0], None, (0.0, 0.05), pk.SchemeConfig(dt=1e-2))
    text = trajectory_to_csv(traj)
    back = trajectory_from_csv(text)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.x, traj.x)
    assert trajectory_to_csv(back) == text


def test_trajectory_csv_round_trip_with_channels(damped, forced):
    traj = pk.simulate(damped, [1.0, 0.0], None, (0.0, 0.05), pk.SchemeConfig(dt=1e-2))
    back = trajectory_from_csv(trajectory_to_csv(traj))
    assert np.array_equal(back.f_r, traj.f_r)
    assert np.array_equal(back.e_r, traj.e_r)
    traj2 = pk.simulate(forced, [0.0, 0.0], {0: 1.0}, (0.0, 0.05), pk.SchemeConfig(dt=1e-2))
    back2 = trajectory_from_csv(trajectory_to_csv(traj2))
    assert np.array_equal(back2.f_p, traj2.f_p)
    assert np.array_equal(back2.e_p, traj2.e_p)


GOLDEN_CSV = (
    "t,x_0,x_1,fR_0,eR_0,fP_0,eP_0\n"
    "0,-0,4.9406564584124654e-324,,,,\n"
    "0.5,1e+308,0.10000000000000001,0.10000000000000001,4.9406564584124654e-324,nan,-3\n"
    "1,nan,1,-0,-1e+308,2.5,1.0000000000000001e-05\n"
)


def _golden_trajectory():
    nan = float("nan")
    return pk.Trajectory(
        t=[0.0, 0.5, 1.0], x=[[-0.0, 5e-324], [1e308, 0.1], [nan, 1.0]],
        f_r=[[0.1], [-0.0]], e_r=[[5e-324], [-1e308]], f_p=[[nan], [2.5]], e_p=[[-3.0], [1e-5]],
    )


def _assert_bit_identical(a, b):
    for name in ("t", "x", "f_r", "e_r", "f_p", "e_p"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_parametric_system_file_round_trip(tmp_path):
    damped = pk.damped_oscillator(1.0)
    sys_ = pk.assemble(damped.dirac, damped.ham, pk.Parametric(A=[[2.0]], B=[[-1.0]]), ())
    path = tmp_path / "parametric.json"
    pk.save_system(sys_, path)
    back = pk.load_system(path)
    assert isinstance(back.res, pk.Parametric)
    assert np.array_equal(back.res.A, sys_.res.A) and np.array_equal(back.res.B, sys_.res.B)
    _assert_bit_identical(*(pk.simulate(s, [1.0, 0.5], None, (0.0, 0.1), pk.SchemeConfig(dt=1e-2))
                            for s in (sys_, back)))


@pytest.mark.parametrize("variant", ["lf", "crlf", "trailing_blank_line", "crlf_trailing_blank"])
def test_trajectory_csv_golden_bytes(variant):
    traj = _golden_trajectory()
    assert trajectory_to_csv(traj) == GOLDEN_CSV
    text = {
        "lf": GOLDEN_CSV,
        "crlf": GOLDEN_CSV.replace("\n", "\r\n"),
        "trailing_blank_line": GOLDEN_CSV + "\n",
        "crlf_trailing_blank": GOLDEN_CSV.replace("\n", "\r\n") + "\r\n",
    }[variant]
    _assert_bit_identical(trajectory_from_csv(text), traj)


def test_trajectory_csv_rejects_malformed():
    with pytest.raises(FileFormatError):
        trajectory_from_csv("a,b\n1,2\n")
    with pytest.raises(FileFormatError):
        trajectory_from_csv("t,x_0\n0.0,1.0\n")  # single node
    with pytest.raises(FileFormatError):
        trajectory_from_csv("t,x_0\n0.0,1.0\n0.1,zebra\n")
    lines = GOLDEN_CSV.splitlines()
    body = "\n".join(lines[1:]) + "\n"
    bad = {
        "permuted header": "t,eP_0,x_0,x_1,fR_0,eR_0,fP_0\n" + body,
        "duplicated header": "t,x_0,x_0,fR_0,eR_0,fP_0,eP_0\n" + body,
        "misnumbered header": "t,x_0,x_2,fR_0,eR_0,fP_0,eP_0\n" + body,
        "first row field count": GOLDEN_CSV.replace("e-324,,,,\n", "e-324,,,\n"),
        "later row field count": GOLDEN_CSV.replace(",-3\n", "\n"),
        "blank body field": GOLDEN_CSV.replace(",2.5,", ",,"),
        "blank line between rows": GOLDEN_CSV.replace("-3\n", "-3\n\n"),
    }
    for name, text in bad.items():
        with pytest.raises(FileFormatError, match="header|row"):
            trajectory_from_csv(text)
    with pytest.raises(FileFormatError, match="row 4"):
        trajectory_from_csv(bad["blank body field"])


@pytest.mark.parametrize("node", ["nan", "inf", "-inf"])
def test_trajectory_csv_refuses_a_node_that_is_not_finite(node):
    with pytest.raises(FileFormatError, match="time grid must be finite"):
        trajectory_from_csv(f"t,x_0\n0,1\n{node},2\n2,3\n")


WIDE = (129, 32, 33)  # n_s, n_r, n_p: 260 columns, so a row block holds about 60 rows


def _wide_trajectory(steps=300):
    rng = np.random.default_rng(steps)
    n_s, n_r, n_p = WIDE
    return pk.Trajectory(t=1e-3 * np.arange(steps + 1), x=rng.standard_normal((steps + 1, n_s)),
                         f_r=rng.standard_normal((steps, n_r)), e_r=rng.standard_normal((steps, n_r)),
                         f_p=rng.standard_normal((steps, n_p)), e_p=rng.standard_normal((steps, n_p)))


def test_wide_trajectory_round_trips_across_row_blocks(tmp_path):
    traj = _wide_trajectory()
    blocks = _row_blocks(traj.steps, 1 + WIDE[0] + 2 * WIDE[1] + 2 * WIDE[2])
    assert len(blocks) == 5 and len(list(trajectory_csv_blocks(traj))) == 1 + len(blocks)
    path = tmp_path / "wide.csv"
    pk.save_trajectory(traj, path)
    assert path.read_bytes() == trajectory_to_csv(traj).encode()
    _assert_bit_identical(pk.load_trajectory(path), traj)


@pytest.mark.parametrize("defect", ["bad field", "field count", "blank line"])
def test_wide_trajectory_reports_the_file_row_of_a_defect_in_a_later_block(defect):
    traj = _wide_trajectory()
    lines = trajectory_to_csv(traj).splitlines(keepends=True)
    later = _row_blocks(traj.steps, 1 + WIDE[0] + 2 * WIDE[1] + 2 * WIDE[2])[3]
    for k in (later.start, later.start + 7, later.stop - 1):  # interval k is on file row k + 3
        bad, fields = list(lines), lines[k + 2].rstrip("\n").split(",")
        if defect == "bad field":
            fields[5] = "zebra"
        elif defect == "field count":
            fields.pop()
        bad[k + 2] = ",".join(fields) + "\n"
        if defect == "blank line":
            bad.insert(k + 2, "\n")
        with pytest.raises(FileFormatError, match=rf"^row {k + 3}\b"):
            trajectory_from_csv("".join(bad))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_wide_trajectory_reads_trailing_blank_lines_across_blocks(tmp_path, newline):
    traj = _wide_trajectory()
    # more blank lines than a row block holds, and more bytes than one read of the row count
    text = trajectory_to_csv(traj).replace("\n", newline) + newline * 70_000
    _assert_bit_identical(trajectory_from_csv(text), traj)
    path = tmp_path / "trailing.csv"
    path.write_bytes(text.encode())
    _assert_bit_identical(pk.load_trajectory(path), traj)


def test_trajectory_from_csv_holds_the_text_about_once():
    # the parse holds the text's UTF-8 bytes and a row block, not a character buffer of the text
    rng = np.random.default_rng(0)
    traj = pk.Trajectory(t=1e-3 * np.arange(80_001), x=rng.standard_normal((80_001, 2)),
                         f_r=[], e_r=[], f_p=rng.standard_normal(80_000), e_p=rng.standard_normal(80_000))
    text = trajectory_to_csv(traj)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = trajectory_from_csv(text)
        arrays = sum(getattr(back, name).nbytes for name in ("t", "x", "f_r", "e_r", "f_p", "e_p"))
        peak = tracemalloc.get_traced_memory()[1] - base - arrays
    finally:
        tracemalloc.stop()
    _assert_bit_identical(back, traj)
    assert peak <= 1.5 * len(text), (peak, len(text))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_wide_trajectory_reads_from_a_pipe(tmp_path):
    traj = _wide_trajectory()
    text = trajectory_to_csv(traj)  # many times the pipe's buffer, so the writer blocks
    fifo = tmp_path / "wide.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        back = pk.load_trajectory(fifo)
    finally:
        writer.join()
    _assert_bit_identical(back, traj)


def _codec_peaks(path, steps):
    """tracemalloc peaks (bytes) of saving and of loading a 2-state, 1-port trajectory.

    The load peak leaves out the arrays of the trajectory it returns.
    """
    rng = np.random.default_rng(steps)
    traj = pk.Trajectory(t=1e-3 * np.arange(steps + 1), x=rng.standard_normal((steps + 1, 2)),
                         f_r=[], e_r=[], f_p=rng.standard_normal(steps), e_p=rng.standard_normal(steps))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pk.save_trajectory(traj, path)
        save = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = pk.load_trajectory(path)
        arrays = sum(getattr(back, name).nbytes for name in ("t", "x", "f_r", "e_r", "f_p", "e_p"))
        load = tracemalloc.get_traced_memory()[1] - base - arrays
    finally:
        tracemalloc.stop()
    _assert_bit_identical(back, traj)
    return save, load


def test_trajectory_codec_peak_does_not_grow_with_length(tmp_path):
    (save_short, load_short), (save_long, load_long) = (
        _codec_peaks(tmp_path / f"{steps}.csv", steps) for steps in (20_000, 80_000))
    assert save_long <= 1.25 * save_short, (save_short, save_long)
    assert load_long <= 1.25 * load_short, (load_short, load_long)


def test_cli_validate_pass_and_fail(runner, tmp_path):
    path = tmp_path / "osc.json"
    result = runner.invoke(main, ["example", "oscillator", "--out", str(path)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["passed"] and report["dirac"]["skew_defect"] == 0.0

    damped_path = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(damped_path)])
    doc = json.loads(damped_path.read_text())
    g = np.asarray(doc["G"])
    g[:, 2] *= 2.0  # scale the resistive block only: breaks skewness
    doc["G"] = g.tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["dirac"]["skew_defect"] > 0.0


def test_cli_validate_malformed_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
@pytest.mark.parametrize("command, option", [
    ("validate", "--tol"), ("check", "--tol"), ("check", "--strong-tol"),
])
def test_cli_rejects_non_positive_or_nan_tolerance(runner, tmp_path, command, option, value):
    sys_path = tmp_path / "osc.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(sys_path), "--x0", "1,0", "--t1", "0.1",
                         "--dt", "1e-2", "--out", str(traj_path)])
    files = [str(sys_path)] + ([str(traj_path)] if command == "check" else [])
    result = runner.invoke(main, [command, *files, option, value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and "must be finite and positive" in result.output


def test_cli_simulate_matches_closed_form(runner, tmp_path):
    sys_path = tmp_path / "osc.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    out = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "simulate", str(sys_path), "--x0", "1,0", "--t1", str(2 * np.pi),
        "--dt", "1e-3", "--out", str(out),
    ])
    assert result.exit_code == 0
    traj = pk.load_trajectory(out)
    assert np.linalg.norm(traj.x[-1] - [1.0, 0.0]) < 1e-5


def test_cli_simulate_usage_errors(runner, tmp_path):
    sys_path = tmp_path / "osc.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    assert runner.invoke(main, ["simulate", str(sys_path), "--dt", "0"]).exit_code == 2
    assert runner.invoke(main, ["simulate", str(sys_path), "--x0", "1,2,3"]).exit_code == 2
    assert runner.invoke(main, ["simulate", str(sys_path), "--t1", "-1"]).exit_code == 2


@pytest.mark.parametrize("option, value", [
    ("--dt", "inf"), ("--dt", "nan"), ("--t1", "nan"), ("--newton-tol", "nan"),
    ("--x0", "a,b"), ("--x0", "1,nan"),
])
def test_cli_simulate_rejects_non_finite_and_unparsable_numbers(runner, tmp_path, option, value):
    sys_path = tmp_path / "osc.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    opts = {"--x0": "1,0", "--t1": "0.5", option: value}
    args = [item for pair in opts.items() for item in pair]
    assert runner.invoke(main, ["simulate", str(sys_path), *args]).exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "step(0.05,nan)"])
def test_cli_simulate_rejects_non_finite_input_signal(runner, tmp_path, value):
    sys_path = tmp_path / "forced.json"
    runner.invoke(main, ["example", "forced_oscillator", "--out", str(sys_path)])
    result = runner.invoke(main, ["simulate", str(sys_path), "--x0", "0,0", "--t1", "0.1",
                                  "--dt", "0.01", "--input", f"0={value}"])
    assert result.exit_code == 2
    assert "channel 0" in result.output


def test_cli_simulate_deterministic_output(runner, tmp_path):
    sys_path = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(sys_path)])
    args = ["simulate", str(sys_path), "--x0", "1,0", "--t1", "0.1", "--dt", "1e-2"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    assert out1.splitlines()[0] == "t,x_0,x_1,fR_0,eR_0"


def test_cli_simulate_step_input_and_check_contrast(runner, tmp_path):
    sys_path = tmp_path / "forced.json"
    runner.invoke(main, ["example", "forced_oscillator", "--out", str(sys_path)])
    traj_path = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "simulate", str(sys_path), "--x0", "1,0", "--t1", "1.5", "--dt", "1e-3",
        "--input", "0=step(0.5003,0.5)", "--out", str(traj_path),
    ])
    assert result.exit_code == 0
    weak = runner.invoke(main, ["check", str(sys_path), str(traj_path),
                                "--mode", "weak", "--tol", "1e-4"])
    assert weak.exit_code == 0
    strong = runner.invoke(main, ["check", str(sys_path), str(traj_path), "--mode", "strong"])
    assert strong.exit_code == 1
    report = json.loads(strong.output)
    assert abs(report["strong"]["argmax_time"] - 0.5003) < 2e-3


def test_cli_check_energy_mode_dg(runner, tmp_path):
    sys_path = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(sys_path)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, [
        "simulate", str(sys_path), "--x0", "1,0", "--t1", "1.0", "--dt", "1e-3",
        "--scheme", "discrete_gradient", "--out", str(traj_path),
    ])
    result = runner.invoke(main, ["check", str(sys_path), str(traj_path), "--mode", "energy"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["energy"]["max_abs_gap"] <= 1e-9


def test_cli_check_refuses_a_trajectory_node_that_is_not_finite(runner, tmp_path):
    sys_path, traj_path = tmp_path / "osc.json", tmp_path / "traj.csv"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    traj_path.write_text("t,x_0,x_1\n0,1,0\nnan,1,0\n0.2,1,0\n")
    result = runner.invoke(main, ["check", str(sys_path), str(traj_path)])
    assert result.exit_code == 2
    assert result.stdout == "" and "time grid must be finite" in result.stderr


def test_cli_check_shape_mismatch_exit_2(runner, tmp_path):
    osc = tmp_path / "osc.json"
    damped = tmp_path / "damped.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(osc)])
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(damped)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(osc), "--x0", "1,0", "--t1", "0.1",
                         "--dt", "1e-2", "--out", str(traj_path)])
    result = runner.invoke(main, ["check", str(damped), str(traj_path)])
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith("error: trajectory n_r = 0 != system n_r = 1")


@pytest.mark.parametrize("mode, code", [("weak", 2), ("strong", 2), ("energy", 0), ("all", 2)])
def test_cli_check_one_step_trajectory(runner, tmp_path, mode, code):
    # simulate writes a one-step file; the weak and pointwise audits need an interior node
    sys_path, traj_path = tmp_path / "damped.json", tmp_path / "traj.csv"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(sys_path)])
    result = runner.invoke(main, ["simulate", str(sys_path), "--x0", "1,0", "--t1", "0.001",
                                  "--dt", "0.001", "--out", str(traj_path)])
    assert result.exit_code == 0 and pk.load_trajectory(traj_path).steps == 1
    result = runner.invoke(main, ["check", str(sys_path), str(traj_path), "--mode", mode])
    assert result.exit_code == code
    if code:
        assert result.stdout == "" and result.stderr.startswith("error: ")
        assert "at least two steps" in result.stderr
    else:
        assert json.loads(result.stdout)["energy"]["intervals"] == 1


def test_cli_simulate_newton_stall_exits_3(runner, tmp_path):
    # a Newton tolerance below the roundoff floor stalls, as in the integrator's own test
    sys_path = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(sys_path)])
    result = runner.invoke(main, ["simulate", str(sys_path), "--x0", "1,0", "--newton-tol", "1e-16"])
    assert result.exit_code == 3
    assert result.stderr.startswith("solver failure: ") and "stalled" in result.stderr


def test_cli_simulate_overflowing_residual_exits_3(runner, tmp_path):
    sys_path, out = tmp_path / "forced.json", tmp_path / "x.csv"
    runner.invoke(main, ["example", "forced_oscillator", "--out", str(sys_path)])
    with np.errstate(over="ignore"):  # ||r||^2 overflows at the predictor
        result = runner.invoke(main, ["simulate", str(sys_path), "--t1", "0.003",
                                      "--input", "0=1e300", "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr == "solver failure: step residual is not finite\n"
    assert not out.exists()


def test_cli_simulate_refuses_a_relation_whose_unknowns_are_not_n_r(runner, tmp_path):
    damped = pk.damped_oscillator(1.0)
    sys_ = pk.assemble(damped.dirac, damped.ham, pk.Parametric(A=[[1.0, 0.0]], B=[[-1.0, 0.0]]), ())
    pk.save_system(sys_, tmp_path / "wide.json")
    result = runner.invoke(main, ["simulate", str(tmp_path / "wide.json"), "--x0", "1,0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "needs n_aux = n_r" in result.stderr


def test_cli_check_detects_corruption(runner, tmp_path):
    sys_path = tmp_path / "osc.json"
    runner.invoke(main, ["example", "oscillator", "--out", str(sys_path)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(sys_path), "--x0", "1,0", "--t1", "0.5",
                         "--dt", "1e-3", "--out", str(traj_path)])
    traj = pk.load_trajectory(traj_path)
    x = traj.x.copy()
    x[traj.steps // 2, 0] += 0.05
    bad = pk.Trajectory(t=traj.t, x=x, f_r=traj.f_r, e_r=traj.e_r,
                        f_p=traj.f_p, e_p=traj.e_p)
    pk.save_trajectory(bad, traj_path)
    result = runner.invoke(main, ["check", str(sys_path), str(traj_path), "--mode", "weak"])
    assert result.exit_code == 1
    weak = json.loads(result.output)["weak"]
    assert abs(weak["argmax_time"] - traj.t[traj.steps // 2]) <= traj.dt * (1 + 1e-9)


def test_cli_example_unknown_name(runner):
    assert runner.invoke(main, ["example", "pendulum"]).exit_code == 2


def test_cli_example_string_tanh_validates(runner, tmp_path):
    path = tmp_path / "string.json"
    result = runner.invoke(main, ["example", "string", "--n", "32", "--force", "tanh",
                                  "--out", str(path)])
    assert result.exit_code == 0
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0


def test_cli_example_diffusion_validates(runner, tmp_path):
    path = tmp_path / "diffusion.json"
    result = runner.invoke(main, ["example", "diffusion", "--n", "64", "--out", str(path)])
    assert result.exit_code == 0
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0


@pytest.mark.filterwarnings("error::UserWarning")
def test_cli_csv_input_signal(runner, tmp_path):
    sys_path = tmp_path / "forced.json"
    runner.invoke(main, ["example", "forced_oscillator", "--out", str(sys_path)])
    table = tmp_path / "input.csv"
    table.write_text("0.0,0.0\n0.5,1.0\n")
    traj_path = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "simulate", str(sys_path), "--x0", "0,0", "--t1", "1.0", "--dt", "1e-2",
        "--input", f"0=csv:{table}", "--out", str(traj_path),
    ])
    assert result.exit_code == 0
    traj = pk.load_trajectory(traj_path)
    assert traj.f_p[0, 0] == 0.0
    assert traj.f_p[-1, 0] == 1.0
    for i, text in enumerate(["0.0\n0.5\n", "", "0.0,0.0,9.0\n0.5,1.0,9.0\n"]):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_text(text)
        result = runner.invoke(main, ["simulate", str(sys_path), "--x0", "0,0", "--t1", "0.1",
                                      "--dt", "1e-2", "--input", f"0=csv:{bad}"])
        assert result.exit_code == 2, result.exception
        assert "two columns" in result.stderr


def test_cli_invalid_system_exits_1_for_every_command(runner, tmp_path):
    good = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(good)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(good), "--x0", "1,0", "--t1", "0.1",
                         "--dt", "1e-2", "--out", str(traj_path)])
    doc = json.loads(good.read_text())
    g = np.asarray(doc["G"])
    g[:, 2] *= 2.0  # fails the Dirac validation
    doc["G"] = g.tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    codes = [
        runner.invoke(main, ["validate", str(bad)]).exit_code,
        runner.invoke(main, ["simulate", str(bad), "--x0", "1,0", "--t1", "0.1"]).exit_code,
        runner.invoke(main, ["check", str(bad), str(traj_path)]).exit_code,
    ]
    assert codes == [1, 1, 1]


def test_cli_undecodable_files_exit_2(runner, tmp_path):
    good = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(good)])
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(good), "--x0", "1,0", "--t1", "0.1",
                         "--dt", "1e-2", "--out", str(traj_path)])
    bad_sys = tmp_path / "bad.json"
    bad_sys.write_bytes(good.read_bytes().replace(b'"metadata"', b'"metadata\xe9"', 1))
    bad_traj = tmp_path / "bad.csv"
    bad_traj.write_bytes(b"t,x_0,x_1\n0,1,0\n0.001,0.9\xe9,0\n")
    for args in (["validate", str(bad_sys)], ["simulate", str(bad_sys), "--t1", "0.1"],
                 ["check", str(bad_sys), str(traj_path)], ["check", str(good), str(bad_traj)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.exception)
        assert "parse error" in result.stderr and "decode" in result.stderr
    with pytest.raises(FileFormatError, match="decode"):
        pk.load_system(bad_sys)
    with pytest.raises(FileFormatError, match="decode"):
        pk.load_trajectory(bad_traj)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_cli_check_reads_a_piped_trajectory(runner, tmp_path):
    # phs-kit simulate damped.json ... | phs-kit check damped.json /dev/stdin
    system = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(system)])
    args = ["--x0", "1,0", "--t1", "2", "--dt", "1e-3"]
    cli = [sys.executable, "-c", "from phs_kit.cli import main; main()"]
    env = {**os.environ, "PYTHONPATH": str(Path(pk.__file__).resolve().parents[1])}
    simulate = subprocess.Popen(cli + ["simulate", str(system), *args], stdout=subprocess.PIPE,
                                env=env)
    check = subprocess.run(cli + ["check", str(system), "/dev/stdin"], stdin=simulate.stdout,
                           capture_output=True, text=True, env=env)
    simulate.stdout.close()
    assert simulate.wait() == 0
    assert check.returncode == 0, check.stderr
    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(system), *args, "--out", str(traj_path)])
    from_file = runner.invoke(main, ["check", str(system), str(traj_path)])
    assert json.loads(check.stdout) == json.loads(from_file.output)


def test_cli_malformed_relation_or_trajectory_header_exits_2(runner, tmp_path):
    good = tmp_path / "damped.json"
    runner.invoke(main, ["example", "damped_oscillator", "--out", str(good)])
    doc = json.loads(good.read_text())
    no_r = json.loads(json.dumps(doc))
    del no_r["resistive"]["R"]
    wide_r = json.loads(json.dumps(doc))
    wide_r["resistive"]["R"] = [[1.0, 0.0]]
    mismatched = json.loads(json.dumps(doc))
    mismatched["resistive"] = {"type": "parametric", "A": [[1.0]], "B": [[1.0, 0.0]]}
    fractional = json.loads(json.dumps(doc))
    fractional["dims"]["n_s"] = 2.7
    string = tmp_path / "string.json"
    runner.invoke(main, ["example", "string", "--n", "4", "--out", str(string)])
    list_params = json.loads(string.read_text())
    list_params["hamiltonian"]["params"] = [1, 2]
    for i, bad in enumerate([no_r, wide_r, mismatched, fractional, list_params]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.exception
        assert "parse error" in result.stderr

    traj_path = tmp_path / "traj.csv"
    runner.invoke(main, ["simulate", str(good), "--x0", "1,0", "--t1", "0.1",
                         "--dt", "1e-2", "--out", str(traj_path)])
    lines = traj_path.read_text().splitlines(keepends=True)
    assert lines[0] == "t,x_0,x_1,fR_0,eR_0\n"
    traj_path.write_text("t,x_1,x_0,fR_0,eR_0\n" + "".join(lines[1:]))
    result = runner.invoke(main, ["check", str(good), str(traj_path)])
    assert result.exit_code == 2
    assert "parse error" in result.stderr
