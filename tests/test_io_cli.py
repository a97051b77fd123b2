import json

import numpy as np
import pytest
from click.testing import CliRunner

import phs_kit as pk
from phs_kit.cli import main
from phs_kit.fileio import (
    FileFormatError,
    system_from_dict,
    system_to_dict,
    trajectory_from_csv,
    trajectory_to_csv,
)


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


def test_system_dict_rejects_garbage():
    with pytest.raises(FileFormatError):
        system_from_dict({"version": "2"})
    with pytest.raises(FileFormatError):
        system_from_dict({"version": "1", "dims": {"n_s": 1, "n_r": 0, "n_p": 0}})
    doc = system_to_dict(pk.oscillator())
    doc["hamiltonian"] = {"type": "spline"}
    with pytest.raises(FileFormatError):
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
