import hashlib
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spherelab
from spherelab import acceptance, cli
from spherelab.cli import run


def run_cli(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    code, _, err = run_cli(
        ["count", "--dim", "2", "--degree", "2", "--lambda-max", "100", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,count"
    assert len(lines) == 102
    assert lines[1] == "0,1"
    # config echo is one JSON object on stderr
    cfg = json.loads(err.splitlines()[0])
    assert cfg["command"] == "count" and cfg["lambda_max"] == 100
    assert "threads" in cfg


def test_shell_csv_stdout(capsys):
    code, out, _ = run_cli(["shell", "--dim", "2", "--degree", "2", "--lambda", "25"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 13


def test_witness_example(capsys):
    code, out, _ = run_cli(
        ["witness", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1",
         "--point", "2,0,0,0,0"],
        capsys,
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(24 / 7**4, rel=1e-14)


def test_region_verdict(capsys):
    code, out, _ = run_cli(["region", "--p", "2", "--q", "2", "--r", "0.6", "--dim", "5"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "UNBOUNDED"


def test_region_fraction_input(capsys):
    code, out, _ = run_cli(["region", "--p", "2", "--q", "2", "--r", "5/8", "--dim", "5"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "UNBOUNDED"
    assert "convention" in out


def test_exponents_json(capsys):
    code, out, _ = run_cli(
        ["exponents", "--dim", "5", "--degree", "2", "--linearity", "2", "--delta0", "1/2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"critical_r": "5/8", "r0": "3/5", "p0": "5/3"}


def test_avg_maxop_and_function_files(tmp_path, capsys):
    fn = tmp_path / "f.txt"
    fn.write_text("1\n0 1.0\n")
    out = tmp_path / "avg.txt"
    code, _, _ = run_cli(
        ["avg", "--dim", "1", "--degree", "2", "--linearity", "2", "--lambda", "2",
         "--normalization", "exact", "--fn", f"file:{fn}", "--fn", "delta",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text() == "1\n-1 0.25\n1 0.25\n"
    code, text, _ = run_cli(
        ["maxop", "--dim", "1", "--degree", "2", "--linearity", "2", "--lambda-max", "10",
         "--normalization", "exact", "--fn", "delta", "--fn", "delta"],
        capsys,
    )
    assert code == 0
    assert text == "1\n-2 0.25\n-1 0.25\n1 0.25\n2 0.25\n"


def test_function_file_flag(tmp_path, capsys):
    fn = tmp_path / "f.txt"
    fn.write_text("1\n0 1.0\n")
    code, out, _ = run_cli(
        ["avg", "--dim", "1", "--degree", "2", "--linearity", "2", "--lambda", "2",
         "--normalization", "exact", "--function-file", str(fn), "--fn", "delta"],
        capsys,
    )
    assert code == 0
    assert out == "1\n-1 0.25\n1 0.25\n"
    code, out, _ = run_cli(
        ["hlmax", "--dim", "1", "--degree", "2", "--lambda-max", "4",
         "--function-file", str(fn)],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_hlmax_sphmax(capsys):
    code, out, _ = run_cli(
        ["hlmax", "--dim", "1", "--degree", "2", "--lambda-max", "4", "--fn", "delta"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "1"
    code, out, _ = run_cli(
        ["sphmax", "--dim", "5", "--degree", "2", "--lambda-max", "4", "--fn", "delta"], capsys
    )
    assert code == 0


def test_dominate_json(tmp_path, capsys):
    out = tmp_path / "dom.json"
    code, _, _ = run_cli(
        ["dominate", "--dim", "3", "--degree", "2", "--lambda-max", "30",
         "--f", "box:1", "--g", "delta", "--out", str(out)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"max_violation", "argmax_point", "lambda_max", "points_checked"}
    assert payload["max_violation"] <= 1e-9


def test_decay_json(capsys):
    code, out, _ = run_cli(
        ["decay", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1",
         "--direction", "1,0,0,0,0", "--t-min", "10", "--t-max", "300"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"] == -8.0
    assert abs(payload["slope"] + 8.0) < 0.3


def test_normscan_json_and_csv(tmp_path, capsys):
    args = ["normscan", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1",
            "--r", "0.7", "--radii", "8,16", "--samples", "200", "--seed", "9"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["radii"] == [8, 16] and payload["seed"] == 9
    code, out, _ = run_cli(args + ["--csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "radius,partial_norm"


@pytest.mark.parametrize("dim, degree, note", [
    (4, 2, "composed dimension 4 <= 4: the degree-2 growth exponent 1 is not guaranteed at this size"),
    (5, 2, None),
    (4, 3, "degree 3: the growth exponent 0.333333 is guaranteed only for dim > d0(3), "
           "the linear-theory dimension threshold, which is not checked"),
], ids=["low-dim", "clean", "higher-degree"])
def test_asymfit_note(dim, degree, note, capsys):
    code, out, _ = run_cli(
        ["asymfit", "--dim", str(dim), "--degree", str(degree), "--lambda-max", "1024",
         "--window-lo", "64", "--window-hi", "1024"],
        capsys,
    )
    assert code == 0
    assert json.loads(out).get("note") == note


def test_accept_headline_carries_elapsed_time(capsys):
    code, _, err = run_cli(["accept", "--experiment", "7"], capsys)
    assert code == 0
    assert re.fullmatch(
        r"PASS  criterion 7: exponent formulas \+ region probes \(\d+\.\ds\)", err.splitlines()[-1]
    )


def test_accept_refuses_experiments_outside_the_table(capsys):
    for number in ("0", "8"):
        code, out, err = run_cli(["accept", "--experiment", number], capsys)
        assert code == 2 and out == ""
        assert f"invalid choice: {number} (choose from 1, 2, 3, 4, 5, 6, 7)" in err


def test_avg_has_no_lambda_min_and_maxop_keeps_it(capsys):
    # T_lam averages over one level, so only the maximal operator has a level range
    avg = ["avg", "--dim", "1", "--lambda", "2", "--fn", "delta", "--fn", "delta"]
    code, _, err = run_cli(avg + ["--lambda-min", "1"], capsys)
    assert code == 2 and "unrecognized arguments: --lambda-min 1" in err
    code, _, err = run_cli(avg, capsys)
    assert code == 0 and "lambda_min" not in json.loads(err.splitlines()[0])
    maxop = ["maxop", "--dim", "1", "--lambda-max", "8", "--fn", "delta", "--fn", "delta"]
    code, every_level, _ = run_cli(maxop, capsys)
    assert code == 0 and every_level == "1\n-2 0.25\n-1 0.25\n1 0.25\n2 0.25\n"
    code, from_three, _ = run_cli(maxop + ["--lambda-min", "3"], capsys)
    assert code == 0 and from_three == "1\n-2 0.25\n2 0.25\n"


def test_exit_code_parameter_error(capsys):
    code, _, err = run_cli(["count", "--dim", "0", "--degree", "2", "--lambda-max", "5"], capsys)
    assert code == 2
    assert "error (parameters)" in err
    code, _, err = run_cli(["witness", "--dim", "2", "--point", "1,x"], capsys)
    assert code == 2 and "bad integer list '1,x'" in err
    # a wrong --fn count reads the operators' own check
    code, _, err = run_cli(["avg", "--dim", "1", "--lambda", "2", "--fn", "delta"], capsys)
    assert code == 2 and "error (parameters): expected 2 input functions, got 1" in err


def test_exit_code_budget_error(capsys):
    # (2*1600+1)^2 > 10^7 support points: rejected before allocation
    code, _, err = run_cli(
        ["avg", "--dim", "2", "--degree", "2", "--linearity", "2", "--lambda", "4",
         "--fn", "box:1600", "--fn", "delta"],
        capsys,
    )
    assert code == 3
    assert "error (budget)" in err


def test_exit_code_oversized_evaluation_box(tmp_path, capsys):
    # points 10^5 apart on each of 4 axes: a box of about 10^20 > 2^63 rows
    path = tmp_path / "two.txt"
    path.write_text("4\n0 0 0 0 1\n100000 100000 100000 100000 1\n")
    code, _, err = run_cli(["hlmax", "--dim", "4", "--lambda-max", "4", "--fn", f"file:{path}"], capsys)
    assert code == 3
    assert "error (budget)" in err


def test_exit_code_box_walk_budget(tmp_path, capsys, monkeypatch):
    # 15 points (i, 0) and (300, 300) at lam_max = 9 send 16 x 7 (point, run) pairs, past a budget
    # of 100, and their reach is walked in bands; two points (0, 0) and (3000, 3000) with a budget
    # of 28 build no stencil (29 k-ball points), and walking their box takes 1104 chunks
    line, far = tmp_path / "line.txt", tmp_path / "far.txt"
    line.write_text("2\n" + "".join(f"{i} 0 1.0\n" for i in range(15)) + "300 300 1.0\n")
    far.write_text("2\n0 0 1.0\n3000 3000 1.0\n")
    argv = ["dominate", "--dim", "2", "--degree", "2", "--lambda-max", "9"]
    monkeypatch.setattr(spherelab.grids, "DEFAULT_SUPPORT_BUDGET", 100)
    code, out, err = run_cli([*argv, "--f", f"file:{line}", "--g", f"file:{line}"], capsys)
    assert code == 0 and out and len(err.splitlines()) == 1
    monkeypatch.setattr(spherelab.grids, "DEFAULT_SUPPORT_BUDGET", 28)
    code, out, err = run_cli([*argv, "--f", f"file:{far}", "--g", f"file:{far}"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 2      # the config echo and a one-line error
    assert err.splitlines()[1] == "error (budget): box walk steps: 1104 exceeds the budget of 28"


def test_exit_code_grid_file_and_decay_samples_past_the_support_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "four.txt"
    path.write_text("1\n" + "".join(f"{i} 1.0\n" for i in range(4)))
    monkeypatch.setattr(spherelab.grids, "DEFAULT_SUPPORT_BUDGET", 3)
    code, out, err = run_cli(["hlmax", "--dim", "1", "--lambda-max", "4", "--fn", f"file:{path}"], capsys)
    assert code == 3 and out == ""
    assert err.splitlines()[1] == "error (budget): grid file rows: 4 exceeds the budget of 3"
    monkeypatch.undo()      # the samples meet the support budget itself
    code, out, err = run_cli(["decay", "--dim", "5", "--direction", "1,0,0,0,0",
                              "--samples", "10000001"], capsys)
    assert code == 3 and out == ""
    assert err.splitlines()[1] == "error (budget): decay samples: 10000001 exceeds the budget of 10000000"


_OVERFLOW = "0 0 0 0 0 1e308\n1 0 0 0 0 1e308\n"     # two points that sum past the float range


@pytest.mark.parametrize("argv, rows, message", [
    (["hlmax", "--dim", "5", "--lambda-max", "4", "--function-file", "{path}"], _OVERFLOW,
     "the value at (-1, 0, 0, 0, 0) must be a finite real number, got inf"),
    (["maxop", "--dim", "5", "--lambda-max", "4", "--fn", "file:{path}", "--fn", "file:{path}"],
     _OVERFLOW, "the value at (-1, -1, 0, 0, 0) must be a finite real number, got inf"),
    (["avg", "--dim", "5", "--lambda", "4", "--fn", "file:{path}", "--fn", "file:{path}"],
     _OVERFLOW, "the value at (-1, -1, 0, 0, 0) must be a finite real number, got inf"),
    (["dominate", "--dim", "5", "--lambda-max", "4", "--f", "file:{path}", "--g", "file:{path}"],
     _OVERFLOW,
     "the domination sides at (-2, 0, 0, 0, 0) must be finite, got LHS 0.0 and majorant inf"),
    (["hlmax", "--dim", "1", "--lambda-max", "9", "--function-file", "{path}"],
     "4611686018427387903 1.0\n", "a coordinate of magnitude 4611686018427387906 is not below 2^62"),
], ids=["non-finite-output", "maxop-non-finite", "avg-non-finite", "dominate-non-finite",
        "output-coordinate-past-2^62"])
def test_exit_code_operator_output_past_the_value_and_coordinate_rules(argv, rows, message,
                                                                        tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(f"{argv[2]}\n{rows}")
    with warnings.catch_warnings(record=True) as caught:    # avg shows every warning it meets
        warnings.simplefilter("error", RuntimeWarning)      # an overflow is refused, not warned
        code, out, err = run_cli([a.format(path=path) for a in argv], capsys)
    assert caught == []
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 2      # the config echo and a one-line error
    assert err.splitlines()[1] == f"error (parameters): {message}"


@pytest.mark.parametrize("argv, sha256", [
    (["hlmax", "--dim", "5", "--lambda-max", "12", "--fn", "box:1"],
     "e72bf84f53fffc2ba91de654078d86139502f397a4c91d4d8ed941cc7d1a7917"),
    (["sphmax", "--dim", "5", "--lambda-max", "12", "--fn", "box:1"],
     "2f90388c274fedc3d092530c757ea575e3b8bb32af368e054df1226cfa78719d"),
    (["maxop", "--dim", "5", "--linearity", "2", "--lambda-max", "12", "--fn", "box:1",
      "--fn", "box:1"],
     "b1399ad8887e33c01038cc5a78f2a5fae502c37c6da63dec117d838f8346085d"),
    (["dominate", "--dim", "5", "--degree", "2", "--lambda-max", "50", "--f", "box:1", "--g",
      "delta"],
     "449f0f5f81ea964159b4201e4a31330821944387482dca6b483c246d79ce5f75"),
], ids=["hlmax", "sphmax", "maxop", "dominate"])
def test_operator_output_bytes_are_pinned(argv, sha256, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_joint_count(capsys):
    # N(5) = r_{4,2}(5) = 8 * (1 + 5)
    code, out, _ = run_cli(["joint", "--dim", "2", "--linearity", "2", "--lambda", "5"], capsys)
    assert code == 0
    assert out == "48\n"


@pytest.mark.parametrize("argv", [["--linearity", "2", "--lambda", "-1"],
                                  ["--linearity", "0", "--lambda", "5"]])
def test_joint_rejects_bad_parameters(argv, capsys):
    code, out, err = run_cli(["joint", "--dim", "2"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 2
    assert err.splitlines()[1].startswith("error (parameters)")


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    # r_{10,2}(10^5) is about 10^36 points
    ["shell", "--dim", "10", "--degree", "2", "--lambda", "100000"],
    # the 4-ball of radius 200 has about 7.9 * 10^9 points
    ["normscan", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1", "--r", "0.7",
     "--radii", "100,200", "--exact-budget", "1000000000000"],
    # a 3^60-point witness box; the inner region's 59-ball has 7.6 * 10^6 points
    ["normscan", "--dim", "60", "--r", "0.7", "--radii", "2,3"],
    # a count table of 2 * 10^9 + 1 entries
    ["count", "--dim", "2", "--degree", "2", "--lambda-max", "2000000000"],
    # a dense convolution of 1.1 * 10^8 digits (r_2 squared up to 10^7)
    ["count", "--dim", "4", "--degree", "2", "--lambda-max", "10000000"],
], ids=["shell", "normscan", "normscan-witness", "count-table", "count-digits"])
def test_exit_code_budget_under_memory_cap(argv):
    # the child's address space is capped at 1.5 GB, so a regression that
    # allocates ends there, not in the machine
    src = str(Path(spherelab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab"] + argv,
        env=env, preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "error (budget)" in proc.stderr


@pytest.mark.parametrize("extra", [
    # (2*10+1)^7 candidate levels per point
    ["--dim", "7", "--box", "10", "--point", "0,0,0,0,0,0,0"],
    # exact joint counts up to level ~2*10^6
    ["--dim", "5", "--point", "1000,0,0,0,0", "--normalization", "exact"],
])
def test_exit_code_witness_budget(extra, capsys):
    code, _, err = run_cli(["witness"] + extra, capsys)
    assert code == 3
    assert "error (budget)" in err


@pytest.mark.parametrize("radius, extra", [
    (10**80, []), (10**80, ["--exact-budget", "0"]), (10**400, []),
], ids=["10^80", "10^80-sampled", "10^400"])
def test_exit_code_normscan_ball_volume_past_the_float_range(radius, extra, capsys):
    # the outer ball's volume, or the radius itself, overflows a float: refused before any region
    code, out, err = run_cli(["normscan", "--dim", "5", "--r", "0.7", "--radii", f"1,{radius}"]
                             + extra, capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 2      # the config echo and a one-line error
    assert err.splitlines()[1] == ("error (budget): volume of the outer ball: inf exceeds the budget "
                                   "of 1.7976931348623157e+308")


@pytest.mark.parametrize("radius", [10**19, 10**30])
def test_exit_code_normscan_radius_past_int64_samples(radius, capsys):
    # a sampled region rounds its points to int64, which 2^62 and more could pass: the outer
    # radius is refused before any region, with no cast warning and one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["normscan", "--dim", "5", "--r", "0.7", "--radii", f"1,{radius}"],
                                 capsys)
    assert caught == []
    assert code == 3 and out == ""
    assert err.splitlines()[1:] == [f"error (budget): outer radius (int64 samples): {radius} "
                                    "exceeds the budget of 4611686018427387903"]


@pytest.mark.parametrize("argv, want", [
    # witness levels past 2^62 would wrap int64: the first two printed 0.0, not about 5.6e-20
    # and 2.6e-7, and the decay fit found its values vanished
    (["witness", "--dim", "2", "--point", "3000000000,0"], 3),
    (["witness", "--dim", "2", "--degree", "3", "--point", "3000000,0"], 3),
    (["decay", "--dim", "2", "--direction", "1000000000,1"], 3),
    # coordinates outside int64, and a function file with |x_i| >= 2^62
    (["witness", "--dim", "2", "--point", "99999999999999999999,1"], 2),
    (["decay", "--dim", "2", "--direction", "10000000000000000,1"], 2),
    (["hlmax", "--dim", "2", "--lambda-max", "4", "--fn", "file:{far}"], 2),
], ids=["witness-level", "witness-level-degree-3", "decay-level", "witness-coordinate",
        "decay-coordinate", "hlmax-coordinate"])
def test_exit_code_coordinates_past_int64(argv, want, tmp_path, capsys):
    far = tmp_path / "far.txt"
    far.write_text("2\n0 0 1.0\n99999999999999999999 1 1.0\n")
    code, out, err = run_cli([a.format(far=far) for a in argv], capsys)
    assert code == want
    assert out == ""
    assert len(err.splitlines()) == 2      # the config echo and a one-line error
    assert err.splitlines()[1].startswith("error (budget)" if want == 3 else "error (parameters)")


@pytest.mark.parametrize("fn_text", [None, "1\n0.5 1.0\n", "1\n0 nan\n", "1\n0 -inf\n",
                                     "1\n0 1.0\n0 2.0\n", b"1\n\xff 1.0\n", b"\xd9\xa1\n0 1.0\n"])
def test_exit_code_bad_function_input(fn_text, tmp_path, capsys):
    # a malformed box spec, a non-integer coordinate, non-finite values, a repeated point
    # (keeping either row would drop the other's value), and bytes that are not ASCII
    fn = "box:abc"
    if fn_text is not None:
        path = tmp_path / "f.txt"
        path.write_bytes(fn_text if isinstance(fn_text, bytes) else fn_text.encode())
        fn = f"file:{path}"
    code, _, err = run_cli(
        ["avg", "--dim", "1", "--degree", "2", "--linearity", "2", "--lambda", "2",
         "--fn", fn, "--fn", "delta"],
        capsys,
    )
    assert code == 2
    assert "error (parameters)" in err


@pytest.mark.parametrize("argv, kind", [
    (["hlmax", "--dim", "1", "--lambda-max", "1", "--fn", "file:{missing}"], "io"),
    (["hlmax", "--dim", "2", "--lambda-max", "1", "--fn", "file:{one}"], "parameters"),
    (["hlmax", "--dim", "1", "--lambda-max", "1", "--fn", "gauss"], "parameters"),
    (["maxop", "--dim", "1", "--lambda-max", "2", "--fn", "delta"], "parameters"),
], ids=["missing-file", "wrong-dim", "unknown-spec", "one-fn-for-two"])
def test_exit_code_bad_operator_input(argv, kind, tmp_path, capsys):
    (tmp_path / "one.txt").write_text("1\n0 1.0\n")
    paths = {name: tmp_path / f"{name}.txt" for name in ("missing", "one")}
    code, out, err = run_cli([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 2      # the config echo and a one-line error
    assert err.splitlines()[1].startswith(f"error ({kind})")


def test_exit_code_threads_below_one(capsys):
    # the config echo needs the resolved thread count, so the error is the only line
    code, out, err = run_cli(["region", "--p", "2", "--q", "2", "--r", "1", "--dim", "5",
                              "--threads", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error (parameters): --threads must be >= 1, got 0"]


@pytest.mark.parametrize("argv", [
    ["region", "--dim", "5", "--p", "nan", "--q", "2", "--r", "1"],
    ["region", "--dim", "5", "--p", "inf", "--q", "2", "--r", "1"],
    ["region", "--dim", "5", "--p", "1/0", "--q", "2", "--r", "1"],
    ["region", "--dim", "5", "--p", "2", "--q", "2", "--r", "nan"],
    ["exponents", "--dim", "5", "--delta0", "nan"],
    ["exponents", "--dim", "5", "--delta0", "inf"],
    ["normscan", "--dim", "5", "--r", "inf", "--radii", "8,16"],
    ["normscan", "--dim", "5", "--r", "1/0", "--radii", "8,16"],
])
def test_exit_code_bad_exponent(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "error (parameters)" in err
    assert out == ""


def test_exit_code_analysis_error(capsys):
    code, _, err = run_cli(
        ["decay", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1",
         "--direction", "1,0,0,0,0", "--t-min", "50", "--t-max", "50"],
        capsys,
    )
    assert code == 4
    assert "error (analysis)" in err


def test_exit_code_bad_subcommand(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SPHERELAB_THREADS", "3")
    code, _, err = run_cli(["region", "--p", "2", "--q", "2", "--r", "1", "--dim", "5"], capsys)
    assert code == 0
    assert json.loads(err.splitlines()[0])["threads"] == 3
    monkeypatch.setenv("SPHERELAB_THREADS", "zero")
    code, _, _ = run_cli(["region", "--p", "2", "--q", "2", "--r", "1", "--dim", "5"], capsys)
    assert code == 2


def test_outputs_identical_across_thread_counts(tmp_path, capsys):
    outs = []
    for threads in ("1", "8"):
        path = tmp_path / f"scan-{threads}.json"
        code, _, _ = run_cli(
            ["normscan", "--dim", "5", "--degree", "2", "--linearity", "2", "--box", "1",
             "--r", "0.7", "--radii", "16,32", "--samples", "300", "--seed", "4",
             "--threads", threads, "--out", str(path)],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["count", "--dim", "1", "--degree", "2", "--lambda-max", "4", "--out", str(out)], capsys
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]


def test_atomic_write_to_a_directory_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    code, out, err = run_cli(
        ["count", "--dim", "1", "--degree", "2", "--lambda-max", "4", "--out", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[1].startswith("error (io)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert list(target.iterdir()) == []


def test_atomic_write_keeps_the_usual_file_mode(tmp_path, capsys):
    # as open(path, "w") would: a new file gets 0o666 & ~umask, an existing one keeps its mode
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for path in (new, old):
            code, _, _ = run_cli(["count", "--dim", "2", "--lambda-max", "3", "--out", str(path)],
                                 capsys)
            assert code == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert new.read_text() == old.read_text() == "lambda,count\n0,1\n1,4\n2,4\n3,0\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"),
     "error (memory): Unable to allocate 8.00 EiB for an array"),
    (MemoryError(), "error (memory): out of memory"),
], ids=["numpy", "bare"])
def test_exit_code_memory_error(error, line, capsys, monkeypatch):
    def exhausted(*args):
        raise error
    monkeypatch.setattr(cli, "rep_counts", exhausted)
    code, out, err = run_cli(["count", "--dim", "2", "--lambda-max", "3"], capsys)
    assert code == 3 and out == ""
    assert err.splitlines()[1:] == [line]


_CAPPED_RUN = """
import resource, sys
from spherelab.cli import run
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
cap = size + 64 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_exit_code_out_of_memory_under_a_cap():
    # 52 points, but the shell's half-ball descent allocates hundreds of MB: with the address
    # space capped 64 MB above the size after import, numpy's allocation fails
    src = str(Path(spherelab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, "shell", "--dim", "2", "--degree", "2",
         "--lambda", "24500000000000"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 2      # the config echo and a one-line error
    assert proc.stderr.splitlines()[1].startswith("error (memory): ")


def test_accept_failed_gate(tmp_path, capsys, monkeypatch):
    # the report is written first, then the headline, and the exit code says the gate failed
    name, details = "exponent formulas + region probes", {"probe": "forced to fail"}
    monkeypatch.setitem(acceptance.EXPERIMENTS, 7, lambda: (name, False, details))
    path = tmp_path / "exp7.json"
    code, out, err = run_cli(["accept", "--experiment", "7", "--out", str(path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(path.read_text()) == {"criterion": 7, "name": name, "passed": False,
                                            "details": details}
    assert re.fullmatch(r"FAIL  criterion 7: exponent formulas \+ region probes \(\d+\.\ds\)",
                        err.splitlines()[-1])
    # a report that cannot be written ends the run before the headline
    code, out, err = run_cli(["accept", "--experiment", "7", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 2 and err.splitlines()[1].startswith("error (io)")


def test_out_is_checked_before_the_work(tmp_path, capsys, monkeypatch):
    # an --out that cannot be written ends the run before the experiment, naming the path given
    calls = []

    def experiment():
        calls.append(sorted(p.name for p in tmp_path.iterdir()))    # no temp file during the work
        return "growth exponent, dimensions 10 and 6", True, {}

    monkeypatch.setitem(acceptance.EXPERIMENTS, 2, experiment)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for out, line in (("missing/x.json", "[Errno 2] No such file or directory: 'missing/x.json'"),
                      ("d", "[Errno 21] Is a directory: 'd'")):
        code, stdout, err = run_cli(["accept", "--experiment", "2", "--out", out], capsys)
        assert (code, stdout, err.splitlines()[1:]) == (2, "", [f"error (io): {line}"])
    assert calls == [] and sorted(p.name for p in tmp_path.rglob("*")) == ["d"]
    code, _, _ = run_cli(["accept", "--experiment", "2", "--out", "d/x.json"], capsys)
    assert code == 0 and calls == [["d"]]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d", "x.json"]


_HELP_SHA256 = {
    "": "b09cb1d1315675ee9490071069592b875ea32dbe80e3518e0d696c5c50c5db2d",
    "count": "c9880f59d517f4b9a2eddac8b322a6b3946b41e5feaef8f43e0a35ee5b054474",
    "shell": "4920bdd8f44ef4c5e9ae6133fc9849b31aee15aeed16975f389fd203ffe919f1",
    "joint": "6c3e43973a3cf662d367fbaaa1907a6e3e9011cf1bf891ab140921b98f4faf75",
    "avg": "4450924b10ef963b9bfb43734361b391278c0725600ed058ded0cc03d86fd118",
    "maxop": "b50a74b6f3c237fd53625bb21645d043236c1bef95a3ab5da8527973909d107d",
    "hlmax": "1808f416475fd259460749afa4f9b4a696441fa8da89817c546f80a2f96da1f7",
    "sphmax": "d18182f57db0ce256b3ab9df0c884c6296eb1e371af6a510c61ba1308d2cbc94",
    "dominate": "1c71c620e4f5089c590cc4084713c24bb4b7f76c9cb6afa208e01b1551cb2116",
    "witness": "aea5b0f0c9c4389a1e14f17efe7cd73c27dcfc35553578d273c5d8378d4e8fae",
    "decay": "a771ee99426285d6259adb4a0344f22aaa6cb98872add4886f23f67511b35e3a",
    "normscan": "0e8b4ec63795e60ea5bfdb0eab25d39d13b9009f3740599209178c728975aaf2",
    "region": "ebbd94e2205b2550f5d6cf6affaeab36163a12fc9acde9054e3f6d203ddecf08",
    "exponents": "3217b721fef5fcab00292993812fc975569650c4b6c430ea3c5f5dfef9bbbd3e",
    "asymfit": "d27a7347cc7d1a83323b7a88c749b19893bc211a2e2c58f7857ef4d3792c8edd",
    "accept": "cc0bd535513dd61f830548a012f263fb4f765d1f878847cfb7c2687e12e9e59f",
}


@pytest.mark.parametrize("command", list(_HELP_SHA256), ids=lambda command: command or "top-level")
def test_help_texts_are_pinned(command, capsys, monkeypatch):
    # every flag, default, choice, metavar and help string of the interface, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(command.split() + ["--help"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[command]


_ECHO = [
    ("count --dim 2 --degree 2 --threads 1 --lambda-max 10",
     '{"command": "count", "degree": 2, "dim": 2, "lambda_max": 10, "out": null, "threads": 1}'),
    ("shell --dim 2 --degree 2 --threads 1 --lambda 25",
     '{"command": "shell", "degree": 2, "dim": 2, "lambda": 25, "out": null, "threads": 1}'),
    ("joint --dim 2 --degree 2 --threads 1 --linearity 2 --lambda 5",
     '{"command": "joint", "degree": 2, "dim": 2, "lambda": 5, "linearity": 2, "out": null, '
     '"threads": 1}'),
    ("avg --dim 1 --degree 2 --threads 1 --linearity 2 --lambda 2 --normalization exact "
     "--fn delta --function-file f.txt",
     '{"command": "avg", "degree": 2, "dim": 1, "fn": ["delta", "file:f.txt"], "lambda": 2, '
     '"linearity": 2, "normalization": "exact", "out": null, "threads": 1}'),
    ("maxop --dim 1 --degree 2 --threads 1 --linearity 2 --lambda-max 8 --lambda-min 2 "
     "--normalization asymptotic --fn delta --function-file f.txt",
     '{"command": "maxop", "degree": 2, "dim": 1, "fn": ["delta", "file:f.txt"], "lambda_max": 8, '
     '"lambda_min": 2, "linearity": 2, "normalization": "asymptotic", "out": null, "threads": 1}'),
    ("hlmax --dim 1 --degree 2 --threads 1 --lambda-max 4 --fn delta",
     '{"command": "hlmax", "degree": 2, "dim": 1, "fn": "delta", "lambda_max": 4, "out": null, '
     '"threads": 1}'),
    ("sphmax --dim 1 --degree 2 --threads 1 --lambda-max 4 --function-file f.txt",
     '{"command": "sphmax", "degree": 2, "dim": 1, "fn": "file:f.txt", "lambda_max": 4, '
     '"out": null, "threads": 1}'),
    ("dominate --dim 3 --degree 2 --threads 1 --lambda-max 10 --f box:1 --g delta",
     '{"command": "dominate", "degree": 2, "dim": 3, "f": "box:1", "g": "delta", "lambda_max": 10, '
     '"out": null, "threads": 1}'),
    ("witness --dim 5 --degree 2 --threads 1 --linearity 2 --box 1 --point 2,0,0,0,0 "
     "--normalization exact",
     '{"box": 1, "command": "witness", "degree": 2, "dim": 5, "linearity": 2, '
     '"normalization": "exact", "out": null, "point": "2,0,0,0,0", "threads": 1}'),
    ("decay --dim 5 --degree 2 --threads 1 --linearity 2 --box 1 --direction 1,0,0,0,0 "
     "--t-min 10 --t-max 100 --samples 16",
     '{"box": 1, "command": "decay", "degree": 2, "dim": 5, "direction": "1,0,0,0,0", '
     '"linearity": 2, "out": null, "samples": 16, "t_max": 100, "t_min": 10, "threads": 1}'),
    ("normscan --dim 5 --degree 2 --threads 1 --linearity 2 --box 1 --r 0.7 --radii 8,16 "
     "--seed 9 --samples 100 --exact-budget 1000 --csv",
     '{"box": 1, "command": "normscan", "csv": true, "degree": 2, "dim": 5, "exact_budget": 1000, '
     '"linearity": 2, "out": null, "r": "0.7", "radii": "8,16", "samples": 100, "seed": 9, '
     '"threads": 1}'),
    ("region --dim 5 --threads 1 --p 2 --q 2 --r 0.6",
     '{"command": "region", "dim": 5, "out": null, "p": "2", "q": "2", "r": "0.6", "threads": 1}'),
    ("exponents --dim 5 --degree 2 --threads 1 --linearity 2 --delta0 1/2",
     '{"command": "exponents", "degree": 2, "delta0": "1/2", "dim": 5, "linearity": 2, '
     '"out": null, "threads": 1}'),
    ("asymfit --dim 5 --degree 2 --threads 1 --lambda-max 256 --window-lo 16 --window-hi 256",
     '{"command": "asymfit", "degree": 2, "dim": 5, "lambda_max": 256, "out": null, "threads": 1, '
     '"window_hi": 256, "window_lo": 16}'),
    ("accept --threads 1 --experiment 7",
     '{"command": "accept", "experiment": 7, "out": null, "threads": 1}'),
]


@pytest.mark.parametrize("argv, echo", _ECHO, ids=[argv.split()[0] for argv, _ in _ECHO])
def test_config_echo_is_pinned(argv, echo, tmp_path, capsys, monkeypatch):
    # one invocation per subcommand that gives every option: the echo names each resolved
    # option once, and nothing else
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("1\n0 1.0\n")
    code, _, err = run_cli(argv.split(), capsys)
    assert code == 0
    assert err.splitlines()[0] == echo
