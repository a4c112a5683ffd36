"""Inputs at and past the library's limits, each run as a CLI process under a 1.5 GB address
space: each must end in its documented exit code with one "error (kind): ..." line, no traceback
and no warning, in under 5 s and 100 MB."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spherelab

_CAP = 1536 * 2**20

# (argv, exit code, start of the last stderr line)
_CASES = {
    # lambda one row of levels past a chunk, at every operator's entry
    "hlmax-2^62": ("hlmax --dim 1 --lambda-max 4611686018427387904 --fn delta",
                   3, "error (budget): "),
    "maxop-2^63": ("maxop --dim 1 --linearity 3 --lambda-max 9223372036854775807 --fn delta "
                   "--fn delta --fn delta --normalization asymptotic", 3, "error (budget): "),
    "hlmax-10^8": ("hlmax --dim 1 --lambda-max 100000000 --fn delta", 3, "error (budget): "),
    "dominate-5e7": ("dominate --dim 2 --lambda-max 50000000 --f delta --g delta",
                     3, "error (budget): "),
    "maxop-5e6": ("maxop --dim 2 --linearity 2 --lambda-max 5000000 --fn delta --fn delta",
                  3, "error (budget): "),
    "avg-10^8": ("avg --dim 1 --linearity 2 --lambda 100000000 --fn delta --fn delta "
                 "--normalization asymptotic", 3, "error (budget): "),
    # exact counts past the float range
    "asymfit-mean": ("asymfit --dim 600 --lambda-max 1024 --window-lo 1 --window-hi 1024",
                     3, "error (budget): "),
    "maxop-norms": ("maxop --dim 400 --linearity 3 --lambda-max 600 --fn delta --fn delta "
                    "--fn delta", 3, "error (budget): "),
    "avg-norms": ("avg --dim 500 --linearity 2 --lambda 700 --fn delta --fn delta",
                  3, "error (budget): "),
    # asymptotic norms past the float range: T_60 of the boxes is about 10^-263.6 at the origin
    "avg-norm-box": ("avg --dim 1 --linearity 400 --lambda 60 --normalization asymptotic"
                     + " --fn box:1" * 400, 3, "error (budget): asymptotic norm 60^199.0: "),
    "avg-norm-delta": ("avg --dim 1 --linearity 400 --lambda 60 --normalization asymptotic"
                       + " --fn delta" * 400, 3, "error (budget): asymptotic norm 60^199.0: "),
    "maxop-norm": ("maxop --dim 400 --linearity 3 --lambda-max 60 --normalization asymptotic "
                   "--fn delta --fn delta --fn delta", 3, "error (budget): asymptotic norm "),
    # witness^r past the float range: a partial norm, the origin term, a shell sum that underflows
    "normscan-r0.01": ("normscan --dim 5 --r 0.01 --radii 4,8,16", 4, "error (analysis): "),
    "normscan-r700": ("normscan --dim 5 --r 700 --radii 4,8", 4, "error (analysis): "),
    "normscan-r300": ("normscan --dim 5 --r 300 --radii 4,8,16", 4, "error (analysis): "),
    # the last sample rounds up to 2^63
    "decay-int64": ("decay --dim 5 --direction 1,0,0,0,0 --t-min 1 --t-max 9223372036854775807 "
                    "--samples 4", 2, "error (parameters): "),
    # refused before the experiment runs
    "out-missing": ("accept --experiment 2 --out missing/x.json", 2,
                    "error (io): [Errno 2] No such file or directory: 'missing/x.json'"),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CAP, _CAP))


@pytest.mark.parametrize("argv, code, line", list(_CASES.values()), ids=list(_CASES))
def test_limit_ends_in_one_error_line(argv, code, line, tmp_path):
    src = str(Path(spherelab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    work = tmp_path / "work"
    work.mkdir()
    with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "spherelab", *argv.split()], cwd=work,
                                env=env, stdout=out, stderr=err, preexec_fn=_limit_address_space)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    assert proc.returncode == code, stderr
    assert stderr.splitlines()[-1].startswith(line), stderr
    assert "Traceback" not in stderr and "Warning" not in stderr, stderr
    assert seconds < 5.0 and usage.ru_maxrss < 100 * 1024, (seconds, usage.ru_maxrss)
    assert list(work.iterdir()) == []
