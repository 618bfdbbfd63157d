"""The bit contract as a gate: tiny commands against recorded digests.

A seed and a config fix every output bit.  Each case runs one `fedamp`
command on a small config at seed 0 and compares its exit code and the
sha256 of each CSV it writes with `golden.json`.  The record is keyed by
platform (python, numpy, scipy, BLAS, CPU features), as perfbench's
digests are; on any other platform each case runs twice, must give equal
bytes, and warns that no record was compared.

A change that names the bits it moves re-records only those cases, with
one BLAS thread (no names: every case, and the platform key):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from fedamp import cli

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("golden.json")

DIAGONAL = """\
[population]
kind = quadratic
N = 8
m = 4
rotate = false
spectrum = linspace
noise = gaussian
sigma = 0.5
[pattern]
kind = periodic
S = 2
G = 2
B = 3
[run]
gamma = 0.05
eta = 2.0
I = 3
P = 4
T = 48
"""

ROTATED = """\
[population]
kind = quadratic
N = 8
m = 4
rotate = true
noise = gaussian
sigma = 1.0
[pattern]
kind = permutation
S = 2
[run]
gamma = 0.05
eta = 1.5
I = 2
P = 4
T = 64
"""

# (subcommand, config, --set overrides, CSVs written)
CASES = {
    "run_diagonal": ("run", DIAGONAL, [], ["metrics.csv"]),
    "run_rotated": ("run", ROTATED, ["pattern.kind=independent", "pattern.S=3"],
                    ["metrics.csv"]),
    "run_logistic_minibatch": ("run", """\
[population]
kind = logistic
N = 6
m = 4
samples_per_client = 8
[pattern]
kind = markov
S = 2
p_aa = 0.8
p_uu = 0.7
[run]
gamma = 0.1
eta = 2.0
I = 2
P = 4
T = 24
eval_every = 1
minibatch = 4
""", [], ["metrics.csv"]),
    "wait_minibatch": ("run", DIAGONAL, ["run.mode=wait_minibatch"], ["metrics.csv"]),
    "wait_full": ("run", DIAGONAL, ["run.mode=wait_full"], ["metrics.csv"]),
    "sweep_T_planned": ("sweep", ROTATED, ["run.planner=cor3.2", "sweep.axis=T",
                                           "sweep.values=32 64 128",
                                           "seeds.replications=2"], ["sweep.csv"]),
    # rho = 1/sqrt(10) is a sum of ten squares, and sigma keeps eta below
    # its cap, so the plan, and every metric, moves with rho's last bit
    "run_planned_independent": ("run", DIAGONAL, [
        "population.N=16", "population.sigma=4", "pattern.kind=independent",
        "pattern.S=10", "run.planner=cor3.2", "run.I=2", "run.T=256"], ["metrics.csv"]),
    "diagnose_exact": ("diagnose", ROTATED, ["diagnose.P_list=1 2 4 8"],
                       ["divergence.csv"]),
    "diagnose_sampled": ("diagnose", ROTATED, ["diagnose.P_list=1 2 4 8",
                                               "diagnose.points=3"], ["divergence.csv"]),
    "bounds_hoeffding": ("bounds", """\
[population]
N = 8
[pattern]
kind = independent
S = 2
[bounds]
check = hoeffding
P = 16
trials = 200
""", [], ["bounds.csv"]),
    "bounds_chebyshev": ("bounds", """\
[population]
N = 8
[pattern]
kind = markov
S = 2
p_aa = 0.9
p_uu = 0.8
[bounds]
check = chebyshev
P_list = 4 8 16
mixing_trials = 20
max_lag = 4
""", [], ["bounds.csv"]),
}
THREADED_CASE = "run_rotated"


def platform_key() -> dict:
    """What the output bits may depend on besides the code and the seed."""
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "cpu_features": sorted(k for k, v in __cpu_features__.items() if v)}


def argv(name: str, tmp: Path) -> list:
    """The CLI arguments of case `name`, its config written under `tmp`."""
    sub, config, overrides, _ = CASES[name]
    path = tmp / f"{name}.ini"
    path.write_text(config)
    args = [sub, "--seed", "0", "--config", str(path), "--out", str(tmp / name)]
    for item in overrides:
        args += ["--set", item]
    return args


def digests(name: str, tmp: Path, code: int) -> dict:
    """The exit code and the sha256 of each CSV of a finished case."""
    return {"exit": code, "sha256": {
        csv: hashlib.sha256((tmp / name / csv).read_bytes()).hexdigest()
        for csv in CASES[name][3]}}


def run_case(name: str, tmp: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv(name, tmp))
    return digests(name, tmp, code)


def run_case_threads(name: str, tmp: Path, threads: int) -> dict:
    """Case `name` in a fresh process with `threads` BLAS threads."""
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from fedamp import cli; sys.exit(cli.main(sys.argv[1:]))",
                           *argv(name, tmp)], env=env, capture_output=True, text=True)
    return digests(name, tmp, proc.returncode)


def recorded() -> dict | None:
    """This platform's record, or None (with a warning) on another platform."""
    record = json.loads(RECORD.read_text())
    if record["platform"] == platform_key():
        return record["cases"]
    warnings.warn("golden.json was recorded on another platform; only "
                  "run-to-run equality is checked", stacklevel=2)
    return None


@pytest.mark.parametrize("name", CASES)
def test_case_matches_record(name, tmp_path):
    got = run_case(name, tmp_path)
    record = recorded()
    if record is not None:
        assert got == record[name]
    else:
        again = tmp_path / "again"
        again.mkdir()
        assert got == run_case(name, again)


def test_two_blas_threads_give_the_one_thread_bytes(tmp_path):
    got = run_case_threads(THREADED_CASE, tmp_path, 2)
    record = recorded()
    if record is None:
        one = tmp_path / "one"
        one.mkdir()
        record = {THREADED_CASE: run_case_threads(THREADED_CASE, one, 1)}
    assert got == record[THREADED_CASE]


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("record with OPENBLAS_NUM_THREADS=1")
    names = sys.argv[1:] or list(CASES)
    record = ({"seed": 0, "platform": platform_key(), "cases": {}} if not sys.argv[1:]
              else json.loads(RECORD.read_text()))
    if record["platform"] != platform_key():
        sys.exit("golden.json was recorded on another platform; record every case")
    with tempfile.TemporaryDirectory() as tmp:
        record["cases"].update({name: run_case(name, Path(tmp)) for name in names})
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {', '.join(names)} in {RECORD}")
