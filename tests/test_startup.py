"""Start-up cost: the CLI loads scipy only when a logistic population is built.

scipy takes ~0.2 s to import and only `LogisticPopulation` uses it, so a
quadratic-only command must never pay for it.  Each check runs in a fresh
interpreter, because this test process has imported scipy long since.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """\
import json, sys

def loaded():
    return {m: m in sys.modules for m in ("scipy", "scipy.special", "numpy.random")}

seen = {}
import fedamp.cli
seen["import"] = loaded()
codes = [fedamp.cli.main(["bounds", "--config", sys.argv[1], "--out", sys.argv[2] + "/b",
                          "--set", "pattern.kind=independent",
                          "--set", "bounds.trials=200"]),
         fedamp.cli.main(["diagnose", "--config", sys.argv[1],
                          "--out", sys.argv[2] + "/d"])]
seen["quadratic_commands"] = loaded()
seen["codes"] = codes
fedamp.build_logistic(N=3, m=2, samples_per_client=4, seed=0)
seen["logistic"] = loaded()
print(json.dumps(seen))
"""

CFG = """\
[population]
N = 8
m = 4

[pattern]
kind = permutation
S = 2

[run]
P = 4
T = 64
"""


def test_scipy_is_loaded_only_by_a_logistic_population(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, str(cfg), str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    # every command draws from numpy.random, so the package loads it up front
    assert seen["import"] == {"scipy": False, "scipy.special": False,
                              "numpy.random": True}
    assert seen["codes"] == [0, 0]
    assert not seen["quadratic_commands"]["scipy"]
    assert seen["logistic"]["scipy.special"]
