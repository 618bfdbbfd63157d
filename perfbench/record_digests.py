"""Record the output digests of every workload at the default seed.

    python3 perfbench/record_digests.py

Runs each workload twice untraced and writes perfbench/digests.json,
keyed by the platform the bits were produced on.  Re-record only for a
change that alters output bits on purpose, and say why in that change.
"""

import json
import os
import shutil
import sys

from run import DIGESTS, SRC, WORK, Workload, platform_key
from workloads import WORKLOADS

DEFAULT_SEED = 0

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    digests = {}
    for name in WORKLOADS:
        w = Workload(name, DEFAULT_SEED, os.path.join(WORK, f"record-{name}"))
        w.reference = {}
        os.makedirs(w.dir)
        try:
            w.repeat()
            w.repeat()
        finally:
            shutil.rmtree(w.dir, ignore_errors=True)
        if w.failures:
            sys.exit(f"{name}: {w.failures}")
        digests[name] = w.first
    with open(DIGESTS, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "platform": platform_key(),
                   "digests": digests}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DIGESTS}")
