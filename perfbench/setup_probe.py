"""Set-up of one workload command in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <command> <seed>

Imports the package and builds what the command builds before its first
round.  The caller times the whole process, interpreter start included,
just as it times the command itself.
"""

import sys

import workloads

if __name__ == "__main__":
    import fedamp.cli  # noqa: F401  (the CLI's imports are part of set-up)
    workloads.setup(sys.argv[1], sys.argv[2], int(sys.argv[3]))
