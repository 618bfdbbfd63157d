"""Benchmark of the `fedamp` CLI on four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each workload is a fixed list of
CLI commands (see workloads.py); each command runs in a fresh process,
one process at a time, with BLAS limited to one thread.  The workload is
repeated until --seconds have been spent, and timings are medians over
the repeats.  Set-up time is measured separately, several times, in fresh
interpreters (setup_probe.py).

Every command is one operation.  It fails on a non-zero exit, on an
output digest that differs from the recorded one (digests.json, same
seed and platform), or from the digest of the same command earlier in
the run.  With --trace 1, traced repeats (traced.py) alternate with
untraced ones; their outputs must be byte-identical to the untraced
ones and their counts must equal the counts derived from the inputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A results file with every
sample, the environment and the measurement limits is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from collections import Counter
from statistics import median
from time import perf_counter

import workloads
from workloads import BENCH_DIR, ROOT, SRC, WORK_UNIT, WORKLOADS

SETUP_REPEATS = 3
MIN_REPEATS = 2          # two runs of each command, so digests can be compared
BLAS_THREADS = 1
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
RESULTS = os.path.join(BENCH_DIR, "results")
WORK = os.path.join(BENCH_DIR, "work")

LIMITS = ("Load comes from one process at a time; timings are medians over "
          "repeats within one run. No machine-wide profiling, CPU pinning, "
          "frequency control or cache dropping is used. On the shared 2-core "
          "machine where the benchmark was defined, single paperdemo runs "
          "ranged 11-41% of the median in wall time, CPU time tracked wall "
          "time, and speed drifted by 20-40% over minutes.")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> unit; see README.md for the workload each should move
PER_LAYER_UNITS = {
    "streams.substream.calls": "count", "streams.substream.self_s": "s",
    "streams.substream.us_per_call": "us",
    "objectives.sample_block.calls": "count", "objectives.sample_block.self_s": "s",
    "objectives.stochastic_grad.calls": "count",
    "objectives.stochastic_grad.self_s": "s",
    "objectives.kernel.flops_computed": "flop",
    "objectives.kernel.bytes_computed": "B",
    "engine.run.calls": "count", "engine.run.self_s": "s",
    "engine.run.us_per_round": "us",
    "engine.run_wait_baseline.calls": "count",
    "engine.run_wait_baseline.self_s": "s",
    "engine.run_wait_baseline.us_per_round": "us",
    "engine.checkpoint_eval.calls": "count", "engine.checkpoint_eval.self_s": "s",
    "engine.rounds": "count", "engine.client_steps": "count",
    "engine.diverged_runs": "count",
    "participation.generate_schedule.calls": "count",
    "participation.generate_schedule.self_s": "s",
    "participation.generate_schedule.us_per_round.periodic": "us",
    "participation.generate_schedule.us_per_round.permutation": "us",
    "participation.generate_schedule.us_per_round.independent": "us",
    "participation.generate_schedule.us_per_round.markov": "us",
    "participation.window_averages.calls": "count",
    "participation.window_averages.self_s": "s",
    "participation.weights_bytes_computed": "B",
    "analysis.divergence_exact.calls": "count",
    "analysis.divergence_exact.self_s": "s",
    "analysis.hoeffding_check.self_s": "s",
    "analysis.chebyshev_mixing_check.self_s": "s",
    "config.build.self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "B",
    "svg.line_chart.calls": "count", "svg.line_chart.self_s": "s",
    "trace.overhead_frac": "1",
}

# counts the traced run must reproduce exactly (workloads.expected_counts)
CHECKED_COUNTS = ("engine.client_steps", "streams.substream.calls",
                  "engine.checkpoint_eval.calls", "engine.rounds",
                  "engine.run.calls", "engine.run_wait_baseline.calls",
                  "objectives.sample_block.calls",
                  "objectives.stochastic_grad.calls",
                  "participation.generate_schedule.calls",
                  "participation.schedule_rounds",
                  "participation.window_averages.calls",
                  "analysis.divergence_exact.calls", "svg.line_chart.calls")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def execute(argv: list, env: dict, log: str) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def platform_key() -> dict:
    """What the output bits may depend on besides the code and the seed."""
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version(),
            "cpu_features": sorted(k for k, v in __cpu_features__.items() if v)}


def blas_version() -> str:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version(),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu_model": cpu, "limits": LIMITS}


def reference_digests(workload: str, seed: int) -> dict:
    """Recorded digests for this seed, or {} if none apply here."""
    try:
        with open(DIGESTS) as fh:
            rec = json.load(fh)
    except OSError:
        return {}
    if rec["seed"] != seed or rec["platform"] != platform_key():
        return {}
    return rec["digests"].get(workload, {})


class Workload:
    """One workload at one seed: repeats, outputs and their checks."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name, self.seed, self.dir = name, seed, work_dir
        self.commands = WORKLOADS[name]
        self.env = child_env()
        self.reference = reference_digests(name, seed)
        self.first: dict = {}          # output key -> digest of first execution
        self.expected = workloads.expected_counts(name, seed)
        self.attempted = 0
        self.failures: dict = {}       # operation -> reasons
        self.repeats = 0

    def _fail(self, op, reason):
        self.failures.setdefault(op, []).append(reason)

    def _check_outputs(self, cmd, out, rc, op):
        self.attempted += 1
        if rc != 0:
            self._fail(op, f"exit code {rc}")
            return
        for fname in cmd.outputs:
            key = f"{cmd.name}/{fname}"
            path = os.path.join(out, fname)
            digest = sha256(path) if os.path.isfile(path) else "missing"
            first = self.first.setdefault(key, digest)
            for source, want in (("recorded", self.reference.get(key)),
                                 ("first run", first)):
                if want is not None and digest != want:
                    self._fail(op, f"{fname} digest {digest[:12]} != {source} {want[:12]}")

    def repeat(self, traced: bool = False) -> dict:
        """Run every command once; return wall, peak RSS and traced summaries."""
        self.repeats += 1
        tag = f"{'traced' if traced else 'untraced'}-{self.repeats}"
        wall, rss, summaries, out_bytes = 0.0, 0.0, {}, 0
        for cmd in self.commands:
            out = os.path.join(self.dir, tag, cmd.name)
            os.makedirs(out)
            argv = cmd.argv(self.seed, out)
            if traced:
                summary = os.path.join(self.dir, tag, f"{cmd.name}.json")
                argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), summary] + argv
            else:
                argv = [sys.executable, "-m", "fedamp.cli"] + argv
            rc, w, r = execute(argv, self.env, os.path.join(self.dir, tag, f"{cmd.name}.log"))
            wall += w
            rss = max(rss, r)
            op = f"{tag} {cmd.name}"
            self._check_outputs(cmd, out, rc, op)
            out_bytes += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            if traced and os.path.isfile(summary):
                with open(summary) as fh:
                    summaries[cmd.name] = json.load(fh)
                counts = command_counts(summaries[cmd.name])
                want = self.expected[cmd.name]
                for k in CHECKED_COUNTS:
                    if counts[k] != want[k]:
                        self._fail(op, f"traced {k} = {counts[k]}, derived {want[k]}")
                if counts["engine.diverged_runs"]:
                    self._fail(op, f"{counts['engine.diverged_runs']} run(s) diverged")
        shutil.rmtree(os.path.join(self.dir, tag))
        return {"wall_s": wall, "rss_mb": rss, "summaries": summaries,
                "output_bytes": out_bytes}

    def setup_time(self) -> float:
        """Set-up of every command, each in a fresh interpreter, summed."""
        total = 0.0
        probe = os.path.join(BENCH_DIR, "setup_probe.py")
        for cmd in self.commands:
            log = os.path.join(self.dir, "setup.log")
            rc, wall, _ = execute([sys.executable, probe, self.name, cmd.name,
                                   str(self.seed)], self.env, log)
            if rc != 0:
                with open(log) as fh:
                    raise RuntimeError(f"set-up probe for {cmd.name} failed:\n{fh.read()}")
            total += wall
        return total


def command_counts(summary: dict) -> Counter:
    """Counts one traced command made, as recorded by its spans and counters."""
    c = Counter(summary["counters"])
    for name, span in summary["spans"].items():
        c[f"{name}.calls"] = span["calls"]
    c["engine.client_steps"] = (c["objectives.sample_block.rows"]
                                + c["objectives.stochastic_grad.calls"]
                                + c["engine.wait_full_grads"])
    return c


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repeat of the workload."""
    counts, self_s = Counter(), Counter()
    for summary in rep["summaries"].values():
        counts += command_counts(summary)
        for name, span in summary["spans"].items():
            self_s[f"{name}.self_s"] += span["self_s"]

    def per(num, den):
        return 1e6 * num / den if den else 0.0

    m = {k: float(counts[k]) for k in PER_LAYER_UNITS}
    m.update({k: self_s[k] for k in PER_LAYER_UNITS if k.endswith(".self_s")})
    m["cli.output_bytes"] = float(rep["output_bytes"])
    m["streams.substream.us_per_call"] = per(self_s["streams.substream.self_s"],
                                             counts["streams.substream.calls"])
    m["engine.run.us_per_round"] = per(self_s["engine.run.self_s"],
                                       counts["engine.generalized_rounds"])
    m["engine.run_wait_baseline.us_per_round"] = per(
        self_s["engine.run_wait_baseline.self_s"], counts["engine.wait_rounds"])
    for kind in ("periodic", "permutation", "independent", "markov"):
        m[f"participation.generate_schedule.us_per_round.{kind}"] = per(
            counts[f"participation.generate_schedule.self_s.{kind}"],
            counts[f"participation.schedule_rounds.{kind}"])
    return m


def measure(args) -> dict:
    w = Workload(args.workload, args.seed, os.path.join(WORK, f"{args.workload}-{os.getpid()}"))
    os.makedirs(w.dir)
    try:
        work = sum(c[WORK_UNIT[args.workload]] for c in w.expected.values())
        t_setup = perf_counter()
        setups = [w.setup_time() for _ in range(SETUP_REPEATS)]
        setup_wall = perf_counter() - t_setup

        untraced, traced = [], []
        start = perf_counter()
        while True:
            untraced.append(w.repeat())
            if args.trace:
                traced.append(w.repeat(traced=True))
            # stop when the next cycle would end past the window by more
            # than half a cycle, so the window is used in full on average
            per_cycle = (perf_counter() - start) / len(untraced)
            if (len(untraced) >= MIN_REPEATS
                    and perf_counter() + per_cycle / 2 > start + args.seconds):
                break
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(w.dir, ignore_errors=True)

    walls = [r["wall_s"] for r in untraced]
    wall_s, setup_s = median(walls), median(setups)
    e2e = {"wall_s": wall_s, "setup_s": setup_s,
           "work_per_s": work / (wall_s - setup_s),
           "peak_rss_mb": median([r["rss_mb"] for r in untraced])}
    samples = {"wall_s": walls, "setup_s": setups,
               "work_per_s": [work / (x - setup_s) for x in walls],
               "peak_rss_mb": [r["rss_mb"] for r in untraced]}

    layers, layer_samples = {}, {}
    if args.trace:
        per_rep = [layer_metrics(rep) for rep in traced]
        tw = median([r["wall_s"] for r in traced])
        for k in PER_LAYER_UNITS:
            if k != "trace.overhead_frac":
                layer_samples[k] = [m[k] for m in per_rep]
                layers[k] = median(layer_samples[k])
        layers["trace.overhead_frac"] = tw / wall_s - 1.0
        layer_samples["trace.overhead_frac"] = [r["wall_s"] / wall_s - 1.0 for r in traced]

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "measured_s": measured_s,
            "setup_measured_s": setup_wall,
            "work_unit": WORK_UNIT[args.workload], "work": work,
            "expected_counts": {k: dict(v) for k, v in w.expected.items()},
            "attempted": w.attempted, "failed": len(w.failures),
            "failures": w.failures, "digests": w.first,
            "reference_digests": bool(w.reference),
            "end_to_end": e2e, "end_to_end_samples": samples,
            "per_layer": layers, "per_layer_samples": layer_samples,
            "environment": environment()}


def report(res: dict) -> dict:
    """Print every metric by name with unit and sample count; return the JSON line."""
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"work = {res['work']} {res['work_unit']}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed; "
          f"reference digests {'checked' if res['reference_digests'] else 'not recorded for this seed/platform'}")
    for op, reasons in res["failures"].items():
        print(f"  FAILED {op}: {'; '.join(reasons)}")
    if res["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in res["per_layer"].items()}
        samples = res["per_layer_samples"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in res["end_to_end"].items()}
        samples = res["end_to_end_samples"]
    for k, m in metrics.items():
        xs = samples[k]
        print(f"  {k} = {m['value']:.6g} {m['unit']}  (median of {len(xs)}, "
              f"min {min(xs):.6g}, max {max(xs):.6g})")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "fedamp", "cli.py")):
        print(f"error: no fedamp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind so the running child is killed and work/ removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    res = measure(args)
    line = report(res)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
