"""Run one `fedamp` CLI command with spans around the calls into each module.

    python3 perfbench/traced.py <summary.json> <cli arguments...>

The package binds names with `from .x import y`, so each wrapper is
installed where the name is looked up (e.g. `fedamp.engine.substream`,
not `fedamp.streams.substream`).  Wrappers only read the clock and count;
they draw no random numbers, so outputs are byte-identical to an
untraced run.  Spans (name, parent, start, end, self time) are kept in
memory and written at exit next to the summary, as `<summary>.spans.npy`.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import fedamp.analysis
import fedamp.cli
import fedamp.config
import fedamp.engine
import fedamp.participation
from fedamp.objectives import LogisticPopulation, NoiseModel, QuadraticPopulation

# (module, name looked up there, span name)
SPANS = [
    (fedamp.engine, "substream", "streams.substream"),
    (fedamp.participation, "substream", "streams.substream"),
    (fedamp.config, "substream", "streams.substream"),
    (fedamp.analysis, "substream", "streams.substream"),
    (fedamp.engine, "checkpoint_eval", "engine.checkpoint_eval"),
    (fedamp.engine, "run_wait_baseline", "engine.run_wait_baseline"),
    (fedamp.cli, "run", "engine.run"),
    (fedamp.cli, "generate_schedule", "participation.generate_schedule"),
    (fedamp.config, "generate_schedule", "participation.generate_schedule"),
    (fedamp.analysis, "generate_schedule", "participation.generate_schedule"),
    (fedamp.analysis, "window_averages", "participation.window_averages"),
    (fedamp.cli, "divergence_exact", "analysis.divergence_exact"),
    (fedamp.cli, "hoeffding_check", "analysis.hoeffding_check"),
    (fedamp.cli, "chebyshev_mixing_check", "analysis.chebyshev_mixing_check"),
    (fedamp.cli, "line_chart", "svg.line_chart"),
] + [(fedamp.cli, name, "config.build")
     for name in ("load_config", "build_population", "build_noise",
                  "build_pattern", "build_x0", "resolve_plan",
                  "build_run_config", "build_schedule")]

METHODS = [
    (QuadraticPopulation, "stochastic_grad", "objectives.stochastic_grad"),
    (LogisticPopulation, "stochastic_grad", "objectives.stochastic_grad"),
    (NoiseModel, "sample_block", "objectives.sample_block"),
]


class Tracer:
    """In-memory span store; self time is span time minus child spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.stack: list[list] = []       # [span index, child time] of open spans
        self.counters: Counter = Counter()

    def innermost(self) -> str | None:
        return self.names[self.name_id[self.stack[-1][0]]] if self.stack else None

    def wrap(self, name, fn, on_exit=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1][0] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_time[idx] = (t1 - t0) - frame[1]
                if self.stack:
                    self.stack[-1][1] += t1 - t0
            if on_exit is not None:
                on_exit(self.counters, args, kwargs, result, self.self_time[idx])
            return result
        return wrapper

    def spans(self) -> np.ndarray:
        out = np.empty(len(self.start), dtype=[("name", "i4"), ("parent", "i4"),
                                               ("start", "f8"), ("end", "f8"),
                                               ("self", "f8")])
        out["name"] = np.frombuffer(self.name_id, dtype=np.int32)
        out["parent"] = np.frombuffer(self.parent, dtype=np.int32)
        out["start"] = np.frombuffer(self.start, dtype=np.float64)
        out["end"] = np.frombuffer(self.end, dtype=np.float64)
        out["self"] = np.frombuffer(self.self_time, dtype=np.float64)
        return out

    def summary(self) -> dict:
        s = self.spans()
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=s["self"], minlength=k)
        total_s = np.bincount(s["name"], weights=s["end"] - s["start"], minlength=k)
        return {"spans": {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                              "total_s": float(total_s[i])}
                          for i, n in enumerate(self.names)},
                "counters": dict(self.counters)}


# -- counters recorded at the span boundaries --------------------------------
# Kernel flops and bytes are computed from array sizes, not measured: flops
# count the arithmetic of the local-step expressions (random draws
# excluded); bytes are 8 per array element the expressions read or write.

def _on_sample_block(c, args, kwargs, result, self_s):
    steps, m = result.shape      # diagonal kernel: 5 flops, 14 elements per coordinate
    c["objectives.sample_block.rows"] += steps
    c["objectives.kernel.flops_computed"] += 5 * m * steps
    c["objectives.kernel.bytes_computed"] += 8 * 14 * m * steps


def _on_stochastic_grad(c, args, kwargs, result, self_s):
    pop = args[0]
    m = pop.m
    batch = kwargs.get("batch", args[5] if len(args) > 5 else None)
    if isinstance(pop, LogisticPopulation):
        b = min(batch or pop.samples_per_client, pop.samples_per_client)
        flops, elems = 4 * b * m + 3 * b + 5 * m, 4 * b * m + 8 * b + 13 * m
    elif pop.diag is None:
        flops, elems = 2 * m * m + 4 * m, m * m + 13 * m
    else:
        flops, elems = 5 * m, 14 * m
    c["objectives.kernel.flops_computed"] += flops
    c["objectives.kernel.bytes_computed"] += 8 * elems


def _rounds_done(cfg, trace) -> int:
    if trace.diverged and trace.diverged_round is not None:
        return min(trace.diverged_round + 1, cfg.rounds)
    return cfg.rounds


def _on_run(c, args, kwargs, trace, self_s):
    cfg = args[3]
    c["engine.rounds"] += _rounds_done(cfg, trace)
    c["engine.diverged_runs"] += int(trace.diverged)
    if cfg.mode == "generalized":
        c["engine.generalized_rounds"] += _rounds_done(cfg, trace)


def _on_wait(c, args, kwargs, trace, self_s):
    c["engine.wait_rounds"] += _rounds_done(args[3], trace)


def _on_schedule(c, args, kwargs, sched, self_s):
    spec, T = args[0], args[2]
    c[f"participation.schedule_rounds.{spec.kind}"] += T
    c[f"participation.generate_schedule.self_s.{spec.kind}"] += self_s
    c["participation.schedule_rounds"] += T
    c["participation.weights_bytes_computed"] += sched.weights.nbytes


HOOKS = {"objectives.sample_block": _on_sample_block,
         "objectives.stochastic_grad": _on_stochastic_grad,
         "engine.run": _on_run,
         "engine.run_wait_baseline": _on_wait,
         "participation.generate_schedule": _on_schedule}


def install(tracer: Tracer):
    for module, attr, name in SPANS:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), HOOKS.get(name)))
    for cls, attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), HOOKS.get(name)))
    # wait_full takes exact gradients directly inside run_wait_baseline;
    # count them as client steps without a span of their own
    for cls in (QuadraticPopulation, LogisticPopulation):
        grad = cls.grad

        def counted(self, n, x, _grad=grad):
            if tracer.innermost() == "engine.run_wait_baseline":
                tracer.counters["engine.wait_full_grads"] += 1
            return _grad(self, n, x)
        cls.grad = counted


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli", fedamp.cli.main)(cli_args)
    finally:
        np.save(summary_path + ".spans.npy", tracer.spans())
        summary = tracer.summary()
        summary["names"] = tracer.names
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
