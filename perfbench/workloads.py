"""The benchmark's workloads: CLI commands, set-up steps and derived counts.

Each workload is a fixed list of `fedamp` CLI commands.  The benchmark
seed is passed to every command as `--seed`; nothing else varies with it.
The expected work of a workload (client steps, substreams, checkpoints,
schedule rounds) is derived here by regenerating its inputs with the
library, independently of any traced run, so that traced counts can be
checked against it exactly.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(BENCH_DIR, "configs")


@dataclass(frozen=True)
class Command:
    name: str               # unique within its workload
    sub: str                # CLI subcommand
    config: str | None      # file under configs/, None for paperdemo
    outputs: tuple          # CSV files whose digests are checked

    def argv(self, seed: int, out: str) -> list:
        args = [self.sub, "--seed", str(seed), "--out", out]
        if self.config is not None:
            args += ["--config", os.path.join(CONFIGS, self.config)]
        return args


WORKLOADS = {
    "paperdemo": (
        Command("paperdemo", "paperdemo", None, ("paperdemo.csv",)),),
    "scalar_paths": (
        Command("rotated_sweep", "sweep", "rotated_sweep.ini", ("sweep.csv",)),
        Command("logistic_ckpt", "run", "logistic_ckpt.ini", ("metrics.csv",))),
    "concentration": (
        Command("hoeffding", "bounds", "bounds_hoeffding.ini", ("bounds.csv",)),
        Command("chebyshev", "bounds", "bounds_chebyshev.ini", ("bounds.csv",)),
        Command("diagnose", "diagnose", "diagnose.ini", ("divergence.csv",))),
}

# the unit of work behind work_per_s
WORK_UNIT = {"paperdemo": "engine.client_steps",
             "scalar_paths": "engine.client_steps",
             "concentration": "participation.schedule_rounds"}


def _load(name):
    from fedamp.config import load_config
    return load_config(os.path.join(CONFIGS, name))


# -- set-up: what a command builds before its first round --------------------

def setup(workload: str, command: str, seed: int):
    """Build what `command` builds before its first round or check.

    Runs in a fresh interpreter (see setup_probe.py).  The concentration
    commands build no schedule here: generating and analysing schedules
    is that workload's measured work.
    """
    import numpy as np
    from fedamp import cli, config
    from fedamp.analysis import plan_rates_adaptive
    from fedamp.engine import RunConfig
    from fedamp.objectives import NoiseModel, build_quadratic
    from fedamp.participation import PatternSpec, generate_schedule
    from fedamp.streams import derive_seed

    built = []
    if command == "paperdemo":
        d = cli.DEMO
        P = d["G"] * d["B"]
        for k in range(d["seeds"]):
            pop = build_quadratic(d["N"], d["m"], d["L"], spread=d["spread"],
                                  seed=d["pop_seed"],
                                  eigenvalues=np.linspace(0.25, 1.0, d["m"]),
                                  rotate=False)
            x0 = pop.x_star + d["x0_norm"] * np.full(d["m"], 1.0 / np.sqrt(d["m"]))
            s = derive_seed(seed, f"rep{k}")
            spec = PatternSpec("periodic", S=d["S"], G=d["G"], B=d["B"])
            sched = generate_schedule(spec, d["N"], d["T"], derive_seed(s, "schedule"))
            plan = plan_rates_adaptive(d["L"], pop.global_value(x0) - pop.f_star,
                                       d["sigma"], 1.0 / np.sqrt(d["S"]),
                                       d["I"], P, d["T"])
            built += [sched, NoiseModel("gaussian", d["sigma"])]
            built += [RunConfig(gamma=plan.gamma, eta=eta, mode=mode,
                                local_steps=d["I"], amplify_every=P,
                                rounds=d["T"], x0=x0)
                      for eta, mode in ((plan.eta, "generalized"),
                                        (1.0, "generalized"),
                                        (1.0, "wait_minibatch"),
                                        (1.0, "wait_full"))]
        return built

    cmd = {c.name: c for c in WORKLOADS[workload]}[command]
    cfg = _load(cmd.config)
    if cmd.sub == "bounds":
        return [cfg, config.build_pattern(cfg)]
    pop = config.build_population(cfg)
    built += [pop, config.build_noise(cfg)]
    if cmd.sub == "diagnose":
        return built
    reps = cfg.get("seeds", "replications")
    points = cfg.get("sweep", "values") if cmd.sub == "sweep" else [cfg.get("run", "T")]
    for T in points:
        for rep in range(reps):
            rep_seed = derive_seed(seed, f"rep{rep}")
            sched = config.build_schedule(cfg, pop.N, T, rep_seed)
            built += [sched, config.build_run_config(cfg, pop, sched, rep_seed, T=T)]
    return built


# -- derived counts ----------------------------------------------------------

def _checkpoints(T: int, step: int) -> int:
    return len(set(range(0, T + 1, step)) | {T})


def _run_counts(weights, I, P, T, mode, step, kernel) -> Counter:
    """Counts one engine run makes, from its schedule (no divergence).

    A generalized run takes I local steps and one substream per nonzero
    q_t^n; the diagonal kernel draws one noise block per participant, the
    scalar kernel calls stochastic_grad once per step.  A wait arm looks
    at each complete P-round window: wait_minibatch takes one stochastic
    gradient (and substream) per appearance, wait_full one exact gradient
    per appearing client.
    """
    nz = weights[:T] != 0
    c = Counter({"engine.run.calls": 1, "engine.rounds": T,
                 "engine.checkpoint_eval.calls": _checkpoints(T, step)})
    if mode == "generalized":
        nnz = int(nz.sum())
        c["engine.client_steps"] += I * nnz
        c["streams.substream.calls"] += nnz
        if kernel == "diag":
            c["objectives.sample_block.calls"] += nnz
        else:
            c["objectives.stochastic_grad.calls"] += I * nnz
        return c
    c["engine.run_wait_baseline.calls"] += 1
    windows = nz[:(T // P) * P].reshape(T // P, P, -1)
    if mode == "wait_minibatch":
        appearances = int(windows.sum())
        c["engine.client_steps"] += appearances
        c["streams.substream.calls"] += appearances
        c["objectives.stochastic_grad.calls"] += appearances
    else:
        c["engine.client_steps"] += int(windows.any(axis=1).sum())
    return c


def _schedule_counts(rounds: int) -> Counter:
    return Counter({"participation.generate_schedule.calls": 1,
                    "participation.schedule_rounds": rounds,
                    "streams.substream.calls": 1})


def expected_counts(workload: str, seed: int) -> dict:
    """Exact counts each command of the workload makes at `seed`.

    Derived from inputs regenerated with the library: per-round nnz of
    every schedule, wait-window appearances, and one substream per
    schedule.  Returns {command name: Counter}.
    """
    from fedamp import cli
    from fedamp.participation import PatternSpec, generate_schedule
    from fedamp.streams import derive_seed

    if workload == "paperdemo":
        d = cli.DEMO
        P = d["G"] * d["B"]
        spec = PatternSpec("periodic", S=d["S"], G=d["G"], B=d["B"])
        c = Counter({"svg.line_chart.calls": 1})
        for k in range(d["seeds"]):
            s = derive_seed(seed, f"rep{k}")
            w = generate_schedule(spec, d["N"], d["T"], derive_seed(s, "schedule")).weights
            c += _schedule_counts(d["T"])
            for mode in ("generalized", "generalized", "wait_minibatch", "wait_full"):
                c += _run_counts(w, d["I"], P, d["T"], mode, P, "diag")
        return {"paperdemo": c}

    if workload == "concentration":
        hoef = _load("bounds_hoeffding.ini")
        P, trials = hoef.get("bounds", "P"), hoef.get("bounds", "trials")
        chunk = max(1, min(trials, 131072 // P))   # hoeffding_check's batching
        h = Counter()
        for done in range(0, trials, chunk):
            h += _schedule_counts(min(chunk, trials - done) * P)
            h["participation.window_averages.calls"] += 1
        cheb = _load("bounds_chebyshev.ini")
        P_list = cheb.get("bounds", "P_list")
        c = _schedule_counts(max(P_list) * cheb.get("bounds", "mixing_trials"))
        c["participation.window_averages.calls"] += 1 + len(P_list)
        diag = _load("diagnose.ini")
        g = _schedule_counts(diag.get("run", "T"))
        g["analysis.divergence_exact.calls"] += len(diag.get("diagnose", "P_list"))
        return {"hoeffding": h, "chebyshev": c, "diagnose": g}

    return {cmd.name: _config_run_counts(cmd, seed) for cmd in WORKLOADS[workload]}


def _config_run_counts(cmd: Command, seed: int) -> Counter:
    """Counts of one `run` or `sweep` command, from its config."""
    from fedamp.config import build_pattern
    from fedamp.participation import generate_schedule
    from fedamp.streams import derive_seed

    cfg = _load(cmd.config)
    spec = build_pattern(cfg)
    N, I = cfg.get("population", "N"), cfg.get("run", "I")
    P, ev = cfg.get("run", "P"), cfg.get("run", "eval_every")
    points = cfg.get("sweep", "values") if cmd.sub == "sweep" else [cfg.get("run", "T")]
    c = Counter()
    for T in points:
        if ev > 0:
            step = ev
        elif cmd.sub == "sweep":   # sweep keeps ~64 checkpoints per run
            step = max(P, (T // 64) // P * P)
        else:
            step = P
        for rep in range(cfg.get("seeds", "replications")):
            rep_seed = derive_seed(seed, f"rep{rep}")
            w = generate_schedule(spec, N, T, derive_seed(rep_seed, "schedule")).weights
            c += _schedule_counts(T)
            c += _run_counts(w, I, P, T, "generalized", step, "scalar")
    return c
