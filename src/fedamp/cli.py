"""Command line front end.

Subcommands: run, sweep, diagnose, bounds, plot, paperdemo.  Exit codes:
0 success, 1 configuration or usage error, 2 numerical failure
(divergence, failed bound check, or ordering assertion).

Seed discipline: the master seed (--seed or [seeds] master) is split
into named child seeds with sha256 labeled derivation; the rule is
echoed in meta.txt so any run can be reproduced from that file alone.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from .analysis import (ball_samples, chebyshev_mixing_check, divergence_at_offsets,
                       divergence_exact, fit_convergence_slope,
                       hoeffding_check, plan_rates_adaptive, sample_offsets)
# build_x0 and resolve_plan stay importable here: perfbench/traced.py wraps them
from .config import (ConfigError, ExperimentConfig, build_noise, build_pattern,
                     build_population, build_run_config, build_schedule,
                     build_x0, load_config, resolve_plan)  # noqa: F401
from .engine import RunConfig, run
from .objectives import NoiseModel, build_quadratic
from .participation import PatternSpec, generate_schedule
from .streams import derive_seed
from .svg import ChartError, line_chart

SEED_RULE = ("seed derivation: child = sha256('{master}:{label}')[:8] as 63-bit int; "
             "labels: rep{k} per replication, then 'schedule'/'run' per replication, "
             "'hoeffding-{chunk}' and 'mixing' for Monte Carlo checks, "
             "'points' for diagnose sample points")
METRICS_HEADER = ["run", "seed", "t", "f", "grad_norm_sq", "min_grad_norm_sq",
                  "is_boundary"]


def _q17(v: float) -> str:
    return f"{float(v):.17g}"


def _out_path(out, name) -> str:
    """Path of output file `name`; the directory is made with the first file,
    so a command that fails on its inputs leaves no empty directory."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_meta(out_dir, cfg: ExperimentConfig | None, master: int, extra=()):
    with open(_out_path(out_dir, "meta.txt"), "w") as fh:
        fh.write(f"fedamp {__version__}\n")
        fh.write(f"master_seed = {master}\n")
        fh.write(SEED_RULE + "\n")
        for line in extra:
            fh.write(line + "\n")
        if cfg is not None:
            fh.write("\n# resolved configuration\n")
            fh.write(cfg.serialize())


def _write_csv(out, name, header, rows):
    with open(_out_path(out, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _open(args):
    """Every command's prologue: (config or None, master seed, output dir)."""
    cfg = None
    if getattr(args, "config", None):
        cfg = load_config(args.config, args.set or ())
    master = args.seed if args.seed is not None else (
        cfg.get("seeds", "master") if cfg is not None else 0)
    out = args.out or (cfg.get("output", "dir") if cfg is not None else "out")
    return cfg, master, out


def _replicate(cfg, pop, noise, master, rep):
    """Replication `rep` of the configured run: (rep_seed, schedule, rc, trace)."""
    rep_seed = derive_seed(master, f"rep{rep}")
    sched = build_schedule(cfg, pop.N, cfg.get("run", "T"), rep_seed)
    rc = build_run_config(cfg, pop, sched, rep_seed)
    return rep_seed, sched, rc, run(pop, noise, sched, rc, derive_seed(rep_seed, "run"))


def cmd_run(args) -> int:
    cfg, master, out = _open(args)
    pop = build_population(cfg)
    noise = build_noise(cfg)

    rows, plans = [], []
    diverged_at = None
    for rep in range(cfg.get("seeds", "replications")):
        rep_seed, sched, rc, trace = _replicate(cfg, pop, noise, master, rep)
        plans.append(f"rep{rep}: gamma={_q17(rc.gamma)} eta={_q17(rc.eta)} "
                     f"fallback_rounds={sched.fallback_rounds}")
        rows += [[rep, rep_seed, int(t), _q17(f), _q17(g2), _q17(m2), int(b)]
                 for t, f, g2, m2, b in zip(trace.t, trace.f, trace.grad_norm_sq,
                                            trace.min_grad_norm_sq, trace.is_boundary)]
        if trace.diverged and diverged_at is None:
            diverged_at = (rep, trace.diverged_round)

    _write_csv(out, "metrics.csv", METRICS_HEADER, rows)
    _write_meta(out, cfg, master, plans)
    if diverged_at is not None:
        print(f"error: run {diverged_at[0]} diverged at round {diverged_at[1]}",
              file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} metric rows to {out}/metrics.csv")
    return 0


def _sweep_point(cfg, axis, value) -> ExperimentConfig:
    """The config of one sweep point: T, P, S and eval_every resolved."""
    T = cfg.get("run", "T")
    P = cfg.get("run", "P")
    S = cfg.get("pattern", "S")
    if axis == "T":
        T = value
    elif axis == "P":
        P = value
    else:  # S
        if cfg.get("sweep", "st_fixed"):
            if value <= 0 or (S * T) % value != 0:
                raise ConfigError(f"S*T={S * T} not divisible by swept S={value}")
            T = S * T // value
        S = value
        N = cfg.get("population", "N")
        if cfg.get("pattern", "kind") == "permutation":
            if S <= 0 or N % S != 0:
                raise ConfigError(f"permutation sweep needs S | N, got S={S}")
            P = N // S
    ev = cfg.get("run", "eval_every")
    if ev <= 0 < P:
        # keep the checkpoint count comparable across sweep points
        ev = max(P, (T // 64) // P * P)
    return ExperimentConfig({**cfg.values, ("run", "T"): T, ("run", "P"): P,
                             ("pattern", "S"): S, ("run", "eval_every"): ev})


def cmd_sweep(args) -> int:
    cfg, master, out = _open(args)
    axis = cfg.get("sweep", "axis")
    values = cfg.get("sweep", "values")
    build_pattern(cfg)    # a missing kind fails here, not per run
    pop = build_population(cfg)
    noise = build_noise(cfg)

    rows = []
    diverged = False
    for value in values:
        point = _sweep_point(cfg, axis, value)
        finals, failed = [], 0
        for rep in range(cfg.get("seeds", "replications")):
            try:
                trace = _replicate(point, pop, noise, master, rep)[3]
            except ValueError as exc:
                print(f"point {axis}={value} rep {rep} failed: {exc}",
                      file=sys.stderr)
                failed += 1
                continue
            if trace.diverged:
                failed += 1
                diverged = True
            else:
                finals.append(trace.final_min_grad_norm_sq)
        stats = ([_q17(fn(finals)) for fn in (np.mean, np.std, np.median)]
                 if finals else ["nan"] * 3)
        rows.append([axis, value, point.get("run", "T"), point.get("run", "P"),
                     point.get("pattern", "S"), len(finals), failed, *stats])

    if not any(r[5] for r in rows) and not diverged:
        # every run was rejected as input (e.g. T = 0): a configuration
        # error, so nothing is written
        print("error: every sweep point failed", file=sys.stderr)
        return 1
    _write_csv(out, "sweep.csv",
               ["axis", "value", "T", "P", "S", "runs", "failed",
                "min_grad_norm_sq_mean", "min_grad_norm_sq_std",
                "min_grad_norm_sq_median"], rows)
    extra = []
    # the fit needs three points with a positive median, at two T or more
    good = [(r[1], float(r[9])) for r in rows if r[5] > 0 and float(r[9]) > 0]
    if axis == "T" and len(good) >= 3 and len({T for T, _ in good}) > 1:
        fit = fit_convergence_slope(*zip(*good))
        extra.append(f"slope_fit = {_q17(fit.slope)} +- {_q17(fit.stderr)}")
        print(f"fitted log-log slope: {fit.slope:.4f}")
    _write_meta(out, cfg, master, extra)
    if not any(r[5] for r in rows):
        print("error: every sweep point failed", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} aggregate rows to {out}/sweep.csv")
    return 0


def cmd_diagnose(args) -> int:
    cfg, master, out = _open(args)
    T = cfg.get("run", "T")
    P_list = cfg.get("diagnose", "P_list")
    for P in P_list:    # before the population, schedule or any report is built
        if P < 1 or P > T:
            raise ConfigError(f"diagnose P={P} outside [1, T={T}]")
    pop = build_population(cfg)
    sched = build_schedule(cfg, pop.N, T, derive_seed(master, "rep0"))
    points = cfg.get("diagnose", "points")
    if points > 0:
        center = getattr(pop, "x_star", None)
        pts = ball_samples(np.zeros(pop.m) if center is None else center,
                           cfg.get("run", "x0_scale"), points,
                           derive_seed(master, "points"))
        offsets = sample_offsets(pop, pts)    # the offsets do not depend on P

    rows = []
    for P in P_list:
        if points > 0:
            rep = divergence_at_offsets(offsets, sched, P)
        else:
            try:
                rep = divergence_exact(pop, sched, P)
            except TypeError as exc:
                raise ConfigError(str(exc)) from exc
        try:
            rep.validate()
        except ValueError as exc:    # non-finite or inconsistent constants
            print(f"error: P={P}: {exc}", file=sys.stderr)
            return 2
        rows.append([P, _q17(rep.beta2), _q17(rep.nu2), _q17(rep.delta2),
                     _q17(rep.d2), int(rep.exact)])

    _write_csv(out, "divergence.csv", ["P", "beta2", "nu2", "delta2", "d2", "exact"],
               rows)
    _write_meta(out, cfg, master)
    print(f"wrote {len(rows)} divergence rows to {out}/divergence.csv")
    return 0


def cmd_bounds(args) -> int:
    cfg, master, out = _open(args)
    pat = build_pattern(cfg)
    which = cfg.values.get(("bounds", "check"),
                           "chebyshev" if pat.kind == "markov" else "hoeffding")
    N = cfg.get("population", "N")

    extra = []
    try:
        if which == "hoeffding":
            checks = [hoeffding_check(pat, N, cfg.get("bounds", "P"),
                                      cfg.get("bounds", "c"),
                                      cfg.get("bounds", "trials"),
                                      derive_seed(master, "hoeffding"))]
        else:
            rep = chebyshev_mixing_check(pat, N, cfg.get("bounds", "P_list"),
                                         cfg.get("bounds", "mixing_trials"),
                                         derive_seed(master, "mixing"),
                                         c=cfg.get("bounds", "chebyshev_c"),
                                         max_lag=cfg.get("bounds", "max_lag"))
            checks = rep.chebyshev
            # one distinct P has no slope; sweep omits slope_fit likewise
            extra = ([] if np.isnan(rep.slope)
                     else [f"variance_slope = {_q17(rep.slope)}"])
            extra += [f"cov_ratio = {_q17(rep.cov_ratio)}",
                      f"long_run_variance = {_q17(rep.upsilon_hat2)}"]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    _write_csv(out, "bounds.csv",
               ["bound", "P", "c", "threshold", "trials", "violation_rate", "pass"],
               [[bc.bound, bc.P, _q17(bc.c), _q17(bc.threshold), bc.trials,
                 _q17(bc.violation_rate), int(bc.passed)] for bc in checks])
    _write_meta(out, cfg, master, extra)
    bad = [bc for bc in checks if not bc.passed]
    if bad:
        print(f"error: {len(bad)} bound check(s) failed", file=sys.stderr)
        return 2
    print(f"wrote {len(checks)} bound checks to {out}/bounds.csv")
    return 0


def _read_metrics(path):
    """Parse a metrics.csv into {run id: (t, grad_norm_sq)} series."""
    series = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ChartError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ChartError(f"{path}: unexpected header {header}")
        for i, row in enumerate(reader, start=2):
            try:
                rid, t, g2 = row[0], int(row[2]), float(row[4])
            except (IndexError, ValueError) as exc:
                raise ChartError(f"{path} row {i}: {exc}") from exc
            series.setdefault(rid, ([], []))
            series[rid][0].append(t)
            series[rid][1].append(g2)
    if not series:
        raise ChartError(f"{path}: no data rows")
    return series


def cmd_plot(args) -> int:
    cfg, _, out = _open(args)
    paths = list(args.inputs)
    if not paths and cfg is not None:
        paths = [os.path.join(cfg.get("output", "dir"), "metrics.csv")]
    if not paths:
        raise ChartError("no input CSVs given")
    series = []
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        for rid, (ts, g2s) in sorted(_read_metrics(path).items()):
            label = f"{stem}:{rid}" if len(paths) > 1 else f"run {rid}"
            series.append((label, ts, g2s))
    svg = line_chart(series, title="gradient norm squared over rounds",
                     x_label="round", y_label="||grad f||^2")
    target = _out_path(out, "metrics.svg")
    with open(target, "w") as fh:
        fh.write(svg)
    print(f"wrote {target} with {len(series)} series")
    return 0


# fixed desk-scale comparison protocol; see cmd_paperdemo
DEMO = dict(N=50, m=32, L=1.0, G=5, B=20, S=5, I=5, T=2000, sigma=1.0,
            spread=1.0, pop_seed=7, seeds=5, x0_norm=5.477225575051661)


def paperdemo_arms(master: int, seed_index: int, P: int | None = None):
    """One seed's four-arm comparison; returns (finals, traces), two dicts
    keyed by arm: the final min ||grad f||^2 and the trace of each arm."""
    d = DEMO
    P = P if P is not None else d["G"] * d["B"]
    lam = np.linspace(0.25, 1.0, d["m"])
    pop = build_quadratic(d["N"], d["m"], d["L"], spread=d["spread"],
                          seed=d["pop_seed"], eigenvalues=lam, rotate=False)
    x0 = pop.x_star + d["x0_norm"] * np.full(d["m"], 1.0 / np.sqrt(d["m"]))
    gap = pop.global_value(x0) - pop.f_star
    noise = NoiseModel("gaussian", d["sigma"])
    rho = 1.0 / np.sqrt(d["S"])
    seed = derive_seed(master, f"rep{seed_index}")
    spec = PatternSpec("periodic", S=d["S"], G=d["G"], B=d["B"], offset="random")
    sched = generate_schedule(spec, d["N"], d["T"], derive_seed(seed, "schedule"))

    plan = plan_rates_adaptive(d["L"], gap, d["sigma"], rho, d["I"], P, d["T"])
    # wait arms: one global step per P-round window, planned as a run with
    # T/P rounds, no amplification, and noise averaged over appearances
    gamma_wait = 1.0 / (12.0 * d["L"] * d["I"] * np.sqrt(d["T"] / P))
    arms = [("amplified", plan.gamma, plan.eta, "generalized", "amp"),
            ("no_amplification", plan.gamma, 1.0, "generalized", "amp"),
            ("wait_minibatch", gamma_wait, 1.0, "wait_minibatch", "wait"),
            ("wait_full", gamma_wait, 1.0, "wait_full", "wait")]
    traces = {arm: run(pop, noise, sched,
                       RunConfig(gamma=gamma, eta=eta, mode=mode, local_steps=d["I"],
                                 amplify_every=P, rounds=d["T"], x0=x0),
                       derive_seed(seed, label))
              for arm, gamma, eta, mode, label in arms}
    return {arm: tr.final_min_grad_norm_sq for arm, tr in traces.items()}, traces


def cmd_paperdemo(args) -> int:
    _, master, out = _open(args)
    d = DEMO

    rows = []
    ordered = 0
    rankings = []
    svg_series = []
    for k in range(d["seeds"]):
        arms, traces = paperdemo_arms(master, k)
        waits = (arms["wait_minibatch"], arms["wait_full"])
        ok = (arms["amplified"] < min(waits)
              and max(waits) < arms["no_amplification"])
        ordered += ok
        rankings.append(sorted(arms, key=arms.get))
        for arm, val in arms.items():
            rows.append([arm, k, _q17(val)])
        if k == 0:
            for arm in ("amplified", "wait_minibatch", "wait_full",
                        "no_amplification"):
                tr = traces[arm]
                svg_series.append((arm, tr.t, tr.grad_norm_sq))

    _write_csv(out, "paperdemo.csv", ["arm", "seed_index", "final_min_grad_norm_sq"],
               rows)
    with open(_out_path(out, "paperdemo.svg"), "w") as fh:
        fh.write(line_chart(svg_series,
                            title="periodic availability: amplification vs waiting",
                            x_label="round", y_label="||grad f||^2"))
    _write_meta(out, None, master,
                [f"protocol = {d}", f"ordered_seeds = {ordered}/{d['seeds']}"])
    print(f"ordering held in {ordered}/{d['seeds']} seeds")
    if ordered < 4:
        print(f"error: expected amplified < wait-* < no-amplification in >= 4 "
              f"seeds; observed rankings: {rankings}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fedamp",
                                 description="federated averaging with "
                                             "amplified updates")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [("run", cmd_run), ("sweep", cmd_sweep),
                     ("diagnose", cmd_diagnose), ("bounds", cmd_bounds),
                     ("plot", cmd_plot), ("paperdemo", cmd_paperdemo)]:
        p = sub.add_parser(name)
        if name != "paperdemo":
            p.add_argument("--config", required=name != "plot")
            p.add_argument("--set", action="append", metavar="section.key=value")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        if name == "plot":
            p.add_argument("inputs", nargs="*", metavar="metrics.csv")
        p.set_defaults(func=fn)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:   # usage errors are configuration errors
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:    # numpy names the shape it could not allocate
        print(f"error: {exc}; reduce [run] T or I, or [population] N, m or "
              f"samples_per_client", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
