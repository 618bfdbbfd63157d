"""Command line front end.

Subcommands: run, sweep, diagnose, bounds, plot, paperdemo.  Exit codes:
0 success, 1 configuration error, 2 numerical failure (divergence,
failed bound check, or ordering assertion).

Seed discipline: the master seed (--seed or [seeds] master) is split
into named child seeds with sha256 labeled derivation; the rule is
echoed in meta.txt so any run can be reproduced from that file alone.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (chebyshev_mixing_check, divergence_exact,
                       divergence_sampled, fit_convergence_slope,
                       hoeffding_check)
from .config import (ConfigError, ExperimentConfig, build_noise,
                     build_pattern, build_population, build_run_config,
                     build_schedule, build_x0, load_config,
                     resolve_plan)  # noqa: F401  (perfbench/traced.py wraps it here)
from .engine import RunConfig, run
from .objectives import NoiseModel, build_quadratic
from .participation import PatternSpec, generate_schedule
from .streams import derive_seed
from .svg import ChartError, line_chart

SEED_RULE = ("seed derivation: child = sha256('{master}:{label}')[:8] as 63-bit int; "
             "labels: rep{k} per replication, then 'schedule'/'run' per replication, "
             "'hoeffding-{chunk}' and 'mixing' for Monte Carlo checks")


def _q17(v: float) -> str:
    return f"{float(v):.17g}"


def _write_meta(out_dir, cfg: ExperimentConfig | None, master: int, extra=()):
    with open(os.path.join(out_dir, "meta.txt"), "w") as fh:
        fh.write(f"fedamp {__version__}\n")
        fh.write(f"master_seed = {master}\n")
        fh.write(SEED_RULE + "\n")
        for line in extra:
            fh.write(line + "\n")
        if cfg is not None:
            fh.write("\n# resolved configuration\n")
            fh.write(cfg.serialize())


def _master_seed(args, cfg: ExperimentConfig | None) -> int:
    if args.seed is not None:
        return args.seed
    if cfg is not None:
        return cfg.get("seeds", "master")
    return 0


def _out_dir(args, cfg: ExperimentConfig | None) -> str:
    out = args.out or (cfg.get("output", "dir") if cfg is not None else "out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set or ())
    master = _master_seed(args, cfg)
    out = _out_dir(args, cfg)
    pop = build_population(cfg)
    noise = build_noise(cfg)
    reps = cfg.get("seeds", "replications")
    T = cfg.get("run", "T")

    rows = []
    diverged_at = None
    plans = []
    for rep in range(reps):
        rep_seed = derive_seed(master, f"rep{rep}")
        sched = build_schedule(cfg, pop.N, T, rep_seed)
        rc = build_run_config(cfg, pop, sched, rep_seed)
        plans.append(f"rep{rep}: gamma={_q17(rc.gamma)} eta={_q17(rc.eta)} "
                     f"fallback_rounds={sched.fallback_rounds}")
        trace = run(pop, noise, sched, rc, derive_seed(rep_seed, "run"))
        for i in range(len(trace.t)):
            rows.append([rep, rep_seed, int(trace.t[i]), _q17(trace.f[i]),
                         _q17(trace.grad_norm_sq[i]),
                         _q17(trace.min_grad_norm_sq[i]),
                         int(trace.is_boundary[i])])
        if trace.diverged and diverged_at is None:
            diverged_at = (rep, trace.diverged_round)

    with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "seed", "t", "f", "grad_norm_sq",
                    "min_grad_norm_sq", "is_boundary"])
        w.writerows(rows)
    _write_meta(out, cfg, master, plans)
    if diverged_at is not None:
        print(f"error: run {diverged_at[0]} diverged at round {diverged_at[1]}",
              file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} metric rows to {out}/metrics.csv")
    return 0


def _sweep_point(cfg, axis, value):
    """Resolve (T, P, S) for one sweep point."""
    T = cfg.get("run", "T")
    P = cfg.get("run", "P")
    S = cfg.get("pattern", "S")
    if axis == "T":
        T = value
    elif axis == "P":
        P = value
    elif axis == "S":
        if cfg.get("sweep", "st_fixed"):
            if value <= 0 or (S * T) % value != 0:
                raise ConfigError(f"S*T={S * T} not divisible by swept S={value}")
            T = S * T // value
        S = value
        N = cfg.get("population", "N")
        if cfg.get("pattern", "kind") == "permutation":
            if N % S != 0:
                raise ConfigError(f"permutation sweep needs S | N, got S={S}")
            P = N // S
    else:
        raise ConfigError(f"unknown sweep axis: {axis!r}")
    return T, P, S


def _auto_eval_every(cfg, T, P):
    ev = cfg.get("run", "eval_every")
    if ev > 0:
        return ev
    # keep the checkpoint count comparable across sweep points
    return max(P, (T // 64) // P * P)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set or ())
    if not cfg.has_section("sweep"):
        raise ConfigError("sweep needs a [sweep] section")
    axis = cfg.get("sweep", "axis")
    values = cfg.get("sweep", "values")
    if not values:
        raise ConfigError("sweep axis has no values")
    master = _master_seed(args, cfg)
    out = _out_dir(args, cfg)
    pop = build_population(cfg)
    noise = build_noise(cfg)
    reps = cfg.get("seeds", "replications")

    agg_rows = []
    all_failed = True
    for value in values:
        T, P, S = _sweep_point(cfg, axis, value)
        finals, failed = [], 0
        for rep in range(reps):
            rep_seed = derive_seed(master, f"rep{rep}")
            try:
                sched = generate_schedule(replace(build_pattern(cfg), S=S),
                                          pop.N, T, derive_seed(rep_seed, "schedule"))
                rc = replace(build_run_config(cfg, pop, sched, rep_seed, T=T, P=P),
                             eval_every=_auto_eval_every(cfg, T, P))
                trace = run(pop, noise, sched, rc, derive_seed(rep_seed, "run"))
            except (ConfigError, ValueError) as exc:
                print(f"point {axis}={value} rep {rep} failed: {exc}",
                      file=sys.stderr)
                failed += 1
                continue
            if trace.diverged:
                failed += 1
                continue
            finals.append(trace.final_min_grad_norm_sq)
        if finals:
            all_failed = False
            agg_rows.append([axis, value, T, P, S, len(finals), failed,
                             _q17(np.mean(finals)), _q17(np.std(finals)),
                             _q17(np.median(finals))])
        else:
            agg_rows.append([axis, value, T, P, S, 0, failed, "nan", "nan", "nan"])

    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "value", "T", "P", "S", "runs", "failed",
                    "min_grad_norm_sq_mean", "min_grad_norm_sq_std",
                    "min_grad_norm_sq_median"])
        w.writerows(agg_rows)

    extra = []
    good = [(r[1], float(r[9])) for r in agg_rows if r[5] > 0]
    if axis == "T" and len(good) >= 2:
        fit = fit_convergence_slope([g[0] for g in good], [g[1] for g in good])
        extra.append(f"slope_fit = {_q17(fit.slope)} +- {_q17(fit.stderr)}")
        print(f"fitted log-log slope: {fit.slope:.4f}")
    _write_meta(out, cfg, master, extra)
    if all_failed:
        print("error: every sweep point failed", file=sys.stderr)
        return 2
    print(f"wrote {len(agg_rows)} aggregate rows to {out}/sweep.csv")
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config, args.set or ())
    master = _master_seed(args, cfg)
    out = _out_dir(args, cfg)
    pop = build_population(cfg)
    T = cfg.get("run", "T")
    sched = build_schedule(cfg, pop.N, T, derive_seed(master, "rep0"))
    P_list = cfg.get("diagnose", "P_list")
    points = cfg.get("diagnose", "points")

    rows = []
    for P in P_list:
        if P < 1 or P > T:
            raise ConfigError(f"diagnose P={P} outside [1, T={T}]")
        if points > 0:
            pts = [build_x0(cfg, pop, derive_seed(master, f"point{i}"))
                   for i in range(points)]
            rep = divergence_sampled(pop, sched, P, pts)
        else:
            try:
                rep = divergence_exact(pop, sched, P)
            except TypeError as exc:
                raise ConfigError(str(exc)) from exc
        rep.validate()
        rows.append([P, _q17(rep.beta2), _q17(rep.nu2), _q17(rep.delta2),
                     _q17(rep.d2), int(rep.exact)])

    with open(os.path.join(out, "divergence.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["P", "beta2", "nu2", "delta2", "d2", "exact"])
        w.writerows(rows)
    _write_meta(out, cfg, master)
    print(f"wrote {len(rows)} divergence rows to {out}/divergence.csv")
    return 0


def cmd_bounds(args) -> int:
    cfg = load_config(args.config, args.set or ())
    master = _master_seed(args, cfg)
    out = _out_dir(args, cfg)
    pat = build_pattern(cfg)
    which = cfg.values.get(("bounds", "check"),
                           "chebyshev" if pat.kind == "markov" else "hoeffding")
    if which not in ("hoeffding", "chebyshev"):
        raise ConfigError(f"unknown bounds check: {which!r}")
    N = cfg.get("population", "N")

    checks = []
    extra = []
    if which == "hoeffding":
        try:
            bc = hoeffding_check(pat, N, cfg.get("bounds", "P"),
                                 cfg.get("bounds", "c"),
                                 cfg.get("bounds", "trials"),
                                 derive_seed(master, "hoeffding"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        checks.append(bc)
    else:
        try:
            rep = chebyshev_mixing_check(pat, N, cfg.get("bounds", "P_list"),
                                         cfg.get("bounds", "mixing_trials"),
                                         derive_seed(master, "mixing"),
                                         c=cfg.get("bounds", "chebyshev_c"),
                                         max_lag=cfg.get("bounds", "max_lag"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        checks.extend(rep.chebyshev)
        extra.append(f"variance_slope = {_q17(rep.slope)}")
        extra.append(f"cov_ratio = {_q17(rep.cov_ratio)}")
        extra.append(f"long_run_variance = {_q17(rep.upsilon_hat2)}")

    with open(os.path.join(out, "bounds.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bound", "P", "c", "threshold", "trials",
                    "violation_rate", "pass"])
        for bc in checks:
            w.writerow([bc.bound, bc.P, _q17(bc.c), _q17(bc.threshold),
                        bc.trials, _q17(bc.violation_rate), int(bc.passed)])
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
        if header != ["run", "seed", "t", "f", "grad_norm_sq",
                      "min_grad_norm_sq", "is_boundary"]:
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
    paths = list(args.inputs)
    cfg = None
    if args.config:
        cfg = load_config(args.config, args.set or ())
        if not paths:
            paths = [os.path.join(cfg.get("output", "dir"), "metrics.csv")]
    if not paths:
        raise ChartError("no input CSVs given")
    out = _out_dir(args, cfg)
    series = []
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        for rid, (ts, g2s) in sorted(_read_metrics(path).items()):
            label = f"{stem}:{rid}" if len(paths) > 1 else f"run {rid}"
            series.append((label, ts, g2s))
    svg = line_chart(series, title="gradient norm squared over rounds",
                     x_label="round", y_label="||grad f||^2", log_y=True)
    target = os.path.join(out, "metrics.svg")
    with open(target, "w") as fh:
        fh.write(svg)
    print(f"wrote {target} with {len(series)} series")
    return 0


# fixed desk-scale comparison protocol; see cmd_paperdemo
DEMO = dict(N=50, m=32, L=1.0, G=5, B=20, S=5, I=5, T=2000, sigma=1.0,
            spread=1.0, pop_seed=7, seeds=5, x0_norm=5.477225575051661)


def paperdemo_arms(master: int, seed_index: int, P: int | None = None):
    """One seed's four-arm comparison; returns {arm: final min ||grad f||^2}."""
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

    from .analysis import plan_rates_adaptive
    plan = plan_rates_adaptive(d["L"], gap, d["sigma"], rho, d["I"], P, d["T"])
    base = dict(local_steps=d["I"], amplify_every=P, rounds=d["T"], x0=x0)
    arms = {}
    traces = {}
    rc = RunConfig(gamma=plan.gamma, eta=plan.eta, **base)
    traces["amplified"] = run(pop, noise, sched, rc, derive_seed(seed, "amp"))
    rc = RunConfig(gamma=plan.gamma, eta=1.0, **base)
    traces["no_amplification"] = run(pop, noise, sched, rc, derive_seed(seed, "amp"))
    # wait arms: one global step per P-round window, planned as a run with
    # T/P rounds, no amplification, and noise averaged over appearances
    gamma_wait = 1.0 / (12.0 * d["L"] * d["I"] * np.sqrt(d["T"] / P))
    for mode in ("wait_minibatch", "wait_full"):
        rc = RunConfig(gamma=gamma_wait, eta=1.0, mode=mode, **base)
        traces[mode] = run(pop, noise, sched, rc, derive_seed(seed, "wait"))
    for arm, tr in traces.items():
        arms[arm] = tr.final_min_grad_norm_sq
    return arms, traces


def cmd_paperdemo(args) -> int:
    master = args.seed if args.seed is not None else 0
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
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

    with open(os.path.join(out, "paperdemo.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm", "seed_index", "final_min_grad_norm_sq"])
        w.writerows(rows)
    with open(os.path.join(out, "paperdemo.svg"), "w") as fh:
        fh.write(line_chart(svg_series,
                            title="periodic availability: amplification vs waiting",
                            x_label="round", y_label="||grad f||^2", log_y=True))
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
    for name, fn, needs_cfg in [("run", cmd_run, True),
                                ("sweep", cmd_sweep, True),
                                ("diagnose", cmd_diagnose, True),
                                ("bounds", cmd_bounds, True),
                                ("plot", cmd_plot, False),
                                ("paperdemo", cmd_paperdemo, False)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_cfg and name != "plot")
        p.add_argument("--set", action="append", metavar="section.key=value")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        if name == "plot":
            p.add_argument("inputs", nargs="*", metavar="metrics.csv")
        p.set_defaults(func=fn)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
