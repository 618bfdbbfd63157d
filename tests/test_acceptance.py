"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output) and enforces its runtime budget.
"""

import time

import numpy as np
import pytest

import fedamp as fa
from fedamp.cli import main


def report(tag, ok, detail, elapsed, budget):
    line = (f"{tag}: {'PASS' if ok else 'FAIL'} ({detail}; "
            f"{elapsed:.1f}s of {budget:.0f}s budget)")
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def straight_line(pop, noise, sched, gamma, eta, I, P, T, x0, seed):
    """Independent transcription of one amplified run, client by client on
    fresh substreams; the engine must match it bit for bit."""
    x = np.array(x0, dtype=float)
    u = np.zeros_like(x)
    for t in range(T):
        q = sched.weights[t]
        step = np.zeros_like(x)
        for n in np.nonzero(q)[0]:
            rng = fa.substream(seed, "local", t, int(n))
            y = x.copy()
            for _ in range(I):
                y -= gamma * (pop.grad(n, y) + noise.sample(rng, len(x)))
            step += q[n] * (y - x)
        x = x + step
        u = u + step
        if (t + 1) % P == 0:
            x = x + (eta - 1.0) * u
            u = np.zeros_like(x)
    return x


def test_a1_algorithm_fidelity():
    start = time.time()
    # engine vs an independent straight-line transcription, bit for bit
    pop = fa.build_quadratic(N=2, m=3, L=1.0, spread=1.0, seed=50)
    noise = fa.NoiseModel("gaussian", 0.3)
    sched = fa.generate_schedule(fa.PatternSpec("permutation", S=1), 2, 16, 1)
    gamma, eta, I, P, T = 0.05, 4.0, 3, 4, 16
    x0 = np.array([2.0, -1.0, 0.5])
    seed = 123

    x = straight_line(pop, noise, sched, gamma, eta, I, P, T, x0, seed)
    cfg = fa.RunConfig(gamma=gamma, eta=eta, local_steps=I, amplify_every=P,
                       rounds=T, x0=x0)
    tr = fa.run(pop, noise, sched, cfg, seed=seed)
    bitwise = bool(np.array_equal(tr.x_final, x))

    # amplification identity across 100 randomized runs
    worst = 0.0
    rng = np.random.default_rng(7)
    for k in range(100):
        N = int(rng.integers(2, 8))
        m = int(rng.integers(2, 6))
        pop_k = fa.build_quadratic(N=N, m=m, L=1.0,
                                   spread=float(rng.uniform(0.2, 1.5)), seed=k)
        P_k = int(rng.integers(1, 6))
        T_k = P_k * int(rng.integers(2, 5))
        sched_k = fa.generate_schedule(
            fa.PatternSpec("independent", S=int(rng.integers(1, N + 1))),
            N, T_k, k)
        cfg_k = fa.RunConfig(gamma=float(rng.uniform(0.005, 0.05)),
                             eta=float(rng.uniform(1.0, 6.0)),
                             local_steps=int(rng.integers(1, 4)),
                             amplify_every=P_k, rounds=T_k,
                             x0=rng.normal(size=m))
        tr_k = fa.run(pop_k, fa.NoiseModel("gaussian", 0.2), sched_k, cfg_k,
                      seed=k)
        worst = max(worst, tr_k.max_boundary_residual)

    elapsed = time.time() - start
    report("A1 algorithm fidelity", bitwise and worst <= 1e-12,
           f"transcription bitwise={bitwise}, boundary residual {worst:.2e}",
           elapsed, 1.0)


def test_a2_regularized_windows_unbiased():
    start = time.time()
    worst_delta = 0.0
    worst_window = 0.0
    for N in (8, 32):
        for S in (1, 2, 4, N // 2, N):
            if N % S:
                continue
            P = N // S
            pop = fa.build_quadratic(N=N, m=4, L=1.0, spread=1.0, seed=N + S)
            sched = fa.generate_schedule(fa.PatternSpec("permutation", S=S),
                                         N, 8 * P, seed=S)
            rep = fa.divergence_exact(pop, sched, P)
            worst_delta = max(worst_delta, rep.delta2)
            stats = fa.window_averages(sched, P)
            worst_window = max(worst_window,
                               float(np.abs(stats.qbar - 1.0 / N).max()))
    elapsed = time.time() - start
    report("A2 permutation window exactness",
           worst_delta <= 1e-15 and worst_window == 0.0,
           f"max window bias {worst_delta:.2e}, "
           f"max |mean weight - 1/N| {worst_window:.2e}", elapsed, 1.0)


def test_a3_divergence_decomposition():
    start = time.time()
    worst_res = 0.0
    worst_excess = -np.inf
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        N = int(rng.integers(2, 10))
        pop = fa.build_quadratic(N=N, m=int(rng.integers(2, 6)), L=1.0,
                                 spread=float(rng.uniform(0.3, 1.5)),
                                 seed=2000 + k)
        kind = ["full", "independent", "permutation"][k % 3]
        S = int(rng.integers(1, N + 1))
        if kind == "permutation":
            S = [d for d in range(1, N + 1) if N % d == 0][k % 2]
        sched = fa.generate_schedule(fa.PatternSpec(kind, S=S), N, 30, k)
        x = pop.x_star + rng.normal(scale=2.0, size=pop.m)
        rep = fa.divergence_at_offsets(fa.sample_offsets(pop, x[None, :]), sched,
                                       sched.T)
        worst_res = max(worst_res, rep.decomposition_residual)
        # bias + spread is a per-round identity; the d2 bound applies to the
        # per-round sum (the separate maxima can land in different rounds)
        worst_excess = max(worst_excess, rep.max_round_sum - rep.d2)
    elapsed = time.time() - start
    report("A3 weighted divergence decomposition",
           worst_res <= 1e-10 and worst_excess <= 1e-10,
           f"max identity residual {worst_res:.2e}, "
           f"max (bias+spread)-d2 {worst_excess:.2e}", elapsed, 1.0)


def test_a4_concentration_bounds():
    start = time.time()
    hf = fa.hoeffding_check(fa.PatternSpec("independent", S=4), N=16, P=64,
                            c=0.05, trials=10000, seed=5)
    mix = fa.chebyshev_mixing_check(
        fa.PatternSpec("markov", S=4, p_aa=0.9, p_uu=0.8), N=16,
        P_list=[16, 32, 64, 128, 256, 512, 1024], trials=200, seed=11)
    slope_ok = abs(mix.slope - (-1.0)) <= 0.15
    ratio_ok = abs(mix.cov_ratio - 0.70) <= 0.03
    cheb_ok = all(bc.passed for bc in mix.chebyshev)
    elapsed = time.time() - start
    report("A4 concentration bounds",
           hf.passed and slope_ok and ratio_ok and cheb_ok,
           f"hoeffding rate {hf.violation_rate:.4f} <= {hf.c}+3se, "
           f"variance slope {mix.slope:.3f}, covariance ratio "
           f"{mix.cov_ratio:.3f}", elapsed, 30.0)


def _slope_median(pop, x0, sigma, noise, S, I, seeds, Ts):
    P = pop.N // S
    rho = 1.0 / np.sqrt(S)
    F0 = pop.global_value(x0) - pop.f_star
    slopes = []
    for seed in seeds:
        mins = []
        for T in Ts:
            sched = fa.generate_schedule(fa.PatternSpec("permutation", S=S),
                                         pop.N, T,
                                         fa.derive_seed(seed, f"sched{T}"))
            plan = fa.plan_rates_adaptive(pop.lipschitz, F0, sigma, rho, I, P, T)
            assert plan.valid, plan.notes
            ev = max(P, (T // 64) // P * P)
            cfg = fa.RunConfig(gamma=plan.gamma, eta=plan.eta, local_steps=I,
                               amplify_every=P, rounds=T, x0=x0, eval_every=ev)
            tr = fa.run(pop, noise, sched, cfg,
                        seed=fa.derive_seed(seed, f"run{T}"))
            assert not tr.diverged
            mins.append(tr.final_min_grad_norm_sq)
        slopes.append(fa.fit_convergence_slope(Ts, mins).slope)
    return float(np.median(slopes))


def test_a5_convergence_rate_slopes():
    start = time.time()
    N, I, S = 32, 5, 8
    Ts = [256, 1024, 4096, 16384]
    seeds = range(5)

    # noise-dominant regime: the floor decays like 1/sqrt(T)
    m = 32
    pop = fa.build_quadratic(N, m, 1.0, spread=0.5, seed=42,
                             eigenvalues=np.linspace(0.25, 1.0, m),
                             rotate=False)
    x0 = pop.x_star + np.full(m, np.sqrt(2.0 / m / 0.6))
    med_noisy = _slope_median(pop, x0, 4.0, fa.NoiseModel("gaussian", 4.0),
                              S, I, seeds, Ts)

    # noise-free regime: a log-spaced spectrum with matched initial error
    # realizes the 1/T envelope instead of exponential decay
    m = 128
    lam = np.geomspace(1e-5, 1.0, m)
    pop0 = fa.build_quadratic(N, m, 1.0, spread=0.1, seed=42,
                              eigenvalues=lam, rotate=False)
    x0 = pop0.x_star + np.sqrt(np.log(lam[1] / lam[0]) / pop0.diag)
    med_clean = _slope_median(pop0, x0, 0.0, fa.NoiseModel(), S, I, seeds, Ts)

    elapsed = time.time() - start
    report("A5 convergence-rate slopes",
           -0.65 <= med_noisy <= -0.35 and -1.2 <= med_clean <= -0.8,
           f"noisy median slope {med_noisy:.3f} in [-0.65,-0.35], "
           f"noise-free median slope {med_clean:.3f} in [-1.2,-0.8]",
           elapsed, 120.0)


def test_a6_linear_speedup():
    start = time.time()
    N, I, m = 32, 5, 32
    pop = fa.build_quadratic(N, m, 1.0, spread=0.5, seed=42,
                             eigenvalues=np.linspace(0.25, 1.0, m),
                             rotate=False)
    x0 = pop.x_star + np.full(m, np.sqrt(2.0 / m / 0.6))
    F0 = pop.global_value(x0) - pop.f_star
    noise = fa.NoiseModel("gaussian", 4.0)
    ST = 8 * 2048
    medians = {}
    for S in (4, 8, 16):
        T, P = ST // S, N // S
        rho = 1.0 / np.sqrt(S)
        finals = []
        for seed in range(5):
            sched = fa.generate_schedule(fa.PatternSpec("permutation", S=S),
                                         N, T, fa.derive_seed(seed, f"s{S}"))
            plan = fa.plan_rates_adaptive(1.0, F0, 4.0, rho, I, P, T)
            ev = max(P, (T // 64) // P * P)
            cfg = fa.RunConfig(gamma=plan.gamma, eta=plan.eta, local_steps=I,
                               amplify_every=P, rounds=T, x0=x0, eval_every=ev)
            tr = fa.run(pop, noise, sched, cfg,
                        seed=fa.derive_seed(seed, f"r{S}"))
            finals.append(tr.final_min_grad_norm_sq)
        medians[S] = float(np.median(finals))
    ratio = max(medians.values()) / min(medians.values())
    elapsed = time.time() - start
    report("A6 linear speedup", ratio <= 2.0,
           f"S*T fixed, errors {medians}, spread ratio {ratio:.2f} <= 2",
           elapsed, 60.0)


def test_a7_amplification_ordering(tmp_path):
    start = time.time()
    code = main(["paperdemo", "--out", str(tmp_path), "--seed", "0"])
    elapsed = time.time() - start
    report("A7 amplification vs waiting ordering", code == 0,
           f"exit code {code}, comparison written to paperdemo.csv",
           elapsed, 120.0)


def test_a8_determinism_and_equivalences():
    start = time.time()
    pop = fa.build_quadratic(N=6, m=4, L=1.0, spread=0.5, seed=60,
                             eigenvalues=np.linspace(0.3, 1.0, 4), rotate=False)
    noise = fa.NoiseModel("gaussian", 0.4)
    sched = fa.generate_schedule(fa.PatternSpec("permutation", S=3), 6, 24, 2)

    base = None
    p_invariant = True
    for P in (1, 3, 8, 24):
        cfg = fa.RunConfig(gamma=0.05, eta=1.0, local_steps=2,
                           amplify_every=P, rounds=24, x0=np.ones(4),
                           eval_every=1)
        tr = fa.run(pop, noise, sched, cfg, seed=9)
        if base is None:
            base = tr
        else:
            p_invariant &= bool(np.array_equal(tr.x_final, base.x_final))
            p_invariant &= bool(np.array_equal(tr.f, base.f))

    cfg = fa.RunConfig(gamma=0.05, eta=2.0, local_steps=2, amplify_every=4,
                       rounds=24, x0=np.ones(4), eval_every=1)
    skip = fa.run(pop, noise, sched, cfg, seed=9, simulate_all=False)
    everyone = fa.run(pop, noise, sched, cfg, seed=9, simulate_all=True)
    sim_ok = bool(np.array_equal(skip.x_final, everyone.x_final)
                  and np.array_equal(skip.grad_norm_sq, everyone.grad_norm_sq))

    # the batched diagonal kernel against the per-client reference
    x = straight_line(pop, noise, sched, cfg.gamma, cfg.eta, cfg.local_steps,
                      cfg.amplify_every, 24, cfg.x0, 9)
    batched_ok = bool(np.array_equal(skip.x_final, x))

    elapsed = time.time() - start
    report("A8 determinism and equivalences",
           p_invariant and sim_ok and batched_ok,
           f"interval invariance={p_invariant}, participant skipping={sim_ok}, "
           f"batched = per-client reference={batched_ok}", elapsed, 30.0)
