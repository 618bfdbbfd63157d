"""The paper's identities as properties over random inputs."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedamp as fa
from fedamp import cli, participation
from fedamp.analysis import _round_quantities
from fedamp.config import SCHEMA, _bool, _fmt, _gap, _int_list, _offset
from fedamp.engine import _LocalSteps

# values k/1000 for |k| <= 10^6: wide range, no subnormal squares
VALUES = st.integers(-10**6, 10**6).map(lambda k: k / 1000)


@st.composite
def offsets_and_weights(draw):
    """Client offsets (N, m), simplex rows (T, N) with zeros, and P <= T."""
    N, m, T = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 12))
    offsets = draw(hnp.arrays(np.float64, (N, m), elements=VALUES))
    raw = draw(hnp.arrays(np.float64, (T, N),
                          elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
    raw[raw.sum(axis=1) == 0, draw(st.integers(0, N - 1))] = 1.0
    return offsets, raw / raw.sum(axis=1, keepdims=True), draw(st.integers(1, T))


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_decomposition_beta_plus_nu(case):
    offsets, w, P = case
    beta_t, nu_t, weighted_d2, _ = _round_quantities(offsets, w, P)
    assert np.all(np.abs(beta_t + nu_t - weighted_d2) <= 1e-10 * weighted_d2)


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_window_bias_below_round_bias(case):
    # a window average of the weighted offsets is no longer than the longest
    offsets, w, P = case
    beta_t, _, _, delta2 = _round_quantities(offsets, w, P)
    assert delta2 <= beta_t.max() * (1 + 1e-12)


@st.composite
def offset_stacks(draw):
    """Offsets of k <= 4 points (k, N, m), their schedule, and P <= T."""
    offsets, w, P = draw(offsets_and_weights())
    more = [draw(hnp.arrays(np.float64, offsets.shape, elements=VALUES))
            for _ in range(draw(st.integers(0, 3)))]
    sched = fa.WeightSchedule(weights=w, pattern="manual", seed=0)
    return np.stack([offsets, *more]), sched, P


@settings(max_examples=100, deadline=None)
@given(offset_stacks())
def test_stack_report_is_max_of_point_reports(case):
    offsets, sched, P = case
    rep = fa.divergence_at_offsets(offsets, sched, P)
    points = [fa.divergence_at_offsets(offs[None], sched, P) for offs in offsets]
    for name in ("d2", "beta2", "nu2", "delta2", "decomposition_residual",
                 "max_round_sum"):
        assert getattr(rep, name) == max(getattr(p, name) for p in points)


@settings(max_examples=100, deadline=None)
@given(offset_stacks(), st.data())
def test_non_finite_offset_fails_validate(case, data):
    offsets, sched, P = case
    fa.divergence_at_offsets(offsets, sched, P).validate()
    bad = offsets.copy()
    bad[tuple(data.draw(st.integers(0, s - 1)) for s in bad.shape)] = \
        data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError):
        fa.divergence_at_offsets(bad, sched, P).validate()


def test_validate_raises_under_python_O():
    # `python -O` strips asserts; validate must not rely on them
    code = """if 1:
        import sys
        import fedamp as fa
        rep = fa.DivergenceReport(d2=2.0, beta2=1.0, nu2=0.5, delta2=1.5, P=1,
                                  decomposition_residual=0.0, max_round_sum=1.5,
                                  exact=True)
        if not sys.flags.optimize:
            sys.exit(4)
        try:
            rep.validate()
        except ValueError:
            sys.exit(0)
        sys.exit(3)
    """
    src = str(Path(fa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@st.composite
def boundary_arrays(draw):
    """x and the accumulated update u at an interval boundary."""
    m = draw(st.integers(1, 6))
    return tuple(draw(hnp.arrays(np.float64, m, elements=VALUES)) for _ in range(2))


@settings(max_examples=100, deadline=None)
@given(boundary_arrays(), st.floats(1e-3, 20.0))
def test_amplification_identity(xu, eta):
    x, u = xu
    expect = x + (eta - 1.0) * u
    fa.amplify(x, u, eta)
    np.testing.assert_array_equal(x, expect)
    assert not u.any()


@settings(max_examples=50, deadline=None)
@given(boundary_arrays())
def test_eta_one_leaves_x_bitwise(xu):
    x, u = xu
    before = x.tobytes()
    fa.amplify(x, u, 1.0)
    assert x.tobytes() == before


# per parser, every value it can produce from text; a key's declared
# domain narrows it (_int_list rejects an empty list itself)
FINITE = st.floats(allow_nan=False)
PARSED = {int: st.integers(-10**12, 10**12), float: FINITE, _bool: st.booleans(),
          str: st.from_regex(r"[A-Za-z0-9_.+-]{1,12}", fullmatch=True),
          _int_list: st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6),
          _offset: st.one_of(st.just("random"), st.integers(0, 10**6)),
          _gap: st.one_of(st.just("exact"), FINITE)}


def in_domain(key):
    """The values key's parser can produce that lie in its declared domain."""
    parser, _, domain = SCHEMA[key]
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    if domain is None:
        return PARSED[parser]
    if parser is int:
        return st.integers(domain, 10**12)
    return st.floats(min_value=domain, allow_infinity=False)


@st.composite
def configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(SCHEMA)), unique=True))
    return fa.ExperimentConfig({k: draw(in_domain(k)) for k in keys})


@settings(max_examples=100, deadline=None)
@given(configs())
def test_config_round_trip(cfg):
    assert fa.parse_config_text(cfg.serialize()).values == cfg.values


# every section a command reads, sized so any small override runs in ms
FUZZ_CFG = """\
[population]
N = 4
m = 2

[pattern]
kind = independent
S = 2

[run]
gamma = 0.05
I = 2
P = 2
T = 8

[sweep]
axis = T
values = 4 8

[bounds]
P = 4
P_list = 2 4
trials = 20
mixing_trials = 8
max_lag = 2

[diagnose]
P_list = 1 2
"""
SPECIAL = st.sampled_from(["", "nan", "inf", "-1", "0", "bogus"])


def small_value(key):
    """Text of a small value in key's domain; a lower bound is drawn too."""
    parser, _, domain = SCHEMA[key]
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    lo = domain or 0
    return {int: st.integers(lo, 8), float: st.floats(lo, 4.0),
            _bool: st.booleans(), str: st.from_regex(r"[a-z]{1,8}", fullmatch=True),
            _int_list: st.lists(st.integers(1, 8), min_size=1, max_size=3),
            _offset: st.one_of(st.just("random"), st.integers(0, 8)),
            _gap: st.one_of(st.just("exact"), st.floats(0.0, 4.0))}[parser].map(_fmt)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["run", "sweep", "diagnose", "bounds"]),
       st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=3, unique=True),
       st.data())
def test_cli_exits_cleanly_under_random_overrides(command, keys, data):
    argv = [command]
    for section, key in keys:
        value = data.draw(st.one_of(small_value((section, key)), SPECIAL),
                          label=f"{section}.{key}")
        argv += ["--set", f"{section}.{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        config.write_text(FUZZ_CFG)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--config", str(config), "--out", str(out)])
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        if code == 1:    # an input error writes nothing
            assert not out.exists()


@st.composite
def small_runs(draw):
    """A population, a noise model, a schedule, and two intervals P."""
    N, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["diagonal", "rotated", "logistic"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "logistic":
        pop = fa.build_logistic(N, m, 4, seed)
    else:
        pop = fa.build_quadratic(N, m, 1.0, 0.5, seed, rotate=kind == "rotated")
    noise = fa.NoiseModel(draw(st.sampled_from(["none", "gaussian", "sphere"])), 0.5)
    T = draw(st.integers(1, 16))
    spec = draw(st.one_of(st.just(fa.PatternSpec("full")),
                          st.integers(1, N).map(
                              lambda S: fa.PatternSpec("independent", S=S))))
    sched = fa.generate_schedule(spec, N, T, seed)
    Ps = draw(st.lists(st.integers(1, T), min_size=2, max_size=2))
    return pop, noise, sched, T, Ps, draw(st.integers(1, 3)), seed


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_interval_invariance_at_eta_one(case):
    # without amplification the interval boundaries leave the trajectory alone
    pop, noise, sched, T, Ps, I, seed = case
    a, b = (fa.run(pop, noise, sched,
                   fa.RunConfig(gamma=0.05, eta=1.0, local_steps=I, amplify_every=P,
                                rounds=T, x0=np.ones(pop.m), eval_every=1), seed)
            for P in Ps)
    assert a.x_final.tobytes() == b.x_final.tobytes()
    assert a.f.tobytes() == b.f.tobytes()


def markov_reference(rng, N, T, S, p_aa, p_uu):
    """The Markov generator as one loop over rounds: (weights, fallback rounds)."""
    avail = np.empty((T, N), dtype=bool)
    avail[0] = rng.random(N) < (1.0 - p_uu) / (2.0 - p_aa - p_uu)
    u = rng.random((T - 1, N)) if T > 1 else np.empty((0, N))
    for t in range(1, T):
        avail[t] = np.where(avail[t - 1], u[t - 1] < p_aa, u[t - 1] >= p_uu)
    scores = rng.random((T, N))
    weights = np.zeros((T, N))
    fallback = 0
    for t in range(T):
        idx = np.nonzero(avail[t])[0]
        if idx.size == 0:
            fallback += 1
            idx = np.arange(N)
        k = min(S, idx.size)
        chosen = idx[np.argsort(scores[t, idx], kind="stable")[:k]]
        weights[t, chosen] = 1.0 / k
    return weights, fallback


class CoarseDraws:
    """A generator whose uniforms take only `levels` values, so scores tie
    and transitions land on p_aa and p_uu exactly."""

    def __init__(self, rng, levels):
        self.rng, self.levels = rng, levels

    def random(self, size):
        return np.floor(self.rng.random(size) * self.levels) / self.levels


@st.composite
def markov_cases(draw):
    """Markov parameters, a draw coarseness and a block size: fallback rounds,
    S above the available count and T across blocks all occur."""
    N = draw(st.integers(1, 40))
    levels = draw(st.one_of(st.none(), st.integers(2, 8)))
    grid = st.integers(1, (levels or 16) - 1).map(lambda i: i / (levels or 16))
    prob = st.one_of(grid, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return dict(N=N, T=draw(st.integers(1, 60)), S=draw(st.integers(1, N)),
                p_aa=draw(prob), p_uu=draw(prob), seed=draw(st.integers(0, 2**32)),
                levels=levels, block_draws=draw(st.integers(1, 4 * N)))


def generate_markov(c):
    """generate_schedule and the reference on the same draws."""
    spec = fa.PatternSpec("markov", S=c["S"], p_aa=c["p_aa"], p_uu=c["p_uu"])

    def draws(seed, label):
        rng = fa.substream(seed, label)
        return CoarseDraws(rng, c["levels"]) if c["levels"] else rng
    with mock.patch.object(participation, "substream", draws), \
            mock.patch.object(participation, "_MARKOV_BLOCK_DRAWS", c["block_draws"]):
        sched = fa.generate_schedule(spec, c["N"], c["T"], c["seed"])
    ref = markov_reference(draws(c["seed"], "schedule"), c["N"], c["T"], c["S"],
                           c["p_aa"], c["p_uu"])
    return sched, ref


@settings(max_examples=300, deadline=None)
@given(markov_cases())
def test_markov_matches_round_loop(case):
    sched, (weights, fallback) = generate_markov(case)
    assert sched.weights.tobytes() == weights.tobytes()
    assert sched.fallback_rounds == fallback
    counts = (weights > 0).sum(axis=1)
    event(f"fallback rounds: {fallback > 0}")
    event(f"S > available in some round: {bool((counts < case['S']).any())}")
    event(f"crosses a block: {case['T'] > max(1, case['block_draws'] // case['N'])}")


def test_markov_matches_round_loop_at_block_size():
    # the generator's own block size, with T across two block boundaries
    case = dict(N=32, S=8, p_aa=0.9, p_uu=0.8, seed=11, levels=None,
                block_draws=participation._MARKOV_BLOCK_DRAWS)
    case["T"] = 2 * (case["block_draws"] // 32) + 5
    sched, (weights, fallback) = generate_markov(case)
    assert sched.weights.tobytes() == weights.tobytes()
    assert sched.fallback_rounds == fallback


def periodic_reference(rng, spec, N, T):
    """The periodic generator as it was with a second reset, taken when a
    permutation has fewer than S clients left."""
    weights = np.zeros((T, N))
    cycle = spec.G * spec.B
    group_size = N // spec.G
    offset = spec.offset if isinstance(spec.offset, int) else int(rng.integers(cycle))
    group = ((np.arange(T) + offset) // spec.B) % spec.G
    rounds_per_perm = max(group_size // spec.S, 1)
    pos_in_block = (np.arange(T) + offset) % spec.B
    for t in range(T):
        if t == 0 or pos_in_block[t] % rounds_per_perm == 0:
            perm = rng.permutation(group_size)
            cursor = 0
        if cursor + spec.S > group_size:
            perm = rng.permutation(group_size)
            cursor = 0
        chosen = group[t] * group_size + perm[cursor:cursor + spec.S]
        cursor += spec.S
        weights[t, chosen] = 1.0 / spec.S
    return weights


@st.composite
def periodic_cases(draw):
    N = draw(st.integers(1, 40))
    G = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    B = draw(st.integers(1, 8))
    spec = fa.PatternSpec("periodic", S=draw(st.integers(1, N // G)), G=G, B=B,
                          offset=draw(st.one_of(st.just("random"),
                                                st.integers(0, G * B - 1))))
    return spec, N, draw(st.integers(1, 80)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(periodic_cases())
def test_periodic_matches_loop_with_second_reset(case):
    # one permutation serves at most rounds_per_perm <= group_size // S
    # rounds, so the second reset never fires
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    ref = periodic_reference(fa.substream(seed, "schedule"), spec, N, T)
    assert sched.weights.tobytes() == ref.tobytes()
    event(f"a permutation serves several rounds: {N // spec.G // spec.S > 1}")


@st.composite
def patterns(draw):
    """A pattern of each of the five kinds with valid random parameters."""
    kind = draw(st.sampled_from(["full", "independent", "permutation", "periodic",
                                 "markov"]))
    N = draw(st.integers(1, 24))
    if kind == "full":
        spec = fa.PatternSpec("full")
    elif kind == "independent":
        spec = fa.PatternSpec(kind, S=draw(st.integers(1, N)))
    elif kind == "permutation":
        spec = fa.PatternSpec(kind, S=draw(st.sampled_from(
            [d for d in range(1, N + 1) if N % d == 0])))
    elif kind == "periodic":
        G = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
        B = draw(st.integers(1, 6))
        spec = fa.PatternSpec(kind, S=draw(st.integers(1, N // G)), G=G, B=B,
                              offset=draw(st.one_of(st.just("random"),
                                                    st.integers(0, G * B - 1))))
    else:
        prob = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        spec = fa.PatternSpec(kind, S=draw(st.integers(1, N)), p_aa=draw(prob),
                              p_uu=draw(prob))
    return spec, N, draw(st.integers(1, 60)), draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_schedule_rows_equal_weights_on_simplex(case):
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    assert fa.verify_simplex(sched, strict=True).ok
    k = (sched.weights > 0).sum(axis=1)
    for row, k_t in zip(sched.weights, k):
        assert (row[row > 0] == 1.0 / k_t).all()
    inv_k = float(np.max(1.0 / k))
    assert 1.0 / N <= inv_k <= 1.0
    assert fa.rho_bound(sched) ** 2 == pytest.approx(inv_k, rel=1e-12)


def small_lag_pass(data):
    """Patch the lag pass's leaf and window sizes small, so short inputs
    cross leaves, refill windows and hold pairs wider than a window."""
    leaf = data.draw(st.sampled_from([128, 136, 1024]), label="leaf")
    window = data.draw(st.sampled_from([128, 136, 300, 1024, 4096]), label="window")
    return mock.patch.multiple(participation, _LAG_LEAF=leaf, _LAG_WINDOW=window)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4 * 1024), st.integers(0, 2**32), st.data())
def test_lag_means_match_numpy_mean(n, seed, data):
    rng = np.random.default_rng(seed)
    # mixed magnitudes, and signed zeros in about a fifth of the entries
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    zero = rng.random(n) < data.draw(st.sampled_from([0.0, 0.2, 1.0]), label="zeros")
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    mu = data.draw(st.sampled_from([0.0, -0.0, 1 / 3, 1e-20]), label="mu")
    shifts = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=8), label="shifts")))
    with small_lag_pass(data):
        got = participation._lag_means(x, mu, shifts)
    expect = [np.mean((x[:n - s] - mu) * (x[s:] - mu)) for s in shifts]
    assert np.array(got).tobytes() == np.array(expect).tobytes()


@settings(max_examples=200, deadline=None)
@given(patterns(), st.data())
def test_window_lag_cov_matches_centered_products(case, data):
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    P = data.draw(st.integers(1, T), label="P")
    max_lag = data.draw(st.integers(0, T + 3), label="max_lag")
    with small_lag_pass(data):
        lags = fa.window_averages(sched, P, max_lag=max_lag).lag_cov
    c = sched.weights - 1.0 / N
    expect = [np.mean(c[:T - p] * c[p:]) if p < T else np.nan
              for p in range(max_lag + 1)]
    assert lags.tobytes() == np.array(expect).tobytes()


@st.composite
def logistic_points(draw):
    """A logistic population (k up to 16, or 130 past the pairwise block)
    and an evaluation point of norm 1e-3 to ~1e300."""
    N, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.one_of(st.integers(1, 16), st.just(130)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    features = rng.normal(size=(N, k, m)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    labels = np.where(rng.random((N, k)) < 0.5, -1.0, 1.0)
    pop = fa.LogisticPopulation(features, labels, draw(st.sampled_from([0.0, 1e-3, 1.0])))
    direction = draw(hnp.arrays(np.float64, m, elements=VALUES))
    return pop, direction * 10.0 ** draw(st.integers(-3, 297))


def logistic_reference(pop, x):
    """Per-client loops, verbatim: the rows of grad(n, x), global_grad,
    global_value and lipschitz."""
    from scipy.special import expit

    def grad(n):
        X, y = pop.features[n], pop.labels[n]
        coeff = -y * expit(-y * (X @ x))
        return coeff @ X / len(y) + pop.lam * x

    def value(n):
        margins = pop.labels[n] * (pop.features[n] @ x)
        return (float(np.mean(np.logaddexp(0.0, -margins)))
                + 0.5 * pop.lam * float(x @ x))

    rows = np.array([grad(n) for n in range(pop.N)])
    acc, total, worst = np.zeros(pop.m), 0.0, 0.0
    for n in range(pop.N):
        acc += grad(n)
        total += value(n)
        s = np.linalg.norm(pop.features[n], 2)
        worst = max(worst, s * s / (4.0 * pop.samples_per_client))
    return rows, acc / pop.N, total / pop.N, pop.lam + worst


@settings(max_examples=200, deadline=None)
@given(logistic_points())
def test_stacked_logistic_matches_per_client_loops(case):
    # the stacked pass must keep every bit, also where the margins overflow
    pop, x = case
    with np.errstate(over="ignore", invalid="ignore"):   # as in checkpoint_eval
        rows, g, f, lip = logistic_reference(pop, x)
        got = pop.client_grads(x), pop.global_grad(x), pop.global_value(x)
        both, ckpt, g2 = pop.value_and_grad(x), fa.checkpoint_eval(pop, x), g @ g
    assert got[0].tobytes() == rows.tobytes()
    assert got[1].tobytes() == both[1].tobytes() == g.tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(f).tobytes()
    assert np.float64(both[0]).tobytes() == np.float64(f).tobytes()
    assert np.array(ckpt).tobytes() == np.array([f, g2]).tobytes()
    assert np.float64(pop.lipschitz).tobytes() == np.float64(lip).tobytes()
    event(f"finite value: {np.isfinite(f)}")


@st.composite
def quadratic_points(draw):
    """A diagonal or rotated quadratic population and an evaluation point
    of norm 1e-3 to ~1e200 (its value overflows past ~1e154)."""
    N, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rotate = draw(st.booleans())
    pop = fa.build_quadratic(N, m, L=draw(st.sampled_from([0.5, 1.0, 40.0])),
                             spread=draw(st.sampled_from([0.0, 0.1, 1.0, 30.0])),
                             seed=draw(st.integers(0, 2**32)), rotate=rotate)
    direction = draw(hnp.arrays(np.float64, m, elements=VALUES))
    return pop, direction * 10.0 ** draw(st.integers(-3, 197))


@settings(max_examples=200, deadline=None)
@given(quadratic_points())
def test_quadratic_checkpoint_matches_former_expressions(case):
    # global_grad and global_value as they were before value_and_grad
    # shared one A(x - c_bar), verbatim
    pop, x = case

    def apply_A(v):
        if pop.diag is not None:
            return pop.diag * v
        return pop.A @ v

    with np.errstate(over="ignore", invalid="ignore"):
        g = apply_A(x - pop.x_star)
        d = x - pop.x_star
        f = 0.5 * float(d @ apply_A(d)) + pop.f_star
        got = pop.global_grad(x), pop.global_value(x)
        both, ckpt, g2 = pop.value_and_grad(x), fa.checkpoint_eval(pop, x), g @ g
    assert got[0].tobytes() == both[1].tobytes() == g.tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(both[0]).tobytes() \
        == np.float64(f).tobytes()
    assert np.array(ckpt).tobytes() == np.array([f, g2]).tobytes()
    event(f"kernel: {'diagonal' if pop.diag is not None else 'dense'}")
    event(f"finite value: {np.isfinite(f)}")


@st.composite
def local_step_cases(draw):
    """One round of local steps: a diagonal, rotated or logistic population
    (the last with or without minibatch), every noise kind, and x and t."""
    kind = draw(st.sampled_from(["diagonal", "rotated", "logistic"]))
    N, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    batch = None
    if kind == "logistic":
        pop = fa.build_logistic(N, m, draw(st.integers(2, 9)), seed=seed)
        batch = draw(st.one_of(st.none(), st.integers(1, 10)))
    else:
        pop = fa.build_quadratic(N, m, L=1.0, spread=1.0, seed=seed,
                                 rotate=kind == "rotated")
    noise = fa.NoiseModel(draw(st.sampled_from(["none", "gaussian", "sphere"])),
                          draw(st.sampled_from([0.0, 0.3, 2.0])))
    cfg = fa.RunConfig(gamma=draw(st.sampled_from([0.01, 0.1, 0.5])), eta=1.0,
                       local_steps=draw(st.integers(1, 4)), amplify_every=1,
                       rounds=1, x0=np.zeros(m), minibatch=batch)
    x = draw(hnp.arrays(np.float64, m, elements=VALUES))
    return pop, noise, cfg, x, draw(st.integers(0, 10**6)), seed


@settings(max_examples=150, deadline=None)
@given(local_step_cases(), st.data())
def test_local_step_rows_do_not_depend_on_who_else_steps(case, data):
    # a client's update depends only on (seed, t, n, x): its row is the
    # same alone, within a subset and among all N, and equals I
    # stochastic_grad steps on its own fresh substream
    pop, noise, cfg, x, t, seed = case
    local = _LocalSteps(pop, noise, cfg, seed, pop.N)

    def row(n, clients):
        clients = np.array(sorted(clients))   # participants come in ascending order
        return local(clients, x, t)[clients.tolist().index(n)].tobytes()

    kw = {"batch": cfg.minibatch} if cfg.minibatch is not None else {}
    for n in range(pop.N):
        rng = fa.substream(seed, "local", t, n)
        y = x.copy()
        for _ in range(cfg.local_steps):
            y -= cfg.gamma * pop.stochastic_grad(noise, n, y, rng, **kw)
        others = data.draw(st.sets(st.integers(0, pop.N - 1)), label=f"subset {n}")
        assert row(n, {n}) == row(n, others | {n}) == row(n, range(pop.N)) \
            == (y - x).tobytes()
    event(f"kernel: {'batched' if local.batched else 'per client'}")
