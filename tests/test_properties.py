"""The paper's identities as properties over random inputs."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedamp as fa
from fedamp import analysis, cli, participation
from fedamp.analysis import _round_quantities, _window_bias
from fedamp.config import SCHEMA, _bool, _fmt, _gap, _int_list, _offset
from fedamp.engine import MODES, _LocalSteps, _Rounds, amplify

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
    beta_t, nu_t, weighted_d2 = _round_quantities(offsets, w)
    assert np.all(np.abs(beta_t + nu_t - weighted_d2) <= 1e-10 * weighted_d2)


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_window_bias_below_round_bias(case):
    # a window average of the weighted offsets is no longer than the longest
    offsets, w, P = case
    beta_t, _, _ = _round_quantities(offsets, w)
    delta2 = _window_bias(offsets, w, P)
    assert delta2 <= beta_t.max() * (1 + 1e-12)


@st.composite
def offset_stacks(draw):
    """Offsets of k <= 4 points (k, N, m), their schedule, and P <= T."""
    offsets, w, P = draw(offsets_and_weights())
    more = [draw(hnp.arrays(np.float64, offsets.shape, elements=VALUES))
            for _ in range(draw(st.integers(0, 3)))]
    sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
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


def report_bytes(rep):
    """A report's constants as bytes, so that NaN and -0.0 compare too."""
    return np.array([rep.d2, rep.beta2, rep.nu2, rep.delta2, rep.max_round_sum,
                     rep.decomposition_residual]).tobytes()


def cold(report, *args):
    """`report(*args)` with no per-round pass kept from an earlier call."""
    analysis._ROUND_MAXIMA.clear()
    return report(*args)


@settings(max_examples=80, deadline=None)
@given(st.one_of(offset_stacks().map(lambda c: ("sampled", c)),
                 st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(1, 40),
                           st.booleans(), st.integers(0, 2**32))
                 .map(lambda c: ("exact", c))),
       st.data())
def test_round_pass_kept_across_P_matches_cold_calls(case, data):
    # one per-round pass serves a list of P, in any order and with repeats,
    # bit for bit as a fresh pass for each P would
    mode, args = case
    if mode == "sampled":
        offsets, sched, _ = args
        report, first = fa.divergence_at_offsets, offsets
        event(f"sampled, k > 1: {len(offsets) > 1}")
    else:
        N, m, T, rotate, seed = args
        report = fa.divergence_exact
        first = fa.build_quadratic(N, m, 1.0, 0.5, seed, rotate=rotate)
        sched = fa.generate_schedule(fa.PatternSpec("markov", S=max(1, N // 2),
                                                    p_aa=0.7, p_uu=0.6), N, T, seed)
        event("exact")
    Ps = data.draw(st.lists(st.integers(1, sched.T), min_size=1, max_size=6))
    analysis._ROUND_MAXIMA.clear()
    warm = [report(first, sched, P) for P in Ps]
    for P, rep in zip(Ps, warm):
        assert rep.P == P
        assert report_bytes(rep) == report_bytes(cold(report, first, sched, P))


@settings(max_examples=80, deadline=None)
@given(offset_stacks(), st.data())
def test_round_pass_not_kept_for_a_changed_schedule(case, data):
    # a schedule one client or one weight away from the one whose pass is
    # kept gets its own constants
    offsets, sched, P = case
    w = sched.weights
    t = data.draw(st.integers(0, sched.T - 1))
    n = data.draw(st.sampled_from(np.flatnonzero(w[t]).tolist()))
    absent = np.flatnonzero(w[t] == 0).tolist()
    changed = w.copy()
    if absent and data.draw(st.booleans()):
        changed[t, data.draw(st.sampled_from(absent))], changed[t, n] = w[t, n], 0.0
        event("one client moved")
    else:
        changed[t, n] *= 0.5
        event("one weight halved")
    other = fa.WeightSchedule.from_dense(changed, "manual", 0)
    kept = cold(fa.divergence_at_offsets, offsets, sched, P)
    rep = fa.divergence_at_offsets(offsets, other, P)
    assert report_bytes(rep) == report_bytes(cold(fa.divergence_at_offsets,
                                                  offsets, other, P))
    event(f"a kept pass would show: {report_bytes(rep) != report_bytes(kept)}")


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
    """The Markov generator as one loop over rounds: (weights, fallback rounds,
    rounds whose S-th and (S+1)-th smallest candidate scores tie)."""
    avail = np.empty((T, N), dtype=bool)
    avail[0] = rng.random(N) < (1.0 - p_uu) / (2.0 - p_aa - p_uu)
    u = rng.random((T - 1, N)) if T > 1 else np.empty((0, N))
    for t in range(1, T):
        avail[t] = np.where(avail[t - 1], u[t - 1] < p_aa, u[t - 1] >= p_uu)
    scores = rng.random((T, N))
    weights = np.zeros((T, N))
    fallback = tied = 0
    for t in range(T):
        idx = np.nonzero(avail[t])[0]
        if idx.size == 0:
            fallback += 1
            idx = np.arange(N)
        k = min(S, idx.size)
        order = np.argsort(scores[t, idx], kind="stable")
        chosen = idx[order[:k]]
        weights[t, chosen] = 1.0 / k
        tied += bool(idx.size > S and scores[t, chosen[-1]] == scores[t, idx[order[S]]])
    return weights, fallback, tied


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
    S above the available count, ties at the S-th score, T across blocks and
    packed rows of several bytes with padding bits all occur."""
    N = draw(st.integers(1, 130))
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
    sched, (weights, fallback, tied) = generate_markov(case)
    assert sched.weights.tobytes() == weights.tobytes()
    assert sched.fallback_rounds == fallback
    counts = (weights > 0).sum(axis=1)
    event(f"fallback rounds: {fallback > 0}")
    event(f"S > available in some round: {bool((counts < case['S']).any())}")
    event(f"crosses a block: {case['T'] > max(1, case['block_draws'] // case['N'])}")
    event(f"tie at the S-th score in some round: {tied > 0}")
    event(f"packed rows of bytes > 1, padded: {case['N'] > 8 and case['N'] % 8 > 0}")


def test_markov_matches_round_loop_at_block_size():
    # the generator's own block size, with T across two block boundaries
    case = dict(N=32, S=8, p_aa=0.9, p_uu=0.8, seed=11, levels=None,
                block_draws=participation._MARKOV_BLOCK_DRAWS)
    case["T"] = 2 * (case["block_draws"] // 32) + 5
    sched, (weights, fallback, _) = generate_markov(case)
    assert sched.weights.tobytes() == weights.tobytes()
    assert sched.fallback_rounds == fallback


def test_markov_matches_round_loop_when_every_round_ties():
    # two score levels, and every client stays available (u < p_aa and
    # u >= p_uu both hold for u = 0.5, and u = 0 keeps an available one):
    # each round holds many more than S clients at the S-th score
    case = dict(N=130, S=8, p_aa=0.75, p_uu=0.25, seed=3, levels=2,
                block_draws=7 * 130, T=50)
    sched, (weights, fallback, tied) = generate_markov(case)
    assert (fallback, tied) == (0, case["T"])
    assert sched.weights.tobytes() == weights.tobytes()


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


def permutation_reference(rng, spec, N, T):
    """The permutation generator as it was, before it became periodic
    availability with one group."""
    weights = np.zeros((T, N))
    rounds_per_perm = N // spec.S
    n_perms = -(-T // rounds_per_perm)
    perms = rng.permuted(np.tile(np.arange(N), (n_perms, 1)), axis=1)
    flat = perms.reshape(-1, spec.S)[:T]
    np.put_along_axis(weights, flat, 1.0 / spec.S, axis=1)
    return weights


@st.composite
def permutation_cases(draw):
    N = draw(st.integers(1, 40))
    S = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    spec = fa.PatternSpec("permutation", S=S)
    return spec, N, draw(st.integers(1, 200)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(permutation_cases())
def test_permutation_matches_former_generator(case):
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    ref = permutation_reference(fa.substream(seed, "schedule"), spec, N, T)
    assert sched.weights.tobytes() == ref.tobytes()
    event(f"last permutation cut short: {T % (N // spec.S) != 0}")


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
    # so no weight is stored, and every slice of rounds reads 1/k per entry
    assert sched.q is None
    assert sched.entry_weights(0, T).tobytes() == np.repeat(1.0 / k, k).tobytes()
    lo, hi = sorted((seed % (T + 1), (seed // 7) % (T + 1)))
    assert sched.entry_weights(lo, hi).tobytes() == \
        np.repeat(1.0 / k[lo:hi], k[lo:hi]).tobytes()


def mask_schedule_reference(spec, N, T, seed):
    """generate_schedule as it was when every kind marked its clients in a
    (T, N) boolean mask, verbatim but for comments, the int64 position
    check and the int32 clients: the schedule its rows give."""
    def independent_fill(rng, S, chosen):
        T, N = chosen.shape
        rows = max(1, participation._BLOCK_ENTRIES // N)
        for lo in range(0, T, rows):
            scores = rng.random((min(rows, T - lo), N))
            np.put_along_axis(chosen[lo:lo + len(scores)],
                              np.argpartition(scores, S - 1, axis=1)[:, :S], True, axis=1)

    def periodic_fill(rng, spec, chosen):
        T, N = chosen.shape
        G, B, offset = ((spec.G, spec.B, spec.offset) if spec.kind == "periodic"
                        else (1, T, 0))
        size = N // G
        pos = np.arange(T) + (offset if isinstance(offset, int)
                              else int(rng.integers(G * B)))
        rounds_per_perm = max(size // spec.S, 1)
        fresh = pos % B % rounds_per_perm == 0
        fresh[0] = True
        starts = np.flatnonzero(fresh)
        perms = rng.permuted(pos[starts, None] // B % G * size + np.arange(size), axis=1)
        served = np.diff(starts, append=T)[:, None] * spec.S
        np.put_along_axis(chosen, perms[np.arange(size) < served].reshape(T, spec.S),
                          True, axis=1)

    def markov_fill(rng, spec, chosen):
        T, N = chosen.shape
        rows = max(1, participation._MARKOV_BLOCK_DRAWS // N)
        avail = chosen
        avail[0] = rng.random(N) < (1.0 - spec.p_uu) / (2.0 - spec.p_aa - spec.p_uu)
        for lo in range(1, T, rows):
            u = rng.random((min(rows, T - lo), N))
            a, b = u < spec.p_aa, u >= spec.p_uu
            parity = np.logical_xor.accumulate(b & ~a, axis=0)
            base = np.empty((len(u) + 1, N), dtype=bool)
            base[0] = avail[lo - 1]
            np.logical_xor(a, parity, out=base[1:])
            last = (a == b) * np.arange(1, len(u) + 1)[:, None]
            np.maximum.accumulate(last, axis=0, out=last)
            np.logical_xor(np.take_along_axis(base, last, axis=0), parity,
                           out=avail[lo:lo + len(u)])

        empty = ~avail.any(axis=1)
        for lo in range(0, T, rows):
            scores = rng.random((min(rows, T - lo), N))
            candidate = avail[lo:lo + len(scores)]
            candidate |= empty[lo:lo + len(scores), None]
            np.copyto(scores, np.inf, where=~candidate)
            kth = np.partition(scores, spec.S - 1, axis=1)[:, spec.S - 1:spec.S]
            below, at_kth = scores < kth, scores == kth
            at_kth &= np.cumsum(at_kth, axis=1) <= spec.S - below.sum(axis=1, keepdims=True)
            candidate &= below | at_kth
        return int(empty.sum())

    rng = fa.substream(seed, "schedule")
    chosen = np.zeros((T, N), dtype=bool)
    fallback = 0
    if spec.kind == "full":
        chosen[:] = True
    elif spec.kind == "independent":
        independent_fill(rng, spec.S, chosen)
    elif spec.kind == "markov":
        fallback = markov_fill(rng, spec, chosen)
    else:
        periodic_fill(rng, spec, chosen)
    k = chosen.sum(axis=1)
    idx = np.flatnonzero(chosen)
    idx %= N
    return fa.WeightSchedule(indptr=participation._row_pointers(k), idx=idx.astype(np.int32),
                             q=np.repeat(1.0 / k, k), N=N, pattern=spec.describe(),
                             seed=int(seed), fallback_rounds=fallback)


def assert_matches_mask_generator(spec, N, T, seed, block):
    with mock.patch.object(participation, "_BLOCK_ENTRIES", block), \
            mock.patch.object(participation, "_MARKOV_BLOCK_DRAWS", block):
        sched = fa.generate_schedule(spec, N, T, seed)
        ref = mask_schedule_reference(spec, N, T, seed)
    assert same_rows(sched, ref)
    assert (sched.pattern, sched.fallback_rounds) == (ref.pattern, ref.fallback_rounds)


@settings(max_examples=300, deadline=None)
@given(patterns(), st.sampled_from([1, 7, 64, 1 << 17]))
def test_generated_rows_match_mask_generator(case, block):
    assert_matches_mask_generator(*case, block)


@pytest.mark.parametrize("spec", [
    fa.PatternSpec("full"),
    fa.PatternSpec("independent", S=1), fa.PatternSpec("independent", S=12),
    fa.PatternSpec("permutation", S=1), fa.PatternSpec("permutation", S=12),
    fa.PatternSpec("periodic", S=1, G=3, B=2), fa.PatternSpec("periodic", S=4, G=3, B=2),
    fa.PatternSpec("periodic", S=12, G=1, B=5, offset=4),
    fa.PatternSpec("markov", S=1, p_aa=0.6, p_uu=0.7),
    fa.PatternSpec("markov", S=12, p_aa=0.6, p_uu=0.7),
    fa.PatternSpec("markov", S=5, p_aa=0.05, p_uu=0.99),    # mostly fallback rounds
], ids=lambda spec: spec.describe())
@pytest.mark.parametrize("T", [1, 2, 45])
def test_generated_rows_match_mask_generator_at_edges(spec, T):
    # N = 12: S = 1, S = N (or the whole group), and a single round
    assert_matches_mask_generator(spec, 12, T, 5, 1 << 17)


def lag_cov_reference(w, n_lags):
    """The mean of each lag's centered products (w[t, n] - 1/N) *
    (w[t + p, n] - 1/N) for p < n_lags, exact and rounded once.  Every
    double is a dyadic rational, so the centered weights times their
    largest denominator are integers, and their product sums are exact."""
    T, N = w.shape
    mu = Fraction(1.0 / N)
    centered = [Fraction(v) - mu for v in w.ravel().tolist()]
    scale = max(c.denominator for c in centered)
    c = np.array([x.numerator * (scale // x.denominator) for x in centered],
                 dtype=object).reshape(T, N)
    return [float(Fraction(int(np.sum(c[:T - p] * c[p:])), (T - p) * N * scale**2))
            for p in range(n_lags)]


@settings(max_examples=200, deadline=None)
@given(patterns(), st.data())
def test_window_lag_cov_matches_centered_products(case, data):
    # every generated row holds equal weights 1/k_t, so each lag is exact
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    P = data.draw(st.integers(1, T), label="P")
    max_lag = data.draw(st.integers(0, T + 3), label="max_lag")
    block = data.draw(st.sampled_from([1, 3, 16, 64, 1 << 17]), label="block entries")
    with mock.patch.object(participation, "_BLOCK_ENTRIES", block):
        lags = fa.window_averages(sched, P, max_lag=max_lag).lag_cov
    n_lags = min(max_lag + 1, T)
    expect = lag_cov_reference(sched.weights, n_lags) + [np.nan] * (max_lag + 1 - n_lags)
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


# ---------------------------------------------------------------------------
# sparse schedules against the dense (T, N) code they replaced
# ---------------------------------------------------------------------------

def verify_simplex_reference(w):
    """verify_simplex on dense weights, as the dense row pass it replaced
    computed them: the report's fields."""
    with np.errstate(invalid="ignore"):
        row_err = np.abs(w.sum(axis=1) - 1.0)
    neg = w.min()
    bad = np.nonzero(~(row_err <= participation.SIMPLEX_TOL) | (w.min(axis=1) < 0))[0]
    return (bad.size == 0, float(row_err.max()), float(neg),
            float(np.max(np.sum(w**2, axis=1))), bad[:20].tolist())


def verify_simplex_sparse_reference(sched):
    """verify_simplex's sums on the stored rows of finite weights, a round at
    a time: (max row error, rho2), each round's sums `np.sum` of its entries."""
    q = sched.entry_weights(0, sched.T)
    rows = [q[a:b] for a, b in zip(sched.indptr[:-1], sched.indptr[1:])]
    return (float(max(abs(np.sum(r) - 1.0) for r in rows)),
            float(max(np.sum(r * r) for r in rows)))


def window_averages_reference(w, P, max_lag):
    """window_averages on dense weights, verbatim, with each lag the exact
    mean of its centered products: (qbar, dev2, var, lags)."""
    T, N = w.shape
    n_windows = T // P
    qbar = w[:n_windows * P].reshape(n_windows, P, N).mean(axis=1)
    mu = 1.0 / N
    dev2 = (qbar - mu) ** 2
    lags = np.full(max_lag + 1, np.nan)
    n_lags = min(max_lag, T - 1) + 1
    lags[:n_lags] = lag_cov_reference(w, n_lags)
    return qbar, dev2, float(dev2.mean()), lags


def divergence_reference(offsets, w, P):
    """divergence_at_offsets on dense weights, verbatim, with its
    _round_quantities in blocks of 1024 rows: the report's fields."""
    def round_quantities(offs):
        T = w.shape[0]
        block = 1024
        beta_t, nu_t = np.empty(T), np.empty(T)
        for lo in range(0, T, block):
            wb = w[lo:lo + block]
            b = wb @ offs
            beta_t[lo:lo + block] = np.sum(b**2, axis=1)
            diff = offs[None, :, :] - b[:, None, :]
            nu_t[lo:lo + block] = np.einsum("tn,tnm->t", wb, diff**2)
        weighted_d2 = w @ np.sum(offs**2, axis=1)
        n_windows = T // P
        delta2 = 0.0
        if n_windows:
            b = w[:n_windows * P] @ offs
            win = b.reshape(n_windows, P, -1).mean(axis=1)
            delta2 = float(np.max(np.sum(win**2, axis=1)))
        return beta_t, nu_t, weighted_d2, delta2

    per_point = []
    with np.errstate(over="ignore", invalid="ignore"):
        for offs in offsets:
            beta_t, nu_t, lhs, delta2 = round_quantities(offs)
            rhs = beta_t + nu_t
            residual = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-30)
            per_point.append([np.max(np.sum(offs**2, axis=1)), beta_t.max(),
                              nu_t.max(), delta2, rhs.max(), residual.max()])
    return np.max(per_point, axis=0)


def run_reference(pop, noise, schedule, cfg, seed):
    """run and run_wait_baseline on dense weights, verbatim, except that the
    dense array is read from the schedule once."""
    weights = schedule.weights
    rounds = _Rounds(pop, noise, schedule, cfg, seed)
    P, T = cfg.amplify_every, cfg.rounds
    if cfg.mode != "generalized":
        gen = np.random.Generator(np.random.Philox())

        def update(t, x):
            if (t + 1) % P:
                return True
            t_start = t + 1 - P
            window = weights[t_start:t + 1]
            clients, offsets = np.nonzero(window.T)
            appearing = {}
            for n, tr in zip(clients.tolist(), (offsets + t_start).tolist()):
                appearing.setdefault(n, []).append(tr)
            step = np.zeros(pop.m)
            for n, rounds_n in appearing.items():
                if cfg.mode == "wait_full":
                    g = pop.grad(n, x)
                else:
                    g = np.zeros(pop.m)
                    for tr in rounds_n:
                        rng = fa.substream(seed, "local", tr, n, reuse=gen)
                        g += pop.stochastic_grad(noise, n, x, rng, cfg.minibatch)
                    g /= len(rounds_n)
                step += -cfg.gamma * cfg.local_steps * g
            x += step / len(appearing)
            return np.isfinite(x).all()

        return rounds.loop(np.array(cfg.x0, dtype=float), update)
    u = np.zeros(pop.m)
    x_start = np.array(cfg.x0, dtype=float)
    per_round = np.count_nonzero(weights[:T] > 0, axis=1)
    local = _LocalSteps(pop, noise, cfg, seed, int(per_round.max(initial=0)))

    def update(t, x):
        q = weights[t]
        active = (q > 0).nonzero()[0]
        deltas = local(active, x, t)
        deltas *= q[active][:, None]
        step = deltas.sum(axis=0)
        x += step
        np.add(u, step, out=u)
        if (t + 1) % P == 0:
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.linalg.norm((x - x_start) - u)
                rel = residual / max(np.linalg.norm(x), 1e-30)
            if np.isfinite(rel):
                rounds.max_residual = max(rounds.max_residual, rel)
            amplify(x, u, cfg.eta)
            x_start[:] = x
        return np.isfinite(x).all()

    return rounds.loop(x_start.copy(), update)


def independent_reference(rng, S, N, T):
    """The independent generator as one (T, N) draw into dense weights."""
    weights = np.zeros((T, N))
    sel = np.argpartition(rng.random((T, N)), S - 1, axis=1)[:, :S]
    np.put_along_axis(weights, sel, 1.0 / S, axis=1)
    return weights


def same_rows(a, b):
    """Two schedules hold the same rows, bit for bit."""
    return (a.T, a.N) == (b.T, b.N) and all(
        x.tobytes() == y.tobytes() and x.dtype == y.dtype
        for x, y in ((a.indptr, b.indptr), (a.idx, b.idx),
                     (a.entry_weights(0, a.T), b.entry_weights(0, b.T))))


@st.composite
def schedules(draw):
    """A generated schedule of any kind, or a hand-built one with unequal
    weights, and patched block sizes, so that passes cross blocks."""
    if draw(st.booleans()):
        spec, N, T, seed = draw(patterns())
        sched = fa.generate_schedule(spec, N, T, seed)
    else:
        _, w, _ = draw(offsets_and_weights())
        sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
    return sched, draw(st.sampled_from([1, 3, 16, 64, 1 << 17]))


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_dense_weights_stored_in_one_layout(case):
    # q is None exactly when every row holds equal weights 1/k; either way
    # the rows survive from_dense and a CSV file bit for bit
    _, w, _ = case
    sched = fa.WeightSchedule.from_dense(w, "manual", 0)
    k = np.count_nonzero(w, axis=1)
    equal = all((row[row != 0] == 1.0 / k_t).all() for row, k_t in zip(w, k))
    assert (sched.q is None) == equal
    assert sched.entry_weights(0, sched.T).tobytes() == w[w != 0].tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sched.csv"
        sched.to_csv(path)
        back = fa.load_schedule_csv(path, N=sched.N)
    assert same_rows(back, sched) and (back.q is None) == equal
    if not equal:
        assert back.q.tobytes() == sched.q.tobytes()
    event(f"equal rows: {equal}")


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_sparse_rows_round_trip_through_dense(case):
    spec, N, T, seed = case
    sched = fa.generate_schedule(spec, N, T, seed)
    w = sched.weights
    back = fa.WeightSchedule.from_dense(w, sched.pattern, sched.seed,
                                        sched.fallback_rounds)
    assert same_rows(back, sched)
    assert (back.pattern, back.seed, back.fallback_rounds) == \
        (sched.pattern, sched.seed, sched.fallback_rounds)
    assert back.weights.tobytes() == w.tobytes()
    assert w.shape == (T, N)
    for t in range(T):      # rows strictly ascending, every weight stored
        row = sched.idx[sched.indptr[t]:sched.indptr[t + 1]]
        assert (np.diff(row) > 0).all()
        assert (w[t, row] != 0).all() and np.count_nonzero(w[t]) == len(row)
    lo, hi = sorted((seed % (T + 1), (seed // 7) % (T + 1)))
    assert sched[lo:hi].tobytes() == w[lo:hi].tobytes()


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_csv_round_trip_is_exact(case):
    sched, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sched.csv"
        sched.to_csv(path)
        back = fa.load_schedule_csv(path, N=sched.N)
    assert same_rows(back, sched)
    assert back.weights.tobytes() == sched.weights.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 300), st.integers(0, 2**32), st.data())
def test_independent_matches_one_shot_draw(N, T, seed, data):
    S = data.draw(st.integers(1, N), label="S")
    block = data.draw(st.sampled_from([1, 7, 64, 1 << 17]), label="block entries")
    with mock.patch.object(participation, "_BLOCK_ENTRIES", block):
        sched = fa.generate_schedule(fa.PatternSpec("independent", S=S), N, T, seed)
    ref = independent_reference(fa.substream(seed, "schedule"), S, N, T)
    assert sched.weights.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(schedules(), st.data())
def test_sparse_reductions_match_dense(case, data):
    sched, block = case
    w = sched.weights
    P = data.draw(st.integers(1, sched.T), label="P")
    max_lag = data.draw(st.integers(0, sched.T + 3), label="max_lag")
    with mock.patch.object(participation, "_BLOCK_ENTRIES", block):
        rep = fa.verify_simplex(sched)
        stats = fa.window_averages(sched, P, max_lag=max_lag)
    ref = window_averages_reference(w, P, max_lag)
    ok, err, min_weight, rho2, bad = verify_simplex_reference(w)
    assert (rep.ok, rep.bad_rounds) == (ok, bad)
    assert np.float64(rep.min_weight).tobytes() == np.float64(min_weight).tobytes()
    assert np.array([rep.max_row_error, rep.rho2]).tobytes() \
        == np.array(verify_simplex_sparse_reference(sched)).tobytes()
    # a dense row puts zeros between the entries, so its pairwise sums group
    # them otherwise: a row of k nonnegative entries errs by k * eps of its sum
    tol = np.finfo(float).eps * np.count_nonzero(w, axis=1).max()
    assert abs(rep.max_row_error - err) <= tol * w.sum(axis=1).max()
    assert abs(rep.rho2 - rho2) <= tol * rho2
    for got, expect in zip((stats.qbar, stats.deviations_sq, stats.var_qbar), ref):
        assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
    k = np.count_nonzero(w, axis=1)
    equal_rows = all((row[row != 0] == 1.0 / k_t).all() for row, k_t in zip(w, k))
    if equal_rows and k.min() > 0:
        assert stats.lag_cov.tobytes() == ref[3].tobytes()
    else:
        # any summation order errs by at most (n + 2) * 2**-53 of the mean
        # absolute product, n products a lag, plus the final rounding
        T, N = w.shape
        c = w - 1.0 / N
        for p, (got, expect) in enumerate(zip(stats.lag_cov[:T], ref[3][:T])):
            n = (T - p) * N
            bound = (n + 2) * np.finfo(float).eps * np.mean(np.abs(c[:T - p] * c[p:]))
            assert abs(got - expect) <= bound + np.spacing(abs(expect))
        assert np.isnan(stats.lag_cov[T:]).all()
    event(f"lag pass: {'exact' if equal_rows and k.min() > 0 else 'dense'}")
    assert fa.window_averages(sched, P).lag_cov.size == 0


@settings(max_examples=100, deadline=None)
@given(offset_stacks())
def test_sparse_divergence_matches_dense(case):
    offsets, sched, P = case
    rep = fa.divergence_at_offsets(offsets, sched, P)
    got = [rep.d2, rep.beta2, rep.nu2, rep.delta2, rep.max_round_sum,
           rep.decomposition_residual]
    assert np.array(got).tobytes() == divergence_reference(offsets, sched.weights,
                                                           P).tobytes()


@pytest.mark.parametrize("T,P", [(1025, 1), (1025, 4), (1500, 1025), (2049, 3),
                                 (2049, 2049), (2050, 1025), (3072, 5)])
@pytest.mark.parametrize("m", [1, 3])
def test_sparse_divergence_matches_dense_across_round_blocks(T, P, m):
    # 1-row tails past a multiple of _ROUND_BLOCK, in T or in the windowed rows
    rng = np.random.default_rng(T * 10 + m)
    N = 12
    specs = [fa.PatternSpec("markov", S=4, p_aa=0.7, p_uu=0.6),
             fa.PatternSpec("permutation", S=3), fa.PatternSpec("full")]
    raw = rng.random((T, N)) * (rng.random((T, N)) < 0.4)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    scheds = [fa.generate_schedule(s, N, T, T + m) for s in specs]
    scheds.append(fa.WeightSchedule.from_dense(raw / raw.sum(axis=1, keepdims=True),
                                               "manual", 0))
    offsets = rng.normal(size=(2, N, m))
    for sched in scheds:
        rep = fa.divergence_at_offsets(offsets, sched, P)
        got = [rep.d2, rep.beta2, rep.nu2, rep.delta2, rep.max_round_sum,
               rep.decomposition_residual]
        assert np.array(got).tobytes() == divergence_reference(
            offsets, sched.weights, P).tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32), st.data())
@pytest.mark.parametrize("T", [1, 2, 3, 129, 1024, 1025, 1026, 2049])
def test_sparse_divergence_matches_dense_across_round_pieces(T, N, m, seed, data):
    # the round pass sums each 1024-row block's spreads in pieces of about
    # entries / (N * m) rows and at least 2: 2 (also for 1), 3 and 128 rows
    # (a 129-row block stays whole), or whole blocks
    rows = data.draw(st.sampled_from([1, 2, 3, 128, 1 << 17]), label="rows")
    rng = np.random.default_rng(seed)
    raw = rng.random((T, N)) * (rng.random((T, N)) < 0.5)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    scheds = [fa.WeightSchedule.from_dense(raw / raw.sum(axis=1, keepdims=True),
                                           "manual", 0),
              fa.generate_schedule(fa.PatternSpec("independent", S=(N + 1) // 2),
                                   N, T, seed)]
    offsets = rng.normal(size=(2, N, m))
    with mock.patch.object(analysis, "_ROUND_ENTRIES", rows * N * m):
        for sched in scheds:
            rep = fa.divergence_at_offsets(offsets, sched, data.draw(
                st.integers(1, T), label="P"))
            got = [rep.d2, rep.beta2, rep.nu2, rep.delta2, rep.max_round_sum,
                   rep.decomposition_residual]
            assert np.array(got).tobytes() == divergence_reference(
                offsets, sched.weights, rep.P).tobytes()


def test_negative_and_nan_weights_kept_for_verify_simplex():
    w = np.array([[0.5, 0.7, -0.2], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.25, -0.0, 0.75]])
    sched = fa.WeightSchedule.from_dense(w, "manual", 0)
    assert sched.indptr.tolist() == [0, 3, 5, 6, 8]
    assert sched.weights.tobytes() == np.where(w == 0, 0.0, w).tobytes()
    rep = fa.verify_simplex(sched)
    ok, err, neg, rho2, bad = verify_simplex_reference(w)
    assert not rep.ok and rep.bad_rounds == bad == [0, 1]
    assert np.array([err, neg, rho2]).tobytes() == \
        np.array([rep.max_row_error, rep.min_weight, rep.rho2]).tobytes()
    with pytest.raises(ValueError, match=r"rounds \[0, 1\]"):
        fa.verify_simplex(sched, strict=True)


@st.composite
def small_runs_all_modes(draw):
    """A run of any mode, on a generated schedule or on hand-built unequal
    weights."""
    pop, noise, sched, T, Ps, I, seed = draw(small_runs())
    if draw(st.booleans()):
        raw = draw(hnp.arrays(np.float64, (T, pop.N), elements=st.one_of(
            st.just(0.0), st.floats(1e-3, 1.0))))
        raw[raw.sum(axis=1) == 0, draw(st.integers(0, pop.N - 1))] = 1.0
        sched = fa.WeightSchedule.from_dense(raw / raw.sum(axis=1, keepdims=True),
                                             "manual", 0)
    cfg = fa.RunConfig(gamma=0.05, eta=draw(st.sampled_from([1.0, 2.5])),
                       local_steps=I, amplify_every=Ps[0], rounds=T,
                       x0=np.ones(pop.m), eval_every=draw(st.integers(0, 3)) or None,
                       mode=draw(st.sampled_from(MODES)))
    return pop, noise, sched, cfg, seed


@settings(max_examples=150, deadline=None)
@given(small_runs_all_modes())
def test_sparse_run_matches_dense(case):
    pop, noise, sched, cfg, seed = case
    got = fa.run(pop, noise, sched, cfg, seed)
    ref = run_reference(pop, noise, sched, cfg, seed)
    for name in ("t", "f", "grad_norm_sq", "min_grad_norm_sq", "is_boundary",
                 "x_final"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert (got.diverged_round, got.max_boundary_residual, got.meta) == \
        (ref.diverged_round, ref.max_boundary_residual, ref.meta)
    event(f"mode: {cfg.mode}")
