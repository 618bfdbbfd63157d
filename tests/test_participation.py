"""Participation schedules: simplex structure, pattern statistics, I/O."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import fedamp as fa
from fedamp import participation
from fedamp.engine import MODES


def make(kind, N, T, seed=0, **kw):
    return fa.generate_schedule(fa.PatternSpec(kind, **kw), N, T, seed)


class TestSimplexAndRho:
    @pytest.mark.parametrize("kind,kw", [
        ("full", {}),
        ("independent", {"S": 3}),
        ("permutation", {"S": 4}),
        ("periodic", {"S": 2, "G": 3, "B": 5}),
        ("markov", {"S": 3, "p_aa": 0.9, "p_uu": 0.8}),
    ])
    def test_rows_on_simplex(self, kind, kw):
        sched = make(kind, N=12, T=200, seed=3, **kw)
        report = fa.verify_simplex(sched)
        assert report.ok
        assert report.max_row_error <= 1e-12
        assert report.min_weight >= 0.0

    def test_rho_examples(self):
        # equal weights over S participants: rho = 1/sqrt(S)
        sched = make("permutation", N=20, T=40, S=10)
        assert fa.rho_bound(sched) == pytest.approx(1 / np.sqrt(10), abs=1e-15)
        assert fa.rho_bound(sched) == pytest.approx(0.31622776601683794)
        full = make("full", N=16, T=10)
        assert fa.rho_bound(full) == pytest.approx(0.25)  # 1/sqrt(N)
        pair = make("independent", N=8, T=30, S=2)
        assert fa.rho_bound(pair) == pytest.approx(0.70710678118654752)

    def test_no_clients_rejected(self):
        # full weights are 1/N
        with pytest.raises(ValueError, match="need N >= 1, got N=0"):
            make("full", N=0, T=4)

    def test_verify_simplex_catches_bad_rows(self):
        w = np.full((4, 3), 1 / 3.0)
        w[2] = [0.6, 0.6, 0.0]     # sums to 1.2
        sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
        report = fa.verify_simplex(sched)
        assert not report.ok
        assert report.bad_rounds == [2]
        with pytest.raises(ValueError):
            fa.verify_simplex(sched, strict=True)

    @pytest.mark.parametrize("row", [[0.5, np.nan, 0.5], [np.inf, -np.inf, 1.0],
                                     [np.inf, 0.0, 0.0]], ids=["nan", "inf-inf", "inf"])
    def test_verify_simplex_catches_non_finite_weights(self, row):
        w = np.full((3, 3), 1 / 3.0)
        w[1] = row
        sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
        assert fa.verify_simplex(sched).bad_rounds == [1]
        with pytest.raises(ValueError, match=r"rounds \[1\]"):
            fa.verify_simplex(sched, strict=True)

    @pytest.mark.parametrize("indptr,idx,q", [
        ([0, 2], [0, 3], None),             # a client beyond N
        ([0, 2], [-1, 0], None),            # a negative client
        ([0, 2], [1, 1], [0.25, 0.75]),     # a repeated client
        ([0, 2], [2, 0], [0.25, 0.75]),     # a descending row
        ([0, 1, 1], [0], None),             # equal weights 1/k with k = 0
    ], ids=["beyond_N", "negative", "repeated", "descending", "empty_equal_round"])
    def test_verify_simplex_rejects_malformed_rows(self, indptr, idx, q):
        # warnings are errors here, so no RuntimeWarning escapes either
        sched = fa.WeightSchedule(indptr=np.array(indptr), idx=np.array(idx, dtype=np.int32),
                                  q=None if q is None else np.array(q), N=3,
                                  pattern="manual", seed=0)
        with pytest.raises(ValueError, match=r"in \[0, N=3\) and strictly ascend"):
            fa.verify_simplex(sched)
        with pytest.raises(ValueError, match="strictly ascend"):
            fa.rho_bound(sched)

    def test_run_rejects_a_negative_client(self):
        # client -1 would index client N - 1 of the population
        pop = fa.build_quadratic(N=3, m=2, L=1.0, spread=1.0, seed=0)
        sched = fa.WeightSchedule(indptr=np.array([0, 2]), idx=np.array([-1, 0]),
                                  q=None, N=3, pattern="manual", seed=0)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=1, x0=np.ones(2))
        with pytest.raises(ValueError, match="strictly ascend"):
            fa.run(pop, fa.NoiseModel("none", 0.0), sched, cfg, seed=0)

    def test_full_participation_sums_pairwise(self):
        # a sequential sum of 10**6 weights fl(1e-6) misses 1 by 7.9e-12,
        # beyond SIMPLEX_TOL; the dense row's pairwise sum errs by 4.4e-16
        rep = fa.verify_simplex(make("full", N=10**6, T=1), strict=True)
        assert rep.ok and rep.max_row_error <= 4.5e-16
        assert rep.min_weight == 1e-6 and rep.rho2 > 0

    def test_run_path_builds_no_dense_row(self, tmp_path):
        pop = fa.build_quadratic(N=6, m=3, L=1.0, spread=1.0, seed=1)
        w = np.zeros((12, 6))
        w[np.arange(12), np.arange(12) % 6] = 0.75
        w[np.arange(12), (np.arange(12) + 2) % 6] = 0.25
        stored = fa.WeightSchedule.from_dense(w, "manual", 0)
        generated = make("independent", N=6, T=12, S=3)
        path = tmp_path / "sched.csv"
        stored.to_csv(path)
        with mock.patch.object(fa.WeightSchedule, "__getitem__",
                               side_effect=AssertionError("a dense block was built")):
            assert fa.load_schedule_csv(path, N=6).q is not None
            for sched in (generated, stored):
                assert fa.verify_simplex(sched, strict=True).ok
                assert fa.rho_bound(sched) > 0
                for mode in MODES:
                    cfg = fa.RunConfig(gamma=0.05, eta=2.0, local_steps=2,
                                       amplify_every=4, rounds=12, x0=np.ones(3),
                                       mode=mode)
                    trace = fa.run(pop, fa.NoiseModel("gaussian", 0.1), sched, cfg, 0)
                    assert not trace.diverged


class TestPermutation:
    def test_every_window_averages_to_uniform(self):
        N, S = 24, 6
        sched = make("permutation", N=N, T=120, S=S, seed=9)
        stats = fa.window_averages(sched, P=N // S)
        np.testing.assert_array_equal(stats.qbar, np.full_like(stats.qbar, 1 / N))
        assert stats.var_qbar == 0.0

    def test_each_round_has_exactly_S_participants(self):
        sched = make("permutation", N=12, T=77, S=3, seed=1)
        counts = (sched.weights > 0).sum(axis=1)
        assert (counts == 3).all()
        np.testing.assert_allclose(sched.weights[sched.weights > 0], 1 / 3.0)

    def test_requires_S_dividing_N(self):
        with pytest.raises(ValueError):
            make("permutation", N=10, T=5, S=3)

    def test_is_periodic_with_one_group(self):
        # one group, available for the whole run: the same draws and weights
        perm = make("permutation", N=12, T=77, S=3, seed=4)
        periodic = make("periodic", N=12, T=77, S=3, G=1, B=77, offset=0, seed=4)
        assert perm.weights.tobytes() == periodic.weights.tobytes()


class TestPeriodic:
    def test_selection_stays_inside_active_group(self):
        N, G, B, S = 12, 3, 4, 2
        sched = make("periodic", N=N, T=60, S=S, G=G, B=B, offset=0, seed=5)
        group_size = N // G
        for t in range(60):
            active = (t // B) % G
            chosen = np.nonzero(sched.weights[t])[0]
            assert len(chosen) == S
            assert all(active * group_size <= c < (active + 1) * group_size
                       for c in chosen)

    def test_block_coverage_is_regularized(self):
        # a full cycle gives every client the same appearance count
        N, G, B, S = 10, 2, 5, 5
        sched = make("periodic", N=N, T=G * B, S=S, G=G, B=B, offset=0, seed=2)
        appearances = (sched.weights > 0).sum(axis=0)
        assert len(set(appearances.tolist())) == 1

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            make("periodic", N=12, T=10, S=2, G=3, B=4, offset=12)
        with pytest.raises(ValueError):
            make("periodic", N=12, T=10, S=5, G=3, B=4)  # S > group size


class TestMarkov:
    def test_stationary_participation_frequency(self):
        # availability chain: pi = (1-p_uu)/(2-p_aa-p_uu) = 2/3; with S=N
        # every available client is picked, so the participation frequency
        # of a client equals pi
        N = 10
        sched = make("markov", N=N, T=40000, S=N, p_aa=0.9, p_uu=0.8, seed=4)
        freq = (sched.weights > 0).mean(axis=0)
        pi = (1 - 0.8) / (2 - 0.9 - 0.8)
        assert freq.mean() == pytest.approx(pi, rel=0.02)

    def test_first_and_second_half_stationary(self):
        sched = make("markov", N=8, T=20000, S=2, p_aa=0.9, p_uu=0.8, seed=6)
        active = sched.weights > 0
        a, b = active[:10000].mean(), active[10000:].mean()
        se = np.sqrt(a * (1 - a) / (10000 * 8))
        assert abs(a - b) <= 3 * se + 1e-12

    def test_fallback_counts_empty_rounds(self):
        # nearly always-unavailable chain forces uniform fallback rounds
        sched = make("markov", N=3, T=400, S=2, p_aa=0.01, p_uu=0.99, seed=7)
        assert sched.fallback_rounds > 0
        assert fa.verify_simplex(sched).ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make("markov", N=4, T=10, S=2, p_aa=1.0, p_uu=0.5)


class TestDeterminismAndIO:
    def test_same_seed_bit_identical(self):
        for kind, kw in [("independent", {"S": 3}),
                         ("markov", {"S": 3, "p_aa": 0.9, "p_uu": 0.8}),
                         ("periodic", {"S": 2, "G": 2, "B": 3})]:
            a = make(kind, N=8, T=50, seed=11, **kw)
            b = make(kind, N=8, T=50, seed=11, **kw)
            np.testing.assert_array_equal(a.weights, b.weights)
            c = make(kind, N=8, T=50, seed=12, **kw)
            assert not np.array_equal(a.weights, c.weights)

    def test_csv_round_trip(self, tmp_path):
        sched = make("independent", N=7, T=31, S=2, seed=13)
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        back = fa.load_schedule_csv(path, N=7)
        np.testing.assert_array_equal(back.weights, sched.weights)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,1\n")
        with pytest.raises(ValueError):
            fa.load_schedule_csv(path)

    @pytest.mark.parametrize("rows,N", [
        ("0,0,0.5\n0,0,1.0\n", None),   # duplicate entry would overwrite
        ("0,-1,1.0\n", 3),               # negative client would wrap
        ("0,3,1.0\n", 3),                # client outside the population
        ("-1,0,1.0\n", None),            # negative round
    ], ids=["duplicate", "negative_client", "client_beyond_N", "negative_round"])
    def test_load_rejects_bad_rows(self, tmp_path, rows, N):
        path = tmp_path / "bad.csv"
        path.write_text("t,n,q\n" + rows)
        last = len(rows.splitlines()) + 1
        with pytest.raises(ValueError, match=f"line {last} "):
            fa.load_schedule_csv(path, N=N)

    @pytest.mark.parametrize("row", ["9223372036854775807,0,1",    # T = 2**63
                                     "0,9223372036854775808,1",
                                     "0,2147483647,1"])      # N = 2**31: clients are int32
    def test_load_rejects_indices_beyond_int64(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("t,n,q\n" + row + "\n")
        with pytest.raises(ValueError, match="line 2 .*need 0 <= t < 2\\*\\*63 - 1"):
            fa.load_schedule_csv(path)

    def test_load_drops_explicit_zeros(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("t,n,q\n1,1,1.0\n0,2,0.0\n0,0,1\n2,0,0\n2,2,1\n")
        sched = fa.load_schedule_csv(path)
        assert (sched.T, sched.N) == (3, 3)
        assert sched.indptr.tolist() == [0, 1, 2, 3]
        assert sched.idx.tolist() == [0, 1, 2]
        assert sched.q is None and sched.entry_weights(0, 3).tolist() == [1.0] * 3

    def test_load_rejects_non_simplex(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,n,q\n0,0,0.5\n0,1,0.9\n")
        with pytest.raises(ValueError):
            fa.load_schedule_csv(path)

    @pytest.mark.parametrize("rows", ["0,0,nan\n", "0,0,0.5\n0,1,nan\n1,0,1\n",
                                      "0,0,inf\n0,1,-inf\n"])
    def test_load_rejects_non_finite_weight(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("t,n,q\n" + rows)
        with pytest.raises(ValueError, match=r"rounds \[0\]"):
            fa.load_schedule_csv(path)


class TestWeightLayout:
    """A schedule stores no weights when every row holds k >= 1 equal
    weights 1/k, and each entry's weight otherwise."""

    def test_equal_weights_from_dense_store_none(self):
        w = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]])
        sched = fa.WeightSchedule.from_dense(w, "manual", 0)
        assert sched.q is None
        assert sched.weights.tobytes() == w.tobytes()
        direct = fa.WeightSchedule(indptr=sched.indptr, idx=sched.idx,
                                   q=np.array([0.5, 0.5, 1.0] + [1 / 3] * 3), N=3,
                                   pattern="manual", seed=0)
        assert direct.q is None

    @pytest.mark.parametrize("w", [
        [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]],         # unequal in one row
        [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]],           # a row with no entry
        [[0.5, 0.5 + 2**-53, 0.0], [1.0, 0.0, 0.0]],  # one ulp from 1/k
    ], ids=["unequal", "empty_row", "one_ulp"])
    def test_other_weights_keep_q_and_round_trip(self, tmp_path, w):
        w = np.array(w)
        sched = fa.WeightSchedule.from_dense(w, "manual", 0)   # no RuntimeWarning
        assert sched.q is not None
        assert sched.entry_weights(0, 2).tobytes() == w[w != 0].tobytes()
        back = fa.WeightSchedule.from_dense(sched.weights, "manual", 0)
        assert back.q.tobytes() == sched.q.tobytes()
        assert back.indptr.tobytes() == sched.indptr.tobytes()
        if np.all(w.sum(axis=1) == 1.0):   # on the simplex, so a file can hold it
            path = tmp_path / "sched.csv"
            sched.to_csv(path)
            loaded = fa.load_schedule_csv(path, N=3)
            assert loaded.q.tobytes() == sched.q.tobytes()
            assert loaded.weights.tobytes() == w.tobytes()


class TestClientIndexLimit:
    """Clients are stored as int32, so N >= 2**31 is rejected where a
    schedule is made, before anything is allocated."""

    @pytest.mark.parametrize("spec", [
        fa.PatternSpec("full"), fa.PatternSpec("independent", S=4),
        fa.PatternSpec("periodic", S=4, G=1, B=3),
        fa.PatternSpec("markov", S=8, p_aa=0.9, p_uu=0.8)], ids=lambda s: s.kind)
    def test_generate_rejects_N_beyond_int32(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"need N < 2\*\*31"):
                fa.generate_schedule(spec, 2**31, 1000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        spec.validate(2**31 - 1)

    def test_from_dense_rejects_N_beyond_int32(self):
        # no rows, so neither shape allocates anything
        with pytest.raises(ValueError, match=r"need N < 2\*\*31"):
            fa.WeightSchedule.from_dense(np.zeros((0, 2**31)), "manual", 0)
        sched = fa.WeightSchedule.from_dense(np.zeros((0, 2**31 - 1)), "manual", 0)
        assert (sched.T, sched.N, sched.idx.dtype) == (0, 2**31 - 1, np.int32)

    def test_load_one_entry_at_large_N_holds_no_dense_row(self, tmp_path):
        # one dense row of N = 2**22 weights would take 32 MiB
        path = tmp_path / "sched.csv"
        path.write_text("t,n,q\n0,5,1\n")
        tracemalloc.start()
        try:
            sched = fa.load_schedule_csv(path, N=2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert (sched.T, sched.N, sched.idx.tolist(), sched.q) == (1, 2**22, [5], None)

    def test_load_rejects_N_beyond_int32(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,n,q\n0,0,1\n")
        with pytest.raises(ValueError, match=r"need N < 2\*\*31"):
            fa.load_schedule_csv(path, N=2**31)


class TestWindowAverages:
    def test_independent_variance_oracle(self):
        # S-of-N sampling: Var(q^n) = (1/S^2) p (1-p) with p = S/N; window
        # averaging over P independent rounds divides by P
        N, S, P = 16, 4, 8
        sched = make("independent", N=N, T=80000, S=S, seed=14)
        stats = fa.window_averages(sched, P=P)
        p = S / N
        expect = (1 / S**2) * p * (1 - p) / P
        assert stats.var_qbar == pytest.approx(expect, rel=0.05)

    def test_lag_zero_matches_variance(self):
        sched = make("independent", N=8, T=40000, S=2, seed=15)
        stats = fa.window_averages(sched, P=1, max_lag=3)
        assert stats.lag_cov[0] == pytest.approx(stats.var_qbar, rel=1e-12)
        # rounds are independent: lagged covariance is sampling noise only
        assert abs(stats.lag_cov[1]) < 1e-2 * stats.lag_cov[0]

    def test_partial_window_dropped(self):
        sched = make("full", N=4, T=10)
        stats = fa.window_averages(sched, P=3)
        assert stats.dropped_rounds == 1
        assert stats.qbar.shape == (3, 4)

    def test_bad_P_rejected(self):
        sched = make("full", N=4, T=10)
        with pytest.raises(ValueError):
            fa.window_averages(sched, P=11)

    @pytest.mark.parametrize("max_lag", [-1, -3])
    def test_negative_max_lag_rejected(self, max_lag):
        sched = make("full", N=4, T=10)
        with pytest.raises(ValueError, match="max_lag"):
            fa.window_averages(sched, P=2, max_lag=max_lag)

    def test_lag_cov_bitwise_across_row_blocks(self):
        # weights 1/8 and mu = 1/32 are dyadic, so np.mean's sum is exact
        # and it rounds once, as the exact pass does; small blocks make
        # every lag cross several row blocks
        N, max_lag, block = 32, 40, 1 << 12
        T = 4 * block + 77
        sched = make("markov", N=N, T=T, seed=8, S=8, p_aa=0.9, p_uu=0.8)
        c = sched.weights - 1.0 / N
        expect = [np.mean(c[:T - p] * c[p:]) for p in range(max_lag + 1)]
        with mock.patch.object(participation, "_BLOCK_ENTRIES", block):
            lags = fa.window_averages(sched, P=16, max_lag=max_lag).lag_cov
        assert lags.tobytes() == np.array(expect).tobytes()

    @pytest.mark.parametrize("N", [1, 3, 7, 12, 50])
    def test_full_participation_lag_cov_is_zero(self, N):
        # every weight is 1/N = mu, so every centered product is 0
        T = 37
        lags = fa.window_averages(make("full", N=N, T=T), P=4, max_lag=40).lag_cov
        assert lags[:T].tobytes() == np.zeros(T).tobytes()
        assert np.isnan(lags[T:]).all()

    def test_lag_pass_allocates_no_schedule_sized_array(self):
        # two float copies of the weights would trace at about 2x nbytes
        sched = make("markov", N=32, T=204_800, seed=9, S=8, p_aa=0.9, p_uu=0.8)
        assert sched.weights.nbytes >= 20e6
        tracemalloc.start()
        try:
            fa.window_averages(sched, P=16, max_lag=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sched.weights.nbytes / 4


def rows_bytes(T, S):
    """The stored size of a generated schedule of T rounds of S clients: an
    int32 client per entry, no weights, and T + 1 int64 row starts."""
    return T * S * 4 + (T + 1) * 8


class TestScheduleMemory:
    """Schedules are stored as sparse rows, so generating and checking one
    stays below the size of its dense (T, N) float weights."""

    def test_chebyshev_check_at_benchmark_size_below_dense_weights(self):
        from fedamp.config import SCHEMA
        P_list = SCHEMA[("bounds", "P_list")][1]
        trials = SCHEMA[("bounds", "mixing_trials")][1]
        N, S = 32, 8
        spec = fa.PatternSpec("markov", S=S, p_aa=0.9, p_uu=0.8)
        tracemalloc.start()
        try:
            fa.chebyshev_mixing_check(spec, N, P_list, trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the schedule's rows, with under 8 MiB of temporaries beside them:
        # no (T, N) mask, no copy of the window averages
        assert peak < rows_bytes(max(P_list) * trials, S) + 8 * 2**20

    def test_hoeffding_check_holds_one_chunk(self):
        # the benchmark's check: chunks of 2048 windows of P = 64 rounds
        N, S, P, trials = 16, 4, 64, 10_000
        tracemalloc.start()
        try:
            fa.hoeffding_check(fa.PatternSpec("independent", S=S), N, P, 0.05, trials,
                               seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows_bytes(131_072, S)

    def test_markov_generation_keeps_availability_packed(self):
        # a (T, N) bool mask alone would trace at T * N bytes; packed to
        # bits, the availability takes T * N / 8
        T, N = 32_768, 1024
        tracemalloc.start()
        try:
            sched = make("markov", N=N, T=T, seed=2, S=4, p_aa=0.9, p_uu=0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.idx.size == 4 * T
        assert peak < T * N / 2

    def test_periodic_short_blocks_draw_permutations_in_row_blocks(self):
        # with B = 1 every round starts a permutation of all N clients:
        # drawn at once they would take 8 * T * N bytes (64 MiB)
        T, N = 8192, 1024
        tracemalloc.start()
        try:
            sched = make("periodic", N=N, T=T, seed=2, S=4, G=1, B=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.idx.size == 4 * T
        assert peak < T * N / 2

    def test_independent_generation_below_dense_weights(self):
        T, N = 131_072, 16
        tracemalloc.start()
        try:
            sched = make("independent", N=N, T=T, S=4, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.idx.size == 4 * T
        assert peak < T * N * 8

    @pytest.mark.parametrize("kind,kw", [("independent", {"S": 4}),
                                         ("periodic", {"S": 4, "G": 4, "B": 1000})])
    def test_uniform_generation_allocates_no_mask(self, kind, kw):
        # a (T, N) bool mask alone would trace at T * N bytes
        T, N = 32_768, 1024
        tracemalloc.start()
        try:
            sched = make(kind, N=N, T=T, seed=2, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.idx.size == 4 * T
        assert peak < T * N / 4
