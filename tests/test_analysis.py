"""Divergence constants, concentration checks, planners, slope fitting."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import fedamp as fa


def alternating_pair(spread=1.0):
    """Two symmetric clients selected one at a time."""
    pop = fa.build_quadratic(N=2, m=3, L=1.0, spread=spread, seed=30)
    sched = fa.generate_schedule(fa.PatternSpec("permutation", S=1), 2, 40, 4)
    return pop, sched


class TestDivergence:
    def test_full_participation_kills_weighted_bias(self):
        pop = fa.build_quadratic(N=6, m=4, L=1.0, spread=0.8, seed=31)
        sched = fa.generate_schedule(fa.PatternSpec("full"), 6, 20, 0)
        rep = fa.divergence_exact(pop, sched, P=4)
        rep.validate()
        assert rep.beta2 <= 1e-28
        assert rep.delta2 <= 1e-28
        assert rep.nu2 > 0
        assert rep.nu2 <= rep.d2 + 1e-12

    def test_kept_round_pass_serves_only_its_own_schedule(self):
        # each schedule one weight, one client or one row boundary from the
        # one before: each gets the constants of a fresh pass, and they differ
        pop = fa.build_quadratic(N=3, m=2, L=1.0, spread=1.0, seed=41)
        scheds = [fa.WeightSchedule.from_dense(np.array([row] * 2), "manual", 0)
                  for row in ([0.5, 0.5, 0.0], [0.5, 0.25, 0.0], [0.5, 0.0, 0.25])]
        scheds += [fa.WeightSchedule(indptr=np.array(indptr),
                                     idx=np.arange(3, dtype=np.int32),
                                     q=np.array([0.5, 0.5, 1.0]), N=3,
                                     pattern="manual", seed=0)
                   for indptr in ([0, 2, 3], [0, 1, 3])]
        warm = [fa.divergence_exact(pop, sched, 2) for sched in scheds]
        cold = []
        for sched in scheds:
            fa.analysis._ROUND_MAXIMA.clear()
            cold.append(fa.divergence_exact(pop, sched, 2))
        assert warm == cold
        assert len({rep.beta2 for rep in warm}) == len(scheds)

    def test_single_client_rounds_hit_the_extremes(self):
        # selecting one client per round: weighted bias equals that client's
        # squared offset, so the max over rounds is exactly d^2
        pop, sched = alternating_pair()
        rep1 = fa.divergence_exact(pop, sched, P=1)
        rep1.validate()
        assert rep1.beta2 == pytest.approx(pop.d2, rel=1e-12)
        assert rep1.delta2 == pytest.approx(pop.d2, rel=1e-12)
        assert rep1.nu2 == pytest.approx(0.0, abs=1e-28)

    def test_aligned_permutation_window_is_unbiased(self):
        pop, sched = alternating_pair()
        rep = fa.divergence_exact(pop, sched, P=2)
        assert rep.delta2 <= 1e-30
        # misaligned window length keeps a strictly positive bias
        N, S = 8, 2
        pop8 = fa.build_quadratic(N=N, m=3, L=1.0, spread=1.0, seed=32)
        sched8 = fa.generate_schedule(fa.PatternSpec("permutation", S=S),
                                      N, 400, 1)
        aligned = fa.divergence_exact(pop8, sched8, P=N // S)
        off = fa.divergence_exact(pop8, sched8, P=3)
        assert aligned.delta2 <= 1e-28
        assert off.delta2 > 1e-6

    def test_sampled_matches_exact_for_quadratics(self):
        pop = fa.build_quadratic(N=5, m=4, L=1.5, spread=0.6, seed=33)
        sched = fa.generate_schedule(fa.PatternSpec("independent", S=2), 5, 60, 2)
        exact = fa.divergence_exact(pop, sched, P=5)
        pts = fa.ball_samples(pop.x_star, 2.0, 8, seed=3)
        sampled = fa.divergence_at_offsets(fa.sample_offsets(pop, pts), sched, 5)
        assert sampled.beta2 == pytest.approx(exact.beta2, rel=1e-10)
        assert sampled.nu2 == pytest.approx(exact.nu2, rel=1e-10)
        assert sampled.delta2 == pytest.approx(exact.delta2, rel=1e-10)
        assert sampled.d2 == pytest.approx(exact.d2, rel=1e-10)
        assert not sampled.exact and exact.exact

    @pytest.mark.parametrize("field, value, message", [
        ("nu2", -1e-3, "nu2 = -0.001 is not finite"),
        ("d2", float("inf"), "d2 = inf is not finite"),
        ("decomposition_residual", 1e-9, "misses"),
        ("max_round_sum", 2.0 + 1e-9, "exceeds d2"),
        ("delta2", 1.0 + 1e-9, "delta2 = .* exceeds beta2")])
    def test_validate_raises(self, field, value, message):
        rep = fa.DivergenceReport(d2=2.0, beta2=1.0, nu2=0.5, delta2=1.0, P=1,
                                  decomposition_residual=0.0, max_round_sum=1.5,
                                  exact=True)
        rep.validate()
        with pytest.raises(ValueError, match=message):
            replace(rep, **{field: value}).validate()

    def test_validate_tolerance_scales_with_d2(self):
        # the 3-round mean of 114874.872 is one ulp longer, so delta2 tops
        # beta2 by 3.8e-6: round-off at d2 ~ 1.3e10, not an inconsistency
        sched = fa.WeightSchedule.from_dense(np.ones((3, 1)), pattern="manual", seed=0)
        rep = fa.divergence_at_offsets(np.array([[[114874.872]]]), sched, 3)
        assert rep.delta2 > rep.beta2 + 1e-10
        rep.validate()

    def test_exact_mode_rejects_non_quadratic(self):
        pop = fa.build_logistic(N=3, m=4, samples_per_client=8, seed=34)
        sched = fa.generate_schedule(fa.PatternSpec("full"), 3, 10, 0)
        with pytest.raises(TypeError):
            fa.divergence_exact(pop, sched, P=2)

    def test_delta_never_exceeds_beta(self):
        for seed in range(5):
            pop = fa.build_quadratic(N=9, m=3, L=1.0, spread=1.0, seed=seed)
            sched = fa.generate_schedule(fa.PatternSpec("independent", S=3),
                                         9, 120, seed)
            for P in (1, 2, 5, 12):
                rep = fa.divergence_exact(pop, sched, P)
                rep.validate()
                assert rep.delta2 <= rep.beta2 + 1e-12

    def test_markov_delta_trend_nonincreasing(self):
        # longer windows average the participation bias away
        pop = fa.build_quadratic(N=8, m=3, L=1.0, spread=1.0, seed=35)
        P_ladder = [1, 4, 16, 64]
        meds = []
        for P in P_ladder:
            vals = []
            for seed in range(10):
                sched = fa.generate_schedule(
                    fa.PatternSpec("markov", S=2, p_aa=0.9, p_uu=0.8),
                    8, 2048, seed)
                vals.append(fa.divergence_exact(pop, sched, P).delta2)
            meds.append(np.median(vals))
        assert all(b <= a * 1.05 for a, b in zip(meds, meds[1:]))


class TestDecomposition:
    def test_identity_on_random_triples(self):
        for seed in range(10):
            pop = fa.build_quadratic(N=7, m=4, L=1.0, spread=0.9, seed=seed)
            sched = fa.generate_schedule(fa.PatternSpec("independent", S=3),
                                         7, 50, seed)
            pts = fa.ball_samples(pop.x_star, 3.0, 5, seed)
            rep = fa.divergence_at_offsets(fa.sample_offsets(pop, pts), sched,
                                           sched.T)
            rep.validate()
            assert rep.decomposition_residual <= 1e-10
            assert rep.max_round_sum <= rep.d2 + 1e-10

    def test_degenerate_weights_by_hand(self):
        # all weight on one client: spread term vanishes, bias is its offset
        pop = fa.build_quadratic(N=2, m=2, L=1.0, spread=1.0, seed=40)
        w = np.zeros((1, 2))
        w[0, 0] = 1.0
        sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
        rep = fa.divergence_at_offsets(
            fa.sample_offsets(pop, pop.x_star[None, :]), sched, sched.T)
        off0 = float(np.sum(pop.gradient_offsets()[0] ** 2))
        assert rep.beta2 == pytest.approx(off0, rel=1e-12)
        assert rep.nu2 == pytest.approx(0.0, abs=1e-25)


class TestConcentration:
    def test_hoeffding_threshold_value(self):
        assert fa.hoeffding_threshold(2, 0.1) == pytest.approx(
            np.log(20.0) / 4.0)
        assert fa.hoeffding_threshold(2, 0.1) == pytest.approx(0.74893,
                                                               abs=1e-5)

    def test_hoeffding_passes_for_independent_sampling(self):
        bc = fa.hoeffding_check(fa.PatternSpec("independent", S=4), N=16,
                                P=32, c=0.05, trials=2000, seed=1)
        assert bc.passed
        assert bc.violation_rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / 2000)

    def test_hoeffding_rejects_dependent_patterns(self):
        with pytest.raises(ValueError):
            fa.hoeffding_check(fa.PatternSpec("markov", S=2, p_aa=0.9,
                                              p_uu=0.8), N=8, P=8, c=0.1,
                               trials=10, seed=0)

    def test_iid_availability_variance_slope(self):
        # p_aa = 1 - p_uu makes rounds independent: Var(qbar) ~ 1/P
        spec = fa.PatternSpec("markov", S=4, p_aa=0.5, p_uu=0.5)
        rep = fa.chebyshev_mixing_check(spec, N=16, P_list=[8, 32, 128, 512],
                                        trials=100, seed=2)
        assert rep.slope == pytest.approx(-1.0, abs=0.1)
        for bc in rep.chebyshev:
            assert bc.passed

    def test_sticky_chain_covariance_decay(self):
        # two-state chain: covariance decays by p_aa + p_uu - 1 per lag
        spec = fa.PatternSpec("markov", S=4, p_aa=0.9, p_uu=0.8)
        rep = fa.chebyshev_mixing_check(spec, N=16,
                                        P_list=[16, 64, 256, 1024],
                                        trials=150, seed=3)
        assert rep.cov_ratio == pytest.approx(0.7, abs=0.04)
        assert rep.converged
        assert rep.upsilon_hat2 > rep.cov_lags[0]  # positive correlations add up

    @pytest.mark.parametrize("P_list,trials,max_lag", [
        ([2, 4], 1, 40),    # lags 4..40 have no products
        ([8], 5, 40),       # T = 40 rounds: lag 40 has none either
    ])
    def test_max_lag_beyond_schedule_rejected(self, P_list, trials, max_lag):
        spec = fa.PatternSpec("markov", S=4, p_aa=0.99, p_uu=0.99)
        with pytest.raises(ValueError, match="max_lag"):
            fa.chebyshev_mixing_check(spec, N=16, P_list=P_list, trials=trials,
                                      seed=1, max_lag=max_lag)

    @pytest.mark.parametrize("P_list", [[16], [16, 16]])
    def test_one_distinct_P_has_no_slope(self, P_list):
        spec = fa.PatternSpec("markov", S=4, p_aa=0.9, p_uu=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RankWarning from a 1-point fit
            rep = fa.chebyshev_mixing_check(spec, N=16, P_list=P_list,
                                            trials=50, seed=4)
        assert np.isnan(rep.slope)
        assert len(rep.chebyshev) == len(P_list)


class TestPlanners:
    def test_fixed_rate_values(self):
        plan = fa.plan_rates_adaptive(L=1.0, F0=1.0, sigma=1.0, rho=0.5, I=5, P=4,
                                T=10000)
        assert plan.gamma == pytest.approx(4.1666666666666665e-05, rel=1e-15)
        assert plan.eta == pytest.approx(214.66252583997983, rel=1e-12)
        assert plan.valid
        assert plan.source == "cor3.2"

    def test_noise_free_branch_uses_cap(self):
        plan = fa.plan_rates_adaptive(L=1.0, F0=2.0, sigma=0.0, rho=0.5, I=5, P=4,
                                T=2500)
        assert plan.eta == pytest.approx(12 * 50.0)
        # gamma * eta collapses to 1/(L I P) exactly
        assert plan.gamma * plan.eta == pytest.approx(1.0 / (1.0 * 5 * 4),
                                                      rel=1e-12)

    def test_interval_exceeding_horizon_flagged(self):
        plan = fa.plan_rates_adaptive(L=1.0, F0=1.0, sigma=1.0, rho=0.5, I=1,
                                P=100, T=128)
        assert not plan.valid
        assert any("T/2" in note for note in plan.notes)

    def test_fixed_eta_planner_precondition(self):
        good = fa.plan_rates_fixed_amp(L=1.0, F0=0.01, sigma=1.0, rho=0.5, I=5, P=2,
                                T=4096)
        assert good.valid
        assert good.eta == pytest.approx(2 * 12 * np.sqrt(5 * 0.01) / 0.5)
        bad = fa.plan_rates_fixed_amp(L=1.0, F0=100.0, sigma=1.0, rho=0.5, I=5,
                               P=2, T=64)
        assert not bad.valid
        assert any("precondition" in note for note in bad.notes)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fa.plan_rates_adaptive(L=0.0, F0=1.0, sigma=1.0, rho=0.5, I=5, P=4, T=16)
        with pytest.raises(ValueError):
            fa.plan_rates_adaptive(L=1.0, F0=1.0, sigma=-1.0, rho=0.5, I=5, P=4, T=16)

    def test_interval_chooser(self):
        assert fa.choose_amplification_interval(0.1, 4, 1, 1600) == (128, False)
        # tiny mixing variance floors at 1
        assert fa.choose_amplification_interval(0.0, 8, 5, 100) == (1, True)
        # huge variance caps at T // 2
        P, clamped = fa.choose_amplification_interval(10.0, 8, 5, 100)
        assert P == 50 and clamped
        with pytest.raises(ValueError):
            fa.choose_amplification_interval(-1.0, 8, 5, 100)


class TestSlopeFit:
    def test_exact_power_laws(self):
        T = np.array([256, 1024, 4096, 16384])
        fit = fa.fit_convergence_slope(T, 1.0 / T)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        fit2 = fa.fit_convergence_slope(T, 3.0 / np.sqrt(T))
        assert fit2.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit2.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_excludes_diverged_points(self):
        T = [64, 256, 1024, 4096]
        y = [1 / 64, 1 / 256, np.nan, 1 / 4096]
        fit = fa.fit_convergence_slope(T, y)
        assert fit.n_points == 3
        assert fit.excluded == [1024.0]
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fa.fit_convergence_slope([10, 100], [1.0, 0.1])

    def test_ball_samples_inside_radius(self):
        c = np.array([1.0, -2.0, 0.5])
        pts = fa.ball_samples(c, 1.5, 200, seed=4)
        r = np.linalg.norm(pts - c, axis=1)
        assert pts.shape == (200, 3)
        assert r.max() <= 1.5 + 1e-12
        assert r.min() > 0.0
