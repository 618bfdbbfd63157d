"""Engine semantics: update recursion, amplification, determinism, baselines."""

import dataclasses
import math

import numpy as np
import pytest

import fedamp as fa


def single_client_pop(L=1.0, center=0.0):
    return fa.QuadraticPopulation(A=np.array([[L]]), centers=np.array([[center]]))


def full_schedule(N, T):
    return fa.generate_schedule(fa.PatternSpec("full"), N, T, seed=0)


class TestRecursion:
    def test_gradient_descent_values(self):
        # x <- (1 - gamma L) x: 2.0 -> 1.8 -> 1.62
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=2, x0=np.array([2.0]), eval_every=1)
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 2), cfg, seed=0)
        np.testing.assert_allclose(tr.f[0], 2.0)  # 0.5 * 2^2
        assert tr.x_final[0] == pytest.approx(1.62, abs=1e-15)

    def test_local_steps_compound_within_round(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=2, amplify_every=1,
                           rounds=1, x0=np.array([2.0]))
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 1), cfg, seed=0)
        assert tr.x_final[0] == pytest.approx(2.0 * 0.9**2, abs=1e-15)

    @pytest.mark.parametrize("kind", ["none", "gaussian", "sphere"])
    @pytest.mark.parametrize("rotate", [True, False], ids=["rotated", "diagonal"])
    def test_matches_straight_line_transcription(self, rotate, kind):
        # independent re-implementation of one amplified run, bit for bit,
        # client by client on fresh substreams; diagonal curvature takes the
        # engine's batched kernel, rotated curvature its per-client path.
        # T = 14 ends in a partial interval, which is never amplified.
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=0.8, seed=21,
                                 rotate=rotate)
        noise = fa.NoiseModel(kind, 0.5)
        gamma, eta, I, P = 0.05, 3.0, 2, 4
        x0 = np.array([1.0, -0.5, 0.25])
        seed = 77

        for T in (12, 14):
            sched = fa.generate_schedule(fa.PatternSpec("permutation", S=2), 4, T,
                                         seed=3)
            x = x0.copy()
            u = np.zeros(3)
            for t in range(T):
                q = sched.weights[t]
                step = np.zeros(3)
                for n in np.nonzero(q)[0]:
                    rng = fa.substream(seed, "local", t, int(n))
                    y = x.copy()
                    for _ in range(I):
                        y -= gamma * (pop.grad(n, y) + noise.sample(rng, 3))
                    step += q[n] * (y - x)
                x = x + step
                u = u + step
                if (t + 1) % P == 0:
                    x = x + (eta - 1.0) * u
                    u = np.zeros(3)

            cfg = fa.RunConfig(gamma=gamma, eta=eta, local_steps=I,
                               amplify_every=P, rounds=T, x0=x0)
            tr = fa.run(pop, noise, sched, cfg, seed=seed)
            np.testing.assert_array_equal(tr.x_final, x)
            assert tr.is_boundary[-1] == (T % P == 0)

    def test_logistic_matches_straight_line_transcription(self):
        # minibatch local steps, and full-gradient steps with Gaussian noise,
        # with a full-batch checkpoint every round, bit for bit against
        # per-client minibatch_grad, grad and value calls; the noise is the
        # Gaussian draw written out, not NoiseModel.sample
        pop = fa.build_logistic(N=6, m=3, samples_per_client=10, seed=23)
        gamma, eta, I, P, T, batch, sigma = 0.2, 2.0, 2, 3, 10, 4, 0.5
        x0 = np.array([1.0, -0.5, 0.25])
        seed = 79
        sched = fa.generate_schedule(fa.PatternSpec("independent", S=3), 6, T,
                                     seed=5)

        def checkpoint(x):
            f, g = 0.0, np.zeros(3)
            for n in range(pop.N):
                f += pop.value(n, x)
                g += pop.grad(n, x)
            g = g / pop.N
            return f / pop.N, float(g @ g)

        def minibatch(n, y, rng):
            return pop.minibatch_grad(n, y, batch, rng)

        def noisy(n, y, rng):
            return pop.grad(n, y) + rng.normal(0.0, sigma / math.sqrt(3), size=3)

        for size, noise, local_grad in ((batch, fa.NoiseModel(), minibatch),
                                        (None, fa.NoiseModel("gaussian", sigma),
                                         noisy)):
            x, u, rows = x0.copy(), np.zeros(3), []
            for t in range(T):
                rows.append(checkpoint(x))
                q = sched.weights[t]
                step = np.zeros(3)
                for n in np.nonzero(q)[0]:
                    rng = fa.substream(seed, "local", t, int(n))
                    y = x.copy()
                    for _ in range(I):
                        y -= gamma * local_grad(n, y, rng)
                    step += q[n] * (y - x)
                x = x + step
                u = u + step
                if (t + 1) % P == 0:
                    x = x + (eta - 1.0) * u
                    u = np.zeros(3)
            rows.append(checkpoint(x))
            f, g2 = np.array(rows).T

            cfg = fa.RunConfig(gamma=gamma, eta=eta, local_steps=I, amplify_every=P,
                               rounds=T, x0=x0, eval_every=1, minibatch=size)
            tr = fa.run(pop, noise, sched, cfg, seed=seed)
            assert tr.t.tolist() == list(range(T + 1))
            assert tr.f.tobytes() == f.tobytes()
            assert tr.grad_norm_sq.tobytes() == g2.tobytes()
            assert tr.x_final.tobytes() == x.tobytes()

    def test_descent_without_noise(self):
        pop = fa.build_quadratic(N=6, m=4, L=2.0, spread=0.5, seed=22)
        T = 40
        gamma = 1.0 / (12 * pop.lipschitz * 3)
        cfg = fa.RunConfig(gamma=gamma, eta=1.0, local_steps=3, amplify_every=1,
                           rounds=T, x0=np.full(4, 2.0), eval_every=1)
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(6, T), cfg, seed=0)
        assert (np.diff(tr.f) <= 1e-12).all()
        assert tr.f[-1] < tr.f[0]


class TestAmplification:
    def test_identity_at_boundary(self):
        # u = 0.5 accumulated from x = 0: eta = 10 lands at eta * u, in place
        x, u = np.array([0.5]), np.array([0.5])
        fa.amplify(x, u, 10.0)
        assert x[0] == pytest.approx(5.0)
        assert u[0] == 0.0

    def test_eta_one_is_noop_bitwise(self):
        x, u = np.array([0.3, 0.7]), np.array([0.1, -0.1])
        fa.amplify(x, u, 1.0)
        np.testing.assert_array_equal(x, [0.3, 0.7])
        assert not u.any()

    def test_boundary_residual_tracks_accumulator(self):
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=0.5, seed=23)
        sched = fa.generate_schedule(fa.PatternSpec("permutation", S=2), 4, 20, 1)
        cfg = fa.RunConfig(gamma=0.02, eta=2.5, local_steps=2, amplify_every=5,
                           rounds=20, x0=np.ones(3))
        tr = fa.run(pop, fa.NoiseModel("gaussian", 0.3), sched, cfg, seed=5)
        assert tr.max_boundary_residual <= 1e-12


class TestDeterminism:
    def _setup(self, T=24):
        pop = fa.build_quadratic(N=6, m=4, L=1.0, spread=0.5, seed=24,
                                 eigenvalues=np.linspace(0.3, 1, 4), rotate=False)
        noise = fa.NoiseModel("gaussian", 0.4)
        sched = fa.generate_schedule(fa.PatternSpec("permutation", S=3), 6, T, 2)
        return pop, noise, sched

    def test_interval_invariance_without_amplification(self):
        # with eta = 1 the interval boundaries must not affect the trajectory
        pop, noise, sched = self._setup()
        traces = []
        for P in (1, 4, 8, 24):
            cfg = fa.RunConfig(gamma=0.05, eta=1.0, local_steps=2,
                               amplify_every=P, rounds=24, x0=np.ones(4),
                               eval_every=1)
            traces.append(fa.run(pop, noise, sched, cfg, seed=9))
        for tr in traces[1:]:
            np.testing.assert_array_equal(tr.x_final, traces[0].x_final)
            np.testing.assert_array_equal(tr.f, traces[0].f)

    def test_repeat_run_identical(self):
        pop, noise, sched = self._setup()
        cfg = fa.RunConfig(gamma=0.05, eta=2.0, local_steps=2, amplify_every=4,
                           rounds=24, x0=np.ones(4))
        a = fa.run(pop, noise, sched, cfg, seed=1)
        b = fa.run(pop, noise, sched, cfg, seed=1)
        np.testing.assert_array_equal(a.x_final, b.x_final)
        c = fa.run(pop, noise, sched, cfg, seed=2)
        assert not np.array_equal(a.x_final, c.x_final)


class TestTraceAndValidation:
    def test_checkpoint_rows_and_boundary_flags(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=4,
                           rounds=16, x0=np.array([1.0]), eval_every=2)
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 16), cfg, seed=0)
        np.testing.assert_array_equal(tr.t, np.arange(0, 17, 2))
        np.testing.assert_array_equal(tr.is_boundary, tr.t % 4 == 0)
        assert (np.diff(tr.min_grad_norm_sq) <= 0).all()

    def test_divergence_reported_with_round(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=10.0, eta=1.0, local_steps=3, amplify_every=1,
                           rounds=500, x0=np.array([1.0]), eval_every=1)
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 500), cfg, seed=0)
        assert tr.diverged
        assert tr.diverged_round is not None

    @pytest.mark.parametrize("mode", ["generalized", "wait_minibatch", "wait_full"])
    def test_running_min_skips_a_non_finite_last_checkpoint(self, mode):
        # x <- -9x each round (one-round windows in the wait modes):
        # ||grad f||^2 = x^2 overflows at t = 162 while x is still finite, so
        # that checkpoint is written and the run stops
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=10.0, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=500, x0=np.array([1.0]), eval_every=1, mode=mode)
        with np.errstate(over="ignore"):
            tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 500), cfg, seed=0)
        assert tr.diverged_round == 162
        np.testing.assert_array_equal(tr.t, np.arange(163))
        assert np.isinf(tr.f[-1]) and np.isinf(tr.grad_norm_sq[-1])
        assert np.isfinite(tr.grad_norm_sq[:-1]).all()
        assert tr.x_final[0] == pytest.approx(9.0**162, rel=1e-12)
        np.testing.assert_array_equal(tr.min_grad_norm_sq, np.ones(len(tr.t)))
        assert tr.final_min_grad_norm_sq == 1.0

    @pytest.mark.parametrize("mode", ["wait_minibatch", "wait_full"])
    def test_wait_update_overflow_exit(self, mode):
        # x <- (1 - 1e200) x at each window end (t = 1, 3, ...): finite after
        # the first window, infinite after the second; no checkpoint between
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=1e200, eta=1.0, local_steps=1, amplify_every=2,
                           rounds=8, x0=np.array([1.0]), eval_every=8, mode=mode)
        with np.errstate(over="ignore"):
            tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 8), cfg, seed=0)
        assert tr.diverged_round == 3
        np.testing.assert_array_equal(tr.t, [0])
        assert (tr.f[-1], tr.grad_norm_sq[-1]) == (0.5, 1.0)
        assert tr.x_final[0] == np.finfo(float).max   # nan_to_num of +inf

    @pytest.mark.parametrize("mode", ["generalized", "wait_minibatch", "wait_full"])
    def test_only_final_checkpoint_overflows(self, mode):
        # x <- -9x for T = 162 rounds: every round's update and checkpoint is
        # finite, and ||grad f||^2 first overflows at the checkpoint at t = T
        pop = single_client_pop()
        T = 162
        cfg = fa.RunConfig(gamma=10.0, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=T, x0=np.array([1.0]), eval_every=1, mode=mode)
        with np.errstate(over="ignore"):
            tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, T), cfg, seed=0)
        assert tr.diverged_round == T
        np.testing.assert_array_equal(tr.t, np.arange(T + 1))
        assert np.isinf(tr.grad_norm_sq[-1])
        assert np.isfinite(tr.grad_norm_sq[:-1]).all()

    def test_config_validation(self):
        x0 = np.ones(2)
        with pytest.raises(ValueError):
            fa.RunConfig(gamma=-1.0, eta=1.0, local_steps=1, amplify_every=1,
                         rounds=4, x0=x0).validate()
        with pytest.raises(ValueError):
            fa.RunConfig(gamma=0.1, eta=1.0, local_steps=0, amplify_every=1,
                         rounds=4, x0=x0).validate()
        with pytest.raises(ValueError):
            fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=5,
                         rounds=4, x0=x0).validate()
        with pytest.raises(ValueError):
            fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                         rounds=4, x0=x0, mode="mystery").validate()

    @pytest.mark.parametrize("field,value", [
        ("minibatch", 0), ("minibatch", -1), ("eval_every", -3)])
    def test_out_of_domain_optional_rejected(self, field, value):
        # None, and eval_every = 0, keep their meaning (full gradient, every P)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(2), eval_every=0)
        cfg.validate()
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: value}).validate()

    def test_minibatch_on_quadratic_rejected(self):
        # only populations with minibatch gradients take a minibatch size
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=0.5, seed=26)
        sched = full_schedule(4, 4)
        for mode in ("generalized", "wait_minibatch"):
            cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                               rounds=4, x0=np.ones(3), mode=mode, minibatch=2)
            with pytest.raises(ValueError, match="minibatch"):
                fa.run(pop, fa.NoiseModel(), sched, cfg, seed=0)

    @pytest.mark.parametrize("x0", [[1.0, np.nan], [np.inf, 0.0]],
                             ids=["nan", "inf"])
    def test_non_finite_x0_rejected(self, x0):
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.array(x0))
        with pytest.raises(ValueError, match="x0 must be finite"):
            cfg.validate()

    def test_x0_of_other_dimension_rejected(self):
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=0.5, seed=26)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(2))
        cfg.validate()
        with pytest.raises(ValueError, match="x0 dimension 2 != population "
                                             "dimension 3"):
            fa.run(pop, fa.NoiseModel(), full_schedule(4, 4), cfg, seed=0)

    @pytest.mark.parametrize("mode", ["generalized", "wait_minibatch"])
    def test_minibatch_with_noise_rejected(self, mode):
        # a minibatch gradient would drop the noise that planned the rates
        pop = fa.build_logistic(N=4, m=3, samples_per_client=8, seed=27)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(3), mode=mode, minibatch=4)
        for noise in (fa.NoiseModel("gaussian", 0.5), fa.NoiseModel("sphere", 2.0)):
            with pytest.raises(ValueError, match="minibatch takes no gradient noise"):
                fa.run(pop, noise, full_schedule(4, 4), cfg, seed=0)
        for noise in (fa.NoiseModel(), fa.NoiseModel("gaussian", 0.0)):
            fa.run(pop, noise, full_schedule(4, 4), cfg, seed=0)

    @pytest.mark.parametrize("mode", ["generalized", "wait_minibatch"])
    def test_minibatch_beyond_samples_rejected(self, mode):
        # a batch of more than k samples would silently be the full batch
        pop = fa.build_logistic(N=4, m=3, samples_per_client=8, seed=27)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(3), mode=mode, minibatch=9)
        with pytest.raises(ValueError, match="minibatch 9 needs a population with "
                                             "at least that many samples"):
            fa.run(pop, fa.NoiseModel(), full_schedule(4, 4), cfg, seed=0)
        fa.run(pop, fa.NoiseModel(), full_schedule(4, 4),
               dataclasses.replace(cfg, minibatch=8), seed=0)

    def test_schedule_with_more_clients_rejected(self):
        pop = fa.build_quadratic(N=3, m=2, L=1.0, spread=0.5, seed=28)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(2))
        for mode in ("generalized", "wait_full"):
            with pytest.raises(ValueError, match="clients"):
                fa.run(pop, fa.NoiseModel(), full_schedule(5, 4),
                       dataclasses.replace(cfg, mode=mode), seed=0)

    def test_schedule_with_fewer_clients_rejected(self):
        # a narrower schedule would leave the extra clients out silently
        pop = fa.build_quadratic(N=5, m=2, L=1.0, spread=0.5, seed=29)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=4, x0=np.ones(2))
        for mode in ("generalized", "wait_minibatch"):
            with pytest.raises(ValueError, match="clients"):
                fa.run(pop, fa.NoiseModel(), full_schedule(3, 4),
                       dataclasses.replace(cfg, mode=mode), seed=0)

    @pytest.mark.parametrize("mode", ["generalized", "wait_minibatch", "wait_full"])
    def test_off_simplex_schedule_rejected(self, mode):
        # round 1 sums to 1 but holds a negative weight
        pop = fa.build_quadratic(N=3, m=2, L=1.0, spread=0.5, seed=31)
        w = np.full((4, 3), 1 / 3.0)
        w[1] = [0.5, 0.7, -0.2]
        sched = fa.WeightSchedule.from_dense(w, pattern="manual", seed=0)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=2,
                           rounds=4, x0=np.ones(2), mode=mode)
        with pytest.raises(ValueError, match=r"simplex violation in rounds \[1\]"):
            fa.run(pop, fa.NoiseModel(), sched, cfg, seed=0)

    @pytest.mark.parametrize("kind,kw", [
        ("full", {}), ("independent", {"S": 3}), ("permutation", {"S": 2}),
        ("periodic", {"S": 1, "G": 3, "B": 2}),
        ("markov", {"S": 3, "p_aa": 0.9, "p_uu": 0.8})])
    def test_meta_rho_is_rho_bound(self, kind, kw):
        pop = fa.build_quadratic(N=6, m=2, L=1.0, spread=0.5, seed=32)
        sched = fa.generate_schedule(fa.PatternSpec(kind, **kw), 6, 8, seed=5)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=2,
                           rounds=8, x0=np.ones(2))
        tr = fa.run(pop, fa.NoiseModel(), sched, cfg, seed=0)
        assert tr.meta["rho"] == fa.rho_bound(sched)

    def test_wait_baseline_rejects_short_schedule(self):
        # windows past the end of the schedule would be silently empty
        pop = fa.build_quadratic(N=2, m=2, L=1.0, spread=0.5, seed=30)
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=2,
                           rounds=8, x0=np.ones(2), mode="wait_full")
        with pytest.raises(ValueError, match="schedule covers 4 rounds"):
            fa.run_wait_baseline(pop, fa.NoiseModel(), full_schedule(2, 4),
                                 cfg, seed=0)


class TestWaitBaselines:
    def test_wait_full_single_client_is_gradient_descent(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=3, x0=np.array([2.0]), mode="wait_full")
        tr = fa.run(pop, fa.NoiseModel(), full_schedule(1, 3), cfg, seed=0)
        assert tr.x_final[0] == pytest.approx(2.0 * 0.9**3, abs=1e-15)

    def test_wait_full_ignores_noise(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=3, x0=np.array([2.0]), mode="wait_full")
        tr = fa.run(pop, fa.NoiseModel("gaussian", 5.0), full_schedule(1, 3),
                    cfg, seed=0)
        assert tr.x_final[0] == pytest.approx(2.0 * 0.9**3, abs=1e-15)

    def test_wait_minibatch_averages_appearances(self):
        # a zero-curvature coordinate isolates the noise average: one window
        # of M appearances must step by -gamma I mean(noise)
        pop = fa.build_quadratic(N=1, m=2, L=1.0, spread=0.0, seed=0,
                                 eigenvalues=np.array([0.0, 1.0]), rotate=False)
        M = 4
        cfg = fa.RunConfig(gamma=0.2, eta=1.0, local_steps=3, amplify_every=M,
                           rounds=M, x0=np.zeros(2), mode="wait_minibatch")
        noise = fa.NoiseModel("gaussian", 1.0)
        seed = 31
        tr = fa.run(pop, noise, full_schedule(1, M), cfg, seed=seed)
        draws = [noise.sample(fa.substream(seed, "local", t, 0), 2)
                 for t in range(M)]
        expect = -0.2 * 3 * np.mean(draws, axis=0)
        assert tr.x_final[0] == pytest.approx(expect[0], rel=1e-12)

    @pytest.mark.parametrize("mode", ["wait_minibatch", "wait_full"])
    def test_wait_matches_straight_line_transcription(self, mode):
        # independent re-implementation of the wait-for-all baselines, bit for
        # bit: frozen x per window, one averaged step over appearing clients
        pop = fa.build_quadratic(N=5, m=3, L=1.0, spread=0.8, seed=27)
        noise = fa.NoiseModel("gaussian", 0.5)
        sched = fa.generate_schedule(fa.PatternSpec("independent", S=2), 5, 12,
                                     seed=4)
        gamma, I, P, T = 0.05, 3, 4, 12
        x0 = np.array([1.0, -0.5, 0.25])
        seed = 78

        x = x0.copy()
        for end in range(P, T + 1, P):
            window = sched.weights[end - P:end]
            appearing = [n for n in range(5) if window[:, n].any()]
            step = np.zeros(3)
            for n in appearing:
                if mode == "wait_full":
                    g = pop.grad(n, x)
                else:
                    acc = np.zeros(3)
                    rounds_n = [end - P + r for r in range(P) if window[r, n] != 0]
                    for t in rounds_n:
                        rng = fa.substream(seed, "local", t, n)
                        acc += pop.grad(n, x) + noise.sample(rng, 3)
                    g = acc / len(rounds_n)
                step += -gamma * I * g
            x = x + step / len(appearing)

        cfg = fa.RunConfig(gamma=gamma, eta=1.0, local_steps=I, amplify_every=P,
                           rounds=T, x0=x0, mode=mode)
        tr = fa.run(pop, noise, sched, cfg, seed=seed)
        np.testing.assert_array_equal(tr.x_final, x)

    def test_wait_minibatch_variance_scales_with_appearances(self):
        # averaging M draws cuts the step variance by M
        pop = fa.build_quadratic(N=1, m=2, L=1.0, spread=0.0, seed=0,
                                 eigenvalues=np.array([0.0, 1.0]), rotate=False)
        noise = fa.NoiseModel("gaussian", 1.0)
        gamma, I = 0.5, 1
        out = {}
        for M in (1, 8):
            cfg = fa.RunConfig(gamma=gamma, eta=1.0, local_steps=I,
                               amplify_every=M, rounds=M, x0=np.zeros(2),
                               mode="wait_minibatch")
            steps = []
            for k in range(8000):
                tr = fa.run(pop, noise, full_schedule(1, M), cfg, seed=k)
                steps.append(tr.x_final[0])
            out[M] = np.var(steps)
        expect = (gamma * I) ** 2 * (1.0 / 2)  # sigma^2/m per coordinate
        assert out[1] == pytest.approx(expect, rel=0.1)
        assert out[8] == pytest.approx(expect / 8, rel=0.1)

    def test_wait_mode_validation(self):
        pop = single_client_pop()
        cfg = fa.RunConfig(gamma=0.1, eta=1.0, local_steps=1, amplify_every=1,
                           rounds=2, x0=np.array([1.0]), mode="generalized")
        with pytest.raises(ValueError):
            fa.run_wait_baseline(pop, fa.NoiseModel(), full_schedule(1, 2),
                                 cfg, seed=0)


class TestCallContract:
    """One stream per (t, n) draw site, and one call per step.

    Each nonzero q_t^n gets one substream; the diagonal kernel draws one
    noise block per participant and the scalar path one stochastic
    gradient per local step.  wait_minibatch takes one substream and one
    stochastic gradient per appearance in a window, wait_full one exact
    gradient per appearing client.  Merging or skipping any of them
    changes what a seed means.  Every checkpoint is one value_and_grad.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        import fedamp.engine
        counts = dict.fromkeys(["substream", "sample_block", "stochastic_grad",
                                "grad", "value_and_grad", "global_grad",
                                "global_value"], 0)

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(fedamp.engine, "substream")
        counted(fa.NoiseModel, "sample_block")
        counted(fa.QuadraticPopulation, "grad")
        for cls in (fa.QuadraticPopulation, fa.LogisticPopulation):
            for name in ("stochastic_grad", "value_and_grad", "global_grad",
                         "global_value"):
                counted(cls, name)
        return counts

    @staticmethod
    def _setup(rotate, kind):
        N, T, P, I = 6, 24, 4, 3
        pop = fa.build_quadratic(N=N, m=3, L=1.0, spread=0.5, seed=5, rotate=rotate)
        spec = {"independent": fa.PatternSpec("independent", S=2),
                "markov": fa.PatternSpec("markov", S=3, p_aa=0.7, p_uu=0.6),
                "periodic": fa.PatternSpec("periodic", S=1, G=3, B=2)}[kind]
        sched = fa.generate_schedule(spec, N, T, seed=9)
        nz = sched.weights[:T] != 0
        windows = nz.reshape(T // P, P, N)
        return pop, sched, nz, windows, (N, T, P, I)

    @pytest.mark.parametrize("kind", ["independent", "markov", "periodic"])
    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_generalized(self, calls, rotate, kind):
        pop, sched, nz, _, (N, T, P, I) = self._setup(rotate, kind)
        cfg = fa.RunConfig(gamma=0.05, eta=2.0, local_steps=I, amplify_every=P,
                           rounds=T, x0=np.ones(3))
        fa.run(pop, fa.NoiseModel("gaussian", 0.5), sched, cfg, seed=3)
        nnz = int(nz.sum())
        assert calls["substream"] == nnz
        if rotate:   # scalar path: one stochastic gradient per local step
            assert calls["sample_block"] == 0
            assert calls["stochastic_grad"] == I * nnz
        else:        # diagonal kernel: one noise block per participant
            assert calls["sample_block"] == nnz
            assert calls["stochastic_grad"] == 0
        assert calls["value_and_grad"] == T // P + 1
        assert calls["global_grad"] == calls["global_value"] == 0

    @pytest.mark.parametrize("batch", [4, None], ids=["minibatch", "full"])
    def test_logistic(self, calls, batch):
        # the scalar path with minibatch or noisy full gradients, and a
        # checkpoint every round
        N, T, P, I = 6, 24, 4, 3
        pop = fa.build_logistic(N=N, m=3, samples_per_client=8, seed=5)
        spec = fa.PatternSpec("markov", S=3, p_aa=0.7, p_uu=0.6)
        sched = fa.generate_schedule(spec, N, T, seed=9)
        cfg = fa.RunConfig(gamma=0.05, eta=2.0, local_steps=I, amplify_every=P,
                           rounds=T, x0=np.ones(3), eval_every=1, minibatch=batch)
        noise = fa.NoiseModel("gaussian", 0.5) if batch is None else fa.NoiseModel()
        fa.run(pop, noise, sched, cfg, seed=3)
        nnz = int(np.count_nonzero(sched.weights[:T]))
        assert calls["substream"] == nnz
        assert calls["stochastic_grad"] == I * nnz
        assert calls["sample_block"] == 0
        assert calls["value_and_grad"] == T + 1
        assert calls["global_grad"] == calls["global_value"] == 0

    @pytest.mark.parametrize("kind", ["independent", "markov", "periodic"])
    @pytest.mark.parametrize("mode", ["wait_minibatch", "wait_full"])
    def test_wait(self, calls, mode, kind):
        pop, sched, _, windows, (N, T, P, I) = self._setup(False, kind)
        cfg = fa.RunConfig(gamma=0.05, eta=1.0, local_steps=I, amplify_every=P,
                           rounds=T, x0=np.ones(3), mode=mode)
        fa.run(pop, fa.NoiseModel("gaussian", 0.5), sched, cfg, seed=3)
        appearances = int(windows.sum())
        assert calls["sample_block"] == 0
        if mode == "wait_minibatch":
            assert calls["substream"] == appearances
            assert calls["stochastic_grad"] == appearances
        else:
            assert calls["substream"] == calls["stochastic_grad"] == 0
            assert calls["grad"] == int(windows.any(axis=1).sum())
