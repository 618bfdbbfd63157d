"""Objective populations: exact constants against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedamp as fa


def brute_force_d2(pop, x):
    grads = np.stack([pop.grad(n, x) for n in range(pop.N)])
    gbar = grads.mean(axis=0)
    return float(np.max(np.sum((grads - gbar) ** 2, axis=1)))


class TestQuadratic:
    def test_d2_is_point_independent_worst_case(self):
        pop = fa.build_quadratic(N=6, m=5, L=2.0, spread=0.7, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=pop.m)
            assert brute_force_d2(pop, x) == pytest.approx(pop.d2, rel=1e-10)

    def test_gradient_offsets_constant_in_x(self):
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=1.0, seed=2)
        offs = pop.gradient_offsets()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=pop.m)
            grads = np.stack([pop.grad(n, x) for n in range(pop.N)])
            np.testing.assert_allclose(grads - pop.global_grad(x), offs,
                                       rtol=0, atol=1e-12)

    def test_optimum_and_lower_bound(self):
        pop = fa.build_quadratic(N=8, m=6, L=1.5, spread=0.5, seed=4)
        g = pop.global_grad(pop.x_star)
        assert np.linalg.norm(g) < 1e-12
        assert pop.global_value(pop.x_star) == pytest.approx(pop.f_star, rel=1e-12)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = pop.x_star + rng.normal(scale=2.0, size=pop.m)
            assert pop.global_value(x) >= pop.f_star - 1e-12

    def test_global_matches_client_mean(self):
        pop = fa.build_quadratic(N=5, m=4, L=1.0, spread=1.0, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=pop.m)
            fmean = np.mean([pop.value(n, x) for n in range(pop.N)])
            gmean = np.mean([pop.grad(n, x) for n in range(pop.N)], axis=0)
            assert pop.global_value(x) == pytest.approx(fmean, rel=1e-10)
            np.testing.assert_allclose(pop.global_grad(x), gmean, atol=1e-12)

    def test_lipschitz_bounds_gradient_differences(self):
        pop = fa.build_quadratic(N=3, m=8, L=2.5, spread=0.3, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x, y = rng.normal(size=(2, pop.m))
            lhs = np.linalg.norm(pop.global_grad(x) - pop.global_grad(y))
            assert lhs <= pop.lipschitz * np.linalg.norm(x - y) * (1 + 1e-10)

    def test_lipschitz_is_tight_for_quadratics(self):
        # L equals the top eigenvalue, attained along its eigenvector
        pop = fa.build_quadratic(N=2, m=4, L=3.0, spread=0.1, seed=10)
        top = np.linalg.eigvalsh(pop.A)[-1]
        assert top == pytest.approx(pop.lipschitz, rel=1e-12)
        assert pop.lipschitz == pytest.approx(3.0, rel=1e-12)

    def test_custom_spectrum_and_diag_fast_path(self):
        eig = np.geomspace(1e-3, 1.0, 6)
        pop = fa.build_quadratic(N=4, m=6, L=2.0, spread=0.2, seed=11,
                                 eigenvalues=eig, rotate=False)
        assert pop.diag is not None
        np.testing.assert_allclose(np.sort(pop.diag), np.sort(eig * 2.0))
        x = np.ones(6)
        np.testing.assert_allclose(pop.grad(0, x),
                                   pop.diag * (x - pop.centers[0]), atol=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fa.build_quadratic(N=0, m=3, L=1.0, spread=0.5, seed=0)
        with pytest.raises(ValueError):
            fa.build_quadratic(N=2, m=3, L=-1.0, spread=0.5, seed=0)
        with pytest.raises(ValueError):
            fa.build_quadratic(N=2, m=3, L=1.0, spread=-0.5, seed=0)
        pop = fa.build_quadratic(N=2, m=3, L=1.0, spread=0.5, seed=0)
        for n in (-1, 2, np.int64(2)):
            with pytest.raises(IndexError):
                pop.grad(n, np.zeros(3))
            with pytest.raises(IndexError):
                pop.stochastic_grad(fa.NoiseModel("gaussian", 1.0), n,
                                    np.zeros(3), fa.substream(0))
        with pytest.raises(ValueError):
            pop.global_grad(np.array([np.nan, 0.0, 0.0]))


class TestNoise:
    def test_gaussian_second_moment(self):
        # E||xi||^2 must equal sigma^2 regardless of dimension
        noise = fa.NoiseModel("gaussian", 1.5)
        rng = fa.substream(0, "mc")
        draws = np.stack([noise.sample(rng, 12) for _ in range(100000)])
        second = np.mean(np.sum(draws**2, axis=1))
        assert second == pytest.approx(1.5**2, rel=0.02)
        assert np.abs(draws.mean(axis=0)).max() < 0.01

    def test_sphere_norm_exact(self):
        noise = fa.NoiseModel("sphere", 0.7)
        rng = fa.substream(1, "mc")
        for _ in range(200):
            assert np.linalg.norm(noise.sample(rng, 9)) == pytest.approx(0.7)

    def test_block_draw_matches_sequential(self):
        noise = fa.NoiseModel("gaussian", 2.0)
        block = noise.sample_block(fa.substream(5, "x"), 4, 7)
        seq_rng = fa.substream(5, "x")
        seq = np.stack([noise.sample(seq_rng, 7) for _ in range(4)])
        np.testing.assert_array_equal(block, seq)

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(0.0, 1e6, exclude_min=True), m=st.integers(1, 512),
           steps=st.integers(1, 4), seed=st.integers(0, 2**32))
    def test_gaussian_scale_matches_numpy_sqrt(self, sigma, m, steps, seed):
        # the scale is sigma / np.sqrt(m) bit for bit, at every m
        assert all(sigma / math.sqrt(k) == sigma / np.sqrt(k) for k in range(1, 513))
        noise = fa.NoiseModel("gaussian", sigma)
        scale = sigma / np.sqrt(m)
        np.testing.assert_array_equal(noise.sample(fa.substream(seed), m),
                                      fa.substream(seed).normal(0.0, scale, size=m))
        ref = fa.substream(seed).standard_normal((steps, m)) * scale
        np.testing.assert_array_equal(
            noise.sample_block(fa.substream(seed), steps, m), ref)

    def test_none_and_validation(self):
        assert not fa.NoiseModel("none", 0.0).sample(fa.substream(0), 3).any()
        assert fa.NoiseModel("gaussian", 0.0).variance == 0.0
        with pytest.raises(ValueError):
            fa.NoiseModel("laplace", 1.0)
        with pytest.raises(ValueError):
            fa.NoiseModel("gaussian", -1.0)


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        pop = fa.build_logistic(N=3, m=5, samples_per_client=16, seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(scale=0.5, size=pop.m)
        h = 1e-6
        for n in range(pop.N):
            g = pop.grad(n, x)
            fd = np.empty(pop.m)
            for j in range(pop.m):
                e = np.zeros(pop.m)
                e[j] = h
                fd[j] = (pop.value(n, x + e) - pop.value(n, x - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_minibatch_gradient_unbiased(self):
        pop = fa.build_logistic(N=2, m=4, samples_per_client=8, seed=14)
        x = np.full(4, 0.3)
        exact = pop.grad(0, x)
        rng = fa.substream(2, "mb")
        est = np.mean([pop.minibatch_grad(0, x, 4, rng) for _ in range(40000)],
                      axis=0)
        np.testing.assert_allclose(est, exact, atol=0.02)

    def test_lipschitz_bound_holds(self):
        pop = fa.build_logistic(N=2, m=4, samples_per_client=10, seed=15)
        L = pop.lipschitz
        rng = np.random.default_rng(16)
        for _ in range(500):
            x, y = rng.normal(size=(2, pop.m))
            lhs = np.linalg.norm(pop.global_grad(x) - pop.global_grad(y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9)
