"""Objective populations: exact constants against brute-force oracles."""

import dataclasses
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


def reference_constants(A, centers, diag):
    """(x*, L, d2, f*) by the expressions the builder used before the
    population derived them itself."""
    cbar = centers.mean(axis=0)
    if diag is not None:
        offsets = (cbar[None, :] - centers) * diag[None, :]
        lip = float(np.max(diag))
    else:
        offsets = (cbar[None, :] - centers) @ A.T
        lip = float(np.linalg.eigvalsh(A)[-1])
    d2 = float(np.max(np.sum(offsets**2, axis=1)))
    dev = centers - cbar[None, :]
    if diag is not None:
        fstar = 0.5 * float(np.sum(dev**2 * diag[None, :])) / centers.shape[0]
    else:
        fstar = 0.5 * float(np.einsum("nm,mk,nk->", dev, A, dev)) / centers.shape[0]
    return cbar, lip, d2, fstar


class TestHandBuilt:
    @pytest.mark.parametrize("rotate", [False, True])
    def test_constants_equal_the_builders(self, rotate):
        built = fa.build_quadratic(N=5, m=4, L=2.0, spread=0.7, seed=12,
                                   rotate=rotate)
        pop = fa.QuadraticPopulation(A=built.A.copy(), centers=built.centers.copy())
        assert (pop.diag is None) == rotate
        if not rotate:
            assert pop.diag.tobytes() == built.diag.tobytes()
            assert pop.diag.tobytes() == np.diagonal(pop.A).tobytes()
        cbar, lip, d2, fstar = reference_constants(pop.A, pop.centers, pop.diag)
        for p in (pop, built):
            assert p.x_star.tobytes() == cbar.tobytes()
            assert (p.lipschitz, p.d2, p.f_star) == (lip, d2, fstar)

    @pytest.mark.parametrize("A", [np.diag([1.0, 0.5]),
                                   np.array([[1.0, 0.25], [0.25, 0.5]])])
    def test_hand_built_population_runs(self, A):
        C = np.array([[1.0, -1.0], [-0.5, 0.0], [0.5, 2.0]])
        pop = fa.QuadraticPopulation(A=A, centers=C)
        np.testing.assert_array_equal(pop.x_star, C.mean(axis=0))
        assert pop.lipschitz == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12)
        sched = fa.generate_schedule(fa.PatternSpec("independent", S=2), 3, 8, seed=1)
        cfg = fa.RunConfig(gamma=0.1, eta=1.5, local_steps=2, amplify_every=2,
                           rounds=8, x0=pop.x_star + 1.0)
        tr = fa.run(pop, fa.NoiseModel("gaussian", 0.1), sched, cfg, seed=3)
        assert not tr.diverged and np.isfinite(tr.f).all()
        assert (tr.f >= pop.f_star).all()
        fa.divergence_exact(pop, sched, 2).validate()
        plan = fa.plan_rates_adaptive(pop.lipschitz, 1.0, 0.1, fa.rho_bound(sched),
                                      2, 2, 8)
        assert plan.gamma > 0

    def test_replace_derives_constants_again(self):
        pop = fa.build_quadratic(N=4, m=3, L=1.0, spread=0.5, seed=13, rotate=False)
        moved = dataclasses.replace(pop, centers=pop.centers + 5.0)
        np.testing.assert_allclose(moved.x_star, pop.x_star + 5.0, atol=1e-12)
        assert moved.d2 == pytest.approx(pop.d2, rel=1e-12)
        assert moved.f_star == pytest.approx(pop.f_star, rel=1e-12)
        assert np.linalg.norm(moved.global_grad(moved.x_star)) < 1e-12
        with pytest.raises(ValueError):
            dataclasses.replace(pop, x_star=np.zeros(3))

    @pytest.mark.parametrize("A, centers", [
        (np.eye(3), np.zeros((4, 2))),          # A is m+1 square
        (np.eye(2)[:, :1], np.zeros((4, 2))),   # A not square
        (np.eye(2), np.zeros(2)),               # centers not (N, m)
        (np.eye(2), np.zeros((0, 2))),          # N = 0
        (np.eye(0), np.zeros((3, 0))),          # m = 0
    ])
    def test_misshaped_input_raises(self, A, centers):
        with pytest.raises(ValueError):
            fa.QuadraticPopulation(A=A, centers=centers)

    @pytest.mark.parametrize("A, centers, match", [
        (np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((3, 2)), "symmetric"),
        (np.diag([-1.0, 1.0]), np.zeros((3, 2)), "semidefinite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros((3, 2)), "finite"),
        (np.eye(2), np.array([[0.0, 0.0], [np.inf, 0.0]]), "finite"),
    ], ids=["non-symmetric", "indefinite", "nan-in-A", "inf-center"])
    def test_curvature_the_constants_cannot_describe_raises(self, A, centers, match):
        # each was accepted before, with a wrong L, an f* of an unbounded f,
        # or NaN constants
        with pytest.raises(ValueError, match=match):
            fa.QuadraticPopulation(A=A, centers=centers)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_psd_with_zero_eigenvalues_accepted(self, seed):
        # eigvalsh of a rotated singular A rounds its zeros to about -1e-16
        pop = fa.build_quadratic(N=3, m=8, L=1.0, spread=0.5, seed=seed,
                                 eigenvalues=np.r_[np.zeros(4), np.ones(4)])
        assert pop.diag is None
        assert pop.lipschitz == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_arrays_are_read_only_copies(self, rotate):
        built = fa.build_quadratic(N=3, m=2, L=1.0, spread=0.5, seed=14,
                                   rotate=rotate)
        A, C = built.A.copy(), built.centers.copy()
        pop = fa.QuadraticPopulation(A=A, centers=C)
        for name in ("A", "centers", "diag", "x_star"):
            arr = getattr(pop, name)
            if arr is not None:
                assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            pop.centers[0] += 10
        # the caller's arrays are not the population's, and stay writable
        assert A.flags.writeable and C.flags.writeable
        C[0] += 10
        A[0, 0] = 5.0
        np.testing.assert_array_equal(pop.centers, built.centers)
        np.testing.assert_array_equal(pop.A, built.A)
        assert pop.global_grad(pop.x_star).tobytes() == \
            built.global_grad(built.x_star).tobytes()

    def test_all_zero_spectrum_rejected(self):
        # L / max(lam) would be 0 / 0 and give a NaN population
        with pytest.raises(ValueError, match="all be zero"):
            fa.build_quadratic(N=2, m=3, L=1.0, spread=0.5, seed=0,
                               eigenvalues=np.zeros(3))


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

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(17)
        return rng.normal(size=(3, 4, 2)), np.where(rng.random((3, 4)) < 0.5, -1.0, 1.0)

    @pytest.mark.parametrize("case", ["labels_shape", "labels_01", "label_nan",
                                      "feature_nan", "feature_inf", "features_2d",
                                      "no_clients", "no_samples", "no_dims"])
    def test_bad_arrays_rejected_at_construction(self, case):
        F, y = self._inputs()
        if case == "labels_shape":    # used to fail in a checkpoint's broadcast
            y = y[:, :3]
        elif case == "labels_01":     # used to be a different objective
            y = (y + 1) / 2
        elif case == "label_nan":
            y[1, 2] = np.nan
        elif case == "feature_nan":   # used to fail in lipschitz's SVD
            F[0, 1, 1] = np.nan
        elif case == "feature_inf":
            F[2, 0, 0] = -np.inf
        elif case == "features_2d":   # used to raise IndexError from m
            F, y = F[0], y[0]
        elif case == "no_clients":
            F, y = F[:0], y[:0]
        elif case == "no_samples":
            F, y = F[:, :0], y[:, :0]
        else:
            F = F[:, :, :0]
        with pytest.raises(ValueError):
            fa.LogisticPopulation(features=F, labels=y, lam=1e-3)

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf])
    def test_bad_lam_rejected_at_construction(self, lam):
        F, y = self._inputs()
        with pytest.raises(ValueError):
            fa.LogisticPopulation(features=F, labels=y, lam=lam)

    def test_arrays_are_read_only_copies(self):
        F, y = self._inputs()
        pop = fa.LogisticPopulation(features=F, labels=y, lam=0)
        x = np.array([0.5, -1.0])
        g = pop.global_grad(x)
        F[:] = 0.0
        y[:] = 1.0
        np.testing.assert_array_equal(pop.global_grad(x), g)
        ints = fa.LogisticPopulation(features=F.astype(int), labels=y.astype(int), lam=0)
        assert ints.labels.dtype == ints.features.dtype == np.float64
        for a in (pop.features, pop.labels):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_stacked_evaluation_matches_per_client_calls(self):
        # N = 9 clients and m = 1: numpy would sum this column pairwise, so
        # only an in-order client sum keeps the bits; k = 130 > 128 makes
        # each client's mean pairwise as well
        pop =fa.build_logistic(N=9, m=1, samples_per_client=130, seed=18)
        x = np.array([0.7])
        G = pop.client_grads(x)
        assert G.shape == (9, 1)
        for n in range(pop.N):
            assert G[n].tobytes() == pop.grad(n, x).tobytes()
        acc, value = np.zeros(1), 0.0
        for n in range(pop.N):
            acc += pop.grad(n, x)
            value += pop.value(n, x)
        assert pop.global_grad(x).tobytes() == (acc / pop.N).tobytes()
        assert pop.global_value(x) == value / pop.N
