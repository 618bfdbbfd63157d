"""Client objective populations with analytically known constants.

The default population is a family of quadratics sharing one curvature
matrix, so the smoothness constant, the optimum, and the gradient
divergence are all exact.  A synthetic logistic-regression population is
provided for stress testing; its constants are estimated, not exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise: 'none', 'gaussian', or 'sphere'.

    Gaussian noise is isotropic with per-coordinate variance sigma^2/m so
    that E||xi||^2 = sigma^2 exactly.  Sphere noise is uniform on the
    sphere of radius sigma, so ||xi|| = sigma almost surely.
    """

    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "sphere"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise ValueError(f"invalid noise scale: {self.sigma}")

    @property
    def variance(self) -> float:
        return 0.0 if self.kind == "none" else self.sigma**2

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self._draw(rng, (m,))

    def sample_block(self, rng: np.random.Generator, steps: int, m: int) -> np.ndarray:
        """`steps` consecutive `sample` draws from one stream as the rows of
        one (steps, m) block, bit for bit."""
        return self._draw(rng, (steps, m))

    def _draw(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        """One draw per row of a new array of `shape` (..., m), in stream order."""
        if self.kind == "none" or self.sigma == 0.0:
            return np.zeros(shape)
        if self.kind == "gaussian":
            # math.sqrt rounds as np.sqrt does (correctly), without numpy scalars
            return rng.normal(0.0, self.sigma / math.sqrt(shape[-1]), size=shape)
        # sphere: uniform direction scaled to radius sigma
        v = rng.normal(size=shape)
        for row in np.atleast_2d(v):
            row *= self.sigma / np.linalg.norm(row)
        return v


@dataclass(frozen=True)
class QuadraticPopulation:
    """N quadratic clients F_n(x) = 0.5 (x - c_n)' A (x - c_n) with shared A.

    Because the curvature is shared, per-client gradients differ from the
    global gradient by the constant vector A(c_bar - c_n), which makes all
    divergence constants exact.  A and the centers are the whole input;
    the constants are derived from them at construction.  A must be
    finite, symmetric and PSD; the population keeps read-only copies.
    """

    A: np.ndarray                 # (m, m) symmetric PSD
    centers: np.ndarray           # (N, m)
    # A's diagonal when A is diagonal (elementwise kernels), else None
    diag: np.ndarray | None = field(init=False)
    x_star: np.ndarray = field(init=False)    # the center mean
    f_star: float = field(init=False)
    lipschitz: float = field(init=False)
    d2: float = field(init=False)             # max_n ||grad F_n - grad f||^2

    def __post_init__(self):
        # private read-only copies: an edit in place would leave the derived
        # constants stale
        A, centers = (np.array(a, dtype=float) for a in (self.A, self.centers))
        if centers.ndim != 2 or min(centers.shape) < 1:
            raise ValueError(f"centers must have shape (N, m) with N, m >= 1, "
                             f"got {centers.shape}")
        N, m = centers.shape
        if A.shape != (m, m):
            raise ValueError(f"A must have shape ({m}, {m}), got {A.shape}")
        if not (np.isfinite(A).all() and np.isfinite(centers).all()):
            raise ValueError("A and the centers must be finite")
        if not np.array_equal(A, A.T):
            raise ValueError("A must be symmetric")
        diag = A.diagonal().copy()
        if np.count_nonzero(A) != np.count_nonzero(diag):  # an off-diagonal entry
            diag = None
        eig = np.sort(diag) if diag is not None else np.linalg.eigvalsh(A)
        lip = float(eig[-1])
        if eig[0] < -1e-12 * max(lip, 0.0):
            raise ValueError(f"A must be positive semidefinite, has eigenvalue "
                             f"{eig[0]:.3g}")
        cbar = centers.mean(axis=0)
        dev = centers - cbar[None, :]
        if diag is not None:
            fstar = 0.5 * float(np.sum(dev**2 * diag[None, :])) / N
        else:
            fstar = 0.5 * float(np.einsum("nm,mk,nk->", dev, A, dev)) / N
        for a in (A, centers, diag, cbar):
            if a is not None:
                a.setflags(write=False)
        for name, value in (("A", A), ("centers", centers), ("diag", diag),
                            ("x_star", cbar), ("f_star", fstar), ("lipschitz", lip)):
            object.__setattr__(self, name, value)
        offsets = self.gradient_offsets()
        object.__setattr__(self, "d2", float(np.max(np.sum(offsets**2, axis=1))))

    @property
    def N(self) -> int:
        return self.centers.shape[0]

    @property
    def m(self) -> int:
        return self.centers.shape[1]

    def _check_index(self, n: int):
        if not 0 <= n < self.N:
            raise IndexError(f"client index {n} out of range [0, {self.N})")

    def _apply_A(self, v: np.ndarray) -> np.ndarray:
        if self.diag is not None:
            return self.diag * v
        return self.A @ v

    def grad(self, n: int, x: np.ndarray) -> np.ndarray:
        # _check_index and _apply_A inlined: this runs once per local step
        centers = self.centers
        if not 0 <= n < len(centers):
            raise IndexError(f"client index {n} out of range [0, {len(centers)})")
        if self.diag is not None:
            return self.diag * (x - centers[n])
        return self.A @ (x - centers[n])

    def value(self, n: int, x: np.ndarray) -> float:
        self._check_index(n)
        d = x - self.centers[n]
        return 0.5 * float(d @ self._apply_A(d))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) from one A(x - c_bar): the mean of A(x - c_n),
        and the value at c_bar plus f* (the bias-variance split)."""
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite evaluation point")
        d = x - self.x_star
        g = self._apply_A(d)
        return 0.5 * float(d @ g) + self.f_star, g

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def global_value(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def gradient_offsets(self) -> np.ndarray:
        """Constant per-client offsets grad F_n(x) - grad f(x), shape (N, m)."""
        diff = self.x_star[None, :] - self.centers
        if self.diag is not None:
            return diff * self.diag[None, :]
        return diff @ self.A.T

    def stochastic_grad(self, noise: NoiseModel, n: int, x: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        return self.grad(n, x) + noise.sample(rng, self.centers.shape[1])


def build_quadratic(N: int, m: int, L: float, spread: float, seed: int,
                    eigenvalues: np.ndarray | None = None,
                    rotate: bool = True) -> QuadraticPopulation:
    """Seeded quadratic population with exact constants.

    A = Q diag(lam) Q' with lam_max pinned to L; centers drawn isotropically
    with scale `spread` and re-centered so the optimum is the center mean.
    Pass `eigenvalues` to control the spectrum (scaled so max = L), and
    rotate=False to keep A diagonal (enables the elementwise fast path).
    """
    if N < 1 or m < 1:
        raise ValueError(f"need N >= 1 and m >= 1, got N={N}, m={m}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"curvature scale must be positive and finite: {L}")
    if not (np.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be nonnegative and finite: {spread}")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    if eigenvalues is None:
        lam = rng.uniform(0.1, 1.0, size=m)
        lam[rng.integers(m)] = 1.0
        lam *= L
    else:
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.shape != (m,) or np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be m nonnegative finite values")
        if np.max(lam) == 0:
            raise ValueError("eigenvalues must not all be zero")
        lam = lam * (L / np.max(lam))

    if rotate and m > 1:
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        A = (Q * lam[None, :]) @ Q.T
        A = 0.5 * (A + A.T)
    else:
        A = np.diag(lam)

    centers = spread * rng.normal(size=(N, m))
    centers = centers - centers.mean(axis=0, keepdims=True)
    return QuadraticPopulation(A=A, centers=centers)


@dataclass(frozen=True)
class LogisticPopulation:
    """Synthetic l2-regularized logistic clients with label-skewed clusters.

    Client n holds k samples (features[n], labels[n]) with labels +-1 and
    F_n(x) = mean_i log(1 + exp(-y_i <a_i, x>)) + lam/2 ||x||^2.  The
    population keeps read-only float copies of its arrays and rejects
    mis-shaped input, non-finite features, labels other than +-1 and a
    negative or non-finite lam.

    `client_grads` and `value_and_grad` evaluate all N clients in one
    stacked pass, bit for bit equal to the per-client `grad` and `value`:
    `features @ x` on the (N, k, m) stack runs the matmul inner loop that
    `features[n] @ x` runs once per client, the mean over each contiguous
    row of k margins is the same pairwise sum, and the N client terms are
    still added in ascending order.  `value_and_grad` takes that product
    once for the margins and the gradient rows: a checkpoint at N = 32,
    k = 64, m = 16 takes ~165 us, against ~190 us when `global_grad` and
    `global_value` each took it (2-core Xeon, one BLAS thread).
    """

    features: np.ndarray   # (N, k, m)
    labels: np.ndarray     # (N, k) in {-1, +1}
    lam: float

    def __post_init__(self):
        features, labels = (np.array(a, dtype=float)
                            for a in (self.features, self.labels))
        if features.ndim != 3 or min(features.shape) < 1:
            raise ValueError(f"features must have shape (N, k, m) with "
                             f"N, k, m >= 1, got {features.shape}")
        if labels.shape != features.shape[:2]:
            raise ValueError(f"labels must have shape {features.shape[:2]}, "
                             f"got {labels.shape}")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must all be -1 or +1")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        for a in (features, labels):
            a.setflags(write=False)
        # scipy is imported when a logistic population is built, not with the
        # package: it is the only user, and the import costs ~0.2 s of every
        # process start
        from scipy.special import expit
        for name, value in (("features", features), ("labels", labels),
                            ("lam", lam), ("_expit", expit)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[2]

    @property
    def samples_per_client(self) -> int:
        return self.features.shape[1]

    @property
    def lipschitz(self) -> float:
        """Valid upper bound: lam + max_n lam_max(X' X) / (4 k)."""
        s = np.linalg.norm(self.features, 2, axis=(1, 2))  # largest singular values
        return self.lam + float(np.max(s * s / (4.0 * self.samples_per_client)))

    def _check_index(self, n: int):
        if not 0 <= n < self.N:
            raise IndexError(f"client index {n} out of range [0, {self.N})")

    def value(self, n: int, x: np.ndarray) -> float:
        self._check_index(n)
        margins = self.labels[n] * (self.features[n] @ x)
        return float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * self.lam * float(x @ x)

    def grad(self, n: int, x: np.ndarray) -> np.ndarray:
        self._check_index(n)
        return self._grad(self.features[n], self.labels[n], x)

    def minibatch_grad(self, n: int, x: np.ndarray, batch: int,
                       rng: np.random.Generator) -> np.ndarray:
        """Unbiased minibatch gradient, sampled without replacement."""
        self._check_index(n)
        k = self.samples_per_client
        idx = rng.choice(k, size=min(batch, k), replace=False)
        return self._grad(self.features[n][idx], self.labels[n][idx], x)

    def _grad(self, X: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The gradient of one client's loss on the samples (X, y)."""
        coeff = -y * self._expit(-y * (X @ x))
        return coeff @ X / len(y) + self.lam * x

    def _client_grads(self, Fx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Every client's `_grad` from Fx = features @ x, shape (N, m)."""
        F, y = self.features, self.labels
        coeff = -y * self._expit(-y * Fx)
        # (1, k) @ (k, m) per client, as coeff @ X in _grad
        return np.matmul(coeff[:, None, :], F)[:, 0, :] / y.shape[1] + self.lam * x

    def client_grads(self, x: np.ndarray) -> np.ndarray:
        """All clients' gradients at x, shape (N, m); row n is grad(n, x)."""
        return self._client_grads(self.features @ x, x)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) from one `features @ x` over all clients."""
        Fx = self.features @ x
        reg = 0.5 * self.lam * float(x @ x)
        f = 0.0
        for v in np.mean(np.logaddexp(0.0, -(self.labels * Fx)), axis=1).tolist():
            f += v + reg
        # rows added in ascending client order: sum(axis=0) would add a
        # single column (m = 1) pairwise
        g = np.zeros(self.m)
        for row in self._client_grads(Fx, x):
            g += row
        return f / self.N, g / self.N

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def global_value(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def stochastic_grad(self, noise: NoiseModel, n: int, x: np.ndarray,
                        rng: np.random.Generator, batch: int | None = None) -> np.ndarray:
        if batch is not None:
            return self.minibatch_grad(n, x, batch, rng)
        return self.grad(n, x) + noise.sample(rng, self.m)


def build_logistic(N: int, m: int, samples_per_client: int, seed: int,
                   lam: float = 1e-3, cluster_scale: float = 2.0) -> LogisticPopulation:
    """Non-IID logistic population: each client's positives sit in its own cluster."""
    if N < 1 or m < 1 or samples_per_client < 2:
        raise ValueError("need N >= 1, m >= 1, samples_per_client >= 2")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    feats = np.empty((N, samples_per_client, m))
    labs = np.empty((N, samples_per_client))
    for n in range(N):
        mu = cluster_scale * rng.normal(size=m)
        y = np.where(np.arange(samples_per_client) % 4 == 0, -1.0, 1.0)  # label skew
        rng.shuffle(y)
        feats[n] = rng.normal(size=(samples_per_client, m)) + np.outer(y, mu)
        labs[n] = y
    return LogisticPopulation(features=feats, labels=labs, lam=lam)
