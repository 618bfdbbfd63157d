"""Divergence diagnostics, concentration checks, learning-rate planning.

Covers the participation-weighted divergence constants (single-round
weighted bias, within-round spread, and the P-round time-averaged bias),
window-concentration checks for independent and Markov participation,
learning-rate configurators with their validity constraints, and
log-log slope fitting for convergence-rate verification.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .objectives import QuadraticPopulation
from .participation import (PatternSpec, WeightSchedule, generate_schedule,
                            window_averages)
from .streams import derive_seed, substream


# ---------------------------------------------------------------------------
# divergence constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    d2: float                    # max_n || grad F_n - grad f ||^2
    beta2: float                 # max_t || sum_n q_t^n (grad F_n - grad f) ||^2
    nu2: float                   # max_t sum_n q_t^n || grad F_n - weighted mean ||^2
    delta2: float                # max over aligned windows of the P-averaged bias
    P: int
    decomposition_residual: float  # max_t |lhs - (beta2(t)+nu2(t))| / max(|lhs|, 1e-30)
                                   # with lhs = sum_n q_t^n ||offs_n||^2
    max_round_sum: float           # max_t (beta2(t) + nu2(t))
    exact: bool

    def validate(self):
        """Raise ValueError unless the constants are finite, nonnegative and
        consistent: beta2(t) + nu2(t) = sum_n q_t^n ||offs_n||^2 <= d2 and
        delta2 <= beta2.  The bounds are compared to 1e-10, relative once
        d2 > 1, where round-off alone exceeds 1e-10."""
        for name in ("d2", "beta2", "nu2", "delta2", "decomposition_residual",
                     "max_round_sum"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} = {v} is not finite and nonnegative")
        tol = 1e-10 * max(1.0, self.d2)
        if self.decomposition_residual > 1e-10:
            raise ValueError(f"beta2 + nu2 misses sum q ||offsets||^2 by "
                             f"{self.decomposition_residual:.3g} (relative)")
        if self.max_round_sum > self.d2 + tol:
            raise ValueError(f"max_t (beta2 + nu2) = {self.max_round_sum!r} "
                             f"exceeds d2 = {self.d2!r}")
        if self.delta2 > self.beta2 + tol:
            raise ValueError(f"delta2 = {self.delta2!r} exceeds "
                             f"beta2 = {self.beta2!r}")


# schedule rows per block of `_round_quantities`, which bounds its
# (block, N, m) temporary
_ROUND_BLOCK = 1024


def _row_blocks(T: int):
    """(lo, hi) blocks of `_ROUND_BLOCK` rows with a 1-row tail folded into
    the block before it.  Row by row, a product over these blocks equals
    one product over all T rows; a lone row would not, as numpy sends a
    (1, N) product to another BLAS call."""
    edges = list(range(0, T, _ROUND_BLOCK)) + [T]
    if len(edges) > 2 and T - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def _round_quantities(offsets: np.ndarray, weights):
    """Per-round beta2(t), nu2(t) and sum_n q_t^n ||offs_n||^2 of per-client
    offsets (N, m) under a schedule, a `WeightSchedule` or dense (T, N)
    weights, read a dense block at a time.  None of them depends on P."""
    T = len(weights)
    beta_t = np.empty(T)
    nu_t = np.empty(T)
    weighted_d2 = np.empty(T)
    sq = np.sum(offsets**2, axis=1)
    for lo, hi in _row_blocks(T):
        w = weights[lo:hi]
        weighted_d2[lo:hi] = w @ sq
        for a in range(lo, hi, _ROUND_BLOCK):   # a tail row on its own
            wa = w[a - lo:a - lo + _ROUND_BLOCK]
            b = wa @ offsets                      # (block, m) weighted offsets
            beta_t[a:a + _ROUND_BLOCK] = np.sum(b**2, axis=1)
            diff = offsets[None, :, :] - b[:, None, :]
            nu_t[a:a + _ROUND_BLOCK] = np.einsum("tn,tnm->t", wa, diff**2)
    return beta_t, nu_t, weighted_d2


def _window_bias(offsets: np.ndarray, weights, P: int) -> float:
    """delta2: the largest squared bias of the aligned P-round window
    averages of offsets (N, m) under a schedule, 0 when no full window fits."""
    n_windows = len(weights) // P
    if not n_windows:
        return 0.0
    b = np.empty((n_windows * P, offsets.shape[1]))
    for lo, hi in _row_blocks(len(b)):
        b[lo:hi] = weights[lo:hi] @ offsets
    win = b.reshape(n_windows, P, -1).mean(axis=1)
    return float(np.max(np.sum(win**2, axis=1)))


# the round maxima of the last (schedule, offsets) pair, under a digest of
# their contents, so that a list of P makes one per-round pass
_ROUND_MAXIMA: dict = {}


def _round_maxima(offsets: np.ndarray, schedule: WeightSchedule) -> np.ndarray:
    """The P-independent fields over the points of offsets (k, N, m): d2,
    the largest beta2(t), nu2(t) and beta2(t) + nu2(t), and the largest
    decomposition residual.  The last pair's are kept, keyed by the bytes
    of both, so that a hit equals a cold pass bit for bit."""
    arrays = [np.ascontiguousarray(a) for a in
              (schedule.indptr, schedule.idx, schedule.q, offsets)]
    digest = hashlib.sha256(repr([schedule.N] + [(a.dtype.str, a.shape)
                                                 for a in arrays]).encode())
    for a in arrays:
        digest.update(a)
    key = digest.digest()
    maxima = _ROUND_MAXIMA.get(key)
    if maxima is None:
        per_point = []
        for offs in offsets:
            beta_t, nu_t, lhs = _round_quantities(offs, schedule)
            rhs = beta_t + nu_t
            residual = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-30)
            per_point.append([np.max(np.sum(offs**2, axis=1)), beta_t.max(),
                              nu_t.max(), rhs.max(), residual.max()])
        maxima = np.max(per_point, axis=0)
        _ROUND_MAXIMA.clear()
        _ROUND_MAXIMA[key] = maxima
    return maxima


def divergence_exact(pop: QuadraticPopulation, schedule: WeightSchedule,
                     P: int) -> DivergenceReport:
    """Exact constants, valid because shared-curvature quadratics have
    gradient differences that do not depend on the evaluation point."""
    if not isinstance(pop, QuadraticPopulation):
        raise TypeError("exact mode needs a shared-curvature QuadraticPopulation; "
                        "use sample_offsets and divergence_at_offsets for "
                        "other populations")
    return replace(divergence_at_offsets(pop.gradient_offsets()[None], schedule, P),
                   exact=True)


def sample_offsets(pop, points: np.ndarray) -> np.ndarray:
    """Client offsets grad F_n(x) - grad f(x) at each of k sample points x,
    shape (k, N, m): one `client_grads` call a point.  A shared-curvature
    quadratic's offsets do not depend on x, so they are taken once,
    exactly, shape (1, N, m), free of the cancellation that gradients of
    size ~L|x| would suffer far from the optimum."""
    points = np.atleast_2d(points)
    if points.size == 0:
        raise ValueError("empty sample set")
    if isinstance(pop, QuadraticPopulation):
        return pop.gradient_offsets()[None]
    grads = np.stack([pop.client_grads(x) for x in points])
    return grads - grads.mean(axis=1, keepdims=True)


def divergence_at_offsets(offsets: np.ndarray, schedule: WeightSchedule,
                          P: int) -> DivergenceReport:
    """The constants as maxima over k points from their offsets (k, N, m),
    e.g. `sample_offsets`, so that several P share one set of gradients.
    Only delta2 depends on P: the other fields come from one per-round
    pass, kept for the last (schedule, offsets) pair, so that a list of P
    makes that pass once.

    Sampled values are lower bounds of the true suprema over x.  Overflow
    and NaN propagate to the maxima, where `validate` rejects them.
    """
    offsets = np.asarray(offsets)
    with np.errstate(over="ignore", invalid="ignore"):
        d2, beta2, nu2, max_sum, residual = map(float, _round_maxima(offsets, schedule))
        delta2 = float(np.max([_window_bias(offs, schedule, P) for offs in offsets]))
    return DivergenceReport(d2=d2, beta2=beta2, nu2=nu2, delta2=delta2, P=P,
                            decomposition_residual=residual,
                            max_round_sum=max_sum, exact=False)


# ---------------------------------------------------------------------------
# concentration checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    bound: str
    P: int
    c: float
    threshold: float
    trials: int
    violation_rate: float
    passed: bool


def hoeffding_threshold(P: int, c: float) -> float:
    return math.log(2.0 / c) / (2.0 * P)


def _check_bound_inputs(P_list, trials: int, c: float, max_lag: int = 0):
    """Reject inputs the concentration checks are not defined for."""
    if min(P_list, default=0) < 1:
        raise ValueError(f"P must be >= 1, got {list(P_list)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")


def hoeffding_check(spec: PatternSpec, N: int, P: int, c: float, trials: int,
                    seed: int) -> BoundCheck:
    """Empirical check of the window-concentration bound for participation
    that is independent across rounds (weights lie in [0, 1])."""
    if spec.kind not in ("independent", "full"):
        raise ValueError("hoeffding_check needs a pattern independent across rounds")
    _check_bound_inputs([P], trials, c)
    threshold = hoeffding_threshold(P, c)
    violations = 0
    total = 0
    chunk = max(1, min(trials, 131072 // P))
    done = 0
    part = 0
    while done < trials:
        k = min(chunk, trials - done)
        sched = generate_schedule(spec, N, k * P, derive_seed(seed, f"hoeffding-{part}"))
        stats = window_averages(sched, P)
        violations += int(np.sum(stats.deviations_sq > threshold))
        total += stats.deviations_sq.size
        done += k
        part += 1
        del sched, stats        # so that the next chunk is made without them
    rate = violations / total
    slack = 3.0 * math.sqrt(c * (1.0 - c) / trials)
    return BoundCheck(bound="hoeffding", P=P, c=c, threshold=threshold,
                      trials=trials, violation_rate=rate,
                      passed=rate <= c + slack)


@dataclass(frozen=True)
class MixingReport:
    P_list: list
    var_qbar: list               # empirical Var(qbar) per P
    slope: float                 # fitted d log Var / d log P; nan with one P
    upsilon_hat2: float          # Var(q) + 2 sum_p Cov(q_t, q_{t+p})
    cov_lags: np.ndarray         # autocovariance at lags 0..max_lag
    cov_ratio: float             # fitted per-lag geometric decay of Cov
    truncation_lag: int
    converged: bool              # covariance cutoff reached within max_lag
    chebyshev: list              # BoundCheck per P


def chebyshev_mixing_check(spec: PatternSpec, N: int, P_list, trials: int,
                           seed: int, c: float = 0.1,
                           max_lag: int = 40) -> MixingReport:
    """Variance-scaling and Chebyshev checks for Markov availability.

    Estimates Var(qbar) on aligned windows for each P, fits the log-log
    slope, estimates the long-run variance from the truncated covariance
    series, and measures per-P violation rates of the Chebyshev window
    bound at level c.
    """
    if spec.kind != "markov":
        raise ValueError("chebyshev_mixing_check needs a markov pattern")
    _check_bound_inputs(P_list, trials, c, max_lag)
    P_list = sorted(int(p) for p in P_list)
    T = max(P_list) * trials
    if max_lag >= T:
        raise ValueError(f"max_lag must be < max(P_list) * trials = {T}, "
                         f"got {max_lag}")
    sched = generate_schedule(spec, N, T, seed)
    lag_cov = window_averages(sched, P_list[0], max_lag=max_lag).lag_cov

    var0 = float(lag_cov[0])
    cov = lag_cov[1:]
    cut = max_lag
    converged = False
    for p in range(1, max_lag + 1):
        if abs(lag_cov[p]) < 1e-4 * var0:
            cut = p
            converged = True
            break
    upsilon_hat2 = var0 + 2.0 * float(np.sum(lag_cov[1:cut + 1]))

    n_fit = 0
    while n_fit < min(cut, 5) and cov[n_fit] > 0:
        n_fit += 1
    if n_fit >= 2:
        slope_cov = np.polyfit(np.arange(1, n_fit + 1),
                               np.log(cov[:n_fit]), 1)[0]
        cov_ratio = float(np.exp(slope_cov))
    else:
        cov_ratio = float("nan")

    variances = []
    checks = []
    for P in P_list:
        stats = window_averages(sched, P)
        variances.append(float(stats.var_qbar))
        thr = upsilon_hat2 / (c * P)
        rate = float(np.mean(stats.deviations_sq > thr))
        slack = 3.0 * math.sqrt(c * (1.0 - c) / max(stats.deviations_sq.size, 1))
        checks.append(BoundCheck(bound="chebyshev", P=P, c=c, threshold=thr,
                                 trials=stats.deviations_sq.shape[0],
                                 violation_rate=rate, passed=rate <= c + slack))
        del stats               # so that the next P's averages are made without them
    # a line through fewer than two distinct P has no slope
    slope = (float(np.polyfit(np.log(P_list), np.log(variances), 1)[0])
             if len(set(P_list)) >= 2 else float("nan"))
    return MixingReport(P_list=P_list, var_qbar=variances, slope=slope,
                        upsilon_hat2=upsilon_hat2, cov_lags=lag_cov,
                        cov_ratio=cov_ratio, truncation_lag=cut,
                        converged=converged, chebyshev=checks)


# ---------------------------------------------------------------------------
# learning-rate planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LRPlan:
    gamma: float
    eta: float
    source: str
    valid: bool
    notes: list = field(default_factory=list)


def _plan_notes(gamma, eta, L, I, P, T):
    notes = []
    ok = True
    if gamma > 1.0 / (12.0 * L * I * P) + 1e-15:
        notes.append(f"gamma {gamma:.3g} exceeds 1/(12 L I P)")
        ok = False
    if gamma * eta > 1.0 / (L * I * P) * (1 + 1e-12):
        notes.append(f"gamma*eta {gamma * eta:.3g} exceeds 1/(L I P)")
        ok = False
    if P > T / 2:
        notes.append(f"P={P} exceeds T/2={T / 2:g}")
        ok = False
    return ok, notes


def _planned_gamma(L, F0, rho, I, P, T) -> float:
    """Check the inputs both planners share; gamma = 1/(12 L I P sqrt(T))."""
    for name, v in [("L", L), ("F0", F0), ("rho", rho), ("I", I), ("P", P), ("T", T)]:
        if v <= 0 or not np.isfinite(v):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    return 1.0 / (12.0 * L * I * P * math.sqrt(T))


def plan_rates_adaptive(L, F0, sigma, rho, I, P, T) -> LRPlan:
    """gamma = 1/(12 L I P sqrt(T)); eta = min(12 P sqrt(L I F0)/(sigma rho), 12 sqrt(T))."""
    gamma = _planned_gamma(L, F0, rho, I, P, T)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    cap = 12.0 * math.sqrt(T)
    if sigma > 0:
        eta = min(12.0 * P * math.sqrt(L * I * F0) / (sigma * rho), cap)
    else:
        eta = cap
    ok, notes = _plan_notes(gamma, eta, L, I, P, T)
    return LRPlan(gamma=gamma, eta=eta, source="cor3.2", valid=ok, notes=notes)


def plan_rates_fixed_amp(L, F0, sigma, rho, I, P, T) -> LRPlan:
    """Requires sqrt(F0)/(rho sqrt(L I T)) <= 1/(L I P); fixed eta branch."""
    gamma = _planned_gamma(L, F0, rho, I, P, T)
    eta = 12.0 * P * math.sqrt(L * I * F0) / rho
    lhs = math.sqrt(F0) / (rho * math.sqrt(L * I * T))
    rhs = 1.0 / (L * I * P)
    ok, notes = _plan_notes(gamma, eta, L, I, P, T)
    if lhs > rhs * (1 + 1e-12):
        notes = notes + [f"precondition fails: sqrt(F0)/(rho sqrt(LIT)) = {lhs:.3g} "
                         f"> 1/(LIP) = {rhs:.3g}"]
        ok = False
    return LRPlan(gamma=gamma, eta=eta, source="cor3.3", valid=ok, notes=notes)


def choose_amplification_interval(upsilon2: float, N: int, I: int, T: int) -> tuple[int, bool]:
    """P = round(upsilon2 N^(5/2) sqrt(I T)) clamped to [1, T // 2].

    Returns (P, clamped).
    """
    if upsilon2 < 0 or N < 1 or I < 1 or T < 2:
        raise ValueError("need upsilon2 >= 0, N >= 1, I >= 1, T >= 2")
    raw = round(upsilon2 * N**2.5 * math.sqrt(I * T))
    P = int(min(max(raw, 1), T // 2))
    return P, P != raw


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    n_points: int
    excluded: list = field(default_factory=list)


def fit_convergence_slope(T_values, min_grad_norms) -> SlopeFit:
    """OLS of log(min ||grad f||^2) against log T over the finite positive
    values; `excluded` lists the T of the others."""
    T_values = np.asarray(T_values, dtype=float)
    y = np.asarray(min_grad_norms, dtype=float)
    mask = np.isfinite(y) & (y > 0)
    excluded = T_values[~mask].tolist()
    if mask.sum() < 3:
        raise ValueError("need at least 3 usable (T, value) points")
    lx, ly = np.log(T_values[mask]), np.log(y[mask])
    (slope, intercept), cov = np.polyfit(lx, ly, 1, cov=True)
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    stderr=float(np.sqrt(cov[0, 0])), n_points=int(mask.sum()),
                    excluded=excluded)


def ball_samples(center: np.ndarray, radius: float, count: int, seed: int) -> np.ndarray:
    """Evaluation points drawn uniformly from a ball around a center."""
    rng = substream(seed, "samples")
    v = rng.normal(size=(count, len(center)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / len(center))
    return center[None, :] + v * r[:, None]
