"""Generalized federated averaging with amplified updates.

Each round, participating clients run I local SGD steps from the current
global parameter; the weighted updates are applied and accumulated, and
every P rounds the accumulated update is amplified by a factor eta.
Wait-for-all baselines freeze the parameter for P rounds and take a
single averaged step instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import NoiseModel
from .participation import WeightSchedule, verify_simplex
from .streams import substream

MODES = ("generalized", "wait_minibatch", "wait_full")


@dataclass(frozen=True)
class RunConfig:
    gamma: float                 # local learning rate
    eta: float                   # amplification factor
    local_steps: int             # I
    amplify_every: int           # P
    rounds: int                  # T
    x0: np.ndarray
    eval_every: int | None = None   # defaults to amplify_every
    mode: str = "generalized"
    minibatch: int | None = None    # noiseless, at most the samples per client

    def validate(self, pop=None, noise: NoiseModel | None = None):
        """Check the parameters, and their fit to `pop` and `noise` when given."""
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite: {self.gamma}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite: {self.eta}")
        if self.local_steps < 1:
            raise ValueError(f"need I >= 1, got {self.local_steps}")
        if not 1 <= self.amplify_every <= self.rounds:
            raise ValueError(f"need 1 <= P <= T, got P={self.amplify_every}, "
                             f"T={self.rounds}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.minibatch is not None and self.minibatch < 1:
            raise ValueError(f"need minibatch >= 1 or None, got {self.minibatch}")
        if self.eval_every is not None and self.eval_every < 0:
            raise ValueError(f"need eval_every >= 0 or None, got {self.eval_every}")
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        if self.minibatch is not None and noise is not None and noise.variance > 0:
            raise ValueError(f"minibatch takes no gradient noise, got "
                             f"{noise.kind} noise with sigma = {noise.sigma}")
        if pop is None:
            return
        if len(self.x0) != pop.m:
            raise ValueError(f"x0 dimension {len(self.x0)} != population "
                             f"dimension {pop.m}")
        k = getattr(pop, "samples_per_client", 0)
        if self.minibatch is not None and self.minibatch > k:
            raise ValueError(f"minibatch {self.minibatch} needs a population with "
                             f"at least that many samples per client; "
                             f"{type(pop).__name__} has {k}")

    @property
    def checkpoint_step(self) -> int:
        return self.eval_every if self.eval_every else self.amplify_every


def amplify(x: np.ndarray, u: np.ndarray, eta: float) -> None:
    """At an interval boundary, x <- x + (eta - 1) u and u <- 0, in place."""
    if eta != 1.0:
        x += (eta - 1.0) * u
    u.fill(0.0)


@dataclass(frozen=True)
class Trace:
    t: np.ndarray
    f: np.ndarray
    grad_norm_sq: np.ndarray
    min_grad_norm_sq: np.ndarray
    is_boundary: np.ndarray
    x_final: np.ndarray
    meta: dict = field(default_factory=dict)
    diverged_round: int | None = None
    max_boundary_residual: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.diverged_round is not None

    @property
    def final_min_grad_norm_sq(self) -> float:
        return float(self.min_grad_norm_sq[-1])


def checkpoint_eval(pop, x: np.ndarray) -> tuple[float, float]:
    """Exact full-batch (f(x), ||grad f(x)||^2)."""
    f, g = pop.value_and_grad(x)
    return f, float(g @ g)


class _LocalSteps:
    """The local updates of one run: I steps from x for each client.

    Client n's stream in round t is substream(seed, "local", t, n),
    re-keyed into the run's one generator.  Diagonal quadratics step all
    of a round's clients at once on preallocated blocks; all their
    operations are elementwise per client row, in the per-client order,
    so the results are bit-identical to the per-client path that every
    other population takes.
    """

    def __init__(self, pop, noise: NoiseModel, cfg: RunConfig, seed: int,
                 rows: int):
        self.pop, self.noise, self.cfg, self.seed = pop, noise, cfg, seed
        self.rng = np.random.Generator(np.random.Philox())
        self.deltas = np.empty((rows, pop.m))
        self.batched = pop.diag is not None
        if self.batched:
            self.lam = np.tile(pop.diag, (rows, 1))  # faster than a broadcast row
            self.centers = np.empty((rows, pop.m))
            self.grads = np.empty((rows, pop.m))
            noisy = noise.kind != "none" and noise.sigma != 0.0
            self.xi = np.empty((rows, cfg.local_steps, pop.m)) if noisy else None

    def __call__(self, clients: np.ndarray, x: np.ndarray, t: int) -> np.ndarray:
        """Rows y_I - x, in the order of `clients`; valid until the next call."""
        k, gamma, steps = len(clients), self.cfg.gamma, self.cfg.local_steps
        Y = self.deltas[:k]
        Y[:] = x
        labels = clients.tolist()    # Python ints: substream's cheapest labels
        if not self.batched:
            batch = self.cfg.minibatch
            for y, n in zip(Y, labels):
                rng = substream(self.seed, "local", t, n, reuse=self.rng)
                for _ in range(steps):
                    y -= gamma * self.pop.stochastic_grad(self.noise, n, y, rng, batch)
            Y -= x
            return Y
        C, G, lam = self.centers[:k], self.grads[:k], self.lam[:k]
        self.pop.centers.take(clients, axis=0, out=C)
        xi = None
        if self.xi is not None:
            xi, m = self.xi[:k], self.pop.m
            for j, n in enumerate(labels):
                rng = substream(self.seed, "local", t, n, reuse=self.rng)
                xi[j] = self.noise.sample_block(rng, steps, m)
        for i in range(steps):  # Y - gamma * (lam * (Y - C) + xi_i)
            np.subtract(Y, C, out=G)
            G *= lam
            if xi is not None:
                G += xi[:, i]
            G *= gamma
            Y -= G
        Y -= x
        return Y


class _Rounds:
    """The one round loop of every mode: the input checks, the meta dict,
    the checkpoint rows, the divergence exit and the trace."""

    def __init__(self, pop, noise: NoiseModel, schedule: WeightSchedule,
                 cfg: RunConfig, seed: int):
        cfg.validate(pop, noise)
        if schedule.T < cfg.rounds:
            raise ValueError(f"schedule covers {schedule.T} rounds, need {cfg.rounds}")
        if schedule.N != pop.N:
            raise ValueError(f"schedule has {schedule.N} clients, population "
                             f"has {pop.N}")
        report = verify_simplex(schedule, strict=True)
        P, T = cfg.amplify_every, cfg.rounds
        self.pop, self.T, self.P, self.step = pop, T, P, cfg.checkpoint_step
        self.meta = {"seed": int(seed), "pattern": schedule.pattern,
                     "mode": cfg.mode, "gamma": cfg.gamma, "eta": cfg.eta,
                     "I": cfg.local_steps, "P": P, "T": T,
                     "rho": math.sqrt(report.rho2)}
        self.t, self.f, self.g2 = [], [], []
        self.max_residual = 0.0

    def checkpoint(self, t, x) -> bool:
        """Evaluate and store the checkpoint of round t if one is due;
        False if its values overflowed."""
        if t % self.step and t != self.T:
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            fval, g2 = checkpoint_eval(self.pop, x)
        self.t.append(t)
        self.f.append(fval)
        self.g2.append(g2)
        return bool(np.isfinite(fval) and np.isfinite(g2))

    def loop(self, x, update) -> Trace:
        """Run rounds 0..T-1 on x, then checkpoint round T.  `update(t, x)`
        changes x in place and returns False if x went non-finite; the run
        stops at the first round whose checkpoint overflowed or whose update
        failed.  The running minimum of ||grad f||^2 skips non-finite values."""
        diverged_round = None
        for t in range(self.T):
            if not (self.checkpoint(t, x) and update(t, x)):
                diverged_round = t
                break
        else:
            if not self.checkpoint(self.T, x):
                diverged_round = self.T
        t, g2 = np.array(self.t), np.array(self.g2)
        return Trace(t=t, f=np.array(self.f), grad_norm_sq=g2,
                     min_grad_norm_sq=np.minimum.accumulate(
                         np.where(np.isfinite(g2), g2, np.inf)),
                     is_boundary=t % self.P == 0,
                     x_final=np.nan_to_num(x),  # x is finite but at a non-finite exit
                     meta=self.meta, diverged_round=diverged_round,
                     max_boundary_residual=self.max_residual)


def run(pop, noise: NoiseModel, schedule: WeightSchedule, cfg: RunConfig,
        seed: int) -> Trace:
    """Execute the generalized algorithm and return a checkpointed trace.

    Only clients with positive weight take local steps and enter the
    aggregate.
    """
    if cfg.mode != "generalized":
        return run_wait_baseline(pop, noise, schedule, cfg, seed)
    rounds = _Rounds(pop, noise, schedule, cfg, seed)
    P, T = cfg.amplify_every, cfg.rounds
    u = np.zeros(pop.m)
    x_start = np.array(cfg.x0, dtype=float)   # x at the start of the current interval

    # on the simplex, a row's stored weights are its positive ones
    bounds = schedule.indptr[:T + 1].tolist()
    per_round = np.diff(schedule.indptr[:T + 1])
    q = schedule.entry_weights(0, T)
    local = _LocalSteps(pop, noise, cfg, seed, int(per_round.max(initial=0)))

    def update(t, x):
        a, b = bounds[t], bounds[t + 1]
        deltas = local(schedule.idx[a:b], x, t)
        deltas *= q[a:b, None]
        # rows are added in ascending client order (numpy sums a single
        # column, m = 1, pairwise)
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


def run_wait_baseline(pop, noise: NoiseModel, schedule: WeightSchedule,
                      cfg: RunConfig, seed: int) -> Trace:
    """Wait-for-all baseline over the same participation process.

    Within each window of P rounds the parameter is frozen; every client
    that appears contributes one update equal to I steps along its
    (appearance-averaged) gradient at the frozen point.  wait_full uses
    the exact gradient, wait_minibatch averages stochastic draws.
    """
    rounds = _Rounds(pop, noise, schedule, cfg, seed)
    if cfg.mode not in ("wait_minibatch", "wait_full"):
        raise ValueError(f"run_wait_baseline needs a wait mode, got {cfg.mode!r}")
    P = cfg.amplify_every
    gen = np.random.Generator(np.random.Philox())

    def update(t, x):
        if (t + 1) % P:
            return True
        t_start = t + 1 - P
        a, b = schedule.indptr[t_start], schedule.indptr[t + 1]
        clients = schedule.idx[a:b]
        rounds_in = np.repeat(np.arange(t_start, t + 1),
                              np.diff(schedule.indptr[t_start:t + 2]))
        # the window's appearances: client-major, rounds ascending, each
        # client's a group that starts where the sorted client changes
        order = np.argsort(clients, kind="stable")
        sorted_clients, rounds_in = clients[order], rounds_in[order].tolist()
        starts = np.flatnonzero(np.diff(sorted_clients, prepend=-1))
        groups = zip(sorted_clients[starts].tolist(), starts.tolist(),
                     starts[1:].tolist() + [len(order)])
        step = np.zeros(pop.m)
        for n, lo, hi in groups:    # ascending client index
            if cfg.mode == "wait_full":
                g = pop.grad(n, x)
            else:   # one draw per appearance
                g = np.zeros(pop.m)
                for tr in rounds_in[lo:hi]:
                    rng = substream(seed, "local", tr, n, reuse=gen)
                    g += pop.stochastic_grad(noise, n, x, rng, cfg.minibatch)
                g /= hi - lo
            step += -cfg.gamma * cfg.local_steps * g
        x += step / len(starts)
        return np.isfinite(x).all()

    return rounds.loop(np.array(cfg.x0, dtype=float), update)
