"""Participation-weight schedules and their window statistics.

A schedule assigns every round a point on the probability simplex over
clients.  Generators cover full participation, independent uniform
subsets, permutation-regularized selection, periodic group availability,
and Markov on/off availability chains.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .streams import substream

SIMPLEX_TOL = 1e-12
PATTERN_KINDS = ("full", "independent", "permutation", "periodic", "markov")


@dataclass(frozen=True)
class PatternSpec:
    """Tagged participation pattern.

    kind: 'full' | 'independent' | 'permutation' | 'periodic' | 'markov'
    S: participants per round (ignored for 'full')
    G, B: group count and block length for 'periodic'
    offset: 'random' or a fixed int in [0, G*B) for 'periodic'
    p_aa, p_uu: stay-available / stay-unavailable probabilities for 'markov'
    """

    kind: str
    S: int = 0
    G: int = 0
    B: int = 0
    offset: int | str = "random"
    p_aa: float = 0.0
    p_uu: float = 0.0

    def validate(self, N: int):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if N < 1:
            raise ValueError(f"need N >= 1, got N={N}")
        _check_clients(N)
        if self.kind != "full":
            if not 1 <= self.S <= N:
                raise ValueError(f"need 1 <= S <= N, got S={self.S}, N={N}")
        if self.kind == "permutation" and N % self.S != 0:
            raise ValueError(f"permutation pattern needs S | N, got S={self.S}, N={N}")
        if self.kind == "periodic":
            if self.G < 1 or self.B < 1 or N % self.G != 0:
                raise ValueError(f"periodic pattern needs G >= 1, B >= 1, G | N")
            if self.S > N // self.G:
                raise ValueError(f"S={self.S} exceeds group size {N // self.G}")
            if isinstance(self.offset, int) and not 0 <= self.offset < self.G * self.B:
                raise ValueError(f"fixed offset must lie in [0, {self.G * self.B})")
        if self.kind == "markov":
            if not (0 < self.p_aa < 1 and 0 < self.p_uu < 1):
                raise ValueError("markov stay probabilities must lie in (0, 1)")

    def describe(self) -> str:
        if self.kind == "full":
            return "full"
        if self.kind == "independent":
            return f"independent(S={self.S})"
        if self.kind == "permutation":
            return f"permutation(S={self.S})"
        if self.kind == "periodic":
            return f"periodic(G={self.G},B={self.B},S={self.S},offset={self.offset})"
        return f"markov(p_aa={self.p_aa},p_uu={self.p_uu},S={self.S})"


def _check_clients(N: int):
    """Client indices are stored as int32, so N must stay below 2**31."""
    if N >= 2**31:
        raise ValueError(f"need N < 2**31, so that client indices fit int32; got N={N}")


def _row_pointers(counts) -> np.ndarray:
    """indptr of rows with the given entry counts: 0, then their running sum."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class WeightSchedule:
    """Per-round points on the simplex over N clients, stored as sparse rows.

    Round t's clients are idx[indptr[t]:indptr[t + 1]], strictly ascending,
    with weights entry_weights(t, t + 1).  A row holds every nonzero weight
    and nothing else, so a schedule of S clients a round takes O(T * S)
    memory, in one of two layouts:
    - q is None when every row t holds k_t >= 1 equal weights fl(1/k_t), as
      every generated schedule does: 4 bytes an entry, an int32 client;
    - otherwise q holds each entry's float64 weight: 12 bytes an entry.
    Either way N < 2**31, and the T + 1 row starts take 8 bytes each.  Any
    weights equal to the first layout's, bit for bit, are stored in it.
    `schedule[lo:hi]` gives rounds lo..hi-1 as a dense (hi - lo, N) block,
    so passes over the rows run block by block.
    """

    indptr: np.ndarray           # (T + 1,) int64, where each row starts
    idx: np.ndarray              # int32 clients of every row, ascending per row
    q: np.ndarray | None         # their float64 weights, None if each row's are 1/k
    N: int
    pattern: str
    seed: int
    fallback_rounds: int = 0     # markov rounds with no available client

    def __post_init__(self):
        if self.q is not None:
            k = np.diff(self.indptr)
            if k.min(initial=1) >= 1 and np.array_equal(self.q, np.repeat(1.0 / k, k)):
                object.__setattr__(self, "q", None)

    @classmethod
    def from_dense(cls, weights, pattern: str, seed: int,
                   fallback_rounds: int = 0) -> "WeightSchedule":
        """The schedule of a dense (T, N) array.  Every nonzero entry is
        kept, negative and non-finite ones too, so that `verify_simplex`
        rejects them."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError(f"need dense weights of shape (T, N), got {weights.shape}")
        _check_clients(weights.shape[1])
        rows, idx = np.nonzero(weights)
        return cls(indptr=_row_pointers(np.bincount(rows, minlength=len(weights))),
                   idx=idx.astype(np.int32), q=weights[rows, idx], N=weights.shape[1],
                   pattern=pattern, seed=int(seed), fallback_rounds=fallback_rounds)

    @property
    def T(self) -> int:
        return len(self.indptr) - 1

    def __len__(self) -> int:
        return self.T

    def __getitem__(self, rounds: slice) -> np.ndarray:
        """Rounds lo..hi-1 of `schedule[lo:hi]` as a dense (hi - lo, N) block."""
        if not isinstance(rounds, slice):
            raise TypeError("index a schedule with a slice of rounds")
        lo, hi, step = rounds.indices(self.T)
        if step != 1:
            raise ValueError("a schedule slice takes consecutive rounds")
        hi = max(lo, hi)
        block = np.zeros((hi - lo, self.N))
        a, b = self.indptr[lo], self.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
        block[rows, self.idx[a:b]] = self.entry_weights(lo, hi)
        return block

    def entry_weights(self, lo: int, hi: int) -> np.ndarray:
        """The float64 weights of the entries of rounds lo..hi-1, in order:
        a view of the stored q, or each row's 1/k_t repeated k_t times."""
        if self.q is not None:
            return self.q[self.indptr[lo]:self.indptr[hi]]
        k = np.diff(self.indptr[lo:hi + 1])
        return np.repeat(1.0 / k, k)

    @property
    def weights(self) -> np.ndarray:
        """The dense (T, N) weights, built anew on each access."""
        return self[:]

    def to_csv(self, path):
        rounds = np.repeat(np.arange(self.T), np.diff(self.indptr))
        q = self.entry_weights(0, self.T)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "n", "q"])
            w.writerows(zip(rounds.tolist(), self.idx.tolist(),
                            (f"{v:.17g}" for v in q.tolist())))


def load_schedule_csv(path, N: int | None = None) -> WeightSchedule:
    """Read a raw `t,n,q` schedule file.  Rows may carry unequal weights;
    each (t, n) pair may appear once, with t >= 0 and 0 <= n < N.  The
    rounds run to the largest t; explicit zero weights are dropped."""
    if N is not None:
        _check_clients(N)
    entries = {}
    n_limit = 2**31 - 1 if N is None else N     # N = n + 1 < 2**31, T = t + 1 < 2**63
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "n", "q"]:
            raise ValueError(f"bad schedule header: {header}")
        for line, row in enumerate(reader, start=2):
            try:
                t, n, q = int(row[0]), int(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"schedule line {line} {row}: {exc}") from exc
            if not (0 <= t < 2**63 - 1 and 0 <= n < n_limit):
                raise ValueError(f"schedule line {line} {row}: need "
                                 f"0 <= t < 2**63 - 1 and 0 <= n < N < 2**31 (N={N})")
            if (t, n) in entries:
                raise ValueError(f"schedule line {line} {row}: repeats "
                                 f"round {t}, client {n}")
            entries[t, n] = q
    if not entries:
        raise ValueError("empty schedule file")
    ts, ns = zip(*entries)
    T, N = max(ts) + 1, N if N is not None else max(ns) + 1
    kept = sorted(key for key, q in entries.items() if q != 0)
    t, n = np.array(kept, dtype=np.int64).reshape(-1, 2).T
    sched = WeightSchedule(indptr=_row_pointers(np.bincount(t, minlength=T)),
                           idx=n.astype(np.int32),
                           q=np.array([entries[key] for key in kept], dtype=float),
                           N=N, pattern=f"file({path})", seed=0)
    verify_simplex(sched, strict=True)
    return sched


# rows per block of the Markov generator: about 2**17 draws, so its
# temporaries stay small whatever N is
_MARKOV_BLOCK_DRAWS = 1 << 17
# the same bound for every other pass over the rows: the independent
# generator's draws, the dense blocks and segment sums of the reductions,
# and the bitset rows of the lag pass
_BLOCK_ENTRIES = 1 << 17


def _independent_rows(rng, N: int, rows: np.ndarray):
    """Write into the (T, S) `rows` each round's clients, those of the S
    smallest of N uniform scores.  Scores drawn in row blocks equal one
    (T, N) draw, and argpartition picks each row's S from that row alone."""
    T, S = rows.shape
    per_block = max(1, _BLOCK_ENTRIES // N)
    for lo in range(0, T, per_block):
        scores = rng.random((min(per_block, T - lo), N))
        rows[lo:lo + len(scores)] = np.argpartition(scores, S - 1, axis=1)[:, :S]


def _periodic_rows(rng, spec: PatternSpec, N: int, rows: np.ndarray):
    """Write into the (T, S) `rows` a periodic or permutation schedule's
    clients.  Permutation selection is periodic availability with one
    group, available for the whole run."""
    T = len(rows)
    G, B, offset = ((spec.G, spec.B, spec.offset) if spec.kind == "periodic"
                    else (1, T, 0))
    if G * B + T > 2**63:
        raise ValueError(f"periodic pattern needs G*B + T <= 2**63, so that "
                         f"every round position fits int64; got G*B={G * B}, T={T}")
    size = N // G
    pos = np.arange(T) + (offset if isinstance(offset, int)
                          else int(rng.integers(G * B)))
    # within each availability block, a fresh permutation of the group
    # serves at most rounds_per_perm rounds, S clients a round, so it
    # never runs short (regularized selection among the available)
    rounds_per_perm = max(size // spec.S, 1)
    fresh = pos % B % rounds_per_perm == 0
    fresh[0] = True
    starts = np.flatnonzero(fresh)
    # permutation j fills entries bounds[j]:bounds[j + 1] of the rows
    bounds = np.append(starts, T) * spec.S
    # permutations drawn a block of rows at a time equal one draw of all
    per_block = max(1, _BLOCK_ENTRIES // size)
    for lo in range(0, len(starts), per_block):
        hi = min(lo + per_block, len(starts))
        # a block starts a permutation, so each one shuffles a single group
        perms = rng.permuted(pos[starts[lo:hi], None] // B % G * size + np.arange(size),
                             axis=1)
        # each permutation's first S * (rounds it serves) entries, in order
        served = np.diff(bounds[lo:hi + 1])[:, None]
        np.compress((np.arange(size) < served).ravel(), perms,
                    out=rows.reshape(-1)[bounds[lo]:bounds[hi]])


def _markov_rows(rng, spec: PatternSpec, N: int, T: int):
    """A Markov on/off schedule's indptr and idx, and its fallback rounds.

    A client steps its availability with one uniform u per round.  With
    a = u < p_aa and b = u >= p_uu, the round maps the state s to
    (s & (a ^ b)) ^ b: a when s is on, b when it is off.  Maps of the form
    s -> (s & M) ^ C compose associatively, (M1, C1) then (M2, C2) being
    (M1 & M2, (C1 & M2) ^ C2), so a doubling scan over a block's rows of
    bits packed from a ^ b and b gives each row's map from the state
    carried into the block, without a loop over rounds.  Padding bits have
    M = C = 0, so they stay off.  Each double takes one 64-bit output, so
    the block draws equal one draw per stage: the initial states, all
    transitions, then all selection scores.

    The availability is kept packed to bits, with each round's count
    beside it.  A round takes min(S, count) clients, or S with no client
    available, so the rows are sized before the selection pass writes them.
    The pass subtracts 1 from the candidates' scores.  `Generator.random`
    doubles are multiples of 2**-53 in [0, 1), so the shift is exact: the
    candidates move to [-1, 0), below every other score, in the same order
    and with the same ties.  A row's S smallest scores then hold its k
    chosen clients, and more only when scores tie at the S-th.
    """
    rows = max(1, _MARKOV_BLOCK_DRAWS // N)
    packed = np.empty((T, -(-N // 8)), dtype=np.uint8)
    count = np.empty(T, dtype=np.int64)
    avail = rng.random((1, N)) < (1.0 - spec.p_uu) / (2.0 - spec.p_aa - spec.p_uu)
    packed[:1], count[:1] = np.packbits(avail, axis=1), np.count_nonzero(avail, axis=1)
    for lo in range(1, T, rows):
        u = rng.random((min(rows, T - lo), N))
        b = u >= spec.p_uu
        mask = np.packbits((u < spec.p_aa) ^ b, axis=1)
        flip = np.packbits(b, axis=1)
        # inclusive scan: row i becomes the map of rows i - 2d + 1..i
        d = 1
        while d < len(u):
            flip[d:] ^= flip[:-d] & mask[d:]
            mask[d:] &= mask[:-d]
            d *= 2
        mask &= packed[lo - 1]
        np.bitwise_xor(mask, flip, out=packed[lo:lo + len(u)])
        count[lo:lo + len(u)] = np.bitwise_count(packed[lo:lo + len(u)]).sum(axis=1)
    empty = count == 0
    np.minimum(count, spec.S, out=count)    # each round's k
    count[empty] = spec.S
    indptr = _row_pointers(count)
    del count
    idx = np.empty(indptr[-1], dtype=np.int32)

    # the first k available clients by score, or with no client available
    # the first S of all clients (fallback); a row with a tie at the S-th
    # score takes the tied clients in client order, as a stable sort would
    for lo in range(0, T, rows):
        scores = rng.random((min(rows, T - lo), N))
        hi = lo + len(scores)
        candidate = np.unpackbits(packed[lo:hi], axis=1, count=N).view(bool)
        candidate |= empty[lo:hi, None]
        scores -= candidate
        kth = np.partition(scores, spec.S - 1, axis=1)[:, spec.S - 1:spec.S]
        chosen = scores <= kth
        chosen &= candidate
        flat = np.flatnonzero(chosen)
        if len(flat) > indptr[hi] - indptr[lo]:     # a row holds more than its k
            tied = np.flatnonzero(np.count_nonzero(chosen, axis=1)
                                  > np.diff(indptr[lo:hi + 1]))
            below, at_kth = scores[tied] < kth[tied], scores[tied] == kth[tied]
            at_kth &= (np.cumsum(at_kth, axis=1)
                       <= spec.S - below.sum(axis=1, keepdims=True))
            chosen[tied] = below | at_kth
            flat = np.flatnonzero(chosen)
        idx[indptr[lo]:indptr[hi]] = flat % N
    return indptr, idx, int(empty.sum())


def generate_schedule(spec: PatternSpec, N: int, T: int, seed: int) -> WeightSchedule:
    """Seeded, bit-reproducible schedule for the given pattern.

    Every kind but Markov writes its (T, S) client rows directly, sorted,
    with weight 1/S each.  Markov's availability chain sizes each round's
    row from its count of available clients and writes the clients in
    ascending order, with weight 1/k for the k clients of a round.  Every
    row's weights are equal, so none are stored.
    """
    spec.validate(N)
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    rng = substream(seed, "schedule")
    fallback = 0

    if spec.kind == "markov":
        indptr, idx, fallback = _markov_rows(rng, spec, N, T)

    else:
        S = N if spec.kind == "full" else spec.S
        rows = np.empty((T, S), dtype=np.int32)
        if spec.kind == "full":
            rows[:] = np.arange(N)
        elif spec.kind == "independent":
            _independent_rows(rng, N, rows)
        else:
            _periodic_rows(rng, spec, N, rows)
        rows.sort(axis=1)
        indptr, idx = np.arange(T + 1) * S, rows.reshape(-1)

    return WeightSchedule(indptr=indptr, idx=idx, q=None, N=N, pattern=spec.describe(),
                          seed=int(seed), fallback_rounds=fallback)


def rho_bound(schedule: WeightSchedule) -> float:
    """rho = sqrt(max_t sum_n (q_t^n)^2)."""
    return math.sqrt(verify_simplex(schedule).rho2)


@dataclass(frozen=True)
class SimplexReport:
    ok: bool
    max_row_error: float
    min_weight: float
    rho2: float
    bad_rounds: list = field(default_factory=list)


def verify_simplex(schedule: WeightSchedule, strict: bool = False) -> SimplexReport:
    T = schedule.T
    row_err, row_min, row_sq = np.empty(T), np.empty(T), np.empty(T)
    rows = max(1, _BLOCK_ENTRIES // schedule.N)
    for lo in range(0, T, rows):
        w = schedule[lo:lo + rows]
        with np.errstate(invalid="ignore"):    # inf - inf: a NaN sum, caught below
            row_err[lo:lo + rows] = np.abs(w.sum(axis=1) - 1.0)
        row_min[lo:lo + rows] = w.min(axis=1)
        row_sq[lo:lo + rows] = np.sum(w**2, axis=1)
    # "not within tolerance", so a row with a non-finite weight (its sum is
    # NaN or inf) is a bad round
    bad = np.nonzero(~(row_err <= SIMPLEX_TOL) | (row_min < 0))[0]
    report = SimplexReport(ok=bad.size == 0,
                           max_row_error=float(row_err.max()),
                           min_weight=float(row_min.min()),
                           rho2=float(np.max(row_sq)),
                           bad_rounds=bad[:20].tolist())
    if strict and not report.ok:
        raise ValueError(f"simplex violation in rounds {report.bad_rounds} "
                         f"(max row error {report.max_row_error:.3g}, "
                         f"min weight {report.min_weight:.3g})")
    return report


@dataclass(frozen=True)
class WindowStats:
    P: int
    qbar: np.ndarray            # (n_windows, N) per-window averaged weights
    mu: float                   # 1/N, fixed by the simplex constraint
    deviations_sq: np.ndarray   # (n_windows, N) squared (qbar - mu)
    var_qbar: float             # empirical Var(qbar), pooled over windows/clients
    lag_cov: np.ndarray         # autocovariance of q_t^n at lags 0..max_lag, pooled
    dropped_rounds: int         # trailing partial window excluded


def _lag_cov_exact(schedule: WeightSchedule, n_lags: int) -> list | None:
    """lag_cov[:n_lags], each the exact mean rounded once, of a schedule whose
    every row t holds k_t >= 1 equal weights fl(1/k_t), i.e. whose q is
    None; else None.

    Rounds t and t + p with k and k' clients, c of them shared, have N - k
    - k' + c clients in neither, so with a = q_t, b = q_{t+p} and mu = 1/N
    their centered products add up to c*a*b - mu*(k*a + k'*b) + N*mu**2.
    The counts c are popcounts of the rows packed into 64-bit words; summed
    per (k, k') class of pairs they are integers, so each lag's sum is an
    exact Fraction.  The class of two rows of a block's most common length
    is counted from the block totals, without a gather.
    """
    from fractions import Fraction    # here, so that importing fedamp stays lean

    if schedule.q is not None:
        return None
    T, N, indptr, idx = schedule.T, schedule.N, schedule.indptr, schedule.idx
    shared = [Counter() for _ in range(n_lags)]   # per lag and class k*(N+1) + k':
    pairs = [Counter() for _ in range(n_lags)]    # the sum of c, and the pairs
    n_words = -(-N // 64)
    per_block, pack_rows = max(1, _BLOCK_ENTRIES // n_words), max(1, _BLOCK_ENTRIES // N)
    for lo in range(0, T, per_block):
        hi = min(lo + per_block + n_lags - 1, T)      # rows t + p of the block's t
        # each row as a bitset of its clients: a row's clients ascend, so
        # a word's bits are consecutive entries, set by one OR-reduction
        words = np.zeros((hi - lo, n_words), dtype=np.uint64)
        for r0 in range(lo, hi, pack_rows):
            r1 = min(r0 + pack_rows, hi)
            k, a, b = np.diff(indptr[r0:r1 + 1]), indptr[r0], indptr[r1]
            key = np.repeat(np.arange(r0 - lo, r1 - lo) * n_words, k)
            key += idx[a:b] >> 6
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            words.reshape(-1)[key[starts]] = np.bitwise_or.reduceat(
                np.left_shift(1, (idx[a:b] & 63).astype(np.uint64)), starts)
        k = np.diff(indptr[lo:hi + 1])
        common = int(np.argmax(np.bincount(k)))
        minor = k != common
        for p in range(min(n_lags, T - lo)):
            n = min(per_block, T - p - lo)
            sel = np.flatnonzero(minor[:n] | minor[p:p + n])
            c = np.bitwise_count(words[sel] & words[sel + p]).sum(axis=1)
            cls, pair_cls = np.unique(k[sel] * (N + 1) + k[sel + p], return_inverse=True)
            shared[p].update(dict(zip(cls.tolist(), np.bincount(pair_cls, c).tolist())))
            pairs[p].update(dict(zip(cls.tolist(), np.bincount(pair_cls).tolist())))
            shared[p][common * (N + 2)] += int(
                np.bitwise_count(words[:n] & words[p:p + n]).sum() - c.sum())
            pairs[p][common * (N + 2)] += n - len(sel)
    mu = Fraction(1.0 / N)
    lags = []
    for p in range(n_lags):
        total = (T - p) * N * mu * mu
        for g, count in pairs[p].items():
            k, k2 = divmod(g, N + 1)
            a, b = Fraction(1.0 / k), Fraction(1.0 / k2)
            total += int(shared[p][g]) * a * b - count * mu * (k * a + k2 * b)
        lags.append(float(total / ((T - p) * N)))
    return lags


def _lag_cov_dense(schedule: WeightSchedule, n_lags: int) -> list:
    """lag_cov[:n_lags] of any schedule: each lag's centered products are
    summed a dense block of rows at a time, and the block sums in order."""
    T, N = schedule.T, schedule.N
    per_block = max(1, _BLOCK_ENTRIES // N)
    sums = [0.0] * n_lags
    for lo in range(0, T, per_block):
        x = schedule[lo:lo + per_block] - 1.0 / N
        for p in range(min(n_lags, T - lo)):
            n = min(len(x), T - p - lo)
            sums[p] += float(np.sum(x[:n] * (schedule[lo + p:lo + p + n] - 1.0 / N)))
    return [s / ((T - p) * N) for p, s in enumerate(sums)]


def window_averages(schedule: WeightSchedule, P: int,
                    max_lag: int | None = None) -> WindowStats:
    """Averages of the weights over aligned windows of P rounds, with the
    pooled autocovariances of q_t^n at lags 0..max_lag (none by default).

    Each window's averages are segment sums of its rows, added in round
    order as `reshape(W, P, N).mean(axis=1)` adds them, a block of windows
    at a time.  lag_cov[p] is the mean of the (T - p) * N lag-p products
    (q_t^n - 1/N) * (q_{t+p}^n - 1/N), NaN for p >= T.  When every row
    holds equal weights 1/k_t (q is None), as generated ones do, each lag
    is the exact mean rounded once, in O(T * S) time; other schedules sum
    each lag's products a dense block of rows at a time.
    """
    if not 1 <= P <= schedule.T:
        raise ValueError(f"need 1 <= P <= T, got P={P}, T={schedule.T}")
    if max_lag is not None and max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    T, N, indptr = schedule.T, schedule.N, schedule.indptr
    # the lag pass first, so that its blocks and the averages are never
    # held at once
    lags = np.full(0 if max_lag is None else max_lag + 1, np.nan)
    n_lags = min(len(lags), T)
    if n_lags:
        lags[:n_lags] = (_lag_cov_exact(schedule, n_lags)
                         or _lag_cov_dense(schedule, n_lags))
    n_windows = T // P
    qbar = np.empty((n_windows, N))
    per_block = max(1, _BLOCK_ENTRIES // (P * N))
    for lo in range(0, n_windows, per_block):
        hi = min(lo + per_block, n_windows)
        a, b = indptr[lo * P], indptr[hi * P]
        key = np.repeat(np.arange(hi - lo) * N, np.diff(indptr[lo * P:hi * P + 1:P]))
        key += schedule.idx[a:b]
        np.divide(np.bincount(key, schedule.entry_weights(lo * P, hi * P),
                              minlength=(hi - lo) * N), P,
                  out=qbar[lo:hi].reshape(-1))
    mu = 1.0 / N
    dev2 = np.subtract(qbar, mu)
    np.square(dev2, out=dev2)
    var_qbar = float(dev2.mean())
    return WindowStats(P=P, qbar=qbar, mu=mu, deviations_sq=dev2,
                       var_qbar=var_qbar, lag_cov=lags,
                       dropped_rounds=T - n_windows * P)
