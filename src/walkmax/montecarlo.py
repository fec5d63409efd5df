"""Seeded path simulation and estimators for the walk-maximum tail.

Estimates carry three separately reported uncertainties: sampling error
(``stderr``), certified truncation bias from early path stopping
(``bias_bound``), and counts of paths the stopping rules could not decide.

One kernel, ``_walk``, advances the paths of a block until each has decided
every level ``x_i`` of a grid: it exceeds the line ``x_i + step*c`` (hit) or
falls below the lower line ``f_i + step*c`` of a floor ``f_i`` (a miss,
certified by the slack ``x_i - f_i``).  It hands each level's first exit
from its window (outcome, step, final ``S``) to the estimator as it happens,
and returns per-level outcome counts and, on request, the sum of a score of
the position each step starts from.  Each position is the same left-to-right
sum of its draws.  Every estimator is a reduction of those exits, one block
at a time: ``bigjump_conditional_ratio`` reads the overshoot of a path's
first climb above ``a`` from level ``a``'s hit exit, ``estimate_bigjump_sum``
scores each step a path starts inside the band with the jump probability
``tail(x - S)``, and ``SimConfig.trace`` rows are the exits themselves.  The
levels of one run share their paths (common random numbers), so a level's
estimate depends on which other levels are in the grid; ``estimate_tail_crude``
walks the grid of its level (the level alone without one) and keeps the last
grid's walk, so one call per level walks the grid once.

Reproducibility: work is split into fixed-size blocks of paths; block ``i``
always draws from the ``i``-th spawn of the master seed sequence and results
merge in block order.  The shard count therefore only controls scheduling --
identical configurations (seed, block size, level grid) produce identical
bytes for any shard count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .increments import IncrementModel, band_h, twist_min

__all__ = [
    "EstimatorError",
    "SimConfig",
    "EstimatorReport",
    "RenewalTable",
    "estimate_tail_crude",
    "estimate_bigjump_sum",
    "bigjump_conditional_ratio",
    "renewal_diagnostics",
]

CRUDE_BIAS_FRACTION = 1e-3
MAX_UNDECIDED_FRACTION = 1e-3
RENEWAL_MISS_BOUND = 1e-4


class EstimatorError(RuntimeError):
    """Estimator refusal (undecidable paths, unusable stopping rule, ...)."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget and determinism controls.

    ``block_size`` fixes the deterministic unit of work (changing it changes
    the stream layout, so it is part of the reproducibility contract
    alongside ``seed``).
    """

    n_paths: int
    seed: int = 0
    n_shards: int = 1
    block_size: int = 65536
    horizon: int = 100_000
    trace: bool = False  # debug: per-path, per-level records of the crude estimators

    def __post_init__(self):
        if self.n_paths < 1:
            raise EstimatorError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.seed < 0:
            raise EstimatorError(f"seed must be >= 0, got {self.seed}")
        if self.block_size < 1 or self.n_shards < 1 or self.horizon < 1:
            raise EstimatorError("block_size, n_shards and horizon must be >= 1")


@dataclass
class EstimatorReport:
    """Point estimate with separated stochastic and systematic error."""

    estimate: float
    stderr: float
    n_paths: int
    n_effective: int
    bias_bound: float
    params: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    trace: list | None = None  # per-path debug rows of the crude estimators

    def __post_init__(self):
        if self.stderr < 0 or self.bias_bound < 0:
            raise EstimatorError("stderr and bias_bound must be nonnegative")


def _binomial_stderr(hits: float, n: int) -> float:
    p = hits / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _crude_slack(model: IncrementModel, x: float) -> float:
    """Stopping slack K with certified false-miss probability at most
    ``CRUDE_BIAS_FRACTION`` of the expected estimate scale."""
    scale = float(model.tail(x))
    if scale <= 0.0:
        # step-tail families: anchor the scale on the certified bound instead
        scale = 1e-2 * model.max_tail_bound(x)
    if scale <= 0.0:
        return 1.0  # maximum is certifiably below x; any slack works
    return model.slack_for_bias(CRUDE_BIAS_FRACTION * scale)


def _check_undecided(undecided: int, n: int, method: str) -> None:
    if undecided > MAX_UNDECIDED_FRACTION * n:
        raise EstimatorError(
            f"{method}: {undecided}/{n} paths hit the horizon before a stopping "
            "rule fired; raise the horizon or the slack"
        )


UNDECIDED, HIT, MISS = 0, 1, 2


class _Walked(NamedTuple):
    """What one block's walk returns besides the exits it hands out."""

    counts: np.ndarray  # int64 (3, levels): paths per outcome UNDECIDED, HIT, MISS
    score: np.ndarray | None  # per path: sum of score(S) over the positions steps start from


class _Records:
    """An ``on_exit`` that keeps every exit: row ``i`` of ``outcome``,
    ``step`` and ``S`` holds level ``i``'s first exit of each path."""

    def __init__(self, n_levels: int, n: int):
        self.outcome = np.zeros((n_levels, n), dtype=np.int8)
        self.step = np.zeros((n_levels, n), dtype=np.int64)
        self.S = np.zeros((n_levels, n))

    def __call__(self, levels, paths, step, S, outcome):
        self.outcome[levels, paths] = outcome
        self.step[levels, paths] = step
        self.S[levels, paths] = S


def _walk(
    model: IncrementModel,
    rng: np.random.Generator,
    n: int,
    horizon: int,
    levels: Sequence[float],
    floors: Sequence[float],
    c: float = 0.0,
    on_exit: Callable[..., None] | None = None,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> _Walked:
    """Walk ``n`` paths from 0, for at most ``horizon`` steps, until every
    level is decided on every path: level ``i`` is a hit once the path
    exceeds the line ``levels[i] + step*c``, a miss once it falls below the
    lower line ``floors[i] + step*c``.  Each level's first exit from its
    window goes to ``on_exit(levels, paths, step, S, outcome)`` as it
    happens, one call per outcome (entry j is level ``levels[j]`` of path
    ``paths[j]``); a level still open at the horizon goes there undecided,
    with the horizon's step and position.  With ``score`` given, add
    ``score(S)`` into a per-path total before each draw.

    The lines keep the order of the levels at every step, and the lower lines
    that of the floors (``f + step*c`` rounds monotonically in ``f``).  So
    the lines a path has ever exceeded are the lowest ones, and the lower
    lines it has ever fallen below the highest ones: a path keeps the two
    counts, a level is open while it is in neither set, and only a path
    beyond its next line or next lower line does per-level work.  Only the
    paths with a level open are kept, in compact arrays of their indices,
    positions and counts."""
    levels = np.asarray(levels, dtype=float)
    floors = np.asarray(floors, dtype=float)
    L = levels.size
    up = np.argsort(levels, kind="stable")  # by ascending line
    down = np.lexsort((-levels, -floors))  # by descending lower line, then level
    rank_up, rank_down = np.argsort(up), np.argsort(down)
    # a path with u lines and d lower lines passed has a level open iff
    # last_down[u] >= d: the highest lower-line rank among lines not passed
    last_down = np.append(np.maximum.accumulate(rank_down[up][::-1])[::-1], -1)
    x_up, f_down = levels[up], floors[down]
    tops = np.append(x_up, np.inf)  # this step's lines, then a sentinel
    bots = np.append(f_down, -np.inf)
    counts = np.zeros((3, L), dtype=np.int64)
    total = None if score is None else np.zeros(n)
    alive = np.arange(n)
    pos = np.zeros(n)
    n_up = np.zeros(n, dtype=np.intp)  # lines ever exceeded
    n_down = np.zeros(n, dtype=np.intp)  # lower lines ever fallen below

    def cross(beyond, lines, mine, order, other, rank_other, outcome) -> list:
        """Move each path past every line of ``lines`` it is ``beyond``, one
        line at a time, deciding the line's level if the level is still
        open; return the paths left with no level open."""
        done = []
        k = np.flatnonzero(beyond(pos, lines[mine]))
        while k.size:
            j = order[mine[k]]
            decided = rank_other[j] >= other[k]
            if decided.any():
                # no copies when every path decides, as a whole block can at step 1
                d, j_d = (k, j) if decided.all() else (k[decided], j[decided])
                counts[outcome] += np.bincount(j_d, minlength=L)
                if on_exit is not None:
                    on_exit(j_d, alive[d], step, pos[d], outcome)
            mine[k] += 1
            closed = k[last_down[n_up[k]] < n_down[k]]
            if closed.size:
                done.append(closed)
            k = k[beyond(pos[k], lines[mine[k]])]
        return done

    for step in range(1, horizon + 1):
        if alive.size == 0:
            break
        if score is not None:
            total[alive] += score(pos)
        pos += model.sample(rng, alive.size)
        np.add(x_up, step * c, out=tops[:L])
        np.add(f_down, step * c, out=bots[:L])
        # index arrays, not boolean masks: numpy gathers through them faster
        done = (cross(np.greater, tops, n_up, up, n_down, rank_down, HIT)
                + cross(np.less, bots, n_down, down, n_up, rank_up, MISS))
        if done:
            keep = np.ones(alive.size, dtype=bool)
            keep[np.concatenate(done)] = False
            keep = np.flatnonzero(keep)
            # one array at a time, so that no two copies of all four are held
            alive = alive[keep]
            pos = pos[keep]
            n_up = n_up[keep]
            n_down = n_down[keep]
    for i in range(L):
        k = np.flatnonzero((rank_up[i] >= n_up) & (rank_down[i] >= n_down))
        counts[UNDECIDED, i] += k.size
        if on_exit is not None and k.size:
            on_exit(np.full(k.size, i), alive[k], horizon, pos[k], UNDECIDED)
    return _Walked(counts, total)


def _simulate(cfg: SimConfig, block: Callable[[np.random.Generator, int], dict]) -> dict:
    """Run ``block(rng, n)`` on every block of paths, block ``i`` on the
    ``i``-th spawn of the seed sequence, and add up the blocks' sums in block
    order (lists concatenate)."""
    sizes = [min(cfg.block_size, cfg.n_paths - start)
             for start in range(0, cfg.n_paths, cfg.block_size)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))

    def run(i: int) -> dict:
        return block(np.random.default_rng(seeds[i]), sizes[i])

    with ThreadPoolExecutor(max_workers=cfg.n_shards) as ex:
        results = list(ex.map(run, range(len(sizes))))
    total = results[0]
    for r in results[1:]:
        for k, v in r.items():
            total[k] = total[k] + v
    return total


@functools.lru_cache(maxsize=1)
def _crude_walk(
    model: IncrementModel, levels: tuple[float, ...], cfg: SimConfig
) -> tuple[list[float], dict]:
    """The slacks of the crude levels and the block totals of one walk of
    all of them.  The last grid's walk is kept, so estimating each of its
    levels in turn walks once."""
    slacks = [_crude_slack(model, x) for x in levels]
    floors = [x - K for x, K in zip(levels, slacks)]

    def block(rng: np.random.Generator, n: int) -> dict:
        records = _Records(len(levels), n) if cfg.trace else None
        walked = _walk(model, rng, n, cfg.horizon, levels, floors, on_exit=records)
        return {"counts": walked.counts, "records": [records] if cfg.trace else []}

    return slacks, _simulate(cfg, block)


def estimate_tail_crude(
    model: IncrementModel, x: float, cfg: SimConfig, grid: Sequence[float] | None = None
) -> EstimatorReport:
    """Crude estimate of P(M > x): follow each path until it exceeds x (hit)
    or drops below x - K (certified miss).

    The paths walk every level of ``grid``, which must hold x (x alone
    without a grid), until each path has decided them all, so x's estimate
    depends on the other levels of the grid.  Calling this for each level
    of a grid walks once."""
    levels = (x,) if grid is None else tuple(float(v) for v in grid)
    if x not in levels:
        raise EstimatorError(f"level {x:g} is not in the grid {list(levels)}")
    i = levels.index(x)
    slacks, total = _crude_walk(model, levels, cfg)
    K = slacks[i]
    n = cfg.n_paths
    undecided, hits, _ = (int(v) for v in total["counts"][:, i])
    _check_undecided(undecided, n, f"estimate_tail_crude at x = {x:g} (slack {K:g})")
    names = ("undecided", "hit", "miss")
    return EstimatorReport(
        estimate=hits / n,
        stderr=_binomial_stderr(hits, n),
        n_paths=n,
        n_effective=n - undecided,
        bias_bound=model.max_tail_bound(K),
        params={"x": x, "slack": K},
        flags={"undecided": undecided},
        trace=[
            {"outcome": names[o], "steps": int(k), "final_s": float(v)}
            for r in total["records"] for o, k, v in zip(r.outcome[i], r.step[i], r.S[i])
        ] if cfg.trace else None,
    )


def _geometric_remainder(model: IncrementModel, x: float, n_cut: int) -> float:
    """Certified bound on the neglected terms sum_{n > n_cut} P(first-jump
    event at step n): sup_y e^{a y} tail(y) * e^{-a x} * phi(a)^n_cut / (1-phi(a)),
    minimized over usable twists a."""
    g = model.decay_rate
    if g is not None:
        alphas = [g, 0.75 * g, 0.5 * g]
    else:
        hi = 1.0
        while model.mgf(hi) < 1.0 and hi < 1e3:
            hi *= 2.0
        alphas = np.linspace(hi / 40.0, hi * 0.999, 40)
    return twist_min(
        model.mgf, alphas,
        lambda a, phi: model.twist_envelope(a) * math.exp(-a * x) * phi**n_cut / (1.0 - phi),
    )


def estimate_bigjump_sum(
    model: IncrementModel, x: float, a: float, n_cut: int, cfg: SimConfig
) -> EstimatorReport:
    """Smoothed estimate of the total probability that the walk first leaves
    the band below ``a`` by jumping straight above ``x``.

    Per path and step n with the running maximum still at or below ``a``, the
    analytic jump probability tail(x - S_{n-1}) is accumulated; the result is
    unbiased for the n <= n_cut partial sum and, because the per-step events
    are disjoint and all imply M > x, it is a certified stochastic lower bound
    for P(M > x) up to the reported geometric remainder.
    """
    if not (x > a >= 0):
        raise EstimatorError(f"need x > a >= 0, got x={x}, a={a}")
    if n_cut < 1:
        raise EstimatorError(f"n_cut must be >= 1, got {n_cut}")
    remainder = _geometric_remainder(model, x, n_cut)

    def block(rng: np.random.Generator, n: int) -> dict:
        # a path leaves the band once it exceeds a; it is never stopped below
        s = _walk(model, rng, n, n_cut, [a], [-math.inf], score=lambda s: model.tail(x - s)).score
        # elementwise square, never a dot: a threaded BLAS dot's bits depend
        # on its thread count
        return {"sum": float(s.sum()), "sumsq": float((s * s).sum())}

    total = _simulate(cfg, block)
    n = cfg.n_paths
    mean = total["sum"] / n
    var = max(total["sumsq"] / n - mean * mean, 0.0)
    report = EstimatorReport(
        estimate=mean,
        stderr=math.sqrt(var / n),
        n_paths=n,
        n_effective=n,
        bias_bound=remainder,
        params={"x": x, "a": a, "n_cut": n_cut},
        flags={},
    )
    if remainder > 0.1 * max(mean, 1e-300):
        report.flags["n_cut_too_small"] = True
    return report


def bigjump_conditional_ratio(
    model: IncrementModel, x: float, h_choice: str, cfg: SimConfig
) -> EstimatorReport:
    """Of the paths whose maximum exceeds x, the fraction whose first climb
    above a = h(x) overshot straight past x - h(x).

    The paths walk the levels a < x, both with x's floor x - K: a path
    closes a no later than x, so x alone sets how long it lives, and on a
    path that exceeds x, a's exit is its first climb above a.  Numerator and
    denominator share paths (common random numbers), so the ratio is a
    conditional relative frequency with binomial error.
    """
    a = band_h(h_choice, x)
    K = _crude_slack(model, x)
    bias = model.max_tail_bound(K)

    def block(rng: np.random.Generator, n: int) -> dict:
        hit = np.zeros(n, dtype=bool)
        overshot = np.zeros(n, dtype=bool)

        def on_exit(levels, paths, step, S, outcome):
            if outcome == HIT:
                at_a = levels == 0
                overshot[paths[at_a]] = S[at_a] > x - a
                hit[paths[~at_a]] = True

        walked = _walk(model, rng, n, cfg.horizon, [a, x], [x - K, x - K], on_exit=on_exit)
        return {"counts": walked.counts[:, 1], "big_hits": int((hit & overshot).sum())}

    total = _simulate(cfg, block)
    undecided, hits, _ = (int(v) for v in total["counts"])
    _check_undecided(undecided, cfg.n_paths,
                     f"bigjump_conditional_ratio at x = {x:g} (slack {K:g})")
    flags = {"undecided": undecided}
    if hits == 0:
        flags["inconclusive"] = True
        estimate, stderr = math.nan, 0.0
    else:
        estimate = total["big_hits"] / hits
        stderr = _binomial_stderr(total["big_hits"], hits)
    return EstimatorReport(
        estimate=estimate,
        stderr=stderr,
        n_paths=cfg.n_paths,
        n_effective=hits,
        bias_bound=bias,
        params={"x": x, "h_choice": h_choice, "a": a, "slack": K},
        flags=flags,
    )


@dataclass
class RenewalTable:
    """Estimated crossing probability and twisted crossing moment of the
    tilted barrier R + n*c, per barrier offset R."""

    model: str
    drift_c: float
    gamma: float
    rows: list[dict]
    n_paths: int
    seed: int


def _shifted_cross_slack(model: IncrementModel, c: float) -> float:
    """Slack K_r whose certified miss probability is ``RENEWAL_MISS_BOUND``,
    for crossings of the line R + n*c by the walk (equivalently level
    crossings of the c-shifted walk, whose increments are xi - c)."""
    g = model.decay_rate
    cands = [0.5 * g, 0.75 * g, 0.9 * g] if g is not None else np.linspace(0.1, 20.0, 60)
    K = twist_min(
        lambda a: model.mgf(a) * math.exp(-a * c), cands,
        lambda a, phi: math.log(1.0 / (RENEWAL_MISS_BOUND * (1.0 - phi))) / a,
    )
    if math.isinf(K):
        raise EstimatorError("no usable twist for the shifted walk; lower |c|")
    return K


def renewal_diagnostics(
    model: IncrementModel,
    r_grid: Sequence[float],
    cfg: SimConfig,
    gamma: float | None = None,
) -> RenewalTable:
    """Estimate, per barrier offset R, the probability delta that the walk
    ever exceeds the drifted line R + n*c, and the twisted moment
    E[exp(gamma * S) at the first crossing; crossing happens].

    ``c`` is half the (negative) mean, strictly between the drift and 0.
    Paths are stopped with a certificate once the shifted walk falls a slack
    K_r below the line; the per-path neglected contributions are accumulated
    into the reported bias bounds.
    """
    # phi(gamma) < 1 bounds the bias of certified misses, and makes the mean negative
    gamma, phg = model.certified_twist(gamma)
    c = model.mean() / 2.0
    K_r = _shifted_cross_slack(model, c)
    phi_ratio = phg / (1.0 - phg)
    r_grid = [float(R) for R in r_grid]
    floors = [R - K_r for R in r_grid]

    def block(rng: np.random.Generator, n: int) -> dict:
        sums = np.zeros((3, len(r_grid)))  # per barrier: sum w, sum w^2, missed

        def on_exit(levels, paths, step, S, outcome):
            # elementwise sums, never a dot (see estimate_bigjump_sum)
            w = gamma * S
            np.exp(w, out=w)
            if outcome == HIT:
                sums[0] += np.bincount(levels, w, len(r_grid))
                sums[1] += np.bincount(levels, np.square(w, out=w), len(r_grid))
            elif outcome == MISS:
                sums[2] += np.bincount(levels, w, len(r_grid))

        walked = _walk(model, rng, n, cfg.horizon, r_grid, floors, c, on_exit)
        return {"counts": walked.counts, "sums": sums}

    total = _simulate(cfg, block)
    n = cfg.n_paths
    rows = []
    for R, (undecided, hits, _), (phi_sum, phi_sumsq, missed) in zip(
            r_grid, total["counts"].T.tolist(), total["sums"].T.tolist()):
        phi_mean = phi_sum / n
        phi_var = max(phi_sumsq / n - phi_mean * phi_mean, 0.0)
        rows.append(
            {
                "R": R,
                "delta": hits / n,
                "delta_stderr": _binomial_stderr(hits, n),
                "delta_bias_bound": RENEWAL_MISS_BOUND,
                "phi": phi_mean,
                "phi_stderr": math.sqrt(phi_var / n),
                "phi_bias_bound": missed * phi_ratio / n,
                "undecided": undecided,
            }
        )
    return RenewalTable(
        model=model.spec_string(),
        drift_c=c,
        gamma=gamma,
        rows=rows,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )
