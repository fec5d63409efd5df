"""Seeded path simulation and estimators for the walk-maximum tail.

Estimates carry three separately reported uncertainties: sampling error
(``stderr``), certified truncation bias from early path stopping
(``bias_bound``), and counts of paths the stopping rules could not decide.

One kernel, ``_walk``, advances the paths of a block until each exceeds the
line ``x + step*c`` (hit) or falls more than a slack ``K`` below it (a miss,
certified by the slack) and returns per-path records: outcome, step, final
``S`` and, on request, whether the first climb above a band overshot, and
the sum of a score of the position each step starts from.  It keeps only
the paths still walking, in compact arrays of their indices and positions,
and writes a path's record once, when it stops; each position is still the
same left-to-right sum of its draws.  Every estimator is a
reduction of those records, one block at a time (``estimate_bigjump_sum``
scores each step a path starts inside the band with the jump probability
``tail(x - S)``); ``SimConfig.trace`` rows are read straight from them.

Reproducibility: work is split into fixed-size blocks of paths; block ``i``
always draws from the ``i``-th spawn of the master seed sequence and results
merge in block order.  The shard count therefore only controls scheduling --
identical configurations produce identical bytes for any shard count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    trace: bool = False  # debug: per-path outcome records of ``estimate_tail_crude``

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
    trace: list | None = None  # per-path debug rows of ``estimate_tail_crude``

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


class _Paths(NamedTuple):
    """Per-path records of one block, in path order."""

    outcome: np.ndarray  # int8: UNDECIDED, HIT or MISS
    step: np.ndarray  # steps walked
    S: np.ndarray  # position when the path stopped
    overshot: np.ndarray | None  # the first climb above the band landed above x - band
    score: np.ndarray | None  # sum of score(S) over the positions steps start from


def _walk(
    model: IncrementModel,
    rng: np.random.Generator,
    n: int,
    horizon: int,
    x: float,
    slack: float,
    c: float = 0.0,
    band: float | None = None,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> _Paths:
    """Walk ``n`` paths from 0 until each exceeds the line ``x + step*c`` (hit)
    or falls more than ``slack`` below it (miss), for at most ``horizon``
    steps.  With ``band`` given, also record whether each path's first climb
    above ``band`` landed above ``x - band``.  With ``score`` given,
    add ``score(S)`` into a per-path total before each draw.

    Only the paths still walking are kept, in compact arrays of their
    indices, positions and band state; a path's record is written once,
    when it stops, and its score total as it goes.  Paths still walking at
    the horizon are undecided."""
    S = np.zeros(n)
    outcome = np.zeros(n, dtype=np.int8)
    steps = np.zeros(n, dtype=np.int64)
    overshot = total = None
    if band is not None:
        overshot = np.zeros(n, dtype=bool)
        climbed = np.zeros(n, dtype=bool)
    if score is not None:
        total = np.zeros(n)
    alive = np.arange(n)
    pos = np.zeros(n)
    for step in range(1, horizon + 1):
        if alive.size == 0:
            break
        if score is not None:
            total[alive] += score(pos)
        pos += model.sample(rng, alive.size)
        line = x + step * c
        hit = pos > line
        done = hit | (pos < line - slack)
        # index arrays, not boolean masks: numpy gathers through them faster
        if band is not None:
            first = np.flatnonzero(~climbed & (pos > band))
            if first.size:
                climbed[first] = True
                overshot[alive[first]] = pos[first] > x - band
        stopped = np.flatnonzero(done)
        if stopped.size:
            stop = alive[stopped]
            S[stop] = pos[stopped]
            steps[stop] = step
            outcome[stop] = np.where(hit[stopped], HIT, MISS)
            keep = np.flatnonzero(~done)
            alive, pos = alive[keep], pos[keep]
            if band is not None:
                climbed = climbed[keep]
    S[alive] = pos
    steps[alive] = horizon
    return _Paths(outcome, steps, S, overshot, total)


def _simulate(
    model: IncrementModel,
    cfg: SimConfig,
    reduce: Callable[[_Paths, np.ndarray], dict],
    x: float,
    slack: float,
    c: float = 0.0,
    band: float | None = None,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> dict:
    """Run the kernel on every block, block ``i`` on the ``i``-th spawn of
    the seed sequence, and add up the block sums in block order.

    ``reduce(paths, hit)`` turns one block's records into sums (lists
    concatenate); the hit and undecided counts are always added.
    """
    sizes = [min(cfg.block_size, cfg.n_paths - start)
             for start in range(0, cfg.n_paths, cfg.block_size)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))

    def block(i: int) -> dict:
        rng = np.random.default_rng(seeds[i])
        paths = _walk(model, rng, sizes[i], cfg.horizon, x, slack, c, band, score)
        hit = paths.outcome == HIT
        out = reduce(paths, hit)
        out["hits"] = int(hit.sum())
        out["undecided"] = int((paths.outcome == UNDECIDED).sum())
        return out

    if cfg.n_shards > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_shards) as ex:
            results = list(ex.map(block, range(len(sizes))))
    else:
        results = [block(i) for i in range(len(sizes))]
    total = results[0]
    for r in results[1:]:
        for k, v in r.items():
            total[k] = total[k] + v
    return total


def estimate_tail_crude(model: IncrementModel, x: float, cfg: SimConfig) -> EstimatorReport:
    """Crude estimate of P(M > x): follow each path until it exceeds x (hit)
    or drops below x - K (certified miss)."""
    K = _crude_slack(model, x)
    bias = model.max_tail_bound(K)

    def reduce(p: _Paths, hit: np.ndarray) -> dict:
        if not cfg.trace:
            return {}
        names = ("undecided", "hit", "miss")
        return {"trace": [
            {"outcome": names[o], "steps": int(k), "final_s": float(v)}
            for o, k, v in zip(p.outcome, p.step, p.S)
        ]}

    total = _simulate(model, cfg, reduce, x, K)
    _check_undecided(total["undecided"], cfg.n_paths, "estimate_tail_crude")
    n = cfg.n_paths
    return EstimatorReport(
        estimate=total["hits"] / n,
        stderr=_binomial_stderr(total["hits"], n),
        n_paths=n,
        n_effective=n - total["undecided"],
        bias_bound=bias,
        params={"x": x, "slack": K},
        flags={"undecided": total["undecided"]},
        trace=total.get("trace"),
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

    def reduce(p: _Paths, hit: np.ndarray) -> dict:
        # elementwise square, never a dot: a threaded BLAS dot's bits depend
        # on its thread count
        return {"sum": float(p.score.sum()), "sumsq": float((p.score * p.score).sum())}

    # a path leaves the band once it exceeds a; it is never stopped below
    total = _simulate(model, replace(cfg, horizon=n_cut), reduce, a, math.inf,
                      score=lambda s: model.tail(x - s))
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

    Numerator and denominator share paths (common random numbers), so the
    ratio is a conditional relative frequency with binomial error.
    """
    a = band_h(h_choice, x)
    K = _crude_slack(model, x)
    bias = model.max_tail_bound(K)

    def reduce(p: _Paths, hit: np.ndarray) -> dict:
        return {"big_hits": int((hit & p.overshot).sum())}

    total = _simulate(model, cfg, reduce, x, K, band=a)
    _check_undecided(total["undecided"], cfg.n_paths, "bigjump_conditional_ratio")
    hits = total["hits"]
    flags = {"undecided": total["undecided"]}
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

    def to_json_dict(self) -> dict:
        return {
            "method": "renewal_diagnostics",
            "model": self.model,
            "drift_c": self.drift_c,
            "gamma": self.gamma,
            "rows": self.rows,
            "n_paths": self.n_paths,
            "seed": self.seed,
        }


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
    gamma = model.twist(gamma)
    mean = model.mean()
    if not mean < 0:
        raise EstimatorError(f"renewal diagnostics need a negative mean, got {mean}")
    c = mean / 2.0
    K_r = _shifted_cross_slack(model, c)
    phg = model.mgf(gamma)
    if not phg < 1.0:
        raise EstimatorError(
            "renewal diagnostics need phi(gamma) < 1 to bound the bias of certified "
            f"misses, got phi({gamma:.6g}) = {phg:.6g}; lower --gamma"
        )
    phi_ratio = phg / (1.0 - phg)

    def reduce(p: _Paths, hit: np.ndarray) -> dict:
        # elementwise sums, never a dot (see estimate_bigjump_sum)
        w = np.exp(gamma * p.S[hit])
        missed = float(np.exp(gamma * p.S[p.outcome == MISS]).sum())
        return {"phi_sum": float(w.sum()), "phi_sumsq": float((w * w).sum()),
                "phi_bias": missed * phi_ratio}

    rows = []
    for R in r_grid:
        R = float(R)
        total = _simulate(model, cfg, reduce, R, K_r, c=c)
        n = cfg.n_paths
        delta = total["hits"] / n
        phi_mean = total["phi_sum"] / n
        phi_var = max(total["phi_sumsq"] / n - phi_mean * phi_mean, 0.0)
        rows.append(
            {
                "R": R,
                "delta": delta,
                "delta_stderr": _binomial_stderr(total["hits"], n),
                "delta_bias_bound": RENEWAL_MISS_BOUND,
                "phi": phi_mean,
                "phi_stderr": math.sqrt(phi_var / n),
                "phi_bias_bound": total["phi_bias"] / n,
                "undecided": int(total["undecided"]),
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
