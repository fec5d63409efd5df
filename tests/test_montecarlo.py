"""Seeded estimators: determinism, exactness against closed forms and the
grid oracle, certified bounds."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from walkmax import (
    EstimatorError,
    ModelError,
    PointMass,
    SimConfig,
    TwoPoint,
    bigjump_conditional_ratio,
    estimate_bigjump_sum,
    estimate_tail_crude,
    renewal_diagnostics,
)
from walkmax.cli import _record, bigjump_dp_ratio
from walkmax.lattice import bigjump_flow, discretize
from walkmax import montecarlo
from walkmax.montecarlo import HIT, MISS, _Records, _walk


def report_bytes(rep) -> bytes:
    return json.dumps(dataclasses.asdict(rep), sort_keys=True).encode()


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, ref_model):
        cfg = SimConfig(n_paths=20_000, seed=42)
        a = estimate_tail_crude(ref_model, 3.0, cfg)
        b = estimate_tail_crude(ref_model, 3.0, cfg)
        assert report_bytes(a) == report_bytes(b)

    def test_shard_count_does_not_change_bytes(self, ref_model):
        base = estimate_tail_crude(
            ref_model, 3.0, SimConfig(n_paths=50_000, seed=7, block_size=8192)
        )
        for shards in (2, 5):
            cfg = SimConfig(n_paths=50_000, seed=7, n_shards=shards, block_size=8192)
            assert report_bytes(estimate_tail_crude(ref_model, 3.0, cfg)) == report_bytes(base)

    def test_level_grids_shard_count_does_not_change_bytes(self, ref_model):
        def run(shards):
            cfg = SimConfig(n_paths=50_000, seed=7, n_shards=shards, block_size=8192)
            crude = [estimate_tail_crude(ref_model, x, cfg, grid=[1.0, 2.0, 3.0])
                     for x in (1.0, 2.0, 3.0)]
            table = renewal_diagnostics(ref_model, [2.0, 4.0, 8.0], cfg)
            return [report_bytes(r) for r in crude], json.dumps(_record(table))

        base = run(1)
        assert run(2) == base and run(5) == base

    def test_seed_changes_result(self, ref_model):
        # an estimate is a hit count over 20,000 paths, which two seeds can
        # share: at x = 3 seeds 1 and 2 both count 11 (two independent counts
        # near 11 tie about one time in twelve).  So the estimates are compared
        # over the levels 1, 2, 3, and the paths' stopping positions at x = 3.
        a, b = (
            [estimate_tail_crude(ref_model, x, SimConfig(n_paths=20_000, seed=s, trace=True))
             for x in (1.0, 2.0, 3.0)]
            for s in (1, 2)
        )
        assert [r.estimate for r in a] != [r.estimate for r in b]
        assert [t["final_s"] for t in a[-1].trace] != [t["final_s"] for t in b[-1].trace]

    def test_negative_seed_refused(self):
        # numpy's SeedSequence would raise a bare ValueError mid-simulation
        with pytest.raises(EstimatorError, match="seed must be >= 0, got -1"):
            SimConfig(n_paths=1000, seed=-1)


class TestCrudeTail:
    def test_pointmass_zero_with_certified_bias(self, pm_model):
        rep = estimate_tail_crude(pm_model, 0.5, SimConfig(n_paths=1000, seed=0))
        assert rep.estimate == 0.0
        assert rep.bias_bound == 0.0  # the maximum is certifiably below 1/2

    def test_twopoint_matches_ruin_tail(self, tp_model):
        cfg = SimConfig(n_paths=10**6, seed=3)
        rep = estimate_tail_crude(tp_model, 4.5, cfg)
        exact = 3.0**-5
        assert abs(rep.estimate - exact) < 3 * rep.stderr + rep.bias_bound

    def test_polyexp_matches_oracle(self, ref_model, ref_law):
        cfg = SimConfig(n_paths=10**6, seed=9)
        rep = estimate_tail_crude(ref_model, 4.0, cfg)
        oracle = ref_law.tail(4.0)
        assert abs(rep.estimate - oracle) < 3 * rep.stderr + rep.bias_bound

    def test_bias_scales_with_level(self, ref_model):
        cfg = SimConfig(n_paths=100, seed=0)
        r1 = estimate_tail_crude(ref_model, 2.0, cfg)
        r2 = estimate_tail_crude(ref_model, 6.0, cfg)
        # deeper levels demand a deeper certified stop
        assert r2.params["slack"] > r1.params["slack"]
        assert r2.bias_bound < r1.bias_bound

    def test_horizon_exhaustion_refused(self, ref_model):
        with pytest.raises(EstimatorError):
            estimate_tail_crude(
                ref_model, 4.0, SimConfig(n_paths=2000, seed=0, horizon=3)
            )

    def test_horizon_refusal_names_the_level(self, ref_model):
        # in a grid the refusal must say which level ran out of steps
        cfg = SimConfig(n_paths=2000, seed=0, horizon=3)
        K = estimate_tail_crude(ref_model, 1.0, SimConfig(n_paths=10, seed=0)).params["slack"]
        with pytest.raises(EstimatorError, match=rf"estimate_tail_crude at x = 1 \(slack {K:g}\): "
                                                 r"\d+/2000 paths hit the horizon"):
            estimate_tail_crude(ref_model, 1.0, cfg, grid=[1.0, 2.0, 3.0])

    def test_grid_levels_walk_once(self, ref_model, monkeypatch):
        walked = []

        def counting_walk(*args, **kwargs):
            walked.append(tuple(args[4]))
            return _walk(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_walk", counting_walk)
        montecarlo._crude_walk.cache_clear()
        cfg = SimConfig(n_paths=3000, seed=13)  # one block
        grid = [1.0, 2.0, 3.0]
        reps = [estimate_tail_crude(ref_model, x, cfg, grid=grid) for x in grid]
        assert walked == [tuple(grid)]
        assert [r.params["x"] for r in reps] == grid
        estimate_tail_crude(ref_model, 2.0, cfg)  # one level: a walk of its own
        assert walked == [tuple(grid), (2.0,)]
        with pytest.raises(EstimatorError, match="level 4 is not in the grid"):
            estimate_tail_crude(ref_model, 4.0, cfg, grid=grid)

    def test_debug_trace(self, tp_model):
        cfg = SimConfig(n_paths=500, seed=2, trace=True)
        rep = estimate_tail_crude(tp_model, 2.5, cfg)
        assert len(rep.trace) == 500
        outcomes = {t["outcome"] for t in rep.trace}
        assert outcomes <= {"hit", "miss", "undecided"}
        hits = sum(t["outcome"] == "hit" for t in rep.trace)
        assert hits == round(rep.estimate * cfg.n_paths)


def walk_oracle(model, rng, n, horizon, levels, floors, c=0.0):
    """Oracle for ``_walk``: every step scatters into full per-level,
    per-path arrays through the index of the paths with a level still open,
    testing every level of every such path."""
    L = len(levels)
    S = np.zeros(n)
    outcome = np.zeros((L, n), dtype=np.int8)
    steps = np.zeros((L, n), dtype=np.int64)
    stop = np.zeros((L, n))
    is_open = np.ones((L, n), dtype=bool)
    alive = np.arange(n)
    for step in range(1, horizon + 1):
        if alive.size == 0:
            break
        S[alive] += model.sample(rng, alive.size)
        s = S[alive]
        for i in range(L):
            o = is_open[i, alive]
            steps[i, alive[o]] = step
            stop[i, alive[o]] = s[o]
            hit = o & (s > levels[i] + step * c)
            miss = o & ~hit & (s < floors[i] + step * c)
            outcome[i, alive[hit]] = HIT
            outcome[i, alive[miss]] = MISS
            is_open[i, alive[hit | miss]] = False
        alive = alive[is_open[:, alive].any(axis=0)]
    return outcome, steps, stop


TWOPOINT = TwoPoint(1.0, 0.25, -1.0)


class TestWalkKernel:
    # the "-band" cases hold a band top a below a level x as one more level
    # with the floor of x, as ``bigjump_conditional_ratio`` walks them
    @pytest.mark.parametrize(
        "model,n,horizon,levels,slacks,c",
        [
            ("ref", 20_000, 100_000, [3.0], 20.0, 0.0),
            ("ref", 20_000, 100_000, [1.5, 3.0], [18.5, 20.0], 0.0),
            ("ref", 5_000, 100_000, [4.0], 12.0, -0.3),
            ("ref", 5_000, 100_000, [1.0, 4.0], [9.0, 12.0], -0.3),
            ("ref", 3_000, 6, [1.0, 4.0], [9.0, 12.0], 0.2),  # leaves undecided paths
            (TWOPOINT, 3_000, 100_000, [1.0, 3.0], [6.0, 8.0], 0.0),
            (TWOPOINT, 3_000, 4, [3.0], 8.0, -0.1),
            (PointMass(-0.5), 100, 50, [0.5, 2.0], [1.5, 3.0], 0.0),
            # nested crude windows whose lower lines cross: 1 - 9 > 0.5 - 10
            ("ref", 20_000, 100_000, [0.5, 1.0, 2.0, 3.0], [10.0, 9.0, 12.0, 14.0], 0.0),
            ("ref", 20_000, 100_000, [3.0, 1.0, 2.0, 1.0], [14.0, 9.0, 12.0, 12.0], 0.0),
            # drifted lines with one slack, as in the renewal diagnostics
            ("ref", 20_000, 100_000, [2.0, 4.0, 8.0, 16.0], 6.5, -0.49),
            ("ref", 5_000, 12, [1.0, 2.0, 4.0], 5.0, -0.2),  # some levels undecided
            # drifted lines with unequal slacks: floors -5, -3 and -2
            ("ref", 20_000, 100_000, [1.0, 2.0, 4.0], [6.0, 5.0, 6.0], -0.2),
            # ... and lower lines ordered unlike the levels, one pair tied
            (TWOPOINT, 5_000, 100_000, [0.5, 1.5, 2.5], [3.0, 4.0, 6.0], -0.1),
            (TWOPOINT, 5_000, 100_000, [0.5, 1.5, 2.5], [3.0, 4.0, 6.0], 0.0),
            (TWOPOINT, 5_000, 100_000, [1.0, 2.0, 2.0, 3.0], 2.5, -0.1),
            (PointMass(-0.5), 100, 50, [1.0, 2.0], [0.7, 3.0], 0.0),
        ],
        ids=["ref", "ref-band", "ref-drift", "ref-drift-band", "ref-short",
             "twopoint-band", "twopoint-short", "pointmass-band",
             "crude-levels", "crude-levels-unsorted-band", "renewal-levels",
             "drift-levels-short", "drift-unequal-slacks", "twopoint-drift-crossing-floors",
             "twopoint-levels", "twopoint-drift-tied-levels", "pointmass-levels"],
    )
    def test_records_match_oracle_bits(self, ref_model, model, n, horizon, levels, slacks, c):
        model = ref_model if model == "ref" else model
        floors = np.subtract(levels, slacks)
        records = _Records(len(levels), n)
        got = _walk(model, np.random.default_rng(5), n, horizon, levels, floors, c, records)
        want = walk_oracle(model, np.random.default_rng(5), n, horizon, levels, floors, c)
        for name, a, b in zip(("outcome", "step", "S"),
                               (records.outcome, records.step, records.S), want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        counts = [np.bincount(row, minlength=3) for row in want[0]]
        assert got.counts.T.tolist() == [list(row) for row in counts]


def bigjump_sum_oracle(model, x, a, n_cut, cfg):
    """Oracle for ``estimate_bigjump_sum``: its own per-block path loop, which
    scatters through a mask of the paths still inside the band; returns the
    estimate and its stderr."""
    sizes = [min(cfg.block_size, cfg.n_paths - s) for s in range(0, cfg.n_paths, cfg.block_size)]
    total = sumsq = 0.0
    for seed, n in zip(np.random.SeedSequence(cfg.seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(seed)
        S = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        scores = np.zeros(n)
        for _ in range(n_cut):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            scores[idx] += np.asarray(model.tail(x - S[idx]), dtype=float)
            S[idx] += model.sample(rng, idx.size)
            alive[idx[S[idx] > a]] = False  # running max has left the band
        total += float(scores.sum())
        sumsq += float(scores @ scores)
    mean = total / cfg.n_paths
    var = max(sumsq / cfg.n_paths - mean * mean, 0.0)
    return mean, math.sqrt(var / cfg.n_paths)


class TestBigJumpSum:
    @pytest.mark.parametrize(
        "model,x,a,n_cut,cfg",
        [
            ("ref", 20.0, 5.0, 60, SimConfig(n_paths=20_000, seed=5)),
            ("ref", 8.0, 2.0, 40, SimConfig(n_paths=10_000, seed=3, n_shards=3, block_size=4096)),
            (TwoPoint(5.0, 0.05, -1.0), 6.0, 2.5, 60,
             SimConfig(n_paths=20_000, seed=4, n_shards=3, block_size=4096)),
            (PointMass(-0.5), 1.0, 0.5, 40, SimConfig(n_paths=500, seed=0, n_shards=2, block_size=128)),
        ],
        ids=["ref", "ref-blocks", "jumpy-twopoint-blocks", "pointmass-blocks"],
    )
    def test_matches_loop_oracle_bits(self, ref_model, model, x, a, n_cut, cfg):
        model = ref_model if model == "ref" else model
        rep = estimate_bigjump_sum(model, x, a, n_cut, cfg)
        mean, stderr = bigjump_sum_oracle(model, x, a, n_cut, cfg)
        assert rep.estimate.hex() == mean.hex()
        # the estimator sums elementwise squares where the oracle takes a
        # dot product, so the stderr may differ in its last bits
        assert math.isclose(rep.stderr, stderr, rel_tol=1e-15, abs_tol=0.0)

    @pytest.mark.parametrize("n_cut", [0, -3])
    def test_empty_cutoff_refused(self, ref_model, n_cut):
        with pytest.raises(EstimatorError, match="n_cut"):
            estimate_bigjump_sum(ref_model, 8.0, 2.0, n_cut, SimConfig(n_paths=100, seed=0))

    def test_pointmass_zero(self, pm_model):
        rep = estimate_bigjump_sum(pm_model, 1.0, 0.5, 40, SimConfig(n_paths=500, seed=0))
        assert rep.estimate == 0.0

    def test_twopoint_gap_is_unjumpable(self, tp_model, tp_pmf):
        # unit up-steps cannot leap from below 1/2 past 9/2: both the
        # estimator and the exact flow are identically zero
        rep = estimate_bigjump_sum(tp_model, 4.5, 0.5, 60, SimConfig(n_paths=2000, seed=1))
        flow = bigjump_flow(tp_pmf, barrier=0.5, jump_level=4.5, gamma=0.9, n_max=60)
        assert rep.estimate == 0.0
        assert flow.total() == 0.0

    def test_jumpy_twopoint_matches_flow_dp(self):
        model = TwoPoint(u=5.0, pu=0.05, v=-1.0)
        pmf = discretize(model, 1.0)
        flow = bigjump_flow(pmf, barrier=2.5, jump_level=6.0, gamma=0.2, n_max=60)
        rep = estimate_bigjump_sum(model, 6.0, 2.5, 60, SimConfig(n_paths=200_000, seed=4))
        assert flow.total() > 0
        assert abs(rep.estimate - flow.total()) < 3 * rep.stderr + rep.bias_bound

    def test_polyexp_lower_bound_fraction(self, ref_model, ref_pmf, ref_law):
        cfg = SimConfig(n_paths=100_000, seed=5)
        rep = estimate_bigjump_sum(ref_model, 20.0, 5.0, 60, cfg)
        # exact flow for the same disjoint events, from the grid oracle
        dp = bigjump_flow(ref_pmf, barrier=5.0, jump_level=20.0, gamma=1.0, n_max=60).total()
        assert abs(rep.estimate - dp) < 3 * rep.stderr + rep.bias_bound
        # the single-jump route carries most, but not all, of the tail here
        frac = rep.estimate / ref_law.tail(20.0)
        assert 0.7 <= frac <= 1.0
        assert rep.bias_bound < 0.01 * rep.estimate

    def test_small_cutoff_flagged(self, ref_model):
        rep = estimate_bigjump_sum(ref_model, 8.0, 2.0, 2, SimConfig(n_paths=5000, seed=6))
        assert rep.flags.get("n_cut_too_small")

    def test_lower_bound_vs_crude(self, ref_model):
        # disjoint-event sum can never exceed the full tail (within noise)
        cfg = SimConfig(n_paths=300_000, seed=8)
        crude = estimate_tail_crude(ref_model, 5.0, cfg)
        bj = estimate_bigjump_sum(ref_model, 5.0, 1.25, 60, cfg)
        joint = math.hypot(crude.stderr, bj.stderr)
        assert bj.estimate <= crude.estimate + 3 * joint


class TestConditionalRatio:
    def test_always_a_probability(self, ref_model):
        rep = bigjump_conditional_ratio(ref_model, 3.0, "quarter", SimConfig(n_paths=50_000, seed=2))
        assert 0.0 <= rep.estimate <= 1.0

    def test_matches_flow_dp(self, ref_model, ref_pmf, ref_law):
        x = 4.0
        cfg = SimConfig(n_paths=10**6, seed=11)
        rep = bigjump_conditional_ratio(ref_model, x, "quarter", cfg)
        dp_ratio = bigjump_dp_ratio(ref_pmf, ref_law, x, "quarter", ref_model.decay_rate)
        assert rep.n_effective > 50
        assert abs(rep.estimate - dp_ratio) < 3 * rep.stderr + 0.01

    @pytest.mark.parametrize(
        "model,x,h_choice",
        [
            ("ref", 1.0, "quarter"),
            (TWOPOINT, 4.0, "quarter"),  # unit steps: no first climb overshoots
            (TwoPoint(5.0, 0.05, -1.0), 8.0, "quarter"),
            (TwoPoint(5.0, 0.05, -1.0), 9.0, "sqrt"),
            # no upward step: the slack falls back to K = 1, so x - K lies above a
            (TwoPoint(-0.5, 0.5, -1.0), 4.0, "quarter"),
        ],
        ids=["ref", "twopoint", "jumpy-twopoint", "jumpy-twopoint-sqrt", "no-upward-step"],
    )
    def test_counts_match_oracle_records(self, ref_model, model, x, h_choice):
        model = ref_model if model == "ref" else model
        cfg = SimConfig(n_paths=20_000, seed=9)  # one block
        rep = bigjump_conditional_ratio(model, x, h_choice, cfg)
        a, K = rep.params["a"], rep.params["slack"]
        assert (K == 1.0) == (x - K > a)

        def records(levels):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
            return walk_oracle(model, rng, cfg.n_paths, cfg.horizon, levels, [x - K] * len(levels))

        outcome, _, S = records([a, x])
        # the level a leaves every path's draws as the walk of x alone makes them
        assert outcome[1].tobytes() == records([x])[0][0].tobytes()
        hit = outcome[1] == HIT
        big_hits = int((hit & (S[0] > x - a)).sum())
        assert rep.n_effective == int(hit.sum())
        assert rep.flags["undecided"] == int((outcome[1] == 0).sum())
        if rep.n_effective:
            assert rep.estimate == big_hits / rep.n_effective
            assert 0 < big_hits < rep.n_effective or model is TWOPOINT
        else:
            assert rep.flags["inconclusive"]

    @pytest.mark.parametrize("x,h_choice,band", [(-1.0, "quarter", ""), (0.0, "quarter", ""),
                                                 (4.0, "sqrt", ", h(x) = 2")],
                             ids=["-1.0-quarter", "0.0-quarter", "4.0-sqrt"])
    def test_level_without_split_refused(self, ref_model, x, h_choice, band):
        # band_h is the one band rule: the library refuses as the command line does
        message = (f"no single-jump split at x = {x:g}{band} with --h-choice {h_choice}: "
                   "levels need x > 0 and h(x) < x/2")
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            bigjump_conditional_ratio(ref_model, x, h_choice, SimConfig(n_paths=100, seed=0))

    def test_inconclusive_when_level_unreachable(self, ref_model):
        rep = bigjump_conditional_ratio(ref_model, 25.0, "quarter", SimConfig(n_paths=2000, seed=1))
        assert rep.flags.get("inconclusive")
        assert math.isnan(rep.estimate)


class TestRenewalDiagnostics:
    def test_pointmass_never_crosses(self, pm_model):
        table = renewal_diagnostics(pm_model, [1.0], SimConfig(n_paths=500, seed=0), gamma=1.0)
        assert table.rows[0]["delta"] == 0.0
        assert table.rows[0]["undecided"] == 0
        assert table.drift_c == pytest.approx(-0.5)

    def test_trends_on_reference_model(self, ref_model):
        cfg = SimConfig(n_paths=150_000, seed=21)
        table = renewal_diagnostics(ref_model, [2.0, 4.0, 8.0, 16.0], cfg)
        deltas = [r["delta"] for r in table.rows]
        phis = [r["phi"] for r in table.rows]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(phis, phis[1:]))
        # certified miss bounds stay at the configured level
        assert all(r["delta_bias_bound"] <= 1e-4 for r in table.rows)

    def test_lattice_family_needs_rate(self, tp_model):
        with pytest.raises(ModelError, match="no intrinsic decay rate; pass the twist explicitly"):
            renewal_diagnostics(tp_model, [2.0], SimConfig(n_paths=100, seed=0))


class TestUnbiasedness:
    def test_crude_z_scores_ten_seeds(self, tp_model):
        exact = 3.0**-5
        for seed in range(10):
            rep = estimate_tail_crude(tp_model, 4.5, SimConfig(n_paths=120_000, seed=seed))
            z = (rep.estimate - exact) / rep.stderr
            assert abs(z) < 4.0, seed

    def test_bigjump_z_scores_ten_seeds(self):
        model = TwoPoint(u=5.0, pu=0.05, v=-1.0)
        pmf = discretize(model, 1.0)
        exact = bigjump_flow(pmf, barrier=2.5, jump_level=6.0, gamma=0.2, n_max=60).total()
        for seed in range(10):
            rep = estimate_bigjump_sum(model, 6.0, 2.5, 60, SimConfig(n_paths=60_000, seed=seed))
            z = (rep.estimate - exact) / rep.stderr
            assert abs(z) < 4.0, seed
