"""Acceptance suite.

Every numbered criterion below is exercised at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them inline).
Reference model throughout: gamma=1, beta=2, shift=log 4, so the twisted
increment moment is exactly 1/2.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from walkmax import (
    PolyExp,
    SimConfig,
    TwoPoint,
    constants,
    convergence_report,
    discretize,
    estimate_bigjump_sum,
    estimate_tail_crude,
    exp_moment,
    finite_constant,
    finite_horizon,
    lambda_partial_sums,
    lindley_fixed_point,
    local_constant,
    renewal_diagnostics,
    stopped_constant,
    stopped_max_sigma1,
)
from walkmax.cli import bigjump_dp_ratio, main as cli_main
from walkmax.lattice import bigjump_flow
from walkmax.montecarlo import bigjump_conditional_ratio

from conftest import ORACLE_TOP, TP_TOP, sum_laws


def certify(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def tail_edge_grid(model, n=6):
    """Levels where the increment tail spans 1e-4 down to 1e-9."""
    lo = model.inverse_tail(1e-4)
    hi = model.inverse_tail(1e-9)
    return np.geomspace(lo, hi, n)


def test_criterion_01_oracle_exactness(tp_model):
    t0 = time.monotonic()
    law = lindley_fixed_point(discretize(tp_model, 1.0), top=TP_TOP)
    elapsed = time.monotonic() - t0
    worst = max(abs(law.tail(k - 0.5) - 3.0**-k) for k in range(21))
    ok = worst < 1e-10 and elapsed < 5.0
    certify(1, ok, f"ruin-chain max err {worst:.2e} (<1e-10), {elapsed:.2f}s (<5s)")


def test_criterion_02_twisted_moment_bounds(ref_model, ref_law):
    em = exp_moment(ref_law, 1.0, ref_model.mgf(1.0))
    ok = 1.0 < em.lo and em.hi < 2.0 and em.width < 1e-3
    certify(
        2,
        ok,
        f"E e^(gM) = {em.value:.6f} in ({em.lo:.6f}, {em.hi:.6f}), "
        f"width {em.width:.2e} (<1e-3), strict bounds (1, 2)",
    )


def test_criterion_03_tail_constant(ref_model):
    t0 = time.monotonic()
    pmf = discretize(ref_model, 0.01)
    law = lindley_fixed_point(pmf, top=ORACLE_TOP)
    consts = constants(ref_model, law)
    xs = tail_edge_grid(ref_model)
    rows = [(float(x), law.tail(float(x)) / float(ref_model.tail(float(x)))) for x in xs]
    report = convergence_report(consts.constant.value, rows, tol=0.10)

    pmf_half = discretize(ref_model, 0.005)
    law_half = lindley_fixed_point(pmf_half, top=ORACLE_TOP)
    shift = max(
        abs(law.tail(float(x)) / law_half.tail(float(x)) - 1.0)
        for x in xs
        if law.tail(float(x)) >= 1e-9
    )
    elapsed = time.monotonic() - t0
    ok = report.verdict == "converging" and shift < 0.01 and elapsed < 120.0
    certify(
        3,
        ok,
        f"verdict {report.verdict}, final dev {report.final_dev:.3f} (<=0.10), "
        f"grid-halving shift {shift:.4f} (<0.01), {elapsed:.1f}s (<120s)",
    )


def test_criterion_04_window_constant(ref_model, ref_law, ref_consts):
    pred = local_constant(ref_consts, 1.0)
    xs = tail_edge_grid(ref_model)
    rows = [
        (float(x), ref_law.window(float(x), 1.0) / float(ref_model.tail(float(x))))
        for x in xs
    ]
    report = convergence_report(pred.value, rows, tol=0.10)
    # the window deviation passes through zero on the way in, so the trend
    # check is first-vs-last rather than strict per-step decrease
    ok = report.final_dev <= 0.10 and report.loose_trend
    certify(
        4,
        ok,
        f"final dev {report.final_dev:.3f} (<=0.10) at x={xs[-1]:.2f}, "
        f"trend first {report.rows[0]['dev']:.3f} -> last {report.final_dev:.3f}",
    )


def test_criterion_05_convolution_tails(ref_model):
    pmf = discretize(ref_model, 0.01, span=(-ref_model.shift, 40.0))
    powers = sum_laws(pmf, 3)
    xs = [12.0, 16.0, 20.0, 24.0]
    dev2 = [
        abs(powers[1].tail(x) / float(ref_model.tail(x)) - 1.0) for x in xs
    ]
    dev3 = [
        abs(powers[2].tail(x) / float(ref_model.tail(x)) / 0.75 - 1.0) for x in xs
    ]
    trend = all(b < a for a, b in zip(dev2, dev2[1:])) and all(
        b < a for a, b in zip(dev3, dev3[1:])
    )
    ok = dev2[-1] <= 0.05 and dev3[-1] <= 0.07 and trend
    certify(
        5,
        ok,
        f"2-fold dev {dev2[-1]:.4f} (<=0.05), 3-fold dev {dev3[-1]:.4f} (<=0.07), "
        f"both decreasing over x={xs}",
    )


def test_criterion_06_finite_horizon(ref_model, ref_consts, ref_horizon_laws, ref_boundary):
    x_edge = ref_model.inverse_tail(1e-9)
    c = ref_consts.constant.value
    checks = []
    prev = 0.0
    Ns = (5, 20, 50)
    for N, fc in zip(Ns, finite_constant(ref_consts, Ns, ref_boundary)):
        assert fc.value >= prev - 1e-12
        prev = fc.value
        gap = c - fc.value
        # ledgered correction: the horizon-truncated moments add an N-linear
        # factor to the pure geometric remainder
        bound = ref_consts.phg**N / (1 - ref_consts.phg) * (N + ref_consts.exp_moment_m.value)
        ratio = ref_horizon_laws[N].tail(x_edge) / float(ref_model.tail(x_edge))
        dev = abs(ratio / fc.value - 1.0)
        checks.append((N, gap <= bound + 2e-11, dev <= 0.10, dev))
    ok = all(g and d for _, g, d, _ in checks)
    certify(
        6,
        ok,
        "nondecreasing; remainder bounded; ratio devs "
        + ", ".join(f"N={N}: {dev:.3f}" for N, _, _, dev in checks)
        + " (<=0.10)",
    )


def test_criterion_07_exceedance_profile(ref_model, ref_law, ref_horizon_laws):
    x_edge = ref_model.inverse_tail(1e-9)
    denom = ref_law.tail(x_edge)
    profile = [ref_horizon_laws[N].tail(x_edge) / denom for N in range(101)]
    monotone = all(b >= a - 1e-12 for a, b in zip(profile, profile[1:]))
    n_hit = next((N for N, v in enumerate(profile) if v >= 0.9), None)
    ok = monotone and n_hit is not None and n_hit <= 100
    certify(
        7,
        ok,
        f"conditional profile at x={x_edge:.2f} reaches 0.9 by N={n_hit} (<=100), monotone",
    )


def test_criterion_08_single_jump_ratio(ref_model):
    xs = [10.0, 20.0, 40.0]
    span_hi = max(ref_model.inverse_tail(1e-15), xs[-1] - xs[-1] / 4 + 22.0)
    pmf = discretize(ref_model, 0.01, span=(-ref_model.shift, span_hi))
    law = lindley_fixed_point(pmf, top=ORACLE_TOP)
    ratios = [bigjump_dp_ratio(pmf, law, x, "quarter", ref_model.decay_rate) for x in xs]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))

    # simulation cross-check at a level crude paths can reach
    x_mc = 4.0
    mc = bigjump_conditional_ratio(ref_model, x_mc, "quarter", SimConfig(n_paths=400_000, seed=17))
    dp_small = bigjump_dp_ratio(pmf, law, x_mc, "quarter", ref_model.decay_rate)
    agree = abs(mc.estimate - dp_small) < 3 * mc.stderr + 0.01
    ok = ratios[-1] >= 0.9 and increasing and agree
    certify(
        8,
        ok,
        f"ratios {[round(r, 4) for r in ratios]} increasing, last >= 0.9; "
        f"simulation {mc.estimate:.3f} vs grid {dp_small:.3f} within 3 stderr",
    )


def test_criterion_09_stopped_walk(ref_model, ref_law, ref_consts):
    x_edge = ref_model.inverse_tail(1e-9)
    stopped = stopped_max_sigma1(ref_law, [x_edge], ref_consts.gamma)
    pred = stopped_constant(ref_consts, stopped)
    measured = float(stopped.max_tail[0]) / float(ref_model.tail(x_edge))
    dev = abs(measured / pred.value - 1.0)
    ok = dev <= 0.10
    certify(
        9,
        ok,
        f"stopped ratio {measured:.4f} vs predicted {pred.value:.4f}, dev {dev:.3f} (<=0.10)",
    )


def test_criterion_10_tilted_partial_sums(ref_consts, ref_pmf, ref_law):
    steps = sum_laws(ref_pmf, 29)
    delta0 = type(ref_pmf)(h=ref_pmf.h, k0=0, probs=np.array([1.0]))
    rows = lambda_partial_sums(ref_consts, 30, [25.0], [delta0] + steps, ref_law)
    total = rows[-1]["partial_sum"]
    target = 1.0 / (1.0 - ref_consts.phg)
    dev = abs(total / target - 1.0)
    ok = dev <= 0.05
    certify(10, ok, f"sum {total:.4f} vs {target:.1f}, dev {dev:.3f} (<=0.05)")


def test_criterion_11_renewal_trends(ref_model):
    table = renewal_diagnostics(
        ref_model, [2.0, 4.0, 8.0, 16.0], SimConfig(n_paths=150_000, seed=21)
    )
    deltas = [r["delta"] for r in table.rows]
    phis = [r["phi"] for r in table.rows]
    ok = all(b < a for a, b in zip(deltas, deltas[1:])) and all(
        b < a for a, b in zip(phis, phis[1:])
    )
    certify(
        11,
        ok,
        f"crossing prob {[round(d, 4) for d in deltas]} and twisted moment "
        f"{[round(p, 4) for p in phis]} strictly decreasing over R",
    )


def test_criterion_12_estimator_soundness(tp_model):
    exact = 3.0**-5
    z_crude = []
    for seed in range(10):
        rep = estimate_tail_crude(tp_model, 4.5, SimConfig(n_paths=120_000, seed=seed))
        z_crude.append((rep.estimate - exact) / rep.stderr)

    jumpy = TwoPoint(u=5.0, pu=0.05, v=-1.0)
    # phi(0.2) = 0.91 certifies the flow's stop
    dp = bigjump_flow(discretize(jumpy, 1.0), barrier=2.5, jump_level=6.0, gamma=0.2,
                      n_max=60).total()
    z_bj = []
    for seed in range(10):
        rep = estimate_bigjump_sum(jumpy, 6.0, 2.5, 60, SimConfig(n_paths=60_000, seed=seed))
        z_bj.append((rep.estimate - dp) / rep.stderr)

    # disjoint-event sum never exceeds the full tail beyond joint noise
    ref = PolyExp(gamma=1.0, beta=2.0, shift=math.log(4.0))
    lb_ok = True
    for seed in range(3):
        cfg = SimConfig(n_paths=200_000, seed=seed)
        crude = estimate_tail_crude(ref, 5.0, cfg)
        bj = estimate_bigjump_sum(ref, 5.0, 1.25, 60, cfg)
        lb_ok &= bj.estimate <= crude.estimate + 3 * math.hypot(crude.stderr, bj.stderr)

    ok = all(abs(z) < 4 for z in z_crude) and all(abs(z) < 4 for z in z_bj) and lb_ok
    certify(
        12,
        ok,
        f"crude |z| max {max(map(abs, z_crude)):.2f}, jump-sum |z| max "
        f"{max(map(abs, z_bj)):.2f} (both <4, 10 seeds); lower-bound order holds",
    )


def test_criterion_13_reproducibility(ref_model, tmp_path, capsys):
    # library level: shard count cannot change a single byte
    base = None
    for shards in (1, 3, 6):
        cfg = SimConfig(n_paths=40_000, seed=33, n_shards=shards, block_size=4096)
        rep = estimate_tail_crude(ref_model, 3.0, cfg)
        blob = json.dumps(dataclasses.asdict(rep), sort_keys=True).encode()
        if base is None:
            base = blob
        assert blob == base

    # command level: reruns of one manifest are byte-identical
    spec = ref_model.spec_string()
    args = ["renewal-diag", "--model", spec, "--R", "2,4", "--n-paths", "10000"]
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d, shards in zip(dirs, ("1", "4")):
        assert cli_main(args + ["--shards", shards, "--out", str(d)]) == 0
    capsys.readouterr()
    csv_equal = (dirs[0] / "renewal_diag.csv").read_bytes() == (
        dirs[1] / "renewal_diag.csv"
    ).read_bytes()
    json_a = json.loads((dirs[0] / "renewal_diag.json").read_text())
    json_b = json.loads((dirs[1] / "renewal_diag.json").read_text())
    table_equal = json_a["table"] == json_b["table"]
    ok = csv_equal and table_equal
    certify(13, ok, "byte-identical estimator reports and CLI tables across runs and shard counts")
