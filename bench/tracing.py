"""Per-layer metrics from the spans that ``traced_cli.py`` records.

A trace is one command's record: ``{"import_s", "modules", "spans"}`` with
each span ``[name, start_s, end_s, parent_index, cpu_s, counts]``.  Every
per-layer metric except ``import.*`` is a total over the traces of one pass
of a workload; ``import.*`` is the median over its processes, so it reads
like ``setup_s``.  A ratio whose base is zero on a workload (no MC spans on
``oracle-fine``, say) reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from metrics import SPEC

MC_SPANS = ("montecarlo.estimate_tail_crude", "montecarlo.renewal_diagnostics")
SAMPLE_SPAN = "increments.sample"


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on parallel worker threads may overlap one another; the union
    counts each covered instant once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered(children.get(i, []), span[1], span[2])
        for i, span in enumerate(spans)
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(traces: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (summed durations, so thread-seconds
    for spans on worker threads), ``self_s``, ``cpu_s`` and summed counts.
    ``mc.sample`` holds the draws and thread CPU of the ``sample`` spans that
    run inside a Monte Carlo span."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        in_mc = [False] * len(spans)
        for i, (name, t0, t1, parent, cpu, counts) in enumerate(spans):
            in_mc[i] = name in MC_SPANS or (parent is not None and in_mc[parent])
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += selfs[i]
            agg["cpu_s"] += cpu or 0.0
            for key, value in (counts or {}).items():
                agg[key] += value
            if name == SAMPLE_SPAN and in_mc[i]:
                out["mc.sample"]["draws"] += counts["draws"]
                out["mc.sample"]["cpu_s"] += cpu or 0.0
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one pass of a workload.

    A metric named ``<span name>.<key>`` reads that key of ``summarize``;
    the rest are derived below.  ``cli.emit_bytes`` and ``trace.overhead_s``
    are not span data: ``run.py`` fills them in.
    """
    agg = summarize(traces)

    def get(name: str, key: str) -> float:
        return agg[name][key] if name in agg else 0.0

    sample, lfp, crude = SAMPLE_SPAN, "lattice.lindley_fixed_point", MC_SPANS[0]
    mc_s = sum(get(name, "s") for name in MC_SPANS)
    mc_cpu = sum(get(name, "cpu_s") for name in MC_SPANS)
    steps = get("mc.sample", "draws")
    derived = {
        "import.walkmax_s": statistics.median(t["import_s"] for t in traces),
        "import.modules": statistics.median(t["modules"] for t in traces),
        f"{sample}.ns_per_draw": 1e9 * _ratio(get(sample, "s"), get(sample, "draws")),
        f"{lfp}.s_per_iter": _ratio(get(lfp, "s"), get(lfp, "iterations")),
        f"{crude}.hit_frac": _ratio(get(crude, "hits"), get(crude, "paths")),
        "montecarlo.path_steps": steps,
        "montecarlo.s_per_mstep": _ratio(mc_s, steps / 1e6),
        "montecarlo.sample_share": _ratio(get("mc.sample", "cpu_s"), mc_cpu),
        "montecarlo.undecided": sum(get(name, "undecided") for name in MC_SPANS),
        "montecarlo.thread_efficiency": _ratio(mc_cpu, mc_s),
    }
    names = [m["name"] for m in SPEC["per_layer"]]
    return {name: derived[name] if name in derived else get(*name.rsplit(".", 1))
            for name in names}
