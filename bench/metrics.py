"""What ``BENCHMARK.json`` cannot hold about each per-layer metric.

Names, units, directions and bounds live only in ``BENCHMARK.json``
(``SPEC``).  Here each per-layer metric records whether its number is
*measured* (a clock or the kernel's rusage) or *computed* (from array sizes
and counts), and which end-to-end metric on which workload it should move.
Every end-to-end metric is measured.  The benchmark's own tests keep the
names here and in ``BENCHMARK.json`` in step.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

OF = "oracle-fine"
SC = "scan-coarse"
MC = "mc-ref"

# name: (kind, end-to-end metric and workload it should move)
PER_LAYER = {
    "import.walkmax_s": ("measured", f"setup_s; wall_s on {SC}"),
    "import.modules": ("measured", f"setup_s; wall_s on {SC}"),
    "cli.main.self_s": ("measured", f"wall_s on {SC}"),
    "cli.constants_pipeline.s": ("measured", f"wall_s on {SC}"),
    "cli.emit_bytes": ("measured", f"wall_s on {SC}"),
    "cli.bigjump_dp_ratio.s": ("measured", f"wall_s on {OF}"),
    "cli.bigjump_dp_ratio.self_s": ("measured", f"wall_s on {OF}"),
    "increments.mgf.calls": ("measured", f"wall_s on {SC}"),
    "increments.mgf.s": ("measured", f"wall_s on {SC}"),
    "increments.sample.calls": ("measured", f"wall_s, cpu_s on {MC}"),
    "increments.sample.draws": ("measured", f"wall_s, cpu_s on {MC}"),
    "increments.sample.s": ("measured", f"wall_s, cpu_s on {MC}"),
    "increments.sample.ns_per_draw": ("measured", f"wall_s, cpu_s on {MC}"),
    "increments.tail.calls": ("measured", f"wall_s on {OF}"),
    "increments.tail.s": ("measured", f"wall_s on {OF}"),
    "lattice.discretize.s": ("measured", f"wall_s on {OF}"),
    "lattice.discretize.cells": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.calls": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.s": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.iterations": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.grid_cells": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.s_per_iter": ("measured", f"wall_s on {OF}"),
    "lattice.lindley_fixed_point.madds": ("computed", f"wall_s on {OF}"),
    "lattice.finite_horizon.s": ("measured", f"wall_s, peak_rss_mb on {OF}"),
    "lattice.finite_horizon.steps": ("measured", f"wall_s, peak_rss_mb on {OF}"),
    "lattice.finite_horizon.madds": ("computed", f"wall_s on {OF}"),
    "lattice.finite_horizon.bytes_kept": ("computed", f"peak_rss_mb on {OF}"),
    "lattice.stopped_max_sigma1.s": ("measured", f"wall_s on {OF}"),
    "lattice.stopped_max_sigma1.levels": ("measured", f"wall_s on {OF}"),
    "lattice.stopped_max_sigma1.horizon_used": ("measured", f"wall_s on {OF}"),
    "lattice.bigjump_flow.calls": ("measured", f"wall_s on {OF}"),
    "lattice.bigjump_flow.s": ("measured", f"wall_s on {OF}"),
    "lattice.bigjump_flow.steps": ("measured", f"wall_s on {OF}"),
    "lattice.exp_moment.calls": ("measured", f"wall_s on {OF}"),
    "lattice.exp_moment.s": ("measured", f"wall_s on {OF}"),
    "lattice.pmf_mgf.calls": ("measured", f"wall_s on {OF}"),
    "lattice.pmf_mgf.s": ("measured", f"wall_s on {OF}"),
    "lattice.chernoff_tail_bound.calls": ("measured", f"wall_s on {OF}"),
    "lattice.chernoff_tail_bound.s": ("measured", f"wall_s on {OF}"),
    "asymptotics.constants.s": ("measured", f"wall_s on {OF}"),
    "asymptotics.constants.self_s": ("measured", f"wall_s on {OF}"),
    "asymptotics.finite_constant.calls": ("measured", f"wall_s on {OF}"),
    "asymptotics.finite_constant.s": ("measured", f"wall_s on {OF}"),
    "asymptotics.finite_constant.self_s": ("measured", f"wall_s on {OF}"),
    "asymptotics.stopped_constant.s": ("measured", f"wall_s on {OF}"),
    "asymptotics.convergence_report.s": ("measured", f"wall_s on {OF}"),
    "montecarlo.estimate_tail_crude.calls": ("measured", f"wall_s on {MC}"),
    "montecarlo.estimate_tail_crude.s": ("measured", f"wall_s on {MC}"),
    "montecarlo.estimate_tail_crude.paths": ("measured", f"wall_s on {MC}"),
    "montecarlo.estimate_tail_crude.hit_frac": ("measured", f"wall_s on {MC}"),
    "montecarlo.renewal_diagnostics.s": ("measured", f"wall_s on {MC}"),
    "montecarlo.renewal_diagnostics.paths": ("measured", f"wall_s on {MC}"),
    "montecarlo.path_steps": ("measured", f"wall_s on {MC}"),
    "montecarlo.s_per_mstep": ("measured", f"wall_s on {MC}"),
    "montecarlo.sample_share": ("measured", f"wall_s on {MC}"),
    "montecarlo.undecided": ("measured", f"wall_s on {MC}"),
    "montecarlo.thread_efficiency": ("measured", f"cpu_s on {MC}"),
    "trace.overhead_s": ("measured", "none: traced minus untraced wall_s"),
}
