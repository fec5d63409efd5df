"""The benchmark's workloads: exact walkmax argv lists, made from the seed.

The seed fixes the order in which a workload's commands run and, on
``mc-ref``, the Monte Carlo ``--seed``.  Grid steps, levels, horizons and
path counts are pinned here: a speed-up may never come from a coarser grid,
fewer levels or fewer paths.
"""

from __future__ import annotations

import random

# reference model: shift log 4, so the twisted moment phi(gamma) is exactly 1/2
REF = "polyexp:gamma=1,beta=2,shift=1.3862943611198906"

# (beta, shift) pairs of scan-coarse: phi(gamma) from about 0.12 to 0.61
SCAN_MODELS = [
    (2, 1.2), (2, 1.3862943611198906), (2, 1.8), (2, 2.5),
    (3, 0.9), (3, 1.2), (3, 1.8), (3, 2.5),
]

MC_LEVELS = "1,2,3,4"
MC_ARGS = ["--n-paths", "1000000", "--shards", "2"]

WORKLOADS = ("oracle-fine", "scan-coarse", "mc-ref")


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's commands, in the order the seed gives them."""
    if workload == "oracle-fine":
        cmds = [
            ["constants"],
            ["finite", "--N", "1,2,5,10,50"],
            ["stopped", "--x", "4,6,8,10,12,14"],
            ["bigjump", "--x", "10,20,40"],
        ]
        cmds = [c + ["--model", REF, "--step", "0.005"] for c in cmds]
    elif workload == "scan-coarse":
        cmds = [
            ["constants", "--model", f"polyexp:gamma=1,beta={b},shift={d}", "--step", "0.02"]
            for b, d in SCAN_MODELS
        ]
    elif workload == "mc-ref":
        common = ["--model", REF, *MC_ARGS, "--seed", str(seed % 2**32)]
        cmds = [
            ["tail-report", "--measured", "mc", "--x", MC_LEVELS, *common],
            ["renewal-diag", "--R", "2,4,8,16", *common],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(cmds)
    return cmds


def oracle_reference(workload: str) -> list[str] | None:
    """Untimed lattice command whose P(M>x) the MC estimates are checked
    against (the same h=0.01 oracle that ``tail-report`` builds first)."""
    if workload != "mc-ref":
        return None
    return ["tail-report", "--measured", "oracle", "--x", MC_LEVELS, "--model", REF]
