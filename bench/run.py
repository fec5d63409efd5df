"""walkmax benchmark: run one workload of CLI commands and print its metrics.

    python3 bench/run.py --workload oracle-fine --seed 1 --seconds 40 --trace 0

Each command runs in a fresh ``python -m walkmax.cli`` process, one at a
time, timed from outside (wall clock around the process, ``wait4`` rusage
for CPU and peak RSS).  The package is not installed: children get
``PYTHONPATH=<checkout>/src``.  Passes over the workload repeat until
``--seconds`` would be exceeded (at least one); every payload is checked
(``checks.py``) and must be byte-identical to the first pass's.  Set-up
probes (``walkmax --version``) run before the first pass and between the
commands of every pass, so ``setup_s`` samples the whole run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes through ``traced_cli.py`` and prints the
per-layer metrics, including the tracing overhead.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count the workload's own commands."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import failure, oracle_ratios
from metrics import SPEC
from tracing import layer_metrics
from workloads import WORKLOADS, commands, oracle_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # before the first pass, after an untimed warm-up
PASS_PROBES = 6  # in every pass, spread between its commands
PROCESS_LIMIT_S = 150.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    """One finished child process."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int


def child_env() -> dict[str, str]:
    """The caller's environment, with this checkout's ``src`` first on the
    path and BLAS/OpenMP pools pinned to one thread: on a 2-core machine the
    default OpenBLAS pool spins beside the interpreter and made ``finite``
    about 30% slower and far less repeatable."""
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd: list[str], env: dict[str, str], tmp: Path) -> Op:
    """Run ``cmd`` to completion; its own rusage comes from ``wait4``."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
              usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class Ledger:
    """The workload's commands, attempted and failed, with the first payload
    of each.  A failed set-up probe or oracle command is not a workload
    operation, so it is kept apart, but it still makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.other_failures: list[str] = []
        self.first: dict[int, bytes] = {}

    def check(self, index: int, label: str, op: Op, oracle: dict | None) -> None:
        reason = failure(op.returncode, op.stdout, op.stderr, oracle)
        if reason is None:
            expected = self.first.setdefault(index, op.stdout)
            if op.stdout != expected:
                reason = "payload bytes differ from the first run of this command"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def other(self, label: str, reason: str | None) -> None:
        if reason is not None:
            self.other_failures.append(f"{label}: {reason}")


def probe(env: dict[str, str], tmp: Path, ledger: Ledger) -> float:
    """One fresh process that only starts the CLI; returns its wall time."""
    op = run_process([sys.executable, "-m", "walkmax.cli", "--version"], env, tmp)
    ok = op.returncode == 0 and op.stdout.strip() and b"Traceback" not in op.stderr
    ledger.other("walkmax --version", None if ok else f"exit code {op.returncode}")
    return op.wall_s


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
    env = child_env()
    ledger = Ledger()
    cli = [sys.executable, "-m", "walkmax.cli"]
    spans_path = tmp / "spans.json"
    traced_cli = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--"]
    cmds = commands(workload, seed)

    start = time.perf_counter()
    probe(env, tmp, ledger)  # warm-up: bytecode and file caches
    setup = [probe(env, tmp, ledger) for _ in range(SETUP_PROBES)]
    # command index -> probes run just before it, PASS_PROBES per pass in all
    probes_before = [(i + 1) * PASS_PROBES // len(cmds) - i * PASS_PROBES // len(cmds)
                     for i in range(len(cmds))]

    oracle = None
    ref = oracle_reference(workload)
    if ref is not None:
        op = run_process(cli + ref, env, tmp)
        reason = failure(op.returncode, op.stdout, op.stderr)
        ledger.other(" ".join(ref), reason)
        if reason is None:
            oracle = oracle_ratios(op.stdout)

    walls, cpus, traced_walls, per_pass_layers = [], [], [], []
    rss_kb = emit_bytes = 0
    passes_start = time.perf_counter()
    while True:
        ops = []
        for i, cmd in enumerate(cmds):
            setup += [probe(env, tmp, ledger) for _ in range(probes_before[i])]
            op = run_process(cli + cmd, env, tmp)
            ledger.check(i, " ".join(cmd), op, oracle)
            ops.append(op)
        walls.append(sum(op.wall_s for op in ops))
        cpus.append(sum(op.cpu_s for op in ops))
        rss_kb = max([rss_kb] + [op.rss_kb for op in ops])
        emit_bytes = sum(len(op.stdout) for op in ops)
        if trace:
            traces, wall = [], 0.0
            for i, cmd in enumerate(cmds):
                op = run_process(traced_cli + cmd, env, tmp)
                ledger.check(i, "traced " + " ".join(cmd), op, oracle)
                wall += op.wall_s
                if spans_path.exists():
                    traces.append(json.loads(spans_path.read_text()))
                    spans_path.unlink()
            traced_walls.append(wall)
            per_pass_layers.append(layer_metrics(traces) if traces else {})
        now = time.perf_counter()
        if now - start + (now - passes_start) / len(walls) > seconds:  # next pass would overrun
            break

    if trace:
        values = {
            name: statistics.median(layers.get(name, 0.0) for layers in per_pass_layers)
            for name in per_pass_layers[0]
        }
        values["cli.emit_bytes"] = emit_bytes
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        catalogue = SPEC["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": statistics.median(setup),
        }
        catalogue = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in catalogue}
    return ledger, walls, setup, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "walkmax" / "cli.py").is_file():
        print(f"bench: no walkmax sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        ledger, walls, setup, metrics = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in ledger.other_failures + ledger.failures:
        print(f"bench: FAILED {line}", file=sys.stderr)
    failed = len(ledger.failures)
    correct = failed == 0 and not ledger.other_failures
    threads = " ".join(f"{k}=1" for k in THREAD_ENV)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
          f"setup_probes={len(setup)} attempted={ledger.attempted} failed={failed} "
          f"other_failed={len(ledger.other_failures)} "
          f"fail_frac={failed / ledger.attempted:.6g} nproc={os.cpu_count()} {threads}")
    print("#   pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    print("#   setup probe s: " + " ".join(f"{w:.3f}" for w in setup))
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
