"""Run one walkmax CLI command with spans around the package's public functions.

Usage:  python3 bench/traced_cli.py SPANS.json -- <walkmax argv...>

The runner times ``import walkmax.cli``, wraps the functions in ``TARGETS``
wherever a ``walkmax`` module binds them (``cli`` and ``asymptotics`` use
from-imports, so one function can be bound in several namespaces) and on
their classes, then calls ``walkmax.cli.main(argv)``.  The payload still goes
to stdout untouched; spans stay in memory and are written to SPANS.json once,
when the command ends.

Work counts come only from return values (vector sizes, ``MaxLaw.n_iter``,
report fields), never from the package's internals.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (span name, module, attribute path, counts(result) -> dict | None, cpu clock | None)
TARGETS = [
    ("cli.main", "walkmax.cli", "main", None, None),
    ("cli.constants_pipeline", "walkmax.cli", "constants_pipeline", None, None),
    ("cli.bigjump_dp_ratio", "walkmax.cli", "bigjump_dp_ratio", None, None),
    ("increments.mgf", "walkmax.increments", "PolyExp.mgf", None, None),
    ("increments.sample", "walkmax.increments", "PolyExp.sample",
     lambda r: {"draws": len(r)}, time.thread_time),
    ("increments.tail", "walkmax.increments", "PolyExp.tail", None, None),
    ("lattice.discretize", "walkmax.lattice", "discretize",
     lambda r: {"cells": r.probs.size}, None),
    ("lattice.lindley_fixed_point", "walkmax.lattice", "lindley_fixed_point",
     lambda r: {"iterations": r.n_iter, "grid_cells": r.probs.size,
                "madds": r.n_iter * r.probs.size * r.increment.probs.size}, None),
    ("lattice.finite_horizon", "walkmax.lattice", "finite_horizon",
     lambda r: {"steps": len(r) - 1,
                "madds": (len(r) - 1) * r[0].probs.size * r[0].increment.probs.size,
                "bytes_kept": sum(law.probs.nbytes for law in r)}, None),
    ("lattice.stopped_max_sigma1", "walkmax.lattice", "stopped_max_sigma1",
     lambda r: {"levels": r.max_tail_x.size, "horizon_used": r.horizon_used}, None),
    ("lattice.bigjump_flow", "walkmax.lattice", "bigjump_flow",
     lambda r: {"steps": r.n_run}, None),
    ("lattice.exp_moment", "walkmax.lattice", "exp_moment", None, None),
    ("lattice.pmf_mgf", "walkmax.lattice", "LatticePMF.mgf", None, None),
    ("lattice.chernoff_tail_bound", "walkmax.lattice", "LatticePMF.chernoff_tail_bound",
     None, None),
    ("asymptotics.constants", "walkmax.asymptotics", "constants", None, None),
    ("asymptotics.finite_constant", "walkmax.asymptotics", "finite_constant", None, None),
    ("asymptotics.stopped_constant", "walkmax.asymptotics", "stopped_constant", None, None),
    ("asymptotics.convergence_report", "walkmax.asymptotics", "convergence_report",
     None, None),
    ("montecarlo.estimate_tail_crude", "walkmax.montecarlo", "estimate_tail_crude",
     lambda r: {"paths": r.n_paths, "hits": round(r.estimate * r.n_paths),
                "undecided": r.flags["undecided"]}, time.process_time),
    ("montecarlo.renewal_diagnostics", "walkmax.montecarlo", "renewal_diagnostics",
     lambda r: {"paths": r.n_paths * len(r.rows),
                "undecided": sum(row["undecided"] for row in r.rows)}, time.process_time),
]


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start_s, end_s, parent_index, cpu_s, counts]``.  Spans
    are appended when they open, so a parent always precedes its children.
    A worker thread with no open span of its own parents its spans on the
    main thread's innermost open span (the call that started the worker).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None, cpu=None):
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = [name, 0.0, 0.0, parent, None, None]
            with lock:  # worker threads open spans concurrently
                index = len(spans)
                spans.append(span)
            stack.append(index)
            c0 = cpu() if cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if cpu:
                    span[4] = cpu() - c0
                stack.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target in each ``walkmax`` namespace that binds it."""
    for name, module_name, path, counts, cpu in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], counts, cpu))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original, counts, cpu)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "walkmax" or mod_name.startswith("walkmax."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <walkmax argv...>", file=sys.stderr)
        return 1
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    modules_before = len(sys.modules)
    t0 = time.perf_counter()
    import walkmax.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - modules_before
    install(tracer)
    try:
        code = walkmax.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "modules": modules, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
