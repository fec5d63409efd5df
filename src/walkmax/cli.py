"""Batch command-line front end.

Every command returns its payload, its CSV rows and whether its verdict
passed; ``main`` alone adds the run manifest, which resolves every default so
that outputs are reproducible byte-for-byte from their own metadata, writes
the files and turns the verdict or an error into the exit code.  Timing is
written to stderr only; the payload never contains volatile fields.

Exit codes: 0 pass; 1 usage error, reported as one ``walkmax: <reason>`` line;
2 failed verdict (payload written) or computational refusal, reported as one
``<command>: <reason>`` line with no payload.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .increments import (
    BAND_RULES,
    IncrementModel,
    ModelError,
    QuadratureError,
    band_h,
    lgamma_diagnostic,
    parse_model,
    sgamma_diagnostic,
)
from .lattice import (
    BIGJUMP_REL_TOL,
    Bracket,
    LatticeError,
    LatticePMF,
    MaxLaw,
    _check_cells,
    bigjump_flow,
    convolve,
    discretize,
    horizon_pass,
    lindley_fixed_point,
    stopped_max_sigma1,
)
from .montecarlo import (
    EstimatorError,
    SimConfig,
    bigjump_conditional_ratio,
    estimate_tail_crude,
    renewal_diagnostics,
)
from .asymptotics import (
    AsymptoticConstants,
    ConvergenceReport,
    check_levels,
    constants,
    convergence_report,
    convolution_prediction,
    finite_constant,
    local_constant,
    stopped_constant,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2

# defaults of the options that a ``--measured`` mode may leave unread
DEFAULTS = {"step": 0.01, "gamma": None, "seed": 0, "n_paths": 10**5, "shards": 1, "trace": False}
# options that only one ``--measured`` mode of a command reads: they parse to
# None, and ``_check_mode`` refuses them in the other mode and drops them there
MODE_ONLY = {
    "tail-report": {"seed": "mc", "n_paths": "mc", "shards": "mc", "trace": "mc"},
    "bigjump": {"seed": "mc", "n_paths": "mc", "shards": "mc", "step": "oracle",
                "gamma": "oracle"},
}


class UsageError(ModelError):
    """Bad input on the command line, found by the CLI's own checks (exit 1);
    every other walkmax error is a computational refusal (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    computational refusals, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"{self.prog}: error: {message}", EXIT_USAGE))


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


# --- deterministic emission -----------------------------------------------------

def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    return buf.getvalue().encode()


def _emit(out: str, name: str, payload: dict, csv_rows: list[dict] | None = None) -> None:
    if out == "-":
        sys.stdout.write(_json_bytes(payload).decode())
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{name}.json").write_bytes(_json_bytes(payload))
    if csv_rows is not None:
        (outdir / f"{name}.csv").write_bytes(_csv_bytes(csv_rows))


def _record(obj):
    """The payload form of ``obj``: a ``Bracket`` as its ``{value, lo, hi}``,
    a dataclass as its fields (each in payload form) and a non-finite float
    as its repr, which JSON cannot hold (``--t inf`` asks for the whole
    tail); lists, dicts and everything else pass unchanged."""
    if isinstance(obj, Bracket):
        return obj._asdict()
    if dataclasses.is_dataclass(obj):
        return {f.name: _record(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return repr(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _report_rows(report: ConvergenceReport) -> list[dict]:
    """The CSV rows of a convergence report: each level's row with the prediction."""
    return [{"x": r["x"], "measured": r["measured"], "predicted": report.predicted,
             "ratio": r["ratio"], "dev": r["dev"]} for r in report.rows]


def _manifest(args) -> dict:
    """The command, its model spec and every option it read, defaults resolved."""
    params = {k: _record(v) for k, v in vars(args).items() if k not in ("func", "out")}
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "walkmax",
        "tool_version": __version__,
        "command": args.command,
        "model": args.model,
        "params": dict(sorted(params.items())),
    }


def _numbers(text: str, kind) -> list:
    """Comma-separated finite values of ``kind``; a malformed, non-finite or
    empty list is a usage error."""
    try:
        out = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        out = None
    if out is None or not all(map(math.isfinite, out)):
        raise UsageError(f"malformed list {text!r}: expected comma-separated "
                         f"finite {kind.__name__} values")
    if not out:
        raise UsageError(f"empty list {text!r}: give at least one value")
    return out


def _floats(text: str) -> list[float]:
    return _numbers(text, float)


def _ints(text: str) -> list[int]:
    return _numbers(text, int)


def _as_usage(check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ``ModelError`` is about command-line
    input and so re-raised as a ``UsageError``."""
    try:
        return check(*args, **kwargs)
    except ModelError as exc:
        raise UsageError(str(exc)) from exc


# --- shared pipelines -------------------------------------------------------------

def oracle_grid(model: IncrementModel, h: float, gamma: float | None, levels=(),
                reach: tuple[float, float] | None = None) -> tuple[LatticePMF, float]:
    """Increment lattice and grid top of every oracle command, sized before
    any sweep.  A model with no twist, or with phi >= 1 there, is refused
    first: it has no tail constant.  ``reach = (level, decay_lengths)``
    widens a smooth tail's span to cover jumps past ``level`` (atomic
    families keep their exact support).  The top is 75 decay lengths of the
    decay rate, or of ``gamma`` for atomic families, which keeps the tail
    range certified.  A level at or above the top cell is refused: the laws
    end there, so no tail at it is whole."""
    twist = model.certified_twist(gamma)[0]
    rate = model.decay_rate
    top = 75.0 / (rate or twist)
    span = None
    if reach and rate:
        lo, hi = model.default_span()
        span = (lo, max(hi, reach[0] + reach[1] / rate))
    pmf = discretize(model, h, span=span)
    grid_top = round(top / h) * h  # the laws' top cell
    above = [x for x in levels if not x < grid_top]
    if above:
        raise LatticeError(f"level {above[0]:g} is at or above the grid top "
                           f"{grid_top:g}: choose levels below the grid top")
    return pmf, top


def constants_pipeline(model: IncrementModel, h: float = 0.01, gamma: float | None = None,
                       levels=()) -> tuple[LatticePMF, MaxLaw, AsymptoticConstants]:
    pmf, top = oracle_grid(model, h, gamma, levels)
    law = lindley_fixed_point(pmf, top=top)
    return pmf, law, constants(model, law, gamma=gamma)


def increment_tails(model: IncrementModel, xs) -> list[float]:
    """P(xi > x) at each level, the denominators of the tail ratios; refuses
    a level the increment never exceeds, before any oracle or Monte Carlo
    work runs."""
    tails = [float(model.tail(x)) for x in xs]
    for x, base in zip(xs, tails):
        if base <= 0.0:
            raise ModelError(
                f"P(xi > {x:g}) = 0 for {model.spec_string()}: no tail ratio at that level"
            )
    return tails


def bigjump_dp_ratio(
    pmf: LatticePMF,
    law: MaxLaw,
    x: float,
    h_choice: str,
    gamma: float,
) -> float:
    """Conditional single-jump ratio measured on the lattice: the flow of
    first exceedances of x - h(x) from below the h(x) band, each landing
    weighted by the probability the remaining walk carries it past x.  The
    flow stops on the certificate of the twist ``gamma``.  Refuses a level
    whose P(M > x) is 0 on the grid, and a flow that ran out of steps with
    landings above ``BIGJUMP_REL_TOL`` of P(M > x) still to come."""
    p_x = law.tail(x)
    if p_x <= 0.0:
        raise LatticeError(
            f"P(M > {x:g}) = 0 on the oracle grid (top {law.top:g}): the lattice "
            f"maximum never exceeds {x:g}, so no single-jump ratio exists at that level"
        )
    a = band_h(h_choice, x)
    flow = bigjump_flow(pmf, barrier=a, jump_level=x - a, gamma=gamma, level=x)
    if flow.remainder > BIGJUMP_REL_TOL * p_x:
        raise LatticeError(
            f"the single-jump flow at x = {x:g} used all n_max = {flow.n_run} steps with "
            f"landings up to {flow.remainder:.3g} still to come: {flow.remainder / p_x:.3g} "
            f"of P(M > x), above the {BIGJUMP_REL_TOL:g} the ratio allows"
        )
    cells = flow.landing_k0 + np.arange(flow.landing_mass.size)
    weights = law.tail(x - cells * pmf.h)
    numerator = float((flow.landing_mass * weights).sum()) + flow.beyond
    return numerator / p_x


# --- commands ----------------------------------------------------------------------

def cmd_verify_class(args):
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    ks = _floats(args.k)
    for x in xs if model.in_class else ():  # a lattice family has no middle band to split
        _as_usage(band_h, args.h_choice, x)
    lg = lgamma_diagnostic(model, ks, xs)
    sg = sgamma_diagnostic(model, args.h_choice, xs)
    payload = {"shifted_tail_ratio": _record(lg), "middle_band_mass": _record(sg)}
    if lg.not_in_class:
        print("not_in_class: lattice family, smooth-tail diagnostics skipped",
              file=sys.stderr)
    return payload, None, lg.not_in_class or (lg.passed and sg.passed)


def cmd_constants(args):
    model = _as_usage(parse_model, args.model)
    pmf, law, consts = constants_pipeline(model, h=args.step, gamma=args.gamma)
    payload = {
        "constants": _record(consts),
        "oracle": {
            "top": law.top,
            "iterations": law.n_iter,
            "stop_bound": law.stop_bound,
            "trunc_bound": law.trunc_bound,
            "overflow": law.overflow,
            "mass_at_zero": float(law.probs[0]),
        },
    }
    if float(law.probs[0]) > 1.0 - 1e-12:
        payload["oracle"]["notice"] = "maximum is identically 0"
    return payload, None, True


def _report(args, measured_rows, predicted: float, top: float, extra_payload: dict,
            provenance: str = "oracle", gate: str = "strict"):
    report = convergence_report(predicted, measured_rows, tol=args.tol,
                                provenance=provenance, top=top)
    if gate == "strict":
        passed = report.verdict == "converging"
    else:
        passed = report.loose_trend and report.final_dev <= args.tol
    return {"report": _record(report), **extra_payload}, _report_rows(report), passed


def _check_mode(args) -> None:
    """Refuse an option the chosen ``--measured`` mode does not read, drop
    the unread ones from ``args`` and resolve the defaults of the others."""
    for dest, mode in MODE_ONLY.get(args.command, {}).items():
        value = getattr(args, dest)
        if args.measured == mode:
            setattr(args, dest, DEFAULTS[dest] if value is None else value)
        elif value is None:
            delattr(args, dest)
        else:
            raise UsageError(f"{args.command}: --{dest.replace('_', '-')} is read only "
                             f"by --measured {mode}")


def _mc_config(args) -> SimConfig:
    return SimConfig(n_paths=args.n_paths, seed=args.seed, n_shards=args.shards,
                     trace=getattr(args, "trace", False))


def cmd_tail_report(args):
    oracle = args.measured == "oracle"
    if not oracle and args.trace and args.out == "-":  # rows built only to be dropped
        raise UsageError("tail-report: --trace writes its per-path rows to --out DIR")
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    _as_usage(check_levels, xs)
    trace_rows: list[dict] = []
    bases = increment_tails(model, xs)
    # Monte Carlo levels never read the lattice law
    _, law, consts = constants_pipeline(model, h=args.step, gamma=args.gamma,
                                        levels=xs if oracle else ())
    if oracle:
        rows = [(x, law.tail(x) / b) for x, b in zip(xs, bases)]
    else:
        cfg = _mc_config(args)
        rows = []
        for x, b in zip(xs, bases):
            rep = estimate_tail_crude(model, x, cfg, grid=xs)  # the levels share one walk
            rows.append((x, rep.estimate / b))
            if rep.estimate == 0.0:  # a row with dev 1, not a refusal
                print(f"tail-report: no path of {cfg.n_paths} exceeded x = {x:g}; "
                      "raise --n-paths for more hits", file=sys.stderr)
            if rep.trace is not None:
                trace_rows.extend({"x": x, "path": i, **t} for i, t in enumerate(rep.trace))
    result = _report(args, rows, consts.constant.value, law.top,
                     {"constants": _record(consts)}, provenance=args.measured)
    if trace_rows:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "tail_report_trace.csv").write_bytes(_csv_bytes(trace_rows))
    return result


def cmd_local_report(args):
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    _as_usage(check_levels, xs)
    bases = increment_tails(model, xs)
    # a finite window reads the law up to its end
    ends = [x + args.t for x in xs] if math.isfinite(args.t) else xs
    _, law, consts = constants_pipeline(model, h=args.step, gamma=args.gamma, levels=ends)
    pred = local_constant(consts, args.t)
    rows = [(x, law.window(x, args.t) / b) for x, b in zip(xs, bases)]
    # windowed deviations legitimately change sign on the way in, so this
    # report gates on the loose trend rather than strict monotonicity
    return _report(args, rows, pred.value, law.top,
                   {"constants": _record(consts), "window": _record(args.t)},
                   gate="loose")


def cmd_finite(args):
    model = _as_usage(parse_model, args.model)
    Ns = _ints(args.N)
    if min(Ns) < 0:  # it would index another horizon's law
        raise UsageError(f"horizons must be >= 0, got {min(Ns)}")
    xs = _floats(args.x)
    bases = increment_tails(model, xs)
    pmf, top = oracle_grid(model, args.step, args.gamma, xs)
    # one reflected recursion gives the fixed point, the laws at Ns and the
    # boundary terms of every horizon moment; no other law is kept
    law, laws, boundary = horizon_pass(pmf, top, Ns, model.twist(args.gamma))
    consts = constants(model, law, gamma=args.gamma)
    rows = []
    for N, fc in zip(Ns, finite_constant(consts, Ns, boundary)):
        entry = {"N": N, "predicted": fc.value, "predicted_lo": fc.lo, "predicted_hi": fc.hi}
        for x, b in zip(xs, bases):
            entry[f"ratio_at_{x:g}"] = laws[N].tail(x) / b
        rows.append(entry)
    return {"constant_limit": _record(consts), "rows": rows}, rows, True


def cmd_stopped(args):
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    _as_usage(check_levels, xs)
    bases = increment_tails(model, xs)
    _, law, consts = constants_pipeline(model, h=args.step, gamma=args.gamma, levels=xs)
    stopped = stopped_max_sigma1(law, xs, consts.gamma)
    pred = stopped_constant(consts, stopped)
    rows = [
        (float(x), float(t) / b)
        for x, t, b in zip(stopped.max_tail_x, stopped.max_tail, bases)
    ]
    return _report(
        args, rows, pred.value, law.top,
        {
            "constants": _record(consts),
            "stopped_constant": _record(pred),
            "overshoot_moment": stopped.chi.mgf(-consts.gamma),
            "residual": stopped.residual,
        },
        gate="loose",
    )


def cmd_bigjump(args):
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    bands = [_as_usage(band_h, args.h_choice, x) for x in xs]
    if args.measured == "oracle":
        # span must cover jumps past x - h(x) at the top level, with decay margin
        x_top, h_top = max(zip(xs, bands))
        pmf, top = oracle_grid(model, args.step, args.gamma, xs, reach=(x_top - h_top, 22.0))
        law = lindley_fixed_point(pmf, top=top)
        gamma = model.twist(args.gamma)
        rows = [
            {
                "x": x,
                "ratio": bigjump_dp_ratio(pmf, law, x, args.h_choice, gamma),
                "stderr": 0.0,
            }
            for x in map(float, xs)
        ]
    else:
        cfg = _mc_config(args)
        rows = []
        for x in xs:
            rep = bigjump_conditional_ratio(model, float(x), args.h_choice, cfg)
            rows.append(
                {
                    "x": float(x),
                    "ratio": None if math.isnan(rep.estimate) else rep.estimate,
                    "stderr": rep.stderr,
                }
            )
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    passed = bool(ratios) and ratios[-1] >= 0.9 and (increasing or args.measured == "mc")
    return {"rows": rows}, rows, passed


def cmd_renewal_diag(args):
    model = _as_usage(parse_model, args.model)
    table = renewal_diagnostics(model, _floats(args.R), _mc_config(args), gamma=args.gamma)
    return {"table": {"method": "renewal_diagnostics", **_record(table)}}, table.rows, True


def cmd_convolution_check(args):
    model = _as_usage(parse_model, args.model)
    xs = _floats(args.x)
    ns = _ints(args.n)
    if min(ns) < 1:  # no law of a sum of fewer than one increment
        raise UsageError(f"summand counts must be >= 1, got {min(ns)}")
    _as_usage(check_levels, xs)
    bases = increment_tails(model, xs)
    pmf, _ = oracle_grid(model, args.step, args.gamma, reach=(max(xs), 15.0))
    _check_cells(max(ns) * (pmf.probs.size - 1) + 1, f"for the law of S_{max(ns)}", pmf.h)
    # the law of S_n from that of S_{n-1}; only the sums at ns are kept
    law, laws = pmf, {1: pmf}
    for n in range(2, max(ns) + 1):
        law = convolve(law, pmf)
        if n in ns:
            laws[n] = law
    rows = []
    verdicts = []
    for n in ns:
        pred = convolution_prediction(model, n, gamma=args.gamma)
        measured = [(x, laws[n].tail(x) / b) for x, b in zip(xs, bases)]
        rep = convergence_report(pred, measured, tol=args.tol, provenance="oracle",
                                 top=float(laws[n].centers()[-1]))
        verdicts.append(rep.verdict == "converging")
        rows.extend({"n": n, **r} for r in _report_rows(rep))
    return {"rows": rows}, rows, all(verdicts)


# --- wiring -----------------------------------------------------------------------

def _at_least(lo: int):
    """argparse type: an integer >= ``lo``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    return integer


def _positive(top: float, what: str):
    """argparse type: a float in (0, ``top``]; ``what`` states the rule."""
    def value(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not 0.0 < v <= top:
            raise argparse.ArgumentTypeError(f"{what}, got {text}")
        return v
    return value


def _command(sub, name: str, func, summary: str, *, step: bool = True, gamma: bool = True,
             tol: bool = False, mc: bool = False) -> argparse.ArgumentParser:
    """Subcommand ``name`` with ``--model``, ``--out`` and the option groups it reads."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--model", required=True, help="model spec string")
    p.add_argument("--out", default="-", help="output directory, or - for stdout")
    if step:
        p.add_argument("--step", type=float, default=DEFAULTS["step"], help="grid step")
    if gamma:
        p.add_argument("--gamma", type=_positive(sys.float_info.max, "must be finite and > 0"),
                       help="twist rate override (required for lattice families)")
    if tol:
        p.add_argument("--tol", type=float, default=0.1, help="final-deviation tolerance")
    if mc:
        p.add_argument("--seed", type=_at_least(0), default=DEFAULTS["seed"])
        p.add_argument("--n-paths", type=_at_least(1), default=DEFAULTS["n_paths"], dest="n_paths")
        p.add_argument("--shards", type=_at_least(1), default=DEFAULTS["shards"])
    p.set_defaults(**dict.fromkeys(MODE_ONLY.get(name, ()), None))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walkmax", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "verify-class", cmd_verify_class, "tail-shape class diagnostics",
                 step=False, gamma=False)
    p.add_argument("--x", default="20,40,80")
    p.add_argument("--k", default="0.5,1,2")
    p.add_argument("--h-choice", choices=BAND_RULES, default="quarter")

    _command(sub, "constants", cmd_constants, "oracle tail constants")

    p = _command(sub, "tail-report", cmd_tail_report,
                 "maximum-tail ratio vs predicted constant", tol=True, mc=True)
    p.add_argument("--x", required=True)
    p.add_argument("--measured", choices=["oracle", "mc"], default="oracle")
    p.add_argument("--trace", action="store_true", default=None,
                   help="debug: write per-path outcome rows next to the report")

    p = _command(sub, "local-report", cmd_local_report,
                 "windowed tail vs predicted window constant", tol=True)
    p.add_argument("--x", required=True)
    p.add_argument("--t", default=1.0,
                   type=_positive(math.inf, "window must be > 0 (inf for the whole tail)"))

    p = _command(sub, "finite", cmd_finite, "finite-horizon constants and ratios")
    p.add_argument("--N", required=True)
    p.add_argument("--x", default="10")

    p = _command(sub, "stopped", cmd_stopped, "stopped-walk tail vs predicted constant",
                 tol=True)
    p.add_argument("--x", required=True)

    p = _command(sub, "bigjump", cmd_bigjump, "single-jump conditional ratio", mc=True)
    p.add_argument("--x", default="10,20,40")
    p.add_argument("--h-choice", choices=BAND_RULES, default="quarter")
    p.add_argument("--measured", choices=["oracle", "mc"], default="oracle")

    p = _command(sub, "renewal-diag", cmd_renewal_diag,
                 "drifted-barrier crossing diagnostics", step=False, mc=True)
    p.add_argument("--R", default="2,4,8,16")

    p = _command(sub, "convolution-check", cmd_convolution_check,
                 "n-fold sum tails vs prediction", tol=True)
    p.add_argument("--x", default="12,16,20,24")
    p.add_argument("--n", default="2,3")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    t0 = time.monotonic()
    try:
        _check_mode(args)
        payload, csv_rows, passed = args.func(args)
    except UsageError as exc:
        return _fail(f"walkmax: {exc}", EXIT_USAGE)
    except (ModelError, LatticeError, EstimatorError, QuadratureError) as exc:
        code = _fail(f"{args.command}: {exc}", EXIT_REFUSED)
    else:
        _emit(args.out, args.command.replace("-", "_"), {"manifest": _manifest(args), **payload},
              csv_rows)
        code = EXIT_OK if passed else EXIT_REFUSED
    print(f"walkmax {args.command}: {1000 * (time.monotonic() - t0):.0f} ms",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
