"""Correctness checks on walkmax payloads.

They test properties of the model, not today's numbers: brackets enclose
their values, horizon constants grow with N towards C, single-jump ratios
are probabilities, Monte Carlo agrees with the lattice oracle within its
stated error, and no path is left undecided.

An operation *completes* when its process exits 0, or exits 2 with a
well-formed payload that records a verdict, and the payload passes every
check.  Anything else (exit 1, a traceback, exit 2 without a payload, a
failed check) is a failure.
"""

from __future__ import annotations

import json
import math

STDERRS = 4.0
# estimate_tail_crude certifies bias_bound <= this share of P(xi > x); the
# payload does not carry bias_bound, so the check allows its certified limit
CRUDE_BIAS_FRACTION = 1e-3


def polyexp_tail(spec: str, x: float) -> float:
    """P(xi > x) for ``polyexp:gamma=G,beta=B,shift=D``, in closed form."""
    family, _, body = spec.partition(":")
    if family != "polyexp":
        raise ValueError(f"not a polyexp spec: {spec}")
    p = {k: float(v) for k, v in (kv.split("=") for kv in body.split(","))}
    z = x + p.get("shift", 0.0)
    if z < 0:
        return 1.0
    return math.exp(-p["beta"] * math.log1p(z) - p["gamma"] * z)


def _bracket(label: str, value: float, lo: float, hi: float) -> list[str]:
    return [] if lo <= value <= hi else [f"{label}: {value!r} not in [{lo!r}, {hi!r}]"]


def _constants(c: dict) -> list[str]:
    k = c["constant"]
    return (_bracket("C bracket", k["value"], k["lo"], k["hi"])
            + _bracket("C a-priori enclosure", k["value"], c["c_lo"], c["c_hi"]))


def _finite(payload: dict) -> list[str]:
    out = _constants(payload["constant_limit"])
    c_hi = payload["constant_limit"]["constant"]["hi"]
    rows = sorted(payload["rows"], key=lambda r: r["N"])
    prev = -math.inf
    for r in rows:
        v = r["predicted"]
        out += _bracket(f"finite N={r['N']} bracket", v, r["predicted_lo"], r["predicted_hi"])
        if v < prev:
            out.append(f"finite: predicted decreases at N={r['N']}")
        if v > c_hi:
            out.append(f"finite: predicted {v!r} at N={r['N']} exceeds C.hi {c_hi!r}")
        prev = v
    return out


def _stopped(payload: dict) -> list[str]:
    s = payload["stopped_constant"]
    out = _constants(payload["constants"]) + _bracket(
        "stopped constant bracket", s["value"], s["lo"], s["hi"])
    if not 0 < s["value"] <= payload["constants"]["constant"]["hi"]:
        out.append(f"stopped constant {s['value']!r} not in (0, C.hi]")
    return out


def _bigjump(payload: dict) -> list[str]:
    return [f"bigjump ratio {r['ratio']!r} at x={r['x']} not in (0, 1]"
            for r in payload["rows"] if r["ratio"] is None or not 0 < r["ratio"] <= 1]


def _tail_report(payload: dict, oracle: dict | None) -> list[str]:
    out = _constants(payload["constants"])
    if payload["report"]["provenance"] != "mc":
        return out
    if oracle is None:
        return out + ["tail-report mc: no lattice oracle to check against"]
    params = payload["manifest"]["params"]
    n = params["n_paths"]
    for row in payload["report"]["rows"]:
        x = row["x"]
        if x not in oracle:
            out.append(f"tail-report mc: no oracle value at x={x}")
            continue
        scale = polyexp_tail(params["model"], x)
        p_mc = row["measured"] * scale
        p_oracle = oracle[x] * scale
        stderr = math.sqrt(max(p_mc * (1.0 - p_mc), 0.0) / n)
        allowed = STDERRS * stderr + CRUDE_BIAS_FRACTION * scale
        if abs(p_mc - p_oracle) > allowed:
            out.append(f"tail-report mc: P(M>{x}) = {p_mc!r}, oracle {p_oracle!r}, "
                       f"allowed {allowed!r}")
    return out


def _renewal(payload: dict) -> list[str]:
    return [f"renewal-diag: {r['undecided']} undecided paths at R={r['R']}"
            for r in payload["table"]["rows"] if r["undecided"] != 0]


def problems(payload: dict, oracle: dict | None = None) -> list[str]:
    """Every failed check of one payload (empty when it passes)."""
    command = payload["manifest"]["command"]
    if command == "constants":
        return _constants(payload["constants"])
    if command == "finite":
        return _finite(payload)
    if command == "stopped":
        return _stopped(payload)
    if command == "bigjump":
        return _bigjump(payload)
    if command == "tail-report":
        return _tail_report(payload, oracle)
    if command == "renewal-diag":
        return _renewal(payload)
    return [f"no checks for command {command!r}"]


def failure(returncode: int, stdout: bytes, stderr: bytes,
            oracle: dict | None = None) -> str | None:
    """Why one operation failed, or None when it completed."""
    if b"Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode not in (0, 2):
        return f"exit code {returncode}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"exit code {returncode} without a well-formed payload"
    try:
        if returncode == 2 and "verdict" not in payload["report"]:
            return "exit code 2 without a recorded verdict"
        found = problems(payload, oracle)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed payload: {exc!r}"
    return "; ".join(found) or None


def oracle_ratios(stdout: bytes) -> dict[float, float]:
    """x -> P(M>x)/P(xi>x) from an oracle ``tail-report`` payload."""
    return {r["x"]: r["measured"] for r in json.loads(stdout)["report"]["rows"]}
