"""Predicted tail constants and convergence bookkeeping.

For subcritical twist (twisted increment moment phg < 1) the walk-maximum
tail is asymptotically proportional to the increment tail; the constant is

    C = E exp(gamma*M) / (1 - phg),

with E exp(gamma*M) taken from the grid oracle's law of M near 0 through the
boundary identity E exp(gamma*M) (1 - phg) = E[1 - exp(gamma*(M+xi)); M+xi <= 0]
(it has no closed form in the increment law) and carried as a certified
enclosure.  The derived constants for windowed, finite-horizon, and stopped
variants are assembled here, along with the report type that compares a
prediction against measured ratios over an increasing level grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .increments import IncrementModel, ModelError
from .lattice import Bracket, LatticePMF, LatticeError, MaxLaw, StoppedLaw, exp_moment

__all__ = [
    "AsymptoticConstants",
    "ConvergenceReport",
    "constants",
    "local_constant",
    "finite_constant",
    "stopped_constant",
    "lambda_partial_sums",
    "convolution_prediction",
    "check_levels",
    "convergence_report",
]


@dataclass(frozen=True)
class AsymptoticConstants:
    """All constants predicted for a subcritical model.

    ``constant`` is C = (twisted maximum moment)/(1 - phg); ``c_lo``/``c_hi``
    are the a-priori enclosure 1/(1-phg) <= C <= 1/(1-phg)**2 that follows
    from 1 <= E exp(gamma*M) <= 1/(1-phg).
    """

    gamma: float
    phg: float
    exp_moment_m: Bracket
    constant: Bracket
    c_lo: float
    c_hi: float


def constants(
    model: IncrementModel,
    max_law: MaxLaw,
    gamma: float | None = None,
) -> AsymptoticConstants:
    """Assemble the predicted constants from the oracle maximum law."""
    g, phg = model.certified_twist(gamma)
    em = exp_moment(max_law, g, phg)
    c = em.scale(1.0 / (1.0 - phg))
    c_lo = 1.0 / (1.0 - phg)
    c_hi = c_lo * c_lo
    if not (c_lo - 1e-9 <= c.value <= c_hi + 1e-9):
        raise LatticeError(
            f"constant {c.value:.6f} escapes its a-priori enclosure "
            f"[{c_lo:.6f}, {c_hi:.6f}]; the oracle law is inconsistent"
        )
    return AsymptoticConstants(
        gamma=g, phg=phg, exp_moment_m=em, constant=c, c_lo=c_lo, c_hi=c_hi
    )


def local_constant(consts: AsymptoticConstants, t: float) -> Bracket:
    """Predicted window constant C * (1 - exp(-gamma*t)) for P(M in (x, x+t])."""
    if not t > 0:
        raise ModelError(f"window width must be positive, got {t}")
    factor = 1.0 - math.exp(-consts.gamma * t) if math.isfinite(t) else 1.0
    return consts.constant.scale(factor)


def finite_constant(consts: AsymptoticConstants, Ns: Sequence[int],
                    boundary: np.ndarray) -> list[Bracket]:
    """Predicted horizon-N constants sum_{n=1}^{N} phg^{n-1} * E exp(gamma*M_{N-n}),
    one per N in ``Ns`` (0 for N = 0).

    The horizon moments m_j = E exp(gamma*M_j) come from the one-step form
    m_0 = 1, m_{j+1} = phg * m_j + B(M_j) of M_{j+1} =d (M_j + xi)^+, with B
    the ``boundary_term``; row j of ``boundary`` is B(M_j) as (value, lo, hi),
    as ``horizon_pass`` returns it, and rows 0..max(Ns)-2 are read.  One
    moment recursion serves every N.
    """
    if min(Ns, default=0) < 0:
        raise ModelError(f"need N >= 0, got {min(Ns)}")
    top = max(Ns, default=0)
    if len(boundary) < top - 1:
        raise ModelError(f"need boundary terms for horizons 0..{top-2}, got {len(boundary)}")
    moments = np.ones((top, 3))
    for j in range(1, top):
        moments[j] = moments[j - 1] * consts.phg + boundary[j - 1]
    out = []
    for N in Ns:
        fc = np.zeros(3)
        for n in range(1, N + 1):
            fc += consts.phg ** (n - 1) * moments[N - n]
        out.append(Bracket(*map(float, fc)))
    return out


def stopped_constant(consts: AsymptoticConstants, stopped: StoppedLaw) -> Bracket:
    """Predicted stopped-walk constant (1 - E exp(-gamma*overshoot)) * C.

    The overshoot law's ``residual`` bounds its error in E exp(-gamma*chi),
    whose integrand lies in [0, 1], on either side; the overshoot is strictly
    positive by construction.
    """
    chi = stopped.chi
    if float(chi.probs[1:].sum()) <= 0.0:
        raise ModelError("degenerate overshoot law: no mass above 0")
    e = chi.mgf(-consts.gamma)
    c = consts.constant
    return Bracket(
        (1.0 - e) * c.value,
        (1.0 - min(e + stopped.residual, 1.0)) * c.lo,
        (1.0 - max(e - stopped.residual, 0.0)) * c.hi,
    )


def lambda_partial_sums(
    consts: AsymptoticConstants,
    N: int,
    a_grid: Sequence[float],
    step_laws: Sequence[LatticePMF],
    max_law: MaxLaw,
) -> list[dict]:
    """Partial sums over n <= N of
    lambda(n, a) = E[exp(gamma*S_{n-1}); S_{n-1} <= a] - P(M > a) * exp(gamma*a).

    ``step_laws[j]`` must be the law of S_j (so index 0 is the point mass at
    0).  Each partial sum approaches sum phg^{n-1} as ``a`` grows and
    1/(1 - phg) as both grow.
    """
    if len(step_laws) < N:
        raise ModelError(f"need step laws for S_0..S_{N-1}, got {len(step_laws)}")
    g = consts.gamma
    span_top = min(
        (
            (law.k0 + law.probs.size - 1) * law.h
            for law in step_laws[:N]
            if law.probs.size > 1
        ),
        default=math.inf,
    )
    rows = []
    for a in a_grid:
        a = float(a)
        if a > span_top:
            raise ModelError(
                f"threshold {a} lies beyond the step-law span {span_top:.2f}"
            )
        penalty = max_law.tail(a) * math.exp(g * a)
        partial = 0.0
        geom = 0.0
        for n in range(1, N + 1):
            law = step_laws[n - 1]
            centers = law.centers()
            mask = centers <= a + 1e-12
            restricted = float((law.probs[mask] * np.exp(g * centers[mask])).sum())
            lam = restricted - penalty
            partial += lam
            geom += consts.phg ** (n - 1)
            rows.append(
                {
                    "n": n,
                    "a": a,
                    "lambda": lam,
                    "partial_sum": partial,
                    "geometric_sum": geom,
                }
            )
    return rows


def convolution_prediction(model: IncrementModel, n: int, gamma: float | None = None) -> float:
    """Predicted ratio n * phg**(n-1) of the tail of a sum of n independent
    copies of the increment to the increment tail."""
    if n < 1:
        raise ModelError(f"need at least one summand, got n = {n}")
    g = model.twist(gamma)
    phg = model.mgf(g)
    if not math.isfinite(phg):
        raise ModelError(f"{model.spec_string()} has infinite twisted moment")
    return n * phg ** (n - 1)


VERDICT_CONVERGING = "converging"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_DIVERGING = "diverging"


@dataclass
class ConvergenceReport:
    """Measured-vs-predicted table over an increasing level grid.

    ``verdict`` is "converging" only when the absolute relative deviations
    strictly decrease along the grid and the final one is within ``tol``;
    strictly increasing deviations give "diverging", anything else is
    "inconclusive".  ``loose_trend`` additionally records whether the final
    deviation improved on the first (useful for quantities whose deviation
    passes through zero on the way in).
    """

    predicted: float
    tol: float
    provenance: str
    rows: list[dict]
    verdict: str
    loose_trend: bool
    final_dev: float


def check_levels(xs: Sequence[float]) -> None:
    """Refuse a level grid ``convergence_report`` cannot judge: fewer than 3
    levels, or levels not strictly increasing."""
    if len(xs) < 3:
        raise ModelError(f"need at least 3 grid points, got {len(xs)}")
    if any(float(b) <= float(a) for a, b in zip(xs, xs[1:])):
        raise ModelError("level grid must be strictly increasing")


def convergence_report(
    predicted: float,
    measured: Sequence[tuple[float, float]],
    tol: float = 0.1,
    provenance: str = "oracle",
    top: float | None = None,
) -> ConvergenceReport:
    """Compare measured values against a predicted constant over a level grid.

    A measured 0 from Monte Carlo (a level no path reached) is a row with
    deviation 1, and the verdict cannot be "converging".  From the oracle it
    means the level is past the grid top ``top``, and is refused."""
    check_levels([x for x, _ in measured])
    if not all(v >= 0 for _, v in measured):
        raise ModelError("measured values must be nonnegative")
    zero = [x for x, v in measured if v == 0]
    if zero and provenance == "oracle":
        where = "" if top is None else f" (top {top:g})"
        raise LatticeError(f"oracle value at x = {zero[0]:g} is 0 on the grid{where}: "
                           "choose levels below the grid top")
    if predicted <= 0:
        raise ModelError("predicted constant must be positive")
    rows = []
    devs = []
    for x, v in measured:
        ratio = float(v) / predicted
        dev = abs(ratio - 1.0)
        rows.append(
            {"x": float(x), "measured": float(v), "ratio": ratio, "dev": dev}
        )
        devs.append(dev)
    # a deviation already at numerical zero may stay there
    strictly_down = all(b < a or b <= 1e-12 for a, b in zip(devs, devs[1:]))
    strictly_up = all(b > a for a, b in zip(devs, devs[1:]))
    if strictly_down and devs[-1] <= tol and all(v > 0 for _, v in measured):
        verdict = VERDICT_CONVERGING
    elif strictly_up:
        verdict = VERDICT_DIVERGING
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ConvergenceReport(
        predicted=predicted,
        tol=tol,
        provenance=provenance,
        rows=rows,
        verdict=verdict,
        loose_trend=devs[-1] < devs[0],
        final_dev=devs[-1],
    )
