"""Exact lattice oracle for the maximum of a negative-drift random walk.

An increment law is discretized onto a uniform grid (cell ``k`` covers
``((k-1/2)h, (k+1/2)h]``).  Every law here then comes from one primitive,
``_sweep``: it advances a sub-law on a window of cells by one convolution
with the increment pmf and reports the mass that landed above the window as
one sum.  Each oracle is a loop over that primitive:

* ``horizon_pass`` is the one reflected pass: it moves the mass below onto
  cell 0 (the recursion ``M =d (M + xi)^+``), counts the mass above the grid
  top as overflow, and stops at the fixed point (``lindley_fixed_point``) or
  the largest horizon; ``finite_horizon`` keeps every law, as a reference;
* ``_passage`` kills below a floor and above a barrier and sums the mass
  passing over an exit level, stopped on one twist certificate.  It is the
  first passage of ``bigjump_flow`` and, per level, of
  ``stopped_max_sigma1`` (floor 0, barrier and exit at the level).

Landings by cell outside a window are one convolution with the increment
pmf, formed once after the loop: the single-jump landings from the
occupation (the sum of the pre-step sub-laws), and the overshoot law below 0
from the fixed-point law of M, which by duality is the occupation of the
walk stopped at its first negative sum, up to a factor.

``exp_moment`` reads the law of M only on the cells ``0 ... -k0`` through
the boundary identity of ``M =d (M + xi)^+``, so no far-tail sum enters it.

All convolutions are direct summations: per-bin results then carry relative
(not absolute) accuracy, which deep-tail bins need.  ``_direct_conv`` runs
them as block-Toeplitz matrix products; each bin is still a sum of exactly
the same nonnegative products, only in another order, so its relative error
stays below its term count times the unit roundoff.  A sweep forms only the
bins its caller reads; an exit is one sum of nonnegative products
``sum_y V(y) Fbar(cut - y)``, so per-bin relative accuracy is unchanged.
Moments and exits are sums of elementwise products, not BLAS dot products,
whose threaded reduction made results depend on the BLAS thread count; the
block products give the same bits under one and two threads.  Every law
keeps explicit truncation bookkeeping; nothing is ever silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .increments import IncrementModel, chernoff_tail, twist_sup

__all__ = [
    "LatticeError",
    "Bracket",
    "LatticePMF",
    "MaxLaw",
    "StoppedLaw",
    "BigJumpFlow",
    "discretize",
    "convolve",
    "lindley_fixed_point",
    "finite_horizon",
    "horizon_pass",
    "stopped_max_sigma1",
    "boundary_term",
    "exp_moment",
    "bigjump_flow",
]

MASS_TOL = 1e-12
FOLD_REFUSE = 1e-6
# the reflected recursion runs the sweep count that bounds P(M != M_n) near this
FIXED_POINT_TOL = 1e-13
# ... and refuses a walk whose sweep count is larger than this
MAX_SWEEPS = 10**6
# every first passage stops once future passages are below this share of the total
BIGJUMP_REL_TOL = 1e-12
# block width of ``_direct_conv``; of 32, 48, 64 and 128, 64 ran the oracle-fine
# sweeps (step 0.005, one BLAS thread, 2-core x86_64) in the least CPU time:
# median of 7 rounds 2.65, 2.32, 2.16 and 2.30 s
CONV_BLOCK = 64
# most cells of any grid here: 10**7 cells are 80 MB per vector, and a
# larger grid is refused before anything is allocated
MAX_CELLS = 10**7


class LatticeError(RuntimeError):
    """Grid oracle refusal; carries diagnostics where useful."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class Bracket(NamedTuple):
    """A value with a certified enclosure [lo, hi]."""

    value: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def scale(self, c: float) -> "Bracket":
        """The bracket times a factor ``c >= 0``."""
        return Bracket(self.value * c, self.lo * c, self.hi * c)


def _check_cells(cells: float, where: str, h: float) -> None:
    """Refuse more than ``MAX_CELLS`` cells (or inf, or nan) ``where``."""
    if not cells <= MAX_CELLS:
        raise LatticeError(
            f"grid step {h:g} needs about {cells:.3g} cells {where}, above the "
            f"limit of {MAX_CELLS}; raise the step"
        )


def _suffix(probs: np.ndarray) -> np.ndarray:
    """Suffix sums ``s[i] = probs[i:].sum()``, with ``s[probs.size] = 0``."""
    return np.r_[np.cumsum(probs[::-1])[::-1], 0.0]


def _interp_tail(probs: np.ndarray, k0: int, h: float, x):
    """P(law > x) at a level or an array of levels, treating each cell's mass
    as uniform on the cell."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise LatticeError("tail level is nan")
    # a level past either end reads the same tail as the end, and stays finite
    x = np.clip(x, (k0 - 1) * h, (k0 + probs.size + 1) * h)
    # cell containing x: (b-1/2)h < x <= (b+1/2)h
    b = np.ceil(x / h - 0.5 - 1e-9)
    i = (b - k0).astype(int)
    inside = np.clip(i, 0, probs.size - 1)
    s = _suffix(probs)
    t = s[inside + 1] + probs[inside] * (((b + 0.5) * h - x) / h)
    t = np.where(i < 0, s[0], np.where(i < probs.size, t, 0.0))
    return t if t.ndim else float(t)


@dataclass
class LatticePMF:
    """Probability mass vector on the uniform grid ``{k*h : k0 <= k}``, summing to 1.

    ``probs`` is made read-only here, and nothing assigns ``h`` or ``k0``
    after construction, so the cached ``chernoff_alpha_sup`` cannot go stale.
    """

    h: float
    k0: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if not (self.h > 0 and math.isfinite(self.h)):
            raise LatticeError(f"grid step must be positive and finite, got {self.h}")
        if self.probs.ndim != 1 or self.probs.size < 1:
            raise LatticeError("probs must be a nonempty 1-D vector")
        if np.any(self.probs < -1e-15):
            raise LatticeError("probs must be nonnegative")
        self.probs = np.maximum(self.probs, 0.0)
        total = float(self.probs.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise LatticeError(f"probs must sum to 1 within {MASS_TOL:g}, got {total!r}")
        self.probs.flags.writeable = False

    def centers(self) -> np.ndarray:
        return (self.k0 + np.arange(self.probs.size)) * self.h

    def mean(self) -> float:
        return float((self.centers() * self.probs).sum())

    def mgf(self, alpha: float) -> float:
        """E exp(alpha * X) for the lattice law; inf once exp(alpha * X) on the
        outermost cell overflows, which only overstates the moment."""
        logs = alpha * self.centers()
        m = logs.max()
        try:
            return float(math.exp(m) * (np.exp(logs - m) * self.probs).sum())
        except OverflowError:
            return math.inf

    def tail(self, x):
        """P(law > x) at a level or an array of levels."""
        return _interp_tail(self.probs, self.k0, self.h, x)

    @cached_property
    def chernoff_alpha_sup(self) -> float:
        """Largest twist alpha with mgf(alpha) < 1 (0 if none exists)."""
        return twist_sup(self.mgf, self.mean(), self.centers()[-1])

    def chernoff_tail_bound(self, t: float) -> float:
        """min over alpha of exp(-alpha t)/(1 - mgf(alpha)): a certified bound
        on P(sup_n S_n > t) for the walk with these lattice increments."""
        return chernoff_tail(self.mgf, self.chernoff_alpha_sup, t)


def discretize(
    model: IncrementModel,
    h: float,
    span: tuple[float, float] | None = None,
) -> LatticePMF:
    """Bin the increment law: probs[k] = F((k+1/2)h) - F((k-1/2)h).

    End bins absorb all mass beyond the span; more than ``FOLD_REFUSE`` is refused.
    """
    if not (h > 0 and math.isfinite(h)):
        raise LatticeError(f"grid step must be positive and finite, got {h}")
    if span is None:
        span = model.default_span()
    lo, hi = span
    if lo > hi:
        raise LatticeError(f"empty span {span}")
    cells = math.inf  # a step so fine that an end cell index overflows
    if math.isfinite(lo / h) and math.isfinite(hi / h):
        k_lo, k_hi = math.floor(lo / h), math.ceil(hi / h)
        cells = k_hi - k_lo + 1
    _check_cells(cells, f"on the span {span}", h)
    edges = (np.arange(k_lo, k_hi + 2) - 0.5) * h
    probs = np.maximum(model.cell_masses(edges), 0.0)
    below = float(model.cdf((k_lo - 0.5) * h))
    above = float(model.tail((k_hi + 0.5) * h))
    folded = below + above
    if folded > FOLD_REFUSE:
        raise LatticeError(
            f"span {span} folds mass {folded:.3e} > {FOLD_REFUSE:g}; widen the span"
        )
    probs[0] += below
    probs[-1] += above
    # absorb float residue of the binning itself into the largest bin
    probs[int(np.argmax(probs))] += 1.0 - probs.sum()
    return LatticePMF(h=h, k0=k_lo, probs=probs)


def _direct_conv(a: np.ndarray, b: np.ndarray,
                 window: tuple[int, int] | None = None) -> np.ndarray:
    """Direct convolution of two nonnegative vectors, as ``np.convolve(a, b)``,
    run as a block-Toeplitz matrix product.

    The longer vector is cut into rows of ``B`` cells, and output block row
    ``i`` is the sum over block diagonals ``d`` of row ``i - d`` times the
    B x B Toeplitz block ``T_d[s, r] = short[d*B + r - s]``.  Every output bin
    is still the sum of exactly the products a direct summation forms, only
    in another order, so each bin of nonnegative inputs keeps a relative
    error of at most its term count times the unit roundoff.
    Only block rows meeting ``window`` (half-open bins; None is all) are
    formed, the rest read 0; all-zero input blocks are skipped (they add exact
    zeros), so a sweep growing out of a point mass pays only for its support.
    """
    n_out = a.size + b.size - 1
    if a.size < b.size:
        a, b = b, a
    B = min(CONV_BLOCK, b.size)
    rows = -(-a.size // B)
    diagonals = (b.size - 2) // B + 2
    out = np.zeros((rows + diagonals, B))
    nz_a, nz_b = np.flatnonzero(a), np.flatnonzero(b)
    if nz_a.size == 0 or nz_b.size == 0:
        return out.ravel()[:n_out]
    lo, hi = (0, n_out) if window is None else window
    r0, r1 = lo // B, -(-min(hi, n_out) // B)  # the block rows formed
    A = np.zeros(rows * B)
    A[: a.size] = a
    A = A.reshape(rows, B)
    padded = np.zeros((diagonals + 1) * B)
    padded[B - 1 : B - 1 + b.size] = b
    windows = sliding_window_view(padded, B)  # windows[m, t] = padded[m + t]
    a_lo, a_hi = int(nz_a[0]) // B, int(nz_a[-1]) // B + 1  # the rows of A that are not all 0
    for d in range(int(nz_b[0]) // B, -(-int(nz_b[-1]) // B) + 1):
        o0, o1 = max(r0, a_lo + d), min(r1, a_hi + d)
        if o0 < o1:
            T = windows[d * B : d * B + B][::-1].copy()
            out[o0:o1] += A[o0 - d : o1 - d] @ T
    return out.ravel()[:n_out]


def convolve(a: LatticePMF, b: LatticePMF) -> LatticePMF:
    """Distribution of the sum of independent lattice variables, by direct
    summation (per-bin results keep relative accuracy, which deep-tail work
    needs)."""
    if a.h != b.h:
        raise LatticeError(f"grid step mismatch: {a.h} vs {b.h}")
    return LatticePMF(h=a.h, k0=a.k0 + b.k0, probs=_direct_conv(a.probs, b.probs))


def _exit_weights(pmf: LatticePMF, size: int, cut: int) -> np.ndarray:
    """Weights ``w_j = P(j + idx >= cut)``, ``j < size``, for ``idx`` the index
    into ``pmf.probs``: a sub-law ``V`` sends ``(V * w).sum()`` to convolution
    bins ``cut`` and above."""
    tail = _suffix(pmf.probs)
    return tail[np.clip(cut - np.arange(size), 0, tail.size - 1)]


def _sweep(V: np.ndarray, pmf: LatticePMF, reflect: bool = False, exit_at: int | None = None):
    """Advance the sub-law ``V`` on a window of cells, one increment per step.

    Yields ``(V, up)`` per step: the new sub-law on the window and, as one
    sum, the mass landing at window index ``exit_at`` (default: the window's
    size) or above.  The mass below the window leaves, or with ``reflect``
    moves onto its first cell.  No other bin is formed.  Each yielded ``V``
    is a fresh read-only array, so callers may keep it.
    """
    nneg = -pmf.k0  # index of the window's first cell in the convolution
    lo = 0 if reflect else nneg  # first bin formed
    weights = _exit_weights(pmf, V.size, nneg + (V.size if exit_at is None else exit_at))
    while True:
        up = float((V * weights).sum())
        W = _direct_conv(V, pmf.probs, (lo, nneg + V.size))
        body = W[nneg : nneg + V.size]
        V = np.zeros(V.size)  # no mass above 0 leaves ``body`` short
        V[: body.size] = body
        if reflect:
            V[0] = W[: nneg + 1].sum()
        V.flags.writeable = False
        yield V, up


@dataclass
class MaxLaw:
    """Law of a walk maximum on ``{0, h, 2h, ...}`` up to ``top``.

    ``overflow`` is the mass actually lost above the grid during the
    recursion (the only mass deficit — the vector plus ``overflow`` accounts
    for exactly 1).  ``stop_bound`` certifies P(M != M_n) for a fixed point
    stopped after ``n_iter`` sweeps; a horizon law is the law of its own M_n,
    and carries 0.
    """

    h: float
    probs: np.ndarray
    increment: LatticePMF
    overflow: float = 0.0
    n_iter: int = 0
    stop_bound: float = 0.0

    @property
    def top(self) -> float:
        return (len(self.probs) - 1) * self.h

    @cached_property
    def trunc_bound(self) -> float:
        """Certified bound on P(max > top), from the increment's twist scan."""
        return self.increment.chernoff_tail_bound(self.top)

    def tail(self, x):
        """P(max > x) at a level or an array of levels; excludes overflow mass.

        Bin 0 is the reflection atom at exactly 0 (not cell-smeared mass), so
        any x >= 0 excludes it entirely; higher bins interpolate linearly
        within their cells.
        """
        x = np.asarray(x, dtype=float)
        t = np.where(x < 0, self.probs.sum(), _interp_tail(self.probs[1:], 1, self.h, x))
        return t if t.ndim else float(t)

    def window(self, x: float, t: float) -> float:
        """P(max in (x, x+t]); an infinite ``t`` gives P(max > x)."""
        if not t > 0:
            raise LatticeError(f"window width must be positive, got {t}")
        if math.isinf(t):
            return self.tail(x)
        return self.tail(x) - self.tail(x + t)


def _reflected(pmf: LatticePMF, top: float):
    """Laws of M_0 = 0, M_1, M_2, ... on cells [0, top/h], each with the
    overflow lost above the top so far (it never returns, so its effect
    anywhere is bounded by the accumulated amount).  Laws are not kept, so a
    caller that holds two at a time stays that small.
    """
    _check_cells(top / pmf.h + 1, f"up to the grid top {top:g}", pmf.h)
    K = int(round(top / pmf.h))
    if K < 1:
        raise LatticeError(f"top {top} is below one grid step")
    if pmf.k0 >= 0:
        raise LatticeError("increment law has no mass below 0; walk cannot reflect")
    V, overflow = np.eye(1, K + 1)[0], 0.0  # M_0: point mass at cell 0
    V.flags.writeable = False
    yield V, overflow
    for n, (V, up) in enumerate(_sweep(V, pmf, reflect=True), 1):
        overflow += up
        if overflow > 1e-3:
            # a sound grid loses ~1e-30 per sweep; this is a sizing mistake
            raise LatticeError(
                f"grid top {top} far too small: overflow {overflow:.3e} "
                f"after {n} iterations",
                residual=overflow,
            )
        yield V, overflow


def lindley_fixed_point(pmf: LatticePMF, top: float) -> MaxLaw:
    """Law of the all-time maximum M = sup_n S_n on the cells up to the grid
    top ``top``: the fixed point of ``horizon_pass``, with its ``stop_bound``."""
    return horizon_pass(pmf, top)[0]


def finite_horizon(pmf: LatticePMF, N: int, top: float) -> list[MaxLaw]:
    """Laws of M_0, ..., M_N (M_0 identically 0) of ``horizon_pass``'s recursion,
    every one kept, on the cells up to the grid top ``top``; each is read-only."""
    if N < 0:
        raise LatticeError(f"horizon must be >= 0, got {N}")
    return [MaxLaw(h=pmf.h, probs=V, increment=pmf, overflow=leaked, n_iter=n)
            for n, (V, leaked) in enumerate(islice(_reflected(pmf, top), N + 1))]


def horizon_pass(pmf: LatticePMF, top: float, horizons: Sequence[int] = (),
                 gamma: float | None = None) -> tuple[MaxLaw, dict[int, MaxLaw], np.ndarray]:
    """One reflected recursion for the fixed point and the horizon laws.

    Each iterate is exactly the law of the n-step maximum M_n.  M_n differs
    from M only if some later partial sum is above 0, so P(M != M_n) <=
    sum_{m>n} phi(alpha)^m = phi(alpha)^{n+1}/(1 - phi(alpha)) for any twist
    alpha with phi(alpha) < 1.  The fixed point is M_n at the count n that
    brings phi(alpha)^n below ``FIXED_POINT_TOL`` at alpha = 0.75 alpha_sup,
    and carries that bound as ``stop_bound``.

    Runs to the larger of n and max(``horizons``), and returns the fixed
    point, the laws M_N for N in ``horizons`` by N, and ``boundary_term(M_n,
    gamma)`` for n < max(horizons) as rows (value, lo, hi).  Every other law
    is dropped after its sweep, so memory is one law per horizon asked for
    and three floats per horizon up to the largest, where ``finite_horizon``
    keeps every law.  A count or a horizon above ``MAX_SWEEPS``, a negative
    horizon and a horizon without a twist are refused before the first sweep.
    """
    if pmf.mean() >= 0:
        raise LatticeError(f"fixed point needs a negative mean, got {pmf.mean():.6g}")
    a_sup = pmf.chernoff_alpha_sup  # inf when no mass lies above 0
    phi = pmf.mgf(0.75 * a_sup if math.isfinite(a_sup) else 1.0)
    # a phi below the tolerance settles in one sweep
    sweeps = math.ceil(math.log(FIXED_POINT_TOL) / math.log(max(phi, FIXED_POINT_TOL)))
    if sweeps > MAX_SWEEPS:
        raise LatticeError(
            f"phi = {phi!r} at the certifying twist bounds the fixed point only after "
            f"{sweeps:.3g} sweeps, more than {MAX_SWEEPS:.0e}: the walk is too near criticality"
        )
    if min(horizons, default=0) < 0:
        raise LatticeError(f"horizon must be >= 0, got {min(horizons)}")
    n_terms = max(horizons, default=0)
    if n_terms > MAX_SWEEPS:
        raise LatticeError(f"horizon {n_terms} needs as many sweeps, more than {MAX_SWEEPS:.0e}")
    boundary, kept = np.empty((n_terms, 3)), {}
    for n, (V, overflow) in enumerate(islice(_reflected(pmf, top), max(n_terms, sweeps) + 1)):
        law = MaxLaw(h=pmf.h, probs=V, increment=pmf, overflow=overflow, n_iter=n)
        if n < n_terms:
            boundary[n] = boundary_term(law, gamma)
        if n in horizons:
            kept[n] = law
        if n == sweeps:
            fixed = replace(law, stop_bound=phi ** (sweeps + 1) / (1.0 - phi))
    return fixed, kept, boundary


@dataclass
class StoppedLaw:
    """Joint output of the first-negative-sum stopping analysis.

    ``chi`` is the law of the overshoot below 0 (absorption is certain for a
    negative drift); no expectation of a function with values in [0, 1] under
    it is further than ``residual`` from the lattice walk's.  ``max_tail``
    holds P(max before stopping > x) at the levels ``max_tail_x``, and
    ``horizon_used`` counts the sweeps of all their first passages.
    """

    chi: LatticePMF
    residual: float
    max_tail_x: np.ndarray
    max_tail: np.ndarray
    horizon_used: int


def stopped_max_sigma1(
    law: MaxLaw,
    x_grid: Sequence[float],
    gamma: float,
    horizon: int = 100_000,
) -> StoppedLaw:
    """Overshoot and maximum up to the first strictly negative partial sum.

    Before that time the walk's occupation is its mean duration times the
    law of M (the duality lemma: Feller, Vol. II, XII; Asmussen, Applied
    Probability and Queues, VIII), so the overshoot is -(M + xi) given
    M + xi < 0: one convolution of the fixed-point ``law`` on its cells
    0 ... -k0 - 1 with the increment pmf.  The law is within its charge
    ``stop_bound`` + ``overflow`` of M in probability, so ``residual`` =
    charge / (P(M + xi < 0) - charge) bounds the error of any probability
    under chi.

    P(max before stopping > x) is a first passage per level (``_passage``
    with floor 0 and the barrier and exit at the level), stopped on the
    certificate of the twist ``gamma``.  A level above the law's top, or whose
    passage spends ``horizon`` sweeps without a certified stop, is refused.
    """
    pmf = law.increment
    nneg = -pmf.k0
    xs = np.asarray(list(x_grid), dtype=float)
    # cells with center <= x survive a level's sweep
    level_cells = np.floor(xs / pmf.h + 1e-9)
    above_top = ~(level_cells < law.probs.size)  # nan counts as above
    if above_top.any():
        raise LatticeError(
            f"stopped level {xs[np.argmax(above_top)]:g} is above the grid top {law.top:g}: "
            "choose levels at or below the grid top"
        )
    # bin nneg - j of the convolution is the cell -j, an overshoot of j cells
    W = _direct_conv(law.probs[:nneg], pmf.probs, (0, nneg))[:nneg]
    chi_cells = np.zeros(nneg + 1)
    chi_cells[nneg + 1 - W.size :] = W[::-1]
    below = float(chi_cells.sum())  # P(M + xi < 0)
    charge = law.stop_bound + float(law.overflow)
    chi = LatticePMF(h=pmf.h, k0=0, probs=chi_cells / below)

    tails, used = np.ones(xs.size), 0
    for i, kx in enumerate(level_cells.astype(int)):
        if kx < 0:
            continue
        _, tails[i], n, left = _passage(pmf, 0, kx, kx, xs[i], gamma, horizon)
        used += n
        if left:
            raise LatticeError(f"stopping-time horizon {horizon} exhausted at level {xs[i]:g}",
                               residual=left)
    return StoppedLaw(
        chi=chi,
        residual=charge / (below - charge) if below > charge else math.inf,
        max_tail_x=xs,
        max_tail=tails,
        horizon_used=used,
    )


def boundary_term(law: MaxLaw, gamma: float | None) -> Bracket:
    """B = E[1 - e^{gamma (M + xi)}; M + xi <= 0] for the walk maximum M of
    ``law`` and an independent increment xi, for a positive twist ``gamma``.

    Only the cells 0 ... -k0 of M can land at or below 0, so B is the sum of
    V_y G_y over them, with the weights G_y = sum_{k <= -y} p_k (1 -
    e^{gamma (y + k) h}) in [0, 1] from cumulative sums of the increment pmf.
    M differs from the law's vector by at most its ``stop_bound`` in
    probability plus its ``overflow`` in lost mass, and B moves by at most that
    much; the enclosure charges both.
    """
    if gamma is None or not gamma > 0:
        raise LatticeError(f"boundary term needs a positive twist, got {gamma}")
    inc = law.increment
    n = min(-inc.k0, len(law.probs) - 1) + 1
    p = np.zeros(1 - inc.k0)  # cells k0 ... 0
    p[: inc.probs.size] = inc.probs[: p.size]
    cum = np.cumsum([p, p * np.exp(gamma * inc.h * np.arange(inc.k0, 1))], axis=1)
    y = np.arange(n)
    G = cum[0, -inc.k0 - y] - np.exp(gamma * inc.h * y) * cum[1, -inc.k0 - y]
    value = float((law.probs[:n] * G).sum())
    err = law.stop_bound + float(law.overflow)
    return Bracket(value, max(value - err, 0.0), value + err)


def exp_moment(law: MaxLaw, gamma: float, phi: float) -> Bracket:
    """E e^{gamma M} for the fixed-point law of the all-time maximum, where
    ``phi`` = E e^{gamma xi} < 1 is the model's twisted increment moment.

    From M =d (M + xi)^+, E e^{gamma M} (1 - phi) = ``boundary_term``, which
    reads M only near 0: no sum over the tail enters, so the jumps past the
    increment's span edge are counted through ``phi``.  The identity holds
    for the fixed point only; a horizon law M_n obeys the one-step form
    E e^{gamma M_{n+1}} = phi E e^{gamma M_n} + B(M_n) instead.
    """
    if not phi < 1.0:
        raise LatticeError(f"exp_moment needs a twisted moment below 1, got {phi}")
    return boundary_term(law, gamma).scale(1.0 / (1.0 - phi))


@dataclass
class BigJumpFlow:
    """First exceedances of ``jump_level`` by paths whose running maximum
    stayed at or below ``barrier`` beforehand.

    ``landing_k0``/``landing_mass`` give the accumulated landing distribution
    (sub-probability, by cell) up to a level, ``beyond`` the landing mass past
    it, and ``n_run`` the number of steps taken.  ``remainder`` bounds the
    landings still to come: 0 when the twist certificate stopped the flow,
    else the certificate's bound after the last of ``n_max`` steps.
    """

    landing_k0: int
    landing_mass: np.ndarray
    n_run: int
    beyond: float
    remainder: float

    def total(self) -> float:
        return float(self.landing_mass.sum()) + self.beyond


def _passage(pmf: LatticePMF, k_lo: int, k_hi: int, k_exit: int, cut: float,
             gamma: float, n_max: int):
    """First passage from cell 0 over the cell ``k_exit``, killed below cell
    ``k_lo`` and above cell ``k_hi``: returns the occupation (the sum of the
    pre-step sub-laws), the mass passed over ``k_exit``, the steps taken and
    ``left``.  With phi = E e^{gamma xi} < 1 on the lattice (else refused), a
    walk at y passes over ``cut`` <= (k_exit + 1) h at a later step m with
    probability at most phi^m e^{gamma (y - cut)}, so e^{-gamma cut}
    sum_y V(y) e^{gamma y} / (1 - phi) bounds all future passages.  The loop
    stops, with ``left`` = 0, once that is below ``BIGJUMP_REL_TOL`` of the
    total; after ``n_max`` steps without that stop ``left`` is the bound.
    No jump from the window passes an exit cell at or above ``k_hi`` plus the
    pmf's largest cell: such a passage returns 0 after 0 steps, ``left`` = 0.
    """
    phi = pmf.mgf(gamma)
    if not phi < 1.0:
        raise LatticeError(f"first passage needs a lattice twisted moment below 1, got "
                           f"phi({gamma:g}) = {phi!r}; lower the twist")
    V = np.eye(1, k_hi - k_lo + 1, -k_lo)[0]  # point mass at cell 0
    occupation = np.zeros(V.size)
    if k_hi + pmf.k0 + pmf.probs.size - 1 <= k_exit:
        return occupation, 0.0, 0, 0.0
    weights = np.exp(gamma * (np.arange(k_lo, k_hi + 1) * pmf.h - cut)) / (1.0 - phi)
    total, remaining, n = 0.0, math.inf, 0
    for n, (survivors, passed) in enumerate(
            islice(_sweep(V, pmf, exit_at=k_exit + 1 - k_lo), n_max), 1):
        occupation += V
        V = survivors
        total += passed
        remaining = float((V * weights).sum())
        if remaining < BIGJUMP_REL_TOL * max(total, 1e-300):
            return occupation, total, n, 0.0
    return occupation, total, n, remaining


def bigjump_flow(
    pmf: LatticePMF,
    barrier: float,
    jump_level: float,
    gamma: float,
    n_max: int = 10_000,
    level: float = math.inf,
) -> BigJumpFlow:
    """Dynamic program over the disjoint events
    {max through step n-1 <= barrier, S_n > jump_level}.

    This is the first passage (``_passage``) over ``jump_level`` of the walk
    killed above the barrier: landings in (barrier, jump_level] leave the
    computation for good.  The landings by cell on (jump_level, level] are
    then one convolution of the occupation with the increments, and those
    past ``level`` one sum, ``beyond``.  The passage stops on the certificate
    of the twist ``gamma``, or after ``n_max`` steps with a ``remainder``.
    """
    if not jump_level > barrier:
        raise LatticeError(f"need jump_level > barrier, got {jump_level} <= {barrier}")
    h = pmf.h
    # survivors below the floor cannot matter: their jump probability is
    # exponentially small in the gap; 30 decay lengths is plenty
    floor = -30.0 / gamma
    _check_cells((barrier - floor) / h + 1, f"on the window [{floor:g}, {barrier:g}]", h)
    k_bar = int(math.floor(barrier / h + 1e-9))  # cells with center <= barrier
    k_jump = int(math.floor(jump_level / h + 1e-9))  # landing means center > jump_level
    k_floor = int(math.floor(floor / h))
    if k_floor >= k_bar:
        raise LatticeError(f"barrier {barrier} must lie above the floor {floor}")
    occupation, _, n, left = _passage(pmf, k_floor, k_bar, k_jump, jump_level, gamma, n_max)
    # bin i of occupation * probs is cell shift + i
    shift = k_floor + pmf.k0
    k_last = math.floor(min(level / h + 1e-9, shift + occupation.size + pmf.probs.size - 2))
    lo = k_jump + 1 - shift
    hi = max(k_last + 1 - shift, lo)
    landing = _direct_conv(occupation, pmf.probs, (lo, hi))[lo:hi]
    beyond = float((occupation * _exit_weights(pmf, occupation.size, hi)).sum())
    return BigJumpFlow(landing_k0=k_jump + 1, landing_mass=landing, n_run=n, beyond=beyond,
                       remainder=left)
