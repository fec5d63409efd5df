"""Exact lattice oracle for the maximum of a negative-drift random walk.

An increment law is discretized onto a uniform grid (cell ``k`` covers
``((k-1/2)h, (k+1/2)h]``).  Every law here then comes from one primitive,
``_sweep``: it advances a sub-law on a window of cells by one convolution
with the increment pmf and reports the mass that landed above the window as
one sum.  Each oracle is a loop over that primitive:

* ``lindley_fixed_point`` and ``finite_horizon`` reflect the mass below onto
  cell 0, which is the distributional recursion ``M =d (M + xi)^+``, and
  count the mass above the grid top as overflow;
* ``stopped_max_sigma1`` absorbs below 0 and, per level, above the level
  (the first-passage probability);
* ``bigjump_flow`` absorbs above a jump level.

Landings by cell outside a window (the overshoot law, the single-jump
landings) are one convolution of the occupation, the sum of the pre-step
sub-laws, with the increment pmf, formed once after the loop.

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
from dataclasses import dataclass
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
    "convolution_power",
    "lindley_fixed_point",
    "finite_horizon",
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
# stopped_max_sigma1 stops sweeping once this much mass is still unabsorbed
STOP_RESIDUAL = 1e-12
# ... and refuses once more than this much is left unabsorbed or crossed the top
STOP_REFUSE = 1e-9
# bigjump_flow stops once future landings are below this share of the total
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
        if c >= 0:
            return Bracket(self.value * c, self.lo * c, self.hi * c)
        return Bracket(self.value * c, self.hi * c, self.lo * c)


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
        total = self.probs.sum()
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


def _direct_conv(a: np.ndarray, b: np.ndarray, spans=None) -> np.ndarray:
    """Direct convolution of two nonnegative vectors, as ``np.convolve(a, b)``,
    run as a block-Toeplitz matrix product.

    The longer vector is cut into rows of ``B`` cells, and output block row
    ``i`` is the sum over block diagonals ``d`` of row ``i - d`` times the
    B x B Toeplitz block ``T_d[s, r] = short[d*B + r - s]``.  Every output bin
    is still the sum of exactly the products a direct summation forms, only
    in another order, so each bin of nonnegative inputs keeps a relative
    error of at most its term count times the unit roundoff.
    Only block rows meeting ``spans`` (half-open bin ranges; None is all) are
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
    wanted = np.zeros(rows + diagonals + 2, dtype=bool)  # False at both ends
    for lo, hi in [(0, n_out)] if spans is None else spans:
        wanted[1 + lo // B : 1 + -(-min(hi, n_out) // B)] = True
    runs = np.flatnonzero(wanted[1:] != wanted[:-1]).reshape(-1, 2).tolist()
    A = np.zeros(rows * B)
    A[: a.size] = a
    A = A.reshape(rows, B)
    padded = np.zeros((diagonals + 1) * B)
    padded[B - 1 : B - 1 + b.size] = b
    windows = sliding_window_view(padded, B)  # windows[m, t] = padded[m + t]
    a_lo, a_hi = int(nz_a[0]) // B, int(nz_a[-1]) // B + 1  # the rows of A that are not all 0
    for d in range(int(nz_b[0]) // B, -(-int(nz_b[-1]) // B) + 1):
        T = windows[d * B : d * B + B][::-1].copy()
        for r0, r1 in runs:
            o0, o1 = max(r0, a_lo + d), min(r1, a_hi + d)
            if o0 < o1:
                out[o0:o1] += A[o0 - d : o1 - d] @ T
    return out.ravel()[:n_out]


def convolve(a: LatticePMF, b: LatticePMF) -> LatticePMF:
    """Distribution of the sum of independent lattice variables, by direct
    summation (per-bin results keep relative accuracy, which deep-tail work
    needs)."""
    if a.h != b.h:
        raise LatticeError(f"grid step mismatch: {a.h} vs {b.h}")
    return LatticePMF(h=a.h, k0=a.k0 + b.k0, probs=_direct_conv(a.probs, b.probs))


def convolution_power(pmf: LatticePMF, n: int) -> list[LatticePMF]:
    """Laws of S_1, ..., S_n (n-fold convolutions), computed iteratively."""
    if n < 1:
        raise LatticeError(f"need n >= 1, got {n}")
    out = [pmf]
    for _ in range(n - 1):
        out.append(convolve(out[-1], pmf))
    return out


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
        W = _direct_conv(V, pmf.probs, [(lo, nneg + V.size)])
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

    def centers(self) -> np.ndarray:
        return np.arange(len(self.probs)) * self.h

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


def _reflected(pmf: LatticePMF, top: float, start: MaxLaw | None = None):
    """Laws of M_0 = 0, M_1, M_2, ... on cells [0, top/h], each with the
    overflow lost above the top so far (it never returns, so its effect
    anywhere is bounded by the accumulated amount).  From a horizon law
    ``start`` = M_k of this pmf and grid they run M_k, M_{k+1}, ... instead:
    the recursion is deterministic, so each is the law a sweep from M_0
    gives, bit for bit.  Laws are not kept, so a caller that holds two at a
    time stays that small.
    """
    _check_cells(top / pmf.h + 1, f"up to the grid top {top:g}", pmf.h)
    K = int(round(top / pmf.h))
    if K < 1:
        raise LatticeError(f"top {top} is below one grid step")
    if pmf.k0 >= 0:
        raise LatticeError("increment law has no mass below 0; walk cannot reflect")
    if start is None:
        V, overflow, k = np.eye(1, K + 1)[0], 0.0, 0  # M_0: point mass at cell 0
        V.flags.writeable = False
    else:
        V, overflow, k = start.probs, start.overflow, start.n_iter
    yield V, overflow
    for n, (V, up) in enumerate(_sweep(V, pmf, reflect=True), k + 1):
        overflow += up
        if overflow > 1e-3:
            # a sound grid loses ~1e-30 per sweep; this is a sizing mistake
            raise LatticeError(
                f"grid top {top} far too small: overflow {overflow:.3e} "
                f"after {n} iterations",
                residual=overflow,
            )
        yield V, overflow


def lindley_fixed_point(pmf: LatticePMF, top: float,
                        laws: Sequence[MaxLaw] = ()) -> MaxLaw:
    """Law of the all-time maximum M = sup_n S_n via the reflected recursion,
    on the cells up to the grid top ``top``.

    Each iterate is exactly the law of the n-step maximum, so ``finite_horizon``
    runs the same recursion.  M_n differs from M only if some later partial
    sum is above 0, so P(M != M_n) <= sum_{m>n} phi(alpha)^m
    = phi(alpha)^{n+1}/(1 - phi(alpha)) for any twist alpha with
    phi(alpha) < 1.  The recursion stops after the count n that brings
    phi(alpha)^n below ``FIXED_POINT_TOL`` at alpha = 0.75 alpha_sup, and the
    law carries that bound as ``stop_bound``.  A count above ``MAX_SWEEPS`` is
    refused before the first sweep.

    ``laws`` are horizon laws M_0 ... M_k of this pmf and top, as
    ``finite_horizon`` returns them: the fixed point is M_n itself when
    n <= k, and otherwise is swept on from M_k.  Other laws are refused.
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
    # a grid top within half a step of ``top`` is the one ``round(top / h)`` picks
    if any(law.increment is not pmf or law.n_iter != n or not abs(law.top - top) < pmf.h / 2
           for n, law in enumerate(laws)):
        raise LatticeError(f"laws must be horizon laws M_0, M_1, ... of this pmf and top {top:g}")
    start = laws[min(sweeps, len(laws) - 1)] if laws else None
    k = start.n_iter if start else 0
    V, overflow = next(islice(_reflected(pmf, top, start), sweeps - k, None))
    return MaxLaw(
        h=pmf.h,
        probs=V,
        increment=pmf,
        overflow=overflow,
        n_iter=sweeps,
        stop_bound=phi ** (sweeps + 1) / (1.0 - phi),
    )


def finite_horizon(
    pmf: LatticePMF,
    N: int,
    top: float,
) -> list[MaxLaw]:
    """Laws of M_0, ..., M_N (M_0 identically 0) from the same recursion, on
    the cells up to the grid top ``top``.

    Like the pmf's ``probs``, every law is a read-only array, so a caller may
    keep the list and hand it to ``lindley_fixed_point``.
    """
    if N < 0:
        raise LatticeError(f"horizon must be >= 0, got {N}")
    return [MaxLaw(h=pmf.h, probs=V, increment=pmf, overflow=leaked, n_iter=n)
            for n, (V, leaked) in enumerate(islice(_reflected(pmf, top), N + 1))]


@dataclass
class StoppedLaw:
    """Joint output of the first-negative-sum stopping analysis.

    ``chi`` is the law of the overshoot below 0 (conditional on absorption,
    which is certain up to ``residual``); ``max_tail`` holds
    P(max before stopping > x) at the requested levels.
    """

    chi: LatticePMF
    absorbed: float
    residual: float
    max_tail_x: np.ndarray
    max_tail: np.ndarray
    horizon_used: int


def stopped_max_sigma1(
    pmf: LatticePMF,
    x_grid: Sequence[float],
    top: float,
    horizon: int = 100_000,
) -> StoppedLaw:
    """Overshoot and maximum up to the first strictly negative partial sum.

    The overshoot law comes from one absorbing sweep on the nonnegative
    cells up to the grid top ``top``: its landings below 0 are one
    convolution of the sweep's occupation.  P(max before stopping > x) is a
    first-passage probability (reach above x before dropping below 0); it is
    computed by a separate two-barrier sweep per requested level, on the
    cells up to the level, so a level above the grid top is refused.  Either
    sweep refuses once ``horizon`` steps leave mass still walking.
    """
    if pmf.mean() >= 0:
        raise LatticeError(f"stopping analysis needs a negative mean, got {pmf.mean():.6g}")
    _check_cells(top / pmf.h + 1, f"up to the grid top {top:g}", pmf.h)
    upper_cells = int(round(top / pmf.h))
    nneg = -pmf.k0
    if nneg <= 0:
        raise LatticeError("increment law has no mass below 0; stopping time is infinite")
    xs = np.asarray(list(x_grid), dtype=float)
    # cells with center <= x survive a level's sweep
    level_cells = np.floor(xs / pmf.h + 1e-9)
    above_top = ~(level_cells <= upper_cells)  # nan counts as above
    if above_top.any():
        x = xs[np.argmax(above_top)]
        raise LatticeError(
            f"stopped level {x:g} is above the grid top {upper_cells * pmf.h:g}: "
            "choose levels at or below the grid top"
        )

    # absorb below 0 and above the working top; paths above the top are
    # still unabsorbed, hence still alive
    up_mass, residual, n_run = 0.0, 1.0, 0
    S = np.eye(1, upper_cells + 1)[0]
    occupation = np.zeros(S.size)
    for n_run, (survivors, up) in enumerate(islice(_sweep(S, pmf), horizon), 1):
        occupation += S
        S = survivors
        up_mass += up
        if up_mass > STOP_REFUSE:
            # crossed mass never comes back and the final residual is at
            # least up_mass, so the refusal below is already certain
            raise LatticeError(
                f"mass {up_mass:.3e} crossed the grid top {upper_cells * pmf.h:g} "
                "before the stopping time: raise the top",
                residual=up_mass,
            )
        walking = float(S.sum())  # mass still on the grid after step n_run
        residual = walking + up_mass
        if walking < STOP_RESIDUAL:
            break
    # mass that escaped above the working grid is below the chernoff bound at top;
    # it is part of the residual bookkeeping rather than the overshoot law
    if residual > STOP_REFUSE:
        raise LatticeError(
            f"stopping-time horizon {horizon} exhausted with residual {residual:.3e}",
            residual=residual,
        )
    # bin nneg - j of occupation * probs is the cell -j, an overshoot of j cells
    chi_cells = np.r_[0.0, _direct_conv(occupation, pmf.probs, [(0, nneg)])[nneg - 1 :: -1]]
    absorbed = float(chi_cells.sum())
    conserved = absorbed + residual
    if abs(conserved - 1.0) > 1e-10:
        raise LatticeError(f"absorption bookkeeping off by {conserved - 1.0:.2e}")
    chi = LatticePMF(h=pmf.h, k0=0, probs=chi_cells / absorbed)

    tails = np.ones(xs.size)
    for i, kx in enumerate(level_cells.astype(int)):
        # P(walk exceeds x before its first strictly negative sum)
        if kx < 0:
            continue
        up = 0.0
        for S, passed in islice(_sweep(np.eye(1, kx + 1)[0], pmf), horizon):
            up += passed
            if S.sum() < STOP_RESIDUAL * 1e-3:
                break
        else:
            raise LatticeError(f"stopping-time horizon {horizon} exhausted at level {xs[i]:g}",
                               residual=float(S.sum()))
        tails[i] = up
    return StoppedLaw(
        chi=chi,
        absorbed=absorbed,
        residual=residual,
        max_tail_x=xs,
        max_tail=tails,
        horizon_used=n_run,
    )


def boundary_term(law: MaxLaw, gamma: float) -> Bracket:
    """B = E[1 - e^{gamma (M + xi)}; M + xi <= 0] for the walk maximum M of
    ``law`` and an independent increment xi, for a positive twist ``gamma``.

    Only the cells 0 ... -k0 of M can land at or below 0, so B is the sum of
    V_y G_y over them, with the weights G_y = sum_{k <= -y} p_k (1 -
    e^{gamma (y + k) h}) in [0, 1] from cumulative sums of the increment pmf.
    M differs from the law's vector by at most its ``stop_bound`` in
    probability plus its ``overflow`` in lost mass, and B moves by at most that
    much; the enclosure charges both.
    """
    if not gamma > 0:
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
    it, and ``n_run`` the number of steps taken.
    """

    landing_k0: int
    landing_mass: np.ndarray
    n_run: int
    beyond: float

    def total(self) -> float:
        return float(self.landing_mass.sum()) + self.beyond


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

    Per step the surviving sub-law (paths still at or below the barrier) is
    convolved with the increments; landings in (barrier, jump_level] leave
    the computation for good, and those above ``jump_level`` are summed.  The
    landings by cell on (jump_level, level] are then one convolution of the
    occupation (the sum of the pre-step sub-laws) with the increments, and
    those past ``level`` one sum, ``beyond``.  Iteration stops once the
    remaining exp(gamma .)-weighted occupation certifies that future
    contributions are below ``BIGJUMP_REL_TOL`` of the accumulated total, or
    after ``n_max`` steps.  The certificate needs the lattice phi(gamma) =
    E e^{gamma xi} below 1; another twist is refused.
    """
    if not jump_level > barrier:
        raise LatticeError(f"need jump_level > barrier, got {jump_level} <= {barrier}")
    phi = pmf.mgf(gamma)
    if not phi < 1.0:
        raise LatticeError(f"bigjump flow needs a lattice twisted moment below 1, got "
                           f"phi({gamma:g}) = {phi!r}; lower the twist")
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
    nu = np.eye(1, k_bar - k_floor + 1, -k_floor)[0]  # point mass at cell 0
    occupation = np.zeros(nu.size)
    total = 0.0
    weights = np.exp(gamma * np.arange(k_floor, k_bar + 1) * h)
    n = 0
    steps = _sweep(nu, pmf, exit_at=k_jump + 1 - k_floor)
    for n, (survivors, flow) in enumerate(islice(steps, n_max), 1):
        occupation += nu
        nu = survivors
        total += flow
        tilt = float((nu * weights).sum())
        # future landings are bounded by sup_y e^{gamma y} T(y) * e^{-gamma level}
        # * tilt / (1 - phi); the constant prefactor is conservative at 1
        remaining = math.exp(-gamma * jump_level) * tilt / (1.0 - phi)
        if remaining < BIGJUMP_REL_TOL * max(total, 1e-300):
            break
    # bin i of occupation * probs is cell shift + i
    shift = k_floor + pmf.k0
    k_last = math.floor(min(level / h + 1e-9, shift + occupation.size + pmf.probs.size - 2))
    lo = k_jump + 1 - shift
    hi = max(k_last + 1 - shift, lo)
    landing = _direct_conv(occupation, pmf.probs, [(lo, hi)])[lo:hi]
    beyond = float((occupation * _exit_weights(pmf, occupation.size, hi)).sum())
    return BigJumpFlow(landing_k0=k_jump + 1, landing_mass=landing, n_run=n, beyond=beyond)
