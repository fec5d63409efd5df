"""Increment distribution families for negative-drift random walks.

Three families are provided:

* ``PolyExp`` -- the workhorse.  The increment is ``xi = eta - shift`` where
  ``eta >= 0`` has tail ``P(eta > y) = (1+y)**-beta * exp(-gamma*y)``.  The
  exponential decay rate ``gamma`` and the twisted moment
  ``E exp(gamma*xi) = exp(-gamma*shift) * (1 + gamma/(beta-1))`` are both in
  closed form, which is what makes exact cross-checks possible.  ``eta`` is
  sampled exactly as min(Lomax(beta), Exp(gamma)), whose tail is that product.
* ``TwoPoint`` and ``PointMass`` -- lattice laws used to validate the grid
  oracle against closed forms (gambler's ruin, binomial convolutions).  Their
  tails are step functions, so the smooth-tail class diagnostics do not apply;
  they carry ``in_class = False``.

Samplers take an explicit ``numpy.random.Generator``; models hold no mutable
state and can be shared freely across worker shards.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

# numpy is the only runtime dependency: the few integrals the package needs
# run through ``_de_quad`` below, so no command pays scipy's start-up

__all__ = [
    "ModelError",
    "QuadratureError",
    "IncrementModel",
    "PolyExp",
    "TwoPoint",
    "PointMass",
    "parse_model",
    "lgamma_diagnostic",
    "sgamma_diagnostic",
    "ClassDiagnostic",
    "BAND_RULES",
    "band_h",
    "twist_sup",
    "twist_min",
    "chernoff_tail",
]

QUAD_ABS_TOL = 1e-10
# double-exponential quadrature: trapezoid steps in t from DE_STEP, halved at
# most DE_LEVELS times, on |t| <= DE_T_MAX; it stops early once two levels
# agree to DE_REL_TOL
DE_STEP = 0.5
DE_LEVELS = 14
DE_T_MAX = 6.0
DE_REL_TOL = 4e-16
# largest stopping slack ``slack_for_bias`` searches
MAX_SLACK = 1e4
# switch tail/cdf evaluation fully into the log domain once exp() would underflow
LOG_DOMAIN_THRESHOLD = 600.0


def _exp(x: float) -> float:
    """``math.exp``, reading an overflow as inf: a moment past the float range
    is refused by ``certified_twist`` like a divergent one."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class ModelError(ValueError):
    """Invalid model parameterization or unusable operation for the family."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _de_quad(what: str, f, a: float, b: float = math.inf) -> tuple[float, float]:
    """(value, error estimate) of int_a^b f(y) dy for an ``f`` that maps an
    array of points to an array of values; ``what`` names the integral in the
    refusal.

    The exp-sinh map y = a + exp(pi/2 sinh t) covers [a, inf) and the
    tanh-sinh map y = (a+b)/2 + (b-a)/2 tanh(pi/2 sinh t) covers [a, b]; the
    integral in t is a trapezoid sum whose step halves at each level.  The
    error estimate is the difference of the last two levels; NaN or one above
    ``QUAD_ABS_TOL`` raises ``QuadratureError``.
    """

    def weighted(t):
        u = (0.5 * math.pi) * np.sinh(t)
        if math.isinf(b):
            y = np.exp(u)
            w = (0.5 * math.pi) * np.cosh(t) * y
            y += a
        else:
            # distance to the nearer end, so no point rounds onto it early
            e = np.exp(-2.0 * np.abs(u))
            d = (b - a) * e / (1.0 + e)
            y = np.where(u < 0, a + d, b - d)
            w = (b - a) * math.pi * np.cosh(t) * e / ((1.0 + e) * (1.0 + e))
        # a non-finite value is refused below, so numpy need not warn of it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float((w * f(y)).sum())

    n = int(round(DE_T_MAX / DE_STEP))
    h = DE_STEP
    total = weighted(h * np.arange(-n, n + 1))
    value = h * total
    for _ in range(DE_LEVELS):
        h, n = 0.5 * h, 2 * n
        total += weighted(h * np.arange(1 - n, n, 2))  # the odd points are new
        value, prev = h * total, value
        err = abs(value - prev)
        if not err > DE_REL_TOL * abs(value):  # a NaN stops too, and refuses
            break
    if not err <= QUAD_ABS_TOL:
        raise QuadratureError(f"{what} did not converge (achieved tolerance {err:.2e})")
    return value, err


def twist_sup(mgf, mean: float, top: float) -> float:
    """Largest twist alpha with mgf(alpha) < 1 for a law with this mean and
    largest support point ``top``: 0 for a nonnegative mean, inf when no mass
    lies above 0, else doubling up to 1e4 and then up to 200 bisections, which
    stop once the midpoint rounds onto an end, as no end moves after that."""
    if mean >= 0:
        return 0.0
    if top <= 0:
        return math.inf  # mgf < 1 for every alpha > 0
    lo, hi = 0.0, 1.0
    while mgf(hi) < 1.0 and hi < 1e4:
        lo, hi = hi, hi * 2.0
    if mgf(hi) < 1.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mgf(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def twist_min(mgf, alphas, bound) -> float:
    """Smallest ``bound(alpha, mgf(alpha))`` over the twists ``alphas`` with
    mgf(alpha) < 1; inf when none of them has one."""
    best = math.inf
    for a in alphas:
        p = mgf(float(a))
        if p < 1.0:
            best = min(best, bound(float(a), p))
    return best


def chernoff_tail(mgf, a_sup: float, t: float) -> float:
    """Union-Chernoff bound min exp(-alpha t)/(1 - mgf(alpha)) on P(M > t)
    for the walk maximum M, over 400 twists in (0, a_sup), capped at 1;
    ``a_sup`` is ``twist_sup`` of the increment law."""
    if t < 0 or a_sup == 0.0:
        return 1.0  # M >= 0 > t, or no twist with mgf < 1
    if math.isinf(a_sup):
        return 0.0
    alphas = np.linspace(a_sup * 1e-3, a_sup * (1 - 1e-6), 400)
    return min(1.0, twist_min(mgf, alphas, lambda a, p: math.exp(-a * t) / (1.0 - p)))


class IncrementModel:
    """Common interface of the increment families.  A family is a frozen
    dataclass: its finite fields, in order and with their defaults, are its
    spec, and its lowercased class name names it there."""

    in_class: bool  # smooth exponential-with-heavy-prefactor tail family?

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ModelError(f"{type(self).__name__} field {f.name!r} must be finite, "
                                 f"got {getattr(self, f.name)}")

    # --- distribution surface -------------------------------------------------
    def tail(self, x):
        """P(xi > x)."""
        raise NotImplementedError

    def cdf(self, x):
        return 1.0 - self.tail(x)

    def cell_masses(self, edges) -> np.ndarray:
        """P(edges[i] < xi <= edges[i+1]) for consecutive increasing edges."""
        tails = np.asarray(self.tail(edges), dtype=float)
        return tails[:-1] - tails[1:]

    def mean(self) -> float:
        raise NotImplementedError

    def mgf(self, alpha: float) -> float:
        """E exp(alpha*xi) for alpha >= 0; inf where it diverges."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    # --- family knowledge --------------------------------------------------------
    @property
    def decay_rate(self) -> float | None:
        """Exponential decay rate of the tail; None for the atomic families."""
        return None

    def twist(self, gamma: float | None) -> float:
        """The twist of every tail constant and certificate: ``gamma`` when
        given, else the decay rate; a family with neither is refused."""
        if gamma is None and self.decay_rate is None:
            raise ModelError("model family has no intrinsic decay rate; pass the twist explicitly")
        return self.decay_rate if gamma is None else float(gamma)

    def certified_twist(self, gamma: float | None = None) -> tuple[float, float]:
        """The twist ``twist(gamma)`` and phi = mgf(twist), refused unless phi < 1:
        without it no tail constant or certified bound on the maximum exists."""
        g = self.twist(gamma)
        phi = self.mgf(g)
        if not phi < 1.0:
            fix = "a model" if gamma is None else "a model or a lower --gamma"
            raise ModelError(f"twisted moment phi({g:g}) = {phi:.6g} is not below 1: no certified "
                             f"bound on the walk maximum; choose {fix} with phi < 1")
        return g, phi

    def default_span(self) -> tuple[float, float]:
        """Span [lo, hi] with true increment mass outside it below 1e-15."""
        raise NotImplementedError

    def twist_envelope(self, alpha: float) -> float:
        """sup_y exp(alpha*y) * P(xi > y)."""
        raise NotImplementedError

    # --- certification helpers -------------------------------------------------
    def max_tail_bound(self, t: float) -> float:
        """Certified upper bound on P(sup_n S_n > t) for the walk with these
        increments, from the union-Chernoff inequality
        P(M > t) <= exp(-alpha*t) / (1 - phi(alpha)) at any alpha with
        phi(alpha) < 1."""
        return chernoff_tail(self.mgf, twist_sup(self.mgf, self.mean(), self.default_span()[1]), t)

    def slack_for_bias(self, eps: float) -> float:
        """Smallest slack K (up to bisection tolerance) with
        max_tail_bound(K) <= eps."""
        if self.max_tail_bound(0.0) <= eps:
            return 0.0
        if self.max_tail_bound(MAX_SLACK) > eps:
            raise ModelError(f"cannot certify bias {eps:.3e} within slack {MAX_SLACK:g}")
        lo, hi = 0.0, MAX_SLACK
        while hi - lo > 1e-9 * (1.0 + hi):
            mid = 0.5 * (lo + hi)
            if self.max_tail_bound(mid) <= eps:
                hi = mid
            else:
                lo = mid
        return hi

    def spec_string(self) -> str:
        """The spec ``parse_model`` reads back: family name, then every field."""
        body = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{type(self).__name__.lower()}:{body}"


@dataclass(frozen=True)
class PolyExp(IncrementModel):
    """xi = eta - shift with P(eta > y) = (1+y)**-beta * exp(-gamma*y).

    ``sample`` draws eta exactly as min(Lomax(beta), Exp(gamma)), from two
    exponential variates per draw.

    Parameters
    ----------
    gamma : float
        Exponential decay rate of the tail, > 0.
    beta : float
        Polynomial prefactor index, > 1 (keeps the twisted moment finite).
    shift : float
        Location offset; the support of xi is [-shift, inf).

    phi(gamma) = ``mgf_at_gamma`` may be >= 1: the computations that need it
    below 1 refuse such a model, the distribution surface does not.
    """

    gamma: float
    beta: float
    shift: float = 0.0

    in_class = True

    def __post_init__(self):
        super().__post_init__()
        if not (self.gamma > 0):
            raise ModelError(f"gamma must be > 0, got {self.gamma}")
        if not (self.beta > 1):
            raise ModelError(f"beta must be > 1, got {self.beta}")

    # --- closed forms -----------------------------------------------------------
    @property
    def mgf_at_gamma(self) -> float:
        """E exp(gamma*xi) = exp(-gamma*shift) * (1 + gamma/(beta-1)); inf past
        the float range."""
        return _exp(-self.gamma * self.shift) * (1.0 + self.gamma / (self.beta - 1.0))

    def log_tail(self, x):
        """log P(xi > x); 0 for x <= -shift.  Safe at extreme x."""
        x = np.asarray(x, dtype=float)
        z = np.maximum(x + self.shift, 0.0)
        out = -self.beta * np.log1p(z) - self.gamma * z
        return out if out.ndim else float(out)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < -self.shift, 1.0, np.exp(self.log_tail(x)))
        return out if out.ndim else float(out)

    def cell_masses(self, edges) -> np.ndarray:
        # difference of tails, assembled in the log domain: relative accuracy
        # survives far into the right tail
        lt = np.asarray(self.log_tail(edges))
        return -np.exp(lt[:-1]) * np.expm1(lt[1:] - lt[:-1])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x + self.shift
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (self.beta / (1.0 + z) + self.gamma) * np.exp(
                -self.beta * np.log1p(np.maximum(z, 0.0)) - self.gamma * np.maximum(z, 0.0)
            )
        out = np.where(z < 0, 0.0, val)
        return out if out.ndim else float(out)

    def _laplace(self, s: float) -> float:
        """int_0^inf (1+y)^-beta exp(-s y) dy = int_0^inf exp((gamma-s) y)
        P(eta > y) dy, by quadrature."""
        return _de_quad(f"tail quadrature at rate {s:g}",
                        lambda y: np.exp(-self.beta * np.log1p(y) - s * y), 0.0)[0]

    @cached_property
    def _mean_eta(self) -> float:
        return self._laplace(self.gamma)  # E eta = int_0^inf P(eta > y) dy

    def mean(self) -> float:
        return self._mean_eta - self.shift

    def mgf(self, alpha: float) -> float:
        if alpha < 0:
            raise ModelError(f"alpha must be >= 0, got {alpha}")
        if alpha == 0.0:
            return 1.0
        if alpha > self.gamma:
            return math.inf
        if alpha == self.gamma:
            return self.mgf_at_gamma
        # E exp(alpha*eta) = 1 + alpha * int_0^inf exp(alpha y) P(eta>y) dy
        return _exp(-alpha * self.shift) * (1.0 + alpha * self._laplace(self.gamma - alpha))

    # --- sampling ---------------------------------------------------------------
    def inverse_tail(self, p: float) -> float:
        """x with P(xi > x) = p, for p in (0, 1]: Newton from y=0 on the convex,
        decreasing -beta*log1p(y) - gamma*y = log p, until the residual is within
        1e-13, or four float spacings of log p where those are coarser."""
        if not 0 < p <= 1:
            raise ModelError(f"probability must be in (0,1], got {p}")
        t = np.array([math.log(p)])
        tol = max(1e-13, 4.0 * float(np.spacing(abs(t[0]))))
        y = np.zeros(1)
        for _ in range(200):
            resid = (-self.beta * np.log1p(y) - self.gamma * y) - t
            if abs(resid[0]) <= tol:
                return float(y[0]) - self.shift
            y = y + np.maximum(resid / (self.beta / (1.0 + y) + self.gamma), 0.0)
        raise QuadratureError(f"tail inversion stalled (achieved tolerance {abs(resid[0]):.2e})")

    def sample(self, rng: np.random.Generator, size: int):
        # one call for 2*size exponentials: expm1(E/beta) has tail
        # (1+y)**-beta and E'/gamma tail exp(-gamma*y), so their minimum is eta;
        # in place, as temporaries of a 65,536-path block doubled the cost
        e = rng.standard_exponential(2 * size)
        lomax, expo = e[:size], e[size:]
        np.expm1(np.divide(lomax, self.beta, out=lomax), out=lomax)
        eta = np.minimum(lomax, np.divide(expo, self.gamma, out=expo))
        eta -= self.shift
        return eta

    @property
    def decay_rate(self) -> float:
        return self.gamma

    def default_span(self) -> tuple[float, float]:
        # hard left support: only the right tail is ever folded
        return (-self.shift, self.inverse_tail(1e-15))

    def twist_envelope(self, alpha: float) -> float:
        if alpha > self.gamma:
            raise ModelError("twist above the decay rate has no finite envelope")
        return _exp(-alpha * self.shift)

    def max_tail_bound(self, t: float) -> float:
        g, phg = self.certified_twist()
        return math.exp(-g * t) / (1.0 - phg)


@dataclass(frozen=True)
class TwoPoint(IncrementModel):
    """Two-atom law: P(xi = u) = pu, P(xi = v) = 1 - pu, with u > v."""

    u: float
    pu: float
    v: float

    in_class = False

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.pu < 1.0):
            raise ModelError(f"pu must be in (0,1), got {self.pu}")
        if not self.u > self.v:
            raise ModelError(f"need u > v, got u={self.u}, v={self.v}")

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.v, 1.0, np.where(x < self.u, self.pu, 0.0))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.pu * self.u + (1.0 - self.pu) * self.v

    def mgf(self, alpha: float) -> float:
        if alpha < 0:
            raise ModelError(f"alpha must be >= 0, got {alpha}")
        return self.pu * _exp(alpha * self.u) + (1.0 - self.pu) * _exp(alpha * self.v)

    def sample(self, rng: np.random.Generator, size: int):
        return np.where(rng.random(size) < self.pu, self.u, self.v)

    def default_span(self) -> tuple[float, float]:
        return (self.v, self.u)

    def twist_envelope(self, alpha: float) -> float:
        # step tail: the envelope peaks at the left edge of each level piece
        return max(_exp(alpha * self.v), self.pu * _exp(alpha * self.u))


@dataclass(frozen=True)
class PointMass(IncrementModel):
    """Degenerate law at v."""

    v: float

    in_class = False

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.v, 1.0, 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.v

    def mgf(self, alpha: float) -> float:
        if alpha < 0:
            raise ModelError(f"alpha must be >= 0, got {alpha}")
        return _exp(alpha * self.v)

    def sample(self, rng: np.random.Generator, size: int):
        rng.random(size)  # consume the stream so seeds stay comparable
        return np.full(size, self.v)

    def default_span(self) -> tuple[float, float]:
        return (self.v, self.v)

    def twist_envelope(self, alpha: float) -> float:
        return _exp(alpha * self.v)


# --- model specification grammar -------------------------------------------------

_FAMILIES = {cls.__name__.lower(): cls for cls in (PolyExp, PointMass, TwoPoint)}


def _parse_kv(body: str, spec: str) -> dict[str, float]:
    out = {}
    for tok in body.split(","):
        key, _, val = tok.partition("=")
        key = key.strip()
        try:
            value = float(val)  # a token without "=" has no value either
        except ValueError:
            raise ModelError(f"malformed token {tok!r} in model spec {spec!r}") from None
        if key in out:
            raise ModelError(f"model spec {spec!r} repeats field {key!r}")
        out[key] = value
    return out


def parse_model(spec: str) -> IncrementModel:
    """Parse ``polyexp:gamma=..,beta=..,shift=..`` | ``pointmass:v=..`` |
    ``twopoint:u=..,pu=..,v=..``: each field at most once, one the family
    takes, and given unless it has a default; the family checks the values."""
    family, sep, body = spec.partition(":")
    if not sep:
        raise ModelError(f"model spec {spec!r} is missing the ':' separator")
    family = family.strip().lower()
    kv = _parse_kv(body, spec)
    if family not in _FAMILIES:
        raise ModelError(f"unknown model family {family!r}")
    defaults = {f.name: f.default for f in fields(_FAMILIES[family])}
    for key in kv:
        if key not in defaults:
            raise ModelError(f"model spec {spec!r} has unknown field {key!r}; "
                             f"{family} takes {', '.join(defaults)}")
    for name, default in defaults.items():
        if name not in kv and default is MISSING:
            raise ModelError(f"model spec {spec!r} is missing field {name!r}")
    return _FAMILIES[family](**kv)


# --- class membership diagnostics -------------------------------------------------

@dataclass
class ClassDiagnostic:
    """Table produced by the tail-shape diagnostics.

    ``rows`` holds one entry per probe point; ``summary`` is the headline
    deviation; ``not_in_class`` is set for the lattice test families,
    for which the smooth-tail ratios are undefined.
    """

    rows: list[dict]
    summary: float | None
    passed: bool
    not_in_class: bool = False
    notes: str = ""


def lgamma_diagnostic(model: IncrementModel, k_grid, x_grid) -> ClassDiagnostic:
    """Probe tail(x-k)/tail(x) - exp(gamma*k) on a grid.

    For the smooth family the ratio is computed in the log domain, so probes at
    x large enough to underflow exp(-gamma*x) remain exact.  It passes when each
    k's |deviation| strictly decreases along the x grid, or stays at most 1e-12.
    """
    if not model.in_class:
        return ClassDiagnostic(
            rows=[],
            summary=None,
            passed=True,
            not_in_class=True,
            notes="lattice family: shifted-tail ratios are undefined",
        )
    assert isinstance(model, PolyExp)
    rows = []
    x_top = max(x_grid)
    summary = 0.0
    for k in k_grid:
        for x in x_grid:
            ratio = math.exp(float(model.log_tail(x - k)) - float(model.log_tail(x)))
            dev = ratio - math.exp(model.gamma * k)
            rows.append(
                {
                    "k": float(k),
                    "x": float(x),
                    "ratio": ratio,
                    "deviation": dev,
                    "log_domain": model.gamma * x > LOG_DOMAIN_THRESHOLD,
                }
            )
            if x == x_top:
                summary = max(summary, abs(dev))
    devs = np.abs([r["deviation"] for r in rows]).reshape(len(k_grid), len(x_grid))
    passed = bool(np.all((devs[:, 1:] < devs[:, :-1]) | (devs[:, 1:] <= 1e-12)))
    return ClassDiagnostic(rows=rows, summary=summary, passed=passed,
                           notes="pass requires each k's |deviation| to decrease along the grid")


BAND_RULES = ("quarter", "sqrt")


def band_h(h_choice: str, x: float) -> float:
    """Band width h(x) of the single-jump split: "quarter" gives x/4 and
    "sqrt" gives sqrt(x).  A level without x > 0 and h(x) < x/2 has no split
    (the band (h(x), x - h(x)) is empty) and is refused."""
    if h_choice not in BAND_RULES:
        raise ModelError(f"h_choice must be one of {BAND_RULES}, got {h_choice!r}")
    hx = x / 4.0 if h_choice == "quarter" else math.sqrt(max(x, 0.0))
    if not (x > 0 and hx < x / 2.0):
        shown = f", h(x) = {hx:g}" if x > 0 else ""  # sqrt has no h(x) below 0
        raise ModelError(f"no single-jump split at x = {x:g}{shown} with --h-choice {h_choice}: "
                         "levels need x > 0 and h(x) < x/2")
    return hx


def sgamma_diagnostic(model: IncrementModel, h_choice: str, x_grid) -> ClassDiagnostic:
    """Middle-band convolution mass I(x) = (1/tail(x)) *
    int_{h(x)}^{x-h(x)} tail(x-y) f(y) dy, which must decay to 0 for the
    single-jump tail arithmetic to hold.

    ``h_choice`` is "quarter" (h(x) = x/4) or "sqrt" (h(x) = sqrt(x)); a
    level ``band_h`` refuses is refused before any quadrature.
    """
    if not model.in_class:
        # the middle band carries no mass for an atom at or below 0
        rows = [{"x": float(x), "integral": 0.0, "error": 0.0} for x in x_grid]
        return ClassDiagnostic(
            rows=rows,
            summary=0.0,
            passed=True,
            not_in_class=True,
            notes="lattice family: middle band empty on the probe grid",
        )
    assert isinstance(model, PolyExp)
    rows = []
    values = []
    bands = [band_h(h_choice, float(x)) for x in x_grid]
    for x, hx in zip(map(float, x_grid), bands):
        log_tx = float(model.log_tail(x))
        try:
            # tail(x-y)/tail(x) * f(y), the tail ratio formed in the log domain
            val, err = _de_quad(
                f"middle-band quadrature at x={x:g}",
                lambda y: np.exp(model.log_tail(x - y) - log_tx) * model.pdf(y),
                hx, x - hx,
            )
        except QuadratureError as exc:
            rows.append({"x": x, "integral": None, "error": str(exc)})
            continue
        rows.append({"x": x, "integral": val, "error": err})
        values.append(val)
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return ClassDiagnostic(
        rows=rows,
        summary=values[-1] if values else None,
        passed=decreasing,
        notes="pass requires the integral to decrease along the probe grid",
    )
