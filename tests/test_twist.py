"""One twist search for every Chernoff certificate.

The lattice truncation bound, the atomic ``max_tail_bound`` and the Monte
Carlo stopping slacks all go through ``twist_sup``, ``twist_min`` and
``chernoff_tail``.  The per-module searches
they replaced are kept below as oracles: every lattice and Monte Carlo
certificate must be bit-equal to them, and the atomic bound must stay within
1e-3 of the continuous optimum it used to take from scipy.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from walkmax import (
    EstimatorError,
    LatticePMF,
    ModelError,
    PointMass,
    PolyExp,
    TwoPoint,
    discretize,
)
from walkmax.increments import twist_sup
from walkmax.montecarlo import RENEWAL_MISS_BOUND, _geometric_remainder, _shifted_cross_slack

# --- the replaced searches ---------------------------------------------------------


def twist_sup_oracle(mgf, mean, top):
    """twist_sup with all 200 bisections, as LatticePMF._alpha_sup_scan ran
    them before the shared search."""
    if mean >= 0:
        return 0.0
    if top <= 0:
        return math.inf
    lo, hi = 0.0, 1.0
    while mgf(hi) < 1.0 and hi < 1e4:
        lo, hi = hi, hi * 2.0
    if mgf(hi) < 1.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mgf(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def alpha_sup_oracle(pmf):
    return twist_sup_oracle(pmf.mgf, pmf.mean(), pmf.centers()[-1])


def twist_scan_oracle(pmf, lo, hi, bound):
    """LatticePMF._twist_scan."""
    best = math.inf
    for a in np.linspace(lo, hi, 400):
        p = pmf.mgf(float(a))
        if p < 1.0:
            best = min(best, bound(float(a), p))
    return best


def tail_bound_oracle(pmf, t):
    """LatticePMF._tail_bound_scan."""
    a_sup = alpha_sup_oracle(pmf)
    if a_sup == 0.0:
        return 1.0
    if math.isinf(a_sup):
        return 0.0 if t >= 0 else 1.0
    bound = twist_scan_oracle(
        pmf, a_sup * 1e-3, a_sup * (1 - 1e-6), lambda a, p: math.exp(-a * t) / (1.0 - p)
    )
    return min(1.0, bound)


def geometric_remainder_oracle(model, x, n_cut):
    """montecarlo._geometric_remainder with its own twist loop."""
    g = model.decay_rate
    if g is not None:
        alphas = [g, 0.75 * g, 0.5 * g]
    else:
        hi = 1.0
        while model.mgf(hi) < 1.0 and hi < 1e3:
            hi *= 2.0
        alphas = list(np.linspace(hi / 40.0, hi * 0.999, 40))
    best = math.inf
    for a in alphas:
        phi = model.mgf(float(a))
        if not (phi < 1.0):
            continue
        b = model.twist_envelope(float(a)) * math.exp(-a * x) * phi**n_cut / (1.0 - phi)
        best = min(best, b)
    return best


def shifted_cross_slack_oracle(model, c):
    """montecarlo._shifted_cross_slack with its own twist loop."""
    g = model.decay_rate
    if g is not None:
        cands = [0.5 * g, 0.75 * g, 0.9 * g]
    else:
        cands = list(np.linspace(0.1, 20.0, 60))
    usable = []
    for a in cands:
        m = model.mgf(float(a))
        if math.isfinite(m) and m * math.exp(-a * c) < 1.0:
            usable.append((float(a), m * math.exp(-a * c)))
    if not usable:
        raise EstimatorError("no usable twist for the shifted walk; lower |c|")
    return min(math.log(1.0 / (RENEWAL_MISS_BOUND * (1.0 - phi))) / a for a, phi in usable)


def atom_chernoff_bound(atoms, t):
    """The atomic max_tail_bound before the shared search: scipy's root and
    bounded minimum of exp(-alpha t)/(1 - phi(alpha))."""
    if all(v <= 0 for v, _ in atoms):
        return 0.0 if t >= 0 else 1.0
    phi = lambda a: sum(p * math.exp(a * v) for v, p in atoms)  # noqa: E731
    if phi(1e-9) >= 1.0 and sum(v * p for v, p in atoms) >= 0:
        raise ModelError("no certified bound: nonnegative mean")
    hi = 1.0
    while phi(hi) < 1.0 and hi < 1e3:
        hi *= 2.0
    alpha_sup = optimize.brentq(lambda a: phi(a) - 1.0, 1e-12, hi) if phi(hi) >= 1.0 else hi
    res = optimize.minimize_scalar(
        lambda a: -a * t - math.log1p(-min(phi(a), 1.0 - 1e-15)),
        bounds=(1e-9, alpha_sup * (1 - 1e-9)),
        method="bounded",
    )
    return min(1.0, math.exp(res.fun))


# --- lattice certificates ----------------------------------------------------------


@st.composite
def negative_mean_pmfs(draw):
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    k0 = draw(st.integers(-20, -1))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)))
    assume(weights.sum() > 1e-3)
    pmf = LatticePMF(h=h, k0=k0, probs=weights / weights.sum())
    assume(pmf.mean() < 0)
    return pmf


def assert_lattice_certificates_match(pmf):
    a_sup = pmf.chernoff_alpha_sup
    assert a_sup == alpha_sup_oracle(pmf)
    for t in (0.0, 0.5, 3.0, 17.3):
        assert pmf.chernoff_tail_bound(t) == tail_bound_oracle(pmf, t)
    # M >= 0; the replaced scan got 1 too, unless exp(-alpha t) overflowed
    assert pmf.chernoff_tail_bound(-1.0) == 1.0


class TestLatticeCertificates:
    @given(pmf=negative_mean_pmfs())
    @settings(max_examples=60, deadline=None)
    def test_random_pmfs_bit_equal(self, pmf):
        assert_lattice_certificates_match(pmf)

    @pytest.mark.parametrize(
        "model,h",
        [
            (PolyExp(1.0, 2.0, math.log(4.0)), 0.05),
            (PolyExp(0.5, 3.0, 2.0), 0.1),
            (TwoPoint(1.0, 0.25, -1.0), 1.0),
            (TwoPoint(5.0, 0.05, -1.0), 1.0),
            (PointMass(-0.5), 0.25),
        ],
        ids=str,
    )
    def test_model_pmfs_bit_equal(self, model, h):
        assert_lattice_certificates_match(discretize(model, h))

    def test_empty_top_cells_do_not_overflow(self):
        # no mass above 0 but a grid reaching to 2: the true mgf is below 1 at
        # every twist, but exp(2 alpha) leaves the float range at alpha 354.9;
        # mgf reads inf from there on, which only shrinks the usable twists
        pmf = LatticePMF(h=1.0, k0=-1, probs=np.array([0.75, 0.25, 0.0, 0.0]))
        assert pmf.mgf(354.0) == pytest.approx(0.25, rel=1e-15)
        assert pmf.mgf(1e4) == math.inf
        assert 354.0 < pmf.chernoff_alpha_sup < 355.0
        assert pmf.chernoff_tail_bound(3.0) == 0.0  # e^{-3 alpha} underflows
        assert pmf.chernoff_tail_bound(-2.0) == 1.0


class TestTwistSup:
    @given(
        u=st.floats(0.05, 5.0),
        pu=st.floats(0.001, 0.95),
        v=st.floats(-3.0, -0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_point_laws_equal_the_200_step_bisection(self, u, pu, v):
        model = TwoPoint(u, pu, v)
        assume(model.mean() < 0)
        args = (model.mgf, model.mean(), u)
        assert twist_sup(*args) == twist_sup_oracle(*args)

    def test_stops_where_the_bisection_stalls(self):
        # the ends are adjacent floats after about 53 halvings of [1, 2]
        pmf = discretize(PolyExp(1.0, 2.0, math.log(4.0)), 0.02)
        calls = []

        def mgf(a):
            calls.append(a)
            return pmf.mgf(a)

        assert twist_sup(mgf, pmf.mean(), pmf.centers()[-1]) == alpha_sup_oracle(pmf)
        assert len(calls) < 60


# --- atomic max_tail_bound ---------------------------------------------------------


def atoms_of(model):
    if isinstance(model, PointMass):
        return [(model.v, 1.0)]
    return [(model.u, model.pu), (model.v, 1.0 - model.pu)]


class TestAtomicTailBound:
    @pytest.mark.parametrize("t", [3.0, 8.0, 20.0])
    @pytest.mark.parametrize(
        "model",
        [TwoPoint(1.0, 0.25, -1.0), TwoPoint(5.0, 0.05, -1.0), TwoPoint(1.0, 0.3, -1.5)],
        ids=str,
    )
    def test_within_1e3_above_the_continuous_optimum(self, model, t):
        ref = atom_chernoff_bound(atoms_of(model), t)
        got = model.max_tail_bound(t)
        assert ref <= got <= (1.0 + 1e-3) * ref

    @given(
        u=st.floats(0.05, 5.0),
        pu=st.floats(0.001, 0.95),
        v=st.floats(-3.0, -0.05),
        t=st.floats(0.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_two_point_laws(self, u, pu, v, t):
        assume(pu * u + (1.0 - pu) * v < 0)
        ref = atom_chernoff_bound([(u, pu), (v, 1.0 - pu)], t)
        assume(ref >= 1e-10)
        got = TwoPoint(u, pu, v).max_tail_bound(t)
        # scipy's bounded search stops within 1e-5 of its argmin, so its value
        # sits up to ~1e-9 above the true minimum that no scanned twist beats
        assert ref * (1.0 - 1e-8) <= got <= (1.0 + 1e-3) * ref

    @pytest.mark.parametrize("t", [-1.0, 0.0, 5.0])
    def test_no_mass_above_zero(self, t):
        for model in (PointMass(-0.5), TwoPoint(-0.1, 0.5, -1.0)):
            assert model.max_tail_bound(t) == atom_chernoff_bound(atoms_of(model), t)

    @pytest.mark.parametrize("model", [TwoPoint(1.0, 0.6, -1.0), PointMass(0.0)], ids=str)
    def test_nonnegative_mean_gets_the_trivial_bound(self, model):
        assert model.max_tail_bound(3.0) == 1.0
        with pytest.raises(ModelError, match="cannot certify bias"):
            model.slack_for_bias(1e-3)


# --- Monte Carlo stopping certificates ---------------------------------------------

MC_MODELS = [
    PolyExp(1.0, 2.0, math.log(4.0)),
    PolyExp(0.5, 3.0, 2.0),
    PolyExp(2.0, 1.5, 1.0),
    TwoPoint(1.0, 0.25, -1.0),
    TwoPoint(5.0, 0.05, -1.0),
    PointMass(-0.5),
]


def assert_slack_matches(model, c):
    try:
        expected = shifted_cross_slack_oracle(model, c)
    except EstimatorError:
        with pytest.raises(EstimatorError, match="no usable twist"):
            _shifted_cross_slack(model, c)
    else:
        assert _shifted_cross_slack(model, c) == expected


class TestMonteCarloCertificates:
    @pytest.mark.parametrize("model", MC_MODELS, ids=str)
    def test_fixed_models_bit_equal(self, model):
        for x, n_cut in ((2.0, 1), (10.0, 25), (40.0, 400)):
            assert _geometric_remainder(model, x, n_cut) == geometric_remainder_oracle(
                model, x, n_cut)
        for frac in (0.1, 0.5, 0.9):
            assert_slack_matches(model, frac * model.mean())

    @given(
        u=st.floats(0.05, 5.0),
        pu=st.floats(0.001, 0.95),
        v=st.floats(-3.0, -0.05),
        x=st.floats(0.5, 30.0),
        n_cut=st.integers(1, 200),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_two_point_laws_bit_equal(self, u, pu, v, x, n_cut, frac):
        model = TwoPoint(u, pu, v)
        assume(model.mean() < 0)
        assert _geometric_remainder(model, x, n_cut) == geometric_remainder_oracle(
            model, x, n_cut)
        assert_slack_matches(model, frac * model.mean())
