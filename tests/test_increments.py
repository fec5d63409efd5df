"""Distribution surfaces, samplers, and class diagnostics."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import exp1

from walkmax import (
    ModelError,
    PointMass,
    PolyExp,
    QuadratureError,
    TwoPoint,
    lgamma_diagnostic,
    parse_model,
    sgamma_diagnostic,
)
from walkmax import increments
from walkmax.increments import QUAD_ABS_TOL, _de_quad


def quad_mgf(model: PolyExp, alpha: float) -> float:
    """Independent oracle: direct density quadrature of E exp(alpha*xi).

    The exponent is assembled before exponentiating so the twisted integrand
    stays finite even where exp(alpha*x) alone would overflow.
    """

    def integrand(x):
        z = x + model.shift
        log_f = math.log(model.beta / (1 + z) + model.gamma) - model.beta * math.log1p(z)
        return math.exp(alpha * x - model.gamma * z + log_f)

    val, err = integrate.quad(
        integrand, -model.shift, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    assert err < 1e-9
    return val


class TestTail:
    def test_boundary_is_one(self, d0_model):
        assert d0_model.tail(0.0) == 1.0
        assert d0_model.tail(-0.5) == 1.0

    def test_closed_form_value(self, d0_model):
        # (1+1)^-2 * e^-1
        expected = 0.25 * math.exp(-1.0)
        assert d0_model.tail(1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0919699, abs=5e-8)

    def test_matches_density_quadrature(self, d0_model):
        val, err = integrate.quad(d0_model.pdf, 1.0, np.inf, epsabs=1e-13, limit=200)
        assert err < 1e-8  # quad reports a conservative estimate
        assert d0_model.tail(1.0) == pytest.approx(val, abs=1e-10)

    def test_pointmass_all_below(self, pm_model):
        assert pm_model.tail(0.0) == 0.0
        assert pm_model.tail(-2.0) == 1.0

    def test_twisted_tail_strictly_decreasing(self, ref_model):
        # exp(gamma*x) * tail(x) must shrink along the grid
        xs = np.linspace(0.0, 50.0, 40)
        vals = np.exp(ref_model.gamma * xs + np.asarray(ref_model.log_tail(xs)))
        assert np.all(np.diff(vals) < 0)

    @given(
        gamma=st.floats(0.2, 3.0),
        beta=st.floats(1.1, 4.0),
        shift=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_monotone_and_bounded(self, gamma, beta, shift):
        m = PolyExp(gamma, beta, shift)
        xs = np.linspace(-shift - 1.0, 40.0, 120)
        t = np.asarray(m.tail(xs))
        assert np.all(t >= 0) and np.all(t <= 1)
        assert np.all(np.diff(t) <= 1e-15)


class TestMgf:
    def test_closed_form_at_rate_unshifted(self, d0_model):
        assert d0_model.mgf(1.0) == pytest.approx(2.0, abs=1e-12)
        assert quad_mgf(d0_model, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_closed_form_at_rate_shifted(self, ref_model):
        assert ref_model.mgf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert ref_model.mgf_at_gamma == pytest.approx(0.5, abs=1e-15)

    def test_pointmass(self, pm_model):
        assert pm_model.mgf(0.7) == pytest.approx(math.exp(-0.7), abs=1e-15)

    def test_divergence_flag(self, ref_model):
        assert ref_model.mgf(1.5) == math.inf
        assert math.isfinite(ref_model.mgf(0.5))
        assert type(ref_model.mgf(0.5)) is float

    def test_atomic_past_float_range_is_inf(self):
        assert TwoPoint(40.0, 0.001, -1.0).mgf(20.0) == math.inf
        assert PointMass(2.0).mgf(400.0) == math.inf

    def test_at_zero_is_one_for_every_family(self, ref_model, tp_model, pm_model):
        for m in (ref_model, tp_model, pm_model):
            assert m.mgf(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_vs_closed_form_grid(self):
        for gamma in (0.5, 1.0, 2.0):
            for beta in (1.5, 2.0, 3.0):
                for shift in (0.5, 1.0, 2.0):
                    m = PolyExp(gamma, beta, shift)
                    assert m.mgf_at_gamma == pytest.approx(
                        quad_mgf(m, gamma), abs=1e-8
                    ), (gamma, beta, shift)

    def test_interior_alpha_quadrature_path(self, ref_model):
        got = ref_model.mgf(0.6)
        assert got == pytest.approx(quad_mgf(ref_model, 0.6), abs=1e-9)

    def test_negative_alpha_rejected(self, ref_model):
        with pytest.raises(ModelError):
            ref_model.mgf(-0.1)


class TestCertifiedTwist:
    """``certified_twist`` is the one refusal of a twisted moment phi >= 1."""

    def test_twist_and_moment(self, ref_model, tp_model):
        assert ref_model.certified_twist() == (1.0, ref_model.mgf_at_gamma)
        assert tp_model.certified_twist(0.9) == (0.9, tp_model.mgf(0.9))

    @pytest.mark.parametrize("gamma,fix", [(None, "a model"), (1.0, "a model or a lower --gamma")])
    def test_refuses_phi_at_least_one(self, d0_model, gamma, fix):
        # --gamma is named only where the caller chose the twist
        message = (f"twisted moment phi(1) = 2 is not below 1: no certified bound on the "
                   f"walk maximum; choose {fix} with phi < 1")
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            d0_model.certified_twist(gamma)

    def test_callers_refuse_through_it(self, d0_model):
        from walkmax import constants

        for call in (lambda: d0_model.max_tail_bound(1.0), lambda: constants(d0_model, None)):
            with pytest.raises(ModelError, match=r"^twisted moment phi\(1\) = 2 is not below 1"):
                call()


def laplace_closed_form(beta: int, s: float) -> float:
    """int_0^inf (1+y)^-beta exp(-s y) dy for integer beta: I_1(s) =
    e^s E1(s), then I_b = (1 - s I_{b-1}) / (b-1) by parts."""
    val = math.exp(s) * float(exp1(s))
    for b in range(2, beta + 1):
        val = (1.0 - s * val) / (b - 1)
    return val


class TestQuadrature:
    @pytest.mark.parametrize("beta", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0.05, 1.0, 2.0])
    def test_laplace_matches_closed_form(self, gamma, beta):
        m = PolyExp(gamma, float(beta), 0.0)
        for s in gamma * np.geomspace(1e-3, 1.0, 13):
            assert m._laplace(float(s)) == pytest.approx(
                laplace_closed_form(beta, float(s)), rel=1e-13
            ), s

    def test_small_rate_regression(self):
        # adaptive Gauss-Kronrod (scipy's quad) read 0.2497503738904802 here,
        # 9e-12 off while reporting 6.9e-14; reference value from mpmath
        m = PolyExp(1.0, 5.0, 0.0)
        assert m._laplace(0.003) == pytest.approx(0.249750373892720955, rel=1e-15)

    @pytest.mark.parametrize("model", [
        PolyExp(1.0, 2.0, math.log(4.0)),
        PolyExp(0.5, 3.0, 1.0),
        PolyExp(2.0, 1.5, 2.0),
    ], ids=str)
    def test_mgf_tends_to_the_closed_form_at_the_rate(self, model):
        gaps = [abs(model.mgf(model.gamma * (1.0 - 10.0**-k)) - model.mgf_at_gamma)
                for k in range(1, 11)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        # the gap shrinks like (gamma - alpha)^min(beta-1, 1), up to a log
        assert gaps[-1] < 1e-5

    def test_nan_rate_refuses(self, d0_model):
        with pytest.raises(QuadratureError, match="tail quadrature at rate nan"):
            d0_model._laplace(math.nan)

    def test_infinite_integrand_refuses(self):
        # an inverse square root pole at b rounds onto b: inf there is refused
        with pytest.raises(QuadratureError):
            _de_quad("pole", lambda y: 1.0 / np.sqrt(1.0 - y), 0.0, 1.0)

    @pytest.mark.parametrize("f,a,b,expected", [
        (np.log, 0.0, 1.0, -1.0),
        (lambda y: 1.0 / np.sqrt(y), 0.0, 1.0, 2.0),
        (lambda y: np.exp(-y), 2.0, math.inf, math.exp(-2.0)),
        (lambda y: 1.0 / (1.0 + y * y), 0.0, math.inf, math.pi / 2),
    ], ids=["log", "inv-sqrt", "exp", "cauchy"])
    def test_both_maps_on_known_integrals(self, f, a, b, expected):
        val, err = _de_quad("known", f, a, b)
        assert val == pytest.approx(expected, rel=1e-14)
        assert err <= QUAD_ABS_TOL


class TestConstruction:
    def test_rejects_bad_rate(self):
        with pytest.raises(ModelError):
            PolyExp(gamma=-1.0, beta=2.0)
        with pytest.raises(ModelError):
            PolyExp(gamma=1.0, beta=1.0)

    def test_subcritical_mean_is_negative(self, ref_model):
        assert ref_model.mean() < 0

    @given(
        gamma=st.floats(0.2, 3.0),
        beta=st.floats(1.1, 4.0),
        margin=st.floats(0.01, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_mean_bound_is_sound(self, gamma, beta, margin):
        # E eta <= min(1/(beta-1), 1/gamma), as the integrand of E eta is
        # below each factor alone; quadrature must never land above it
        shift = math.log1p(gamma / (beta - 1.0)) / gamma + margin  # subcritical
        m = PolyExp(gamma, beta, shift)
        assert m.mgf_at_gamma < 1.0
        assert m.mean() <= min(1.0 / (beta - 1.0), 1.0 / gamma) - shift + 1e-9

    def test_twopoint_validation(self):
        with pytest.raises(ModelError):
            TwoPoint(u=1.0, pu=1.5, v=-1.0)
        with pytest.raises(ModelError):
            TwoPoint(u=-1.0, pu=0.5, v=1.0)

    @pytest.mark.parametrize("build,field", [
        (lambda: PolyExp(gamma=math.inf, beta=2.0, shift=1.0), "gamma"),
        (lambda: PolyExp(gamma=1.0, beta=math.inf, shift=1.0), "beta"),
        (lambda: PointMass(v=math.nan), "v"),
        (lambda: TwoPoint(u=math.inf, pu=0.25, v=-1.0), "u"),
        (lambda: TwoPoint(u=1.0, pu=0.25, v=-math.inf), "v"),
    ], ids=["polyexp-gamma", "polyexp-beta", "pointmass-v", "twopoint-u", "twopoint-v"])
    def test_non_finite_field_refused(self, build, field):
        # built directly, not only through a spec string
        with pytest.raises(ModelError, match=f"field '{field}' must be finite"):
            build()


class TestParse:
    def test_round_trip(self, ref_model, tp_model, pm_model):
        for m in (ref_model, tp_model, pm_model):
            again = parse_model(m.spec_string())
            assert again.spec_string() == m.spec_string()

    def test_shift_defaults_to_zero(self):
        m = parse_model("polyexp:beta=2,gamma=1")
        assert m == PolyExp(1.0, 2.0)
        assert m.spec_string() == "polyexp:gamma=1,beta=2,shift=0"

    def test_reference_spec(self):
        m = parse_model("polyexp:gamma=1,beta=2,shift=1.3862943611198906")
        assert isinstance(m, PolyExp)
        assert m.mgf_at_gamma == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            "polyexp",
            "polyexp:gamma=1",
            "polyexp:gamma=oops,beta=2",
            "mystery:a=1",
            "twopoint:u=1,pu=0.25",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ModelError):
            parse_model(bad)

    @pytest.mark.parametrize(
        "spec,field",
        [
            ("polyexp:gamma=1,beta=2,shift=1.3862943611198906,bta=7", "bta"),
            ("twopoint:u=1,pu=0.25,v=-1,u=5", "u"),
            ("pointmass:v=nan", "v"),
            ("polyexp:gamma=inf,beta=2,shift=1", "gamma"),
        ],
        ids=["unknown", "repeated", "nan", "inf"],
    )
    def test_field_refused(self, spec, field):
        with pytest.raises(ModelError, match=f"field '{field}'"):
            parse_model(spec)


class TestSampling:
    def test_pointmass_constant(self, pm_model):
        rng = np.random.default_rng(7)
        assert np.all(pm_model.sample(rng, 100) == -1.0)

    def test_unshifted_mean_matches_quadrature(self, d0_model):
        # analytic mean of eta by quadrature; 1e6 draws within 4 stderr
        mean, err = integrate.quad(
            lambda y: (1 + y) ** -2 * math.exp(-y), 0, np.inf, epsabs=1e-12
        )
        assert err < 1e-8
        rng = np.random.default_rng(2024)
        draws = d0_model.sample(rng, 10**6)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 4 * stderr

    def test_twopoint_frequency(self, tp_model):
        rng = np.random.default_rng(5)
        draws = tp_model.sample(rng, 10**6)
        p_hat = float(np.mean(draws == 1.0))
        stderr = math.sqrt(0.25 * 0.75 / draws.size)
        assert abs(p_hat - 0.25) < 4 * stderr

    def test_inverse_tail_round_trip(self, ref_model):
        for p in (0.9, 0.1, 1e-4, 1e-12, 1e-200):
            x = ref_model.inverse_tail(p)
            assert float(ref_model.tail(x)) == pytest.approx(p, rel=1e-10)

    def test_kolmogorov_smirnov(self, ref_model):
        rng = np.random.default_rng(11)
        draws = ref_model.sample(rng, 10**5)
        stat = stats.kstest(draws, lambda x: np.asarray(ref_model.cdf(x))).statistic
        # 1% critical value of the one-sample statistic
        assert stat < 1.6276 / math.sqrt(draws.size)


def newton_from_zero(model: PolyExp, t: np.ndarray) -> np.ndarray:
    """Oracle for ``PolyExp.inverse_tail``: plain Newton from y=0 over the
    whole array, with fresh arrays each sweep, until every residual is within
    1e-13, or four float spacings of max |t| where those are coarser."""
    tol = max(1e-13, 4.0 * float(np.spacing(np.abs(t).max(initial=0.0))))
    y = np.zeros_like(t)
    for _ in range(200):
        resid = (-model.beta * np.log1p(y) - model.gamma * y) - t
        if np.all(np.abs(resid) <= tol):
            return y
        step = resid / (model.beta / (1.0 + y) + model.gamma)
        y = y + np.maximum(step, 0.0)
    raise QuadratureError("tail inversion stalled", float(np.abs(resid).max()))


def subcritical(gamma: float, beta: float, margin: float) -> PolyExp:
    return PolyExp(gamma, beta, math.log1p(gamma / (beta - 1.0)) / gamma + margin)


class TestInverseTail:
    """``inverse_tail`` sets every span edge, so each value must equal plain
    Newton from y=0 on its own, bit for bit."""

    @given(
        gamma=st.floats(0.2, 3.0),
        beta=st.floats(1.1, 4.0),
        margin=st.floats(0.01, 3.0),
        t=st.lists(st.floats(-745.0, 0.0), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_log_tail_matches_newton_from_zero(self, gamma, beta, margin, t):
        m = subcritical(gamma, beta, margin)
        for log_p in t:
            p = math.exp(log_p)
            if p > 0.0:
                want = newton_from_zero(m, np.array([math.log(p)]))[0] - m.shift
                assert m.inverse_tail(p).hex() == want.hex(), p

    # this deep, a 1e-13 stop rule is finer than the float spacing of t and
    # the inversion used to stall
    def test_deep_inverse_tail_converges(self):
        m = PolyExp(1.0, 1.5, math.log(3.0) + 1.0)
        assert float(m.tail(m.inverse_tail(1e-255))) == pytest.approx(1e-255, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan])
    def test_probability_outside_unit_interval_refuses(self, ref_model, p):
        with pytest.raises(ModelError):
            ref_model.inverse_tail(p)


class TestExactSampler:
    """eta = min(Lomax(beta), Exp(gamma)) from two exponential variates."""

    @pytest.mark.parametrize("size", [0, 1, 17, 65536])
    def test_one_call_for_two_variates_per_draw(self, ref_model, size):
        # the stream layout: sample(rng, n) advances the generator exactly as
        # one call for 2n standard exponentials does
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        draws = ref_model.sample(rng, size)
        e = twin.standard_exponential(2 * size)
        assert rng.bit_generator.state == twin.bit_generator.state
        want = np.minimum(np.expm1(e[:size] / ref_model.beta), e[size:] / ref_model.gamma)
        assert draws.tobytes() == (want - ref_model.shift).tobytes()

    @given(
        gamma=st.floats(0.2, 3.0),
        beta=st.floats(1.1, 4.0),
        margin=st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_finite_and_above_the_support_edge(self, gamma, beta, margin, seed):
        m = subcritical(gamma, beta, margin)
        draws = m.sample(np.random.default_rng(seed), 4096)
        assert draws.shape == (4096,)
        assert np.all(np.isfinite(draws)) and np.all(draws >= -m.shift)

    @pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4])
    def test_exceedance_frequencies(self, ref_model, p):
        n = 10**6
        draws = ref_model.sample(np.random.default_rng(17), n)
        freq = float(np.mean(draws > ref_model.inverse_tail(p)))
        assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / n), freq


class TestShiftedTailRatio:
    def test_zero_shift_is_exact(self, ref_model):
        diag = lgamma_diagnostic(ref_model, [0.0], [10.0, 100.0])
        for row in diag.rows:
            assert row["deviation"] == pytest.approx(0.0, abs=1e-14)
        # a deviation at rounding level may stay there
        assert diag.passed

    def test_large_x_deviation(self, d0_model):
        # at x = 1e4, k = 1: ratio = e * ((1+x)/x)^2, deviation = e*(2e-4 + 1e-8)
        diag = lgamma_diagnostic(d0_model, [1.0], [1e4])
        expected = math.e * ((10001.0 / 10000.0) ** 2 - 1.0)
        # the log-domain path pays ~x*eps in the exponent difference
        assert diag.rows[0]["deviation"] == pytest.approx(expected, rel=1e-6)
        assert diag.summary < 1e-3
        assert diag.passed  # one probe has nothing to decrease against

    def test_log_domain_far_probe(self, d0_model):
        # x = 1e4 underflows exp(-x); the ratio must still be finite and close
        diag = lgamma_diagnostic(d0_model, [2.0], [1e4])
        assert math.isfinite(diag.rows[0]["ratio"])
        assert diag.rows[0]["ratio"] == pytest.approx(math.exp(2.0), rel=1e-3)

    @pytest.mark.parametrize("spec", ["polyexp:gamma=1,beta=2,shift=1.3862943611198906",
                                      "polyexp:gamma=1,beta=3,shift=0.8"])
    def test_shrinking_deviations_pass(self, spec):
        diag = lgamma_diagnostic(parse_model(spec), [0.5, 1.0, 2.0], [20.0, 40.0, 80.0])
        assert diag.passed

    def test_probes_below_the_support_fail(self):
        # every x - k lies below the left end 1000: each ratio reads 1, so
        # each deviation stays at 1 - e^k whatever x is
        model = parse_model("polyexp:gamma=1,beta=2,shift=-1000")
        diag = lgamma_diagnostic(model, [0.5, 1.0, 2.0], [20.0, 40.0, 80.0])
        assert [r["deviation"] for r in diag.rows] == pytest.approx(
            [1.0 - math.exp(k) for k in (0.5, 1.0, 2.0) for _ in range(3)], rel=1e-12)
        assert not diag.passed

    def test_lattice_family_flagged(self, tp_model):
        diag = lgamma_diagnostic(tp_model, [1.0], [10.0])
        assert diag.not_in_class
        assert diag.rows == []


class TestMiddleBandMass:
    def lattice_band_oracle(self, model, x, h_choice="quarter", cells=200_000):
        """Independent oracle: midpoint sum of the band integral on a fine grid."""
        lo = increments.band_h(h_choice, x)
        h = (x - 2.0 * lo) / cells
        ys = lo + (np.arange(cells) + 0.5) * h
        f = np.asarray(model.pdf(ys))
        t = np.exp(np.asarray(model.log_tail(x - ys)) - float(model.log_tail(x)))
        return float((f * t).sum() * h)

    def test_decreasing_and_oracle_match(self, d0_model):
        diag = sgamma_diagnostic(d0_model, "quarter", [20.0, 40.0, 80.0])
        vals = [r["integral"] for r in diag.rows]
        assert diag.passed
        assert vals[0] > vals[1] > vals[2]
        # frozen from the grid oracle; quadrature must agree
        assert vals[1] == pytest.approx(self.lattice_band_oracle(d0_model, 40.0), rel=2e-3)
        assert vals[2] == pytest.approx(0.11773, rel=1e-3)

    @pytest.mark.parametrize("h_choice", ["quarter", "sqrt"])
    def test_every_level_matches_the_grid_oracle(self, d0_model, h_choice):
        diag = sgamma_diagnostic(d0_model, h_choice, [20.0, 40.0, 80.0])
        for row in diag.rows:
            oracle = self.lattice_band_oracle(d0_model, row["x"], h_choice)
            # the midpoint sum is off by O(cell^2), about 1e-8 here
            assert row["integral"] == pytest.approx(oracle, rel=1e-7), row
            assert row["error"] <= QUAD_ABS_TOL

    def test_overflowing_ratio_refuses_in_its_row(self, ref_model):
        # tail(x-y)/tail(x) passes the float range inside the band at x=2000:
        # that level gets an error row, quietly, and the others keep values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = sgamma_diagnostic(ref_model, "quarter", [20.0, 40.0, 2000.0])
        assert [r["integral"] is None for r in diag.rows] == [False, False, True]
        assert diag.rows[2]["error"] == (
            "middle-band quadrature at x=2000 did not converge (achieved tolerance nan)"
        )
        assert diag.summary == diag.rows[1]["integral"]

    def test_pointmass_band_is_empty(self, pm_model):
        diag = sgamma_diagnostic(pm_model, "quarter", [20.0, 40.0])
        assert diag.not_in_class
        assert all(r["integral"] == 0.0 for r in diag.rows)

    def test_band_choices_agree_on_verdict(self, d0_model):
        grid = [20.0, 40.0, 80.0]
        d1 = sgamma_diagnostic(d0_model, "quarter", grid)
        d2 = sgamma_diagnostic(d0_model, "sqrt", grid)
        assert d1.passed == d2.passed

    def test_bad_band_choice(self, d0_model):
        with pytest.raises(ModelError):
            sgamma_diagnostic(d0_model, "third", [20.0])
