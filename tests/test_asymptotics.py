"""Predicted constants and convergence verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from walkmax import (
    Bracket,
    LatticePMF,
    ModelError,
    PointMass,
    PolyExp,
    QuadratureError,
    constants,
    convolve,
    convergence_report,
    convolution_prediction,
    discretize,
    finite_constant,
    lambda_partial_sums,
    lindley_fixed_point,
    local_constant,
    parse_model,
    stopped_constant,
    stopped_max_sigma1,
)
from walkmax.asymptotics import AsymptoticConstants
from walkmax.cli import _report_rows, constants_pipeline
from walkmax.increments import IncrementModel
from walkmax.lattice import LatticeError

from conftest import ORACLE_TOP, sum_laws


def degenerate_consts(gamma: float = 1.0, phg: float = 0.5) -> AsymptoticConstants:
    """Constants for a walk whose maximum is identically 0."""
    one = Bracket(1.0, 1.0, 1.0)
    c = 1.0 / (1.0 - phg)
    return AsymptoticConstants(
        gamma=gamma,
        phg=phg,
        exp_moment_m=one,
        constant=Bracket(c, c, c),
        c_lo=c,
        c_hi=c * c,
    )


class TestConstants:
    def test_degenerate_pointmass(self, pm_model):
        law = lindley_fixed_point(discretize(pm_model, 1.0), top=40.0)
        # with twist log 2 the twisted increment moment is exactly 1/2
        consts = constants(pm_model, law, gamma=math.log(2.0))
        assert consts.phg == pytest.approx(0.5, abs=1e-15)
        assert consts.constant.value == pytest.approx(2.0, abs=1e-9)

    def test_apriori_bounds(self, ref_consts):
        assert (ref_consts.c_lo, ref_consts.c_hi) == (2.0, 4.0)
        assert 2.0 < ref_consts.constant.lo
        assert ref_consts.constant.hi < 4.0

    def test_reference_value(self, ref_consts):
        assert ref_consts.phg == pytest.approx(0.5, abs=1e-12)
        # twice the twisted maximum moment
        assert ref_consts.constant.value == pytest.approx(
            2.0 * ref_consts.exp_moment_m.value, rel=1e-15
        )

    def test_supercritical_refused(self, d0_model, ref_law):
        with pytest.raises(ModelError):
            constants(d0_model, ref_law)

    def test_lattice_family_needs_explicit_rate(self, tp_model, tp_law):
        with pytest.raises(ModelError):
            constants(tp_model, tp_law)


class PollaczekKhinchine(IncrementModel):
    """xi = eta - T with eta = PolyExp(1, 2, 0) and T ~ Exp(lam) independent:
    M is the M/G/1 waiting time, and E e^{gM} = (1-rho) g / ((lam+g)(1-phi(g)))
    with rho = lam E eta and phi(g) = E e^{g eta} lam/(lam+g) (Embrechts and
    Veraverbeke, Insurance Math. Econ. 1, 1982), so C is closed-form."""

    decay_rate = 1.0

    def __init__(self, lam: float):
        self.lam = lam
        self.eta = PolyExp(1.0, 2.0, 0.0)

    def mgf(self, alpha: float) -> float:
        return self.eta.mgf(alpha) * self.lam / (self.lam + alpha)

    def exact_constant(self) -> float:
        g, phi = self.decay_rate, self.mgf(self.decay_rate)
        return (1.0 - self.lam * self.eta.mean()) * g / ((self.lam + g) * (1.0 - phi) ** 2)

    def pmf(self, h: float) -> LatticePMF:
        """discretize(eta) convolved with -T binned on the same cells (-T in
        cell k < 0 iff T in [(-k-1/2)h, (-k+1/2)h)); T past 1e-16 folds into
        the lowest cell."""
        k_lo = -math.ceil(math.log(1e16) / self.lam / h)
        k = np.arange(k_lo, 1)
        cdf_hi = -np.expm1(-self.lam * (0.5 - k) * h)
        cdf_lo = -np.expm1(-self.lam * np.maximum(-0.5 - k, 0.0) * h)
        probs = cdf_hi - cdf_lo
        probs[0] += 1.0 - cdf_hi[0]
        return convolve(discretize(self.eta, h), LatticePMF(h=h, k0=k_lo, probs=probs))


class TestOutsideGate:
    @pytest.mark.parametrize("lam,phi,exact", [(1 / 3, 0.5, 2.596347),
                                               (0.75, 0.857, 19.523295)])
    def test_pollaczek_khinchine_constant(self, lam, phi, exact):
        model = PollaczekKhinchine(lam)
        assert model.mgf(1.0) == pytest.approx(phi, abs=5e-4)
        assert model.exact_constant() == pytest.approx(exact, abs=5e-7)
        law = lindley_fixed_point(model.pmf(0.02), top=75.0)
        c = constants(model, law).constant
        assert c.value == pytest.approx(model.exact_constant(), rel=5e-5)


@given(gamma=st.floats(0.5, 2.0), beta=st.floats(1.2, 5.0), phi=st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_random_subcritical_constant_in_apriori_enclosure(gamma, beta, phi):
    # the shift that puts the twisted moment at phi
    phi0 = PolyExp(gamma, beta, 0.0).mgf(gamma)
    model = PolyExp(gamma, beta, math.log(phi0 / phi) / gamma)
    try:
        _, _, consts = constants_pipeline(model, h=0.05)
    except (ModelError, LatticeError, QuadratureError):
        return
    c = consts.constant
    assert consts.c_lo <= c.lo <= c.value <= c.hi <= consts.c_hi


class TestLocalConstant:
    def test_infinite_window_recovers_constant(self, ref_consts):
        assert local_constant(ref_consts, math.inf).value == pytest.approx(
            ref_consts.constant.value, rel=1e-15
        )

    def test_half_window_arithmetic(self):
        consts = degenerate_consts(gamma=1.0, phg=0.5)
        got = local_constant(consts, math.log(2.0))
        assert got.value == pytest.approx(1.0, abs=1e-14)  # 2 * (1 - 1/2)

    def test_window_composition_identity(self, ref_consts):
        g = ref_consts.gamma
        for t1, t2 in [(0.5, 0.5), (1.0, 2.0), (0.25, 3.0)]:
            lhs = (
                local_constant(ref_consts, t1).value
                + math.exp(-g * t1) * local_constant(ref_consts, t2).value
            )
            rhs = local_constant(ref_consts, t1 + t2).value
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bad_window(self, ref_consts):
        with pytest.raises(ModelError):
            local_constant(ref_consts, 0.0)


class TestFiniteConstant:
    def test_single_step_is_one(self, ref_consts, ref_boundary):
        fc, = finite_constant(ref_consts, [1], ref_boundary)
        assert fc.value == pytest.approx(1.0, abs=1e-15)

    def test_two_step_against_direct_quadrature(self, ref_model, ref_consts, ref_boundary):
        # horizon-2 value is E e^{g M_1} + phg * E e^{g M_0}; the one-step
        # maximum is xi^+, so its moment is P(xi <= 0) + E[e^{g xi}; xi > 0]
        # over the model's whole tail, past the grid's span edge too
        def integrand(x):
            return math.exp(ref_model.gamma * x) * float(ref_model.pdf(x))

        pos, err = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, limit=500)
        assert err < 1e-9
        e_m1 = float(ref_model.cdf(0.0)) + pos
        fc, = finite_constant(ref_consts, [2], ref_boundary)
        assert fc.value == pytest.approx(e_m1 + ref_consts.phg, rel=1e-3)

    def test_monotone_and_bounded_by_limit(self, ref_consts, ref_boundary):
        Ns = [0, 1, 2, 5, 10, 20, 40, 80]
        vals = [fc.value for fc in finite_constant(ref_consts, Ns, ref_boundary)]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        c = ref_consts.constant.value
        assert all(v <= c + 1e-9 for v in vals)

    def test_geometric_remainder(self, ref_consts, ref_boundary):
        # C - fc(N) <= phg^N/(1-phg) * (N + E e^{gM}): the N-linear factor
        # covers the horizon-truncated moments (each one obeys
        # E e^{gM} - E e^{gM_k} <= phg^{k+1}/(1-phg) by the union bound)
        Ns = [2, 5, 10, 20, 50]
        for N, fc in zip(Ns, finite_constant(ref_consts, Ns, ref_boundary)):
            gap = ref_consts.constant.value - fc.value
            bound = (
                ref_consts.phg**N
                / (1 - ref_consts.phg)
                * (N + ref_consts.exp_moment_m.value)
            )
            assert -5e-11 <= gap <= bound + 2e-11

    def test_missing_laws(self, ref_consts, ref_boundary):
        # rows 0 ... N-2 are read: 101 rows serve N = 102, not N = 103
        assert len(finite_constant(ref_consts, [len(ref_boundary) + 1], ref_boundary)) == 1
        with pytest.raises(ModelError, match="need boundary terms for horizons 0..101"):
            finite_constant(ref_consts, [len(ref_boundary) + 2], ref_boundary)
        with pytest.raises(ModelError, match="need N >= 0"):
            finite_constant(ref_consts, [3, -1], ref_boundary)


class TestStoppedConstant:
    def test_constant_overshoot_factor(self):
        consts = degenerate_consts(gamma=1.0, phg=0.5)
        # overshoot identically 1: factor (1 - e^{-1})
        law = lindley_fixed_point(discretize(PointMass(-1.0), 1.0), top=40.0)
        stopped = stopped_max_sigma1(law, [0.5], 1.0)
        got = stopped_constant(consts, stopped)
        assert got.value == pytest.approx((1 - math.exp(-1.0)) * 2.0, abs=1e-10)

    def test_reference_regime(self, ref_law, ref_consts):
        stopped = stopped_max_sigma1(ref_law, [5.0], ref_consts.gamma)
        got = stopped_constant(ref_consts, stopped)
        assert 0.0 < got.value < ref_consts.constant.value
        assert got.lo < got.value < got.hi

    def test_bracket_is_two_sided_around_the_overshoot_moment(self, ref_consts, ref_law):
        # the residual widens E e^{-gamma chi} on both sides before C's own bracket
        stopped = dataclasses.replace(stopped_max_sigma1(ref_law, [5.0], 1.0), residual=1e-3)
        e, c = stopped.chi.mgf(-1.0), ref_consts.constant
        got = stopped_constant(ref_consts, stopped)
        assert got.lo == pytest.approx((1.0 - e - 1e-3) * c.lo, rel=1e-14, abs=0.0)
        assert got.hi == pytest.approx((1.0 - e + 1e-3) * c.hi, rel=1e-14, abs=0.0)


class TestLambdaPartialSums:
    def test_first_term(self, ref_consts, ref_pmf, ref_law):
        rows = lambda_partial_sums(ref_consts, 1, [5.0], [ref_pmf_delta()], ref_law)
        expected = 1.0 - ref_law.tail(5.0) * math.exp(5.0)
        assert rows[0]["lambda"] == pytest.approx(expected, rel=1e-12)

    def test_first_term_approaches_one(self, ref_consts, ref_pmf, ref_law):
        rows = lambda_partial_sums(
            ref_consts, 1, [5.0, 15.0, 25.0], [ref_pmf_delta()], ref_law
        )
        lams = [r["lambda"] for r in rows]
        assert lams[0] < lams[1] < lams[2] < 1.0
        assert lams[2] == pytest.approx(1.0, abs=1e-3)

    def test_rows_below_geometric_sum(self, ref_consts, ref_pmf, ref_law):
        steps = sum_laws(ref_pmf, 9)
        rows = lambda_partial_sums(
            ref_consts, 10, [25.0], [ref_pmf_delta()] + steps, ref_law
        )
        for r in rows:
            assert r["partial_sum"] <= r["geometric_sum"] * (1 + 1e-6)

    def test_threshold_beyond_span_refused(self, ref_consts, ref_pmf, ref_law):
        with pytest.raises(ModelError):
            lambda_partial_sums(
                ref_consts, 2, [500.0], [ref_pmf_delta(), ref_pmf], ref_law
            )


def ref_pmf_delta():
    """Law of the zero partial sum: unit mass at the origin cell."""
    from walkmax import LatticePMF

    return LatticePMF(h=0.01, k0=0, probs=np.array([1.0]))


class TestConvolutionPrediction:
    # n * phg^(n-1) is exact in binary at phg = 1/2
    def test_single(self, ref_model):
        assert convolution_prediction(ref_model, 1) == 1.0

    def test_identical_pair(self, ref_model):
        assert convolution_prediction(ref_model, 2) == 1.0

    def test_identical_triple(self, ref_model):
        assert convolution_prediction(ref_model, 3) == 0.75

    def test_infinite_moment_refused(self, d0_model, ref_model):
        with pytest.raises(ModelError, match="infinite twisted moment"):
            convolution_prediction(ref_model, 1, gamma=2.0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_summand_refused(self, ref_model, n):
        with pytest.raises(ModelError, match="at least one summand"):
            convolution_prediction(ref_model, n)

    def test_matches_the_component_formula(self):
        # the general prod_i phg_i * sum_i c_i / phg_i with n unit components
        for spec in ("twopoint:u=1,pu=0.25,v=-1", "pointmass:v=-0.5"):
            m = parse_model(spec)
            phg = m.mgf(0.9)
            for n in range(1, 8):
                general = phg**n * (n / phg)
                assert convolution_prediction(m, n, gamma=0.9) == pytest.approx(
                    general, rel=1e-15)


class TestConvergenceReport:
    def test_exact_match(self):
        rows = [(x, 2.0) for x in (1.0, 2.0, 3.0)]
        rep = convergence_report(2.0, rows)
        assert rep.verdict == "converging"
        assert rep.final_dev == 0.0

    def test_one_over_x_converges(self):
        rows = [(x, 2.0 * (1 + 1 / x)) for x in (10.0, 20.0, 40.0, 80.0)]
        rep = convergence_report(2.0, rows)
        assert rep.verdict == "converging"

    def test_oscillation_not_converging(self):
        rows = [(x, 2.0 * (1 + math.sin(x))) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
        rep = convergence_report(2.0, rows)
        assert rep.verdict in ("inconclusive", "diverging")

    def test_diverging(self):
        rows = [(x, 2.0 * (1 + 0.01 * x)) for x in (1.0, 2.0, 3.0)]
        rep = convergence_report(2.0, rows)
        assert rep.verdict == "diverging"

    def test_needs_three_points(self):
        with pytest.raises(ModelError):
            convergence_report(2.0, [(1.0, 2.0), (2.0, 2.0)])

    def test_rejects_nonpositive_measured(self):
        with pytest.raises(ModelError):
            convergence_report(2.0, [(1.0, 2.0), (2.0, -1.0), (3.0, 2.0)])

    def test_zero_measured_is_a_row_that_cannot_converge(self):
        # deviations 4, 2, 1 fall and an unbounded tolerance admits the last,
        # but a level with no measurement is no evidence of convergence
        rep = convergence_report(2.0, [(1.0, 10.0), (2.0, 6.0), (3.0, 0.0)],
                                 tol=math.inf, provenance="mc")
        assert rep.rows[-1] == {"x": 3.0, "measured": 0.0, "ratio": 0.0, "dev": 1.0}
        assert rep.verdict == "inconclusive"

    def test_zero_oracle_value_is_refused_with_the_grid_top(self):
        # an oracle reads 0 only past its grid top
        with pytest.raises(LatticeError, match=r"x = 3 is 0 on the grid \(top 2.5\)"):
            convergence_report(2.0, [(1.0, 2.0), (2.0, 2.0), (3.0, 0.0)], top=2.5)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ModelError):
            convergence_report(2.0, [(2.0, 2.0), (1.0, 2.0), (3.0, 2.0)])

    def test_csv_rows_carry_prediction(self):
        rows = [(x, 2.0) for x in (1.0, 2.0, 3.0)]
        rep = convergence_report(2.0, rows)
        assert all(r["predicted"] == 2.0 for r in _report_rows(rep))
