"""Grid oracle: discretization, convolution, reflected recursion, stopping."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmax import (
    LatticeError,
    PolyExp,
    TwoPoint,
    convolve,
    discretize,
    exp_moment,
    finite_horizon,
    lindley_fixed_point,
    stopped_max_sigma1,
)
from walkmax import asymptotics, finite_constant, lattice
from walkmax.lattice import (CONV_BLOCK, Bracket, LatticePMF, _direct_conv, _sweep,
                             boundary_term, horizon_pass)

from conftest import ORACLE_TOP, TP_TOP, sum_laws


class TestDiscretize:
    def test_pointmass_single_bin(self, pm_model):
        pmf = discretize(pm_model, 1.0)
        assert pmf.k0 == -1
        assert pmf.probs.tolist() == [1.0]

    def test_normalization(self, ref_pmf):
        assert ref_pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(ref_pmf.probs >= 0)

    def test_mean_within_half_cell_rule(self, ref_model):
        for h in (0.02, 0.01):
            pmf = discretize(ref_model, h)
            assert abs(pmf.mean() - ref_model.mean()) <= h

    def test_refuses_large_fold(self, ref_model):
        with pytest.raises(LatticeError):
            discretize(ref_model, 0.01, span=(-ref_model.shift, 3.0))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -0.01, 0.0])
    def test_refuses_bad_step(self, ref_model, h):
        with pytest.raises(LatticeError, match="grid step must be positive and finite"):
            discretize(ref_model, h)
        with pytest.raises(LatticeError, match="grid step must be positive and finite"):
            LatticePMF(h=h, k0=0, probs=np.ones(1))

    @pytest.mark.parametrize("h", [1e-300, 5e-324, 1e-6])
    def test_refuses_step_beyond_cell_limit(self, ref_model, h):
        with pytest.raises(LatticeError, match=r"grid step .* cells .* limit of 10000000"):
            discretize(ref_model, h)

    @pytest.mark.parametrize("run", [
        lambda pmf, top: lindley_fixed_point(pmf, top=top),
        lambda pmf, top: finite_horizon(pmf, 1, top=top),
        lambda pmf, top: stopped_max_sigma1(lindley_fixed_point(pmf, top=top), [1.0], 0.9),
        lambda pmf, top: lattice.bigjump_flow(pmf, barrier=top, jump_level=top + 1.0,
                                              gamma=0.9),
    ], ids=["fixed-point", "finite-horizon", "stopped", "bigjump"])
    def test_refuses_maximum_grid_beyond_cell_limit(self, tp_pmf, run):
        # one cell past the limit: 80 MB, were it allocated
        top = lattice.MAX_CELLS * tp_pmf.h
        with pytest.raises(LatticeError, match=r"grid step 1 needs about .* cells "
                                               r"(up to the grid top|on the window .*) "
                                               r"1e\+07\]?, above the limit of 10000000"):
            run(tp_pmf, top)

    def test_tail_interpolation_matches_model(self, ref_model, ref_pmf):
        for x in (0.0, 1.0, 5.0, 10.0):
            assert ref_pmf.tail(x) == pytest.approx(float(ref_model.tail(x)), rel=2e-3)

    def test_tail_of_an_array_is_the_tail_of_each_level(self, ref_pmf, tp_law):
        for law, xs in [(ref_pmf, [-math.inf, -99.0, -1.0, 0.0, 5.0, 26.0, 99.0, math.inf]),
                        (tp_law, [-1.0, -0.2, 0.0, 0.5, 3.2, 1e3, math.inf])]:
            assert law.tail(np.array(xs)).tolist() == [law.tail(x) for x in xs]
            assert law.tail(math.inf) == 0.0
            with pytest.raises(LatticeError, match="tail level is nan"):
                law.tail(np.array([1.0, math.nan]))


class TestConvolve:
    def test_pointmass_pair(self, pm_model):
        pmf = discretize(pm_model, 1.0)
        out = convolve(pmf, pmf)
        assert out.k0 == -2
        assert out.probs.tolist() == [1.0]

    def test_twopoint_square_is_binomial(self, tp_pmf):
        out = convolve(tp_pmf, tp_pmf)
        # atoms at -2, 0, +2 with binomial(2, 1/4) masses
        got = {k: p for k, p in zip(out.k0 + np.arange(out.probs.size), out.probs) if p > 0}
        assert got[-2] == pytest.approx(9 / 16, abs=1e-15)
        assert got[0] == pytest.approx(6 / 16, abs=1e-15)
        assert got[2] == pytest.approx(1 / 16, abs=1e-15)

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_mass_is_the_product_of_the_input_masses(self, ref_model, h):
        # nothing is renormalized: each bin of nonnegative products is exact
        # within n unit roundoffs, n the shorter input's length
        a = discretize(ref_model, h)
        b = sum_laws(a, 3)[-1]
        got = math.fsum(convolve(a, b).probs)
        want = math.fsum(a.probs) * math.fsum(b.probs)
        assert abs(got - want) <= a.probs.size * 2.0**-52 * want

    def test_step_mismatch(self, tp_pmf, ref_pmf):
        with pytest.raises(LatticeError):
            convolve(tp_pmf, ref_pmf)


def fsum_conv(a, b) -> list[float]:
    """Reference convolution: each bin's products summed exactly."""
    return [
        math.fsum(float(a[k]) * float(b[n - k])
                  for k in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1))
        for n in range(len(a) + len(b) - 1)
    ]


class TestDirectConv:
    # magnitudes 10**-250 .. 1, with exact zeros; lengths up to three blocks
    # and a bit, so partial blocks and every diagonal count are drawn
    vectors = st.lists(
        st.one_of(st.just(0.0), st.floats(-250.0, 0.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=3 * CONV_BLOCK + 5,
    )

    @given(a=vectors, b=vectors)
    @settings(max_examples=60, deadline=None)
    def test_every_bin_keeps_relative_accuracy(self, a, b):
        got = _direct_conv(np.array(a), np.array(b))
        want = np.array(fsum_conv(a, b))
        assert got.shape == want.shape
        # n nonnegative products summed in any order: relative error below
        # n unit roundoffs each side; products below the normal range carry
        # an absolute error of up to half the smallest subnormal instead
        n = min(len(a), len(b))
        assert np.all(np.abs(got - want) <= n * 2.0**-52 * want + n * 2.0**-1074)

    def test_dyadic_inputs_are_exact(self):
        # 4-bit values: every product and every sum of up to 200 of them is
        # exact, so any order gives the same bits
        rng = np.random.default_rng(5)
        for la, lb in [(1, 1), (200, 1), (150, 70), (CONV_BLOCK, CONV_BLOCK + 1), (3, 400)]:
            a = rng.integers(0, 16, la) / 16.0
            b = rng.integers(0, 16, lb) / 16.0
            got = _direct_conv(a, b)
            assert np.array_equal(got, np.convolve(a, b))
            assert got.tolist() == fsum_conv(a, b)

    @staticmethod
    def zero_ends(draw, values):
        """``values`` with a drawn run of exact zeros at each end."""
        lead, trail = draw(st.integers(0, 2 * CONV_BLOCK)), draw(st.integers(0, 2 * CONV_BLOCK))
        return [0.0] * lead + values + [0.0] * trail

    @staticmethod
    def draw_window(draw, n):
        """A half-open bin range, possibly empty or running past either end
        of the ``n`` bins, and the bins it holds."""
        ends = st.integers(-CONV_BLOCK - 2, n + CONV_BLOCK + 2)
        lo, hi = sorted(draw(st.tuples(ends, ends)))
        return (lo, hi), slice(max(lo, 0), max(hi, 0))

    @given(a=vectors, b=vectors, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_formed_bins_keep_relative_accuracy(self, a, b, data):
        a, b = self.zero_ends(data.draw, a), self.zero_ends(data.draw, b)
        window, bins = self.draw_window(data.draw, len(a) + len(b) - 1)
        got = _direct_conv(np.array(a), np.array(b), window)
        want = np.array(fsum_conv(a, b))
        assert got.shape == want.shape
        n = min(len(a), len(b))
        err = np.abs(got[bins] - want[bins])
        assert np.all(err <= n * 2.0**-52 * want[bins] + n * 2.0**-1074)

    @given(la=st.integers(1, 3 * CONV_BLOCK + 5), lb=st.integers(1, 3 * CONV_BLOCK + 5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_formed_dyadic_bins_equal_numpy(self, la, lb, seed, data):
        rng = np.random.default_rng(seed)
        a = self.zero_ends(data.draw, list(rng.integers(0, 16, la) / 16.0))
        b = self.zero_ends(data.draw, list(rng.integers(0, 16, lb) / 16.0))
        window, bins = self.draw_window(data.draw, len(a) + len(b) - 1)
        got = _direct_conv(np.array(a), np.array(b), window)
        assert np.array_equal(got[bins], np.convolve(a, b)[bins])


def dyadic(raw, bits: int = 20) -> np.ndarray:
    """Round to multiples of 2**-bits, so sums and products of a few dozen
    of them are exact in float arithmetic."""
    return np.round(np.asarray(raw, dtype=float) * 2.0**bits) / 2.0**bits


class TestSweep:
    pmfs = st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).filter(lambda w: sum(w) > 0.01),
        st.integers(-8, 0),  # k0 + len(weights) <= 0 leaves no mass above 0
    )

    @given(
        pmf=pmfs,
        start=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        reflect=st.booleans(),
        steps=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_conserves_window_mass(self, pmf, start, reflect, steps):
        # dyadic masses keep the convolution and the exit sum exact, so any
        # deviation is mass lost or duplicated by the routing, not roundoff
        weights, k0 = pmf
        probs = dyadic(np.asarray(weights) / sum(weights))
        probs[int(np.argmax(probs))] += 1.0 - probs.sum()
        if reflect and k0 == 0:
            k0 = -1  # reflection needs an increment cell below 0
        pmf = LatticePMF(h=1.0, k0=k0, probs=probs)
        V = dyadic(np.asarray(start) / len(start))
        for V_next, up in itertools.islice(_sweep(V, pmf, reflect), steps):
            assert V_next.size == V.size
            # without reflection, the landings below come from the one-step occupation V
            below = 0.0 if reflect else _direct_conv(V, probs, (0, -k0))[:-k0].sum()
            total = V_next.sum() + below + up
            assert total == pytest.approx(V.sum(), rel=1e-15, abs=1e-300)
            V = V_next

    @given(pmf=pmfs, start=TestDirectConv.vectors, exit_at=st.integers(-3, 30),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_exit_sum_is_the_sum_of_the_bins_above(self, pmf, start, exit_at, data):
        # the one-sum exit equals the exact sum of the full convolution's bins
        # at window index exit_at and above, within its term count in roundoff
        weights, k0 = pmf
        pmf = LatticePMF(h=1.0, k0=k0, probs=np.asarray(weights) / math.fsum(weights))
        V = np.array(start)
        reflect = data.draw(st.booleans()) and k0 < 0
        _, up = next(_sweep(V, pmf, reflect, exit_at=exit_at))
        want = math.fsum(fsum_conv(V, pmf.probs)[max(exit_at - k0, 0):])
        n = V.size + pmf.probs.size
        assert abs(up - want) <= n * 2.0**-52 * want + n * 2.0**-1074


def ruin_tail(k: int) -> float:
    """Closed form for the up-1/4 down-3/4 chain: P(M >= k) = 3**-k."""
    return 3.0 ** -k


class TestFixedPoint:
    def test_gamblers_ruin(self, tp_law):
        for k in range(21):
            got = tp_law.tail(k - 0.5)  # lattice mass at {k, k+1, ...}
            assert abs(got - ruin_tail(k)) < 1e-10, k

    def test_pointmass_maximum_is_zero(self, pm_model):
        law = lindley_fixed_point(discretize(pm_model, 1.0), top=40.0)
        assert law.probs[0] == pytest.approx(1.0, abs=1e-14)
        assert law.tail(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_mass_conservation(self, ref_law):
        assert ref_law.probs.sum() + ref_law.overflow == pytest.approx(1.0, abs=1e-10)

    def test_one_more_step_is_fixed(self, ref_pmf, ref_law):
        nneg = -ref_pmf.k0
        W = np.convolve(ref_law.probs, ref_pmf.probs)
        V2 = np.zeros_like(ref_law.probs)
        V2[0] = W[: nneg + 1].sum()
        body = W[nneg + 1 : nneg + 1 + len(ref_law.probs) - 1]
        V2[1 : 1 + body.size] = body
        assert np.abs(V2 - ref_law.probs).max() < 2e-13

    def test_grid_refinement_stability(self, ref_model, ref_law, ref_law_half):
        # halving h moves certified tail ratios by < 1%
        for x in (4.0, 8.0, 12.0, 13.7):
            a = ref_law.tail(x)
            b = ref_law_half.tail(x)
            assert a >= 1e-9
            assert abs(a / b - 1.0) < 0.01, x

    def test_refuses_nonnegative_mean(self):
        up = TwoPoint(u=1.0, pu=0.75, v=-1.0)
        with pytest.raises(LatticeError):
            lindley_fixed_point(discretize(up, 1.0), top=TP_TOP)

    @pytest.mark.parametrize("pmf,count", [
        (lambda: LatticePMF(h=1.0, k0=-1, probs=[0.5, 0.0, 0.5 - 2**-53]), r"2\.7e\+17"),
        (lambda: discretize(TwoPoint(u=1.0, pu=0.4999, v=-1.0), 1.0), r"2e\+09"),
    ], ids=["mean-1e-16", "twopoint-pu-0.4999"])
    def test_near_critical_walk_refused_before_sweeping(self, sweeps, pmf, count):
        # phi(0.75 alpha_sup) is within 2e-8 of 1: the sweep cap bounds nothing
        with pytest.raises(LatticeError, match=rf"phi = 0\.99999.* after {count} sweeps"):
            lindley_fixed_point(pmf(), top=200.0)
        assert sweeps[0] == 0

    def test_trunc_bound_dominates_true_tail(self, tp_law):
        # chernoff certificate must bound the known closed-form tail at top
        k_top = len(tp_law.probs) - 1
        assert tp_law.trunc_bound >= ruin_tail(k_top)


class TestFiniteHorizon:
    def test_zero_horizon(self, tp_pmf):
        laws = finite_horizon(tp_pmf, 0, top=TP_TOP)
        assert len(laws) == 1
        assert laws[0].probs[0] == 1.0

    def test_single_step(self, tp_pmf):
        laws = finite_horizon(tp_pmf, 1, top=TP_TOP)
        assert laws[1].tail(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_two_steps_enumeration(self, tp_pmf):
        # all four 2-step paths: the maximum reaches 1 iff the first step is up
        laws = finite_horizon(tp_pmf, 2, top=TP_TOP)
        assert laws[2].tail(0.5) == pytest.approx(0.25, abs=1e-14)
        # P(M_2 >= 2) = P(up, up)
        assert laws[2].tail(1.5) == pytest.approx(0.25 * 0.25, abs=1e-14)

    def test_monotone_in_horizon(self, ref_horizon_laws, ref_law):
        x = 8.0
        tails = [law.tail(x) for law in ref_horizon_laws[:60]]
        assert all(b >= a - 1e-15 for a, b in zip(tails, tails[1:]))
        assert tails[-1] <= ref_law.tail(x) + 1e-12
        assert tails[-1] == pytest.approx(ref_law.tail(x), rel=1e-6)


def enumerate_first_passage(p_up: float, barrier: int, depth: int):
    """Exhaustive +-1 path enumeration: P(reach barrier before -1, by depth)
    and P(undecided at depth).  Every full-depth path carries its complete
    probability; the outcome is read off the prefix."""
    p_hit = 0.0
    p_open = 0.0
    for signs in itertools.product((1, -1), repeat=depth):
        prob = math.prod(p_up if step == 1 else (1 - p_up) for step in signs)
        s = 0
        outcome = None
        for step in signs:
            s += step
            if s >= barrier:
                outcome = "hit"
                break
            if s < 0:
                outcome = "dead"
                break
        if outcome == "hit":
            p_hit += prob
        elif outcome is None:
            p_open += prob
    return p_hit, p_open


def absorbing_overshoot(pmf, top, tol=1e-15):
    """Reference overshoot law: the walk absorbed below 0 and above ``top``,
    swept until less than ``tol`` of it still walks; its landings below 0 are
    one convolution of the occupation.  Returns the normalized overshoot
    cells and the mass that never landed below 0."""
    nneg = -pmf.k0
    S = np.eye(1, round(top / pmf.h) + 1)[0]
    occupation = np.zeros(S.size)
    for survivors, _ in itertools.islice(_sweep(S, pmf), 10_000):
        occupation += S
        S = survivors
        if S.sum() < tol:
            break
    cells = np.r_[0.0, _direct_conv(occupation, pmf.probs, (0, nneg))[nneg - 1 :: -1]]
    return cells / cells.sum(), 1.0 - cells.sum()


def below_zero(law):
    """P(M + xi < 0) for the law's vector, summed cell pair by cell pair."""
    inc = law.increment
    return math.fsum(float(law.probs[y]) * float(inc.probs[j])
                     for y in range(min(-inc.k0, law.probs.size))
                     for j in range(min(-inc.k0 - y, inc.probs.size)))


ITEM1_MODELS = {  # the reference model and its lighter, heavier and near-critical variants
    "reference": PolyExp(1.0, 2.0, math.log(4.0)),
    "beta=3": PolyExp(1.0, 3.0, math.log(4.0)),
    "beta=1.5": PolyExp(1.0, 1.5, math.log(4.0)),
    "shift=0.8": PolyExp(1.0, 2.0, 0.8),
}


class TestStopped:
    def test_pointmass(self, pm_model):
        law = lindley_fixed_point(discretize(pm_model, 1.0), top=40.0)
        stopped = stopped_max_sigma1(law, [0.5], 1.0)
        assert stopped.horizon_used == 0  # no step rises, so no level is ever passed
        assert stopped.chi.tail(0.5) == pytest.approx(1.0, abs=1e-15)  # overshoot 1
        assert stopped.max_tail[0] == pytest.approx(0.0, abs=1e-15)

    def test_twopoint_first_step(self, tp_pmf, tp_law):
        start = np.eye(1, 11)[0]
        survivors, up = next(_sweep(start, tp_pmf))
        below = _direct_conv(start, tp_pmf.probs, (0, 1))[0]  # the cell -1
        assert below == pytest.approx(0.75, abs=1e-14)
        assert survivors.sum() + up + below == pytest.approx(1.0, abs=1e-14)
        stopped = stopped_max_sigma1(tp_law, [0.5], 0.9)
        # only -1 overshoots are reachable
        assert stopped.chi.tail(1.5) == pytest.approx(0.0, abs=1e-14)

    def test_twopoint_max_before_ruin(self, tp_law):
        stopped = stopped_max_sigma1(tp_law, [k - 0.5 for k in (1, 2, 3, 5)], 0.9)

        def tail_at(k):
            i = int(np.searchsorted(stopped.max_tail_x, k - 0.5))
            assert stopped.max_tail_x[i] == pytest.approx(k - 0.5)
            return stopped.max_tail[i]

        # gambler's ruin on {-1..k} from 0: P(hit k before -1) = (3-1)/(3^{k+1}-1)
        for k in (1, 2, 3, 5):
            exact = (3.0 - 1.0) / (3.0 ** (k + 1) - 1.0)
            assert tail_at(k) == pytest.approx(exact, abs=1e-12), k

        # exhaustive 12-step enumeration brackets the depth-unlimited value
        p_hit, p_open = enumerate_first_passage(0.25, 3, 12)
        assert p_hit <= tail_at(3) <= p_hit + p_open

    @pytest.mark.parametrize("which", ["twopoint", "reference", "shift=0.8"])
    def test_chi_matches_the_absorbing_sweep(self, which, tp_model):
        # the overshoot read from the law of M (duality) is the absorbing
        # sweep's, up to the law's charge
        model, h, gamma = ((tp_model, 1.0, 0.9) if which == "twopoint"
                           else (ITEM1_MODELS[which], 0.1, 1.0))
        pmf = discretize(model, h)
        law = lindley_fixed_point(pmf, top=75.0 / gamma)
        stopped = stopped_max_sigma1(law, [1.0], gamma)
        want, lost = absorbing_overshoot(pmf, 75.0 / gamma)
        assert 0.0 < stopped.residual < 1e-11 and lost < 1e-14
        assert np.abs(stopped.chi.probs - want).max() <= stopped.residual + 2 * lost
        moment = (want * np.exp(-gamma * h * np.arange(want.size))).sum()
        assert stopped.chi.mgf(-gamma) == pytest.approx(moment, abs=stopped.residual + 2 * lost)

    @pytest.mark.parametrize("which", list(ITEM1_MODELS))
    def test_overshoot_moment_is_the_boundary_identity(self, which):
        # 1 - E e^{-gamma chi} = E[1 - e^{gamma (M + xi)}; M + xi < 0] / P(M + xi < 0)
        law = lindley_fixed_point(discretize(ITEM1_MODELS[which], 0.02), top=75.0)
        stopped = stopped_max_sigma1(law, [1.0], 1.0)
        want = boundary_term(law, 1.0).value / below_zero(law)
        assert 1.0 - stopped.chi.mgf(-1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sweeps", [3, 6, 10])
    def test_residual_bounds_a_loose_stop(self, ref_model, sweeps):
        # a fixed point stopped after a few sweeps charges P(M != M_n) <=
        # phi^{n+1}/(1-phi); every overshoot cell stays within the residual
        pmf = discretize(ref_model, 0.1)
        phi = pmf.mgf(0.75 * pmf.chernoff_alpha_sup)
        loose = dataclasses.replace(finite_horizon(pmf, sweeps, top=75.0)[-1],
                                    stop_bound=phi ** (sweeps + 1) / (1.0 - phi))
        stopped = stopped_max_sigma1(loose, [1.0], 1.0)
        want, _ = absorbing_overshoot(pmf, 75.0)
        assert stopped.residual == pytest.approx(
            loose.stop_bound / (below_zero(loose) - loose.stop_bound), rel=1e-12, abs=0.0)
        assert 1e-10 < np.abs(stopped.chi.probs - want).max() <= stopped.residual

    @pytest.mark.parametrize("which", ["reference", "twopoint"])
    def test_mass_over_a_short_top_is_charged(self, which, ref_model, tp_pmf):
        # 1e-8 to 1e-10 of the mass leaves through top 20 and never returns:
        # the residual charges it, and the overshoot stays within it of the
        # top-75 law's
        pmf, gamma = (discretize(ref_model, 0.05), 1.0) if which == "reference" else (tp_pmf, 0.9)
        short = lindley_fixed_point(pmf, top=20.0)
        stopped = stopped_max_sigma1(short, [4.0], gamma)
        assert 1e-11 < short.overflow < stopped.residual < 1e-7
        full = stopped_max_sigma1(lindley_fixed_point(pmf, top=75.0 / gamma), [4.0], gamma)
        assert np.abs(stopped.chi.probs - full.chi.probs).max() <= stopped.residual
        assert stopped.max_tail[0] == full.max_tail[0]  # level passages never reach the top

    def test_level_above_top_refused_before_sweeping(self, tp_pmf, monkeypatch):
        law = lindley_fixed_point(tp_pmf, top=10.0)

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(lattice, "_sweep", no_sweep)
        with pytest.raises(LatticeError, match=r"stopped level 1e\+09 .* grid top 10"):
            stopped_max_sigma1(law, [2.0, 1e9], 0.9)

    def test_horizon_exhaustion_raises(self, ref_law):
        with pytest.raises(LatticeError, match="horizon 3 exhausted at level 5") as err:
            stopped_max_sigma1(ref_law, [5.0], 1.0, horizon=3)
        assert err.value.residual > 0.0

    def test_level_sweep_refuses_an_exhausted_horizon(self, ref_model):
        # a level passage stops on its relative certificate: level 70 takes
        # more sweeps than level 4, and a horizon that only level 4 fits is
        # refused at level 70
        law = lindley_fixed_point(discretize(ref_model, 0.05), top=ORACLE_TOP)
        n = stopped_max_sigma1(law, [4.0], 1.0).horizon_used
        with pytest.raises(LatticeError, match=rf"horizon {n} exhausted at level 70") as err:
            stopped_max_sigma1(law, [4.0, 70.0], 1.0, horizon=n)
        assert err.value.residual > 0.0

    def test_deep_level_is_certified_relative(self, ref_model):
        # P(max before stopping > 70) is about 1.7e-38, far below any
        # absolute stop on the mass still walking: only a stop relative to
        # the passed mass agrees with a 400-sweep passage
        pmf = discretize(ref_model, 0.05)
        stopped = stopped_max_sigma1(lindley_fixed_point(pmf, top=ORACLE_TOP), [70.0], 1.0)
        want = math.fsum(up for _, up in itertools.islice(_sweep(np.eye(1, 1401)[0], pmf), 400))
        assert stopped.horizon_used < 400
        assert stopped.max_tail[0] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestExpMoment:
    def test_degenerate_maximum(self, pm_model):
        law = lindley_fixed_point(discretize(pm_model, 1.0), top=20.0)
        em = exp_moment(law, 0.7, pm_model.mgf(0.7))
        assert em.value == pytest.approx(1.0, abs=1e-12)
        assert em.hi - em.lo < 1e-6

    def test_reference_enclosure(self, ref_model, ref_law):
        em = exp_moment(ref_law, 1.0, ref_model.mgf(1.0))
        assert 1.0 < em.lo and em.hi < 2.0
        assert em.width < 1e-3

    @pytest.mark.parametrize(
        "gamma,beta,shift",
        [(0.5, 3.0, 2.0), (2.0, 2.0, 1.0), (1.0, 1.5, 2.0)],
    )
    def test_twist_moment_bounds_across_models(self, gamma, beta, shift):
        # 1 <= E e^{gM} <= 1/(1 - twisted moment) on every subcritical model
        model = PolyExp(gamma, beta, shift)
        law = lindley_fixed_point(discretize(model, 0.02), top=75.0 / gamma)
        em = exp_moment(law, gamma, model.mgf(gamma))
        assert 1.0 - 1e-12 <= em.lo
        assert em.hi <= 1.0 / (1.0 - model.mgf_at_gamma) + 1e-9

    def test_fixed_point_identity_oracle(self, ref_pmf, ref_law):
        """E e^{gM}(1 - phi(g)) = E[1 - e^{g(M+xi)}; M+xi <= 0], summed cell
        pair by cell pair: cross-checks the cumulative-sum weights."""
        g = 1.0
        phi_lat = ref_pmf.mgf(g)
        V = ref_law.probs
        h = ref_law.h
        num = 0.0
        for j, q in enumerate(ref_pmf.probs):
            kj = ref_pmf.k0 + j
            if kj >= 1 or q == 0.0:
                continue
            kmax = min(-kj, len(V) - 1)
            vals = 1.0 - np.exp(g * (np.arange(kmax + 1) + kj) * h)
            num += q * float(V[: kmax + 1] @ vals)
        identity_value = num / (1.0 - phi_lat)
        em = exp_moment(ref_law, g, phi_lat)
        assert em.value == pytest.approx(identity_value, rel=1e-12)

    def test_overshoot_moment(self, pm_model):
        law = lindley_fixed_point(discretize(pm_model, 1.0), top=40.0)
        stopped = stopped_max_sigma1(law, [0.5], 1.0)
        # chi is identically 1
        assert stopped.chi.mgf(-1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_nonpositive_twist_refused(self, tp_law, gamma):
        with pytest.raises(LatticeError, match="positive twist"):
            exp_moment(tp_law, gamma, 0.5)

    @pytest.mark.parametrize("top", [8.0, 25.0])
    def test_short_top_is_charged_not_refused(self, ref_model, ref_pmf, ref_law, top):
        # mass lost above the top enters the bracket; the top-75 law's moment
        # lies inside it (top 8 loses 4e-5, top 25 loses 3e-13)
        phi = ref_model.mgf(1.0)
        short = exp_moment(lindley_fixed_point(ref_pmf, top=top), 1.0, phi)
        assert short.lo <= exp_moment(ref_law, 1.0, phi).value <= short.hi

    def test_hopeless_top_refused_quickly(self, ref_pmf):
        # more than 1e-3 of the mass leaves through top 4 within 8 sweeps
        with pytest.raises(LatticeError, match=r"grid top 4\.0 far too small: overflow "
                           r"1\.04\de-03 after 8 iterations"):
            lindley_fixed_point(ref_pmf, top=4.0)

    @pytest.mark.parametrize("top", [60.0, 800.0])
    def test_ruin_chain_moment_at_any_top(self, tp_model, tp_pmf, top):
        # E e^{0.9 M} = (2/3) / (1 - e^{0.9}/3); the identity never forms
        # e^{gamma * top}, which overflows a float at top 800
        em = exp_moment(lindley_fixed_point(tp_pmf, top=top), 0.9, tp_model.mgf(0.9))
        assert em.value == pytest.approx((2.0 / 3.0) / (1.0 - math.exp(0.9) / 3.0), rel=1e-12)
        assert em.lo <= em.value <= em.hi


@pytest.fixture
def mgf_calls(monkeypatch):
    """Counts LatticePMF.mgf evaluations (the unit of every twist scan)."""
    calls = [0]
    mgf = LatticePMF.mgf

    def counting(self, alpha):
        calls[0] += 1
        return mgf(self, alpha)

    monkeypatch.setattr(LatticePMF, "mgf", counting)
    return calls


@pytest.fixture
def sweeps(monkeypatch):
    """Counts the steps the sweep primitive takes."""
    steps = [0]

    def counting(V, pmf, *args, **kwargs):
        for step in _sweep(V, pmf, *args, **kwargs):
            steps[0] += 1
            yield step

    monkeypatch.setattr(lattice, "_sweep", counting)
    return steps


def all_laws_constant(consts, N, terms):
    """The horizon-N constant as one recursion per N over the boundary terms
    ``terms`` of every horizon law, in Bracket arithmetic."""
    moments = [Bracket(1.0, 1.0, 1.0)]
    for b in terms[: N - 1]:
        m = moments[-1].scale(consts.phg)
        moments.append(Bracket(m.value + b.value, m.lo + b.lo, m.hi + b.hi))
    val = lo = hi = 0.0
    for n in range(1, N + 1):
        w, em = consts.phg ** (n - 1), moments[N - n]
        val, lo, hi = val + w * em.value, lo + w * em.lo, hi + w * em.hi
    return Bracket(val, lo, hi)


class TestWorkOnce:
    """Work that depends only on the pmf, or that the caller already holds,
    is not done again."""

    def test_probs_are_read_only(self, ref_model):
        pmf = discretize(ref_model, 0.05)
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.5

    def test_horizon_moments_scan_no_twist(self, ref_model, ref_consts, mgf_calls):
        pmf = discretize(ref_model, 0.05)
        boundary = horizon_pass(pmf, 75.0, [50], ref_consts.gamma)[2]
        mgf_calls[0] = 0
        first = finite_constant(ref_consts, [1, 5, 50], boundary)
        assert finite_constant(ref_consts, [1, 5, 50], boundary) == first
        assert mgf_calls[0] == 0

    def test_alpha_sup_scans_once_per_pmf(self, ref_model, mgf_calls):
        pmf = discretize(ref_model, 0.05)
        a_sup = pmf.chernoff_alpha_sup
        mgf_calls[0] = 0
        assert pmf.chernoff_alpha_sup == a_sup
        assert mgf_calls[0] == 0
        pmf.chernoff_tail_bound(40.0)  # its 400 twists, and no second alpha scan
        assert mgf_calls[0] == 400

    @pytest.mark.parametrize("k", [50, 5])
    def test_fixed_point_from_horizon_laws(self, ref_model, sweeps, k):
        # the pass reads the fixed point as M_n on its way to M_k (k >= n) or
        # sweeps on past M_k to it (k < n): either way the law a fresh
        # recursion gives, bit for bit, in max(k, n) sweeps
        pmf = discretize(ref_model, 0.05)
        law, laws, _ = horizon_pass(pmf, 75.0, [k], 1.0)
        assert sweeps[0] == max(law.n_iter, k)
        fresh = lindley_fixed_point(discretize(ref_model, 0.05), top=75.0)
        assert 5 < fresh.n_iter < 50
        assert np.array_equal(law.probs, fresh.probs)
        for name in ("overflow", "stop_bound", "trunc_bound", "n_iter"):
            assert getattr(law, name) == getattr(fresh, name), name
        assert list(laws) == [k] and laws[k].n_iter == k and laws[k].stop_bound == 0.0

    @pytest.mark.parametrize("which", list(ITEM1_MODELS))
    def test_streamed_finite_matches_all_laws(self, which):
        # the one pass against every law kept: the kept laws, the boundary
        # terms and the horizon constants agree bit for bit, for horizons
        # below, at and above the fixed-point count
        model = ITEM1_MODELS[which]
        pmf, g = discretize(model, 0.05), model.twist(None)
        fixed = lindley_fixed_point(pmf, top=75.0)
        consts = asymptotics.constants(model, fixed)
        n = fixed.n_iter
        Ns = [0, 1, 2, n - 1, n, n + 1, 2 * n + 3]
        law, laws, boundary = horizon_pass(pmf, 75.0, Ns, g)
        assert np.array_equal(law.probs, fixed.probs)
        for name in ("overflow", "stop_bound", "n_iter"):
            assert getattr(law, name) == getattr(fixed, name), name
        every = finite_horizon(pmf, max(Ns), top=75.0)
        terms = [boundary_term(m, g) for m in every[: max(Ns)]]
        assert boundary.tolist() == [list(b) for b in terms]
        for N in Ns:
            assert np.array_equal(laws[N].probs, every[N].probs)
            assert laws[N].overflow == every[N].overflow
        assert finite_constant(consts, Ns, boundary) == [
            all_laws_constant(consts, N, terms) for N in Ns]

    def test_each_top_sweeps_its_own_grid(self, ref_model, sweeps):
        pmf = discretize(ref_model, 0.05)
        finite_horizon(pmf, 3, top=75.0)
        laws = finite_horizon(pmf, 3, top=50.0)
        assert sweeps[0] == 6
        assert laws[-1].probs.size == 1001


class TestConvolutionPowerTail:
    def test_power_one_is_identity(self, ref_pmf):
        law = sum_laws(ref_pmf, 1)[-1]
        for x in (1.0, 5.0):
            assert law.tail(x) == pytest.approx(ref_pmf.tail(x), abs=1e-15)

    def test_pair_ratio_near_prediction(self, ref_model):
        pmf = discretize(ref_model, 0.01, span=(-ref_model.shift, 40.0))
        # twisted moment 1/2: two-fold tails approach 2 * 0.5 = 1.0 times the base
        ratio = sum_laws(pmf, 2)[-1].tail(24.0) / float(ref_model.tail(24.0))
        assert ratio == pytest.approx(1.0, abs=0.012)

    def test_triple_ratio_near_prediction(self, ref_model):
        pmf = discretize(ref_model, 0.01, span=(-ref_model.shift, 40.0))
        ratio = sum_laws(pmf, 3)[-1].tail(24.0) / float(ref_model.tail(24.0))
        assert ratio == pytest.approx(0.75, abs=0.75 * 0.025)


class TestBigJumpFlow:
    @pytest.mark.parametrize("case", [
        # (model, step, barrier, jump level, levels, gamma); the TwoPoint
        # walk lands on cell 7 only, the reference walk far past each level
        (TwoPoint(u=5.0, pu=0.05, v=-1.0), 1.0, 2.5, 6.0, [6.5, 7.0, 9.0], 0.2),
        (PolyExp(1.0, 2.0, math.log(4.0)), 0.05, 2.0, 6.0, [6.02, 8.0, 20.0], 1.0),
    ], ids=["twopoint", "reference"])
    def test_landings_up_to_a_level_and_beyond_add_up(self, case):
        model, step, barrier, jump, levels, gamma = case
        pmf = discretize(model, step)
        full = lattice.bigjump_flow(pmf, barrier, jump, n_max=60, gamma=gamma)
        assert full.beyond == 0.0 and full.total() > 0
        # every landing is a sum of nonnegative products over at most the
        # window and increment cells, so n unit roundoffs bound each sum
        n = round((barrier + 60.0) / step) + pmf.probs.size
        for level in levels:
            part = lattice.bigjump_flow(pmf, barrier, jump, n_max=60, gamma=gamma, level=level)
            assert part.n_run == full.n_run
            k = part.landing_mass.size
            last = math.floor(level / step + 1e-9)  # the last cell at or below the level
            assert k == min(last - part.landing_k0 + 1, full.landing_mass.size)
            assert np.allclose(part.landing_mass, full.landing_mass[:k], rtol=n * 2.0**-52, atol=0)
            assert part.total() == pytest.approx(full.total(), rel=n * 2.0**-52)
            assert part.beyond == pytest.approx(full.landing_mass[k:].sum(), rel=n * 2.0**-52,
                                                abs=1e-300)

    def test_exhausted_flow_carries_its_remainder(self):
        # 60 steps leave 2.2e-4 of the flow to come; the certificate stops at 367
        pmf = discretize(TwoPoint(u=5.0, pu=0.05, v=-1.0), 1.0)
        cut = lattice.bigjump_flow(pmf, 2.5, 6.0, gamma=0.2, n_max=60)
        full = lattice.bigjump_flow(pmf, 2.5, 6.0, gamma=0.2)
        assert (cut.n_run, full.n_run, full.remainder) == (60, 367, 0.0)
        gap = full.total() - cut.total()
        assert gap > 1e-4 * full.total()
        assert gap <= cut.remainder

    def test_unreachable_exit_is_zero_without_sweeping(self, sweeps):
        # one jump rises 2 cells at most, so from the barrier cell 2 no path
        # lands past the exit cell 4; from exit cell 3 one can
        pmf = discretize(TwoPoint(u=1.0, pu=0.45, v=-1.0), 0.5)
        flow = lattice.bigjump_flow(pmf, barrier=1.0, jump_level=2.0, gamma=0.15, level=4.0)
        assert (flow.n_run, flow.remainder, flow.total(), sweeps[0]) == (0, 0.0, 0.0, 0)
        assert not flow.landing_mass.any()
        near = lattice.bigjump_flow(pmf, barrier=1.0, jump_level=1.5, gamma=0.15, n_max=5)
        assert (near.n_run, sweeps[0]) == (5, 5)
        assert near.total() > 0.0 and near.remainder > 0.0

    def test_exhausted_flow_refused_by_the_ratio(self, ref_pmf, ref_law, monkeypatch):
        from walkmax import cli

        monkeypatch.setattr(cli, "bigjump_flow",
                            functools.partial(lattice.bigjump_flow, n_max=3))
        with pytest.raises(LatticeError, match=r"flow at x = 4 used all n_max = 3 steps "
                                               r"with landings up to \S+ still to come: "
                                               r"\S+ of P\(M > x\), above the 1e-12 "):
            cli.bigjump_dp_ratio(ref_pmf, ref_law, 4.0, "quarter", 1.0)

    @pytest.mark.parametrize("gamma", [1.2, 2.0])
    def test_twist_without_certificate_refused(self, tp_pmf, sweeps, gamma):
        # phi(gamma) >= 1 past log 3 on the ruin chain: no stop is certified
        with pytest.raises(LatticeError, match=rf"lattice twisted moment below 1, got "
                                               rf"phi\({gamma:g}\) = 1\."):
            lattice.bigjump_flow(tp_pmf, barrier=0.5, jump_level=1.5, gamma=gamma)
        assert sweeps[0] == 0
