"""Shared fixtures: the reference model and its (expensive) oracle laws are
built once per session."""

import math

import numpy as np
import pytest

from walkmax import (
    PolyExp,
    PointMass,
    TwoPoint,
    constants,
    convolve,
    discretize,
    finite_horizon,
    lindley_fixed_point,
)
from walkmax.lattice import boundary_term

REF_GAMMA = 1.0
REF_BETA = 2.0
REF_SHIFT = math.log(4.0)
ORACLE_TOP = 75.0
# the ruin chain's grid top: 75 decay lengths of the twist 0.9, whose
# phi(0.9) < 1, as the command line sizes it
TP_TOP = 75.0 / 0.9


def sum_laws(pmf, n):
    """Laws of S_1, ..., S_n: each is the last convolved once more with ``pmf``."""
    laws = [pmf]
    for _ in range(n - 1):
        laws.append(convolve(laws[-1], pmf))
    return laws


@pytest.fixture(scope="session")
def ref_model():
    """Reference model: twisted moment exactly 1/2."""
    return PolyExp(gamma=REF_GAMMA, beta=REF_BETA, shift=REF_SHIFT)


@pytest.fixture(scope="session")
def d0_model():
    """Unshifted variant (positive mean, supercritical twist): only usable
    for distribution-surface checks."""
    return PolyExp(gamma=1.0, beta=2.0, shift=0.0)


@pytest.fixture(scope="session")
def ref_pmf(ref_model):
    return discretize(ref_model, 0.01)


@pytest.fixture(scope="session")
def ref_law(ref_pmf):
    return lindley_fixed_point(ref_pmf, top=ORACLE_TOP)


@pytest.fixture(scope="session")
def ref_consts(ref_model, ref_law):
    return constants(ref_model, ref_law)


@pytest.fixture(scope="session")
def ref_pmf_half(ref_model):
    return discretize(ref_model, 0.005)


@pytest.fixture(scope="session")
def ref_law_half(ref_pmf_half):
    return lindley_fixed_point(ref_pmf_half, top=ORACLE_TOP)


@pytest.fixture(scope="session")
def ref_horizon_laws(ref_pmf):
    return finite_horizon(ref_pmf, 100, top=ORACLE_TOP)


@pytest.fixture(scope="session")
def ref_boundary(ref_consts, ref_horizon_laws):
    """Boundary terms B(M_0) ... B(M_100), one row (value, lo, hi) per law."""
    return np.array([boundary_term(law, ref_consts.gamma) for law in ref_horizon_laws])


@pytest.fixture(scope="session")
def tp_model():
    """Up 1 with probability 1/4, down 1 otherwise: ruin chain with
    P(M >= k) = 3**-k."""
    return TwoPoint(u=1.0, pu=0.25, v=-1.0)


@pytest.fixture(scope="session")
def tp_pmf(tp_model):
    return discretize(tp_model, 1.0)


@pytest.fixture(scope="session")
def tp_law(tp_pmf):
    return lindley_fixed_point(tp_pmf, top=TP_TOP)


@pytest.fixture(scope="session")
def pm_model():
    return PointMass(v=-1.0)
