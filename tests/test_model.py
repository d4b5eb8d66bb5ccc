import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ebb.errors import ConfigError
from ebb.model import SampleSpec, ThermoParams, fermi_density, xi

# 1/(1 + exp(-1)) evaluated at high precision.
FERMI_AT_MINUS_ONE = 0.7310585786300049


def test_xi_at_mu_is_zero():
    assert xi(0.7, 3.0, 0.7) == 0.0


def test_xi_direct_substitution():
    assert xi(1.0, 2.0, 0.0) == 2.0
    assert xi(0.0, 1.0, 1.0) == -1.0


def test_fermi_half_at_mu():
    assert fermi_density(0.3, 5.0, 0.3) == 0.5


def test_fermi_closed_form():
    assert fermi_density(0.0, 1.0, 1.0) == pytest.approx(FERMI_AT_MINUS_ONE, abs=1e-15)


def test_fermi_large_argument_no_overflow():
    high = fermi_density(1000.0, 1.0, 0.0)
    assert 0.0 <= high <= 1e-300
    low = fermi_density(-1000.0, 1.0, 0.0)
    assert 1.0 - 1e-300 <= low <= 1.0


def test_fermi_strictly_decreasing_on_grid():
    # Range chosen so neither tail rounds to exactly 0 or 1.
    vals = [fermi_density(E, 2.0, 0.3) for E in np.arange(-15.0, 15.0, 0.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@given(
    E=st.floats(-40, 40),
    beta=st.floats(0.05, 20),
    mu=st.floats(-5, 5),
)
def test_fermi_particle_hole_symmetry(E, beta, mu):
    total = fermi_density(E, beta, mu) + fermi_density(2 * mu - E, beta, mu)
    assert total == pytest.approx(1.0, abs=1e-14)


@given(
    E1=st.floats(-40, 40),
    E2=st.floats(-40, 40),
    beta=st.floats(0.05, 20),
    mu=st.floats(-5, 5),
)
def test_fermi_monotone(E1, E2, beta, mu):
    if E1 > E2:
        E1, E2 = E2, E1
    assert fermi_density(E1, beta, mu) >= fermi_density(E2, beta, mu)


@given(
    E=st.floats(-20, 20),
    beta_l=st.floats(0.1, 10),
    beta_r=st.floats(0.1, 10),
    mu_l=st.floats(-3, 3),
    mu_r=st.floats(-3, 3),
)
def test_occupation_difference_sign_matches_xi_difference(E, beta_l, beta_r, mu_l, mu_r):
    drho = fermi_density(E, beta_l, mu_l) - fermi_density(E, beta_r, mu_r)
    dxi = xi(E, beta_r, mu_r) - xi(E, beta_l, mu_l)
    # This product is the entropy density up to the transmission factor.
    assert drho * dxi >= -1e-30


def test_thermo_validation():
    with pytest.raises(ConfigError, match="beta_l"):
        ThermoParams(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="beta_r"):
        ThermoParams(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="mu_l"):
        ThermoParams(1.0, 1.0, math.nan, 0.0)


def test_sample_spec_validation():
    assert SampleSpec(np.zeros(3)).length == 2
    with pytest.raises(ConfigError, match="length"):
        SampleSpec(np.zeros(1))
    with pytest.raises(ConfigError, match="potential"):
        SampleSpec(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="finite"):
        SampleSpec(np.array([0.0, math.inf, 0.0]))


def test_sample_spec_compares_and_hashes():
    # A plain value: two equal samples built apart compare and hash by
    # identity, where the generated dataclass methods raised on arrays.
    a, b = SampleSpec(np.zeros(3)), SampleSpec(np.zeros(3))
    assert a == a and a != b
    assert len({a, b}) == 2
