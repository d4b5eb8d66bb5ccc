import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import ConfigError, DomainError
from ebb.leads import (
    EnergyWindow,
    SemiInfiniteLaplacian,
    TabulatedLead,
    sigma_intersection,
    weiss_boundary,
)

from conftest import truncated_weiss


def test_laplacian_validation():
    with pytest.raises(ConfigError, match="hopping"):
        SemiInfiniteLaplacian(0.0, 1.0)
    with pytest.raises(ConfigError, match="coupling"):
        SemiInfiniteLaplacian(1.0, 0.0)


def test_weiss_band_center(lead11):
    # At E = 0: F = i for unit hopping and coupling.
    F = weiss_boundary(lead11, 0.0)
    assert F == pytest.approx(1j, abs=1e-15)


def test_weiss_in_band_closed_form(lead11):
    for E in (-1.9, -0.5, 0.3, 1.5):
        F = weiss_boundary(lead11, E)
        assert F.real == pytest.approx(-E / 2.0, abs=1e-15)
        assert F.imag == pytest.approx(math.sqrt(4.0 - E * E) / 2.0, abs=1e-15)


def test_weiss_out_of_band_real_and_decaying(lead11):
    for E in (2.5, 5.0, 100.0):
        F = weiss_boundary(lead11, E)
        assert F.imag == 0.0
        assert F.real < 0.0
        # Herglotz reflection symmetry of this lead: F(-E) = -conj(F(E)).
        assert weiss_boundary(lead11, -E) == pytest.approx(-F.real, abs=1e-15)
    # Decay F ~ -coupling^2 / E at infinity (the subtraction in the
    # closed form costs a few digits out here).
    assert weiss_boundary(lead11, 1e6).real == pytest.approx(-1e-6, rel=1e-3, abs=0)


@settings(max_examples=40, deadline=None)
@given(E=st.floats(-10, 10), k=st.floats(0.2, 3), kappa=st.floats(0.2, 3))
def test_weiss_herglotz_sign(E, k, kappa):
    F = weiss_boundary(SemiInfiniteLaplacian(k, kappa), E)
    assert F.imag >= 0.0


def test_weiss_against_truncated_lead_oracle(lead11):
    # Independent oracle: resolvent of a long truncated lead, solved with
    # LAPACK at a small imaginary offset.
    for E in (-1.5, -0.3, 0.0, 0.8, 1.9):
        ref = truncated_weiss(1.0, 1.0, E)
        got = weiss_boundary(lead11, E)
        assert abs(got - ref) < 5e-3


def test_weiss_scaling_in_coupling_and_hopping():
    base = weiss_boundary(SemiInfiniteLaplacian(1.0, 1.0), 0.5)
    scaled = weiss_boundary(SemiInfiniteLaplacian(1.0, 3.0), 0.5)
    assert scaled == pytest.approx(9.0 * base, abs=1e-14)
    wide = weiss_boundary(SemiInfiniteLaplacian(2.0, 1.0), 1.0)
    ref = weiss_boundary(SemiInfiniteLaplacian(1.0, 1.0), 0.5)
    assert wide == pytest.approx(ref / 2.0, abs=1e-14)


def test_band_support_laplacian():
    win = SemiInfiniteLaplacian(1.5, 0.7).band()
    assert win.intervals == ((-3.0, 3.0),)
    assert win.contains(0.0) and not win.contains(3.0)


def test_tabulated_lead_csv_roundtrip(tmp_path):
    p = tmp_path / "lead.csv"
    p.write_text("E,re_F,im_F\n-1.0,0.5,0.0\n0.0,0.0,1.0\n1.0,-0.5,0.0\n")
    lead = TabulatedLead.from_csv(str(p))
    assert weiss_boundary(lead, 0.0) == pytest.approx(1j)
    assert weiss_boundary(lead, 0.5) == pytest.approx(-0.25 + 0.5j)
    with pytest.raises(DomainError):
        weiss_boundary(lead, 2.0)


def test_tabulated_lead_csv_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("energy,re,im\n0,0,0\n")
    with pytest.raises(ConfigError, match="header"):
        TabulatedLead.from_csv(str(bad_header))
    bad_value = tmp_path / "bad2.csv"
    bad_value.write_text("E,re_F,im_F\n0.0,x,0.0\n1.0,0.0,0.0\n")
    with pytest.raises(ConfigError):
        TabulatedLead.from_csv(str(bad_value))


def test_tabulated_lead_validation():
    with pytest.raises(ConfigError, match="increasing"):
        TabulatedLead(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ConfigError, match="Im F"):
        TabulatedLead(np.array([0.0, 1.0]), np.zeros(2), np.array([0.0, -1.0]))
    with pytest.raises(ConfigError, match="finite"):
        TabulatedLead(np.array([0.0, 1.0]), np.array([np.nan, 0.0]), np.ones(2))
    # Rounding-level negative entries are clamped, not rejected.
    lead = TabulatedLead(np.array([0.0, 1.0]), np.zeros(2), np.array([-1e-13, 1.0]))
    assert lead.im_f[0] == 0.0


def test_tabulated_boundary_clamps_interpolation_rounding():
    # np.interp rounds below zero between non-negative entries; boundary
    # is the only Im F >= 0 guard a tabulated lead has, so it must clamp.
    lead = TabulatedLead([-0.47078772717254713, 0.9443423684874057], [0.0, 0.0], [5.2541536019363516e-216, 0.0])
    E = 0.9443423684874056
    assert np.interp(E, lead.energies, lead.im_f) < 0.0
    assert lead.boundary(E).imag == 0.0


def _scalar_laplacian(lead, E):
    """The closed form as it was computed for one Python float E at a time,
    in Python's complex arithmetic: the reference for the array route."""
    k = lead.hopping
    kap2 = lead.coupling * lead.coupling
    if abs(E) < 2.0 * k:
        return kap2 * complex(-E, math.sqrt(4.0 * k * k - E * E)) / (2.0 * k * k)
    root = math.sqrt(E * E - 4.0 * k * k)
    if E < 0:
        root = -root
    return complex(kap2 * (-E + root) / (2.0 * k * k), 0.0)


def _scalar_table(lead, E):
    """Linear interpolation as it was computed for one Python float E."""
    e = lead.energies
    if E < e[0] or E > e[-1]:
        raise DomainError(f"E={E} outside table range [{e[0]}, {e[-1]}]")
    return complex(float(np.interp(E, e, lead.re_f)), max(0.0, float(np.interp(E, e, lead.im_f))))


def _assert_scalar_bits(lead, energies, reference):
    # Each value of the array call, and the call at each float alone, is a
    # Python complex with the repr of the scalar reference (signed zeros,
    # inf and nan included).
    got = weiss_boundary(lead, energies)
    assert type(got) is list and len(got) == len(energies)
    for E, F in zip(energies.tolist(), got):
        ref = reference(lead, E)
        alone = weiss_boundary(lead, E)
        assert type(F) is complex and type(alone) is complex
        assert repr(F) == repr(alone) == repr(ref), E


@pytest.mark.parametrize("hopping, coupling", [(1.0, 1.0), (0.7, 1.3), (2.5, 0.4), (1.0, 1.3e154)])
def test_laplacian_array_boundary_has_the_scalar_bits(hopping, coupling):
    # Random energies in and around the band, its edges +-2*hopping exactly
    # and their neighbours, both signed zeros, and energies far outside,
    # where E*E overflows. The last lead's coupling^2 * E overflows in the
    # band, so the scalar route's inf * 0.0 makes nan there.
    lead = SemiInfiniteLaplacian(hopping, coupling)
    edge = 2.0 * hopping
    rng = np.random.default_rng(11)
    special = [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(-edge, 0.0),
               np.nextafter(edge, np.inf), np.nextafter(-edge, -np.inf), 0.0, -0.0, 5e-324, 1e6, -1e6, 1e200, -1e200]
    energies = np.concatenate((rng.uniform(-1.5 * edge, 1.5 * edge, 2000), special))
    _assert_scalar_bits(lead, energies, _scalar_laplacian)


def test_tabulated_array_boundary_has_the_scalar_bits():
    # Every grid point, both table edges, random energies between them and
    # both signed zeros; an interpolated Im F that rounds below 0 is clamped
    # alike. An energy outside the table fails the array call, naming it.
    for lead in (
        TabulatedLead([-2.0, -0.5, 0.25, 1.0, 2.0], [0.3, -0.1, 0.7, 0.2, -0.4], [0.0, 0.9, 1e-3, 0.6, 0.0]),
        TabulatedLead([-0.47078772717254713, 0.9443423684874057], [0.0, 0.0], [5.2541536019363516e-216, 0.0]),
    ):
        e = lead.energies
        rng = np.random.default_rng(12)
        energies = np.concatenate((e, rng.uniform(e[0], e[-1], 2000), [0.0, -0.0, np.nextafter(e[-1], 0.0)]))
        _assert_scalar_bits(lead, energies, _scalar_table)
        for outside in (np.nextafter(e[0], -np.inf), np.nextafter(e[-1], np.inf), 1e6):
            message = str(pytest.raises(DomainError, _scalar_table, lead, outside).value)
            with pytest.raises(DomainError) as alone:
                weiss_boundary(lead, outside)
            with pytest.raises(DomainError) as batch:
                weiss_boundary(lead, np.array([e[0], outside, e[-1], outside]))
            assert str(alone.value) == str(batch.value) == message


def test_tabulated_lead_compares_and_hashes():
    # A plain value: two equal tables built apart compare and hash by
    # identity, where the generated dataclass methods raised on arrays.
    a, b = (TabulatedLead(np.array([0.0, 1.0]), np.zeros(2), np.ones(2)) for _ in range(2))
    assert a == a and a != b
    assert len({a, b}) == 2


def test_tabulated_band_support_zero_crossings():
    e = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    im = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    win = TabulatedLead(e, np.zeros(5), im).band()
    (lo, hi), = win.intervals
    assert lo == pytest.approx(-2.0)
    assert hi == pytest.approx(1.0)


def test_energy_window_operations():
    win = EnergyWindow(((-2.0, -1.0), (0.0, 3.0)))
    assert win.contains(0.5) and not win.contains(-0.5)
    # Open intervals, each energy of an array tested on its own.
    E = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 3.0, math.nan]
    assert win.contains(E).tolist() == [False, True, False, False, False, True, False, False]
    assert EnergyWindow().contains(E).tolist() == [False] * len(E)
    shrunk = win.shrink(0.6)
    assert shrunk.intervals == ((0.6, 2.4),)
    assert EnergyWindow(()).is_empty
    with pytest.raises(ValueError):
        EnergyWindow(((0.0, 2.0), (1.0, 3.0)))


def test_sigma_intersection():
    a = SemiInfiniteLaplacian(1.0, 1.0)
    b = SemiInfiniteLaplacian(0.5, 1.0)
    win = sigma_intersection(a, b)
    assert win.intervals == ((-1.0, 1.0),)
    e = np.array([5.0, 6.0])
    off_band = TabulatedLead(e, np.zeros(2), np.ones(2))
    assert sigma_intersection(a, off_band).is_empty
