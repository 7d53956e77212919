import numpy as np
import pytest
from hypothesis import given, strategies as st

from zonec.protocols import (
    adiabatic_matrix,
    cphase_matrix,
    equiv_up_to_global_phase,
    is_unitary,
    lp_matrix,
    rzz_matrix,
    synth_rzz_adiabatic,
    synth_rzz_cphase,
)

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


class TestConstructors:
    def test_rzz_zero_is_identity(self):
        assert np.allclose(rzz_matrix(0.0), np.eye(4), atol=1e-12)

    def test_cphase_pi_is_cz(self):
        assert np.allclose(cphase_matrix(np.pi), CZ, atol=1e-12)

    def test_lp_zero_is_cz(self):
        assert np.allclose(lp_matrix(0.0), CZ, atol=1e-12)

    @given(angles)
    def test_all_diagonal_unitary(self, g):
        for m in (rzz_matrix(g), lp_matrix(g), cphase_matrix(g), adiabatic_matrix(g, 0.3)):
            assert is_unitary(m)
            assert np.allclose(m, np.diag(np.diag(m)), atol=1e-12)


class TestRecipes:
    @given(angles)
    def test_cphase_recipe(self, g):
        rec = synth_rzz_cphase(g)
        assert equiv_up_to_global_phase(rec.compose(), rzz_matrix(g), 1e-12)

    @given(angles, angles)
    def test_adiabatic_recipe(self, g, phi2):
        rec = synth_rzz_adiabatic(g, phi2)
        assert equiv_up_to_global_phase(rec.compose(), rzz_matrix(g), 1e-12)

    def test_cphase_angle_formula(self):
        rec = synth_rzz_cphase(0.7)
        assert rec.cphase_phi == pytest.approx(-2 * 0.7 - np.pi)

    def test_adiabatic_angle_formula(self):
        rec = synth_rzz_adiabatic(0.7, 0.2)
        assert rec.ad_phi1 == pytest.approx((np.pi + 2 * 0.7 + 0.2) / 2)


class TestAnglesWithoutNumpy:
    """The recipes use math.pi so the compile path never loads numpy; every
    angle must stay the same double the numpy.pi formulas gave."""

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @given(finite)
    def test_cphase_phi_is_bit_identical(self, g):
        assert synth_rzz_cphase(g).cphase_phi == -2.0 * g - np.pi

    @given(finite, finite)
    def test_adiabatic_phi1_is_bit_identical(self, g, phi2):
        assert synth_rzz_adiabatic(g, phi2).ad_phi1 == (np.pi + 2.0 * g + phi2) / 2.0


class TestEquivalence:
    @given(angles)
    def test_global_phase_invariance(self, g):
        u = rzz_matrix(g)
        assert equiv_up_to_global_phase(u, np.exp(0.321j) * u, 1e-12)

    def test_inequivalent_detected(self):
        assert not equiv_up_to_global_phase(rzz_matrix(0.3), rzz_matrix(0.9), 1e-9)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            equiv_up_to_global_phase(np.eye(2), np.eye(4), 1e-9)
