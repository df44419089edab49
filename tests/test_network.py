import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gqsd
from qscissors.network import (BeamSplitter, GeneralBsSpec, GqsdSpec,
                               PhaseShifter, decompose_general_bs,
                               general_bs_matrix, gqsd_matrices, gqsd_matrix,
                               scattering_matrix, verify_unitary)
from qscissors.search import params_to_spec


class TestElementMatrix:
    def test_fully_transmitting_bs_is_identity(self):
        s = scattering_matrix([BeamSplitter((0, 1), 1.0)], 4)
        assert np.allclose(s, np.eye(4), atol=0)

    def test_5050_block(self):
        s = scattering_matrix([BeamSplitter((0, 1), 0.5)], 2)
        v = 1 / math.sqrt(2)
        assert np.allclose(s, [[v, v], [-v, v]], atol=1e-15)

    def test_phase_shifter(self):
        s = scattering_matrix([PhaseShifter(0, math.pi)], 4)
        assert np.allclose(s, np.diag([-1, 1, 1, 1]), atol=1e-15)

    def test_invalid_transmittance(self):
        with pytest.raises(ValueError):
            BeamSplitter((0, 1), 1.2)

    def test_unordered_modes(self):
        with pytest.raises(ValueError):
            BeamSplitter((2, 1), 0.5)

    @pytest.mark.parametrize("element", [
        BeamSplitter((-1, 0), 0.5), BeamSplitter((2, 3), 0.5),
        PhaseShifter(-1, 0.3), PhaseShifter(3, 0.3)])
    def test_mode_outside_network_rejected(self, element):
        # a negative index would wrap round to the last mode
        with pytest.raises(ValueError, match="outside"):
            scattering_matrix([element], 3)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_shifter_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="non-finite"):
            scattering_matrix([PhaseShifter(0, phase)], 2)


class TestGqsdMatrix:
    def test_identity_device(self):
        s = gqsd_matrix(GqsdSpec([1, 1, 1, 1, 1]))
        assert np.allclose(s, np.eye(4), atol=0)

    def test_unitarity_fuzz(self, rng):
        for _ in range(1000):
            s = gqsd_matrix(random_gqsd(rng, n_phases=6))
            assert verify_unitary(s, 1e-12)

    def test_no_path_from_input4_to_output1(self, rng):
        for _ in range(1000):
            s = gqsd_matrix(random_gqsd(rng, n_phases=6))
            assert abs(s[0, 3]) < 1e-14

    def test_matches_element_product(self, rng):
        for _ in range(50):
            spec = random_gqsd(rng, n_phases=6)
            product = np.eye(4, dtype=complex)
            for element in spec.elements():
                product = scattering_matrix([element], 4) @ product
            assert np.max(np.abs(gqsd_matrix(spec) - product)) < 1e-13

    def test_mirror_phases_absorbable(self, rng):
        # zeta on modes 1-3 folds into xi1, xi3, xi5; mode 4 keeps a row phase
        for _ in range(20):
            spec = random_gqsd(rng, n_phases=6)
            zeta = rng.uniform(-np.pi, np.pi)
            with_mirror = gqsd_matrix(GqsdSpec(spec.transmittances, spec.phases,
                                               mirror_zeta=zeta))
            x = list(spec.phases)
            x[0] += zeta
            x[2] += zeta
            x[4] += zeta
            absorbed = gqsd_matrix(GqsdSpec(spec.transmittances, tuple(x)))
            absorbed[3, :] *= np.exp(1j * zeta)
            assert np.max(np.abs(with_mirror - absorbed)) < 1e-12

    def test_ppb_reduction(self):
        # only BS1, BS4 and xi4 active: modes 1, 2, 4 form the two-splitter device
        spec = GqsdSpec([1 / 3, 1, 1, 2 / 3, 1], (0, 0, 0, 0.4, 0, 0))
        s = gqsd_matrix(spec)
        t1, r1 = math.sqrt(1 / 3), math.sqrt(2 / 3)
        t4, r4 = math.sqrt(2 / 3), math.sqrt(1 / 3)
        p = np.exp(0.4j)
        expected = np.array([
            [t1, r1, 0, 0],
            [-p * r1 * t4, p * t1 * t4, 0, r4],
            [0, 0, 1, 0],
            [p * r1 * r4, -p * t1 * r4, 0, t4]], dtype=complex)
        assert np.max(np.abs(s - expected)) < 1e-13

    def test_field_validation(self):
        with pytest.raises(ValueError):
            GqsdSpec([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            GqsdSpec([0.5, 0.5, 0.5, 0.5, 1.2])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(7))
    def test_non_finite_phase_rejected(self, index, value):
        # index 6 is mirror_zeta; a NaN phase would make every amplitude NaN
        phases = [0.0] * 6
        if index < 6:
            phases[index] = value
        with pytest.raises(ValueError, match="non-finite"):
            GqsdSpec([0.5] * 5, phases, mirror_zeta=value if index == 6 else 0.0)



class TestGqsdMatrices:
    def test_equal_to_element_path(self, rng):
        # mirror phases, a fixed T3 and angles at 0 and pi/2 included
        thetas = rng.uniform(0.0, np.pi / 2, (40, 4))
        thetas[::4, 0], thetas[1::4, 3] = 0.0, np.pi / 2
        for zeta in (0.0, rng.uniform(-np.pi, np.pi)):
            for fix_t3 in (None, 1.0, 0.3):
                specs = []
                for row in thetas:
                    angles = row if fix_t3 is not None else np.insert(row, 2, 0.7)
                    x = np.concatenate([angles, rng.uniform(-4, 4, 5)])
                    spec = params_to_spec(x, fix_t3=fix_t3)
                    specs.append(GqsdSpec(spec.transmittances, spec.phases[:5]
                                          + (rng.uniform(-4, 4),), zeta))
                batch = gqsd_matrices([s.transmittances for s in specs],
                                      [s.phases for s in specs], zeta)
                for spec, s in zip(specs, batch):
                    assert np.array_equal(s, gqsd_matrix(spec))

    def test_empty_batch(self):
        assert gqsd_matrices(np.zeros((0, 5)), np.zeros((0, 6))).shape == (0, 4, 4)

    @pytest.mark.parametrize("t, x, zeta", [
        (np.ones((2, 4)), np.zeros((2, 6)), 0.0),
        (np.ones((2, 5)), np.zeros((3, 6)), 0.0),
        (np.ones(5), np.zeros(6), 0.0),
        (np.full((1, 5), 1.5), np.zeros((1, 6)), 0.0),
        (np.full((1, 5), np.nan), np.zeros((1, 6)), 0.0),
        (np.ones((1, 5)), np.full((1, 6), np.inf), 0.0),
        (np.ones((1, 5)), np.zeros((1, 6)), np.nan)])
    def test_bad_parameters_rejected(self, t, x, zeta):
        with pytest.raises(ValueError):
            gqsd_matrices(t, x, zeta)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 12),
           zeta=st.floats(-np.pi, np.pi))
    def test_unitary(self, seed, batch, zeta):
        rng = np.random.default_rng(seed)
        s = gqsd_matrices(rng.random((batch, 5)), rng.uniform(-np.pi, np.pi, (batch, 6)),
                          zeta)
        residual = np.conj(np.swapaxes(s, 1, 2)) @ s - np.eye(4)
        assert np.max(np.abs(residual)) < 1e-12


class TestGeneralBsDecomposition:
    def test_trivial_phases(self):
        phase, p_plus, b, p_minus = decompose_general_bs(GeneralBsSpec(0.3))
        assert phase == 0.0
        assert np.allclose(p_plus, np.eye(2), atol=0)
        assert np.allclose(p_minus, np.eye(2), atol=0)
        assert np.allclose(b, scattering_matrix([BeamSplitter((0, 1), 0.3)], 2), atol=0)

    def test_symmetric_bs_convention(self):
        # theta_t = 0, theta_r = pi/2 gives the symmetric 50:50 splitter
        g = GeneralBsSpec(0.5, theta_0=0.0, theta_t=0.0, theta_r=math.pi / 2)
        v = 1 / math.sqrt(2)
        expected = np.array([[v, 1j * v], [1j * v, v]])
        phase, p_plus, b, p_minus = decompose_general_bs(g)
        reconstructed = np.exp(1j * phase) * p_plus @ b @ p_minus
        assert np.max(np.abs(reconstructed - expected)) < 1e-12
        assert np.max(np.abs(general_bs_matrix(g) - expected)) < 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["theta_0", "theta_t", "theta_r"])
    def test_non_finite_phase_rejected(self, name, value):
        with pytest.raises(ValueError, match="non-finite"):
            GeneralBsSpec(0.5, **{name: value})

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            g = GeneralBsSpec(rng.random(), *rng.uniform(-np.pi, np.pi, 3))
            phase, p_plus, b, p_minus = decompose_general_bs(g)
            reconstructed = np.exp(1j * phase) * p_plus @ b @ p_minus
            assert np.max(np.abs(reconstructed - general_bs_matrix(g))) < 1e-12


class TestVerifyUnitary:
    def test_identity(self):
        assert verify_unitary(np.eye(3))

    def test_perturbed(self):
        s = np.eye(3, dtype=complex)
        s[0, 1] += 1e-3
        assert not verify_unitary(s, 1e-6)
