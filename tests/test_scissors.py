import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import align_phase, random_gqsd
from qscissors.fock import coherent_expansion, fock_expansion
from qscissors.network import GqsdSpec
from qscissors.scissors import (ConditionalAmplitudes, MeasurementEvent,
                                TruncationTarget, ZeroProbabilityError,
                                analytic_amplitudes, conditional_amplitudes,
                                heralded_amplitude, qutrit_bs_relation,
                                symmetry_transforms, truncate,
                                truncation_defect)

PI = math.pi

QUARTIT_EVENT = MeasurementEvent((1, 1, 1), (1, 1, 1))
TWELFTH_SPEC = GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], (0, 0, 0, 0, PI / 2, 0))
SURD_SPEC = GqsdSpec([(13 - 3 * math.sqrt(13)) / 26, 1 / 2, 1, 1 / 3,
                      (2 + math.sqrt(3)) / 4])


def qubit_event(inputs, counts):
    return MeasurementEvent((inputs[0], inputs[1], 0), (counts[0], 0, counts[1]))


def reduced_spec(t1_sq, t4_sq, xi4=0.0):
    return GqsdSpec([t1_sq, 1, 1, t4_sq, 1], (0, 0, 0, xi4, 0, 0))


class TestMeasurementEvent:
    def test_dimension(self):
        assert QUARTIT_EVENT.dim == 4
        assert MeasurementEvent((1, 2, 1), (1, 2, 1)).dim == 5

    @pytest.mark.parametrize("inputs, counts", [
        ((math.inf, 0, 0), (1, 0, 0)), ((1, 0, 0), (math.nan, 0, 0))])
    def test_non_finite_photon_numbers_rejected(self, inputs, counts):
        with pytest.raises(ValueError):
            MeasurementEvent(inputs, counts)

    def test_photon_conservation_required(self):
        with pytest.raises(ValueError):
            MeasurementEvent((1, 1, 1), (1, 1, 0))


class TestConditionalAmplitudes:
    def test_published_twelfth_solution(self):
        c = conditional_amplitudes(TWELFTH_SPEC, QUARTIT_EVENT)
        assert np.max(np.abs(c.as_array() - 1 / 12)) < 1e-12

    def test_published_surd_solution(self):
        c = conditional_amplitudes(SURD_SPEC, QUARTIT_EVENT).as_array()
        aligned = align_phase(np.ones(4), c)
        assert np.max(np.abs(aligned - 1 / (4 * math.sqrt(39)))) < 1e-12

    def test_transparent_device_is_diagonal(self):
        # the identity network reproduces the counts only for n = 1
        c = conditional_amplitudes(GqsdSpec([1, 1, 1, 1, 1]), QUARTIT_EVENT)
        assert np.max(np.abs(c.as_array() - [0, 1, 0, 0])) == 0.0

    def test_structural_cutoff(self, rng):
        # no amplitude for n >= d: input 4 cannot reach output 1
        events = [QUARTIT_EVENT,
                  MeasurementEvent((1, 2, 1), (1, 2, 1)),
                  MeasurementEvent((1, 1, 0), (0, 1, 1))]
        for _ in range(20):
            spec = random_gqsd(rng, n_phases=6)
            for event in events:
                for n in (event.dim, event.dim + 1):
                    assert abs(heralded_amplitude(spec, event, n)) < 1e-12

    def test_xi6_phase_law(self, rng):
        for _ in range(10):
            spec = random_gqsd(rng)
            phi = rng.uniform(-PI, PI)
            shifted = GqsdSpec(spec.transmittances,
                               spec.phases[:5] + (spec.phases[5] + phi,))
            base = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
            c = conditional_amplitudes(shifted, QUARTIT_EVENT).as_array()
            expected = base * np.exp(1j * phi * np.arange(4))
            assert np.max(np.abs(c - expected)) < 1e-13


class TestTruncationDefect:
    def test_constant_amplitudes(self):
        c = ConditionalAmplitudes(4, (1 / 12,) * 4)
        assert truncation_defect(c, TruncationTarget.full(4)) == 0.0

    def test_hole_pattern(self):
        c = ConditionalAmplitudes(4, (0.3, 0.0, 0.3, 0.3))
        target = TruncationTarget.holes(4, {1})
        assert truncation_defect(c, target) == 0.0

    def test_arithmetic(self):
        c = ConditionalAmplitudes(4, (1.0, 0.0, 0.0, 0.0))
        assert truncation_defect(c, TruncationTarget.full(4)) == 3.0

    def test_quotient_phase(self):
        c = ConditionalAmplitudes(2, (0.5j, 0.5j))
        target = TruncationTarget.full(2)
        assert truncation_defect(c, target, quotient_phase=True) < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           phase=st.floats(-PI, PI))
    def test_global_phase_does_not_change_defect(self, d, seed, phase):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=d) + 1j * rng.normal(size=d)
        keep = frozenset(np.flatnonzero(rng.random(d) < 0.5)) or frozenset({0})
        target = TruncationTarget(d, keep)
        raw = truncation_defect(ConditionalAmplitudes(d, tuple(c)), target)
        rotated = truncation_defect(
            ConditionalAmplitudes(d, tuple(c * np.exp(1j * phase))), target)
        assert abs(rotated - raw) <= 1e-13 * (1.0 + raw)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            TruncationTarget(4, frozenset())


class TestTruncate:
    def test_teleports_pretruncated_qubit(self):
        field = fock_expansion([0.6, 0.8j])
        qudit, _ = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        assert abs(qudit.coeffs[0] - 0.6) < 1e-10
        assert abs(qudit.coeffs[1] - 0.8j) < 1e-10
        assert abs(qudit.coeffs[2]) < 1e-12 and abs(qudit.coeffs[3]) < 1e-12

    def test_coherent_probability(self):
        field = coherent_expansion(0.4, 1e-12)
        qudit, probability = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        kept = sum(abs(field.gammas[n]) ** 2 for n in range(4))
        assert abs(probability - kept / 144) < 1e-14
        expected = np.array(field.gammas[:4]) / math.sqrt(kept)
        assert np.max(np.abs(qudit.as_array() - expected)) < 1e-12

    def test_vacuum_field(self):
        field = fock_expansion([1.0])
        qudit, probability = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        assert abs(probability - (1 / 12) ** 2) < 1e-14
        assert abs(qudit.coeffs[0] - 1.0) < 1e-12

    def test_zero_probability(self):
        field = fock_expansion([1.0])  # vacuum
        spec = GqsdSpec([1, 1 / 2, 1 / 3, 1 / 2, 1])  # synthesizes |2>, c0 = 0
        with pytest.raises(ZeroProbabilityError):
            truncate(spec, QUARTIT_EVENT, field)


class TestAnalyticAmplitudes:
    def test_qubit_four_cases_match_evolution(self, rng):
        cases = [((1, 0), (0, 1)), ((0, 1), (1, 0)),
                 ((0, 1), (0, 1)), ((1, 0), (1, 0))]
        for _ in range(100):
            t1, t4 = rng.random(2)
            xi4 = rng.uniform(-PI, PI)
            spec = reduced_spec(t1, t4, xi4)
            for inputs, counts in cases:
                event = qubit_event(inputs, counts)
                ana = analytic_amplitudes(2, spec, event).as_array()
                num = conditional_amplitudes(spec, event).as_array()
                assert np.max(np.abs(num - ana)) < 1e-12

    def test_qubit_perfect_truncation_conditions(self, rng):
        target = TruncationTarget.full(2)
        for _ in range(25):
            t1 = rng.random()
            # crossed counts: t1 = r4, xi4 = 0
            for inputs, counts in [((1, 0), (0, 1)), ((0, 1), (1, 0))]:
                c = conditional_amplitudes(reduced_spec(t1, 1 - t1, 0.0),
                                           qubit_event(inputs, counts))
                assert truncation_defect(c, target) < 1e-12
            # straight counts: t1 = t4, xi4 = pi
            for inputs, counts in [((0, 1), (0, 1)), ((1, 0), (1, 0))]:
                c = conditional_amplitudes(reduced_spec(t1, t1, PI),
                                           qubit_event(inputs, counts))
                assert truncation_defect(c, target) < 1e-12

    def test_qubit_optimum_at_5050(self, rng):
        # the 50:50 pair maximizes the success amplitude over all solutions
        best = abs(conditional_amplitudes(
            reduced_spec(0.5, 0.5), qubit_event((1, 0), (0, 1))).c[0])
        assert abs(best - 0.5) < 1e-12
        for t1 in rng.random(50):
            c = conditional_amplitudes(reduced_spec(t1, 1 - t1),
                                       qubit_event((1, 0), (0, 1)))
            assert abs(c.c[0]) <= best + 1e-12

    def test_qutrit_matches_evolution(self, rng):
        event = qubit_event((1, 1), (1, 1))
        for _ in range(100):
            spec = reduced_spec(rng.random(), rng.random(), rng.uniform(-PI, PI))
            ana = analytic_amplitudes(3, spec, event).as_array()
            num = conditional_amplitudes(spec, event).as_array()
            assert np.max(np.abs(num - ana)) < 1e-12

    def test_quartit_matches_evolution(self, rng):
        for _ in range(100):
            spec = random_gqsd(rng, t3=1.0, zero_phases=(2,))
            ana = analytic_amplitudes(4, spec, QUARTIT_EVENT).as_array()
            num = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
            assert np.max(np.abs(num - align_phase(num, ana))) < 1e-10

    def test_d5_matches_evolution(self, rng):
        event = MeasurementEvent((1, 2, 1), (1, 2, 1))
        for _ in range(100):
            spec = random_gqsd(rng, t3=1.0, zero_phases=(2,))
            ana = analytic_amplitudes(5, spec, event).as_array()
            num = conditional_amplitudes(spec, event).as_array()
            assert np.max(np.abs(num - align_phase(num, ana))) < 1e-10

    def test_d6_partial_matches_evolution(self, rng):
        event = MeasurementEvent((2, 1, 2), (2, 1, 2))
        for _ in range(25):
            spec = random_gqsd(rng)
            ana = analytic_amplitudes(6, spec, event).as_array()
            num = conditional_amplitudes(spec, event).as_array()
            known = [4, 5]
            diff = np.abs(num[known] - align_phase(num[known], ana[known]))
            assert np.max(diff) < 1e-10

    def test_assumption_violations_rejected(self):
        with pytest.raises(ValueError):
            analytic_amplitudes(4, GqsdSpec([0.5, 0.5, 0.5, 0.5, 0.5]),
                                QUARTIT_EVENT)
        with pytest.raises(ValueError):
            analytic_amplitudes(5, GqsdSpec([0.5, 0.5, 1, 0.5, 0.5],
                                            (0, 0, 0.3, 0, 0, 0)),
                                MeasurementEvent((1, 2, 1), (1, 2, 1)))


class TestQutritRelation:
    def test_optimum_minus_branch(self):
        t1 = (3 - math.sqrt(3)) / 6
        t4 = qutrit_bs_relation(t1, -1)
        assert abs(t4 - t1) < 1e-12
        c = conditional_amplitudes(reduced_spec(t1, t4, 0.0),
                                   qubit_event((1, 1), (1, 1)))
        assert truncation_defect(c, TruncationTarget.full(3)) < 1e-12

    def test_optimum_plus_branch(self):
        t1 = (3 - math.sqrt(3)) / 6
        t4 = qutrit_bs_relation(t1, +1)
        assert abs(t4 - (1 - t1)) < 1e-12
        c = conditional_amplitudes(reduced_spec(t1, t4, PI),
                                   qubit_event((1, 1), (1, 1)))
        assert truncation_defect(c, TruncationTarget.full(3)) < 1e-12

    def test_sweep(self):
        target = TruncationTarget.full(3)
        for t1 in np.linspace(0.02, 0.98, 49):
            for branch in (+1, -1):
                t4 = qutrit_bs_relation(t1, branch)
                xi4 = 0.0 if branch * (2 * t1 - 1) > 0 else PI
                c = conditional_amplitudes(reduced_spec(t1, t4, xi4),
                                           qubit_event((1, 1), (1, 1)))
                assert truncation_defect(c, target) < 1e-12

    def test_degenerate_at_half(self):
        assert qutrit_bs_relation(0.5, +1) == 1.0
        assert qutrit_bs_relation(0.5, -1) == 0.0

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            qutrit_bs_relation(0.5, 2)


class TestSymmetryTransforms:
    def test_invariance(self, rng):
        for _ in range(100):
            x2, x5 = rng.uniform(-PI, PI, 2)
            spec = GqsdSpec(tuple(np.concatenate([rng.random(2), [1.0],
                                                  rng.random(2)])),
                            (0.0, x2, 0.0, x2 + x5, x5, 0.0))
            base = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
            images = symmetry_transforms(spec)
            assert len(images) == 3
            for image in images:
                c = conditional_amplitudes(image, QUARTIT_EVENT).as_array()
                assert np.max(np.abs(c - base)) < 1e-10

    def test_reversal_is_involution(self):
        spec = GqsdSpec([0.2, 0.3, 1.0, 0.7, 0.6], (0, 0.1, 0, 0.5, 0.4, 0))
        reversed_spec = symmetry_transforms(spec)[0]
        assert symmetry_transforms(reversed_spec)[0].transmittances == \
            spec.transmittances

    def test_published_solutions_stay_solutions(self):
        target = TruncationTarget.full(4)
        for spec in (TWELFTH_SPEC, SURD_SPEC):
            for image in symmetry_transforms(spec):
                c = conditional_amplitudes(image, QUARTIT_EVENT)
                assert truncation_defect(c, target) < 1e-10

    def test_requires_removed_bs3(self):
        with pytest.raises(ValueError):
            symmetry_transforms(GqsdSpec([0.5, 0.5, 0.5, 0.5, 0.5]))
