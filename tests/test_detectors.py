import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qscissors
from qscissors.catalog import build_catalog
from qscissors.detectors import (CONVENTIONAL, KINDS, NUMBER_RESOLVING,
                                 SINGLE_PHOTON, DetectorModel, conditional_density_matrix,
                                 fidelity, heralded_density_matrix, nu_from_dark_rate,
                                 outcome_family, outcome_for_count, povm_for_outcome,
                                 povm_number_resolving)
from qscissors.evolution import detected_blocks, evolve
from qscissors.fock import (MultimodeState, QuditState, coherent_expansion, embed_input,
                            fock_expansion)
from qscissors.network import GqsdSpec, gqsd_matrix
from qscissors.scissors import MeasurementEvent, ZeroProbabilityError, truncate

PI = math.pi

TWELFTH_SPEC = GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], (0, 0, 0, 0, PI / 2, 0))
QUARTIT_EVENT = MeasurementEvent((1, 1, 1), (1, 1, 1))


def quartit_output_state(alpha=0.4):
    field = coherent_expansion(alpha, 1e-12)
    psi = embed_input(field, 3, QUARTIT_EVENT.fock_inputs)
    return field, evolve(psi, TWELFTH_SPEC.elements())


def reference_povm_number_resolving(model, registered, m_max):
    """The linear-space double loop: e^-nu nu^k / k! overflows past k = 170."""
    eta, nu = model.eta, model.nu
    w = np.zeros(m_max + 1)
    for m in range(m_max + 1):
        total = 0.0
        for n in range(min(registered, m) + 1):
            dark = math.exp(-nu) * nu ** (registered - n) / math.factorial(registered - n)
            total += dark * eta ** n * (1.0 - eta) ** (m - n) * math.comb(m, n)
        w[m] = total
    return w


def reference_density_matrix(state, models, outcomes):
    """Unnormalized rho and its trace by a double loop over entries sharing (m2, m3, m4)."""
    m_max = max(max(key[1:]) for key in state.amplitudes)
    w = [povm_for_outcome(model, outcome, m_max)
         for model, outcome in zip(models, outcomes)]
    rho = np.zeros((max(key[0] for key in state.amplitudes) + 1,) * 2, dtype=complex)
    for (n, *m), a in state.amplitudes.items():
        for (n_, *m_), b in state.amplitudes.items():
            if m == m_:
                rho[n, n_] += w[0][m[0]] * w[1][m[1]] * w[2][m[2]] * a * np.conj(b)
    return rho, rho.trace().real


def random_sparse_state(rng, terms=60):
    """Four-mode state with gaps in n1 and detected counts 0..3."""
    n1 = rng.choice([0, 2, 3, 6], size=terms)
    detected = rng.integers(0, 4, size=(terms, 3))
    amps = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return MultimodeState(4, {(int(n), *map(int, m)): a
                              for n, m, a in zip(n1, detected, amps)})


def outcome_probability_total(state, models):
    """Sum of the outcome probabilities over every outcome triple."""
    m_max = max(max(key[1:]) for key in state.amplitudes)
    total = 0.0
    for outcomes in itertools.product(*(outcome_family(model, m_max) for model in models)):
        try:
            total += conditional_density_matrix(state, models, outcomes)[1]
        except ZeroProbabilityError:
            pass
    return total


class TestDarkCounts:
    def test_published_windows(self):
        assert abs(nu_from_dark_rate(100.0, 10e-9) - 1e-6) < 1e-20
        assert abs(nu_from_dark_rate(1e4, 10e-9) - 1e-4) < 1e-18
        assert nu_from_dark_rate(0.0, 10e-9) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            nu_from_dark_rate(-1.0, 1e-9)

    @pytest.mark.parametrize("dark_rate, resolution_time",
                             [(math.inf, 1e-8), (math.nan, 1e-8), (100.0, math.inf),
                              (100.0, math.nan), (math.inf, 0.0), (1e300, 1e300)])
    def test_non_finite_rejected(self, dark_rate, resolution_time):
        with pytest.raises(ValueError):
            nu_from_dark_rate(dark_rate, resolution_time)


class TestPovmWeights:
    def test_ideal_detector_is_projective(self):
        model = DetectorModel(NUMBER_RESOLVING, eta=1.0, nu=0.0)
        for registered in range(4):
            w = povm_number_resolving(model, registered, 6)
            expected = np.zeros(7)
            expected[registered] = 1.0
            assert np.allclose(w, expected, atol=0)

    def test_half_efficiency_single_count(self):
        # eta = 1/2, nu = 0: w_m = C(m,1) (1/2)^m = m / 2^m
        model = DetectorModel(NUMBER_RESOLVING, eta=0.5, nu=0.0)
        w = povm_number_resolving(model, 1, 8)
        expected = np.array([m * 0.5 ** m for m in range(9)])
        assert np.allclose(w, expected, atol=1e-15)

    def test_dark_counts_scale_vacuum_outcome(self):
        # N = 0: only the n = 0 term survives, w_m = e^{-nu} (1-eta)^m
        model = DetectorModel(NUMBER_RESOLVING, eta=0.88, nu=1e-4)
        w = povm_number_resolving(model, 0, 6)
        expected = math.exp(-1e-4) * (1 - 0.88) ** np.arange(7)
        assert np.allclose(w, expected, rtol=1e-12)

    def test_completeness(self):
        # summing over every outcome recovers the identity weight 1
        for kind in (CONVENTIONAL, SINGLE_PHOTON, NUMBER_RESOLVING):
            model = DetectorModel(kind, eta=0.7, nu=1e-4)
            total = np.zeros(7)
            for outcome in outcome_family(model, 6):
                total += povm_for_outcome(model, outcome, 6)
            assert np.max(np.abs(total - 1.0)) < 1e-9

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 0.88, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 1e-6, 1e-4, 0.05, 1.0, 5.0, 40.0])
    def test_matches_linear_space_reference(self, eta, nu):
        model = DetectorModel(NUMBER_RESOLVING, eta, nu)
        for registered in range(60):
            expected = reference_povm_number_resolving(model, registered, 12)
            w = povm_number_resolving(model, registered, 12)
            assert np.max(np.abs(w - expected)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(KINDS), eta=st.floats(0.0, 1.0), nu=st.floats(0.0, 50.0),
           m_max=st.integers(0, 12))
    def test_completeness_property(self, kind, eta, nu, m_max):
        model = DetectorModel(kind, eta, nu)
        total = sum(povm_for_outcome(model, outcome, m_max)
                    for outcome in outcome_family(model, m_max))
        assert np.max(np.abs(total - 1.0)) < 1e-11

    def test_large_dark_count_family_is_complete(self):
        # exp(-800) underflows: a linear-space tail loop never ends here
        code = """if True:
            from qscissors.detectors import (NUMBER_RESOLVING, DetectorModel,
                                             outcome_family, povm_for_outcome)
            model = DetectorModel(NUMBER_RESOLVING, 0.7, 800.0)
            family = outcome_family(model, 3)
            total = sum(povm_for_outcome(model, outcome, 3) for outcome in family)
            print(len(family), float(abs(total - 1.0).max()))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(qscissors.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=20, check=True)
        size, deviation = done.stdout.split()
        # the Poisson(800) mass above 800 + 7.1 sqrt(800) is ~1e-12
        assert 800 + 6 * math.sqrt(800) < int(size) < 800 + 9 * math.sqrt(800)
        assert float(deviation) < 1e-11

    def test_invalid_outcomes(self):
        with pytest.raises(ValueError):
            povm_for_outcome(DetectorModel(CONVENTIONAL), 1, 4)
        with pytest.raises(ValueError):
            povm_for_outcome(DetectorModel(SINGLE_PHOTON), "click", 4)
        with pytest.raises(ValueError):
            povm_for_outcome(DetectorModel(NUMBER_RESOLVING), -1, 4)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DetectorModel("avalanche")
        with pytest.raises(ValueError):
            DetectorModel(CONVENTIONAL, eta=1.5)
        with pytest.raises(ValueError):
            DetectorModel(CONVENTIONAL, nu=-1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eta, nu", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                         (0.9, math.nan), (0.9, math.inf)])
    def test_non_finite_parameters_rejected(self, kind, eta, nu):
        with pytest.raises(ValueError):
            DetectorModel(kind, eta, nu)


class TestOutcomeMapping:
    def test_coarse_graining(self):
        assert outcome_for_count(CONVENTIONAL, 0) == "no-click"
        assert outcome_for_count(CONVENTIONAL, 3) == "click"
        assert outcome_for_count(SINGLE_PHOTON, 1) == 1
        assert outcome_for_count(SINGLE_PHOTON, 2) == "2+"
        assert outcome_for_count(NUMBER_RESOLVING, 5) == 5

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_count_rejected(self, kind):
        with pytest.raises(ValueError, match="negative"):
            outcome_for_count(kind, -1)

    def test_families(self):
        assert outcome_family(DetectorModel(CONVENTIONAL), 4) == \
            ["no-click", "click"]
        assert outcome_family(DetectorModel(SINGLE_PHOTON), 4) == [0, 1, "2+"]
        family = outcome_family(DetectorModel(NUMBER_RESOLVING, nu=0.0), 4)
        assert family == list(range(5))


class TestConditionalDensityMatrix:
    def test_ideal_detection_matches_truncation(self):
        field, phi = quartit_output_state()
        models = [DetectorModel(NUMBER_RESOLVING, 1.0, 0.0)] * 3
        rho, probability = conditional_density_matrix(phi, models, (1, 1, 1))
        ideal, p_ideal = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        assert abs(probability - p_ideal) < 1e-12
        assert abs(fidelity(rho, ideal) - 1.0) < 1e-10
        # the heralded state is pure for perfect number resolution
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_outcome_probabilities_sum_to_one(self):
        _, phi = quartit_output_state()
        for kind in (CONVENTIONAL, SINGLE_PHOTON):
            model = DetectorModel(kind, eta=0.7, nu=1e-4)
            total = 0.0
            for o2 in outcome_family(model, 8):
                for o3 in outcome_family(model, 8):
                    for o4 in outcome_family(model, 8):
                        _, p = conditional_density_matrix(
                            phi, [model] * 3, (o2, o3, o4))
                        total += p
            assert abs(total - 1.0) < 1e-9

    def test_fidelity_degrades_with_efficiency(self):
        field, phi = quartit_output_state()
        ideal, _ = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        fids = []
        for eta in (1.0, 0.9, 0.7):
            models = [DetectorModel(CONVENTIONAL, eta, 1e-6)] * 3
            outcomes = [outcome_for_count(CONVENTIONAL, n)
                        for n in QUARTIT_EVENT.counts]
            rho, _ = conditional_density_matrix(phi, models, outcomes)
            fids.append(fidelity(rho, ideal))
        assert fids[0] > fids[1] > fids[2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_double_loop_reference(self, rng, kind):
        zero_weight_groups = 0
        for _ in range(20):
            state = random_sparse_state(rng)
            # eta = 1 and nu = 0 make every other count's weight exactly zero
            eta, nu = ((1.0, 0.0), (0.6, 0.0), (0.8, 0.05))[int(rng.integers(3))]
            models = [DetectorModel(kind, eta, nu)] * 3
            outcomes = [outcome_for_count(kind, int(n)) for n in rng.integers(0, 3, 3)]
            expected, p_expected = reference_density_matrix(state, models, outcomes)
            if p_expected == 0.0:
                with pytest.raises(ZeroProbabilityError):
                    conditional_density_matrix(state, models, outcomes)
                continue
            rho, probability = conditional_density_matrix(state, models, outcomes)
            assert abs(probability - p_expected) < 1e-13 * p_expected
            assert np.max(np.abs(rho - expected / p_expected)) < 1e-13
            w = [povm_for_outcome(m, o, 3) for m, o in zip(models, outcomes)]
            zero_weight_groups += sum(w[0][k[1]] * w[1][k[2]] * w[2][k[3]] == 0.0
                                      for k in state.amplitudes)
        assert zero_weight_groups > 0

    def test_requires_four_modes(self):
        from qscissors.fock import MultimodeState
        state = MultimodeState(3, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            conditional_density_matrix(
                state, [DetectorModel(CONVENTIONAL)] * 3, ("click",) * 3)


class TestDensityMatrixProperties:
    @settings(max_examples=8, deadline=None)
    @given(magnitude=st.floats(0.05, 0.5), phase=st.floats(-PI, PI),
           kind=st.sampled_from(KINDS), eta=st.floats(0.3, 1.0),
           nu=st.sampled_from([0.0, 1e-4, 0.02]))
    def test_heralded_state_is_a_density_matrix(self, magnitude, phase, kind, eta, nu):
        field = coherent_expansion(magnitude * np.exp(1j * phase), 1e-3)
        psi = embed_input(field, 3, QUARTIT_EVENT.fock_inputs)
        phi = evolve(psi, TWELFTH_SPEC.elements())
        models = [DetectorModel(kind, eta, nu)] * 3
        outcomes = [outcome_for_count(kind, n) for n in QUARTIT_EVENT.counts]
        rho, probability = conditional_density_matrix(phi, models, outcomes)
        assert 0.0 < probability <= 1.0 + 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(outcome_probability_total(phi, models) - 1.0) < 1e-9


class TestFidelity:
    def test_pure_state(self):
        phi = QuditState.from_unnormalized([1.0, 1.0j, 0.5])
        rho = np.outer(phi.as_array(), np.conj(phi.as_array()))
        assert abs(fidelity(rho, phi) - 1.0) < 1e-14

    def test_maximally_mixed(self):
        phi = QuditState.from_unnormalized([1.0, 1.0, 1.0, 1.0])
        rho = np.eye(4) / 4.0
        assert abs(fidelity(rho, phi) - 0.25) < 1e-14

    def test_support_mismatch_padding(self):
        phi = QuditState.from_unnormalized([1.0, 0.0, 0.0, 0.0])
        rho = np.array([[1.0]])  # rho supported on |0> only
        assert abs(fidelity(rho, phi) - 1.0) < 1e-14


CATALOG = {entry.name: entry for entry in build_catalog()}
GAPPED_FIELD = fock_expansion([0.6, 0, 0.5j, 0, 0, 0.3 - 0.2j, 0, 0.2])


def output_state_and_blocks(spec, event, field):
    """The full output state (reference path) and the per-t blocks of the same input."""
    state = evolve(embed_input(field, 3, event.fock_inputs), spec.elements())
    return state, detected_blocks(gqsd_matrix(spec), event.fock_inputs, field.gammas)


def assert_blocks_match_state(state, blocks, models, outcomes):
    expected, p_expected = conditional_density_matrix(state, models, outcomes)
    rho, probability = heralded_density_matrix(blocks, models, outcomes)
    k = len(expected)  # rho also spans the n1 rows that only the pruned amplitudes reach
    assert abs(probability - p_expected) < 1e-13 * p_expected
    assert np.max(np.abs(rho[:k, :k] - expected)) < 1e-13
    assert np.max(np.abs(rho[k:]), initial=0.0) < 1e-13
    assert np.max(np.abs(rho[:, k:]), initial=0.0) < 1e-13
    return rho


class TestDetectedBlocks:
    def test_block_layout(self):
        field = coherent_expansion(0.5, 1e-6)
        blocks = detected_blocks(gqsd_matrix(TWELFTH_SPEC), (1, 1, 1), field.gammas)
        p_max = 3 + field.n_max
        assert len(blocks) == p_max + 1
        for t, (occupations, phi) in enumerate(blocks):
            assert occupations.shape == (3, (t + 1) * (t + 2) // 2)
            assert np.all(occupations.sum(axis=0) == t) and np.all(occupations >= 0)
            assert len({tuple(m) for m in occupations.T}) == occupations.shape[1]
            assert phi.shape == (p_max - t + 1, occupations.shape[1])
            # n1 + t photons below the 3 auxiliary ones are never reached
            assert not phi[:max(3 - t, 0)].any()

    def test_amplitudes_match_output_state(self):
        field = coherent_expansion(0.7 + 0.2j, 1e-8)
        state, blocks = output_state_and_blocks(TWELFTH_SPEC, QUARTIT_EVENT, field)
        found = {}
        for occupations, phi in blocks:
            for n1, j in zip(*np.nonzero(phi)):
                found[(int(n1), *map(int, occupations[:, j]))] = phi[n1, j]
        for key, amplitude in state.amplitudes.items():
            assert found.pop(key) == amplitude
        assert max(map(abs, found.values()), default=0.0) < 1e-15  # pruned by the state

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_events_match_full_state_path(self, name):
        entry = CATALOG[name]
        state, blocks = output_state_and_blocks(
            entry.spec, entry.event, coherent_expansion(0.5 + 0.3j, 1e-12))
        for kind in KINDS:
            models = [DetectorModel(kind, 0.8, 0.01)] * 3
            outcomes = [outcome_for_count(kind, n) for n in entry.event.counts]
            assert_blocks_match_state(state, blocks, models, outcomes)

    @pytest.mark.parametrize("name", ["quartit numeric 0.134", "d=5 numeric", "d=6 numeric 1"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_gammas_leave_gaps_in_n1(self, name, kind):
        entry = CATALOG[name]
        state, blocks = output_state_and_blocks(entry.spec, entry.event, GAPPED_FIELD)
        p0 = sum(entry.event.fock_inputs)
        for t, (_, phi) in enumerate(blocks):
            for n1 in range(len(phi)):
                if not GAPPED_FIELD.coefficient(n1 + t - p0):
                    assert not phi[n1].any()
        models = [DetectorModel(kind, 0.6, 0.05)] * 3
        for outcomes in ([outcome_for_count(kind, n) for n in entry.event.counts],
                         [outcome_for_count(kind, 0)] * 3):
            assert_blocks_match_state(state, blocks, models, outcomes)

    def test_ideal_detection_is_the_truncated_qudit(self):
        field = coherent_expansion(1.3j)
        blocks = detected_blocks(gqsd_matrix(TWELFTH_SPEC), (1, 1, 1), field.gammas)
        models = [DetectorModel(NUMBER_RESOLVING, 1.0, 0.0)] * 3
        rho, probability = heralded_density_matrix(blocks, models, (1, 1, 1))
        ideal, p_ideal = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
        assert abs(probability - p_ideal) < 1e-13 * p_ideal
        assert abs(fidelity(rho, ideal) - 1.0) < 1e-13

    def test_vanishing_outcome_raises(self):
        blocks = detected_blocks(gqsd_matrix(TWELFTH_SPEC), (1, 1, 1), (1.0,))
        with pytest.raises(ZeroProbabilityError, match="vanishing probability"):
            heralded_density_matrix(blocks, [DetectorModel(NUMBER_RESOLVING)] * 3, (4, 0, 0))

    @settings(max_examples=15, deadline=None)
    @given(transmittances=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           phases=st.lists(st.floats(-PI, PI), min_size=6, max_size=6),
           fock_inputs=st.tuples(*[st.integers(0, 2)] * 3),
           gammas=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=8))
    def test_norm_is_conserved(self, transmittances, phases, fock_inputs, gammas):
        spec = GqsdSpec(transmittances, phases)
        blocks = detected_blocks(gqsd_matrix(spec), fock_inputs, gammas)
        total = sum(np.sum(np.abs(phi) ** 2) for _, phi in blocks)
        expected = sum(abs(g) ** 2 for g in gammas)
        assert abs(total - expected) <= 1e-12 * max(expected, 1.0)


class TestFidelityVersusEfficiency:
    """Points of README's F-versus-eta table (alpha = 0.4), from the full-state path."""

    @pytest.mark.parametrize("name, kind, eta, r_dark, expected", [
        ("quartit numeric 0.134", CONVENTIONAL, 0.5, 100.0, 0.9068),
        ("d=5 numeric", SINGLE_PHOTON, 0.9, 1e4, 0.9603),
        ("d=5 numeric", NUMBER_RESOLVING, 1.0, 1e4, 0.9997)])
    def test_table_point(self, name, kind, eta, r_dark, expected):
        entry = CATALOG[name]
        field = coherent_expansion(0.4)
        state = evolve(embed_input(field, 3, entry.event.fock_inputs), entry.spec.elements())
        models = [DetectorModel(kind, eta, nu_from_dark_rate(r_dark, 10e-9))] * 3
        outcomes = [outcome_for_count(kind, n) for n in entry.event.counts]
        rho, _ = conditional_density_matrix(state, models, outcomes)
        ideal, _ = truncate(entry.spec, entry.event, field)
        assert round(fidelity(rho, ideal), 4) == expected
