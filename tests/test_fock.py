import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscissors.fock import (MultimodeState, QuditState, coherent_expansion,
                            embed_input, fock_expansion, fock_product_state,
                            total_photons)


def poisson_tail(lam, n_max):
    # independent oracle: direct summation of the neglected Poisson mass
    total = 0.0
    term = math.exp(-lam)
    for n in range(n_max + 1):
        total += term
        term *= lam / (n + 1)
    return 1.0 - total


class TestCoherentExpansion:
    def test_vacuum(self):
        field = coherent_expansion(0.0)
        assert field.gammas == (1.0 + 0j,)

    def test_cutoff_matches_poisson_tail(self):
        field = coherent_expansion(0.4, tail_epsilon=1e-12)
        lam = 0.16
        assert poisson_tail(lam, field.n_max) < 1e-12
        assert poisson_tail(lam, field.n_max - 1) >= 1e-12  # minimal cutoff

    def test_coefficient_ratio(self):
        field = coherent_expansion(0.4, tail_epsilon=1e-12)
        # gamma_n proportional to alpha^n / sqrt(n!), so gamma_0/gamma_1 = 1/alpha
        assert abs(field.gammas[0] / field.gammas[1] - 1.0 / 0.4) < 1e-12

    def test_normalized(self):
        field = coherent_expansion(0.4)
        assert abs(sum(abs(g) ** 2 for g in field.gammas) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [3.0, 20.0])
    def test_cutoff_is_minimal_at_larger_means(self, alpha):
        # neglected mass summed from the top of linear-space running-product terms
        lam = alpha ** 2
        terms = [math.exp(-lam)]
        for n in range(1, int(lam + 40 * alpha + 60)):
            terms.append(terms[-1] * lam / n)
        n_max = coherent_expansion(alpha, 1e-12).n_max
        assert math.fsum(terms[n_max + 1:]) < 1e-12 <= math.fsum(terms[n_max:])

    @settings(max_examples=20, deadline=None)
    @given(magnitude=st.floats(0.01, 60.0), phase=st.floats(-math.pi, math.pi))
    def test_large_amplitudes_keep_ratio_and_norm(self, magnitude, phase):
        alpha = magnitude * complex(math.cos(phase), math.sin(phase))
        gammas = coherent_expansion(alpha).gammas
        assert abs(sum(abs(g) ** 2 for g in gammas) - 1.0) < 1e-12
        for n in range(len(gammas) - 1):
            if min(abs(gammas[n]), abs(gammas[n + 1])) > 1e-300:  # not underflowed
                expected = alpha / math.sqrt(n + 1)
                assert abs(gammas[n + 1] / gammas[n] - expected) < 1e-12 * abs(expected)

    def test_cutoff_is_capped(self):
        with pytest.raises(ValueError, match="10000 terms"):
            coherent_expansion(100.0)
        with pytest.raises(ValueError, match="10000 terms"):
            coherent_expansion(1e200)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coherent_expansion(complex("inf"))
        with pytest.raises(ValueError):
            coherent_expansion(0.4, tail_epsilon=0.0)
        with pytest.raises(ValueError):
            coherent_expansion(0.4, tail_epsilon=1.5)


class TestFockExpansion:
    @pytest.mark.parametrize("gammas", [[1e400, 1], [1, complex(0, math.nan)]])
    def test_non_finite_coefficients_rejected(self, gammas):
        with pytest.raises(ValueError, match="non-finite"):
            fock_expansion(gammas)


class TestFockProductState:
    def test_single_key(self):
        state = fock_product_state((1, 1, 1, 0))
        assert state.amplitudes == {(1, 1, 1, 0): 1.0 + 0j}

    def test_vacuum(self):
        state = fock_product_state((0, 0, 0, 0))
        assert state.amplitude((0, 0, 0, 0)) == 1.0

    def test_total_photons(self):
        state = fock_product_state((2, 1, 2, 0))
        (key,) = state.amplitudes
        assert total_photons(key) == 5

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            fock_product_state((1, -1, 0))


class TestMultimodeState:
    def test_pruning(self):
        state = MultimodeState(2, {(0, 0): 1.0, (1, 0): 1e-16})
        assert (1, 0) not in state.amplitudes

    def test_key_length_checked(self):
        with pytest.raises(ValueError):
            MultimodeState(3, {(0, 0): 1.0})

    def test_norm_and_normalized(self):
        state = MultimodeState(1, {(0,): 3.0, (1,): 4.0})
        assert abs(state.norm() - 5.0) < 1e-12
        assert state.normalized().is_normalized()

    def test_pruning_below_reporting_threshold(self):
        # dropping sub-1e-15 entries changes no amplitude by more than 1e-14
        amps = {(n,): 1.0 / (n + 1) if n < 3 else 9e-16 for n in range(6)}
        state = MultimodeState(1, amps)
        for key, wanted in amps.items():
            assert abs(state.amplitude(key) - wanted) < 1e-14


class TestEmbedInput:
    def test_vacuum_field(self):
        field = fock_expansion([1.0])
        state = embed_input(field, 3, (1, 1, 1))
        assert state.amplitudes == {(1, 1, 1, 0): 1.0 + 0j}

    def test_linearity_pattern(self):
        field = fock_expansion([0.6, 0.8])
        state = embed_input(field, 2, (1, 0))
        assert abs(state.amplitude((1, 0, 0)) - 0.6) < 1e-12
        assert abs(state.amplitude((1, 0, 1)) - 0.8) < 1e-12

    def test_coherent_embedding(self):
        field = coherent_expansion(0.4, 1e-12)
        state = embed_input(field, 3, (1, 1, 1))
        assert len(state) == field.n_max + 1
        assert state.is_normalized()

    def test_round_trip_recovers_field(self):
        field = coherent_expansion(0.7, 1e-12)
        state = embed_input(field, 1, (2, 1))
        recovered = [state.amplitude((2, n, 1)) for n in range(field.n_max + 1)]
        assert np.allclose(recovered, field.gammas, atol=0)

    def test_bad_mode_index(self):
        with pytest.raises(ValueError):
            embed_input(fock_expansion([1.0]), 4, (1, 1, 1))


class TestQuditState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            QuditState(2, (1.0, 1.0))

    def test_from_unnormalized(self):
        q = QuditState.from_unnormalized([1.0, 1.0])
        assert abs(abs(q.coeffs[0]) - 1 / math.sqrt(2)) < 1e-12
