import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gqsd
from qscissors.evolution import (OracleLimitError, _sectors, detected_blocks, evolve,
                                 evolve_fock_oracle, projected_amplitudes)
from qscissors.fock import (coherent_expansion, embed_input, fock_product_state,
                            total_photons)
from qscissors.network import (BeamSplitter, GqsdSpec, PhaseShifter, gqsd_matrices,
                               gqsd_matrix, scattering_matrix)

# One heralding event per dimension d = 2..6.
EVENTS = [((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (1, 0, 1)), ((1, 1, 1), (1, 1, 1)),
          ((1, 2, 1), (1, 2, 1)), ((2, 1, 2), (2, 1, 2))]


def bs5050(n_modes=2):
    return BeamSplitter((0, 1), 0.5)


def random_occupation(rng, n_modes, max_total):
    total = int(rng.integers(0, max_total + 1))
    occ = [0] * n_modes
    for _ in range(total):
        occ[int(rng.integers(0, n_modes))] += 1
    return tuple(occ)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def permanent_amplitude(s, occ_in, occ_out):
    """<occ_out| U |occ_in> = perm(S[rows, cols]) / sqrt(prod n_i! prod m_j!)."""
    cols = [i for i, n in enumerate(occ_in) for _ in range(n)]
    rows = [j for j, m in enumerate(occ_out) for _ in range(m)]
    sub = s[np.ix_(rows, cols)]
    perm = sum(math.prod(sub[sigma[c], c] for c in range(len(cols)))
               for sigma in itertools.permutations(range(len(rows))))
    factorials = math.prod(math.factorial(n) for n in occ_in + occ_out)
    return perm / math.sqrt(factorials)


def max_amplitude_diff(a, b):
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


class TestOracle:
    def test_identity(self):
        out = evolve_fock_oracle(np.eye(4), (1, 1, 1, 0))
        assert out.amplitudes == {(1, 1, 1, 0): 1.0 + 0j}

    def test_single_photon_on_5050(self):
        s = scattering_matrix([bs5050()], 2)
        out = evolve_fock_oracle(s, (1, 0))
        v = 1 / math.sqrt(2)
        assert abs(out.amplitude((1, 0)) - v) < 1e-14
        assert abs(out.amplitude((0, 1)) + v) < 1e-14

    def test_hong_ou_mandel(self):
        s = scattering_matrix([bs5050()], 2)
        out = evolve_fock_oracle(s, (1, 1))
        v = 1 / math.sqrt(2)
        assert abs(out.amplitude((2, 0)) - v) < 1e-14
        assert abs(out.amplitude((0, 2)) + v) < 1e-14
        assert abs(out.amplitude((1, 1))) < 1e-14  # two-photon cancellation

    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    def test_matches_permanent_formula(self, rng, n_modes):
        for total in range(1, 7):
            s = random_unitary(rng, n_modes)
            occ = tuple(int(n) for n in np.bincount(rng.integers(0, n_modes, total),
                                                    minlength=n_modes))
            out = evolve_fock_oracle(s, occ)
            outputs = [m for m in itertools.product(range(total + 1), repeat=n_modes)
                       if sum(m) == total]
            assert set(out.amplitudes) <= set(outputs)
            for m in outputs:
                assert abs(out.amplitude(m) - permanent_amplitude(s, occ, m)) < 1e-13

    def test_photon_limit(self):
        with pytest.raises(OracleLimitError):
            evolve_fock_oracle(np.eye(2), (5, 5))


class TestApplyElement:
    def test_phase_shifter(self):
        state = fock_product_state((3, 1))
        out = evolve(state, [PhaseShifter(0, 0.7)])
        assert abs(out.amplitude((3, 1)) - np.exp(2.1j)) < 1e-14

    def test_transparent_bs(self):
        state = fock_product_state((2, 3))
        out = evolve(state, [BeamSplitter((0, 1), 1.0)])
        assert max_amplitude_diff(out, state) == 0.0

    def test_matches_oracle_on_hom(self):
        out = evolve(fock_product_state((1, 1)), [bs5050()])
        ref = evolve_fock_oracle(scattering_matrix([bs5050()], 2), (1, 1))
        assert max_amplitude_diff(out, ref) < 1e-14


class TestEvolve:
    def test_empty_sequence(self):
        state = fock_product_state((1, 2, 0, 1))
        assert max_amplitude_diff(evolve(state, []), state) == 0.0

    def test_published_quartit_amplitude(self):
        # the 1/12 device maps <3,1,1,1| U |1,1,1,3> to 1/12
        spec = GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2],
                        (0, 0, 0, 0, math.pi / 2, 0))
        out = evolve(fock_product_state((1, 1, 1, 3)), spec.elements())
        assert abs(out.amplitude((3, 1, 1, 1)) - 1 / 12) < 1e-12

    def test_fast_path_matches_oracle(self, rng):
        for _ in range(100):
            spec = random_gqsd(rng, n_phases=6)
            occ = random_occupation(rng, 4, 5)
            fast = evolve(fock_product_state(occ), spec.elements())
            slow = evolve_fock_oracle(gqsd_matrix(spec), occ)
            assert max_amplitude_diff(fast, slow) < 1e-11

    def test_fast_path_matches_oracle_six_photons(self, rng):
        for _ in range(10):
            spec = random_gqsd(rng, n_phases=6)
            occ = random_occupation(rng, 4, 6)
            fast = evolve(fock_product_state(occ), spec.elements())
            slow = evolve_fock_oracle(gqsd_matrix(spec), occ)
            assert max_amplitude_diff(fast, slow) < 1e-11

    def test_norm_preserved(self, rng):
        for _ in range(50):
            spec = random_gqsd(rng, n_phases=6)
            occ = random_occupation(rng, 4, 6)
            out = evolve(fock_product_state(occ), spec.elements())
            assert abs(out.norm() - 1.0) < 1e-12

    def test_photon_number_conserved(self, rng):
        for _ in range(50):
            spec = random_gqsd(rng, n_phases=6)
            occ = random_occupation(rng, 4, 6)
            out = evolve(fock_product_state(occ), spec.elements())
            assert all(total_photons(k) == total_photons(occ)
                       for k in out.amplitudes)

    def test_linearity(self, rng):
        for _ in range(20):
            spec = random_gqsd(rng, n_phases=6)
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s1 = fock_product_state(random_occupation(rng, 4, 4))
            s2 = fock_product_state(random_occupation(rng, 4, 4))
            mixed = s1.scaled(a).add(s2.scaled(b))
            left = evolve(mixed, spec.elements())
            right = (evolve(s1, spec.elements()).scaled(a)
                     .add(evolve(s2, spec.elements()).scaled(b)))
            assert max_amplitude_diff(left, right) < 1e-12

    def test_coherent_input_matches_oracle(self, rng):
        # keys that share modes 1-3 but fall in six photon-number sectors
        field = coherent_expansion(np.exp(0.4j), 1e-3)
        assert field.n_max == 5
        for _ in range(5):
            spec = random_gqsd(rng, n_phases=6)
            out = evolve(embed_input(field, 3, (1, 1, 1)), spec.elements())
            s = gqsd_matrix(spec)
            expected = evolve_fock_oracle(s, (1, 1, 1, 0)).scaled(field.gammas[0])
            for n in range(1, field.n_max + 1):
                expected = expected.add(
                    evolve_fock_oracle(s, (1, 1, 1, n)).scaled(field.gammas[n]))
            assert max_amplitude_diff(out, expected) < 1e-11


def random_stack(rng, batch):
    """(batch, 4, 4) device matrices with random T, xi and mirror phase."""
    return gqsd_matrices(rng.random((batch, 5)), rng.uniform(-np.pi, np.pi, (batch, 6)),
                         rng.uniform(-np.pi, np.pi))


class TestBatchedEngine:
    @pytest.mark.parametrize("fock_inputs, counts", EVENTS)
    def test_stack_equals_per_device_calls(self, rng, fock_inputs, counts):
        stack = random_stack(rng, 18)
        stack[3] = gqsd_matrix(GqsdSpec([1, 1, 1, 1, 1]))  # zero columns for one device only
        n_max = sum(fock_inputs)
        batched = projected_amplitudes(stack, fock_inputs, counts, n_max)
        assert batched.shape == (18, n_max + 1)
        for s, row in zip(stack, batched):
            assert np.array_equal(row, projected_amplitudes(s, fock_inputs, counts, n_max))

    def test_leading_axes_kept(self, rng):
        stack = random_stack(rng, 6).reshape(2, 3, 4, 4)
        out = projected_amplitudes(stack, (1, 1, 1), (1, 1, 1), 3)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out[1, 2], projected_amplitudes(stack[1, 2], (1, 1, 1),
                                                              (1, 1, 1), 3))


S4 = gqsd_matrix(GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], (0, 0, 0, 0, np.pi / 2, 0)))


class TestEngineArguments:
    # each of these used to return a value without complaint
    @pytest.mark.parametrize("args", [
        (S4, (1, 1, 1, 0), (1, 1, 1), 2),
        (S4, (-1, 1, 1), (0, 0, 1), 2),
        (S4, (1, 1, 1), (1, 1, 1, 0), 2),
        (S4, (1, 1, 1), (1, 1, 1), -1),
        (S4, (1, 1, 1), (1, 1, 1), 2.0),
        (S4, (1.5, 1, 1), (1, 1.5, 1), 2),
        (S4[:3], (1, 1), (1, 1), 2),
        (S4[0], (1, 1, 1), (1, 1, 1), 2)])
    def test_projected_amplitudes_rejects(self, args):
        with pytest.raises(ValueError):
            projected_amplitudes(*args)

    @pytest.mark.parametrize("s, fock_inputs, gammas", [
        (S4, (1, 1), [1.0, 0.5]),
        (S4, (1, 1, -1), [1.0]),
        (S4, (1, 1, 1), []),
        (S4[None], (1, 1, 1), [1.0])])
    def test_detected_blocks_rejects(self, s, fock_inputs, gammas):
        with pytest.raises(ValueError):
            detected_blocks(s, fock_inputs, gammas)

    def test_numpy_integers_accepted(self):
        counts = tuple(np.int64(1) for _ in range(3))
        assert np.array_equal(projected_amplitudes(S4, (1, 1, 1), counts, np.int32(3)),
                              projected_amplitudes(S4, (1, 1, 1), (1, 1, 1), 3))


@st.composite
def occupations(draw, modes=4, photons=8):
    """Every occupation of ``modes`` modes with at most ``photons`` in all, unfiltered."""
    occupation = []
    for _ in range(modes):
        occupation.append(draw(st.integers(0, photons - sum(occupation))))
    return occupation


class TestEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), occupation=occupations())
    def test_matches_oracle(self, seed, occupation):
        spec = random_gqsd(np.random.default_rng(seed), n_phases=6)
        fast = evolve(fock_product_state(tuple(occupation)), spec.elements())
        slow = evolve_fock_oracle(gqsd_matrix(spec), occupation)
        assert max_amplitude_diff(fast, slow) < 1e-11
        # the network conserves photon number: every output term has the input's total
        assert all(min(key) >= 0 and sum(key) == sum(occupation) for key in fast.amplitudes)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
           prefix=st.lists(st.integers(0, 2), min_size=3, max_size=3),
           n_gammas=st.integers(1, 5))
    def test_norm_conserved(self, seed, batch, prefix, n_gammas):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, batch)
        # every uncut sector of every device is the normalised output of a Fock state
        for _, sectors in _sectors(stack, prefix, n_gammas - 1):
            norms = np.sum(np.abs(sectors.reshape(batch, -1)) ** 2, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
        gammas = rng.normal(size=n_gammas) + 1j * rng.normal(size=n_gammas)
        for s in stack:
            blocks = detected_blocks(s, prefix, gammas)
            total = sum(np.sum(np.abs(block.phi) ** 2) for block in blocks)
            expected = np.sum(np.abs(gammas) ** 2)
            assert abs(total - expected) < 1e-12 * expected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), event=st.sampled_from(EVENTS),
           phi=st.floats(-np.pi, np.pi))
    def test_xi6_phase_law(self, seed, event, phi):
        # xi6 sits on output mode 1: c_n picks up exp(i n phi)
        rng = np.random.default_rng(seed)
        transmittances, phases = rng.random((4, 5)), rng.uniform(-np.pi, np.pi, (4, 6))
        base = gqsd_matrices(transmittances, phases)
        phases[:, 5] += phi
        shifted = gqsd_matrices(transmittances, phases)
        n_max = sum(event[0])
        c0 = projected_amplitudes(base, *event, n_max)
        c = projected_amplitudes(shifted, *event, n_max)
        assert np.max(np.abs(c - c0 * np.exp(1j * phi * np.arange(n_max + 1)))) < 1e-13
