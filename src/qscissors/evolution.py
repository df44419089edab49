"""Fock-state evolution through linear networks: scattering-matrix engine and its oracle."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .fock import MultimodeState, total_photons
from .network import scattering_matrix

ORACLE_PHOTON_LIMIT = 8
# Trailing photons whose N^block target tuples the oracle handles as one array.
_ORACLE_BLOCK = 6


class OracleLimitError(RuntimeError):
    """Raised when the brute-force oracle is asked for too many photons."""


def evolve_fock_oracle(s: np.ndarray, occupation,
                       photon_limit: int = ORACLE_PHOTON_LIMIT) -> MultimodeState:
    """Evolve a single Fock product state by brute-force multi-index summation.

    Expands prod_i (sum_j S_ji a_j^dag)^{n_i} |0> over all N^M index
    tuples (M = total photons): each tuple (j_1 .. j_M) contributes
    prod_p S[j_p, label_p] to the key that counts its targets. The last
    ``_ORACLE_BLOCK`` photons form one numpy block of N^block tuples, in
    itertools.product order; a Python loop runs over the leading photons.
    Exponential cost; intended as the trusted reference for the fast path,
    so it shares no code with it.
    """
    s = np.asarray(s, dtype=complex)
    n_modes = s.shape[0]
    occupation = tuple(int(n) for n in occupation)
    if len(occupation) != n_modes:
        raise ValueError("occupation length must match matrix dimension")
    m_total = total_photons(occupation)
    if m_total > photon_limit:
        raise OracleLimitError(
            f"{m_total} photons exceeds oracle limit {photon_limit}")

    if m_total == 0:
        return MultimodeState(n_modes, {occupation: 1.0})

    # Creation-operator source label per photon: n_i copies of mode i.
    labels = [i for i, n in enumerate(occupation) for _ in range(n)]
    prefactor = 1.0 / math.sqrt(math.prod(math.factorial(n) for n in occupation))
    lead = max(m_total - _ORACLE_BLOCK, 0)

    # A key (k_1 .. k_N) is coded as sum_j k_j (M+1)^j, one place per target.
    place = (m_total + 1) ** np.arange(n_modes, dtype=np.int64)
    tail_coeff, tail_code = np.ones(1, dtype=complex), np.zeros(1, dtype=np.int64)
    for x in labels[lead:]:
        tail_coeff = np.multiply.outer(tail_coeff, s[:, x]).ravel()
        tail_code = np.add.outer(tail_code, place).ravel()
    tail_codes, tail_group = np.unique(tail_code, return_inverse=True)
    heads = list(itertools.product(range(n_modes), repeat=lead))
    head_codes = [place[list(head)].sum() for head in heads]
    # key_index[h, g]: the key reached by head h followed by a tail of group g.
    codes, key_index = np.unique(np.add.outer(head_codes, tail_codes), return_inverse=True)

    amps = np.zeros(len(codes), dtype=complex)
    for head, index in zip(heads, key_index.reshape(len(heads), -1)):
        coeff = prefactor * math.prod(s[j, x] for j, x in zip(head, labels)) * tail_coeff
        amps += np.bincount(index[tail_group], coeff.real, len(codes))
        amps += 1j * np.bincount(index[tail_group], coeff.imag, len(codes))
    keys = codes[:, None] // place % (m_total + 1)
    # a^dag string on vacuum contributes sqrt(m_k!) per mode.
    amps *= np.sqrt([math.prod(math.factorial(m) for m in key) for key in keys.tolist()])
    return MultimodeState(n_modes, dict(zip(map(tuple, keys.tolist()), amps.tolist())))


def _create(amps: np.ndarray, column, photons: int, k: int, cut=None) -> np.ndarray:
    """Apply sum_j column[j] a_j^dag / sqrt(k) to a sector of ``photons`` photons.

    A sector holds amplitudes indexed by the occupations of modes 2..N (mode 1
    holds the rest); ``cut`` bounds them, as creation never lowers one.
    """
    shape = cut or tuple(n + 1 for n in amps.shape)
    out = np.zeros(shape, dtype=complex)
    common = tuple(slice(0, min(a, b)) for a, b in zip(amps.shape, shape))
    if column[0] != 0:
        mode1 = photons + 1 - sum(np.ix_(*(np.arange(c.stop) for c in common)))
        out[common] += column[0] * np.sqrt(np.maximum(mode1, 0)) * amps[common]
    for axis, coeff in enumerate(column[1:]):
        top = min(amps.shape[axis], shape[axis] - 1)
        if coeff != 0 and top > 0:
            src, dst = list(common), list(common)
            src[axis], dst[axis] = slice(0, top), slice(1, top + 1)
            weight = np.sqrt(np.arange(1, top + 1)).reshape((-1,) + (1,) * (len(shape) - axis - 1))
            out[tuple(dst)] += coeff * weight * amps[tuple(src)]
    return out / math.sqrt(k)


def _sectors(s: np.ndarray, prefix, n_max: int, cut=None):
    """Yield (photons, sector) of S acting on |prefix, n> for n = 0 .. n_max."""
    amps, photons = np.ones((1,) * (len(s) - 1), dtype=complex), 0
    for mode, count in enumerate(prefix):
        for k in range(1, count + 1):
            amps = _create(amps, s[:, mode], photons + k - 1, k, cut)
        photons += count
    for n in range(n_max + 1):
        if n:
            amps = _create(amps, s[:, -1], photons + n - 1, n, cut)
        yield photons + n, amps


def evolve(state: MultimodeState, elements) -> MultimodeState:
    """Apply an element sequence in temporal order (first element first)."""
    s = scattering_matrix(elements, state.modes)
    groups: dict[tuple[int, ...], dict[int, complex]] = {}
    for key, amp in state.amplitudes.items():
        groups.setdefault(key[:-1], {})[key[-1]] = amp
    sectors: dict[int, np.ndarray] = {}
    for prefix, tail in groups.items():
        for n, (photons, amps) in enumerate(_sectors(s, prefix, max(tail))):
            if n in tail:
                sectors[photons] = sectors.get(photons, 0) + tail[n] * amps
    amplitudes = {}
    for photons, amps in sectors.items():
        index = np.argwhere(amps)
        keys = np.column_stack([photons - index.sum(axis=1), index]).tolist()
        amplitudes.update(zip(map(tuple, keys), amps[amps != 0].tolist()))
    return MultimodeState(state.modes, amplitudes)


class DetectedBlock(NamedTuple):
    """Output amplitudes with t photons detected on modes 2-4 (see ``detected_blocks``)."""

    occupations: np.ndarray  # (3, C_t): the (m2, m3, m4) with m2 + m3 + m4 = t
    phi: np.ndarray  # (p_max - t + 1, C_t): phi[n1, j] for mode-1 count n1


def detected_blocks(s: np.ndarray, fock_inputs, gammas) -> list:
    """Output of S on |fock_inputs> (x) sum_n gammas[n] |n>, grouped by detected photons.

    The field enters the last mode. Returns one ``DetectedBlock`` per
    t = 0 .. p_max (p_max = P0 + len(gammas) - 1, P0 = sum(fock_inputs)),
    with phi_t[n1, j] = gamma_{p - P0} A_p[occupation j] taken from sector
    p = n1 + t of one ``_sectors`` pass. Photon number is conserved, so
    every output amplitude lands in exactly one cell; rows with p < P0 or a
    zero gamma stay zero. No dense (n1, every occupation) array is built:
    most of its cells cannot be reached.
    """
    gammas = np.asarray(gammas, dtype=complex)
    p0 = sum(fock_inputs)
    p_max = p0 + len(gammas) - 1
    # Every (m2, m3, m4) with sum <= p_max, ordered by that sum t: block t is
    # the slice offsets[t]:offsets[t + 1], and sector p uses the first offsets[p + 1].
    triples = []
    for t in range(p_max + 1):
        i, j = np.tril_indices(t + 1)
        triples.append(np.stack([t - i, j, i - j]))
    occupations = np.concatenate(triples, axis=1)
    offsets = [t * (t + 1) * (t + 2) // 6 for t in range(p_max + 2)]
    phis = [np.zeros((p_max - t + 1, offsets[t + 1] - offsets[t]), dtype=complex)
            for t in range(p_max + 1)]
    for gamma, (p, amps) in zip(gammas, _sectors(s, fock_inputs, len(gammas) - 1)):
        values = gamma * amps[tuple(occupations[:, :offsets[p + 1]])]
        for t in range(p + 1):
            phis[t][p - t] = values[offsets[t]:offsets[t + 1]]
    return [DetectedBlock(occupations[:, offsets[t]:offsets[t + 1]], phi)
            for t, phi in enumerate(phis)]


def projected_amplitudes(s: np.ndarray, fock_inputs, counts, n_max: int) -> list:
    """<n, counts| U |fock_inputs, n> for n = 0 .. n_max (counts on modes 2..N), in one pass."""
    if sum(counts) != sum(fock_inputs):
        raise ValueError(f"counts {counts} do not conserve the photons of {fock_inputs}")
    cut = tuple(c + 1 for c in counts)
    return [complex(amps[tuple(counts)]) for _, amps in _sectors(s, fock_inputs, n_max, cut)]
