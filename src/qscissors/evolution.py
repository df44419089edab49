"""Fock-state evolution through linear networks: scattering-matrix engine and its oracle.

The engine (``_sectors``) carries a leading batch axis: a stack of B
scattering matrices shares one pass, each device keeping its own sector
arrays, so B devices cost about one device's Python overhead. Single-device
callers pass a batch of one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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


# Sectors up to this many cells keep their mode-1 weights cached; larger ones
# (the uncut sectors of a large coherent field) would hold megabytes each.
_CACHED_WEIGHT_CELLS = 4096


def _mode1_weight(photons: int, shape) -> np.ndarray:
    """sqrt(photons + 1 - m2 - m3 - ...) over a sector's cells, clipped at zero (read-only)."""
    weight = np.sqrt(np.maximum(photons + 1 - sum(np.ix_(*map(np.arange, shape))), 0))
    weight.flags.writeable = False  # the cached copies are shared
    return weight


_cached_mode1_weight = functools.lru_cache(maxsize=256)(_mode1_weight)


@functools.lru_cache(maxsize=256)
def _root_weight(top: int, trailing: int) -> np.ndarray:
    """sqrt(1 .. top) as a column over ``trailing`` further sector axes (read-only)."""
    weight = np.sqrt(np.arange(1, top + 1)).reshape((-1,) + (1,) * trailing)
    weight.flags.writeable = False
    return weight


def _create(amps: np.ndarray, column, active, photons: int, k: int, cut=None) -> np.ndarray:
    """Apply sum_j column[j] a_j^dag / sqrt(k) to a batch of sectors of ``photons`` photons.

    ``amps`` is (B, ...): one sector per device, indexed by the occupations of
    modes 2..N (mode 1 holds the rest). ``column[:, j]`` holds the devices'
    coefficients of a_j^dag, shaped to broadcast against ``amps``; ``active[j]``
    is false where all of them are zero. ``cut`` bounds the sector, as
    creation never lowers an occupation.
    """
    shape = cut or tuple(n + 1 for n in amps.shape[1:])
    out = np.zeros(amps.shape[:1] + shape, dtype=complex)
    sizes = tuple(min(a, b) for a, b in zip(amps.shape[1:], shape))
    common = (slice(None),) + tuple(slice(0, n) for n in sizes)
    if active[0]:
        small = math.prod(sizes) <= _CACHED_WEIGHT_CELLS
        term = column[:, 0] * (_cached_mode1_weight if small else _mode1_weight)(photons, sizes)
        term *= amps[common]  # in place: one sector-sized temporary, not two
        out[common] += term
    for axis in range(1, len(shape) + 1):
        top = min(amps.shape[axis], shape[axis - 1] - 1)
        if active[axis] and top > 0:
            src, dst = list(common), list(common)
            src[axis], dst[axis] = slice(0, top), slice(1, top + 1)
            weight = _root_weight(top, len(shape) - axis)
            out[tuple(dst)] += column[:, axis] * weight * amps[tuple(src)]
    out /= math.sqrt(k)
    return out


def _sectors(s: np.ndarray, prefix, n_max: int, cut=None):
    """Yield (photons, sectors) of each S in s (B, N, N) acting on |prefix, n>, n = 0 .. n_max.

    ``sectors`` is (B, ...), one sector per device. All devices share one
    pass: a column term is skipped only where it vanishes for every device.
    """
    n_modes = s.shape[-1]
    # coeffs[:, j, mode] broadcasts against a (B, ...) sector.
    coeffs = s.reshape(s.shape + (1,) * (n_modes - 1))
    active = np.any(s != 0, axis=0)
    amps, photons = np.ones((len(s),) + (1,) * (n_modes - 1), dtype=complex), 0
    for mode, count in enumerate(prefix):
        for k in range(1, count + 1):
            amps = _create(amps, coeffs[:, :, mode], active[:, mode], photons + k - 1, k, cut)
        photons += count
    for n in range(n_max + 1):
        if n:
            amps = _create(amps, coeffs[:, :, -1], active[:, -1], photons + n - 1, n, cut)
        yield photons + n, amps


def _check_engine_args(s: np.ndarray, batched: bool, n_max, *photon_groups):
    """Raise ValueError unless s is (..., N, N) (just (N, N) unless ``batched``),
    each photon group has N - 1 entries, and every photon number and n_max is a
    non-negative integer."""
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or (s.ndim > 2 and not batched):
        raise ValueError(f"expected {'(..., N, N)' if batched else '(N, N)'} "
                         f"scattering matrices, got shape {s.shape}")
    for group in photon_groups:
        if len(group) != s.shape[-1] - 1:
            raise ValueError(f"expected {s.shape[-1] - 1} photon numbers for a "
                             f"{s.shape[-1]}-mode network, got {tuple(group)}")
    for n in (n_max,) + tuple(itertools.chain(*photon_groups)):
        if not (isinstance(n, numbers.Integral) and n >= 0):
            raise ValueError(f"photon numbers and n_max must be non-negative "
                             f"integers, got {n!r}")


def evolve(state: MultimodeState, elements) -> MultimodeState:
    """Apply an element sequence in temporal order (first element first)."""
    s = scattering_matrix(elements, state.modes)[None]
    groups: dict[tuple[int, ...], dict[int, complex]] = {}
    for key, amp in state.amplitudes.items():
        groups.setdefault(key[:-1], {})[key[-1]] = amp
    sectors: dict[int, np.ndarray] = {}
    for prefix, tail in groups.items():
        for n, (photons, amps) in enumerate(_sectors(s, prefix, max(tail))):
            if n in tail:
                sectors[photons] = sectors.get(photons, 0) + tail[n] * amps[0]
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
    most of its cells cannot be reached. ``s`` is one (N, N) matrix, with
    N - 1 ``fock_inputs``, and ``gammas`` must not be empty.
    """
    s = np.asarray(s, dtype=complex)
    gammas = np.asarray(gammas, dtype=complex)
    _check_engine_args(s, False, len(gammas) - 1, fock_inputs)
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
    for gamma, (p, amps) in zip(gammas, _sectors(s[None], fock_inputs, len(gammas) - 1)):
        values = gamma * amps[0][tuple(occupations[:, :offsets[p + 1]])]
        for t in range(p + 1):
            phis[t][p - t] = values[offsets[t]:offsets[t + 1]]
    return [DetectedBlock(occupations[:, offsets[t]:offsets[t + 1]], phi)
            for t, phi in enumerate(phis)]


def projected_amplitudes(s: np.ndarray, fock_inputs, counts, n_max: int) -> np.ndarray:
    """<n, counts| U |fock_inputs, n> for n = 0 .. n_max (counts on modes 2..N), in one pass.

    ``s`` is one (N, N) scattering matrix or a stack (..., N, N) of them;
    the result has shape (..., n_max + 1). A stack of B devices costs one
    ``_sectors`` pass, not B.
    """
    s = np.asarray(s, dtype=complex)
    _check_engine_args(s, True, n_max, fock_inputs, counts)
    if sum(counts) != sum(fock_inputs):
        raise ValueError(f"counts {counts} do not conserve the photons of {fock_inputs}")
    stack = s.reshape((-1,) + s.shape[-2:])
    cell = (slice(None),) + tuple(counts)
    out = np.empty((len(stack), n_max + 1), dtype=complex)
    for n, (_, amps) in enumerate(_sectors(stack, fock_inputs, n_max,
                                            tuple(c + 1 for c in counts))):
        out[:, n] = amps[cell]
    return out.reshape(s.shape[:-2] + (n_max + 1,))
