"""Fock-basis containers: multimode photon-number states, single-mode input fields
and the one Poisson law (log space) of coherent fields and detector dark counts."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Amplitudes below this magnitude are dropped from sparse states.
PRUNE_TOL = 1e-15
# Normalization is enforced/checked to this tolerance.
NORM_TOL = 1e-12


def total_photons(occupation) -> int:
    """Total photon number of an occupation vector."""
    return int(sum(occupation))


class MultimodeState:
    """Sparse complex superposition over photon-number occupation vectors.

    Keys are tuples of per-mode photon counts; values are complex
    amplitudes. Entries with magnitude below ``PRUNE_TOL`` are not stored.
    Instances are treated as immutable once constructed.
    """

    __slots__ = ("modes", "amplitudes")

    def __init__(self, modes: int, amplitudes=None):
        self.modes = int(modes)
        amps: dict[tuple[int, ...], complex] = {}
        if amplitudes:
            for key, amp in amplitudes.items():
                key = tuple(int(n) for n in key)
                if len(key) != self.modes:
                    raise ValueError(
                        f"occupation vector {key} has {len(key)} modes, expected {self.modes}"
                    )
                if any(n < 0 for n in key):
                    raise ValueError(f"negative photon count in {key}")
                amp = complex(amp)
                if abs(amp) >= PRUNE_TOL:
                    amps[key] = amp
        self.amplitudes = amps

    def amplitude(self, key) -> complex:
        return self.amplitudes.get(tuple(int(n) for n in key), 0j)

    def items(self):
        """Amplitude entries in lexicographic key order (reproducible sums)."""
        return sorted(self.amplitudes.items())

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for _, a in self.items()))

    def normalized(self) -> "MultimodeState":
        n = self.norm()
        if n < PRUNE_TOL:
            raise ValueError("cannot normalize a (near-)zero state")
        return MultimodeState(self.modes, {k: a / n for k, a in self.amplitudes.items()})

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() - 1.0) < tol

    def scaled(self, factor: complex) -> "MultimodeState":
        return MultimodeState(self.modes, {k: a * factor for k, a in self.amplitudes.items()})

    def add(self, other: "MultimodeState") -> "MultimodeState":
        if other.modes != self.modes:
            raise ValueError("mode count mismatch")
        amps = dict(self.amplitudes)
        for k, a in other.amplitudes.items():
            amps[k] = amps.get(k, 0j) + a
        return MultimodeState(self.modes, amps)

    def __len__(self):
        return len(self.amplitudes)

    def __repr__(self):
        terms = ", ".join(f"|{','.join(map(str, k))}>: {a:.6g}" for k, a in self.items())
        return f"MultimodeState({self.modes}, {{{terms}}})"


def fock_product_state(counts) -> MultimodeState:
    """Product Fock state |n1, n2, ..., nN> with unit amplitude."""
    counts = tuple(int(n) for n in counts)
    if any(n < 0 for n in counts):
        raise ValueError(f"negative photon count in {counts}")
    return MultimodeState(len(counts), {counts: 1.0})


@dataclass(frozen=True)
class InputField:
    """Single-mode pure input field as a finite Fock expansion sum_n gammas[n] |n>."""

    gammas: tuple

    @property
    def n_max(self) -> int:
        return len(self.gammas) - 1

    def coefficient(self, n: int) -> complex:
        return self.gammas[n] if 0 <= n < len(self.gammas) else 0j


def fock_expansion(gammas) -> InputField:
    """Normalized finite Fock expansion sum_n gamma_n |n>."""
    g = np.asarray(list(gammas), dtype=complex)
    if g.size == 0:
        raise ValueError("expansion must have at least one coefficient")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite expansion coefficients {g.tolist()}")
    norm = np.linalg.norm(g)
    if norm < PRUNE_TOL:
        raise ValueError("expansion coefficients are all zero")
    g = g / norm
    return InputField(gammas=tuple(g))


def _poisson_pmf(mean: float, k: int) -> float:
    """Poisson(mean) probability of the count k, in log space so that no factor overflows."""
    if mean == 0.0:
        return float(k == 0)
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def _poisson_cutoff(mean: float, tail: float) -> int:
    """Smallest n whose Poisson(mean) mass above n is below ``tail``.

    That mass is summed down from a far count, not taken as 1 minus the
    terms up to n: log-space rounding (~1e-12 relative at mean 3600)
    keeps those from summing to 1 within a 1e-12 tail.
    """
    # Bernstein: P(X >= mean + t) <= exp(-t^2 / (2 (mean + t/3))) = 1e-6 * tail here.
    log_odds = math.log(1e6 / tail)
    far = mean + log_odds / 3.0 + math.sqrt(log_odds ** 2 / 9.0 + 2.0 * mean * log_odds)
    if not far <= 10_000:
        raise ValueError(f"Poisson cutoff for mean {mean:g} exceeds 10000 terms")
    above = 0.0
    for n in range(math.ceil(far), 0, -1):
        above += _poisson_pmf(mean, n)
        if above >= tail:
            return n
    return 0


def coherent_expansion(alpha: complex, tail_epsilon: float = 1e-12) -> InputField:
    """Coherent state |alpha> cut to a finite Fock expansion.

    The cutoff n_max is the smallest integer for which the neglected
    Poisson tail probability (mean |alpha|^2) is below ``tail_epsilon``;
    the retained coefficients are renormalized. A cutoff beyond 10 000
    terms (|alpha| > ~98 at the default tail) raises ValueError.
    """
    alpha = complex(alpha)
    if not (cmath.isfinite(alpha)):
        raise ValueError(f"non-finite coherent amplitude {alpha}")
    if not 0.0 < tail_epsilon < 1.0:
        raise ValueError(f"tail_epsilon must lie in (0, 1), got {tail_epsilon}")

    magnitude = math.hypot(alpha.real, alpha.imag)  # abs() raises past 1.8e308
    lam = magnitude * magnitude
    if lam == 0.0:
        return InputField(gammas=(1.0 + 0j,))

    # gamma_{n+1} = gamma_n alpha / sqrt(n+1), built outward from the peak at
    # n = floor(lam), shrinks at every step, so nothing overflows.
    n_max = _poisson_cutoff(lam, tail_epsilon)
    peak = min(int(lam), n_max)
    gammas = [0j] * (n_max + 1)
    gammas[peak] = (alpha / magnitude) ** peak
    for n in range(peak, n_max):
        gammas[n + 1] = gammas[n] * alpha / math.sqrt(n + 1)
    for n in range(peak, 0, -1):
        gammas[n - 1] = gammas[n] * math.sqrt(n) / alpha
    norm = math.sqrt(sum(abs(g) ** 2 for g in gammas))
    gammas = tuple(g / norm for g in gammas)
    return InputField(gammas=gammas)


def embed_input(field: InputField, mode: int, fock_inputs) -> MultimodeState:
    """Tensor product of Fock states with the field expansion in one mode.

    ``fock_inputs`` lists the photon counts of the remaining modes in
    order; the field occupies position ``mode`` of the assembled vector.
    """
    fock_inputs = tuple(int(n) for n in fock_inputs)
    n_modes = len(fock_inputs) + 1
    if not 0 <= mode < n_modes:
        raise ValueError(f"field mode {mode} outside 0..{n_modes - 1}")
    if any(n < 0 for n in fock_inputs):
        raise ValueError(f"negative photon count in {fock_inputs}")

    amps = {}
    for n, gamma in enumerate(field.gammas):
        key = fock_inputs[:mode] + (n,) + fock_inputs[mode:]
        amps[key] = gamma
    return MultimodeState(n_modes, amps)


@dataclass(frozen=True)
class QuditState:
    """Normalized d-dimensional state over Fock indices 0..d-1."""

    dim: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.dim:
            raise ValueError("coefficient count must equal dim")
        norm = math.sqrt(sum(abs(c) ** 2 for c in self.coeffs))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"qudit coefficients not normalized (norm {norm})")

    @staticmethod
    def from_unnormalized(coeffs) -> "QuditState":
        c = np.asarray(list(coeffs), dtype=complex)
        norm = np.linalg.norm(c)
        if norm < PRUNE_TOL:
            raise ValueError("cannot normalize a zero qudit vector")
        return QuditState(dim=len(c), coeffs=tuple(c / norm))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)
