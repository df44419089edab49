"""Imperfect photon counting: POVM weights, conditional density matrices, fidelity.

Dark counts use the log-space Poisson law of ``fock``; ``_LABELS`` lists coarse outcomes."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import MultimodeState, QuditState, _poisson_cutoff, _poisson_pmf
from .scissors import ZeroProbabilityError

CONVENTIONAL = "conventional"
SINGLE_PHOTON = "single_photon"
NUMBER_RESOLVING = "number_resolving"
KINDS = (CONVENTIONAL, SINGLE_PHOTON, NUMBER_RESOLVING)

# Dark-count Poisson sums are truncated once the neglected tail is below this.
DARK_TAIL_TOL = 1e-12

# Outcomes of the coarse-grained kinds: count k reports labels[k], and the
# last label means that count or more. Number-resolving ones report k.
_LABELS = {CONVENTIONAL: ("no-click", "click"), SINGLE_PHOTON: (0, 1, "2+")}


@dataclass(frozen=True)
class DetectorModel:
    """Photodetector with efficiency eta and mean dark count nu per window.

    ``kind`` selects the outcome granularity: conventional detectors give
    click / no-click, single-photon resolving ones distinguish 0 / 1 / 2+,
    number-resolving ones report any count.
    """

    kind: str
    eta: float = 1.0
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not (math.isfinite(self.eta) and 0.0 <= self.eta <= 1.0):
            raise ValueError(f"efficiency {self.eta} outside [0, 1]")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"mean dark count {self.nu} must be finite and >= 0")


def nu_from_dark_rate(dark_rate: float, resolution_time: float) -> float:
    """Mean dark counts per resolution window: nu = tau_res * R_dark."""
    nu = dark_rate * resolution_time
    # inf * 0 is nan, so a finite product of two non-negatives has finite factors.
    if not (dark_rate >= 0.0 and resolution_time >= 0.0 and math.isfinite(nu)):
        raise ValueError(f"dark rate {dark_rate} and resolution time {resolution_time} "
                         f"must be >= 0 with a finite product")
    return nu


def povm_number_resolving(model: DetectorModel, registered: int, m_max: int) -> np.ndarray:
    """Fock-diagonal POVM weights w_m for registering exactly N photocounts.

    w_m = sum_{n=0}^{min(N,m)} P_nu(N-n) * eta^n (1-eta)^{m-n} C(m,n),
    for m = 0 .. m_max, with P_nu the Poisson law of the dark counts.
    Exact on any finite photon-number support.
    """
    if registered < 0:
        raise ValueError("registered count must be >= 0")
    eta, nu = model.eta, model.nu
    dark = [_poisson_pmf(nu, registered - n) for n in range(min(registered, m_max) + 1)]
    w = np.zeros(m_max + 1)
    for m in range(m_max + 1):
        total = 0.0
        for n in range(min(registered, m) + 1):
            total += dark[n] * eta ** n * (1.0 - eta) ** (m - n) * math.comb(m, n)
        w[m] = total
    return w


def povm_for_outcome(model: DetectorModel, outcome, m_max: int) -> np.ndarray:
    """POVM weights for one coarse-grained outcome of the detector.

    Valid outcomes: the kind's ``_LABELS``, or any count N >= 0 for a
    number-resolving detector. The last label ("click", "2+") is 1 minus
    the weights below it, so it is exact on the truncated space.
    """
    labels = _LABELS.get(model.kind)
    if labels is None:
        if isinstance(outcome, int) and outcome >= 0:
            return povm_number_resolving(model, outcome, m_max)
        raise ValueError(f"number-resolving outcome must be a count >= 0, got {outcome!r}")
    if outcome not in labels:
        raise ValueError(f"{model.kind} outcome must be one of {labels}, got {outcome!r}")
    count = labels.index(outcome)
    if count < len(labels) - 1:
        return povm_number_resolving(model, count, m_max)
    w = np.ones(m_max + 1)
    for below in range(count):
        w -= povm_number_resolving(model, below, m_max)
    return w


def outcome_for_count(kind: str, count: int):
    """Coarse-grained outcome a detector of this kind reports for a count."""
    if kind not in KINDS:
        raise ValueError(f"unknown detector kind {kind!r}")
    if count < 0:
        raise ValueError(f"negative photon count {count}")
    labels = _LABELS.get(kind)
    return int(count) if labels is None else labels[min(count, len(labels) - 1)]


def outcome_family(model: DetectorModel, m_max: int) -> list:
    """All outcomes of a detector, covering counts up to the dark-count tail."""
    if model.kind in _LABELS:
        return list(_LABELS[model.kind])
    return list(range(m_max + _poisson_cutoff(model.nu, DARK_TAIL_TOL) + 1))


def conditional_density_matrix(output_state: MultimodeState, models, outcomes):
    """Mode-1 density matrix heralded by detector outcomes on modes 2-4.

    ``models`` and ``outcomes`` are triples for detectors D2, D3, D4.
    Returns (rho, probability) where probability is the pre-normalization
    trace. The POVMs are Fock-diagonal, so the partial trace reduces to a
    weighted sum over detected-mode occupations (m2, m3, m4): with
    Phi[n1, g] the amplitude of |n1> in detected group g and w_g its POVM
    weight w2[m2] w3[m3] w4[m4], rho = Phi diag(w) Phi^H.
    """
    if output_state.modes != 4:
        raise ValueError("expected a four-mode output state")
    amplitudes = output_state.amplitudes
    keys = np.fromiter(itertools.chain.from_iterable(amplitudes), dtype=np.intp,
                       count=4 * len(amplitudes)).reshape(-1, 4)
    amps = np.fromiter(amplitudes.values(), dtype=complex, count=len(amplitudes))
    m_max = int(keys[:, 1:].max(initial=0))
    weights = [povm_for_outcome(model, outcome, m_max)
               for model, outcome in zip(models, outcomes)]

    # One column of Phi per detected occupation, coded in base m_max + 1.
    detected = (keys[:, 1] * (m_max + 1) + keys[:, 2]) * (m_max + 1) + keys[:, 3]
    codes, column = np.unique(detected, return_inverse=True)
    w = np.empty(len(codes))
    w[column] = weights[0][keys[:, 1]] * weights[1][keys[:, 2]] * weights[2][keys[:, 3]]

    phi = np.zeros((int(keys[:, 0].max(initial=0)) + 1, len(codes)), dtype=complex)
    phi[keys[:, 0], column] = amps
    rho = (phi * w) @ phi.conj().T

    probability = float(np.real(np.trace(rho)))
    if probability < 1e-30:
        raise ZeroProbabilityError("heralding outcome has vanishing probability")
    return rho / probability, probability


def heralded_density_matrix(blocks, models, outcomes):
    """Mode-1 density matrix heralded by detector outcomes, from ``detected_blocks``.

    ``blocks`` is the list of ``evolution.detected_blocks``, block t holding
    the output amplitudes with t photons on modes 2-4. With the POVM weight
    w_t[j] = w2[m2] w3[m3] w4[m4] of occupation j of block t,
    rho = sum_t (Phi_t w_t) Phi_t^H: the partial trace of
    ``conditional_density_matrix`` without a ``MultimodeState``, so one set
    of blocks serves every detector model. Returns (rho, probability) and
    raises ``ZeroProbabilityError`` as that function does; rho spans
    n1 = 0 .. len(blocks) - 1.
    """
    weights = [povm_for_outcome(model, outcome, len(blocks) - 1)
               for model, outcome in zip(models, outcomes)]
    rho = np.zeros((len(blocks),) * 2, dtype=complex)
    for (m2, m3, m4), phi in blocks:
        w = weights[0][m2] * weights[1][m3] * weights[2][m4]
        rho[:len(phi), :len(phi)] += (phi * w) @ phi.conj().T

    probability = float(np.real(np.trace(rho)))
    if probability < 1e-30:
        raise ZeroProbabilityError("heralding outcome has vanishing probability")
    return rho / probability, probability


def fidelity(rho: np.ndarray, ideal: QuditState) -> float:
    """Overlap <phi| rho |phi> between a density matrix and a pure reference.

    Indices beyond the shorter of the two meet zeros in the other, so
    only the common leading block contributes.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = min(len(rho), ideal.dim)
    phi = ideal.as_array()[:dim]
    return float(np.real(np.conj(phi) @ rho[:dim, :dim] @ phi))
