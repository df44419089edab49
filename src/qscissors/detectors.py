"""Imperfect photon counting: POVM weights, conditional density matrices, fidelity."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import MultimodeState, QuditState
from .scissors import ZeroProbabilityError

CONVENTIONAL = "conventional"
SINGLE_PHOTON = "single_photon"
NUMBER_RESOLVING = "number_resolving"
KINDS = (CONVENTIONAL, SINGLE_PHOTON, NUMBER_RESOLVING)

# Dark-count Poisson sums are truncated once the neglected tail is below this.
DARK_TAIL_TOL = 1e-12


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

    w_m = sum_{n=0}^{min(N,m)} e^{-nu} nu^{N-n}/(N-n)! * eta^n (1-eta)^{m-n} C(m,n),
    for m = 0 .. m_max. Exact on any finite photon-number support.
    """
    if registered < 0:
        raise ValueError("registered count must be >= 0")
    eta, nu = model.eta, model.nu
    w = np.zeros(m_max + 1)
    for m in range(m_max + 1):
        total = 0.0
        for n in range(min(registered, m) + 1):
            dark = math.exp(-nu) * nu ** (registered - n) / math.factorial(registered - n)
            total += dark * eta ** n * (1.0 - eta) ** (m - n) * math.comb(m, n)
        w[m] = total
    return w


def _dark_tail_cutoff(nu: float) -> int:
    """Smallest count beyond which the Poisson(nu) dark tail is negligible."""
    term = math.exp(-nu)
    cumulative = term
    n = 0
    while 1.0 - cumulative >= DARK_TAIL_TOL:
        n += 1
        term *= nu / n
        cumulative += term
    return n


def povm_for_outcome(model: DetectorModel, outcome, m_max: int) -> np.ndarray:
    """POVM weights for one coarse-grained outcome of the detector.

    Valid outcomes: conventional -- "no-click" or "click";
    single_photon -- 0, 1 or "2+"; number_resolving -- any count N >= 0.
    Identity is realized as w_m = 1 on the truncated space, so the
    "click" and "2+" complements are exact there.
    """
    identity = np.ones(m_max + 1)
    if model.kind == CONVENTIONAL:
        if outcome == "no-click":
            return povm_number_resolving(model, 0, m_max)
        if outcome == "click":
            return identity - povm_number_resolving(model, 0, m_max)
        raise ValueError(f"conventional detector outcome must be 'click' or "
                         f"'no-click', got {outcome!r}")
    if model.kind == SINGLE_PHOTON:
        if outcome in (0, 1):
            return povm_number_resolving(model, int(outcome), m_max)
        if outcome == "2+":
            return (identity - povm_number_resolving(model, 0, m_max)
                    - povm_number_resolving(model, 1, m_max))
        raise ValueError(f"single-photon detector outcome must be 0, 1 or "
                         f"'2+', got {outcome!r}")
    if isinstance(outcome, int) and outcome >= 0:
        return povm_number_resolving(model, outcome, m_max)
    raise ValueError(f"number-resolving outcome must be a count >= 0, got {outcome!r}")


def outcome_for_count(kind: str, count: int):
    """Coarse-grained outcome a detector of this kind reports for a count.

    Conventional detectors map any count >= 1 to "click"; single-photon
    resolving ones map counts >= 2 to "2+".
    """
    if kind == CONVENTIONAL:
        return "no-click" if count == 0 else "click"
    if kind == SINGLE_PHOTON:
        return count if count in (0, 1) else "2+"
    if kind == NUMBER_RESOLVING:
        return int(count)
    raise ValueError(f"unknown detector kind {kind!r}")


def outcome_family(model: DetectorModel, m_max: int) -> list:
    """All outcomes of a detector, covering counts up to the dark-count tail."""
    if model.kind == CONVENTIONAL:
        return ["no-click", "click"]
    if model.kind == SINGLE_PHOTON:
        return [0, 1, "2+"]
    return list(range(m_max + _dark_tail_cutoff(model.nu) + 1))


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


def fidelity(rho: np.ndarray, ideal: QuditState) -> float:
    """Overlap <phi| rho |phi> between a density matrix and a pure reference."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    phi = np.zeros(dim, dtype=complex)
    coeffs = ideal.as_array()
    if len(coeffs) > dim:
        # reference longer than rho support: pad rho instead
        padded = np.zeros((len(coeffs), len(coeffs)), dtype=complex)
        padded[:dim, :dim] = rho
        rho = padded
        phi = np.zeros(len(coeffs), dtype=complex)
        phi[:] = coeffs
    else:
        phi[:len(coeffs)] = coeffs
    return float(np.real(np.conj(phi) @ rho @ phi))
