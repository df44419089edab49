"""Scattering matrices of optical elements and of the eight-port scissors device."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitter:
    """Real asymmetric beam splitter on an ordered mode pair (i < j).

    Block on (i, j): [[t, r], [-r, t]] with t = sqrt(T), r = sqrt(1 - T).
    Reflection toward the lower-indexed mode carries +r.
    """

    modes: tuple
    transmittance: float

    def __post_init__(self):
        i, j = self.modes
        if not i < j:
            raise ValueError(f"beam splitter modes must be ordered, got {self.modes}")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance {self.transmittance} outside [0, 1]")


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode phase shifter multiplying its mode by exp(i*phase)."""

    mode: int
    phase: float


def scattering_matrix(elements, n_modes: int) -> np.ndarray:
    """N x N scattering matrix of an element sequence (earliest element rightmost)."""
    s = np.eye(n_modes, dtype=complex)
    for element in elements:
        if isinstance(element, BeamSplitter):
            i, j = element.modes
            if i < 0 or j >= n_modes:
                raise ValueError(f"mode pair {element.modes} outside 0..{n_modes - 1}")
            t = math.sqrt(element.transmittance)
            r = math.sqrt(1.0 - element.transmittance)
            s[i], s[j] = t * s[i] + r * s[j], t * s[j] - r * s[i]
        elif isinstance(element, PhaseShifter):
            if not 0 <= element.mode < n_modes:
                raise ValueError(f"mode index {element.mode} outside 0..{n_modes - 1}")
            if not math.isfinite(element.phase):
                raise ValueError(f"non-finite phase {element.phase}")
            s[element.mode] *= cmath.exp(1j * element.phase)
        else:
            raise TypeError(f"unknown element {element!r}")
    return s


@dataclass(frozen=True)
class GqsdSpec:
    """Parameters of the eight-port scissors interferometer.

    ``transmittances`` are the five beam-splitter power transmittances
    [t1^2 ... t5^2]; ``phases`` the six shifter phases [xi1 ... xi6].
    The device expands to the fixed element sequence

        P1 B1(1,2) P2 B2(1,3) P3 B3(2,3) P4 B4(2,4) P5 B5(3,4) P6

    applied in that (left-to-right) temporal order, with P1, P2, P6 on
    mode 1, P3, P4 on mode 2 and P5 on mode 3 (modes 0-indexed in code).
    ``mirror_zeta`` is the mirror reflection phase, a phase shifter on each
    mode at its reflection point in the beam path (zero by default).
    """

    transmittances: tuple
    phases: tuple = (0.0,) * 6
    mirror_zeta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "transmittances",
                           tuple(float(t) for t in self.transmittances))
        object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))
        if len(self.transmittances) != 5:
            raise ValueError("expected 5 transmittances")
        if len(self.phases) != 6:
            raise ValueError("expected 6 phases")
        for t in self.transmittances:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmittance {t} outside [0, 1]")
        if not all(map(math.isfinite, self.phases + (self.mirror_zeta,))):
            raise ValueError(f"non-finite phase in {self.phases}, mirror_zeta {self.mirror_zeta}")

    def elements(self) -> list:
        """Element sequence in temporal (application) order."""
        t1, t2, t3, t4, t5 = self.transmittances
        x1, x2, x3, x4, x5, x6 = self.phases
        z = self.mirror_zeta
        return [PhaseShifter(0, z),  # mode-1 mirror reflection, before B1
                PhaseShifter(0, x1), BeamSplitter((0, 1), t1),
                PhaseShifter(1, z),  # mode-2 reflection, between B1 and B3
                PhaseShifter(0, x2), BeamSplitter((0, 2), t2),
                PhaseShifter(1, x3), BeamSplitter((1, 2), t3),
                PhaseShifter(2, z),  # mode-3 reflection, between B3 and B5
                PhaseShifter(1, x4), BeamSplitter((1, 3), t4),
                PhaseShifter(2, x5), BeamSplitter((2, 3), t5),
                PhaseShifter(0, x6),
                PhaseShifter(3, z)]  # mode-4 reflection, before detection


def gqsd_matrix(spec: GqsdSpec) -> np.ndarray:
    """Total 4x4 scattering matrix of the device (earliest element rightmost)."""
    return scattering_matrix(spec.elements(), 4)


@dataclass(frozen=True)
class GeneralBsSpec:
    """General lossless two-mode beam splitter with internal phases."""

    transmittance: float
    theta_0: float = 0.0
    theta_t: float = 0.0
    theta_r: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance {self.transmittance} outside [0, 1]")
        if not all(map(math.isfinite, (self.theta_0, self.theta_t, self.theta_r))):
            raise ValueError(f"non-finite phase in {self}")


def general_bs_matrix(g: GeneralBsSpec) -> np.ndarray:
    """The 2x2 matrix exp(i*theta_0) [[t e^{i th_t}, r e^{i th_r}], [-r e^{-i th_r}, t e^{-i th_t}]]."""
    t = math.sqrt(g.transmittance)
    r = math.sqrt(1.0 - g.transmittance)
    return cmath.exp(1j * g.theta_0) * np.array(
        [[t * cmath.exp(1j * g.theta_t), r * cmath.exp(1j * g.theta_r)],
         [-r * cmath.exp(-1j * g.theta_r), t * cmath.exp(-1j * g.theta_t)]],
        dtype=complex,
    )


def decompose_general_bs(g: GeneralBsSpec):
    """Split a general beam splitter into phase shifters around a real one.

    Returns (global_phase, P_plus, B, P_minus) with
    exp(i*global_phase) * P_plus @ B @ P_minus equal to general_bs_matrix(g),
    where P_pm = diag[exp(i(theta_t +- theta_r)), 1] and B is the real
    beam-splitter matrix.
    """
    global_phase = g.theta_0 - g.theta_t
    p_plus = np.diag([cmath.exp(1j * (g.theta_t + g.theta_r)), 1.0]).astype(complex)
    p_minus = np.diag([cmath.exp(1j * (g.theta_t - g.theta_r)), 1.0]).astype(complex)
    b = scattering_matrix([BeamSplitter((0, 1), g.transmittance)], 2)
    return global_phase, p_plus, b, p_minus


def verify_unitary(s: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff max|S^dag S - I| < tol."""
    s = np.asarray(s, dtype=complex)
    residual = s.conj().T @ s - np.eye(s.shape[0])
    return bool(np.max(np.abs(residual)) < tol)
