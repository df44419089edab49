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
        return [BeamSplitter(modes, self.transmittances[k]) if isinstance(modes, tuple)
                else PhaseShifter(modes, self.mirror_zeta if k is None else self.phases[k])
                for modes, k in _GQSD_LAYOUT]


# The device in temporal order, one (modes, k) per element: a mode pair is
# the beam splitter with T_{k+1}, a single mode a phase shifter with
# xi_{k+1}, or with mirror_zeta where k is None.
_GQSD_LAYOUT = (
    (0, None),  # mode-1 mirror reflection, before B1
    (0, 0), ((0, 1), 0),
    (1, None),  # mode-2 reflection, between B1 and B3
    (0, 1), ((0, 2), 1),
    (1, 2), ((1, 2), 2),
    (2, None),  # mode-3 reflection, between B3 and B5
    (1, 3), ((1, 3), 3),
    (2, 4), ((2, 3), 4),
    (0, 5),
    (3, None))  # mode-4 reflection, before detection


def gqsd_matrix(spec: GqsdSpec) -> np.ndarray:
    """Total 4x4 scattering matrix of the device (earliest element rightmost)."""
    return scattering_matrix(spec.elements(), 4)


def gqsd_matrices(transmittances, phases, mirror_zeta: float = 0.0) -> np.ndarray:
    """The (B, 4, 4) scattering matrices of B devices, from (B, 5) T and (B, 6) xi.

    Applies the row updates of ``scattering_matrix`` in the order of
    ``GqsdSpec.elements`` to all devices at once, without element objects:
    each matrix equals ``gqsd_matrix`` of its spec bit for bit.
    """
    transmittances = np.asarray(transmittances, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if transmittances.ndim != 2 or transmittances.shape[1] != 5 \
            or phases.shape != (len(transmittances), 6):
        raise ValueError(f"expected (B, 5) transmittances and (B, 6) phases, got "
                         f"{transmittances.shape} and {phases.shape}")
    if not np.all((transmittances >= 0.0) & (transmittances <= 1.0)):
        raise ValueError("transmittance outside [0, 1]")
    if not (np.all(np.isfinite(phases)) and math.isfinite(mirror_zeta)):
        raise ValueError("non-finite phase or mirror_zeta")
    t, r = np.sqrt(transmittances), np.sqrt(1.0 - transmittances)
    shifts = np.exp(1j * phases)
    mirror = cmath.exp(1j * mirror_zeta)
    s = np.tile(np.eye(4, dtype=complex), (len(phases), 1, 1))
    for modes, k in _GQSD_LAYOUT:
        if isinstance(modes, tuple):
            i, j = modes
            tk, rk = t[:, k, None], r[:, k, None]
            s[:, i], s[:, j] = tk * s[:, i] + rk * s[:, j], tk * s[:, j] - rk * s[:, i]
        else:
            s[:, modes] *= mirror if k is None else shifts[:, k, None]
    return s


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
