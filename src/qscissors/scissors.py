"""Projection synthesis: conditional amplitudes, truncation defect and qudit output."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .evolution import projected_amplitudes
from .fock import InputField, QuditState
from .network import GqsdSpec, gqsd_matrix


class ZeroProbabilityError(RuntimeError):
    """Raised when a post-selected outcome has vanishing probability."""


@dataclass(frozen=True)
class MeasurementEvent:
    """Auxiliary Fock inputs and the heralding photon counts.

    ``fock_inputs`` = (n1, n2, n3) photons entering modes 1-3;
    ``counts`` = (N2, N3, N4) photons detected in output modes 2-4.
    A valid event conserves the auxiliary photons and fixes the
    truncation dimension d = n1 + n2 + n3 + 1.
    """

    fock_inputs: tuple
    counts: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "fock_inputs", tuple(int(n) for n in self.fock_inputs))
            object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        except OverflowError as exc:  # int(inf); int(nan) raises ValueError itself
            raise ValueError(f"photon numbers must be finite: {exc}") from exc
        if len(self.fock_inputs) != 3 or len(self.counts) != 3:
            raise ValueError("event needs 3 Fock inputs and 3 detector counts")
        if any(n < 0 for n in self.fock_inputs + self.counts):
            raise ValueError("photon numbers must be non-negative")
        if sum(self.counts) != sum(self.fock_inputs):
            raise ValueError(
                f"counts {self.counts} do not conserve the auxiliary photons "
                f"{self.fock_inputs}")

    @property
    def dim(self) -> int:
        return sum(self.fock_inputs) + 1


@dataclass(frozen=True)
class ConditionalAmplitudes:
    """The heralded coefficients c_0 .. c_{d-1} acting on the input expansion."""

    d: int
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(x) for x in self.c))
        if len(self.c) != self.d:
            raise ValueError("amplitude count must equal d")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.c, dtype=complex)


@dataclass(frozen=True)
class TruncationTarget:
    """Retained Fock indices K within 0..d-1.

    Full truncation keeps everything; hole burning removes a few indices;
    filtering keeps a few; Fock synthesis keeps exactly one.
    """

    d: int
    keep: frozenset

    def __post_init__(self):
        object.__setattr__(self, "keep", frozenset(int(k) for k in self.keep))
        if not self.keep:
            raise ValueError("retained index set must be nonempty")
        if any(not 0 <= k < self.d for k in self.keep):
            raise ValueError(f"retained indices {sorted(self.keep)} outside 0..{self.d - 1}")

    @staticmethod
    def full(d: int) -> "TruncationTarget":
        return TruncationTarget(d, frozenset(range(d)))

    @staticmethod
    def holes(d: int, holes) -> "TruncationTarget":
        return TruncationTarget(d, frozenset(range(d)) - frozenset(holes))

    @property
    def removed(self) -> frozenset:
        return frozenset(range(self.d)) - self.keep


def heralded_amplitude(spec: GqsdSpec, event: MeasurementEvent, n: int) -> complex:
    """Single matrix element <n, N2, N3, N4 | U | n1, n2, n3, n>."""
    return projected_amplitudes(gqsd_matrix(spec), event.fock_inputs, event.counts, n)[n]


def conditional_amplitudes(spec: GqsdSpec, event: MeasurementEvent) -> ConditionalAmplitudes:
    """All heralded coefficients c_n for n = 0 .. d-1 from one pass over S."""
    d = event.dim
    return ConditionalAmplitudes(d=d, c=projected_amplitudes(
        gqsd_matrix(spec), event.fock_inputs, event.counts, d - 1))


def truncation_defect(c: ConditionalAmplitudes, target: TruncationTarget,
                      quotient_phase: bool = False) -> float:
    """Deviation of the heralded coefficients from the target pattern.

    Sums |c_n - c_k0| over retained indices (k0 = min of the retained set)
    plus |c_n| over removed indices. A global phase on every c_n leaves
    each term unchanged, so ``quotient_phase`` (drop that phase first)
    does not change the value.
    """
    if c.d != target.d:
        raise ValueError(f"amplitude dimension {c.d} != target dimension {target.d}")
    vals = c.as_array()
    k0 = min(target.keep)
    defect = 0.0
    for n in range(c.d):
        if n in target.keep:
            if n != k0:
                defect += abs(vals[n] - vals[k0])
        else:
            defect += abs(vals[n])
    return float(defect)


def truncate(spec: GqsdSpec, event: MeasurementEvent, field: InputField):
    """Post-selected truncation of an input field to a qudit.

    Returns the normalized conditional state with coefficients
    proportional to c_n * gamma_n and the Born probability of the exact
    heralding outcome under ideal number-resolving detection.
    """
    return _heralded_qudit(conditional_amplitudes(spec, event), event, field)


def _heralded_qudit(c: ConditionalAmplitudes, event: MeasurementEvent, field: InputField):
    """The qudit c_n * gamma_n, normalized, and its probability (see ``truncate``)."""
    sigma = np.array([c.c[n] * field.coefficient(n) for n in range(c.d)], dtype=complex)
    probability = float(np.sum(np.abs(sigma) ** 2))
    norm = math.sqrt(probability)
    if norm < 1e-14:
        raise ZeroProbabilityError(
            f"outcome {event.counts} has vanishing probability for this input")
    return QuditState(dim=c.d, coeffs=tuple(sigma / norm)), probability


# --- closed-form amplitudes ------------------------------------------------

def _split(transmittance: float):
    t2 = transmittance
    r2 = 1.0 - transmittance
    return math.sqrt(t2), math.sqrt(r2), t2, r2


def _fp(r2, t2, order=1):
    """r^2 - order * t^2 (the n-primed helper)."""
    return r2 - order * t2


def _g(r2, t2):
    return 2.0 * r2 - t2


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


_TOL = 1e-12


def _qubit_case(event: MeasurementEvent):
    n1, n2, n3 = event.fock_inputs
    nn2, nn3, nn4 = event.counts
    _require(n3 == 0 and nn3 == 0,
             "qubit formulas need vacuum in mode 3 and no count in D3")
    return (n1, n2), (nn2, nn4)


def analytic_amplitudes(d: int, spec: GqsdSpec, event: MeasurementEvent) -> ConditionalAmplitudes:
    """Closed-form heralded coefficients for the published special cases.

    Supported: d = 2 (reduced two-splitter device, four count cases),
    d = 3 (same device, single counts in D2 and D4), d = 4 and d = 5
    (t3 = 1, canonical events), and d = 6 partially (c4 and c5 only; the
    unknown entries are returned as NaN). A global phase exp(i*xi1) is
    omitted for d <= 5, so comparisons against the evolution engine are
    modulo one overall phase.
    """
    t1, r1, T1, R1 = _split(spec.transmittances[0])
    t2, r2, T2, R2 = _split(spec.transmittances[1])
    t3, r3, T3, R3 = _split(spec.transmittances[2])
    t4, r4, T4, R4 = _split(spec.transmittances[3])
    t5, r5, T5, R5 = _split(spec.transmittances[4])
    x1, x2, x3, x4, x5, x6 = spec.phases
    _require(x6 == 0.0, "closed forms assume xi6 = 0")
    e = lambda phi: cmath.exp(1j * phi)

    if d != event.dim:
        raise ValueError(f"event implies d = {event.dim}, requested {d}")

    if d == 2:
        _require(T2 == 1.0 and T3 == 1.0 and T5 == 1.0,
                 "qubit formulas need T2 = T3 = T5 = 1")
        _require(x1 == x2 == x3 == x5 == 0.0,
                 "qubit formulas allow xi4 as the only nonzero phase")
        inputs, counts = _qubit_case(event)
        table = {
            ((1, 0), (0, 1)): (e(x4) * r1 * r4, t1 * t4),
            ((0, 1), (1, 0)): (e(x4) * t1 * t4, r1 * r4),
            ((0, 1), (0, 1)): (-e(x4) * t1 * r4, r1 * t4),
            ((1, 0), (1, 0)): (-e(x4) * r1 * t4, t1 * r4),
        }
        _require((inputs, counts) in table, f"unsupported qubit event {event}")
        return ConditionalAmplitudes(2, table[(inputs, counts)])

    if d == 3:
        _require(T2 == 1.0 and T3 == 1.0 and T5 == 1.0,
                 "qutrit formula needs T2 = T3 = T5 = 1")
        _require(x1 == x2 == x3 == x5 == 0.0,
                 "qutrit formula allows xi4 as the only nonzero phase")
        inputs, counts = _qubit_case(event)
        _require(inputs == (1, 1) and counts == (1, 1),
                 "qutrit formula needs single photons in modes 1-2 and in D2, D4")
        f1 = _fp(R1, T1)
        f4 = _fp(R4, T4)
        c0 = 2.0 * r1 * t1 * r4 * t4 * e(2.0 * x4)
        c1 = e(x4) * f1 * f4
        c2 = 2.0 * r1 * t1 * r4 * t4
        return ConditionalAmplitudes(3, (c0, c1, c2))

    if d == 4:
        _require(abs(T3 - 1.0) < _TOL and x3 == 0.0,
                 "quartit closed forms need BS3 removed (t3 = 1, xi3 = 0)")
        _require(event.fock_inputs == (1, 1, 1) and event.counts == (1, 1, 1),
                 "quartit closed forms need single photons everywhere")
        f1, f5 = _fp(R1, T1), _fp(R5, T5)
        f2p, f4p = _fp(R2, T2), _fp(R4, T4)
        f2pp, f4pp = _fp(R2, T2, 2), _fp(R4, T4, 2)
        g2, g4 = _g(R2, T2), _g(R4, T4)
        c0 = -2.0 * e(x4 + x5) * t2 * t4 * (
            e(x2 + x5) * f1 * r2 * r5 * t5 + e(x4) * f5 * r1 * t1 * r4)
        c1 = (-2.0 * r1 * t1 * r2 * r4 * r5 * t5
              * (e(2.0 * (x2 + x5)) * f2pp + e(2.0 * x4) * f4pp)
              + e(x2 + x4 + x5) * f1 * f2p * f4p * f5)
        c2 = 2.0 * e(x2) * t2 * t4 * (
            e(x2 + x5) * r1 * t1 * g2 * r4 * f5 + e(x4) * f1 * r2 * g4 * r5 * t5)
        c3 = 6.0 * e(2.0 * x2) * r1 * t1 * r2 * T2 * r4 * T4 * r5 * t5
        return ConditionalAmplitudes(4, (c0, c1, c2, c3))

    if d == 5:
        _require(abs(T3 - 1.0) < _TOL and x3 == 0.0,
                 "d = 5 closed forms need BS3 removed (t3 = 1, xi3 = 0)")
        _require(event.fock_inputs == (1, 2, 1) and event.counts == (1, 2, 1),
                 "d = 5 closed forms need the (1,2,1)/(1,2,1) event")
        f1p, f1pp = _fp(R1, T1), _fp(R1, T1, 2)
        f2p, f2pp, f2ppp = _fp(R2, T2), _fp(R2, T2, 2), _fp(R2, T2, 3)
        f4p, f4pp, f4ppp = _fp(R4, T4), _fp(R4, T4, 2), _fp(R4, T4, 3)
        f5p, f5pp = _fp(R5, T5), _fp(R5, T5, 2)
        g1, g2, g4, g5 = _g(R1, T1), _g(R2, T2), _g(R4, T4), _g(R5, T5)
        c0 = e(x4 + x5) * t2 * t4 * (
            3.0 * e(2.0 * (x2 + x5)) * f1pp * r1 * R2 * r5 * T5
            + 2.0 * e(x2 + x4 + x5) * g1 * t1 * r2 * r4 * g5 * t5
            + 3.0 * e(2.0 * x4) * r1 * T1 * R4 * r5 * f5pp)
        c1 = (3.0 * r1 * t1 * r2 * r4 * r5 * t5
              * (e(3.0 * (x2 + x5)) * r1 * f2ppp * r2 * t5
                 + e(3.0 * x4) * t1 * f4ppp * r4 * r5)
              - e(x2 + x4 + x5)
              * (e(x2 + x5) * f1pp * r1 * f2pp * r2 * f4p * g5 * t5
                 + e(x4) * g1 * t1 * f2p * f4pp * r4 * f5pp * r5))
        c2 = e(x2) * t2 * t4 * (
            2.0 * t1 * r2 * r4 * t5
            * (3.0 * e(2.0 * x4) * (R1 * T4 - R1 * g4 + T1 * f4p) * R5
               - e(2.0 * (x2 + x5)) * R1 * (f2pp * g5 + g2 * f5p + g2 * R5))
            + e(x2 + x4 + x5) * r1 * r5
            * (2.0 * R1 * g2 * R4 * f5p
               - 2.0 * T1 * (f2p + R2) * g4 * f5pp
               - R1 * g2 * (T4 * f5pp + 2.0 * R4 * T5)))
        c3 = 3.0 * e(2.0 * x2) * r1 * T2 * T4 * r5 * (
            e(x2 + x5) * r1 * t1 * (3.0 * R2 - T2) * r4 * f5pp
            + e(x4) * f1pp * r2 * (3.0 * R4 - T4) * r5 * t5)
        c4 = 12.0 * e(3.0 * x2) * R1 * t1 * r2 * t2 * T2 * r4 * t4 * T4 * t5 * R5
        return ConditionalAmplitudes(5, (c0, c1, c2, c3, c4))

    if d == 6:
        _require(event.fock_inputs == (2, 1, 2) and event.counts == (2, 1, 2),
                 "d = 6 closed forms need the (2,1,2)/(2,1,2) event")
        g1, g5 = _g(R1, T1), _g(R5, T5)
        c5 = (30.0 * e(2.0 * x1 + 3.0 * x2)
              * r1 * T1 * R2 * t2 * T2 * R4 * t4 * T4 * r5 * T5)
        c4 = (6.0 * e(2.0 * (x1 + x2)) * t1 * r2 * T2 * r4 * T4 * t5
              * ((3.0 * R4 - 2.0 * T4) * e(x4)
                 * (e(x2) * r1 * t1 * (3.0 * R2 - 2.0 * T2) * r3
                    + e(x3) * g1 * r2 * t3) * r5 * t5
                 + e(x5)
                 * (e(x2) * r1 * t1 * (3.0 * R2 - 2.0 * T2) * t3
                    - e(x3) * g1 * r2 * r3) * r4 * g5))
        nan = complex(float("nan"), float("nan"))
        return ConditionalAmplitudes(6, (nan, nan, nan, nan, c4, c5))

    raise ValueError(f"no closed-form amplitudes for d = {d}")


# --- published analytic relations ------------------------------------------

def qutrit_bs_relation(transmittance_1: float, branch: int) -> float:
    """T4 that yields perfect qutrit truncation for a given T1.

    ``branch`` is +1 or -1 and selects the sign in
    T4 = (1 +- r1 t1 / sqrt(1 - 3 (r1 t1)^2)) / 2. The matching heralding
    phase is xi4 = 0 when branch * (2 T1 - 1) > 0 and xi4 = pi otherwise.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    t1, r1, T1, R1 = _split(transmittance_1)
    rt = r1 * t1
    disc = 1.0 - 3.0 * rt * rt
    if disc <= 0.0:
        raise ValueError(f"relation undefined: 1 - 3(r1 t1)^2 = {disc} <= 0")
    return min(1.0, max(0.0, 0.5 * (1.0 + branch * rt / math.sqrt(disc))))


def symmetry_transforms(spec: GqsdSpec, tol: float = 1e-9) -> list:
    """Parameter transforms that leave the quartit coefficients unchanged.

    Valid in the t3 = 1 regime. Emits, where applicable:
      (a) reversed transmittances [T5, T4, 1, T2, T1] with unchanged
          phases (requires xi1 = xi3 = 0 and xi4 = xi2 + xi5);
      (b) T1 -> 1 - T1 with xi2 -> xi2 + pi;
      (c) T5 -> 1 - T5 with xi5 -> xi5 + pi.
    """
    T = spec.transmittances
    if abs(T[2] - 1.0) > tol:
        raise ValueError("symmetry transforms require t3 = 1")
    x = spec.phases
    out = []
    if (abs(x[0]) <= tol and abs(x[2]) <= tol
            and abs(((x[3] - x[1] - x[4]) + math.pi) % (2 * math.pi) - math.pi) <= tol):
        out.append(GqsdSpec((T[4], T[3], 1.0, T[1], T[0]), x, spec.mirror_zeta))
    out.append(GqsdSpec((1.0 - T[0], T[1], 1.0, T[3], T[4]),
                        (x[0], x[1] + math.pi, x[2], x[3], x[4], x[5]),
                        spec.mirror_zeta))
    out.append(GqsdSpec((T[0], T[1], 1.0, T[3], 1.0 - T[4]),
                        (x[0], x[1], x[2], x[3], x[4] + math.pi, x[5]),
                        spec.mirror_zeta))
    return out
