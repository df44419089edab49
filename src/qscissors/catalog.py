"""Regression catalog of every published device solution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import GqsdSpec
from .scissors import (MeasurementEvent, TruncationTarget, conditional_amplitudes,
                       qutrit_bs_relation, truncation_defect)

PI = math.pi

ANALYTIC_DEFECT_TOL = 1e-10
# Numeric entries are printed to 5 decimals; the defect at the rounded
# point is bounded by the sensitivity of the amplitudes to ~5e-6 shifts.
NUMERIC_DEFECT_TOL = 1e-3


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: GqsdSpec
    event: MeasurementEvent
    target: TruncationTarget
    expected_amplitude: float | None = None  # expected |c_k0|, if published
    amplitude_tol: float = 1e-10
    exact: bool = True  # analytic surds vs rounded decimals

    @property
    def defect_tol(self) -> float:
        return ANALYTIC_DEFECT_TOL if self.exact else NUMERIC_DEFECT_TOL


def _event(fock, counts):
    return MeasurementEvent(tuple(fock), tuple(counts))


def _xi(**kw):
    x = [0.0] * 6
    for key, val in kw.items():
        x[int(key[2:]) - 1] = val
    return tuple(x)


def build_catalog() -> list:
    """Every transmittance vector printed as a working solution."""
    ev4 = _event((1, 1, 1), (1, 1, 1))
    full4 = TruncationTarget.full(4)
    sqrt = math.sqrt
    entries = [
        # qubit truncation via the reduced two-splitter device
        CatalogEntry(
            "qubit 50:50 (counts 0,1)",
            GqsdSpec([0.5, 1, 1, 0.5, 1]),
            _event((1, 0, 0), (0, 0, 1)), TruncationTarget.full(2),
            expected_amplitude=0.5),
        CatalogEntry(
            "qubit 50:50 (counts 1,0)",
            GqsdSpec([0.5, 1, 1, 0.5, 1], _xi(xi4=PI)),
            _event((1, 0, 0), (1, 0, 0)), TruncationTarget.full(2),
            expected_amplitude=0.5),
        # qutrit optima
        CatalogEntry(
            "qutrit optimum T1=T4=(3-sqrt3)/6",
            GqsdSpec([(3 - sqrt(3)) / 6, 1, 1, (3 - sqrt(3)) / 6, 1]),
            _event((1, 1, 0), (1, 0, 1)), TruncationTarget.full(3)),
        CatalogEntry(
            "qutrit optimum T1=(3-sqrt3)/6, T4=1-T1, xi4=pi",
            GqsdSpec([(3 - sqrt(3)) / 6, 1, 1, (3 + sqrt(3)) / 6, 1], _xi(xi4=PI)),
            _event((1, 1, 0), (1, 0, 1)), TruncationTarget.full(3)),
        CatalogEntry(
            "qutrit optimum T1=T4=(3+sqrt3)/6",
            GqsdSpec([(3 + sqrt(3)) / 6, 1, 1, (3 + sqrt(3)) / 6, 1]),
            _event((1, 1, 0), (1, 0, 1)), TruncationTarget.full(3)),
        # quartit exact solutions
        CatalogEntry(
            "quartit 1/12",
            GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], _xi(xi5=PI / 2)),
            ev4, full4, expected_amplitude=1 / 12, amplitude_tol=1e-12),
        CatalogEntry(
            "quartit 1/(4 sqrt 39)",
            GqsdSpec([(13 - 3 * sqrt(13)) / 26, 1 / 2, 1, 1 / 3, (2 + sqrt(3)) / 4]),
            ev4, full4, expected_amplitude=1 / (4 * sqrt(39)), amplitude_tol=1e-12),
        CatalogEntry(
            "quartit numeric 0.134",
            GqsdSpec([0.78494, 0.69001, 1, 0.87451, 0.70185], _xi(xi5=PI)),
            ev4, full4, expected_amplitude=0.134, amplitude_tol=5e-4, exact=False),
        # hole burning
        CatalogEntry(
            "hole at 2",
            GqsdSpec([(7 + sqrt(21)) / 14, 1 / 3, 1, 1 / 2, (5 - sqrt(5)) / 10]),
            ev4, TruncationTarget.holes(4, {2})),
        CatalogEntry(
            "hole at 0",
            GqsdSpec([(7 + sqrt(21)) / 14, 1 / 3, 1, 1 / 2, (2 - sqrt(2)) / 4]),
            ev4, TruncationTarget.holes(4, {0})),
        CatalogEntry(
            "hole at 1",
            GqsdSpec([0.5 - 1.5 * sqrt(5 / 173), 1 / 2, 1, 1 / 6,
                      0.5 + 2.5 * sqrt(3 / 203)]),
            ev4, TruncationTarget.holes(4, {1})),
        # two-state filters
        CatalogEntry(
            "filter {0,2}",
            GqsdSpec([1, 1 / 2, 1, 1, 1 / 2]),
            ev4, TruncationTarget(4, frozenset({0, 2}))),
        CatalogEntry(
            "filter {0,3}",
            GqsdSpec([0.5 * (1 - sqrt(5 / 133)), 1 / 2, 1, 1 / 6,
                      0.5 + 1.5 * sqrt(3 / 155)]),
            ev4, TruncationTarget(4, frozenset({0, 3}))),
        CatalogEntry(
            "filter {1,3}",
            GqsdSpec([1 / 2, (3 - sqrt(3)) / 3, 1, (3 - sqrt(3)) / 3, 1 / 2]),
            ev4, TruncationTarget(4, frozenset({1, 3}))),
        CatalogEntry(
            "filter {2,3}",
            GqsdSpec([0.5 * (1 - sqrt(5 / 37)), 1 / 2, 1, 1 / 6,
                      0.5 * (1 + sqrt(3 / 35))]),
            ev4, TruncationTarget(4, frozenset({2, 3}))),
        CatalogEntry(
            "filter {1,2} with BS3",
            GqsdSpec([0.5 + 1 / sqrt(5), 8 / 9, 1 / 2, 0.5 + 1 / sqrt(5), 1]),
            ev4, TruncationTarget(4, frozenset({1, 2}))),
        CatalogEntry(
            "filter {1,2} via (1,1,0)/(1,0,1)",
            GqsdSpec([(5 - sqrt(15)) / 10, 2 / 3, 1, 1 / 2, 1 / 2]),
            _event((1, 1, 0), (1, 0, 1)), TruncationTarget(3, frozenset({1, 2}))),
        # Fock synthesis
        CatalogEntry(
            "synthesis |2>",
            GqsdSpec([1, 1 / 2, 1 / 3, 1 / 2, 1]),
            ev4, TruncationTarget(4, frozenset({2}))),
        CatalogEntry(
            "synthesis |3>",
            GqsdSpec([1 / 2, 1 / 2, 1, 1 / 2, 1 / 2], _xi(xi5=PI / 2)),
            ev4, TruncationTarget(4, frozenset({3}))),
        # five- and six-dimensional numeric solutions
        CatalogEntry(
            "d=5 numeric",
            GqsdSpec([0.30464, 0.38775, 1, 0.81740, 0.18438], _xi(xi4=PI)),
            _event((1, 2, 1), (1, 2, 1)), TruncationTarget.full(5), exact=False),
        CatalogEntry(
            "d=6 numeric 1",
            GqsdSpec([0.75572, 0.41783, 0.32503, 0.83274, 0.50338], _xi(xi4=PI)),
            _event((2, 1, 2), (2, 1, 2)), TruncationTarget.full(6), exact=False),
        CatalogEntry(
            "d=6 numeric 2",
            GqsdSpec([0.58154, 0.28519, 0.46753, 0.68558, 0.49836], _xi(xi4=PI)),
            _event((2, 1, 2), (2, 1, 2)), TruncationTarget.full(6), exact=False),
    ]
    return entries


def qutrit_relation_entries(samples=()) -> list:
    """Catalog entries generated from the qutrit T1 <-> T4 relation."""
    entries = []
    for t1 in samples:
        for branch in (+1, -1):
            t4 = qutrit_bs_relation(t1, branch)
            xi4 = 0.0 if branch * (2 * t1 - 1) > 0 else PI
            entries.append(CatalogEntry(
                f"qutrit relation T1={t1:.4f} branch {branch:+d}",
                GqsdSpec([t1, 1, 1, t4, 1], _xi(xi4=xi4)),
                _event((1, 1, 0), (1, 0, 1)), TruncationTarget.full(3)))
    return entries


@dataclass(frozen=True)
class CatalogResult:
    name: str
    defect: float
    suppressed_max: float
    amplitude: float
    passed: bool


def verify_entry(entry: CatalogEntry) -> CatalogResult:
    c = conditional_amplitudes(entry.spec, entry.event)
    defect = truncation_defect(c, entry.target)
    vals = np.abs(c.as_array())
    removed = sorted(entry.target.removed)
    suppressed = float(max((vals[n] for n in removed), default=0.0))
    amplitude = float(vals[min(entry.target.keep)])
    ok = defect < entry.defect_tol and suppressed < entry.defect_tol
    if entry.expected_amplitude is not None:
        ok = ok and abs(amplitude - entry.expected_amplitude) < entry.amplitude_tol
    return CatalogResult(entry.name, defect, suppressed, amplitude, ok)


def verify_catalog(entries=None) -> list:
    """Recompute defect, suppression and amplitude for every catalog entry."""
    if entries is None:
        entries = build_catalog()
    return [verify_entry(e) for e in entries]
