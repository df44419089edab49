"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import math

import numpy as np
import pytest

from conftest import align_phase
from qscissors.catalog import build_catalog, verify_entry
from qscissors.detectors import (CONVENTIONAL, NUMBER_RESOLVING, SINGLE_PHOTON,
                                 DetectorModel, conditional_density_matrix,
                                 fidelity, nu_from_dark_rate, outcome_family,
                                 outcome_for_count, povm_for_outcome)
from qscissors.evolution import evolve, evolve_fock_oracle
from qscissors.fock import (coherent_expansion, embed_input, fock_expansion,
                            fock_product_state, total_photons)
from qscissors.network import GqsdSpec, gqsd_matrix
from qscissors.scissors import (MeasurementEvent, TruncationTarget,
                                analytic_amplitudes, conditional_amplitudes,
                                heralded_amplitude, qutrit_bs_relation,
                                symmetry_transforms, truncate,
                                truncation_defect)
from qscissors.search import refine

PI = math.pi
SQRT = math.sqrt

QUARTIT_EVENT = MeasurementEvent((1, 1, 1), (1, 1, 1))
D5_EVENT = MeasurementEvent((1, 2, 1), (1, 2, 1))
D6_EVENT = MeasurementEvent((2, 1, 2), (2, 1, 2))

TWELFTH_SPEC = GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], (0, 0, 0, 0, PI / 2, 0))
SURD_SPEC = GqsdSpec([(13 - 3 * SQRT(13)) / 26, 1 / 2, 1, 1 / 3,
                      (2 + SQRT(3)) / 4])
QUARTIT_NUMERIC = GqsdSpec([0.78494, 0.69001, 1, 0.87451, 0.70185],
                           (0, 0, 0, 0, PI, 0))
D5_NUMERIC = GqsdSpec([0.30464, 0.38775, 1, 0.81740, 0.18438],
                      (0, 0, 0, PI, 0, 0))
D6_NUMERIC_1 = GqsdSpec([0.75572, 0.41783, 0.32503, 0.83274, 0.50338],
                        (0, 0, 0, PI, 0, 0))
D6_NUMERIC_2 = GqsdSpec([0.58154, 0.28519, 0.46753, 0.68558, 0.49836],
                        (0, 0, 0, PI, 0, 0))


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""
    def _report(criterion: int, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion:2d}: {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line
    return _report


def spec_distance(a: GqsdSpec, b: GqsdSpec) -> float:
    dt = np.max(np.abs(np.array(a.transmittances) - np.array(b.transmittances)))
    dx = np.max(np.abs(np.array(a.phases) - np.array(b.phases)))
    return max(float(dt), float(dx))


def reduced_spec(t1_sq, t4_sq, xi4=0.0):
    return GqsdSpec([t1_sq, 1, 1, t4_sq, 1], (0, 0, 0, xi4, 0, 0))


def qubit_event(inputs, counts):
    return MeasurementEvent((inputs[0], inputs[1], 0), (counts[0], 0, counts[1]))


def test_criterion_1_quartit_exact_twelfth(report):
    c = conditional_amplitudes(TWELFTH_SPEC, QUARTIT_EVENT).as_array()
    err = float(np.max(np.abs(c - 1 / 12)))
    report(1, err < 1e-12, f"quartit c_n = 1/12, max error {err:.2e}")


def test_criterion_2_quartit_exact_surd(report):
    c = conditional_amplitudes(SURD_SPEC, QUARTIT_EVENT).as_array()
    aligned = align_phase(np.ones(4), c)
    err = float(np.max(np.abs(aligned - 1 / (4 * SQRT(39)))))
    report(2, err < 1e-12, f"quartit c_n = 1/(4 sqrt 39), max error {err:.2e}")


def test_criterion_3_quartit_numeric(report):
    c = conditional_amplitudes(QUARTIT_NUMERIC, QUARTIT_EVENT)
    amp_err = float(np.max(np.abs(np.abs(c.as_array()) - 0.134)))
    defect = truncation_defect(c, TruncationTarget.full(4))
    refined, refined_defect = refine(QUARTIT_NUMERIC, QUARTIT_EVENT,
                                     TruncationTarget.full(4), tol=1e-10,
                                     fix_t3=1.0)
    dist = spec_distance(refined, QUARTIT_NUMERIC)
    ok = amp_err < 5e-4 and defect < 1e-3 and refined_defect < 1e-10 and dist < 1e-4
    report(3, ok, f"quartit numeric: |c|-0.134 err {amp_err:.2e}, "
                  f"defect {defect:.2e}, refined defect {refined_defect:.2e} "
                  f"at distance {dist:.2e}")


def test_criterion_4_qubit_cases(report):
    rng = np.random.default_rng(41)
    cases = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 0))]
    worst = 0.0
    for _ in range(100):
        t1, t4 = rng.random(2)
        xi4 = rng.uniform(-PI, PI)
        for inputs, counts in cases:
            event = qubit_event(inputs, counts)
            spec = reduced_spec(t1, t4, xi4)
            diff = np.max(np.abs(
                conditional_amplitudes(spec, event).as_array()
                - analytic_amplitudes(2, spec, event).as_array()))
            worst = max(worst, float(diff))
    target = TruncationTarget.full(2)
    worst_defect = 0.0
    for t1 in rng.random(25):
        for inputs, counts in cases[:2]:  # crossed counts: T1 = 1 - T4, xi4 = 0
            c = conditional_amplitudes(reduced_spec(t1, 1 - t1, 0.0),
                                       qubit_event(inputs, counts))
            worst_defect = max(worst_defect, truncation_defect(c, target))
        for inputs, counts in cases[2:]:  # straight counts: T1 = T4, xi4 = pi
            c = conditional_amplitudes(reduced_spec(t1, t1, PI),
                                       qubit_event(inputs, counts))
            worst_defect = max(worst_defect,
                               truncation_defect(c, target))
    amp_half = abs(conditional_amplitudes(
        reduced_spec(0.5, 0.5), qubit_event((1, 0), (0, 1))).c[0])
    grid_max = max(abs(conditional_amplitudes(
        reduced_spec(t1, 1 - t1), qubit_event((1, 0), (0, 1))).c[0])
        for t1 in np.linspace(0.01, 0.99, 99))
    optimum_ok = abs(amp_half - 0.5) < 1e-12 and grid_max <= amp_half + 1e-12
    ok = worst < 1e-12 and worst_defect < 1e-12 and optimum_ok
    report(4, ok, f"qubit cases: analytic vs evolution {worst:.2e}, perfect "
                  f"truncation defect {worst_defect:.2e}, optimum |c| {amp_half:.6f}")


def test_criterion_5_qutrit_relation(report):
    target = TruncationTarget.full(3)
    event = qubit_event((1, 1), (1, 1))
    worst = 0.0
    for t1 in np.linspace(0.02, 0.98, 49):
        for branch in (+1, -1):
            t4 = qutrit_bs_relation(t1, branch)
            xi4 = 0.0 if branch * (2 * t1 - 1) > 0 else PI
            c = conditional_amplitudes(reduced_spec(t1, t4, xi4), event)
            worst = max(worst, truncation_defect(c, target))
    optima_ok = True
    for t1, same in (((3 - SQRT(3)) / 6, True), ((3 + SQRT(3)) / 6, True)):
        branch_same = -1 if t1 < 0.5 else +1
        optima_ok &= abs(qutrit_bs_relation(t1, branch_same) - t1) < 1e-12
        optima_ok &= abs(qutrit_bs_relation(t1, -branch_same) - (1 - t1)) < 1e-12
    ok = worst < 1e-12 and optima_ok
    report(5, ok, f"qutrit relation: worst defect {worst:.2e}, "
                  f"optima at T1 = (3 +- sqrt 3)/6 confirmed")


def test_criterion_6_d5_d6_numeric(report):
    c5 = conditional_amplitudes(D5_NUMERIC, D5_EVENT)
    d5_defect = truncation_defect(c5, TruncationTarget.full(5))
    _, d5_refined = refine(D5_NUMERIC, D5_EVENT, TruncationTarget.full(5),
                           tol=1e-10, fix_t3=1.0)
    c6a = conditional_amplitudes(D6_NUMERIC_1, D6_EVENT)
    c6b = conditional_amplitudes(D6_NUMERIC_2, D6_EVENT)
    d6a_defect = truncation_defect(c6a, TruncationTarget.full(6))
    d6b_defect = truncation_defect(c6b, TruncationTarget.full(6))
    _, d6a_refined = refine(D6_NUMERIC_1, D6_EVENT, TruncationTarget.full(6),
                            tol=1e-10)
    _, d6b_refined = refine(D6_NUMERIC_2, D6_EVENT, TruncationTarget.full(6),
                            tol=1e-10)
    amp_a, amp_b = abs(c6a.c[0]), abs(c6b.c[0])
    ok = (d5_defect < 1e-3 and d5_refined < 1e-10
          and d6a_defect < 1e-3 and d6b_defect < 1e-3
          and d6a_refined < 1e-10 and d6b_refined < 1e-10
          and amp_b < amp_a)
    report(6, ok, f"d=5 defect {d5_defect:.2e} -> {d5_refined:.2e}; d=6 defects "
                  f"{d6a_defect:.2e} -> {d6a_refined:.2e}, "
                  f"{d6b_defect:.2e} -> {d6b_refined:.2e}; "
                  f"|c| {amp_a:.6f} > {amp_b:.6f}")


def test_criterion_7_selective_catalog(report):
    selective = [e for e in build_catalog()
                 if len(e.target.keep) < e.target.d and e.exact]
    worst_defect = 0.0
    worst_suppressed = 0.0
    for entry in selective:
        result = verify_entry(entry)
        worst_defect = max(worst_defect, result.defect)
        worst_suppressed = max(worst_suppressed, result.suppressed_max)
    rng = np.random.default_rng(71)
    phase_worst = 0.0
    for _ in range(20):  # |2> synthesis survives arbitrary phase shifts
        spec = GqsdSpec([1, 1 / 2, 1 / 3, 1 / 2, 1],
                        tuple(rng.uniform(-PI, PI, 6)))
        c = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
        phase_worst = max(phase_worst,
                          float(max(abs(c[0]), abs(c[1]), abs(c[3]))))
    ok = (len(selective) >= 10 and worst_defect < 1e-10
          and worst_suppressed < 1e-10 and phase_worst < 1e-10)
    report(7, ok, f"selective truncation ({len(selective)} analytic entries): "
                  f"worst defect {worst_defect:.2e}, suppressed "
                  f"{worst_suppressed:.2e}, phase-robust synthesis "
                  f"{phase_worst:.2e}")


def test_criterion_8_symmetry_transforms(report):
    rng = np.random.default_rng(83)
    worst = 0.0
    for _ in range(100):
        x2, x5 = rng.uniform(-PI, PI, 2)
        t = rng.random(4)
        spec = GqsdSpec((t[0], t[1], 1.0, t[2], t[3]),
                        (0.0, x2, 0.0, x2 + x5, x5, 0.0))
        base = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
        for image in symmetry_transforms(spec):
            c = conditional_amplitudes(image, QUARTIT_EVENT).as_array()
            worst = max(worst, float(np.max(np.abs(c - base))))
    report(8, worst < 1e-10,
           f"symmetry transforms leave c_n invariant, worst {worst:.2e}")


def test_criterion_9_structural_cutoff(report):
    rng = np.random.default_rng(97)
    events = [QUARTIT_EVENT, D5_EVENT, MeasurementEvent((1, 1, 0), (0, 1, 1)),
              MeasurementEvent((2, 0, 1), (1, 1, 1))]
    worst_amp = 0.0
    for _ in range(20):
        spec = GqsdSpec(tuple(rng.random(5)), tuple(rng.uniform(-PI, PI, 6)))
        for event in events:
            for n in (event.dim, event.dim + 1):
                worst_amp = max(worst_amp,
                                abs(heralded_amplitude(spec, event, n)))
    worst_s14 = max(
        abs(gqsd_matrix(GqsdSpec(tuple(rng.random(5)),
                                 tuple(rng.uniform(-PI, PI, 6))))[0, 3])
        for _ in range(200))
    ok = worst_amp < 1e-12 and worst_s14 < 1e-14
    report(9, ok, f"structural cutoff: |c_n| {worst_amp:.2e} for n >= d, "
                  f"|S14| {worst_s14:.2e}")


def _herald_fidelities(spec, event, kinds_eta_nu):
    field = coherent_expansion(0.4, 1e-12)
    psi = embed_input(field, 3, event.fock_inputs)
    phi = evolve(psi, spec.elements())
    ideal, _ = truncate(spec, event, field)
    out = {}
    for label, kind, eta, nu in kinds_eta_nu:
        models = [DetectorModel(kind, eta, nu)] * 3
        outcomes = [outcome_for_count(kind, n) for n in event.counts]
        rho, _ = conditional_density_matrix(phi, models, outcomes)
        out[label] = fidelity(rho, ideal)
    return out


def test_criterion_10_detector_fidelities(report):
    nu_c = nu_from_dark_rate(100.0, 10e-9)
    nu_sr = nu_from_dark_rate(1e4, 10e-9)
    plan = [("c", CONVENTIONAL, 0.7, nu_c),
            ("s", SINGLE_PHOTON, 0.88, nu_sr),
            ("r", NUMBER_RESOLVING, 0.88, nu_sr)]
    f4 = _herald_fidelities(QUARTIT_NUMERIC, QUARTIT_EVENT, plan)
    f5 = _herald_fidelities(D5_NUMERIC, D5_EVENT, plan)
    ok = (abs(f4["c"] - 0.91) < 0.03
          and abs(f4["s"] - 0.98) < 0.02 and abs(f4["r"] - 0.98) < 0.02
          and abs(f5["c"] - 0.67) < 0.05
          and abs(f5["s"] - 0.95) < 0.03 and abs(f5["r"] - 0.96) < 0.03)
    report(10, ok, f"fidelities quartit (c/s/r) = {f4['c']:.4f}/{f4['s']:.4f}/"
                   f"{f4['r']:.4f}; d=5 = {f5['c']:.4f}/{f5['s']:.4f}/"
                   f"{f5['r']:.4f}")


def test_criterion_11_property_suites(report):
    rng = np.random.default_rng(113)
    oracle_worst = 0.0
    norm_worst = 0.0
    conserved = True
    for _ in range(20):
        t = tuple(rng.random(5))
        x = tuple(rng.uniform(-PI, PI, 6))
        spec = GqsdSpec(t, x)
        occ = tuple(int(n) for n in rng.multinomial(int(rng.integers(0, 7)),
                                                    [0.25] * 4))
        fast = evolve(fock_product_state(occ), spec.elements())
        slow = evolve_fock_oracle(gqsd_matrix(spec), occ)
        keys = set(fast.amplitudes) | set(slow.amplitudes)
        oracle_worst = max(oracle_worst,
                           max((abs(fast.amplitude(k) - slow.amplitude(k))
                                for k in keys), default=0.0))
        norm_worst = max(norm_worst, abs(fast.norm() - 1.0))
        conserved &= all(total_photons(k) == total_photons(occ)
                         for k in fast.amplitudes)
    povm_worst = 0.0
    for kind in (CONVENTIONAL, SINGLE_PHOTON, NUMBER_RESOLVING):
        model = DetectorModel(kind, eta=0.88, nu=1e-4)
        total = np.zeros(8)
        for outcome in outcome_family(model, 7):
            total += povm_for_outcome(model, outcome, 7)
        povm_worst = max(povm_worst, float(np.max(np.abs(total - 1.0))))
    xi6_worst = 0.0
    for _ in range(5):
        spec = GqsdSpec(tuple(rng.random(5)),
                        tuple(rng.uniform(-PI, PI, 5)) + (0.0,))
        phi = rng.uniform(-PI, PI)
        shifted = GqsdSpec(spec.transmittances,
                           spec.phases[:5] + (phi,))
        base = conditional_amplitudes(spec, QUARTIT_EVENT).as_array()
        c = conditional_amplitudes(shifted, QUARTIT_EVENT).as_array()
        xi6_worst = max(xi6_worst, float(np.max(np.abs(
            c - base * np.exp(1j * phi * np.arange(4))))))
    field = fock_expansion([0.6, 0.0, 0.8j, 0.0])
    qudit, _ = truncate(TWELFTH_SPEC, QUARTIT_EVENT, field)
    teleport_worst = float(np.max(np.abs(
        qudit.as_array() - np.array([0.6, 0.0, 0.8j, 0.0]))))
    ok = (oracle_worst < 1e-11 and norm_worst < 1e-12 and conserved
          and povm_worst < 1e-9 and xi6_worst < 1e-13
          and teleport_worst < 1e-10)
    report(11, ok, f"properties: oracle {oracle_worst:.2e}, norm "
                   f"{norm_worst:.2e}, POVM {povm_worst:.2e}, xi6 law "
                   f"{xi6_worst:.2e}, teleportation {teleport_worst:.2e}")
