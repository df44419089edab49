"""Truncation fidelity with realistic photodetectors.

Compares conventional (click / no-click), single-photon resolving
(0 / 1 / 2+) and fully number-resolving detectors, including finite
efficiency and dark counts, for the quartit and d = 5 devices. The
heralded output is built once per device (``detected_blocks``); each
detector model then costs one small density-matrix contraction, which
makes the fidelity-versus-efficiency curves cheap.
"""

import math

from qscissors import (CONVENTIONAL, NUMBER_RESOLVING, SINGLE_PHOTON,
                       DetectorModel, GqsdSpec, MeasurementEvent,
                       coherent_expansion, detected_blocks, fidelity, gqsd_matrix,
                       heralded_density_matrix, nu_from_dark_rate,
                       outcome_for_count, truncate)

TAU_RES = 10e-9  # 10 ns resolution window

DEVICES = [
    ("quartit", GqsdSpec([0.78494, 0.69001, 1, 0.87451, 0.70185],
                         (0, 0, 0, 0, math.pi, 0)),
     MeasurementEvent((1, 1, 1), (1, 1, 1))),
    ("d=5", GqsdSpec([0.30464, 0.38775, 1, 0.81740, 0.18438],
                     (0, 0, 0, math.pi, 0, 0)),
     MeasurementEvent((1, 2, 1), (1, 2, 1))),
]

DETECTORS = [
    ("conventional", CONVENTIONAL, 0.7, 100.0),
    ("single-photon", SINGLE_PHOTON, 0.88, 1e4),
    ("number-resolving", NUMBER_RESOLVING, 0.88, 1e4),
]

# Efficiencies of the F-versus-eta curves; each kind keeps its dark rate.
ETAS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)


def heralded_fidelity(blocks, ideal, event, kind, eta, r_dark):
    """(F, outcome probability) for three identical detectors of one kind."""
    nu = nu_from_dark_rate(r_dark, TAU_RES)
    models = [DetectorModel(kind, eta, nu)] * 3
    outcomes = [outcome_for_count(kind, n) for n in event.counts]
    rho, probability = heralded_density_matrix(blocks, models, outcomes)
    return fidelity(rho, ideal), probability


field = coherent_expansion(alpha=0.4)
print(f"input: coherent state alpha = 0.4, Fock cutoff n = {field.n_max}\n")

curves = {}
for device_name, spec, event in DEVICES:
    blocks = detected_blocks(gqsd_matrix(spec), event.fock_inputs, field.gammas)
    ideal, p_ideal = truncate(spec, event, field)
    print(f"--- {device_name} device, counts {event.counts} ---")
    print(f"ideal heralding probability = {p_ideal:.4e}")
    for label, kind, eta, r_dark in DETECTORS:
        f, probability = heralded_fidelity(blocks, ideal, event, kind, eta, r_dark)
        print(f"  {label:<17} eta = {eta:.2f}  nu = {r_dark * TAU_RES:.0e}  "
              f"F = {f:.4f}  P = {probability:.4e}")
    curves[device_name] = [[heralded_fidelity(blocks, ideal, event, kind, eta, r_dark)[0]
                            for _, kind, _, r_dark in DETECTORS] for eta in ETAS]
    print()

print("fidelity versus detector efficiency (dark rates as above):")
columns = [f"{d} {k}" for d, _, _ in DEVICES for k in ("click", "0/1/2+", "PNR")]
print("  eta " + "".join(f"{c:>16}" for c in columns))
for i, eta in enumerate(ETAS):
    print(f"  {eta:.2f}" + "".join(f"{f:>16.4f}" for d, _, _ in DEVICES for f in curves[d][i]))
print()

print("conventional detectors cannot distinguish one photon from many,")
print("so extra terms leak into the heralded state and the fidelity drops;")
print("resolving 0 / 1 / 2+ already recovers most of it.")
