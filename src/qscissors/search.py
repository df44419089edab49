"""Least-squares search over device parameters for truncation targets."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolution import projected_amplitudes
from .network import GqsdSpec, gqsd_matrices
from .scissors import (MeasurementEvent, TruncationTarget, conditional_amplitudes,
                       truncation_defect)

logger = logging.getLogger("qscissors")

JACOBIAN_STEP = 1e-6
STEP_CAP = 0.01  # largest change of one parameter per step
# Converged starts whose |c_k0| agree to this relative tolerance herald the same operation.
AMPLITUDE_DEDUP_RTOL = 1e-6
# A seed spec may differ from the fixed T3 by this much.
FIX_T3_TOL = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start Levenberg-Marquardt search settings.

    ``max_iterations`` caps the residual evaluations of each start; each
    point of a Jacobian's central-difference stencil counts as one, though
    the stencil is evaluated in one batched engine pass.
    ``fix_t3`` pins the middle transmittance (e.g. 1.0 to freeze BS3 out
    of the search); the corresponding angle is then removed from the
    search vector. Converged points whose heralded amplitude |c_k0| falls
    below ``min_amplitude`` are discarded for lack of success probability;
    converged points are told apart by |c_k0| alone (see ``optimize``).
    ``seeds`` and ``max_iterations`` must be integers, the tolerances
    positive and finite, and ``fix_t3`` None or in [0, 1].
    """

    seeds: int = 20
    max_iterations: int = 4000
    convergence_tol: float = 1e-12
    random_seed: int = 0
    fix_t3: float | None = None
    min_amplitude: float = 1e-8

    def __post_init__(self):
        counts = (self.seeds, self.max_iterations)
        tolerances = (self.convergence_tol, self.min_amplitude)
        # Comparisons with nan are false, so nan fails every range test below.
        if (not all(isinstance(n, numbers.Integral) for n in counts)
                or self.seeds < 0 or self.max_iterations < 1
                or not all(0.0 < tol < math.inf for tol in tolerances)
                or not (self.fix_t3 is None or 0.0 <= self.fix_t3 <= 1.0)):
            raise ValueError(f"invalid search settings {self}")


@dataclass(frozen=True)
class SolutionRecord:
    spec: GqsdSpec
    event: MeasurementEvent
    target: TruncationTarget
    defect: float
    amplitude: float


def _decode(rows, fix_t3: float | None):
    """(transmittances (B, 5), phases (B, 6)) of the search vectors ``rows`` (B, P)."""
    n_thetas = 5 if fix_t3 is None else 4
    transmittances = np.cos(rows[:, :n_thetas]) ** 2
    if fix_t3 is not None:
        transmittances = np.insert(transmittances, 2, fix_t3, axis=1)
    phases = np.concatenate([rows[:, n_thetas:], np.zeros((len(rows), 1))], axis=1)
    return transmittances, phases


def params_to_spec(params, fix_t3: float | None = None) -> GqsdSpec:
    """Decode a search vector into device parameters.

    Full vector: 5 angles theta_k (t_k = cos theta_k) followed by the 5
    free phases xi1..xi5 (xi6 = 0). With ``fix_t3`` set, theta_3 is
    absent and the vector has 9 entries.
    """
    transmittances, phases = _decode(np.asarray(params, dtype=float)[None], fix_t3)
    return GqsdSpec(tuple(transmittances[0]), tuple(phases[0]))


def spec_to_params(spec: GqsdSpec, fix_t3: float | None = None) -> np.ndarray:
    """Encode a device as a search vector (inverse of ``params_to_spec``).

    With ``fix_t3`` set, the spec's T3 must equal it (to 1e-12): the vector
    has no T3, so another value would start the search from another device.
    """
    transmittances = list(spec.transmittances)
    if fix_t3 is not None:
        if not abs(transmittances[2] - fix_t3) <= FIX_T3_TOL:
            raise ValueError(f"spec has T3 = {transmittances[2]!r}, "
                             f"but the search fixes T3 = {fix_t3!r}")
        del transmittances[2]
    thetas = [math.acos(math.sqrt(t)) for t in transmittances]
    return np.array(thetas + list(spec.phases[:5]))


def objective(params, event: MeasurementEvent, target: TruncationTarget,
              quotient_phase: bool = True, fix_t3: float | None = None) -> float:
    """Defect of the device encoded by ``params``; ``quotient_phase`` has no effect."""
    spec = params_to_spec(params, fix_t3=fix_t3)
    c = conditional_amplitudes(spec, event)
    return truncation_defect(c, target)


def _pattern_residuals(event: MeasurementEvent, target: TruncationTarget,
                       fix_t3: float | None):
    """The fit's residual map: search vectors (B, P) -> rows (B, 2(d - 1)).

    Row b holds c_n / c_k0 - [n in K] for n != k0 (real and imaginary parts
    interleaved) of device b, or inf where c_k0 = 0. All B devices go
    through one engine pass.
    """
    k0 = min(target.keep)
    pattern = np.array([n in target.keep for n in range(target.d) if n != k0], dtype=float)

    def residuals(rows):
        s = gqsd_matrices(*_decode(rows, fix_t3))
        c = projected_amplitudes(s, event.fock_inputs, event.counts, event.dim - 1)
        c_k0 = c[:, k0, None]
        vanishing = c_k0[:, 0] == 0
        r = (np.delete(c, k0, axis=1) / np.where(vanishing[:, None], 1.0, c_k0)
             - pattern).view(float)
        r[vanishing] = np.inf
        return r

    return residuals


def _central_jacobian(residuals, x: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian (R, D) of ``residuals`` at ``x`` along the
    rows of ``directions`` (D, P, each a step of ``JACOBIAN_STEP``), from one
    batch of its 2D stencil points."""
    stencil = residuals(np.concatenate([x + directions, x - directions]))
    half = len(directions)
    # C order: np.sum over axis 0 of a transposed view rounds differently.
    return np.ascontiguousarray(((stencil[:half] - stencil[half:]) / (2 * JACOBIAN_STEP)).T)


class FitResult(NamedTuple):
    """Where a fit stopped (see ``_fit_pattern``)."""

    x: np.ndarray
    evaluations: int  # residual evaluations, stencil points included
    stop: str  # "tolerance", "budget" or "stalled"


def _fit_pattern(x0, event: MeasurementEvent, target: TruncationTarget,
                 fix_t3: float | None, max_evaluations: int, tol: float) -> FitResult:
    """Levenberg-Marquardt fit of c_n / c_k0 to the target pattern, from ``x0``.

    The residual c_n / c_k0 - [n in K] (n != k0, real and imaginary parts)
    has moduli summing to defect / |c_k0|: the all-zero limit is no solution,
    and the global phase, set by xi1 alone, drops out (xi1 never moves).
    Central-difference Jacobian, its 2(P - 1) stencil points evaluated as one
    batch of devices in a single engine pass; Marquardt scaling, steps capped
    at ``STEP_CAP`` per coordinate (uncapped ones slide along solution
    families towards c = 0), angles held in [0, pi/2].

    Returns the last accepted point, the residual evaluations spent (each
    stencil point counts as one) and why the fit stopped: "tolerance" once
    defect / |c_k0| < ``tol``, "budget" before a Jacobian would pass
    ``max_evaluations``, "stalled" when the damped step no longer moves the
    point or the residual is not finite.
    """
    residuals = _pattern_residuals(event, target, fix_t3)

    def misfit(r):
        return np.sum(np.abs(r.view(complex)))

    x = np.asarray(x0, dtype=float)
    n_thetas = x.size - 5
    directions = np.delete(np.eye(x.size), n_thetas, axis=0) * JACOBIAN_STEP
    r = residuals(x[None])[0]
    evaluations, damping = 1, 1e-3
    while (tol <= misfit(r) < math.inf
           and evaluations + 2 * len(directions) < max_evaluations):
        jacobian = _central_jacobian(residuals, x, directions)
        evaluations += 2 * len(directions)
        scale = np.sum(jacobian ** 2, axis=0)
        rhs = np.concatenate([-r, np.zeros(len(directions))])
        while evaluations < max_evaluations:
            system = np.vstack([jacobian, np.diag(np.sqrt(damping * scale))])
            step = np.linalg.lstsq(system, rhs, rcond=None)[0]
            trial = x + np.insert(np.clip(step, -STEP_CAP, STEP_CAP), n_thetas, 0.0)
            trial[:n_thetas] = np.clip(trial[:n_thetas], 0.0, math.pi / 2)
            if np.array_equal(trial, x):
                return FitResult(x, evaluations, "stalled")
            r_trial = residuals(trial[None])[0]
            evaluations += 1
            if r_trial @ r_trial < r @ r:
                x, r = trial, r_trial
                damping /= 10.0
                break
            damping *= 10.0
    final = misfit(r)
    stop = "tolerance" if final < tol else "budget" if math.isfinite(final) else "stalled"
    return FitResult(x, evaluations, stop)


def optimize(event: MeasurementEvent, target: TruncationTarget,
             config: SearchConfig, seed_specs=()) -> list:
    """Multi-start Levenberg-Marquardt fit of the truncation pattern.

    ``seed_specs`` are tried first (with ``fix_t3`` set, their T3 must
    equal it; see ``spec_to_params``); the remaining starts are drawn from
    the configured RNG. Each start ends where defect / |c_k0| falls below
    ``convergence_tol`` or after ``max_iterations`` residual evaluations.
    A converged point has c_n = |c_k0| e^{i phi} [n in K] to within that
    tolerance, so |c_k0| fixes the heralded operation up to a global phase:
    one record is kept per |c_k0| (relative ``AMPLITUDE_DEDUP_RTOL``), which
    also merges gauge and mirror copies of one device. Records are returned
    sorted by descending |c_k0|. Each start logs one DEBUG record on the
    ``qscissors`` logger: its evaluations, why its fit stopped, its defect
    and |c_k0|, and whether it was kept or rejected (amplitude floor,
    defect or duplicate).
    """
    rng = np.random.default_rng(config.random_seed)
    fix_t3 = config.fix_t3
    n_thetas = 4 if fix_t3 is not None else 5

    starts = [spec_to_params(s, fix_t3=fix_t3) for s in seed_specs]
    while len(starts) < config.seeds + len(seed_specs):
        thetas = rng.uniform(0.02, math.pi / 2 - 0.02, n_thetas)
        phases = rng.uniform(-math.pi, math.pi, 5)
        starts.append(np.concatenate([thetas, phases]))

    records = []
    k0 = min(target.keep)
    for index, x0 in enumerate(starts):
        fit = _fit_pattern(x0, event, target, fix_t3, config.max_iterations,
                           config.convergence_tol)
        spec = params_to_spec(fit.x, fix_t3=fix_t3)
        c = conditional_amplitudes(spec, event)
        defect, amplitude = truncation_defect(c, target), abs(c.c[k0])
        if amplitude < config.min_amplitude:
            verdict = "rejected (amplitude floor)"
        elif defect >= config.convergence_tol * amplitude:
            verdict = "rejected (defect)"
        elif any(math.isclose(amplitude, r.amplitude, rel_tol=AMPLITUDE_DEDUP_RTOL)
                 for r in records):
            verdict = "rejected (duplicate)"
        else:
            verdict = "kept"
            records.append(SolutionRecord(spec=spec, event=event, target=target,
                                          defect=defect, amplitude=amplitude))
        logger.debug("optimize start %d: %d evaluations, stop %s, defect %.3e, "
                     "|c_k0| %.3e, %s", index, fit.evaluations, fit.stop, defect,
                     amplitude, verdict)
    records.sort(key=lambda r: -r.amplitude)
    return records


def refine(spec: GqsdSpec, event: MeasurementEvent, target: TruncationTarget,
           quotient_phase: bool = True, tol: float = 1e-10,
           fix_t3: float | None = None, max_iterations: int = 4000):
    """Local polish of a near-solution; returns (refined spec, defect).

    Runs until defect / |c_k0| < ``tol`` or ``max_iterations`` residual
    evaluations. The refined spec keeps the start's xi1, which only adds a
    global phase to every c_n. ``quotient_phase`` does not change the
    result (see ``truncation_defect``). ``tol`` must be positive and finite,
    ``max_iterations`` a positive integer and ``fix_t3`` None or in [0, 1].
    """
    SearchConfig(max_iterations=max_iterations, convergence_tol=tol, fix_t3=fix_t3)  # validates
    x = _fit_pattern(spec_to_params(spec, fix_t3=fix_t3), event, target, fix_t3,
                     max_iterations, tol).x
    return params_to_spec(x, fix_t3=fix_t3), objective(x, event, target, fix_t3=fix_t3)
