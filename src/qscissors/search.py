"""Derivative-free search over device parameters for truncation targets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .network import GqsdSpec
from .scissors import (ConditionalAmplitudes, MeasurementEvent, TruncationTarget,
                       conditional_amplitudes, symmetry_transforms, truncation_defect)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start simplex search settings.

    ``fix_t3`` pins the middle transmittance (e.g. 1.0 to freeze BS3 out
    of the search); the corresponding angle is then removed from the
    search vector. Converged points whose heralded amplitude |c_k0| falls
    below ``min_amplitude`` are discarded: the defect also vanishes in the
    degenerate limit where every coefficient goes to zero, and those
    points have no success probability.
    """

    seeds: int = 20
    max_iterations: int = 4000
    convergence_tol: float = 1e-12
    random_seed: int = 0
    quotient_phase: bool = True
    fix_t3: float | None = None
    dedup_tol: float = 1e-6
    min_amplitude: float = 1e-8

    def __post_init__(self):
        tolerances = (self.convergence_tol, self.dedup_tol, self.min_amplitude)
        if (self.seeds < 0 or self.max_iterations < 1
                or not all(0.0 < tol < math.inf for tol in tolerances)):
            raise ValueError(f"invalid search settings {self}")


@dataclass(frozen=True)
class SolutionRecord:
    spec: GqsdSpec
    event: MeasurementEvent
    target: TruncationTarget
    defect: float
    amplitude: float
    source: str = "found"


def params_to_spec(params, fix_t3: float | None = None) -> GqsdSpec:
    """Decode a search vector into device parameters.

    Full vector: 5 angles theta_k (t_k = cos theta_k) followed by the 5
    free phases xi1..xi5 (xi6 = 0). With ``fix_t3`` set, theta_3 is
    absent and the vector has 9 entries.
    """
    params = np.asarray(params, dtype=float)
    if fix_t3 is None:
        thetas = params[:5]
        transmittances = np.cos(thetas) ** 2
    else:
        thetas = params[:4]
        t = np.cos(thetas) ** 2
        transmittances = np.array([t[0], t[1], fix_t3, t[2], t[3]])
    phases = tuple(params[len(thetas):]) + (0.0,)
    return GqsdSpec(tuple(transmittances), phases)


def spec_to_params(spec: GqsdSpec, fix_t3: float | None = None) -> np.ndarray:
    transmittances = list(spec.transmittances)
    if fix_t3 is not None:
        del transmittances[2]
    thetas = [math.acos(math.sqrt(t)) for t in transmittances]
    return np.array(thetas + list(spec.phases[:5]))


def objective(params, event: MeasurementEvent, target: TruncationTarget,
              quotient_phase: bool = True, fix_t3: float | None = None) -> float:
    """Truncation defect of the device encoded by ``params``."""
    spec = params_to_spec(params, fix_t3=fix_t3)
    c = conditional_amplitudes(spec, event)
    return truncation_defect(c, target, quotient_phase=quotient_phase)


def _polish(fun, x0, max_iterations: int, tol: float):
    """Nelder-Mead with restarts from the incumbent until stagnation."""
    from scipy.optimize import minimize  # ~50 MB and ~0.6 s to import; only searches need it

    best = None
    x = np.asarray(x0, dtype=float)
    for _ in range(4):
        res = minimize(fun, x, method="Nelder-Mead",
                       options={"maxiter": max_iterations,
                                "xatol": 1e-13, "fatol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
        if best.fun < tol:
            break
        if np.allclose(x, best.x):
            break
        x = best.x
    return best


def _canonical_key(spec: GqsdSpec, dedup_tol: float):
    t = np.round(np.asarray(spec.transmittances) / dedup_tol).astype(int)
    x = np.round((np.asarray(spec.phases) % TWO_PI) / dedup_tol).astype(int)
    return tuple(t) + tuple(x)


def _orbit(spec: GqsdSpec) -> list:
    """Spec plus its symmetry images (where the t3 = 1 transforms apply)."""
    specs = [spec]
    if abs(spec.transmittances[2] - 1.0) < 1e-9:
        try:
            images = symmetry_transforms(spec)
        except ValueError:
            images = []
        for s in images:
            specs.append(s)
            # compose the two reflection transforms as well
            try:
                specs.extend(symmetry_transforms(s))
            except ValueError:
                pass
    return specs


def _is_duplicate(spec: GqsdSpec, seen: set, dedup_tol: float) -> bool:
    return any(_canonical_key(s, dedup_tol) in seen for s in _orbit(spec))


def optimize(event: MeasurementEvent, target: TruncationTarget,
             config: SearchConfig, seed_specs=()) -> list:
    """Multi-start simplex minimization of the truncation defect.

    ``seed_specs`` are tried first; the remaining starts are drawn from
    the configured RNG. Converged runs (defect < convergence_tol) are
    de-duplicated modulo the published parameter symmetries and returned
    sorted by descending heralded amplitude |c_k0|.
    """
    rng = np.random.default_rng(config.random_seed)
    fix_t3 = config.fix_t3
    n_thetas = 4 if fix_t3 is not None else 5

    starts = [spec_to_params(s, fix_t3=fix_t3) for s in seed_specs]
    while len(starts) < config.seeds + len(seed_specs):
        thetas = rng.uniform(0.02, math.pi / 2 - 0.02, n_thetas)
        phases = rng.uniform(-math.pi, math.pi, 5)
        starts.append(np.concatenate([thetas, phases]))

    fun = lambda p: objective(p, event, target,
                              quotient_phase=config.quotient_phase, fix_t3=fix_t3)
    records = []
    seen: set = set()
    k0 = min(target.keep)
    for x0 in starts:
        res = _polish(fun, x0, config.max_iterations, config.convergence_tol)
        if res.fun >= config.convergence_tol:
            continue
        spec = params_to_spec(res.x, fix_t3=fix_t3)
        if _is_duplicate(spec, seen, config.dedup_tol):
            continue
        c = conditional_amplitudes(spec, event)
        if abs(c.c[k0]) < config.min_amplitude:
            continue
        seen.add(_canonical_key(spec, config.dedup_tol))
        records.append(SolutionRecord(
            spec=spec, event=event, target=target,
            defect=float(res.fun), amplitude=float(abs(c.c[k0])), source="found"))
    records.sort(key=lambda r: -r.amplitude)
    return records


def refine(spec: GqsdSpec, event: MeasurementEvent, target: TruncationTarget,
           quotient_phase: bool = True, tol: float = 1e-10,
           fix_t3: float | None = None, max_iterations: int = 4000):
    """Local polish of a near-solution; returns (refined spec, defect).

    With ``quotient_phase`` the refined spec keeps the start's xi1: xi1 only
    adds a global phase to every c_n, so the simplex drifts along it freely.
    """
    fun = lambda p: objective(p, event, target,
                              quotient_phase=quotient_phase, fix_t3=fix_t3)
    x0 = spec_to_params(spec, fix_t3=fix_t3)
    res = _polish(fun, x0, max_iterations, tol)
    if quotient_phase:
        res.x[x0.size - 5] = x0[x0.size - 5]
    return params_to_spec(res.x, fix_t3=fix_t3), float(res.fun)
