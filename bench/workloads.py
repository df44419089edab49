"""The benchmark's workloads: seeded inputs, the ops that call qscissors, and output checks.

Every workload is a closed loop with one client: ops run one after
another in a single thread. Ops are grouped into rounds with a fixed
mix; each round draws fresh inputs from ``(seed, round index)``, so any
number of complete rounds has the same mix and no input repeats. Calls
into the library go through module attributes (``qs.search.refine``),
so the tracer's rebinding of those attributes sees them.

A check runs after its op, outside the timed region. It returns the
number of verified solutions the op produced and raises ``CheckError``
when the output is wrong. Warm-up ops run once, unchecked, before timing.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

PI = math.pi
# Photon number up to which the brute-force oracle is affordable as a check.
ORACLE_PHOTONS = 8


class CheckError(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def phase_aligned_error(reference, values) -> float:
    """max |reference - e^{i phi} values| with phi fixed on the largest reference entry."""
    reference = np.asarray(reference, dtype=complex)
    values = np.asarray(values, dtype=complex)
    i = int(np.argmax(np.abs(reference)))
    if abs(values[i]) > 0.0:
        rotation = reference[i] / values[i]
        values = values * (rotation / abs(rotation))
    return float(np.max(np.abs(reference - values)))


def _rng(seed: int, stream: int, index: int = 0):
    return np.random.default_rng([seed, stream, index])


def _oracle_amplitude(qs, spec, event, n) -> complex:
    occupation = event.fock_inputs + (n,)
    state = qs.evolution.evolve_fock_oracle(qs.network.gqsd_matrix(spec), occupation)
    return state.amplitude((n,) + event.counts)


def _has_closed_form(spec, event) -> bool:
    """True where analytic_amplitudes covers this device and event."""
    t, x = spec.transmittances, spec.phases
    if event.dim in (4, 5):
        canonical = {4: (1, 1, 1), 5: (1, 2, 1)}[event.dim]
        return (t[2] == 1.0 and x[2] == 0.0 and x[5] == 0.0
                and event.fock_inputs == canonical == event.counts)
    return False


def _check_amplitudes(qs, spec, event, c, use_oracle: bool):
    """c_n against the closed forms (modulo one global phase) and the oracle."""
    d = event.dim
    values = np.asarray(c, dtype=complex)
    _require(values.shape == (d,), f"expected {d} amplitudes, got {values.shape}")
    reference = qs.scissors.analytic_amplitudes(d, spec, event).as_array()
    known = ~np.isnan(reference)
    err = phase_aligned_error(reference[known], values[known])
    _require(err < 1e-10, f"d={d}: c_n differ from the closed form by {err:.2e}")
    if use_oracle:
        for n in range(d):
            if sum(event.fock_inputs) + n <= ORACLE_PHOTONS:
                err = abs(_oracle_amplitude(qs, spec, event, n) - values[n])
                _require(err < 1e-10, f"d={d}: c_{n} differs from the oracle by {err:.2e}")


# --- amplitudes -----------------------------------------------------------

class Amplitudes:
    """Raw c_n throughput: conditional_amplitudes on fresh random devices.

    Each round evaluates two fresh devices per d = 2..6, restricted to
    the devices and events that have closed forms, so every op is
    checked: the reduced two-splitter device for d = 2, 3, t3 = 1 with
    xi3 = xi6 = 0 for d = 4, 5, and any device with xi6 = 0 for d = 6
    (closed forms for c4, c5). A seeded share of ops is also compared
    with the brute-force oracle for every c_n with <= 8 photons. One
    verify_catalog op runs per phase.
    """

    name = "amplitudes"
    trace_rounds = 20
    DIMS = (2, 3, 4, 5, 6)
    QUBIT_EVENTS = (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0)),
                    ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (1, 0, 0)))
    ORACLE_SHARE = 0.005

    def __init__(self, qs, seed: int, work_dir: Path, tiny: bool = False):
        self.qs, self.seed = qs, seed
        self.per_dim = 1 if tiny else 2

    def once(self) -> list:
        qs = self.qs

        def check(results):
            _require(len(results) == 22, f"{len(results)} catalog entries, expected 22")
            failed = [r.name for r in results if not r.passed]
            _require(not failed, f"catalog entries fail: {failed}")
            return 1

        return [Op("verify_catalog", lambda: qs.catalog.verify_catalog(), check)]

    def warm_up(self) -> list:
        return self._ops(_rng(self.seed, 1), per_dim=1)

    def round(self, index: int) -> list:
        return self._ops(_rng(self.seed, 0, index), self.per_dim)

    def _ops(self, rng, per_dim: int) -> list:
        return [self._op(rng, d) for d in self.DIMS for _ in range(per_dim)]

    def _op(self, rng, d: int) -> Op:
        qs = self.qs
        spec, event = self._device(rng, d)
        use_oracle = bool(rng.random() < self.ORACLE_SHARE)

        def check(c):
            _check_amplitudes(qs, spec, event, c.c, use_oracle)
            return 1

        return Op(f"d{d}", lambda: qs.scissors.conditional_amplitudes(spec, event), check)

    def _device(self, rng, d: int):
        qs = self.qs
        t = rng.uniform(0.05, 0.95, 5)
        x = rng.uniform(-PI, PI, 6)
        x[5] = 0.0
        if d in (2, 3):
            t[[1, 2, 4]] = 1.0
            x[[0, 1, 2, 4]] = 0.0
            if d == 2:
                inputs, counts = self.QUBIT_EVENTS[rng.integers(len(self.QUBIT_EVENTS))]
            else:
                inputs, counts = (1, 1, 0), (1, 0, 1)
        elif d in (4, 5):
            t[2] = 1.0
            x[2] = 0.0
            inputs = counts = (1, 1, 1) if d == 4 else (1, 2, 1)
        else:
            inputs = counts = (2, 1, 2)
        return (qs.network.GqsdSpec(tuple(t), tuple(x)),
                qs.scissors.MeasurementEvent(inputs, counts))


# --- herald ---------------------------------------------------------------

def _config_text(spec, event, alpha: complex, detectors: dict, keep=None) -> str:
    lines = [
        "T = " + ", ".join(repr(v) for v in spec.transmittances),
        "xi = " + ", ".join(repr(v) for v in spec.phases),
        "fock_inputs = " + ", ".join(map(str, event.fock_inputs)),
        "counts = " + ", ".join(map(str, event.counts)),
        "field_kind = coherent",
        f"alpha = ({alpha.real!r}, {alpha.imag!r})",
        "tail_epsilon = 1e-12",
        "tau_res = 1e-8",
    ]
    lines += [f"{key} = {value!r}" for key, value in detectors.items()]
    if keep is not None:
        lines.append("target_keep = " + ", ".join(map(str, sorted(keep))))
    return "\n".join(lines) + "\n"


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class Herald:
    """The user's CLI path on one large superposition.

    ``qscissors fidelity`` / ``truncate`` run in-process on generated
    config files with catalog d = 4 / 5 devices and a coherent input.
    Each round runs the same four magnitudes |alpha| = 0.4-1.3
    (n_max ~7-18) with seeded phases, so every round spans the same
    state sizes and a slot (the n-th op of each round) costs the same
    in every round and under every seed. The number-resolving detector
    is ideal (eta_r = 1, no dark counts), so F_r must be 1: that checks
    the full-state evolve + density-matrix path against the per-Fock
    truncate path. Each round also reruns the two published
    detector-fidelity inputs (alpha = 0.4).
    """

    name = "herald"
    trace_rounds = 2
    # One d = 4 device per |alpha|, each paired with the d = 5 device.
    MAGNITUDES = ((0.4, "quartit numeric 0.134"), (0.7, "quartit 1/12"),
                  (1.0, "hole at 2"), (1.3, "filter {0,3}"))
    D5 = "d=5 numeric"
    # "filter {1,2} with BS3" has t3 != 1: its c_n are checked by the oracle.
    TRUNCATE_DEVICES = ("filter {1,2} with BS3", "d=5 numeric")
    PUBLISHED_DETECTORS = {"eta_c": 0.7, "r_dark_c": 100.0, "eta_s": 0.88,
                           "r_dark_s": 1e4, "eta_r": 0.88, "r_dark_r": 1e4}
    # Published fidelities (F_c, F_s, F_r) and the tolerance each is held to.
    PUBLISHED = {"quartit numeric 0.134": ((0.91, 0.03), (0.98, 0.02), (0.98, 0.02)),
                 "d=5 numeric": ((0.67, 0.05), (0.95, 0.03), (0.96, 0.03))}

    def __init__(self, qs, seed: int, work_dir: Path, tiny: bool = False):
        self.qs, self.seed, self.work_dir, self.tiny = qs, seed, work_dir, tiny
        self.catalog = {e.name: e for e in qs.catalog.build_catalog()}

    def once(self) -> list:
        return []

    def warm_up(self) -> list:
        rng = _rng(self.seed, 1)
        return [self._fidelity(rng, "w0", self.catalog[self.D5], 0.4),
                self._truncate(rng, "w1", self.catalog[self.D5])]

    def round(self, index: int) -> list:
        rng = _rng(self.seed, 0, index)
        magnitudes = self.MAGNITUDES[:1] if self.tiny else self.MAGNITUDES
        ops = []
        for magnitude, d4_name in magnitudes:
            for name in (d4_name, self.D5):
                ops.append(self._fidelity(rng, f"f{len(ops)}", self.catalog[name], magnitude))
        for name in self.TRUNCATE_DEVICES:
            ops.append(self._truncate(rng, f"t{len(ops)}", self.catalog[name]))
        for name in self.PUBLISHED:
            ops.append(self._published(f"p{len(ops)}", self.catalog[name]))
        return ops

    def _files(self, slot: str, config: str):
        cfg, out = self.work_dir / f"{slot}.cfg", self.work_dir / f"{slot}.csv"
        cfg.write_text(config)
        out.unlink(missing_ok=True)
        return cfg, out

    def _cli(self, command: str, cfg: Path, out: Path):
        qs = self.qs

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return qs.cli.main([command, "--config", str(cfg), "--out", str(out),
                                    "--format", "csv"])
        return run

    @staticmethod
    def _alpha(rng, magnitude: float) -> complex:
        return cmath.rect(magnitude, rng.uniform(-PI, PI))

    def _fidelity(self, rng, slot: str, entry, magnitude: float) -> Op:
        alpha = self._alpha(rng, magnitude)
        detectors = {"eta_c": rng.uniform(0.5, 0.95), "r_dark_c": rng.uniform(10.0, 1e3),
                     "eta_s": rng.uniform(0.7, 0.99), "r_dark_s": rng.uniform(1e3, 1e5),
                     "eta_r": 1.0, "r_dark_r": 0.0}
        cfg, out = self._files(slot, _config_text(entry.spec, entry.event, alpha, detectors))

        def check(rc):
            rows = self._fidelity_rows(rc, out)
            f_r = rows["r"][0]
            _require(abs(f_r - 1.0) < 1e-9, f"ideal detector F_r = {f_r!r}, expected 1")
            return 1

        return Op(f"fidelity d{entry.event.dim}", self._cli("fidelity", cfg, out), check)

    def _published(self, slot: str, entry) -> Op:
        config = _config_text(entry.spec, entry.event, 0.4 + 0j, self.PUBLISHED_DETECTORS)
        cfg, out = self._files(slot, config)
        expected = self.PUBLISHED[entry.name]

        def check(rc):
            rows = self._fidelity_rows(rc, out)
            for label, (value, tol) in zip("csr", expected):
                f = rows[label][0]
                _require(abs(f - value) < tol,
                         f"{entry.name}: F_{label} = {f:.4f}, published {value} +- {tol}")
            return 1

        return Op("fidelity published", self._cli("fidelity", cfg, out), check)

    @staticmethod
    def _fidelity_rows(rc, out: Path) -> dict:
        _require(rc == 0, f"fidelity exited with {rc}")
        rows = {r[0]: (float(r[3]), float(r[4])) for r in _read_csv(out)}
        _require(sorted(rows) == ["c", "r", "s"], f"detector rows {sorted(rows)}")
        for label, (f, probability) in rows.items():
            _require(-1e-12 <= f <= 1.0 + 1e-9, f"F_{label} = {f!r} outside [0, 1]")
            _require(0.0 < probability <= 1.0, f"P_{label} = {probability!r}")
        return rows

    def _truncate(self, rng, slot: str, entry) -> Op:
        qs = self.qs
        alpha = self._alpha(rng, rng.uniform(0.3, 1.3))
        cfg, out = self._files(slot, _config_text(entry.spec, entry.event, alpha, {},
                                                  keep=entry.target.keep))
        spec, event, d = entry.spec, entry.event, entry.event.dim

        def check(rc):
            _require(rc == 0, f"truncate exited with {rc}")
            rows = _read_csv(out)
            _require(len(rows) == d + 1, f"{len(rows)} output rows, expected {d + 1}")
            c = np.array([complex(float(r[1]), float(r[2])) for r in rows[:d]])
            qudit = np.array([complex(float(r[3]), float(r[4])) for r in rows[:d]])
            if _has_closed_form(spec, event):
                _check_amplitudes(qs, spec, event, c, use_oracle=False)
            else:
                oracle = [_oracle_amplitude(qs, spec, event, n) for n in range(d)]
                err = float(np.max(np.abs(np.array(oracle) - c)))
                _require(err < 1e-9, f"c_n differ from the oracle by {err:.2e}")
            gamma = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(d)])
            sigma = c * gamma
            err = float(np.max(np.abs(sigma / np.linalg.norm(sigma) - qudit)))
            _require(err < 1e-9, f"qudit differs from c_n gamma_n by {err:.2e}")
            probability = math.exp(-abs(alpha) ** 2) * float(np.sum(np.abs(sigma) ** 2))
            reported = float(rows[d][1])
            _require(abs(reported - probability) <= 1e-8 * probability,
                     f"probability {reported!r}, expected {probability!r}")
            defect = qs.scissors.truncation_defect(
                qs.scissors.ConditionalAmplitudes(d, tuple(c)), entry.target,
                quotient_phase=True)
            _require(abs(float(rows[d][3]) - defect) < 1e-9, "phase-quotient defect mismatch")
            return 1

        return Op(f"truncate d{d}", self._cli("truncate", cfg, out), check)


# --- design ---------------------------------------------------------------

class Design:
    """The designer's time-to-solution: refine and optimize.

    Each round refines near-solutions next to catalog devices (a fresh
    qutrit-relation device, d = 3 full truncation; a d = 3 filter; a d = 4
    hole) and runs one small multi-start optimize from two seeded starts
    on the qutrit event with t3 fixed to 1. A d = 5 refine (~3 s) would
    double the round: with ~4 rounds a run, the shared host's slow spells
    spread the results by 20-30 %; d = 5 amplitudes are measured by the
    other workloads. A near-solution is
    the device moved by a seeded random step of ~1e-3, scaled so that its
    defect is ``START_DEFECT``: every op starts equally far from its
    target, and its tolerance demands at least a 2x reduction.

    Every op runs Nelder-Mead for at most ``ITERATIONS`` per start. Each
    tolerance sits above the worst defect one such call reached from
    these starts on the seed code, so the op needs about one call today
    and a better optimizer shows as fewer evaluations. (Converging to
    1e-10 instead takes 1k-13k evaluations per op, too variable to
    measure in a run.) The optimize op has no random starts: whether one
    converges (one call) or not (four) is chance that would double the
    op's cost and change its solution count from round to round.
    """

    name = "design"
    trace_rounds = 1
    ITERATIONS = 300
    START_DEFECT = 1e-3
    QUTRIT_TOL = 1e-6
    REFINES = (("filter {1,2} via (1,1,0)/(1,0,1)", 5e-4), ("hole at 2", 5e-4))
    WARM_UP_ITERATIONS = 20

    def __init__(self, qs, seed: int, work_dir: Path, tiny: bool = False):
        self.qs, self.seed, self.tiny = qs, seed, tiny
        self.catalog = {e.name: e for e in qs.catalog.build_catalog()}

    def once(self) -> list:
        return []

    def warm_up(self) -> list:
        rng, iterations = _rng(self.seed, 1), self.WARM_UP_ITERATIONS
        return [self._refine(rng, self._qutrit_entry(rng), self.QUTRIT_TOL, iterations),
                self._optimize(rng, starts=1, iterations=iterations)]

    def round(self, index: int) -> list:
        rng = _rng(self.seed, 0, index)
        ops = [self._refine(rng, self._qutrit_entry(rng), self.QUTRIT_TOL)]
        if self.tiny:
            return ops + [self._optimize(rng, starts=1)]
        ops += [self._refine(rng, self.catalog[name], tol) for name, tol in self.REFINES]
        return ops + [self._optimize(rng, starts=2)]

    def _qutrit_entry(self, rng):
        t1 = rng.uniform(0.1, 0.35)
        if rng.random() < 0.5:
            t1 = 1.0 - t1
        entries = self.qs.catalog.qutrit_relation_entries([t1])
        return entries[rng.integers(len(entries))]

    def _perturbed(self, rng, entry):
        """(near-solution spec, fix_t3): ``entry`` moved until its defect is START_DEFECT."""
        qs = self.qs
        fix_t3 = 1.0 if entry.spec.transmittances[2] == 1.0 else None
        params = qs.search.spec_to_params(entry.spec, fix_t3=fix_t3)
        step = 1e-3 * rng.uniform(-1.0, 1.0, params.size)
        # The defect grows linearly with a small step away from a solution.
        defect = qs.search.objective(params + step, entry.event, entry.target,
                                     quotient_phase=True, fix_t3=fix_t3)
        step *= self.START_DEFECT / defect
        return qs.search.params_to_spec(params + step, fix_t3=fix_t3), fix_t3

    def _verified(self, spec, event, target, tol: float, min_amplitude: float) -> float:
        """Recompute the defect of ``spec``; return |c_k0| if it is a solution."""
        qs = self.qs
        c = qs.scissors.conditional_amplitudes(spec, event)
        defect = qs.scissors.truncation_defect(c, target, quotient_phase=True)
        _require(defect < tol, f"defect {defect:.2e} not below {tol:.0e}")
        amplitude = abs(c.c[min(target.keep)])
        _require(amplitude >= min_amplitude,
                 f"|c_k0| = {amplitude:.2e} below {min_amplitude:.2e}")
        return amplitude

    def _refine(self, rng, entry, tol: float, iterations: int = ITERATIONS) -> Op:
        qs = self.qs
        spec, fix_t3 = self._perturbed(rng, entry)
        event, target = entry.event, entry.target
        # A refined design keeps most of the catalog device's amplitude,
        # which rules out the degenerate all-zero "solution".
        c0 = qs.scissors.conditional_amplitudes(entry.spec, event)
        min_amplitude = 0.5 * abs(c0.c[min(target.keep)])

        def run():
            return qs.search.refine(spec, event, target, quotient_phase=True, tol=tol,
                                    fix_t3=fix_t3, max_iterations=iterations)

        def check(result):
            refined, defect = result
            _require(defect < tol, f"{entry.name}: refine reports defect {defect:.2e}")
            self._verified(refined, event, target, tol, min_amplitude)
            return 1

        return Op(f"refine d{target.d}", run, check)

    def _optimize(self, rng, starts: int, iterations: int = ITERATIONS) -> Op:
        qs = self.qs
        seeds = [self._perturbed(rng, self._qutrit_entry(rng))[0] for _ in range(starts)]
        event = qs.scissors.MeasurementEvent((1, 1, 0), (1, 0, 1))
        target = qs.scissors.TruncationTarget.full(3)
        config = qs.search.SearchConfig(
            seeds=0, max_iterations=iterations, convergence_tol=self.QUTRIT_TOL, fix_t3=1.0)

        def check(records):
            _require(len(records) >= 1, "optimize found no solution")
            for rec in records:
                amplitude = self._verified(rec.spec, event, target, config.convergence_tol,
                                           config.min_amplitude)
                _require(abs(amplitude - rec.amplitude) < 1e-12, "reported |c_k0| mismatch")
            return len(records)

        return Op("optimize d3", lambda: qs.search.optimize(event, target, config, seeds), check)


WORKLOADS = {w.name: w for w in (Design, Amplitudes, Herald)}
