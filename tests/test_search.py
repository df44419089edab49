import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qscissors
from qscissors.catalog import build_catalog, qutrit_relation_entries
from qscissors.network import GqsdSpec
from qscissors.scissors import (MeasurementEvent, TruncationTarget,
                                conditional_amplitudes, symmetry_transforms,
                                truncation_defect)
from qscissors.search import (JACOBIAN_STEP, SearchConfig, _central_jacobian, _decode,
                              _fit_pattern, _pattern_residuals, objective, optimize,
                              params_to_spec, refine, spec_to_params)

PI = math.pi

TWELFTH_SPEC = GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2], (0, 0, 0, 0, PI / 2, 0))
QUARTIT_EVENT = MeasurementEvent((1, 1, 1), (1, 1, 1))
QUBIT_EVENT = MeasurementEvent((1, 0, 0), (0, 0, 1))


class TestParametrization:
    def test_round_trip(self):
        params = spec_to_params(TWELFTH_SPEC)
        spec = params_to_spec(params)
        assert np.allclose(spec.transmittances, TWELFTH_SPEC.transmittances,
                           atol=1e-15)
        assert np.allclose(spec.phases, TWELFTH_SPEC.phases, atol=1e-15)

    def test_fixed_t3_vector_length(self):
        params = spec_to_params(TWELFTH_SPEC, fix_t3=1.0)
        assert len(params) == 9
        spec = params_to_spec(params, fix_t3=1.0)
        assert spec.transmittances[2] == 1.0
        assert np.allclose(spec.transmittances, TWELFTH_SPEC.transmittances,
                           atol=1e-15)

    def test_angles_keep_transmittance_in_range(self):
        for theta in np.linspace(-3, 3, 25):
            spec = params_to_spec([theta, 0.1, 0.2, 0.3, 0.4, 0, 0, 0, 0, 0])
            assert 0.0 <= spec.transmittances[0] <= 1.0


    @pytest.mark.parametrize("fix_t3", [None, 1.0, 0.25])
    def test_spec_is_the_shared_decoder(self, rng, fix_t3):
        rows = rng.uniform(-1.0, 2.0, (6, 10 if fix_t3 is None else 9))
        rows[0, :2] = (0.0, PI / 2)
        transmittances, phases = _decode(rows, fix_t3)
        for row, t, x in zip(rows, transmittances, phases):
            spec = params_to_spec(row, fix_t3=fix_t3)
            assert spec.transmittances == tuple(t) and spec.phases == tuple(x)


class TestStencil:
    @pytest.mark.parametrize("event, fix_t3", [
        (MeasurementEvent((1, 1, 0), (1, 0, 1)), 1.0),
        (MeasurementEvent((1, 2, 1), (1, 2, 1)), None)])
    def test_equals_column_by_column_central_difference(self, rng, event, fix_t3):
        # d = 5 has 8 residual rows, where np.sum(J**2, axis=0) of a
        # transposed (F-order) Jacobian rounds differently
        target = TruncationTarget.full(event.dim)
        residuals = _pattern_residuals(event, target, fix_t3)

        def reference(params):
            c = conditional_amplitudes(params_to_spec(params, fix_t3=fix_t3), event).as_array()
            return (c[1:] / c[0] - 1.0).view(float)

        for _ in range(5):
            x = rng.uniform(0.1, 1.4, 9 if fix_t3 is not None else 10)
            n_thetas = x.size - 5
            directions = np.delete(np.eye(x.size), n_thetas, axis=0) * JACOBIAN_STEP
            jacobian = _central_jacobian(residuals, x, directions)
            expected = np.column_stack([(reference(x + h) - reference(x - h))
                                        / (2 * JACOBIAN_STEP) for h in directions])
            assert np.array_equal(jacobian, expected)
            assert np.array_equal(np.sum(jacobian ** 2, axis=0),
                                  np.sum(expected ** 2, axis=0))
            assert np.array_equal(residuals(x[None])[0], reference(x))

    def test_vanishing_c_k0_gives_infinite_residual(self):
        # the identity device heralds only n = 1 on the quartit event
        residuals = _pattern_residuals(QUARTIT_EVENT, TruncationTarget.full(4), None)
        rows = np.array([np.zeros(10), spec_to_params(TWELFTH_SPEC)])
        r = residuals(rows)
        assert np.all(np.isinf(r[0])) and np.all(np.isfinite(r[1]))


class TestFitStop:
    def test_reasons(self):
        target = TruncationTarget.full(4)
        x = spec_to_params(TWELFTH_SPEC, fix_t3=1.0)
        done = _fit_pattern(x, QUARTIT_EVENT, target, 1.0, 400, 1e-10)
        assert done.stop == "tolerance" and done.evaluations == 1
        start = x + 1e-3
        spent = _fit_pattern(start, QUARTIT_EVENT, target, 1.0, 40, 1e-14)
        assert spent.stop == "budget" and spent.evaluations <= 40
        dead = _fit_pattern(np.zeros(10), QUARTIT_EVENT, target, None, 400, 1e-10)
        assert dead.stop == "stalled" and dead.evaluations == 1

    def test_optimize_logs_each_start_and_why_it_was_rejected(self, caplog):
        entry = next(e for e in build_catalog() if e.target.d == 2)
        config = SearchConfig(seeds=1, max_iterations=200, convergence_tol=1e-10,
                              fix_t3=1.0, random_seed=1)
        with caplog.at_level(logging.DEBUG, logger="qscissors"):
            records = optimize(entry.event, entry.target, config,
                               seed_specs=[entry.spec, entry.spec])
        messages = [r.getMessage() for r in caplog.records if r.name == "qscissors"]
        assert len(messages) == 3 and len(records) >= 1
        assert messages[0].startswith("optimize start 0:") and "kept" in messages[0]
        assert "rejected (duplicate)" in messages[1]
        assert "evaluations" in messages[2] and "stop" in messages[2]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qscissors"):
            optimize(entry.event, entry.target,
                     SearchConfig(seeds=0, fix_t3=1.0, min_amplitude=0.99),
                     seed_specs=[entry.spec])
            optimize(QUARTIT_EVENT, TruncationTarget(4, frozenset({2})),
                     SearchConfig(seeds=0, max_iterations=60, fix_t3=1.0),
                     seed_specs=[TWELFTH_SPEC])
        messages = [r.getMessage() for r in caplog.records if r.name == "qscissors"]
        assert "rejected (amplitude floor)" in messages[0]
        assert "stop budget" in messages[1] and "rejected (defect)" in messages[1]

    def test_silent_without_debug_logging(self, caplog):
        with caplog.at_level(logging.INFO, logger="qscissors"):
            optimize(QUBIT_EVENT, TruncationTarget.full(2),
                     SearchConfig(seeds=1, max_iterations=50, fix_t3=1.0))
        assert not caplog.records


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [
        ("seeds", -1), ("max_iterations", 0), ("convergence_tol", 0.0),
        ("convergence_tol", math.nan), ("min_amplitude", 0.0),
        ("max_iterations", math.nan), ("max_iterations", math.inf),
        ("max_iterations", 2.5), ("seeds", 2.5), ("seeds", math.nan),
        ("fix_t3", 1.5), ("fix_t3", -0.1), ("fix_t3", math.nan), ("fix_t3", math.inf)])
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(ValueError):
            SearchConfig(**{field: value})

    def test_zero_random_starts_allowed(self):
        assert SearchConfig(seeds=0).seeds == 0

    def test_numpy_integers_and_bounds_of_fix_t3_allowed(self):
        config = SearchConfig(seeds=np.int64(3), max_iterations=np.int32(10), fix_t3=0.0)
        assert config.seeds == 3 and SearchConfig(fix_t3=1.0).fix_t3 == 1.0

    def test_nan_budget_no_longer_returns_empty(self):
        # every comparison with nan was false, so no step ran and optimize returned []
        with pytest.raises(ValueError):
            optimize(QUBIT_EVENT, TruncationTarget.full(2),
                     SearchConfig(seeds=3, max_iterations=math.nan, fix_t3=1.0))


class TestSeedSpecs:
    def test_seed_off_the_fixed_t3_rejected(self):
        # spec_to_params used to drop T3 = 0.5 and start from another device
        with pytest.raises(ValueError, match="T3"):
            spec_to_params(GqsdSpec([0.5] * 5), fix_t3=1.0)
        with pytest.raises(ValueError, match="T3"):
            optimize(QUBIT_EVENT, TruncationTarget.full(2),
                     SearchConfig(seeds=0, max_iterations=50, fix_t3=1.0),
                     seed_specs=[GqsdSpec([0.5] * 5)])
        with pytest.raises(ValueError, match="T3"):
            refine(GqsdSpec([0.5] * 5), QUBIT_EVENT, TruncationTarget.full(2), fix_t3=1.0)

    def test_seed_within_tolerance_accepted(self):
        spec = GqsdSpec([0.5, 1, 1 - 1e-13, 0.5, 1])
        assert spec_to_params(spec, fix_t3=1.0).size == 9
        assert spec_to_params(GqsdSpec([0.5] * 5), fix_t3=0.5).size == 9


class TestObjective:
    def test_zero_at_published_solution(self):
        params = spec_to_params(TWELFTH_SPEC)
        value = objective(params, QUARTIT_EVENT, TruncationTarget.full(4))
        assert value < 1e-12

    def test_matches_defect(self):
        spec = GqsdSpec([0.3, 0.6, 1, 0.4, 0.7], (0, 0.2, 0, 0.5, 0.1, 0))
        params = spec_to_params(spec)
        c = conditional_amplitudes(spec, QUARTIT_EVENT)
        expected = truncation_defect(c, TruncationTarget.full(4))
        value = objective(params, QUARTIT_EVENT, TruncationTarget.full(4))
        assert abs(value - expected) < 1e-14


class TestOptimize:
    def small_config(self, **kw):
        base = dict(seeds=4, max_iterations=1500, convergence_tol=1e-10,
                    random_seed=7, fix_t3=1.0)
        base.update(kw)
        return SearchConfig(**base)

    def test_finds_qubit_truncators(self):
        records = optimize(QUBIT_EVENT, TruncationTarget.full(2),
                           self.small_config())
        assert records
        for rec in records:
            assert rec.defect < 1e-10
            c = conditional_amplitudes(rec.spec, QUBIT_EVENT)
            assert truncation_defect(c, rec.target) < 1e-10
            assert abs(abs(c.c[0]) - rec.amplitude) < 1e-12

    def test_deterministic(self):
        a = optimize(QUBIT_EVENT, TruncationTarget.full(2), self.small_config())
        b = optimize(QUBIT_EVENT, TruncationTarget.full(2), self.small_config())
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.spec.transmittances == y.spec.transmittances
            assert x.spec.phases == y.spec.phases

    def test_sorted_by_amplitude(self):
        records = optimize(QUBIT_EVENT, TruncationTarget.full(2),
                           self.small_config(seeds=6))
        amps = [r.amplitude for r in records]
        assert amps == sorted(amps, reverse=True)

    def test_seeded_solution_recovered_first(self):
        records = optimize(QUARTIT_EVENT, TruncationTarget.full(4),
                           self.small_config(seeds=0, max_iterations=400),
                           seed_specs=[TWELFTH_SPEC])
        assert len(records) == 1
        assert np.allclose(records[0].spec.transmittances,
                           TWELFTH_SPEC.transmittances, atol=1e-4)
        assert abs(records[0].amplitude - 1 / 12) < 1e-6

    def test_gauge_and_mirror_copies_give_one_record(self):
        # xi1 only sets the global phase, and the t3 = 1 mirror images herald
        # the same quartit operation: all are one solution
        gauge = GqsdSpec(TWELFTH_SPEC.transmittances, (0.7,) + TWELFTH_SPEC.phases[1:])
        seeds = [TWELFTH_SPEC, gauge] + symmetry_transforms(TWELFTH_SPEC)
        records = optimize(QUARTIT_EVENT, TruncationTarget.full(4),
                           self.small_config(seeds=0, max_iterations=400),
                           seed_specs=seeds)
        assert len(records) == 1
        assert abs(records[0].amplitude - 1 / 12) < 1e-6

    def test_records_meet_tolerance_relative_to_amplitude(self):
        event = MeasurementEvent((1, 1, 0), (1, 0, 1))
        config = self.small_config(seeds=5, max_iterations=1000, convergence_tol=1e-8,
                                   random_seed=2)
        records = optimize(event, TruncationTarget.full(3), config)
        assert records
        for rec in records:
            c = conditional_amplitudes(rec.spec, event)
            assert truncation_defect(c, rec.target) < config.convergence_tol * abs(c.c[0])

    def test_infeasible_target_returns_nothing(self):
        # single-Fock synthesis of |2> needs BS3; with t3 pinned to 1 the
        # defect cannot reach the convergence threshold
        records = optimize(QUARTIT_EVENT, TruncationTarget(4, frozenset({2})),
                           self.small_config(seeds=3, max_iterations=300))
        assert records == []


class TestRefine:
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
    def test_invalid_tolerance_rejected(self, tol):
        # refine(tol=nan) returned its start unchanged
        with pytest.raises(ValueError):
            refine(TWELFTH_SPEC, QUARTIT_EVENT, TruncationTarget.full(4), tol=tol)

    def test_polishes_perturbed_solution(self):
        rng = np.random.default_rng(5)
        t = np.array(TWELFTH_SPEC.transmittances) + rng.uniform(-1e-3, 1e-3, 5)
        t[2] = 1.0
        x = np.array(TWELFTH_SPEC.phases) + rng.uniform(-1e-3, 1e-3, 6)
        x[5] = 0.0
        perturbed = GqsdSpec(tuple(t), tuple(x))
        refined, defect = refine(perturbed, QUARTIT_EVENT,
                                 TruncationTarget.full(4), tol=1e-10,
                                 fix_t3=1.0)
        assert defect < 1e-10
        dist = np.max(np.abs(np.array(refined.transmittances)
                             - np.array(TWELFTH_SPEC.transmittances)))
        assert dist < 1e-2

    def test_global_phase_kept(self):
        # xi1 only sets the global phase of every c_n: a polish leaves it alone
        spec = GqsdSpec([0.34, 0.25, 1, 1 / 3, 0.5], (0.3, 0, 0, 0, PI / 2, 0))
        start = objective(spec_to_params(spec, fix_t3=1.0), QUARTIT_EVENT,
                          TruncationTarget.full(4), fix_t3=1.0)
        refined, defect = refine(spec, QUARTIT_EVENT, TruncationTarget.full(4),
                                 fix_t3=1.0, max_iterations=200)
        assert defect < start / 10 and refined.phases[0] == 0.3

    def test_already_converged(self):
        refined, defect = refine(TWELFTH_SPEC, QUARTIT_EVENT,
                                 TruncationTarget.full(4), tol=1e-10)
        assert defect < 1e-12

    @pytest.mark.parametrize("name", ["qutrit relation", "filter {1,2} via (1,1,0)/(1,0,1)",
                                      "hole at 2"])
    def test_perturbed_catalog_solutions_converge_without_drift(self, name):
        # uncapped steps drifted along the solution family towards c = 0
        entries = qutrit_relation_entries([0.2, 0.7]) + build_catalog()
        entry = next(e for e in entries if e.name.startswith(name))
        k0 = min(entry.target.keep)
        amplitude = abs(conditional_amplitudes(entry.spec, entry.event).c[k0])
        fix_t3 = 1.0 if entry.spec.transmittances[2] == 1.0 else None
        params = spec_to_params(entry.spec, fix_t3=fix_t3)
        rng = np.random.default_rng(11)
        for _ in range(8):
            start = params_to_spec(params + rng.uniform(-1e-3, 1e-3, params.size),
                                   fix_t3=fix_t3)
            refined, defect = refine(start, entry.event, entry.target, tol=1e-10,
                                     fix_t3=fix_t3)
            c = conditional_amplitudes(refined, entry.event)
            assert defect < 1e-10 and truncation_defect(c, entry.target) < 1e-10
            assert abs(c.c[k0]) >= 0.5 * amplitude


def test_search_does_not_import_scipy():
    code = """if True:
        import sys
        from qscissors import (GqsdSpec, MeasurementEvent, SearchConfig,
                               TruncationTarget, optimize, refine)
        event = MeasurementEvent((1, 0, 0), (0, 0, 1))
        spec = GqsdSpec([0.5, 1, 1, 0.5, 1])
        refine(spec, event, TruncationTarget.full(2), max_iterations=50)
        optimize(event, TruncationTarget.full(2),
                 SearchConfig(seeds=1, max_iterations=50, fix_t3=1.0))
        print("scipy" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(qscissors.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"
