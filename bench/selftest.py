"""Fast tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import qscissors  # noqa: E402
import qscissors.cli  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, span_stats  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    record = run.run(workload, seed=3, seconds=0.1, trace=trace, tiny=True)
    summary = record["summary"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"], record["ops"]["failures"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_corrupted_amplitudes_are_counted_as_failures(monkeypatch):
    original = qscissors.scissors.heralded_amplitude
    monkeypatch.setattr(qscissors.scissors, "heralded_amplitude",
                        lambda spec, event, n: original(spec, event, n) * (1 + 1e-6))
    summary = run.run("amplitudes", seed=3, seconds=0.1, trace=False, tiny=True)["summary"]
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]


def test_corrupted_fidelity_is_counted_as_a_failure(monkeypatch):
    original = qscissors.cli.fidelity
    monkeypatch.setattr(qscissors.cli, "fidelity", lambda rho, ideal: original(rho, ideal) - 1e-6)
    record = run.run("herald", seed=3, seconds=0.1, trace=False, tiny=True)
    by_kind = record["ops"]["by_kind"]
    ideal_ops = by_kind["fidelity d4"]["count"] + by_kind["fidelity d5"]["count"]
    # The ideal-detector F_r = 1 check catches the 1e-6 error; the
    # published fidelities (held to +-0.02) and the truncate ops do not.
    assert 0 < record["summary"]["failed"] == ideal_ops < record["summary"]["attempted"]


def test_self_time_is_duration_minus_children():
    # A [0, 100] -> B [10, 40] -> D [20, 30]; A -> C [50, 90] with 5 ns in counters.
    spans = [Span(0, None, 0, "A", 0, 100, 0, None),
             Span(1, 0, 0, "B", 10, 40, 0, None),
             Span(2, 1, 0, "D", 20, 30, 0, None),
             Span(3, 0, 0, "C", 50, 90, 5, None),
             Span(4, None, 1, "C", 200, 210, 0, None)]
    stats = span_stats(spans)
    self_ns = {name: round(s["self_ms"] * 1e6) for name, s in stats.items()}
    assert self_ns == {"A": 30, "B": 20, "D": 10, "C": 35 + 10}
    assert stats["C"]["calls"] == 2
    assert round(stats["C"]["total_ms"] * 1e6) == 50


def test_tracer_sees_copied_bindings_and_nested_calls():
    spec = qscissors.GqsdSpec([1 / 3, 1 / 4, 1, 1 / 3, 1 / 2])
    event = qscissors.MeasurementEvent((1, 1, 1), (1, 1, 1))
    tracer = Tracer()
    tracer.install(qscissors)
    try:
        assert qscissors.search.conditional_amplitudes is qscissors.scissors.conditional_amplitudes
        qscissors.search.conditional_amplitudes(spec, event)   # outside an op: not recorded
        with tracer.op(7):
            qscissors.search.conditional_amplitudes(spec, event)
    finally:
        tracer.uninstall()
    assert qscissors.scissors.conditional_amplitudes.__module__ == "qscissors.scissors"
    stats = tracer.layer_stats()
    assert stats["scissors.conditional_amplitudes"]["calls"] == 1
    assert stats["scissors.heralded_amplitude"]["calls"] == 4
    assert stats["evolution.evolve"]["calls"] == 4
    assert stats["evolution.apply_element"]["calls"] == 4 * 11
    assert {s.op_id for s in tracer.spans} == {7}
    root, = [s for s in tracer.spans if s.parent_id is None]
    assert root.name == "scissors.conditional_amplitudes" and root.tag == "d4"
    assert tracer.terms["evolution.apply_element.terms_in"] > 0


def test_op_time_is_scaled_by_the_reference_loop_around_it():
    speed = run.HostSpeed()
    # vCPU 1 chosen at check 0 with a 2 ms loop; 3 ms on vCPU 1 at check 1.
    speed.checks = [(1, {0: 4e-3, 1: 2e-3}), (1, {1: 3e-3}), (0, {0: 1e-3, 1: 5e-3})]
    assert speed.scale(0) == pytest.approx(2 * speed.REFERENCE_S / 5e-3)
    assert speed.scale(1) == pytest.approx(2 * speed.REFERENCE_S / 8e-3)
    # No check after the last one: its own reading stands for both.
    assert speed.scale(2) == pytest.approx(speed.REFERENCE_S / 1e-3)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 9.9, 10.2]
    faster = [v * 0.5 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert run.compare_metric(parent, faster, "lower", 0.1) == (1.0, "better")
    assert run.compare_metric(parent, slower, "lower", 0.1)[1] == "worse"
    assert run.compare_metric(parent, parent, "lower", 0.1)[1] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.compare_metric(noisy, noisy, "lower", 0.1)[1] == "unresolved"
