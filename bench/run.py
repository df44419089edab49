#!/usr/bin/env python3
"""qscissors benchmark runner.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload {design,amplitudes,herald} --seed N \
        --seconds S --trace {0,1} [--out results.jsonl]

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` a fixed number of traced rounds runs first, then an
untraced phase for the overhead ratio, and the last line holds the
per-layer metrics. The line before it is the full record (provenance,
op counts, failures); ``--out`` appends that record to a JSONL file.

Compare two result sets (e.g. parent vs. change, each a JSONL file
written with ``--out``):

    python3 bench/run.py --compare parent.jsonl change.jsonl
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: one client, one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# workloads.WORKLOADS, named here so that numpy loads inside the timed set-up.
WORKLOAD_NAMES = ("amplitudes", "design", "herald")

# name, unit; every traced run reports all of them, zero where a layer is unused.
PER_LAYER = (
    ("scissors.conditional_amplitudes.calls", "count"),
    ("scissors.conditional_amplitudes.self_ms", "ms"),
    ("scissors.conditional_amplitudes.d4.mean_ms", "ms"),
    ("scissors.conditional_amplitudes.d5.mean_ms", "ms"),
    ("scissors.conditional_amplitudes.d6.mean_ms", "ms"),
    ("scissors.heralded_amplitude.calls", "count"),
    ("scissors.truncation_defect.calls", "count"),
    ("scissors.truncation_defect.self_ms", "ms"),
    ("scissors.truncate.calls", "count"),
    ("scissors.truncate.self_ms", "ms"),
    ("evolution.evolve.calls", "count"),
    ("evolution.evolve.self_ms", "ms"),
    ("evolution.apply_element.calls", "count"),
    ("evolution.apply_element.self_ms", "ms"),
    ("evolution.apply_element.terms_in", "count"),
    ("evolution.apply_element.terms_out", "count"),
    ("network.gqsd_matrix.calls", "count"),
    ("network.gqsd_matrix.self_ms", "ms"),
    ("network.elements.calls", "count"),
    ("search.objective.calls", "count"),
    ("search.amplitude_evals", "count"),
    ("search.optimize.self_ms", "ms"),
    ("search.refine.self_ms", "ms"),
    ("search.evals_per_solution", "count"),
    ("detectors.conditional_density_matrix.calls", "count"),
    ("detectors.conditional_density_matrix.self_ms", "ms"),
    ("detectors.conditional_density_matrix.terms_in", "count"),
    ("detectors.povm_for_outcome.calls", "count"),
    ("detectors.povm_for_outcome.self_ms", "ms"),
    ("detectors.fidelity.self_ms", "ms"),
    ("fock.coherent_expansion.self_ms", "ms"),
    ("fock.embed_input.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("catalog.verify_catalog.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
)


class Phase:
    """Timings and outcomes of the ops run in one phase."""

    def __init__(self):
        self.op_seconds: list = []    # wall time
        self.op_scaled: list = []     # wall time at the nominal host speed (HostSpeed)
        self.op_checks: list = []     # index of the host-speed check before each op
        self.kinds: list = []
        self.rounds: list = []   # (first op, end op, verified solutions)
        self.failed = 0
        self.solutions = 0
        self.failures: list = []

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    def round_ops(self, values: list) -> list:
        """``values`` (one per op) split into rounds."""
        return [values[first:end] for first, end, _ in self.rounds]

    def round_seconds(self) -> list:
        return [sum(ops) for ops in self.round_ops(self.op_scaled)]


class HostSpeed:
    """Keeps this process on the faster vCPU and tracks how fast that vCPU runs.

    The shared host slows each vCPU to about half speed in spells of
    seconds to minutes, at times both at once. Between ops, outside the
    timed region, this times a fixed reference loop (``reference_loop``):
    on every vCPU every ``CHOOSE_S``, moving the process to the fastest
    (only this process's own affinity changes), and on the current vCPU
    every ``RECHECK_S`` in between. An op's wall time is then scaled to
    the nominal speed at which the loop takes ``REFERENCE_S``, by the
    loop's time at the checks just before and just after the op: a slow
    spell lengthens op and loop alike, while a change to qscissors moves
    only the op.
    """

    CHOOSE_S = 0.25
    RECHECK_S = 0.1
    REFERENCE_S = 1e-3

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.checks: list = []   # (current vCPU, {vCPU: reference loop seconds})
        self.chosen = self.checked = -math.inf

    def check(self, force: bool = False) -> int:
        """Re-time the vCPU(s) if due (or ``force``); returns the latest check's index."""
        now = time.perf_counter()
        if force or now - self.chosen >= self.CHOOSE_S:
            loops = {cpu: self._loop_seconds(cpu) for cpu in self.cpus}
            cpu = min(loops, key=loops.get)
            self.chosen = now
        elif now - self.checked >= self.RECHECK_S:
            cpu = self.checks[-1][0]
            loops = {cpu: self._loop_seconds(cpu)}
        else:
            return len(self.checks) - 1
        os.sched_setaffinity(0, {cpu})
        self.checks.append((cpu, loops))
        self.checked = time.perf_counter()
        return len(self.checks) - 1

    def scale(self, index: int) -> float:
        """Nominal / actual speed of the vCPU current at check ``index``, up to the next check."""
        cpu, before = self.checks[index]
        after = self.checks[index + 1][1] if index + 1 < len(self.checks) else before
        return 2 * self.REFERENCE_S / (before[cpu] + after[cpu])

    @staticmethod
    def _loop_seconds(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        return min(times)


# 8 MiB of non-zero bytes (zero pages would all map to one physical page).
_REFERENCE_BUFFER = bytes(range(256)) * (1 << 15)


def reference_loop() -> int:
    """~1 ms of pure Python at the host's full speed, independent of qscissors.

    One part of each kind of work the library's hot paths do: integer
    arithmetic, a dict of tuple keys accumulating complex numbers, and
    scattered reads from a buffer larger than the caches. Each kind
    slows differently when the host is busy; the mix slows about as
    much as the workloads do, where the arithmetic loop alone slows
    less than ``amplitudes`` (bench/README.md).
    """
    total = sum(i * i for i in range(6_500))
    amps: dict = {}
    for n in range(550):
        key = (n % 5, n % 7, n & 3)
        amps[key] = amps.get(key, 0j) + complex(n, 1.0) * math.sqrt(math.factorial(n % 6))
    size = len(_REFERENCE_BUFFER)
    for k in range(4_400):
        total += _REFERENCE_BUFFER[(k * 1_000_003) % size]
    return total


def run_op(op, phase: Phase, tracer=None) -> None:
    """Time one op, then check its output outside the timed region."""
    from workloads import CheckError

    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op(phase.attempted):
                out = op.run()
    except Exception as exc:  # a raising op is a failed op, not a failed run
        error = f"{op.kind}: raised {exc!r}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            phase.solutions += op.check(out)
        except CheckError as exc:
            error = f"{op.kind}: {exc}"
        except Exception as exc:
            error = f"{op.kind}: check raised {exc!r}"
    if error is not None:
        phase.failed += 1
        if len(phase.failures) < 10:
            phase.failures.append(error)
    phase.op_seconds.append(elapsed)
    phase.kinds.append(op.kind)


def run_phase(workload, speed: HostSpeed, first_round: int, first_ops=None, seconds=None,
              rounds=None, tracer=None, halfway=None) -> Phase:
    """Run the workload's once-ops, then whole rounds.

    Stops after ``rounds`` rounds, or at the end of the round in which the
    op time reaches ``seconds``, so only whole rounds (the fixed mix) are
    measured. ``halfway`` is called once between rounds when half the
    time is up. Wall times are scaled once the phase is over, when every
    op has a host-speed check after it.
    """
    phase = Phase()

    def run_ops(ops):
        for op in ops:
            phase.op_checks.append(speed.check())
            run_op(op, phase, tracer)

    run_ops(workload.once())
    elapsed = sum(phase.op_seconds)
    index, ops = first_round, first_ops
    while True:
        ops = ops if ops is not None else workload.round(index)
        start, solutions = len(phase.op_seconds), phase.solutions
        run_ops(ops)
        phase.rounds.append((start, len(phase.op_seconds), phase.solutions - solutions))
        elapsed += sum(phase.op_seconds[start:])
        if rounds is not None and len(phase.rounds) >= rounds or (
                rounds is None and elapsed >= seconds):
            speed.check(force=True)
            phase.op_scaled = [t * speed.scale(k)
                               for t, k in zip(phase.op_seconds, phase.op_checks)]
            return phase
        if halfway is not None and elapsed >= seconds / 2:
            halfway()
            halfway = None
        index, ops = index + 1, None


def slot_seconds(phase: Phase, values: list = None) -> list:
    """Median time of each slot of the fixed round mix (the n-th op of every round).

    From the scaled op times unless ``values`` (one per op) are given. A
    slot costs about the same in every round, and its occurrences sample
    moments spread over the run.
    """
    values = phase.op_scaled if values is None else values
    return [statistics.median(times) for times in zip(*phase.round_ops(values))]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """End-to-end metrics of one round built from the slot times."""
    slots = slot_seconds(phase)
    round_seconds = sum(slots)
    solutions = statistics.median(k for _, _, k in phase.rounds)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (round_seconds, "s"),
        "ops_per_s": (len(slots) / round_seconds, "1/s"),
        "op_p50_ms": (statistics.median(slots) * 1e3, "ms"),
        "op_tail_ms": (max(slots) * 1e3, "ms"),
        "s_per_solution": (round_seconds / max(solutions, 1), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    stats = tracer.layer_stats()
    spans = {s.span_id: s for s in tracer.spans}

    def under_search(span) -> bool:
        while span.parent_id is not None:
            span = spans[span.parent_id]
            if span.name.startswith("search."):
                return True
        return False

    amplitude_spans = [s for s in tracer.spans if s.name == "scissors.conditional_amplitudes"]
    amplitude_evals = sum(under_search(s) for s in amplitude_spans)
    values = {"search.amplitude_evals": amplitude_evals,
              "search.evals_per_solution": amplitude_evals / max(traced.solutions, 1),
              "trace.overhead_ratio": (statistics.median(traced.round_seconds())
                                       / statistics.median(untraced.round_seconds())),
              "trace.unaccounted_share": 1.0 - (sum(tracer.top_level_ns.values()) / 1e9
                                                / sum(traced.op_seconds))}
    for d in (4, 5, 6):
        durations = [s.end_ns - s.start_ns for s in amplitude_spans if s.tag == f"d{d}"]
        values[f"scissors.conditional_amplitudes.d{d}.mean_ms"] = (
            sum(durations) / len(durations) / 1e6 if durations else 0.0)
    values.update(tracer.terms)
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            function, key = name.rsplit(".", 1)
            values[name] = stats.get(function, {}).get(key, 0)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def set_up(name: str, seed: int, work_dir: Path, tiny: bool = False):
    """Import qscissors, generate round 0 and warm up; returns (qs, workload, ops, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qscissors
    import qscissors.cli  # noqa: F401  (the package root does not import it)
    import workloads

    workload = workloads.WORKLOADS[name](qscissors, seed, work_dir, tiny)
    first_ops = workload.round(0)
    for op in workload.warm_up():
        op.run()
    return qscissors, workload, first_ops, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process running the same workload."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record."""
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        speed = HostSpeed()
        speed.check(force=True)
        qs, workload, first_ops, setup_s = set_up(name, seed, work_dir, tiny)
        # Set-up (interpreter start, imports, file reads) does not slow in
        # step with the reference loop: scaled, its spread doubled. Its
        # wall time is reported unscaled.
        setups = [setup_s]
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "provenance": provenance(seed)}
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(qs)
            try:
                traced = run_phase(workload, speed, 0, first_ops, rounds=workload.trace_rounds,
                                   tracer=tracer)
            finally:
                tracer.uninstall()
            untraced = run_phase(workload, speed, workload.trace_rounds, seconds=seconds)
            metrics = per_layer(tracer, traced, untraced)
            spans_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans_file)
            record["trace_detail"] = {
                "rounds": workload.trace_rounds, "spans": len(tracer.spans),
                "spans_file": str(spans_file.relative_to(ROOT)),
                "top_level_ms": {k: v / 1e6 for k, v in sorted(tracer.top_level_ns.items())},
                "traced_op_ms": sum(traced.op_seconds) * 1e3}
            phases = [traced, untraced]
        else:
            # Fresh-process set-ups before, halfway through and after the
            # measured phase land in different spells of host speed.
            def probe():
                if not tiny:
                    speed.check(force=True)   # the probe process inherits this affinity
                    setups.append(setup_probe(name, seed))

            probe()
            measured = run_phase(workload, speed, 0, first_ops, seconds=seconds, halfway=probe)
            probe()
            metrics = end_to_end(measured, statistics.median(setups))
            record["setup_samples_s"] = setups
            record["slot_ms"] = {
                "scaled": [t * 1e3 for t in slot_seconds(measured)],
                "wall": [t * 1e3 for t in slot_seconds(measured, measured.op_seconds)]}
            record["reference_loop_ms"] = [
                q * 1e3 for q in statistics.quantiles(
                    [loops[cpu] for cpu, loops in speed.checks], n=4)]
            phases = [measured]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    last = phases[-1]
    kinds = {}
    for kind, secs in zip(last.kinds, last.op_seconds):
        kinds.setdefault(kind, []).append(secs)
    record["ops"] = {
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "failures": [f for p in phases for f in p.failures][:10],
        "rounds": len(last.rounds), "solutions": last.solutions,
        "by_kind": {k: {"count": len(v), "mean_ms": statistics.fmean(v) * 1e3}
                    for k, v in sorted(kinds.items())}}
    record["summary"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": metrics}
    return record


# --- compare ----------------------------------------------------------------

def load_records(path) -> dict:
    """workload -> list of records, in file order."""
    grouped: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("{"):
                record = json.loads(line)
                grouped.setdefault(record["workload"], []).append(record)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent, change, better: str, bound):
    """Verdict for one metric from paired runs (choosing-metrics sections 5 and 8)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if won >= 0.9 and abs(cm - pm) > p3 - p1:
        verdict = "better"
    elif bound is None:
        verdict = "-"
    elif pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        verdict = "unresolved"
    elif sign * (cm - pm) < -bound * abs(pm):
        verdict = "worse"
    else:
        verdict = "within bound"
    return won, verdict


def _fmt_quartiles(values) -> str:
    return "/".join(f"{q:.4g}" for q in quartiles(values))


def compare(parent_path, change_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_records(parent_path), load_records(change_path)
    header = (f"{'workload':<11} {'metric':<46} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for trace in (0, 1):
            p_runs = [r for r in parent[workload] if r.get("trace", 0) == trace]
            c_runs = [r for r in change[workload] if r.get("trace", 0) == trace]
            if not p_runs or not c_runs:
                continue
            names = p_runs[0]["summary"]["metrics"]
            for name in names:
                p_vals = [r["summary"]["metrics"][name]["value"] for r in p_runs]
                c_vals = [r["summary"]["metrics"][name]["value"] for r in c_runs]
                direction, bound = better.get(name, ("lower", None))
                won, verdict = compare_metric(p_vals, c_vals, direction, bound)
                print(f"{workload:<11} {name:<46} {_fmt_quartiles(p_vals):>32} "
                      f"{_fmt_quartiles(c_vals):>32} {won:>5.0%}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSONL result sets")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "qscissors").is_dir():
        print(f"error: qscissors sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        OUT_DIR.mkdir(exist_ok=True)
        work_dir = OUT_DIR / f"work-{os.getpid()}"
        work_dir.mkdir()
        try:
            print(set_up(args.workload, args.seed, work_dir)[3])
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
