"""One benchmark worker process: warm up, then run timed (or traced) passes.

Started by run.py as ``python3 bench/worker.py --workload W --seed N
--seconds S --trace 0|1``.  Prints one JSON object on stdout.

Load model: closed loop, one caller.  Each op starts only after the previous
one returned; a pass runs every op of the workload once.  An untimed
warm-up pass comes first; timed passes then repeat until ``--seconds`` have
gone by, finishing the pass in progress, and until the workload's tail
percentile has MIN_BEYOND samples beyond it.  Every op runs under a fixed
deadline and is checked against the stored reference between ops, outside
its timing.  ``peak_rss_mb`` is read when everything, the frontier probes
included, has run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

from tracing import Tracer

DEADLINE_S = 3.0
MIN_BEYOND = 10
# Latencies kept per run; past this many ops a uniform sample is kept.
RESERVOIR = 1 << 19
TIMEOUT = object()


class Deadline(BaseException):
    """Raised by the deadline timer inside an op.

    A BaseException, so the CLI's per-file ``except Exception`` does not
    turn the abort into an ordinary failed input.
    """


def _on_alarm(signum, frame):
    raise Deadline


def timed_call(call, index):
    """(result or TIMEOUT, seconds) of one op, aborted after DEADLINE_S.

    The timer is armed before the clock starts and disarmed after it stops,
    so the two system calls are not part of the op's time.
    """
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        start = time.perf_counter()
        try:
            result = call(index)
        except Deadline:
            result = TIMEOUT
        seconds = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, seconds


def nearest_rank(n: int, pct) -> int:
    """1-based rank of the pct-th percentile of n sorted samples."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def ops_for_tail(pct: float) -> int:
    """Fewest samples that leave MIN_BEYOND samples above the pct-th percentile."""
    return math.ceil(MIN_BEYOND * 100 / (100 - Fraction(str(pct))))


def percentile(ordered, pct: float) -> tuple[float, int]:
    """(nearest-rank value, samples beyond it) of the pct-th percentile."""
    rank = nearest_rank(len(ordered), pct)
    return ordered[rank - 1], len(ordered) - rank


def smoothed_percentile(ordered, pct: float) -> float:
    """The pct-th percentile of sorted samples as the mean of the samples
    ranked within (100 - pct) / 2 percentage points of it (p85 to p95
    for p90).

    Where one slow input sets the tail, its nearest-rank value is one of
    that input's fastest repeats, and so follows the host's fastest
    seconds in the run; the band takes in repeats from the whole run.
    """
    half = (100 - Fraction(str(pct))) / 2
    low, high = nearest_rank(len(ordered), pct - half), nearest_rank(len(ordered), pct + half)
    return statistics.fmean(ordered[low - 1 : high])


class Pass:
    """Outcome of one pass over a list of ops."""

    def __init__(self):
        self.ops = 0
        self.seconds = 0.0
        self.failures: list[str] = []
        self.timeouts = 0
        self.keys: list = []
        self.outputs: dict[int, bytes] = {}


def run_pass(workload, ops, record: bool = False, tracer=None, on_op=None) -> Pass:
    """Run `ops` once.

    With `record`, repeat keys and outputs are kept; with a `tracer`, each
    op's spans carry the op's own id; `on_op(seconds)` runs after each op,
    outside its timing.
    """
    done = Pass()
    for index in ops:
        if tracer is not None:
            tracer.op_id += 1
        result, seconds = timed_call(workload.call, index)
        done.ops += 1
        done.seconds += seconds
        if on_op is not None:
            on_op(seconds)
        if result is TIMEOUT:
            done.timeouts += 1
            continue
        problem = workload.check(index, result)
        if problem:
            done.failures.append(problem)
        if record:
            done.keys.append(workload.repeat_key(index, result))
            done.outputs[index] = workload.output_bytes(index, result)
    return done


def repeat_share(keys: list) -> float:
    """Share of ops whose adjusted variety already occurred earlier in the pass."""
    seen, repeats = set(), 0
    for key in keys:
        if key is None:
            continue
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def output_digest(outputs: dict[int, bytes]) -> str:
    digest = hashlib.sha256()
    for index in sorted(outputs):
        digest.update(outputs[index])
    return digest.hexdigest()


def probe_frontier(workload) -> list[dict]:
    """Each frontier point once, smallest first; after a timeout the rest of
    that ladder is skipped, since its points are larger."""
    probes = []
    for ladder in workload.frontier:
        blocked = False
        for index in ladder:
            label = workload.items[index]["id"]
            if blocked:
                probes.append({"point": label, "status": "skipped"})
                continue
            result, seconds = timed_call(workload.call, index)
            if result is TIMEOUT:
                blocked = True
                probes.append({"point": label, "status": "timeout", "ms": seconds * 1e3})
                continue
            problem = workload.check(index, result)
            probes.append(
                {"point": label, "status": "wrong" if problem else "ok", "ms": seconds * 1e3}
            )
    return probes


class Reservoir:
    """A uniform sample of at most `capacity` op latencies (Algorithm R).

    The buffer is allocated in full up front, so the worker's memory does
    not grow with the number of ops a run manages to do.
    """

    def __init__(self, capacity: int, rng: random.Random):
        self.values = array("d", [0.0]) * capacity
        self.seen = 0
        self.rng = rng

    def add(self, value: float) -> None:
        capacity = len(self.values)
        if self.seen < capacity:
            self.values[self.seen] = value
        else:
            slot = self.rng.randrange(self.seen + 1)
            if slot < capacity:
                self.values[slot] = value
        self.seen += 1

    def sample(self) -> array:
        return self.values[: min(self.seen, len(self.values))]


def measure(
    workload, seconds: float, min_ops: int, rng: random.Random, latencies: Reservoir
) -> list[Pass]:
    """Timed passes over the workload's ops until `seconds` have gone by
    and at least `min_ops` ops ran.

    Each pass after the first runs the ops in a fresh order drawn from
    `rng`, so that no op always follows the same neighbour.  Every op's
    latency goes to `latencies`.
    """
    passes: list[Pass] = []
    order = list(workload.ops)
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, order, on_op=latencies.add))
        order = rng.sample(order, len(order))
        if time.perf_counter() - start >= seconds and latencies.seen >= min_ops:
            break
    return passes


def latency_metrics(passes: list[Pass], latencies: Reservoir, pct: float) -> dict:
    """Throughput is ops per second of time spent inside ops; the median
    and the tail (the smoothed pct-th percentile) come from the raw
    latencies of the run."""
    ops = sum(p.ops for p in passes)
    sample = sorted(latencies.sample())
    nearest, beyond = percentile(sample, pct)
    return {
        "passes": passes,
        "metrics": {
            "throughput_ops_s": ops / sum(p.seconds for p in passes),
            "latency_p50_ms": statistics.median(sample) * 1e3,
            "latency_tail_ms": smoothed_percentile(sample, pct) * 1e3,
        },
        "details": {
            "ops": ops,
            "passes": len(passes),
            "latency_samples": len(sample),
            "latency_tail_percentile": pct,
            "latency_tail_samples_beyond": beyond,
            "latency_tail_nearest_rank_ms": nearest * 1e3,
        },
    }


def trace(workload, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced passes over the trace ops, alternating, until
    `seconds` have gone by.

    Each traced pass is summarised when it ends; the spans of the first one
    are kept and written to `spans_path`.
    """
    passes = []
    summaries = []
    first = None
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        plain = run_pass(workload, workload.trace_ops)
        tracer = Tracer()
        with tracer:
            traced = run_pass(workload, workload.trace_ops, tracer=tracer)
        summaries.append((tracer.summary(), tracer.smith))
        first = first or tracer
        untraced_s += plain.seconds
        traced_s += traced.seconds
        passes += [plain, traced]
        if time.perf_counter() - start >= seconds:
            break
    first.write(spans_path)
    return {
        "passes": passes,
        "metrics": layer_metrics(summaries, len(workload.trace_ops)),
        "overhead": traced_s / untraced_s - 1,
        "details": {"trace_inputs": len(workload.trace_ops), "traced_passes": len(summaries)},
    }


LAYERS = ("cli", "variety", "coxring", "classgroup", "exactlinalg", "type1")
CALLS = (
    "exactlinalg.smith_invariants", "exactlinalg.canonical_group",
    "variety.validate", "variety.adjust", "variety.is_adjusted", "variety.rationality_class",
    "variety.component_counts", "coxring.total_coordinate_space", "coxring.is_hyperplatonic",
    "classgroup.class_group_formula", "classgroup.grading_matrix", "cli.main",
)
SELF_MS = (
    "exactlinalg.smith_invariants", "exactlinalg.hermite_basis",
    "exactlinalg.is_saturated_sublattice",
    "variety.validate", "variety.adjust", "variety.is_adjusted", "variety.rationality_class",
    "coxring.total_coordinate_space", "coxring.iterate_cox_rings", "coxring.duval_diagram",
    "classgroup.class_group_formula", "classgroup.grading_matrix", "classgroup.compulsory_torsion",
    "classgroup.predicates", "classgroup.class_group_report", "cli.main", "cli.parse_spec",
    "type1.adjust_type1", "type1.class_group_type1", "type1.lift_to_type2",
)
PER_INPUT = ("variety.validate", "coxring.total_coordinate_space")


def layer_metrics(summaries: list[tuple[dict, dict]], inputs: int) -> dict:
    """Per-layer figures of one traced pass, averaged over the traced passes."""
    passes = len(summaries)

    def mean(name, field):
        return sum(summary.get(name, {}).get(field, 0) for summary, _ in summaries) / passes

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = mean(name, "calls")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = mean(name, "self_s") * 1e3
    for name in PER_INPUT:
        metrics[f"{name}.calls_per_input"] = mean(name, "calls") / inputs
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(
            entry["self_s"]
            for summary, _ in summaries
            for name, entry in summary.items()
            if name.split(".")[0] == layer
        ) * 1e3 / passes
    smith = [stats for _, stats in summaries]
    metrics["exactlinalg.smith_invariants.cells"] = sum(s["cells"] for s in smith) / passes
    for field in ("max_cells", "max_entry_bits_in", "max_factor_bits_out"):
        metrics[f"exactlinalg.smith_invariants.{field}"] = max(s[field] for s in smith)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tricl
    import workloads

    source = Path(__file__).resolve().parents[1] / "src" / "tricl"
    if Path(tricl.__file__).resolve().parent != source:
        raise SystemExit(f"tricl imported from {tricl.__file__}, not from {source}")

    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = Path(__file__).resolve().parent / "out"
    workdir = out_dir / f"w{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        latencies = None if args.trace else Reservoir(RESERVOIR, random.Random(args.seed))
        workload = workloads.build(args.workload, args.seed, workdir)
        tail_pct = workloads.TAIL_PERCENTILE[args.workload]
        # The warm-up pass is untimed; it also gives repeat_share and the digest.
        warmup = run_pass(workload, workload.ops, record=True)
        if args.trace:
            measured = trace(workload, args.seconds, out_dir / f"spans-{args.workload}.csv")
        else:
            timed = measure(
                workload, args.seconds, ops_for_tail(tail_pct),
                random.Random(f"order:{args.seed}"), latencies,
            )
        probes = probe_frontier(workload)
        if not args.trace:
            # Read before the statistics below sort copies of the latencies.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            measured = latency_metrics(timed, latencies, tail_pct)
            measured["metrics"]["peak_rss_mb"] = peak_rss_mb
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)

    passes = [warmup] + measured["passes"]
    failures = [f for p in passes for f in p.failures]
    failures += [f"{p['point']}: wrong result" for p in probes if p["status"] == "wrong"]
    timeouts = sum(p.timeouts for p in passes)
    attempted = sum(p.ops for p in passes)
    failed = len(failures) + timeouts
    metrics, details = measured["metrics"], measured["details"]
    if args.trace:
        metrics.update(
            {
                "trace_overhead_share": measured["overhead"],
                "repeat_share": repeat_share(warmup.keys),
                "ops_failed_share": failed / attempted,
                "ladder.frontier_points": sum(p["status"] != "ok" for p in probes),
            }
        )
    details.update(
        {
            "repeat_share": repeat_share(warmup.keys),
            "repeat_share_base": len(warmup.keys),
            "output_digest": output_digest(warmup.outputs),
            "frontier": probes,
            "failures": failures[:20],
            "timeouts": timeouts,
        }
    )
    json.dump(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "details": details,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
