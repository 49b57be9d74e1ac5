"""tricl benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload report_batch --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
checkout.  With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds details (tail percentile and its sample count,
frontier probes, output digest, repeat share).

``setup_s`` is the median, over several fresh interpreters, of the time from
launching the process until ``import tricl.cli`` returns.  The workload runs
in one more fresh worker process (see worker.py).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report_batch", "formula_scan", "snf_ladder")
SETUP_LAUNCHES = 9
# Whole-invocation limit: the worker is killed and the run fails after this.
RUN_LIMIT_S = 170.0
LAUNCH_LIMIT_S = 30.0

UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else source
    return env


def setup_seconds(env: dict, launches: int) -> float:
    """Median time from process launch until ``import tricl.cli`` returned."""
    code = "import tricl.cli, sys; sys.stdout.write('ready'); sys.stdout.flush()"
    times = []
    for _ in range(launches + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=ROOT, stdout=subprocess.PIPE
        ) as child:
            readable, _, _ = select.select([child.stdout], [], [], LAUNCH_LIMIT_S)
            ready = child.stdout.read(5) if readable else b""
            times.append(time.perf_counter() - start)
            if not ready:
                child.kill()
            child.wait(timeout=LAUNCH_LIMIT_S)
        if ready != b"ready" or child.returncode != 0:
            raise RuntimeError("import tricl.cli failed in a fresh interpreter")
    # The first launch may compile the sources to bytecode; it is not timed.
    return statistics.median(times[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tricl" / "__init__.py").is_file():
        sys.stderr.write(f"no tricl sources under {ROOT / 'src'}\n")
        return 2
    began = time.perf_counter()
    env = _env()
    try:
        setup = setup_seconds(env, 1 if args.trace else SETUP_LAUNCHES)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 2
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        worker = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=RUN_LIMIT_S - (time.perf_counter() - began),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker did not finish within {RUN_LIMIT_S:.0f} s\n")
        return 3
    if worker.returncode != 0:
        sys.stderr.write(f"worker exited with code {worker.returncode}\n")
        return 3
    result = json.loads(worker.stdout.decode().strip().splitlines()[-1])

    if args.trace:
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in result["metrics"].items()
        }
    else:
        values = dict(result["metrics"], setup_s=setup)
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    details = dict(result["details"], workload=args.workload, seed=args.seed)
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    if not result["correct"]:
        sys.stderr.write("wrong results:\n" + "\n".join(details["failures"]) + "\n")
        return 1
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("calls_per_input"):
        return "ratio"
    if "bits" in name:
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
