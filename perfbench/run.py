"""Benchmark of the bubblebands band sweeps and the Minnaert estimate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bands-dilute --seed 1 --seconds 5 --trace 0

One process, the program's default single thread, closed loop: each
operation starts when the previous one ends.  A run sets up, then repeats
whole rounds of the workload's operations until ``--seconds`` have passed
(at least one round), checks every output, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
set-ups, each in a fresh interpreter: import ``bubblebands`` and build the
inputs), ``run_s`` (median wall time of a round), ``solved_per_s`` (operations
solved per second of ``run_s``) and ``peak_rss_mb`` (peak resident memory of
this process before the checks run).

``--trace 1`` runs one round under the span tracer and reports the
per-layer metrics of that round.  ``trace.overhead_s`` is the traced round's
time minus the median ``run_s`` of the untraced runs of the same source in
this checkout (``perfbench/out/run_s-<workload>.txt``); when there are none,
the untraced rounds follow the traced one in the same run.  Spans are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3

# Child process timing one set-up: import the program, build the inputs.
_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), workloads.Path(sys.argv[5]))
print(repr(time.perf_counter() - start))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bands-dilute", "bands-nondilute", "minnaert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the program's source files, to tell code versions apart."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bubblebands").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH),
             workload, str(seed), str(OUT)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def untraced_history(path: Path, source: str) -> list[float]:
    """``run_s`` of earlier untraced runs of the same source in this checkout."""
    if not path.is_file():
        return []
    return [float(value) for digest, value in
            (line.split() for line in path.read_text().splitlines())
            if digest == source]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bubblebands" / "__init__.py").is_file():
        print(f"error: no bubblebands sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    source = source_digest()
    history = OUT / f"run_s-{args.workload}.txt"
    rounds: list = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            rounds.append(workload.run_round())
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        earlier = untraced_history(history, source)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        earlier = []
    times = []
    if not earlier:
        began = time.perf_counter()
        while not times or time.perf_counter() - began < args.seconds:
            start = time.perf_counter()
            rounds.append(workload.run_round())
            times.append(time.perf_counter() - start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, error = workloads.guarded(workload.check, rounds, source)
    if error is not None:
        problems = [f"check raised {error!r}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    counted = rounds[len(rounds) - len(times):] if times else rounds
    solved = statistics.median(r.attempted - r.failed for r in counted)
    run_s = statistics.median(times or earlier)
    if not args.trace:
        with history.open("a", encoding="utf-8") as out:
            out.write(f"{source} {run_s!r}\n")

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.run_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - run_s, "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
        if tracer.missing:
            print(f"absent entry points: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "solved_per_s": {"value": solved / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in counted),
        "failed": sum(r.failed for r in counted),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
