"""End-to-end benchmark of the SELF compiler pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 20 --trace 0

Workloads: ``cold-suite``, ``steady-suite`` and ``serve-mix`` (see
``workloads.py``).  With ``--trace 0`` the last line of standard output
is a JSON object holding every end-to-end metric; with ``--trace 1``
the layer entry points are wrapped and it holds the per-layer metrics
instead, and the spans are written to ``perfbench/out/``.  Any wrong
answer or non-ok response makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

from layers import LayerTracer
from workloads import WORKLOADS, geomean

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    package really comes from there."""
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SOURCE}")


def end_to_end(result) -> dict:
    """Every end-to-end metric, as ``name -> (value, unit)``."""
    answers = result.answers
    reads = [answer for answer in answers if answer.cycles is not None]
    by_program: dict = {}
    for answer in reads:
        by_program.setdefault(answer.program, []).append(answer)
    all_ms = [answer.ms for answer in answers]
    return {
        "setup_s": (result.setup_s, "s"),
        "cold_s": (sum(
            statistics.median(seconds) for seconds in result.first.values()
        ), "s"),
        "steady_ms": (geomean(
            statistics.median(a.ms for a in program)
            for program in by_program.values()
        ), "ms"),
        "req_p50_ms": (statistics.median(all_ms), "ms"),
        "req_p99_ms": (
            statistics.quantiles(all_ms, n=100, method="inclusive")[98], "ms"
        ),
        "req_per_s": (len(answers) / result.measured_s, "1/s"),
        "modeled_mcycles": (sum(
            statistics.median(a.cycles for a in program)
            for program in by_program.values()
        ) / 1e6, "Mcycles"),
        "code_kb": (result.code_bytes / 1024, "KiB"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    tracer = LayerTracer() if args.trace else None
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    metrics = result.layers if tracer is not None else end_to_end(result)
    if tracer is not None:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(
            out, f"spans-{args.workload}-{args.seed}.jsonl"
        ))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
