"""REFILL benchmark: batch analyze, push backfill, warm queries, live mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that times each layer and
reconciles the layers against an untraced wall time.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("analyze", "backfill", "query", "live")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no REFILL sources at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    try:
        if args.trace:
            import traced

            result = traced.run(args.workload, args.seed, args.seconds)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    finally:
        harness.cleanup_scratch()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced(workload: str, seed: int, seconds: float) -> dict:
    import harness
    import workloads

    corpus = harness.corpus(workload, seed)
    if workload == "analyze":
        outcome = workloads.run_analyze(corpus, seconds)
    elif workload == "backfill":
        outcome = workloads.run_backfill(corpus, seconds)
    elif workload == "query":
        outcome = workloads.run_query(corpus, seconds, seed)
    else:
        outcome = workloads.run_live(corpus, seconds, seed)
    harness.log(
        f"{workload} seed={seed} nodes={corpus.nodes} days={corpus.days} "
        f"lines={corpus.lines} packets={corpus.packets} "
        + " ".join(f"{k}={v:.6g}" for k, v in sorted(outcome.named.items()))
    )
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics().items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
