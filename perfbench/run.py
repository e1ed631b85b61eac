#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload frame --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``frame``, ``tiles-zoom``, ``tiles-append``.
With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics. Lines before it print every number by name, with its
unit and sample count, plus the environment and the exact work
counters. The command exits non-zero when any operation or correctness
check failed, or when the checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("frame", "tiles-zoom", "tiles-append"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()

    import spans
    import workloads

    env = common.environment(args.seed)
    outcome = workloads.RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    outcome.ledger.op(common.check_counters(args.workload, args.seed, outcome.counters))
    outcome.finish()
    correct = outcome.ledger.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    host = outcome.host
    print(f"host speed: kernel median {1e3 * statistics.median(host.samples):.3f} ms "
          f"n={len(host.samples)}, reference {1e3 * common.REFERENCE_SAMPLE_S:g} ms; "
          f"gated latencies are scaled op by op, setup_s and throughput by "
          f"{host.factor:.4f}")
    for name, value, unit, count, slot in outcome.named:
        label = f"  [{slot} {outcome.e2e[slot][0]:.6g}]" if slot else ""
        print(f"  {name:<22} {value:14.6g} {unit:<6} n={count}{label}")
    print("work counters (exact; must repeat for the same seed):")
    for key in sorted(outcome.counters):
        print(f"  {key:<40} {outcome.counters[key]}")
    if outcome.breakdown:
        total = outcome.breakdown["total"]
        print(f"traced tile miss, mean of stages ({total:.3f} ms = 100%):")
        for stage, ms in outcome.breakdown.items():
            if stage != "total":
                print(f"  {stage:<36} {ms:10.3f} ms {100.0 * ms / total:6.1f}%")
    if outcome.layers is not None:
        print("per-layer metrics (traced part of the run):")
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<40} {outcome.layers[name]:14.6g} {unit}")
    for message in outcome.ledger.messages[:20]:
        print(f"FAILED: {message}")

    if args.trace:
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit in spans.PER_LAYER
        } if outcome.layers is not None else {}
    else:
        metrics = {
            name: {"value": outcome.e2e[name][0], "unit": unit}
            for name, unit in workloads.E2E
        }
    result = {
        "correct": correct,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": metrics,
    }
    common.save_json("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "environment": env,
        "result": result,
        "named": [
            {"name": name, "value": value, "unit": unit, "samples": count, "slot": slot}
            for name, value, unit, count, slot in outcome.named
        ],
        "counters": outcome.counters,
        "host_speed": {"samples_s": host.samples, "factor": host.factor,
                       "reference_s": common.REFERENCE_SAMPLE_S},
        "miss_breakdown_ms": outcome.breakdown,
        "failures": outcome.ledger.messages,
    })
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
