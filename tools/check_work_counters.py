#!/usr/bin/env python
"""Gate a benchmark run on its deterministic work counters.

``perfbench/run.py`` writes the exact work counters of a run (refinement
iterations, node, leaf and point evaluations, queries) under
``counters`` in ``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
For a fixed seed they depend only on the code, never on the host, so a
regression gate can key on them where a wall-time gate on a shared
runner would be noise. This script compares one result with a
committed baseline of the same shape and exits 1 when

* any ``*iterations``, ``*node_evaluations``, ``*leaf_evaluations`` or
  ``*point_evaluations`` counter exceeds its baseline by more than
  ``--tolerance`` (relative), or is missing from the result;
* any ``*queries`` counter differs from its baseline at all (the run
  answered a different workload).

Other counters are ignored. Usage::

    python tools/check_work_counters.py \\
        .perfbench/results/frame-seed90210-trace0.json \\
        tools/baselines/frame-seed90210-counters.json --tolerance 0.02

Exit codes: 0 within the baseline, 1 regression, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["check", "main"]

#: Counter suffixes that may only fall (or rise within the tolerance).
WORK_SUFFIXES = ("iterations", "node_evaluations", "leaf_evaluations", "point_evaluations")
#: Counter suffix that must match exactly.
EXACT_SUFFIX = "queries"


def check(result: dict[str, int], baseline: dict[str, int], tolerance: float) -> list[str]:
    """Return one message per gated counter that regressed against ``baseline``."""
    problems = []
    for key in sorted(baseline):
        expected = baseline[key]
        got = result.get(key)
        if key.endswith(EXACT_SUFFIX):
            if got != expected:
                problems.append(f"{key}: {got} != baseline {expected}")
        elif key.endswith(WORK_SUFFIXES):
            if got is None:
                problems.append(f"{key}: missing (baseline {expected})")
            elif got > expected * (1.0 + tolerance):
                change = (got - expected) / expected if expected else float("inf")
                problems.append(
                    f"{key}: {got} > baseline {expected} (+{change:.1%}, "
                    f"tolerance {tolerance:.1%})"
                )
    return problems


def _counters(path: Path) -> dict[str, int]:
    with path.open() as handle:
        counters = json.load(handle)["counters"]
    if not isinstance(counters, dict):
        raise ValueError(f"{path}: 'counters' is not an object")
    return counters


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path, help="perfbench result JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.02,
        help="allowed relative rise of a work counter (default 0.02)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0.0:
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2
    try:
        result = _counters(args.result)
        baseline = _counters(args.baseline)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems = check(result, baseline, args.tolerance)
    for problem in problems:
        print(f"work regression: {problem}")
    if not problems:
        print(f"work counters within {args.tolerance:.1%} of {args.baseline}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
