"""The work-counter gate of ``tools/check_work_counters.py``."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "tools" / "baselines" / "frame-seed90210-counters.json"

sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    import check_work_counters
finally:
    sys.path.pop(0)


def baseline_counters():
    return json.loads(BASELINE.read_text())["counters"]


def run(tmp_path, counters):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"counters": counters}))
    return check_work_counters.main([str(result), str(BASELINE), "--tolerance", "0.02"])


def test_baseline_passes_against_itself(tmp_path):
    assert run(tmp_path, baseline_counters()) == 0


def test_work_within_tolerance_or_lower_passes(tmp_path):
    counters = baseline_counters()
    counters["eps_dist.node_evaluations"] = int(counters["eps_dist.node_evaluations"] * 1.01)
    counters["tau.point_evaluations"] //= 2
    assert run(tmp_path, counters) == 0


def test_twenty_percent_more_work_fails(tmp_path):
    for key in ("eps.iterations", "tau.leaf_evaluations", "eps_dist.point_evaluations"):
        counters = baseline_counters()
        counters[key] = int(counters[key] * 1.2)
        assert run(tmp_path, counters) == 1, key


def test_changed_or_missing_counters_fail(tmp_path):
    counters = baseline_counters()
    counters["eps.queries"] -= 1
    assert run(tmp_path, counters) == 1
    counters = baseline_counters()
    del counters["node_evaluations"]
    assert run(tmp_path, counters) == 1


def test_unreadable_result_is_a_usage_error(tmp_path):
    assert check_work_counters.main([str(tmp_path / "missing.json"), str(BASELINE)]) == 2
