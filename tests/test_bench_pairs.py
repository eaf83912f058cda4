"""The verdict columns of ``scripts/bench_pairs.py``'s report, on synthetic
result objects."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "eval_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "epochs_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25}


def result(name, value):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"}}}


def verdicts(metric, base, change):
    """(claim, regressed) of the report's one metric row."""
    runs = [(result(metric["name"], b), result(metric["name"], c))
            for b, c in zip(base, change)]
    header, row = bench_pairs.report([metric], runs)
    assert header.split()[-2:] == ["claim", "regressed"]
    assert row.split()[0] == metric["name"]
    return tuple(row.split()[-2:])


def resolved(metric, base, change):
    """The report's ``resolved`` verdict for one metric row."""
    runs = [(result(metric["name"], b), result(metric["name"], c))
            for b, c in zip(base, change)]
    header, row = bench_pairs.report([metric], runs)
    assert header.split()[-3] == "resolved"
    return row.split()[-3]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
# interquartile range about 0.6 of the median, wider than every bound
WIDE = [1.0, 1.8, 0.6, 1.4, 0.7, 1.9, 0.8, 1.5, 0.5, 1.2]


def test_clear_gain_is_claimed():
    assert verdicts(LOWER, BASE, [b * 0.6 for b in BASE]) == ("yes", "no")
    assert verdicts(HIGHER, BASE, [b * 1.4 for b in BASE]) == ("yes", "no")


def test_claim_needs_nine_wins_in_ten():
    nine = [b * 0.6 for b in BASE[:9]] + [BASE[9] * 1.5]
    assert verdicts(LOWER, BASE, nine) == ("yes", "no")
    eight = [b * 0.6 for b in BASE[:8]] + [b * 1.5 for b in BASE[8:]]
    assert verdicts(LOWER, BASE, eight) == ("no", "no")


def test_claim_needs_ten_pairs():
    assert verdicts(LOWER, BASE[:4], [b * 0.6 for b in BASE[:4]]) == (
        "no", "no")


def test_claim_needs_medians_apart_by_more_than_base_iqr():
    # every pair won, by less than the base runs' spread
    assert verdicts(LOWER, BASE, [b - 0.001 for b in BASE]) == ("no", "no")


def test_a_loss_in_the_better_direction_is_not_claimed():
    assert verdicts(LOWER, BASE, [b * 1.1 for b in BASE]) == ("no", "no")
    assert verdicts(HIGHER, BASE, [b * 0.9 for b in BASE]) == ("no", "no")


@pytest.mark.parametrize("metric, factor, regressed", [
    (LOWER, 1.2, "no"), (LOWER, 1.3, "yes"),
    (HIGHER, 0.8, "no"), (HIGHER, 0.7, "yes")])
def test_regressed_when_worse_than_the_bound(metric, factor, regressed):
    assert verdicts(metric, BASE, [b * factor for b in BASE]) == (
        "no", regressed)


def test_narrow_spread_is_resolved():
    assert resolved(LOWER, BASE, [b * 1.1 for b in BASE]) == "yes"


def test_spread_wider_than_the_bound_is_unresolved():
    assert resolved(LOWER, WIDE, [w * 1.05 for w in WIDE]) == "no"
    assert resolved(HIGHER, BASE, WIDE) == "no"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    assert resolved(LOWER, WIDE, [w * 0.2 for w in WIDE]) == "yes"
    assert resolved(HIGHER, WIDE, [w + 2.0 for w in WIDE]) == "yes"
