"""tools/bench_pairs.collate on fabricated result files, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# per seed: the parent reads 10 + i; the change wins 5 pairs, ties 2, loses 3
PARENT = [10.0 + i for i in range(10)]
CHANGE = [p - 1.0 for p in PARENT[:5]] + PARENT[5:7] + [p + 1.0 for p in PARENT[7:]]
SCALE = {name: 10.0 ** k for k, name in enumerate(bench_pairs.END_TO_END)}
FAIL_FRAC = {"parent": 0.0, "change": 0.1}


def _write(root: Path, workload: str, seed: int, trace: int, values, side: str):
    """One run.py result file, in the fields collate reads."""
    path = bench_pairs.result_path(root, workload, seed, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    path.write_text(json.dumps({"metrics": metrics, "fail_frac": FAIL_FRAC[side],
                                "environment": {"side": side}}))


def _collate(tmp_path, change, parent=PARENT):
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for workload in bench_pairs.WORKLOADS:
        for side, series in (("parent", parent), ("change", change)):
            for seed, v in zip(bench_pairs.SEEDS, series, strict=True):
                _write(roots[side], workload, seed, 0,
                       {n: v * k for n, k in SCALE.items()}, side)
            _write(roots[side], workload, bench_pairs.SEEDS[0], 1,
                   {"ssm.scan_elems": 7.0 if side == "parent" else 8.0}, side)
    return bench_pairs.collate(roots["parent"], roots["change"])


@pytest.fixture
def collated(tmp_path):
    return _collate(tmp_path, CHANGE)


def test_collate_summarizes_every_metric(collated):
    assert collated["pairs"] == 10 and collated["seeds"] == list(bench_pairs.SEEDS)
    assert set(collated["workloads"]) == set(bench_pairs.WORKLOADS)
    for entry in collated["workloads"].values():
        for name, k in SCALE.items():
            m = entry["end_to_end"][name]
            # numpy's linear percentiles of 10..19 and of the change series
            np.testing.assert_allclose(
                [m["parent"][q] for q in ("q1", "median", "q3")],
                [12.25 * k, 14.5 * k, 16.75 * k], rtol=1e-12)
            np.testing.assert_allclose(
                [m["change"][q] for q in ("q1", "median", "q3")],
                [11.25 * k, 14.0 * k, 17.5 * k], rtol=1e-12)
            assert m["pairs_won"] == 5           # the two ties count for neither
            assert m["change_over_parent"] == pytest.approx(14.0 / 14.5, rel=1e-12)
            assert m["unit"] == "s"
        assert entry["fail_frac"] == {side: [f] * 10 for side, f in FAIL_FRAC.items()}
        assert entry["per_layer"] == {"parent": {"ssm.scan_elems": 7.0},
                                      "change": {"ssm.scan_elems": 8.0}}
        assert entry["environment"] == {"parent": {"side": "parent"},
                                        "change": {"side": "change"}}


# the parent's quartiles are 12.25 and 16.75 (times the metric's scale), so
# a claim needs the change's median more than 4.5 below the parent's 14.5
VERDICTS = {
    # change series: (within_bound, claim_met) of every metric
    "mixed": (CHANGE, True, False),
    "wins_all_by_5": ([p - 5.0 for p in PARENT], True, True),
    "wins_all_by_4": ([p - 4.0 for p in PARENT], True, False),
    "wins_9_of_10": ([p - 5.0 for p in PARENT[:9]] + PARENT[9:], True, True),
    "wins_8_of_10": ([p - 5.0 for p in PARENT[:8]] + PARENT[8:], True, False),
}


@pytest.mark.parametrize("change,within,claim", VERDICTS.values(),
                         ids=VERDICTS.keys())
def test_collate_judges_bound_and_claim(tmp_path, change, within, claim):
    for entry in _collate(tmp_path, change)["workloads"].values():
        for name in SCALE:
            m = entry["end_to_end"][name]
            assert (m["within_bound"], m["claim_met"]) == (within, claim), name


def test_within_bound_reads_each_metric_bound(tmp_path):
    """20% slower is within a 0.25 bound and outside peak_mb's 0.15."""
    bounds = {n: m["bound"] for n, m in bench_pairs.END_TO_END.items()}
    assert bounds["rtf_p50"] == 0.25 and bounds["peak_mb"] == 0.15
    for entry in _collate(tmp_path, [p * 1.2 for p in PARENT])["workloads"].values():
        for name, bound in bounds.items():
            m = entry["end_to_end"][name]
            assert m["within_bound"] == (0.2 <= bound), name
            assert not m["claim_met"] and m["pairs_won"] == 0


# (parent series, change series, resolved under a 0.25 bound, under 0.15)
SPREADS = {
    # q3 - q1 = 4.5 against a median of 14.5: 0.31, wider than both bounds
    "wide": (PARENT, CHANGE, False, False),
    # every change run (at most 9) beats every parent run (at least 10)
    "wide_beaten_by_every_run": (PARENT, [p - 10.0 for p in PARENT], True, True),
    # one change run (10) ties the parent's best
    "wide_one_tie": (PARENT, [p - 9.0 for p in PARENT], False, False),
    # q3 - q1 = 2.25 against 12.25: 0.18, between the two bounds
    "between": ([10.0 + 0.5 * i for i in range(10)], CHANGE, True, False),
    # 4.5 against 104.5: 0.04, within both
    "tight": ([100.0 + i for i in range(10)], CHANGE, True, True),
}


@pytest.mark.parametrize("parent,change,at_25,at_15", SPREADS.values(),
                         ids=SPREADS.keys())
def test_resolved_compares_the_parent_spread_with_the_bound(
        tmp_path, parent, change, at_25, at_15):
    bounds = {n: m["bound"] for n, m in bench_pairs.END_TO_END.items()}
    assert set(bounds.values()) == {0.25, 0.15}
    for entry in _collate(tmp_path, change, parent)["workloads"].values():
        for name, bound in bounds.items():
            assert entry["end_to_end"][name]["resolved"] == (
                at_25 if bound == 0.25 else at_15), name
