"""Alternating parent/change benchmark pairs, collated into BENCH_<topic>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_x.json
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_x.json --collate-only

PARENT and CHANGE are two checkouts of the repository (git clones, so that
run.py records their commits). For every seed and workload the script runs
`python3 perfbench/run.py --workload W --seed N --trace 0` once in each
checkout, the parent first on odd seeds and the change first on even ones,
then one traced run per checkout and workload at the first seed. Every run
takes run.py's own run length, so both sides are timed alike. Each run
leaves its result file in that checkout's perfbench/out/, which is what
--collate-only reads back.

The output holds, per workload: the median [q1, q3] of each end-to-end
metric on both sides, the pairs the change won, whether the change's median
is within the metric's declared bound of the parent's (within_bound),
whether it clears the bar for claiming a gain (claim_met: at least 9 of 10
pairs won and the medians further apart than the parent's q3 - q1), whether
the runs can tell the two apart at that bound at all (resolved: the
parent's q3 - q1 is at most the bound times its median, or every change
run beats every parent run; an unresolved metric is not shown unchanged),
the fail fractions, the traced per-layer metrics of both sides, and run.py's
environment block.

A pair-win count on a workload whose medians drift over minutes says little
alone. An A/A control is this script run on two clones of the parent
(PARENT and CHANGE both at the parent's commit): the pairs one side wins and
the gap of its medians there are what chance gives on that machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

# the workloads and end-to-end metrics are the ones the benchmark declares
_DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = {m["name"]: m for m in _DECLARED["end_to_end"]}
SEEDS = tuple(range(101, 111))


def result_path(root: Path, workload: str, seed: int, trace: int) -> Path:
    return root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"


def run(root: Path, workload: str, seed: int, trace: int) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    print(f"{root.name}: {' '.join(cmd[1:])}", flush=True)
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)


def run_pairs(parent: Path, change: Path) -> None:
    for seed in SEEDS:
        order = (parent, change) if seed % 2 else (change, parent)
        for workload in WORKLOADS:
            for root in order:
                run(root, workload, seed, 0)
    for workload in WORKLOADS:
        for root in (parent, change):
            run(root, workload, SEEDS[0], 1)


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def collate(parent: Path, change: Path) -> dict:
    seeds = list(SEEDS)
    out = {"seeds": seeds, "pairs": len(seeds),
           "protocol": "untraced runs alternate per seed (parent first on odd "
                       "seeds); per-layer metrics from one traced run per side "
                       "at the first seed; every metric is lower-is-better "
                       "except ssm.scan_fwd_gelem_per_s",
           "workloads": {}}
    for workload in WORKLOADS:
        runs = {side: [json.loads(result_path(root, workload, s, 0).read_text())
                       for s in seeds]
                for side, root in (("parent", parent), ("change", change))}
        traced = {side: json.loads(result_path(root, workload, seeds[0], 1)
                                   .read_text())
                  for side, root in (("parent", parent), ("change", change))}
        metrics = {}
        for name, declared in END_TO_END.items():
            vals = {side: [r["metrics"][name]["value"] for r in rs]
                    for side, rs in runs.items()}
            par, chg = summary(vals["parent"]), summary(vals["change"])
            won = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "parent": par,
                "change": chg,
                "change_over_parent": chg["median"] / par["median"],
                "pairs_won": won,
                # no worse than the parent by more than the declared bound
                "within_bound": (chg["median"]
                                 <= par["median"] * (1.0 + declared["bound"])),
                # a gain may be claimed: 9 of 10 pairs won, and the medians
                # further apart than the parent's quartiles
                "claim_met": (won >= 0.9 * len(seeds) and par["median"]
                              - chg["median"] > par["q3"] - par["q1"]),
                # the parent's runs spread no wider than the bound, or the
                # change's runs all beat the parent's
                "resolved": (par["q3"] - par["q1"]
                             <= declared["bound"] * par["median"]
                             or max(vals["change"]) < min(vals["parent"])),
            }
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "fail_frac": {side: [r["fail_frac"] for r in rs]
                          for side, rs in runs.items()},
            "per_layer": {side: {k: v["value"] for k, v in t["metrics"].items()}
                          for side, t in traced.items()},
            "environment": {side: rs[0]["environment"]
                            for side, rs in runs.items()},
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--collate-only", action="store_true")
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if not args.collate_only:
        run_pairs(parent, change)
    args.out.write_text(json.dumps(collate(parent, change),
                                   indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
