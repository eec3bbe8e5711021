"""The sepscan benchmark: one command, end-to-end metrics, per-layer split.

    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --trace 1       # every workload, traced only
    python3 perfbench/run.py --workload separate_xs_1s --seed 3 --trace 0

An omitted --workload or --trace means every value; each (workload, trace)
pair then runs in a fresh process. --seconds, the length of each run's
timed session, defaults to BENCHMARK.json's run_seconds; set-up, the
warm-up and the memory passes come on top of it.

One caller runs a closed loop: the next operation starts when the last one
returns. Every operation's output is checked against perfbench/refs/; an
operation fails if it raises or fails its check. The untraced run reports
the end-to-end metrics (--trace 0); the traced run wraps every sepscan
module (tracer.py) and reports per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Each run also writes a result file with the
environment to perfbench/out/, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per calling thread, set before numpy loads: the CLI
# workload's two worker threads then use the two cores and no more. With
# OpenBLAS's default of one thread per core they would run four spinning
# threads on two cores, and the scheduler, not the program, would set the
# times. The subprocesses of run_all inherit these.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("separate_xs_1s", "separate_cli_2x0.5s", "train_toy_step")
SETUP_REPEATS = 3

# (name, unit) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s"),        # median model load/build, plus one warm-up operation
    ("rtf_p50", "s/s"),      # wall seconds per second of input audio, median op
    ("step_s_p50", "s"),     # wall seconds of one op: separate call, CLI run, train step
    ("step_s_p90", "s"),
    ("peak_mb", "MB"),       # tracemalloc peak of one op, in a pass of its own
]


def vmhwm_mb() -> float:
    """This process's peak resident set size."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import scipy
    try:
        quota = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        quota = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": quota,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


def _walls(records: list) -> list[float]:
    """Wall times of the timed ops; of every op if none was timed (all raised)."""
    return [w for _, w, _, timed in records if timed] or [w for _, w, _, _ in records]


def run_workload(wl, seconds: float, tracer=None) -> tuple[dict, list]:
    """Set up, run and check one workload; returns (metrics, op records)."""
    ids = itertools.count()

    def begin_op():
        op = next(ids)
        if tracer is not None:
            tracer.op = op
        return op

    wl.prepare()
    loads = []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.load()
            loads.append(time.perf_counter() - t0)

    if tracer is None:
        records = wl.session(seconds, begin_op)
        peak, peak_ok = wl.peak(begin_op)
        walls = _walls(records)
        metrics = {
            "setup_s": statistics.median(loads) + records[0][1],   # + warm-up op
            "rtf_p50": statistics.median(walls) / wl.audio_s,
            "step_s_p50": statistics.median(walls),
            "step_s_p90": float(np.percentile(walls, 90)),
            "peak_mb": peak / 1e6,
        }
        return metrics, records + [(None, None, peak_ok, False)]

    # traced run: half the time untraced, half traced, on the same process
    plain = wl.session(seconds / 2, begin_op)
    with tracer.installed():
        traced = wl.session(seconds / 2, begin_op, warm=False)
    metrics = tracer.layer_metrics([op for op, _, _, timed in traced if timed])
    metrics["trace.overhead_s"] = (statistics.median(_walls(traced))
                                   - statistics.median(_walls(plain)))
    metrics["model.peak_mb_ratio"] = (wl.peak_ratio()
                                      if hasattr(wl, "peak_ratio") else 0.0)
    metrics["process.vmhwm_mb"] = vmhwm_mb()
    return metrics, plain + traced


def run_one(args) -> int:
    import workloads as W
    import tracer as T

    wl = W.WORKLOADS[args.workload](OUT / "work" / args.workload, args.seed)
    tracer = T.Tracer() if args.trace else None
    metrics, records = run_workload(wl, args.seconds, tracer)
    attempted = len(records)
    failed = sum(1 for r in records if not r[2])
    units = dict(T.LAYER_METRICS if args.trace else END_TO_END)

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "vmhwm_mb": vmhwm_mb(),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "ops": [{"op": op, "wall_s": w, "ok": ok, "timed": timed}
                for op, w, ok, timed in records],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    for k, u in units.items():
        print(f"  {k:<30} {metrics[k]:>14.6g} {u}")
    print(f"  {'fail_frac':<30} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(f"  {'vmhwm_mb':<30} {result['vmhwm_mb']:>14.6g} MB")
    print("  env " + json.dumps(env))
    print(f"  result {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args, names, traces) -> int:
    """Each run in a fresh process, so no peak leaks into another's numbers."""
    rows, status = {}, 0
    for trace in traces:
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]), flush=True)
            rows[name, trace] = json.loads(lines[-1])
    summary = {
        "correct": status == 0 and all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}/{k}": v for (w, _), r in rows.items()
                    for k, v in r["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sepscan" / "__init__.py").is_file():
        print(f"error: no sepscan source under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    traces = [args.trace] if args.trace is not None else [0, 1]
    if len(names) == 1 and len(traces) == 1:
        args.workload, args.trace = names[0], traces[0]
        return run_one(args)
    return run_all(args, names, traces)


if __name__ == "__main__":
    sys.exit(main())
