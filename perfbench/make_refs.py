"""Regenerate the reference outputs in perfbench/refs/ from the current program.

    python3 perfbench/make_refs.py

Run it only when the program's outputs are meant to change; every benchmark
run checks its outputs against these files. It takes a few minutes and
writes scratch files under perfbench/out/refs-work/.
"""

from __future__ import annotations

import json
import os

# the BLAS threading the benchmark runs with (see run.py)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402


def main() -> None:
    work = W.HERE / "out" / "refs-work"
    W.REFS.mkdir(exist_ok=True)

    xs = W.SeparateXs(work, seed=0)
    xs.prepare()
    xs.load()
    stems = [[e.data for e in xs.model.separate(mix)] for mix in xs.mixes]
    np.savez_compressed(W.REFS / f"{xs.name}.npz",
                        stems=np.asarray(stems, dtype=np.float32))
    print(f"{xs.name}: {len(stems)} cases", flush=True)

    cli = W.SeparateCli(work, seed=0)
    cli.prepare()
    out = work / "cli_out"
    stems = []
    for pair in range(0, W.CLI_CASES, 2):
        cases = [pair, pair + 1]
        if cli.invoke(cases, out) != 0:
            raise SystemExit(f"{cli.name}: the CLI failed on cases {cases}")
        stems += [[W.read_pcm16(out / f"case{c:02d}_s{k}.wav") for k in (1, 2)]
                  for c in cases]
    np.savez_compressed(W.REFS / f"{cli.name}.npz",
                        stems=np.asarray(stems, dtype="<i2"))
    print(f"{cli.name}: {len(stems)} cases", flush=True)

    losses = []
    for case in range(W.TRAIN_CASES):
        train = W.TrainToy(work, seed=case)
        train.load()
        losses.append(train.losses(None, W.TRAIN_STEPS, lambda: None))
        print(f"{train.name}: case {case} done", flush=True)
    (W.REFS / f"{train.name}.json").write_text(
        json.dumps({"steps": W.TRAIN_STEPS, "losses": losses}) + "\n")


if __name__ == "__main__":
    main()
