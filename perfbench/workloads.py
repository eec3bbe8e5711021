"""Workloads of the sepscan benchmark: seeded inputs, operations, output checks.

Every input is synthesized here, from the benchmark's own generator, so the
program sees only arrays and WAV files. Each workload draws its inputs from
a fixed pool of cases; the run's ``--seed`` picks the order in which cases
are used (and, for training, which case). The committed references in
``refs/`` hold the program's output for every case, so each operation is
checked against them; ``make_refs.py`` regenerates them.

Why these workloads:

* ``separate_xs_1s``: ``SeparationModel.separate`` on 1 s of 8 kHz audio
  with the xs preset, the inference path. N=1000 frames, S=7 chunks: the
  inter-chunk scans are wide, and the gradient tape holds about 3 GB.
* ``separate_cli_2x0.5s``: ``sepscan.cli.main(["separate", ...])`` on two
  0.5 s WAVs, the entry point users run: a checkpoint load per invocation,
  PCM16 I/O and two worker threads sharing one model. At S=3 the
  intra-chunk scans are bound by per-step overhead rather than bandwidth.
* ``train_toy_step``: ``train_toy`` at the toy config of acceptance
  criterion 6 on two 0.2 s mixtures: the only backward pass, ``pit_loss``
  and Adam, on small arrays where per-op dispatch matters.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import shutil
import sys
import time
import tracemalloc
import wave
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from sepscan import cli, training  # noqa: E402
from sepscan.model import ModelConfig, SeparationModel, preset, save_model  # noqa: E402

SR = 8000
POOL_SEED = 2403_18257       # fixes the case pools the references cover
WEIGHT_SEED = 7              # fixes the xs checkpoint and the toy weights
XS_CASES = 10
CLI_CASES = 12
TRAIN_CASES = 6
TRAIN_STEPS = 120            # reference length, and the cap on steps per run
TRAIN_CFG = dict(d=32, r=2, h=8, chunk_len=32)   # acceptance criterion 6
TRAIN_SCHEDULE = training.TrainSchedule(peak_lr=1.5e-4, warmup_steps=150,
                                        total_steps=2000)

MIN_SI_SNR_DB = 60.0         # separate stems vs reference (admits float32)
MAX_LSB = 1                  # CLI stems vs reference, per PCM16 sample
MAX_LOSS_REL = 1e-6          # train losses vs reference, per step


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _voice(rng: np.random.Generator, n: int, f0: float) -> np.ndarray:
    """A harmonic stack with a slow envelope and a little noise, peak 0.5."""
    t = np.arange(n) / SR
    sig = np.zeros(n)
    for p in range(1, 6):
        sig += rng.uniform(0.5, 1.0) / p * np.sin(
            2 * math.pi * p * f0 * t + rng.uniform(0, 2 * math.pi))
    sig *= 0.6 + 0.4 * np.sin(2 * math.pi * rng.uniform(1.5, 4.0) * t
                              + rng.uniform(0, 2 * math.pi))
    sig += 0.05 * rng.standard_normal(n)
    return 0.5 * sig / np.max(np.abs(sig))


def mixture(pool: int, case: int, seconds: float):
    """Case `case` of pool `pool`: (mix, (s1, s2)), peak 0.9, mix == s1 + s2."""
    rng = np.random.default_rng([POOL_SEED, pool, case])
    n = int(round(seconds * SR))
    s1 = _voice(rng, n, rng.uniform(90.0, 140.0))
    s2 = _voice(rng, n, rng.uniform(180.0, 300.0))
    snr_db = rng.uniform(0.0, 5.0)
    s2 *= math.sqrt(np.mean(s1 ** 2) / np.mean(s2 ** 2)) * 10 ** (-snr_db / 20)
    gain = 0.9 / np.max(np.abs(s1 + s2))
    s1, s2 = gain * s1, gain * s2
    return s1 + s2, (s1, s2)


def write_xs_checkpoint(path: Path) -> None:
    save_model(path, SeparationModel(preset("xs"),
                                     rng=np.random.default_rng(WEIGHT_SEED)))


def write_pcm16(path: Path, x: np.ndarray) -> None:
    q = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SR)
        f.writeframes(q.tobytes())


def read_pcm16(path: Path) -> np.ndarray:
    with wave.open(str(path), "rb") as f:
        return np.frombuffer(f.readframes(f.getnframes()), dtype="<i2").copy()


def traced_peak(fn) -> tuple[int, object]:
    """(tracemalloc peak bytes, result) of one call of fn."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def si_snr_db(est: np.ndarray, ref: np.ndarray) -> float:
    e = est - est.mean()
    r = ref - ref.mean()
    target = (e @ r) / (r @ r) * r
    noise = e - target
    return 10.0 * math.log10(max(target @ target, 1e-300)
                             / max(noise @ noise, 1e-300))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class OpWorkload:
    """A closed loop of independent operations, one caller, checked one by one.

    Subclasses set `name`, `audio_s` (input seconds per operation) and
    implement prepare (untimed), load (the repeated part of set-up),
    inputs and op (returns whether the output matched the reference).
    """

    name: str
    audio_s: float

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.model = None

    @functools.cached_property
    def refs(self) -> np.ndarray:
        """Reference stems per case, [cases, 2, samples]."""
        return np.load(REFS / f"{self.name}.npz")["stems"]

    def run_op(self, i: int) -> bool:
        try:
            return bool(self.op(i))
        except Exception:
            return False

    def session(self, seconds: float, begin_op, warm: bool = True):
        """Ops for `seconds`, after one warm-up op when `warm`.

        Returns [(op id, wall seconds, ok, timed)]; the warm-up is untimed.
        """
        records = []
        t_end = None
        while t_end is None or time.perf_counter() < t_end:
            op_id = begin_op()
            t0 = time.perf_counter()
            ok = self.run_op(op_id)
            wall = time.perf_counter() - t0
            timed = not warm or bool(records)
            records.append((op_id, wall, ok, timed))
            if timed and t_end is None:
                t_end = t0 + seconds
        return records

    def peak(self, begin_op) -> tuple[int, bool]:
        """(tracemalloc peak bytes, ok) of one op."""
        op_id = begin_op()
        return traced_peak(lambda: self.run_op(op_id))


class SeparateXs(OpWorkload):
    name = "separate_xs_1s"
    audio_s = 1.0

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.ckpt = self.work / "xs.ckpt"
        self.order = np.random.default_rng(seed).permutation(XS_CASES)
        self.mixes = [mixture(0, c, self.audio_s)[0] for c in range(XS_CASES)]

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        write_xs_checkpoint(self.ckpt)

    def load(self) -> None:
        self.model = SeparationModel.from_checkpoint(self.ckpt)

    def inputs(self, i: int) -> list[np.ndarray]:
        return [self.mixes[self.order[i % XS_CASES]]]

    def op(self, i: int) -> bool:
        case = self.order[i % XS_CASES]
        est = self.model.separate(self.mixes[case])
        return all(si_snr_db(e.data, r) >= MIN_SI_SNR_DB
                   for e, r in zip(est, self.refs[case], strict=True))

    def peak_ratio(self) -> float:
        """Peak of one separate on 1 s of audio over the peak on its first 0.5 s.

        The model-level analogue of acceptance criterion 7 (about 2 when
        memory grows linearly with input length).
        """
        mix = self.mixes[self.order[0]]
        # bool() drops the stems, and the tape they hold, inside the pass
        full, _ = traced_peak(lambda: bool(self.model.separate(mix)))
        half, _ = traced_peak(lambda: bool(self.model.separate(mix[: len(mix) // 2])))
        return full / half


class SeparateCli(OpWorkload):
    name = "separate_cli_2x0.5s"
    audio_s = 1.0            # two files of 0.5 s per invocation

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.ckpt = self.work / "xs.ckpt"
        self.order = np.random.default_rng(seed).permutation(CLI_CASES)
        self.mixes = [mixture(1, c, 0.5)[0] for c in range(CLI_CASES)]

    def wav(self, case: int) -> Path:
        return self.work / "cli_in" / f"case{case:02d}.wav"

    def prepare(self) -> None:
        (self.work / "cli_in").mkdir(parents=True, exist_ok=True)
        write_xs_checkpoint(self.ckpt)
        for case, mix in enumerate(self.mixes):
            write_pcm16(self.wav(case), mix)

    def load(self) -> None:
        # the set-up a user pays once; each invocation loads again itself
        self.model = SeparationModel.from_checkpoint(self.ckpt)

    def cases(self, i: int) -> list[int]:
        return [int(self.order[(2 * i + k) % CLI_CASES]) for k in (0, 1)]

    def inputs(self, i: int) -> list[np.ndarray]:
        return [self.mixes[c] for c in self.cases(i)]

    def invoke(self, cases: list[int], out: Path) -> int:
        shutil.rmtree(out, ignore_errors=True)
        argv = ["separate", "--ckpt", str(self.ckpt),
                "--in", *(str(self.wav(c)) for c in cases), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def op(self, i: int) -> bool:
        cases = self.cases(i)
        out = self.work / "cli_out"
        if self.invoke(cases, out) != 0:
            return False
        for c in cases:
            for k in (0, 1):
                got = read_pcm16(out / f"case{c:02d}_s{k + 1}.wav").astype(np.int32)
                ref = self.refs[c, k].astype(np.int32)
                if got.shape != ref.shape or np.max(np.abs(got - ref)) > MAX_LSB:
                    return False
        return True


class TrainToy:
    """Steps of one `train_toy` call, timed between consecutive Adam.step returns."""

    name = "train_toy_step"
    audio_s = 0.4            # two mixtures of 0.2 s per full-batch step

    def __init__(self, work: Path, seed: int):
        self.case = seed % TRAIN_CASES
        self.examples = []
        for k in range(2):
            mix, sources = mixture(2, 2 * self.case + k, 0.2)
            self.examples.append(training.MixExample(mix=mix, sources=sources,
                                                     snr_db=0.0))
        self.model = None

    def prepare(self) -> None:
        """Nothing to write: the model is built in memory by load()."""

    @functools.cached_property
    def refs(self) -> list[float]:
        return json.loads((REFS / f"{self.name}.json").read_text())["losses"][self.case]

    def load(self) -> None:
        self.model = SeparationModel(ModelConfig(**TRAIN_CFG),
                                     rng=np.random.default_rng(WEIGHT_SEED + self.case))

    def inputs(self, i: int) -> list[np.ndarray]:
        return [ex.mix for ex in self.examples]

    def losses(self, seconds: float | None, steps: int, on_step) -> list[float]:
        """Train the loaded model; on_step() runs as each Adam.step returns."""
        original = training.Adam.step

        def step(opt, lr):
            original(opt, lr)
            on_step()

        training.Adam.step = step
        try:
            res = training.train_toy(self.model, self.examples, TRAIN_SCHEDULE,
                                     steps=steps, val_every=TRAIN_STEPS,
                                     time_budget_s=seconds)
        finally:
            training.Adam.step = original
        return [row["loss"] for row in res.history]

    def _check(self, losses: list[float]) -> list[bool]:
        return [abs(x - r) <= MAX_LOSS_REL * abs(r)
                for x, r in zip(losses, self.refs)]

    def session(self, seconds: float, begin_op, warm: bool = True):
        """Step 0 is the warm-up; the later steps are the timed operations.

        `warm` is ignored: every train_toy call starts with a step 0.
        """
        self.load()
        ids = [begin_op()]
        ends = [time.perf_counter()]

        def on_step():
            ends.append(time.perf_counter())
            ids.append(begin_op())

        try:
            oks = self._check(self.losses(seconds, TRAIN_STEPS, on_step))
            raised = False
        except Exception:
            oks, raised = [], True
        if raised:      # the step in progress failed; time it up to now
            ends.append(time.perf_counter())
        walls = np.diff(ends)
        # a step without a checked loss counts as failed
        oks += [False] * (len(walls) - len(oks))
        return [(ids[k], float(walls[k]), oks[k], k > 0) for k in range(len(walls))]

    def peak(self, begin_op) -> tuple[int, bool]:
        """(tracemalloc peak bytes, ok) of one step, read as Adam.step returns."""
        self.load()
        begin_op()
        got = []
        gc.collect()
        tracemalloc.start()
        try:
            losses = self.losses(
                0.0, 1, lambda: got.append(tracemalloc.get_traced_memory()[1]))
        except Exception:
            losses = []
        finally:
            tracemalloc.stop()
        return (got[0] if got else 0), bool(losses) and all(self._check(losses))


WORKLOADS = {cls.name: cls for cls in (SeparateXs, SeparateCli, TrainToy)}
