"""Losses, metrics, optimizer, schedule, and the toy training loop.

The training objective is negative scale-invariant SNR, made
permutation-invariant by scoring both speaker assignments and keeping
the better one. The loss is one recorded primitive with a hand-written
VJP, taking gradients for the estimate only: the reference is a
constant. Its arithmetic lives once, in ``_si_snr_terms``, which the
numpy metrics call too; they add a scale-fitted SDR, and both are
reported as improvement over using the mixture itself as the estimate.
The loss takes its estimates' dtype, so a model trains in the dtype of
its parameters, and validation separates with untaped views of them.
"""

from __future__ import annotations

import copy
import csv
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations

import numpy as np

from . import numerics as nm
from .errors import TrainingDiverged
from .numerics import NumericsError, Tensor

SI_SNR_EPS = 1e-8
SI_SNR_CAP_DB = 80.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MIX_PEAK = 0.9
SNR_RANGE_DB = (0.0, 5.0)
_LOG10 = math.log(10.0)


# ---------------------------------------------------------------------------
# differentiable loss
# ---------------------------------------------------------------------------


def _si_snr_terms(est: np.ndarray, ref: np.ndarray):
    """SI-SNR in dB between 1-D arrays, and the terms its gradient needs.

    Both signals are mean-centred and the estimate is scaled to unit power,
    u = k e, so the eps terms see a scale-free estimate and invariance to
    the estimate's gain holds to rounding. u splits into its projection
    s r onto the reference and the residual n; the value is the ratio of
    their energies, each plus SI_SNR_EPS so silent inputs stay finite.
    """
    e = np.asarray(est, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    e = e - e.mean()
    r = r - r.mean()
    k = 1.0 / math.sqrt(float(e @ e) / e.size + SI_SNR_EPS)
    rr = float(r @ r)
    s = k * float(e @ r) / (rr + SI_SNR_EPS)
    n = k * e - s * r
    p = s * s * rr + SI_SNR_EPS
    q = float(n @ n) + SI_SNR_EPS
    return 10.0 * math.log10(p / q), (e, r, k, rr, s, n, p, q)


def si_snr(est: Tensor, ref: Tensor) -> Tensor:
    """Scale-invariant SNR in dB between 1-D waveforms, as one graph node.

    The value is capped at 80 dB so a perfect reconstruction cannot push
    the loss to infinity, and is flat (zero gradient) from the cap up; a
    NaN estimate scores NaN. The reference is a constant.
    """
    if est.ndim != 1 or ref.ndim != 1 or est.shape != ref.shape:
        raise NumericsError(
            f"si_snr expects matching 1-D waveforms, got {est.shape} vs {ref.shape}")
    if ref.requires_grad:
        raise NumericsError("si_snr: the reference is a constant and must not "
                            "require a gradient")
    if not np.any(ref.data - ref.data.mean()):
        raise NumericsError("si_snr: reference is constant (zero energy)")
    val, (e, r, k, rr, s, n, p, q) = _si_snr_terms(est.data, ref.data)
    dtype = est.dtype

    def vjp(g):
        if not val < SI_SNR_CAP_DB:
            return np.zeros(e.shape, dtype=dtype), None
        # d val / d u, then back through u = k e and the mean-centring
        c = float(g) * 10.0 / _LOG10
        big_r = rr + SI_SNR_EPS
        gu = c * ((2.0 * s * rr / (big_r * p)) * r
                  - (2.0 / q) * (n - (s * SI_SNR_EPS / big_r) * r))
        ge = k * gu - (k ** 3 / e.size) * float(e @ gu) * e
        return (ge - ge.mean()).astype(dtype, copy=False), None

    # np.minimum propagates a NaN, so a NaN estimate is not scored as the cap
    out = np.asarray(np.minimum(val, SI_SNR_CAP_DB), dtype=dtype)
    return nm.primitive(out, (est, ref), vjp, "si_snr")


def pit_loss(est: tuple[Tensor, ...], ref: tuple[Tensor, ...]
             ) -> tuple[Tensor, tuple[int, ...]]:
    """Permutation-invariant negative SI-SNR.

    Returns (loss, perm) where perm maps estimate index -> reference
    index for the winning assignment, which best_permutation picks on the
    arrays. Only that assignment is recorded, so gradients follow it.
    """
    if len(est) != len(ref):
        raise NumericsError(f"pit_loss: {len(est)} estimates vs {len(ref)} references")
    perm = best_permutation(tuple(e.data for e in est), tuple(r.data for r in ref))
    total = si_snr(est[0], ref[perm[0]])
    for i in range(1, len(est)):
        total = nm.add(total, si_snr(est[i], ref[perm[i]]))
    return nm.mul(total, Tensor(-1.0 / len(est), dtype=total.dtype)), perm


# ---------------------------------------------------------------------------
# numpy metrics
# ---------------------------------------------------------------------------


def si_snr_value(est: np.ndarray, ref: np.ndarray) -> float:
    """The uncapped SI-SNR in dB that si_snr records, on plain arrays."""
    return _si_snr_terms(est, ref)[0]


def sdr_value(est: np.ndarray, ref: np.ndarray) -> float:
    """SNR after fitting the single best gain to the estimate."""
    e = np.asarray(est, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    beta = float(e @ r) / (float(e @ e) + SI_SNR_EPS)
    err = beta * e - r
    return 10.0 * math.log10((float(r @ r) + SI_SNR_EPS)
                             / (float(err @ err) + SI_SNR_EPS))


def best_permutation(est: tuple, ref: tuple) -> tuple[int, ...]:
    """Assignment (estimate index -> reference index) maximizing mean SI-SNR;
    the identity when no mean is a number (a non-finite estimate)."""
    best, best_perm = -math.inf, tuple(range(len(ref)))
    for perm in permutations(range(len(ref))):
        mean = sum(si_snr_value(est[i], ref[j]) for i, j in enumerate(perm)) / len(ref)
        if mean > best:
            best, best_perm = mean, perm
    return best_perm


def _improvement(metric, perm: tuple, est: tuple, ref: tuple, mix: np.ndarray) -> float:
    score = sum(metric(est[i], ref[j]) for i, j in enumerate(perm)) / len(ref)
    base = sum(metric(mix, r) for r in ref) / len(ref)
    return score - base


def si_snri(est: tuple, ref: tuple, mix: np.ndarray) -> float:
    """SI-SNR improvement over the mixture, under the PIT-optimal assignment."""
    return _improvement(si_snr_value, best_permutation(est, ref), est, ref, mix)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over named parameter lists."""

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for (name, p), m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient for '{name}'")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainSchedule:
    """Linear warmup from zero to the peak, then cosine decay to 10%."""

    peak_lr: float = 1.5e-4
    warmup_steps: int = 100
    total_steps: int = 2000

    def __post_init__(self):
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise NumericsError("schedule: need 0 <= warmup_steps <= total_steps")

    def lr(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        floor = 0.1 * self.peak_lr
        if step >= self.total_steps:
            return floor
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / span
        return floor + (self.peak_lr - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


@dataclass
class MixExample:
    mix: np.ndarray
    sources: tuple[np.ndarray, np.ndarray]
    snr_db: float


def mix_sources(s1: np.ndarray, s2: np.ndarray, snr_db: float) -> MixExample:
    """Mix two sources at a chosen first-vs-second SNR, peak-normalized.

    The first source keeps unit gain while the second is scaled so the
    energy ratio matches snr_db; then one common gain brings the mixture
    peak to MIX_PEAK, applied to the sources too so mix == sum(sources)
    stays exact.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise NumericsError(f"mix_sources expects matching 1-D arrays, "
                            f"got {a.shape} vs {b.shape}")
    rms_a = math.sqrt(float(a @ a) / a.size)
    rms_b = math.sqrt(float(b @ b) / b.size)
    if rms_a == 0.0 or rms_b == 0.0:
        raise NumericsError("mix_sources: silent source")
    g2 = (rms_a / rms_b) * 10.0 ** (-snr_db / 20.0)
    sa, sb = a.copy(), g2 * b
    top = float(np.max(np.abs(sa + sb)))
    if top > 0.0:
        c = MIX_PEAK / top
        sa, sb = c * sa, c * sb
    # sum the scaled sources so mix == sum(sources) holds bit-exactly
    return MixExample(mix=sa + sb, sources=(sa, sb), snr_db=float(snr_db))


def sample_snr(rng: np.random.Generator) -> float:
    return float(rng.uniform(*SNR_RANGE_DB))


# ---------------------------------------------------------------------------
# toy training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    steps_run: int
    final_loss: float
    final_si_snri: float
    history: list[dict] = field(repr=False, default_factory=list)


def evaluate(model, examples: list[MixExample]) -> tuple[float, float]:
    """Mean SI-SNR and SDR improvements of model over examples; both score
    each example under its one SI-SNR-optimal assignment."""
    if not examples:
        raise NumericsError("evaluate: no examples")
    # untaped views of the same weights: no op records a tape, the values
    # are the same, and the caller's model is left as it is
    view = copy.copy(model)
    view.params = {name: nm.as_tensor(p.data) for name, p in model.params.items()}
    si_vals, sd_vals = [], []
    for ex in examples:
        est = tuple(e.data for e in view.separate(ex.mix))
        perm = best_permutation(est, ex.sources)
        si_vals.append(_improvement(si_snr_value, perm, est, ex.sources, ex.mix))
        sd_vals.append(_improvement(sdr_value, perm, est, ex.sources, ex.mix))
    return float(np.mean(si_vals)), float(np.mean(sd_vals))


def train_toy(model, examples: list[MixExample], schedule: TrainSchedule,
              steps: int | None = None, log_path=None, val_every: int = 25,
              stop_at_si_snri: float | None = None,
              time_budget_s: float | None = None,
              verbose: bool = False) -> TrainResult:
    """Overfit a model to a handful of fixed mixtures, full batch.

    Each step averages the permutation-invariant loss over all examples,
    backpropagates once, and applies one Adam update at the scheduled
    rate. Validation (SI-SNR improvement on the same examples) runs
    every `val_every` steps; training stops early once it reaches
    `stop_at_si_snri` or the optional wall-clock budget runs out.
    Writes a CSV log with columns step,lr,loss,si_snri when `log_path`
    is given. The loss and its references take the dtype of the model's
    parameters, and validation runs on untaped views of them. Raises
    TrainingDiverged on a non-finite loss or gradient.
    """
    if not examples:
        raise NumericsError("train_toy: no examples")
    if val_every < 1:
        raise NumericsError(f"train_toy: val_every must be at least 1, got {val_every}")
    if not all(p.requires_grad for _, p in model.named_parameters()):
        raise NumericsError(
            "train_toy: the model is frozen (from_checkpoint gives an inference "
            "model); to fine-tune, build SeparationModel(cfg) and load_state")
    opt = Adam(model.named_parameters())
    total = schedule.total_steps if steps is None else steps
    # the dtype separate() casts a waveform to
    dtype = model.params["encoder"].dtype
    refs = [tuple(Tensor(s, dtype=dtype) for s in ex.sources) for ex in examples]
    history: list[dict] = []
    t0 = time.monotonic()
    val = -math.inf
    loss_val = math.nan
    with ExitStack() as stack:
        if log_path is not None:
            writer = csv.writer(stack.enter_context(open(log_path, "w", newline="")))
            writer.writerow(["step", "lr", "loss", "si_snri"])
        for step in range(total):
            lr = schedule.lr(step)
            opt.zero_grad()
            try:
                total_loss = reduce(nm.add, (pit_loss(model.separate(ex.mix), ref)[0]
                                             for ex, ref in zip(examples, refs)))
                mean_loss = nm.mul(total_loss, Tensor(1.0 / len(examples), dtype=dtype))
                loss_val = mean_loss.item()
                if not math.isfinite(loss_val):
                    raise TrainingDiverged(f"loss became non-finite at step {step}")
                mean_loss.backward()
                opt.step(lr)
            except NumericsError as exc:
                # weights left an evaluable state (e.g. delta overflowed):
                # that is divergence, not a caller error
                raise TrainingDiverged(
                    f"model state became invalid at step {step}: {exc}") from exc

            is_val_step = (step % val_every == val_every - 1) or step == total - 1
            if is_val_step:
                val = evaluate(model, examples)[0]
            row = {"step": step, "lr": lr, "loss": loss_val,
                   "si_snri": val if is_val_step else ""}
            history.append(row)
            if log_path is not None:
                writer.writerow([row["step"], f"{lr:.8g}", f"{loss_val:.6f}",
                                 f"{val:.4f}" if is_val_step else ""])
            if verbose and (is_val_step or step % val_every == 0):
                print(f"step {step:5d}  lr {lr:.2e}  loss {loss_val:+.3f}"
                      + (f"  si_snri {val:+.2f} dB" if is_val_step else ""),
                      flush=True)
            if stop_at_si_snri is not None and val >= stop_at_si_snri:
                break
            if time_budget_s is not None and time.monotonic() - t0 > time_budget_s:
                break
    # the time budget can stop training between validation steps: score
    # the weights that are returned, not the ones the last validation saw
    if not history or history[-1]["si_snri"] == "":
        val = evaluate(model, examples)[0]
    return TrainResult(steps_run=len(history), final_loss=loss_val,
                       final_si_snri=val, history=history)
