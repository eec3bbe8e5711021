"""Acceptance gate: every shipped claim, one test and one printed line each.

Run with plain pytest; each criterion reports `criterion N [name]: PASS/FAIL`
in the terminal summary (and inline under -s) so the gate is legible in CI
logs. The slowest item is the end-to-end overfit, a few minutes of CPU.
"""

import math
import sys
import time

import conftest

import numpy as np

import sepscan.audio as audio
import sepscan.bench as bench
import sepscan.dualpath as dp
import sepscan.model as M
import sepscan.ssm as ssm
import sepscan.training as T
from sepscan.gradcheck import run_suite
from sepscan.numerics import Tensor


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.acceptance_lines.append(line)
    print(line, flush=True)
    assert ok, line


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_parameter_counts():
    targets = [
        ("xs", M.preset("xs"), 2.3e6),
        ("s", M.preset("s"), 8.1e6),
        ("m", M.preset("m"), 15.9e6),
        ("l", M.preset("l"), 59.8e6),
        ("h8", M.ModelConfig(d=256, r=8, h=8), 7.7e6),
        ("h32", M.ModelConfig(d=256, r=8, h=32), 8.9e6),
        ("uni", M.ModelConfig(d=256, r=8, bidirectional=False), 7.4e6),
    ]
    t0 = time.monotonic()
    devs = {}
    for name, cfg, target in targets:
        n = M.count_parameters(cfg)
        devs[name] = (n - target) / target
    elapsed = time.monotonic() - t0
    worst = max(devs, key=lambda k: abs(devs[k]))
    ok = all(abs(v) <= 0.02 for v in devs.values()) and elapsed < 1.0
    _report(1, "parameter counts", ok,
            f"7 configs within 2%, worst {worst} {devs[worst]:+.2%}, "
            f"{elapsed * 1e3:.0f} ms")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_scan_kernel_duality():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        H = int(rng.integers(1, 9))
        L = int(rng.integers(1, 65))
        diag = -np.exp(rng.uniform(-1.5, 1.0, H))
        bvec = rng.standard_normal(H)
        cvec = rng.standard_normal(H)
        delta = float(rng.uniform(0.02, 0.5))
        x = rng.standard_normal(L)

        params = ssm.SsmParams(
            a=Tensor(diag[None, :].copy()),
            delta=Tensor(np.full((1, L), delta).T),
            b=Tensor(np.tile(bvec, (L, 1))),
            c=Tensor(np.tile(cvec, (L, 1))),
            exact_zoh=True,
        )
        y_scan = ssm.scan_sequential(Tensor(x[:, None]), params).data[:, 0]
        sys_ = ssm.DenseSsm(a=np.diag(diag), b=bvec[:, None],
                            c=cvec[None, :], delta=delta)
        worst = max(worst, float(np.max(np.abs(
            y_scan - ssm.kernel_convolve(x, sys_)))))
    _report(2, "scan/kernel duality", worst < 1e-10,
            f"100 random time-invariant systems, max abs err {worst:.2e}")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_parallel_scan_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = 0
    for L in (1, 2, 7, 64, 250, 1000):
        for E in (1, 4):
            for H in (1, 16):
                a = -np.exp(rng.uniform(-1, 1, (E, H)))
                params = ssm.SsmParams(
                    a=Tensor(a),
                    delta=Tensor(rng.uniform(0.05, 0.5, (E, L)).T),
                    b=Tensor(rng.standard_normal((L, H))),
                    c=Tensor(rng.standard_normal((L, H))),
                )
                x = Tensor(rng.standard_normal((E, L)).T)
                diff = np.max(np.abs(ssm.scan_parallel(x, params).data
                                     - ssm.scan_sequential(x, params).data))
                worst = max(worst, float(diff))
                cases += 1
    _report(3, "parallel scan equivalence", worst < 1e-8,
            f"{cases} grid points (L up to 1000), max abs err {worst:.2e}")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_gradient_correctness():
    t0 = time.monotonic()
    prim = run_suite("numerics") + run_suite("ssm")
    prim_worst = max(r.max_rel_err for r in prim)
    model_res = run_suite("model")
    model_worst = max(r.max_rel_err for r in model_res)
    elapsed = time.monotonic() - t0
    ok = prim_worst < 1e-6 and model_worst < 1e-4 and elapsed < 300
    _report(4, "gradient correctness", ok,
            f"{len(prim)} primitive checks worst {prim_worst:.1e} (<1e-6), "
            f"full model worst {model_worst:.1e} (<1e-4), {elapsed:.0f} s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_chunk_roundtrip():
    rng = np.random.default_rng(5)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 4000))
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((d, n)).T
        back = dp.dechunk(dp.chunk(Tensor(x), 250), n).data
        if not np.array_equal(back, x):
            bad += 1
    _report(5, "chunk round-trip", bad == 0,
            f"200 random (N, K=250) cases, {bad} mismatches, exact equality")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_toy_overfit():
    sr, dur = 8000, 0.2
    examples = [
        T.mix_sources(audio.synth_utterance(0, dur, sr, 11, 0),
                      audio.synth_utterance(2, dur, sr, 11, 0), 0.0),
        T.mix_sources(audio.synth_utterance(0, dur, sr, 11, 1),
                      audio.synth_utterance(2, dur, sr, 11, 1), 5.0),
    ]
    cfg = M.ModelConfig(d=32, r=2, h=8, chunk_len=32)
    net = M.SeparationModel(cfg, rng=np.random.default_rng(3))
    sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=150, total_steps=2000)
    t0 = time.monotonic()
    res = T.train_toy(net, examples, sched, val_every=50,
                      stop_at_si_snri=10.5, time_budget_s=850)
    elapsed = time.monotonic() - t0
    ok = (res.final_si_snri > 10.0 and res.steps_run <= 2000
          and elapsed < 900 and math.isfinite(res.final_loss))
    _report(6, "toy overfit", ok,
            f"si_snri {res.final_si_snri:.2f} dB (>10) after {res.steps_run} "
            f"steps, {elapsed:.0f} s (<900)")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_linear_memory_scan():
    _, peak_1k = bench.measure("seq", 1000, 4, 16)
    _, peak_8k = bench.measure("seq", 8000, 4, 16)
    ratio = peak_8k / peak_1k
    _report(7, "linear-memory scan", 7.0 <= ratio <= 9.0,
            f"peak bytes {peak_8k}/{peak_1k}, ratio {ratio:.2f} in [7, 9]")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_ablation_switches_train():
    sr = 8000
    s1 = audio.synth_utterance(0, 0.05, sr, 21, 0)
    s2 = audio.synth_utterance(2, 0.05, sr, 21, 0)
    examples = [T.mix_sources(s1, s2, 0.0)]
    variants = {
        "unidirectional": dict(bidirectional=False),
        "h8": dict(h=8),
        "h32": dict(h=32),
        "layernorm": dict(norm_kind="layernorm"),
        "exact_zoh": dict(exact_zoh=True),
        "encoder_relu": dict(encoder_relu=True),
    }
    failed = []
    for name, over in variants.items():
        cfg = M.ModelConfig(d=8, r=1, h=over.pop("h", 4), chunk_len=16, **over)
        net = M.SeparationModel(cfg, rng=np.random.default_rng(13))
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=8)
        res = T.train_toy(net, examples, sched, val_every=8)
        first = res.history[0]["loss"]
        if not (math.isfinite(res.final_loss) and res.final_loss < first):
            failed.append(f"{name}: {first:.3f} -> {res.final_loss:.3f}")
    _report(8, "ablation switches", not failed,
            f"6 structural variants each train at toy scale"
            + (f"; failed: {failed}" if failed else ""))
