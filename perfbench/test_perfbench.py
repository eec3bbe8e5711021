"""Tests of the benchmark harness itself; tiny models, so they run in seconds."""

from __future__ import annotations

import json

import numpy as np
import pytest

import run as R
import tracer as T
import workloads as W
from sepscan import model as M
from sepscan import training

TINY = M.ModelConfig(d=8, r=1, h=4, chunk_len=8)


def tiny_model() -> M.SeparationModel:
    return M.SeparationModel(TINY, rng=np.random.default_rng(1))


def test_uninstall_restores_every_original():
    tr = T.Tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in tr.targets()]
    with tr.installed():
        assert all(vars(o)[a] is not raw for o, a, raw in before)
    assert all(vars(o)[a] is raw for o, a, raw in before)


def test_traced_separate_is_bit_identical_and_counts_scans():
    mix = W.mixture(9, 0, 0.05)[0]            # 400 samples -> N=49, K=8, S=12
    plain = [e.data for e in tiny_model().separate(mix)]
    tr = T.Tracer()
    tr.op = 0
    with tr.installed():
        traced = [e.data for e in tiny_model().separate(mix)]
    assert all(np.array_equal(a, b) for a, b in zip(plain, traced, strict=True))
    m = tr.layer_metrics([0])
    # per direction and block: intra B*E*L*H = S*E*K*H, inter K*E*S*H
    E, H, K, S = 2 * TINY.d, TINY.h, TINY.chunk_len, 12
    assert m["ssm.scan_elems"] == 2 * 2 * S * E * K * H
    assert m["ssm.scan_fwd_intra_s"] > 0 and m["ssm.scan_fwd_inter_s"] > 0
    assert m["numerics.nodes"] > 0 and m["numerics.tape_mb"] > 0
    assert all(v >= 0 for v in m.values())


def test_an_error_counts_once_per_module_and_op(monkeypatch):
    def masks(self, feats):
        raise M.NumericsError("injected")

    monkeypatch.setattr(M.SeparationModel, "masks", masks)
    mix = W.mixture(9, 0, 0.05)[0]
    tr = T.Tracer()
    with tr.installed():
        for op in (0, 1):
            tr.op = op
            with pytest.raises(M.NumericsError):
                tiny_model().separate(mix)   # leaves masks, then separate
    m = tr.layer_metrics([0, 1])
    assert m["model.errors"] == 1.0
    assert m["numerics.errors"] == 0.0


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(W, "preset", lambda name: TINY)
    metrics, records = R.run_workload(W.SeparateXs(tmp_path, 0), seconds=0.01,
                                      tracer=T.Tracer())
    assert set(metrics) == {name for name, _ in T.LAYER_METRICS}
    assert metrics["ssm.scan_elems"] > 0 and metrics["model.peak_mb_ratio"] > 1
    assert metrics["process.vmhwm_mb"] > 0
    assert len(records) >= 3                    # warm-up, untraced op, traced op


def test_traced_training_is_bit_identical():
    mix, sources = W.mixture(9, 1, 0.05)
    examples = [training.MixExample(mix=mix, sources=sources, snr_db=0.0)]

    def train():
        net = tiny_model()
        res = training.train_toy(net, examples, W.TRAIN_SCHEDULE, steps=3,
                                 val_every=10)
        return ([row["loss"] for row in res.history],
                [p.data for _, p in net.named_parameters()])

    plain = train()
    tr = T.Tracer()
    with tr.installed():
        traced = train()
    assert plain[0] == traced[0]
    assert all(np.array_equal(a, b) for a, b in zip(plain[1], traced[1], strict=True))
    names = {s.name for s in tr.spans}
    assert {"numerics.vjp", "numerics.Tensor.backward", "training.Adam.step",
            "training.pit_loss"} <= names


@pytest.mark.parametrize("cls", list(W.WORKLOADS.values()))
def test_seed_changes_inputs_not_shapes(cls, tmp_path):
    a, b = cls(tmp_path, 1), cls(tmp_path, 2)
    for i in range(3):
        xa, xb = a.inputs(i), b.inputs(i)
        assert [x.shape for x in xa] == [x.shape for x in xb]
    assert any(not np.array_equal(x, y) for i in range(3)
               for x, y in zip(a.inputs(i), b.inputs(i)))
    again = cls(tmp_path, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a.inputs(0), again.inputs(0)))


@pytest.mark.parametrize("fault", ["raises", "wrong_output"])
def test_failed_operations_are_counted_not_fatal(fault, tmp_path, monkeypatch):
    def separate(self, x):
        if fault == "raises":
            raise RuntimeError("injected")
        return tuple(M.Tensor(np.zeros(len(x))) for _ in range(2))

    monkeypatch.setattr(M.SeparationModel, "separate", separate)
    metrics, records = R.run_workload(W.SeparateXs(tmp_path, 0), seconds=0.01)
    assert len(records) >= 3                    # warm-up, timed op(s), peak pass
    assert not any(ok for _, _, ok, _ in records)
    assert metrics["step_s_p50"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == R.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == T.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(R.WORKLOAD_NAMES)
    assert list(W.WORKLOADS) == list(R.WORKLOAD_NAMES)
