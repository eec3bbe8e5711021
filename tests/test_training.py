"""Loss properties, metrics, optimizer, schedule, and the training loop."""

import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import sepscan.audio as audio
import sepscan.model as M
import sepscan.numerics as nm
import sepscan.training as T
from sepscan.errors import TrainingDiverged
from sepscan.numerics import NumericsError, Tensor


def _ref(seed=0, n=400):
    return np.random.default_rng(seed).standard_normal(n)


class TestSiSnr:
    @pytest.mark.parametrize("alpha", [2.0, -3.0, 0.25, 10.0])
    def test_estimate_scale_invariance(self, alpha):
        r = _ref()
        e = r + 0.3 * _ref(1)
        base = T.si_snr(Tensor(e.copy()), Tensor(r.copy())).item()
        scaled = T.si_snr(Tensor(alpha * e), Tensor(r.copy())).item()
        assert abs(scaled - base) < 1e-9
        assert abs(T.si_snr_value(alpha * e, r) - T.si_snr_value(e, r)) < 1e-9

    def test_offset_invariance(self):
        r = _ref()
        e = r + 0.2 * _ref(2)
        a = T.si_snr_value(e, r)
        b = T.si_snr_value(e + 5.0, r + 3.0)
        assert abs(a - b) < 1e-9

    def test_orthogonal_noise_oracle(self):
        # est = ref + n with n orthogonal to ref and 1/10 its energy -> 10 dB
        rng = np.random.default_rng(3)
        r = rng.standard_normal(500)
        r -= r.mean()
        n = rng.standard_normal(500)
        n -= n.mean()
        n -= (n @ r) / (r @ r) * r
        n *= math.sqrt((r @ r) / 10.0 / (n @ n))
        val = T.si_snr(Tensor(r + n), Tensor(r.copy())).item()
        assert abs(val - 10.0) < 1e-6
        assert abs(T.si_snr_value(r + n, r) - 10.0) < 1e-6

    def test_perfect_reconstruction_caps_at_80(self):
        r = _ref(4)
        assert T.si_snr(Tensor(r.copy()), Tensor(r.copy())).item() == 80.0

    def test_gradient_is_zero_at_the_cap(self):
        # float32, so the zeros must come back in the estimate's dtype too
        r = _ref(4).astype(np.float32)
        e = Tensor(r, requires_grad=True)
        T.si_snr(e, Tensor(r)).backward()
        assert e.grad.dtype == np.float32 and not e.grad.any()

    def test_zero_energy_reference_rejected(self):
        with pytest.raises(NumericsError, match="zero energy"):
            T.si_snr(Tensor(_ref()), Tensor(np.full(400, 2.5)))

    def test_reference_requiring_grad_rejected(self):
        # the reference is a constant: its gradient is refused, not dropped
        with pytest.raises(NumericsError, match="reference is a constant"):
            T.si_snr(Tensor(_ref(1)), Tensor(_ref(), requires_grad=True))

    def test_nan_estimate_is_nan_not_the_cap(self):
        val = T.si_snr(Tensor(np.full(400, np.nan)), Tensor(_ref())).item()
        assert math.isnan(val)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        r = Tensor(rng.standard_normal(50))
        e = Tensor(rng.standard_normal(50), requires_grad=True)
        T.si_snr(e, r).backward()
        g = e.grad.copy()
        step = 1e-6
        for i in (0, 17, 49):
            ep = e.data.copy(); ep[i] += step
            em = e.data.copy(); em[i] -= step
            num = (T.si_snr(Tensor(ep), r).item()
                   - T.si_snr(Tensor(em), r).item()) / (2 * step)
            assert abs(num - g[i]) < 1e-5 * max(1.0, abs(num))


class TestPit:
    def test_picks_crossed_assignment(self):
        a, b = _ref(6), _ref(7)
        loss, perm = T.pit_loss((Tensor(b.copy()), Tensor(a.copy())),
                                (Tensor(a.copy()), Tensor(b.copy())))
        assert perm == (1, 0)
        assert loss.item() == -80.0

    def test_matching_assignment(self):
        a, b = _ref(8), _ref(9)
        _, perm = T.pit_loss((Tensor(a.copy()), Tensor(b.copy())),
                             (Tensor(a.copy()), Tensor(b.copy())))
        assert perm == (0, 1)

    def test_loss_is_negative_mean_si_snr(self):
        a, b = _ref(10), _ref(11)
        e1, e2 = a + 0.5 * _ref(12), b + 0.5 * _ref(13)
        loss, perm = T.pit_loss((Tensor(e1.copy()), Tensor(e2.copy())),
                                (Tensor(a.copy()), Tensor(b.copy())))
        expect = -(T.si_snr_value(e1, a) + T.si_snr_value(e2, b)) / 2
        assert perm == (0, 1)
        assert abs(loss.item() - expect) < 1e-9

    def test_float32_estimates_give_a_float32_loss(self):
        a, b = _ref(14).astype(np.float32), _ref(15).astype(np.float32)
        est = (Tensor(a + 0.5 * _ref(18), requires_grad=True, dtype=np.float32),
               Tensor(b + 0.5 * _ref(19), requires_grad=True, dtype=np.float32))
        loss, _ = T.pit_loss(est, (Tensor(a), Tensor(b)))
        assert loss.dtype == np.float32
        loss.backward()
        assert all(e.grad.dtype == np.float32 for e in est)

    def test_records_only_the_winning_assignment(self, monkeypatch):
        a, b = _ref(16), _ref(17)
        est = (Tensor(b + 0.5 * _ref(18), requires_grad=True),
               Tensor(a + 0.5 * _ref(19), requires_grad=True))
        ref = (Tensor(a.copy()), Tensor(b.copy()))
        calls = []
        primitive = nm.primitive
        monkeypatch.setattr(nm, "primitive",
                            lambda *args: calls.append(args[-1]) or primitive(*args))
        T.si_snr(est[0], ref[1])
        per_si_snr = len(calls)
        calls.clear()
        loss, perm = T.pit_loss(est, ref)
        assert perm == (1, 0)
        # two si_snr terms, their sum and the -1/2 scale
        assert len(calls) == 2 * per_si_snr + 2
        want = -(T.si_snr(est[0], ref[1]).item() + T.si_snr(est[1], ref[0]).item()) / 2
        assert abs(loss.item() - want) < 1e-12

    def test_constant_reference_rejected(self):
        a = _ref(20)
        with pytest.raises(NumericsError, match="zero energy"):
            T.pit_loss((Tensor(a.copy()), Tensor(a.copy())),
                       (Tensor(a.copy()), Tensor(np.full(a.size, 0.5))))

    def test_non_finite_estimate_keeps_the_identity_assignment(self):
        # no assignment's mean SI-SNR is a number, so none wins
        a, b = _ref(21), _ref(22)
        _, perm = T.pit_loss((Tensor(np.full(a.size, np.nan)), Tensor(b.copy())),
                             (Tensor(a.copy()), Tensor(b.copy())))
        assert perm == (0, 1)
        assert T.best_permutation((np.full(a.size, np.nan), b), (a, b)) == (0, 1)

    def test_nan_estimate_gives_nan_loss(self):
        a, b = _ref(23), _ref(24)
        loss, _ = T.pit_loss((Tensor(np.full(a.size, np.nan)), Tensor(b.copy())),
                             (Tensor(a.copy()), Tensor(b.copy())))
        assert math.isnan(loss.item())


def test_pit_loss_graph_has_no_pad_or_trim_nodes():
    # the framing ops pad and trim, and matmul adds the mask head's biases,
    # so the only narrows left are the mask head's two speaker splits
    cfg = M.ModelConfig(d=32, r=2, h=8, chunk_len=32)
    net = M.SeparationModel(cfg, rng=np.random.default_rng(3))
    ex = T.mix_sources(audio.synth_utterance(0, 0.2, 8000, 11, 0),
                       audio.synth_utterance(2, 0.2, 8000, 11, 0), 0.0)
    loss, _ = T.pit_loss(net.separate(ex.mix),
                         tuple(Tensor(s) for s in ex.sources))
    ops = Counter(v.op for v in nm._topo_order(loss._node)
                  if isinstance(v, nm._Node))
    assert ops["pad_end"] == ops["add_bias"] == 0
    assert (ops["narrow"], ops["frame"], ops["overlap_add"], ops["matmul"]) \
        == (2, 1, 3, 55)


class TestLeafGradients:
    """backward keeps a gradient on the leaves only, at the criterion-6 scale."""

    @staticmethod
    def _criterion_6():
        examples = [
            T.mix_sources(audio.synth_utterance(0, 0.2, 8000, 11, k),
                          audio.synth_utterance(2, 0.2, 8000, 11, k), snr)
            for k, snr in ((0, 0.0), (1, 5.0))]
        net = M.SeparationModel(M.ModelConfig(d=32, r=2, h=8, chunk_len=32),
                                rng=np.random.default_rng(3))
        return net, examples

    def _loss(self):
        net, examples = self._criterion_6()
        ex = examples[0]
        loss, _ = T.pit_loss(net.separate(ex.mix),
                             tuple(Tensor(s) for s in ex.sources))
        return net, loss

    def test_no_intermediate_keeps_a_gradient(self):
        net, loss = self._loss()
        loss.backward()
        vertices = nm._topo_order(loss._node)
        nodes = [v for v in vertices if isinstance(v, nm._Node)]
        assert len(nodes) > 100
        # a node has no gradient slot, and every other vertex is a leaf
        assert not any(hasattr(n, "grad") for n in nodes)
        leaves = [v for v in vertices if not isinstance(v, nm._Node)]
        assert all(v._node is None and v.grad is not None for v in leaves)
        assert all(p.grad is not None for _, p in net.named_parameters())

    def test_leaf_gradients_equal_a_tape_that_keeps_every_gradient(self):
        net, loss = self._loss()
        # the same sweep, but every node's summed gradient is kept to the end
        kept = {id(loss._node): np.ones((), dtype=loss.dtype)}
        for node in reversed(nm._topo_order(loss._node)):
            g = kept.get(id(node))
            if g is None or not isinstance(node, nm._Node):
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is not None and parent is not None:
                    have = kept.get(id(parent))
                    kept[id(parent)] = pg if have is None else have + pg
        loss.backward()
        for name, p in net.named_parameters():
            assert np.array_equal(p.grad, kept[id(p)]), name

    def test_train_step_peak_memory(self):
        # a tape that kept every intermediate gradient peaked at 65 MB here,
        # one that kept every op output and saved intermediate at 42.5 MB, and
        # one whose scans each gated their own output (and kept it) at 30.8 MB;
        # gating the blocks' direction mean once measures 28.9 MB
        net, examples = self._criterion_6()
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=150, total_steps=2000)
        tracemalloc.start()
        try:
            T.train_toy(net, examples, sched, steps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"one train step peaked at {peak / 1e6:.1f} MB"

    def test_float32_model_trains_like_float64(self):
        # the parameters are cast directly; the loss follows their dtype
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=150, total_steps=2000)
        losses = {}
        for dtype in (np.float64, np.float32):
            net, examples = self._criterion_6()
            for p in net.params.values():
                p.data = p.data.astype(dtype)
            res = T.train_toy(net, examples, sched, steps=20, val_every=20)
            assert all(p.dtype == dtype for p in net.params.values())
            losses[dtype] = np.array([h["loss"] for h in res.history])
        # measured: at most 1.9e-6 relative over the 20 steps
        rel = np.abs(losses[np.float32] - losses[np.float64]) / np.abs(losses[np.float64])
        assert rel.max() < 1e-5, rel.max()

    def test_the_graph_is_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            net, loss = self._loss()
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestImprovementMetrics:
    def test_mixture_as_estimate_is_exactly_zero(self):
        a, b = _ref(14), _ref(15)
        mix = a + b
        perm = T.best_permutation((mix, mix), (a, b))
        for metric in (T.si_snr_value, T.sdr_value):
            assert T._improvement(metric, perm, (mix, mix), (a, b), mix) == 0.0

    def test_perfect_estimates_give_minus_baseline(self):
        a, b = _ref(16), _ref(17)
        mix = a + b
        base = (T.si_snr_value(mix, a) + T.si_snr_value(mix, b)) / 2
        got = T.si_snri((a, b), (a, b), mix)
        best = (T.si_snr_value(a, a) + T.si_snr_value(b, b)) / 2
        assert abs(got - (best - base)) < 1e-12
        assert got > 30.0

    def test_assignment_shared_between_metrics(self):
        a, b = _ref(18), _ref(19)
        mix = a + b
        swapped = T.si_snri((b, a), (a, b), mix)
        direct = T.si_snri((a, b), (a, b), mix)
        assert abs(swapped - direct) < 1e-12


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        p.grad = np.array([0.2, -7.0])
        opt = T.Adam([("p", p)])
        before = p.data.copy()
        opt.step(lr=0.01)
        np.testing.assert_allclose(np.abs(p.data - before), 0.01, rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([4.0, -4.0]), requires_grad=True)
        opt = T.Adam([("p", p)])
        for _ in range(400):
            opt.zero_grad()
            p.grad = 2 * p.data
            opt.step(lr=0.05)
        assert np.max(np.abs(p.data)) < 1e-2

    def test_nonfinite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.inf])
        with pytest.raises(TrainingDiverged):
            T.Adam([("p", p)]).step(lr=0.1)

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = T.Adam([("p", p)])
        opt.step(lr=0.1)
        assert p.data[0] == 1.0


class TestSchedule:
    def test_endpoints(self):
        s = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=200, total_steps=2000)
        assert s.lr(0) == 0.0
        assert abs(s.lr(200) - 1.5e-4) < 1e-18
        assert abs(s.lr(2000) - 1.5e-5) < 1e-18
        assert abs(s.lr(5000) - 1.5e-5) < 1e-18

    def test_frozen_cosine_midpoint(self):
        # halfway through decay: floor + (peak-floor)/2 = 8.25e-5
        s = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=100, total_steps=1100)
        assert abs(s.lr(600) - 8.25e-5) < 1e-12

    def test_warmup_is_linear(self):
        s = T.TrainSchedule(peak_lr=1e-3, warmup_steps=100, total_steps=1000)
        for k in (1, 37, 99):
            assert abs(s.lr(k) - 1e-3 * k / 100) < 1e-18

    def test_continuous_at_warmup_boundary(self):
        s = T.TrainSchedule(peak_lr=1e-3, warmup_steps=50, total_steps=500)
        assert abs(s.lr(49) - s.lr(50)) < 1e-3 / 50 + 1e-12

    def test_monotone_decay_after_warmup(self):
        s = T.TrainSchedule(peak_lr=1e-3, warmup_steps=10, total_steps=200)
        vals = [s.lr(k) for k in range(10, 201)]
        assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))

    def test_bad_warmup_rejected(self):
        with pytest.raises(NumericsError):
            T.TrainSchedule(peak_lr=1e-3, warmup_steps=300, total_steps=200)


class TestMixing:
    def test_sum_and_snr_and_peak(self):
        rng = np.random.default_rng(20)
        s1 = np.sin(np.linspace(0, 40, 900)) * 0.4
        s2 = rng.standard_normal(900)
        ex = T.mix_sources(s1, s2, 3.0)
        g1, g2 = ex.sources
        assert np.array_equal(ex.mix, g1 + g2)
        snr = 10 * math.log10((g1 @ g1) / (g2 @ g2))
        assert abs(snr - 3.0) < 1e-9
        assert abs(float(np.max(np.abs(ex.mix))) - 0.9) < 1e-12

    def test_silent_source_rejected(self):
        with pytest.raises(NumericsError, match="silent"):
            T.mix_sources(np.zeros(100), np.ones(100), 0.0)

    def test_snr_sampler_deterministic(self):
        a = T.sample_snr(np.random.default_rng(1))
        b = T.sample_snr(np.random.default_rng(1))
        assert a == b and 0.0 <= a <= 5.0


class TestTrainToy:
    def _examples(self, n=160):
        rng = np.random.default_rng(21)
        t = np.arange(n) / 8000.0
        s1 = np.sin(2 * math.pi * 200 * t) + 0.3 * np.sin(2 * math.pi * 400 * t)
        s2 = np.sin(2 * math.pi * 900 * t + 1.0)
        s1 += 0.01 * rng.standard_normal(n)
        s2 += 0.01 * rng.standard_normal(n)
        return [T.mix_sources(s1, s2, 0.0)]

    def _model(self, seed=0):
        cfg = M.ModelConfig(d=4, r=1, h=2, chunk_len=4)
        return M.SeparationModel(cfg, rng=np.random.default_rng(seed))

    def test_smoke_and_log(self, tmp_path):
        log = tmp_path / "log.csv"
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=6)
        res = T.train_toy(self._model(), self._examples(), sched,
                          log_path=log, val_every=3)
        assert res.steps_run == 6
        assert math.isfinite(res.final_loss)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss,si_snri"
        assert len(lines) == 7
        assert lines[1].startswith("0,0,")          # lr(0) == 0

    def test_deterministic(self):
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=4)
        r1 = T.train_toy(self._model(seed=3), self._examples(), sched)
        r2 = T.train_toy(self._model(seed=3), self._examples(), sched)
        assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]

    def test_divergence_detected(self):
        sched = T.TrainSchedule(peak_lr=1e8, warmup_steps=0, total_steps=30)
        with pytest.raises(TrainingDiverged):
            T.train_toy(self._model(), self._examples(), sched)

    def test_nan_stem_is_divergence(self, monkeypatch):
        # the NaN stem stays on the tape, so only the loss check can catch it
        separate = M.SeparationModel.separate

        def nan_stem(self, x):
            s1, s2 = separate(self, x)
            return nm.mul(s1, Tensor(np.full(s1.shape, np.nan))), s2

        monkeypatch.setattr(M.SeparationModel, "separate", nan_stem)
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=4)
        with pytest.raises(TrainingDiverged, match="loss became non-finite at step 0"):
            T.train_toy(self._model(), self._examples(), sched)

    def test_early_stop_threshold(self):
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=50)
        res = T.train_toy(self._model(), self._examples(), sched,
                          val_every=1, stop_at_si_snri=-1e9)
        assert res.steps_run == 1

    def test_no_examples_rejected(self):
        with pytest.raises(NumericsError):
            T.train_toy(self._model(), [],
                        T.TrainSchedule(1e-4, 1, 10))

    @pytest.mark.parametrize("val_every", [0, -3])
    def test_val_every_below_one_rejected(self, tmp_path, val_every):
        model = self._model()
        before = {name: p.data for name, p in model.params.items()}
        log = tmp_path / "log.csv"
        with pytest.raises(NumericsError, match="val_every"):
            T.train_toy(model, self._examples(), T.TrainSchedule(1e-4, 1, 10),
                        log_path=log, val_every=val_every)
        # refused before the first step: no weight moved, no log was opened
        assert all(p.data is before[name] for name, p in model.params.items())
        assert not log.exists()

    def test_evaluate_no_examples_rejected(self):
        with pytest.raises(NumericsError, match="no examples"):
            T.evaluate(self._model(), [])

    def test_evaluate_leaves_the_model_alone(self, monkeypatch):
        model = self._model(seed=4)
        params = model.params
        tensors = dict(params)
        seen = []
        separate = M.SeparationModel.separate

        def spy(self, x):
            seen.append(all(p.requires_grad for p in tensors.values()))
            return separate(self, x)

        monkeypatch.setattr(M.SeparationModel, "separate", spy)
        T.evaluate(model, self._examples() * 2)
        assert seen == [True, True]
        assert model.params is params
        assert all(model.params[name] is t for name, t in tensors.items())
        assert all(t.requires_grad and t.grad is None for t in tensors.values())

    def test_validation_records_no_tape(self, monkeypatch):
        sched = T.TrainSchedule(peak_lr=1.5e-4, warmup_steps=2, total_steps=3)
        stems = []
        separate = M.SeparationModel.separate

        def spy(self, x):
            out = separate(self, x)
            stems.append(out[0])
            return out

        monkeypatch.setattr(M.SeparationModel, "separate", spy)
        model = self._model(seed=5)
        res = T.train_toy(model, self._examples(), sched, val_every=1)
        # each step runs the training forward, then the validation
        assert [s._node is not None for s in stems] == [True, False] * 3
        assert all(p.requires_grad for _, p in model.named_parameters())

        def taped(model, examples):
            ests = [tuple(e.data for e in model.separate(ex.mix)) for ex in examples]
            perms = [T.best_permutation(est, ex.sources)
                     for est, ex in zip(ests, examples)]
            return tuple(float(np.mean([T._improvement(metric, perm, est, ex.sources,
                                                       ex.mix)
                                        for perm, est, ex in zip(perms, ests, examples)]))
                         for metric in (T.si_snr_value, T.sdr_value))

        monkeypatch.setattr(T, "evaluate", taped)
        ref = T.train_toy(self._model(seed=5), self._examples(), sched,
                          val_every=1)
        assert res.history == ref.history
        assert res.final_si_snri == ref.final_si_snri

    def test_time_budget_between_validations_scores_returned_weights(
            self, monkeypatch):
        # the clock passes the budget at the check after step 7; the last
        # validation ran at step 4
        ticks = iter(range(100))
        monkeypatch.setattr(T.time, "monotonic", lambda: float(next(ticks)))
        sched = T.TrainSchedule(peak_lr=1e-2, warmup_steps=0, total_steps=50)
        model = self._model()
        res = T.train_toy(model, self._examples(), sched, val_every=5,
                          time_budget_s=7.5)
        assert res.steps_run == 8
        assert res.final_si_snri == T.evaluate(model, self._examples())[0]

    def test_frozen_model_rejected(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        M.save_model(ckpt, self._model())
        with pytest.raises(NumericsError, match="frozen"):
            T.train_toy(M.SeparationModel.from_checkpoint(ckpt), self._examples(),
                        T.TrainSchedule(1e-4, 1, 10))
