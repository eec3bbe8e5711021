"""Model shapes, parameter accounting, checkpoint format, config parsing."""

import gc
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sepscan.audio as audio
import sepscan.model as M
import sepscan.numerics as nm
import sepscan.training as T
from sepscan.errors import DataFormatError
from sepscan.numerics import Tensor
from sepscan.training import si_snr_value

TINY = dict(d=4, r=1, h=2, chunk_len=4)


def tiny_model(seed=0, **over):
    cfg = M.ModelConfig(**{**TINY, **over})
    return M.SeparationModel(cfg, rng=np.random.default_rng(seed))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParameterCounts:
    # published size ladder, +/-2%
    LADDER = [
        ("xs", M.preset("xs"), 2.3e6),
        ("s", M.preset("s"), 8.1e6),
        ("m", M.preset("m"), 15.9e6),
        ("l", M.preset("l"), 59.8e6),
        ("s_h8", M.ModelConfig(d=256, r=8, h=8), 7.7e6),
        ("s_h32", M.ModelConfig(d=256, r=8, h=32), 8.9e6),
        ("s_uni", M.ModelConfig(d=256, r=8, bidirectional=False), 7.4e6),
    ]

    @pytest.mark.parametrize("name,cfg,target",
                             LADDER, ids=[r[0] for r in LADDER])
    def test_within_two_percent(self, name, cfg, target):
        n = M.count_parameters(cfg)
        assert abs(n - target) / target <= 0.02, f"{name}: {n} vs {target}"

    def test_frozen_exact_counts(self):
        assert M.count_parameters(M.preset("xs")) == 2_259_584
        assert M.count_parameters(M.preset("s")) == 8_123_648
        assert M.count_parameters(M.preset("m")) == 15_844_608
        assert M.count_parameters(M.preset("l")) == 59_738_624

    def test_inventory_matches_live_model(self):
        for over in ({}, {"norm_kind": "layernorm", "bidirectional": False}):
            mdl = tiny_model(**over)
            live = [(n, p.shape) for n, p in mdl.named_parameters()]
            assert live == M.parameter_shapes(mdl.config)
            assert (sum(p.size for _, p in mdl.named_parameters())
                    == M.count_parameters(mdl.config))

    @pytest.mark.parametrize("name,cfg,target", LADDER, ids=[r[0] for r in LADDER])
    def test_count_is_the_inventory_size(self, name, cfg, target):
        for c in (cfg, replace(cfg, norm_kind="layernorm", r=3)):
            assert M.count_parameters(c) == sum(
                int(np.prod(shape)) for _, shape in M.parameter_shapes(c))

    def test_count_of_a_billion_blocks_is_arithmetic(self):
        """A checkpoint's r is checked against its payload size through this
        count, so it must not enumerate r blocks."""
        def size(r):
            shapes = M.parameter_shapes(M.ModelConfig(d=2, r=r))
            return sum(int(np.prod(shape)) for _, shape in shapes)

        start = time.perf_counter()
        n = M.count_parameters(M.ModelConfig(d=2, r=10**9))
        assert time.perf_counter() - start < 0.01
        assert n == size(1) + (10**9 - 1) * (size(2) - size(1))


class TestShapes:
    @pytest.mark.parametrize("T", [16, 17, 8000, 32000])
    def test_output_length_equals_input_length(self, T):
        mdl = tiny_model(chunk_len=250)
        x = np.random.default_rng(T).standard_normal(T) * 0.1
        outs = mdl.separate(x)
        assert len(outs) == 2
        assert all(o.shape == (T,) for o in outs)

    def test_frame_count_examples(self):
        mdl = tiny_model()
        assert mdl.encode(Tensor(np.zeros(16))).shape[0] == 1
        assert mdl.encode(Tensor(np.zeros(8000))).shape[0] == 999

    def test_masks_nonnegative(self):
        mdl = tiny_model(seed=5)
        feats = mdl.encode(Tensor(np.random.default_rng(0).standard_normal(300)))
        for m in mdl.masks(feats):
            assert m.shape == feats.shape
            assert np.all(m.data >= 0)

    def test_zero_mask_decodes_to_silence(self):
        mdl = tiny_model()
        feats = mdl.encode(Tensor(np.random.default_rng(1).standard_normal(200)))
        zero = nm.mul(feats, Tensor(np.zeros(feats.shape)))
        out = mdl.decode(zero, 200)
        assert np.array_equal(out.data, np.zeros(200))


class TestPinnedOutput:
    """separate() against stems recorded from an earlier layout of the graph.

    Self-consistency tests pass whichever of the chunk axes the intra and
    inter scans run along; a fixed output does not.
    """

    # every 25th sample of each stem of a 0.05 s mixture (400 samples)
    STEMS = (
        [-0.0039025216146006316, -0.006269631572968209, -0.002316166269848197,
         0.0059411449999110435, -0.0019507440778173707, 0.018325226778924654,
         0.001044134642968229, 0.006694663364745181, -0.004152780713170786,
         -0.00442842290386356, -0.009378028989347443, -0.0005285511561208957,
         -0.005262303522714109, -0.0009509374502308602, -0.0071216261682776495,
         0.0019891912584546045],
        [-0.0008596644151467223, 0.0052117506244512, -6.635782386943618e-05,
         0.0023743357500386553, 0.01911942395537518, -0.0038885788149034817,
         -0.0001322121585653671, 0.0010458428357312546, 0.0012414623662481252,
         -0.008049764424932524, -0.006503952035898751, -0.0004412221724623193,
         -0.004303901858030918, 0.0009580605270907807, -0.008138029934228698,
         0.0017531995108331826],
    )

    def test_separate_matches_recorded_stems(self):
        mix = T.mix_sources(audio.synth_utterance(0, 0.05, 8000, 21, 0),
                            audio.synth_utterance(2, 0.05, 8000, 21, 0), 0.0).mix
        mdl = M.SeparationModel(M.ModelConfig(d=8, r=2, h=4, chunk_len=16),
                                rng=np.random.default_rng(8))
        for est, want in zip(mdl.separate(mix), self.STEMS, strict=True):
            assert est.dtype == np.float64 and est.shape == (400,)
            np.testing.assert_allclose(est.data[::25], want, rtol=1e-9, atol=0)


class TestPinnedInit:
    """Seeded initial values of a config TestPinnedOutput does not cover:
    a layernorm, unidirectional model, one sum per parameter."""

    CFG = M.ModelConfig(d=8, r=1, h=4, chunk_len=16, norm_kind="layernorm",
                        bidirectional=False)
    SUMS = {
        "encoder": 2.8967898276117143,
        "decoder": -1.4459622341829512,
        "pre_norm.gain": 8.0,
        "pre_norm.bias": 0.0,
        "input_proj": -0.4771030338312773,
        "blocks.0.intra_norm.gain": 8.0,
        "blocks.0.intra_norm.bias": 0.0,
        "blocks.0.intra_scan.w_in": -2.4287980610410482,
        "blocks.0.intra_scan.w_gate": -2.727101667735151,
        "blocks.0.intra_scan.w_out": 0.1755510668083211,
        "blocks.0.intra_scan.fwd.conv_kernel": -1.474194657211403,
        "blocks.0.intra_scan.fwd.conv_bias": -0.6105134146955449,
        "blocks.0.intra_scan.fwd.proj.w_delta_down": -0.4520784758177411,
        "blocks.0.intra_scan.fwd.proj.w_delta_up": 3.56086738680924,
        "blocks.0.intra_scan.fwd.proj.b_delta": -69.79090351422778,
        "blocks.0.intra_scan.fwd.proj.w_b": -2.4383757644596162,
        "blocks.0.intra_scan.fwd.proj.w_c": -0.4180194288116082,
        "blocks.0.intra_scan.fwd.a_log": 50.84886128556713,
        "blocks.0.intra_scan.fwd.d_skip": 16.0,
        "blocks.0.inter_norm.gain": 8.0,
        "blocks.0.inter_norm.bias": 0.0,
        "blocks.0.inter_scan.w_in": 0.18181909887405778,
        "blocks.0.inter_scan.w_gate": 5.080274393039019,
        "blocks.0.inter_scan.w_out": -1.3184051519022824,
        "blocks.0.inter_scan.fwd.conv_kernel": 0.13019714661591208,
        "blocks.0.inter_scan.fwd.conv_bias": -0.3592524009422512,
        "blocks.0.inter_scan.fwd.proj.w_delta_down": 0.3680326831180012,
        "blocks.0.inter_scan.fwd.proj.w_delta_up": -5.166970063848771,
        "blocks.0.inter_scan.fwd.proj.b_delta": -72.82859666762721,
        "blocks.0.inter_scan.fwd.proj.w_b": -1.804376104596068,
        "blocks.0.inter_scan.fwd.proj.w_c": -0.22642304933312563,
        "blocks.0.inter_scan.fwd.a_log": 50.84886128556713,
        "blocks.0.inter_scan.fwd.d_skip": 16.0,
        "mask_head_w": -1.4657511384376305,
        "mask_head_b": -0.7607149104036905,
        "out_proj_w": 0.7145117827032959,
        "out_proj_b": 0.3403490626611221,
        "out_gate_w": -0.8225991576002221,
        "out_gate_b": 0.5454724239630196,
        "final_proj": 0.5824092081638228,
    }

    def test_per_parameter_sums(self):
        mdl = M.SeparationModel(self.CFG, rng=np.random.default_rng(13))
        params = mdl.named_parameters()
        assert [n for n, _ in params] == list(self.SUMS)
        got = [float(p.data.sum()) for _, p in params]
        np.testing.assert_allclose(got, list(self.SUMS.values()), rtol=1e-12, atol=0)


class TestEncodeDecodePlumbing:
    def test_identity_basis_overlap_add_pattern(self):
        # with encoder = I and decoder = I/2, interior samples (covered by
        # two frames at 50% overlap) reconstruct exactly; the first and
        # last `stride` samples are halved
        mdl = tiny_model(d=16)
        mdl.params["encoder"].data = np.eye(16)
        mdl.params["decoder"].data = 0.5 * np.eye(16)
        T = 64
        x = np.random.default_rng(2).standard_normal(T)
        y = mdl.decode(mdl.encode(Tensor(x)), T).data
        np.testing.assert_allclose(y[8:-8], x[8:-8], atol=1e-12)
        np.testing.assert_allclose(y[:8], 0.5 * x[:8], atol=1e-12)
        np.testing.assert_allclose(y[-8:], 0.5 * x[-8:], atol=1e-12)

    def test_decode_rejects_short_cover(self):
        mdl = tiny_model()
        feats = Tensor(np.zeros((4, 3)).T)   # covers (3-1)*8+16 = 32 samples
        with pytest.raises(nm.NumericsError):
            mdl.decode(feats, 64)


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a, b = tiny_model(seed=9), tiny_model(seed=9)
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_different_seed_different_weights(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        assert not np.array_equal(a.params["encoder"].data, b.params["encoder"].data)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        mdl = tiny_model(seed=3)
        p = tmp_path / "m.ckpt"
        M.save_model(p, mdl)
        back = M.SeparationModel.from_checkpoint(p)
        assert back.config == mdl.config
        for (n1, a), (n2, b) in zip(mdl.named_parameters(),
                                    back.named_parameters()):
            assert n1 == n2
            assert np.array_equal(a.data.astype("<f4"), b.data.astype("<f4"))

    def test_loaded_models_agree_exactly(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model(seed=4))
        m1 = M.SeparationModel.from_checkpoint(p)
        m2 = M.SeparationModel.from_checkpoint(p)
        x = np.random.default_rng(0).standard_normal(120) * 0.3
        o1, o2 = m1.separate(x), m2.separate(x)
        assert np.array_equal(o1[0].data, o2[0].data)
        assert np.array_equal(o1[1].data, o2[1].data)

    def test_header_is_readable_text(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model())
        header = ("sepscan-checkpoint 3\n[config]\nd = 4\nr = 1\nh = 2\n"
                  "chunk_len = 4\nnorm_kind = rmsnorm\nbidirectional = true\n"
                  "exact_zoh = false\nencoder_relu = false\n[data]\n")
        blob = p.read_bytes()
        assert blob[:len(header)].decode("ascii") == header
        assert len(blob) == len(header) + 4 * M.count_parameters(M.ModelConfig(**TINY))

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model())
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError, match="payload"):
            M.load_checkpoint(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"something-else 1\n[data] 0\n")
        with pytest.raises(DataFormatError, match="magic"):
            M.load_checkpoint(p)

    def test_state_shape_mismatch_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model())
        cfg, arrays = M.load_checkpoint(p)
        arrays["encoder"] = arrays["encoder"][:, :8]
        with pytest.raises(DataFormatError, match="encoder"):
            tiny_model().load_state(arrays)

    def test_non_finite_weight_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        mdl = tiny_model()
        mdl.params["final_proj"].data[0, 0] = np.nan
        M.save_model(p, mdl)
        cfg, arrays = M.load_checkpoint(p)
        target = tiny_model(seed=1)
        before = target.params["encoder"].data.copy()
        with pytest.raises(DataFormatError, match="final_proj"):
            target.load_state(arrays)
        assert np.array_equal(target.params["encoder"].data, before)
        with pytest.raises(DataFormatError, match="'final_proj': non-finite"):
            M.SeparationModel.from_checkpoint(p)

    def test_missing_param_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model())
        cfg, arrays = M.load_checkpoint(p)
        del arrays["final_proj"]
        with pytest.raises(DataFormatError, match="mismatch"):
            tiny_model().load_state(arrays)

    def test_version_1_rejected(self, tmp_path, old_format_checkpoint):
        """Format-1 (front-end config keys, offset records) and format-2
        (name/shape records, counted [data]) files are refused by their
        version, before anything else in them is read."""
        mdl = tiny_model()
        for version in (1, 2):
            p = tmp_path / f"v{version}.ckpt"
            p.write_bytes(old_format_checkpoint(mdl, version))
            with pytest.raises(DataFormatError, match=f"unsupported version {version}"):
                M.load_checkpoint(p)

    def test_load_holds_the_payload_once(self, tmp_path, xs_model):
        """The arrays are views of one buffer the payload is read into, so the
        load's peak is about the payload: no file blob, slice or copies."""
        p = tmp_path / "xs.ckpt"
        M.save_model(p, xs_model)
        payload = 4 * M.count_parameters(xs_model.config)
        assert payload >= 8 << 20
        gc.collect()
        tracemalloc.start()
        try:
            _, arrays = M.load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * payload
        for (name, t), a in zip(xs_model.params.items(), arrays.values(),
                                strict=True):
            assert a.flags.aligned and a.flags.writeable
            assert np.array_equal(a, t.data.astype(np.float32)), name

    @pytest.fixture(scope="class")
    def xs_model(self):
        return M.SeparationModel(M.preset("xs"), rng=np.random.default_rng(7))

    def test_save_holds_one_parameter_at_a_time(self, tmp_path, xs_model):
        payload = 4 * M.count_parameters(xs_model.config)          # 9.0 MB
        peak = traced_peak(lambda: M.save_model(tmp_path / "xs.ckpt", xs_model))
        assert peak <= 0.25 * payload

    def test_from_checkpoint_draws_nothing(self, tmp_path, xs_model):
        """The frozen model's weights are the payload's views: no random
        model is drawn to be overwritten and no weight is copied."""
        p = tmp_path / "xs.ckpt"
        M.save_model(p, xs_model)
        payload = 4 * M.count_parameters(xs_model.config)
        peak = traced_peak(lambda: M.SeparationModel.from_checkpoint(p))
        assert peak <= 1.5 * payload

    @pytest.mark.parametrize("unit", [b"x", b"not a checkpoint\n"],
                             ids=["no_newline", "text"])
    def test_large_non_checkpoint_refused_after_one_line(self, tmp_path, unit):
        p = tmp_path / "big.bin"
        p.write_bytes(unit * (20_000_000 // len(unit)))

        def load():
            with pytest.raises(DataFormatError, match="checkpoint"):
                M.load_checkpoint(p)

        assert traced_peak(load) < 1_000_000

    # junk after the magic line, in the config, after a format-2 [params]
    # heading (read as one more config line) and as the payload
    JUNK_AFTER = {
        "magic": b"sepscan-checkpoint 3\n",
        "config": b"sepscan-checkpoint 3\n[config]\n",
        "params": b"sepscan-checkpoint 3\n[config]\nd = 2\nr = 1\n[params]\n",
        "data": b"sepscan-checkpoint 3\n[config]\nd = 2\nr = 1\n[data]\n",
    }

    @pytest.mark.parametrize("megabytes", [2, 20])
    @pytest.mark.parametrize("section", JUNK_AFTER.keys())
    def test_many_line_junk_refused_in_bounded_memory(self, tmp_path, section,
                                                      megabytes):
        """The header holds a bounded number of lines and the payload's size
        is checked before it is read, so a valid start followed by millions
        of short lines is refused within KiBs."""
        p = tmp_path / "junk.ckpt"
        p.write_bytes(self.JUNK_AFTER[section] + b"x\n" * (megabytes * 500_000))

        def load():
            with pytest.raises(DataFormatError, match="checkpoint"):
                M.load_checkpoint(p)

        assert traced_peak(load) < 1_000_000

    def test_huge_block_count_refused_by_count(self, tmp_path):
        """A config's r is counted, not enumerated: r = 1e9 would otherwise
        build a list of 4.4e10 parameter names and shapes before the refusal."""
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"sepscan-checkpoint 3\n[config]\nd = 2\nr = 1000000000\n"
                      b"[data]\n" + bytes(128))

        def load():
            with pytest.raises(DataFormatError,
                               match="payload is 128 bytes, .* take 3856000000392"):
                M.SeparationModel.from_checkpoint(p)

        assert traced_peak(load) < 1_000_000

    # (a line of the tiny model's header, its replacement)
    MALFORMED_HEADERS = {
        "version_not_int": ("sepscan-checkpoint 3", "sepscan-checkpoint one"),
        "width_not_int": ("d = 4", "d = four"),
        "width_past_float": ("d = 4", "d = 1" + "0" * 400),
        "counted_data_line": ("[data]", "[data] 84"),
        "no_data_line": ("[data]", "[params]"),
    }

    @pytest.mark.parametrize("line,text", MALFORMED_HEADERS.values(),
                             ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_is_data_error(self, tmp_path, line, text):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model())
        head, sep, payload = p.read_bytes().partition(b"\n[data]\n")
        lines = (head + sep).decode("ascii").split("\n")
        lines[lines.index(line)] = text
        p.write_bytes("\n".join(lines).encode("ascii") + payload)
        with pytest.raises(DataFormatError, match="checkpoint|config"):
            M.load_checkpoint(p)

    def test_failed_save_leaves_the_older_file_as_it_was(self, tmp_path,
                                                         monkeypatch):
        p = tmp_path / "m.ckpt"
        M.save_model(p, tiny_model(seed=1))
        older = p.read_bytes()
        real, calls = np.ascontiguousarray, []

        def full_disk(*args, **kwargs):      # the header and one parameter fit
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", full_disk)
        with pytest.raises(OSError, match="No space"):
            M.save_model(p, tiny_model(seed=2))
        monkeypatch.undo()
        assert len(calls) == 2
        assert p.read_bytes() == older
        assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]

    def test_save_refuses_a_reshaped_parameter(self, tmp_path):
        mdl = tiny_model()
        mdl.params["encoder"].data = mdl.params["encoder"].data.reshape(8, 8)
        p = tmp_path / "m.ckpt"
        with pytest.raises(DataFormatError, match="'encoder': shape"):
            M.save_model(p, mdl)
        assert not p.exists()


class TestInferenceModel:
    """A loaded checkpoint is frozen float32; load_state keeps a trainable model."""

    CFG = M.ModelConfig(d=16, r=2, h=4, chunk_len=32)

    @pytest.fixture
    def saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save_model(p, M.SeparationModel(self.CFG, rng=np.random.default_rng(6)))
        return p

    @staticmethod
    def mix(seconds):
        return np.random.default_rng(7).standard_normal(int(8000 * seconds)) * 0.3

    def trainable(self, path):
        mdl = M.SeparationModel(self.CFG)
        mdl.load_state(M.load_checkpoint(path)[1])
        return mdl

    def test_outputs_are_float32_and_tape_free(self, saved):
        mdl = M.SeparationModel.from_checkpoint(saved)
        assert all(p.dtype == np.float32 and not p.requires_grad
                   for _, p in mdl.named_parameters())
        for est in mdl.separate(self.mix(0.1)):
            assert est.dtype == np.float32
            assert est.requires_grad is False and est._node is None

    def test_matches_float64_model_with_the_same_weights(self, saved):
        x = self.mix(0.25)
        fast = M.SeparationModel.from_checkpoint(saved).separate(x)
        ref = self.trainable(saved).separate(x)
        for est, r in zip(fast, ref, strict=True):
            assert si_snr_value(est.data, r.data) >= 60.0

    def test_peak_memory_a_fifth_of_the_trainable_model(self, saved):
        x = self.mix(1.0)

        def peak(mdl):
            gc.collect()
            tracemalloc.start()
            try:
                mdl.separate(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        frozen = peak(M.SeparationModel.from_checkpoint(saved))
        assert frozen * 5 <= peak(self.trainable(saved))

    def test_peak_memory_linear_in_input_length(self, tmp_path):
        p = tmp_path / "d16.ckpt"
        M.save_model(p, M.SeparationModel(M.ModelConfig(d=16, r=2),
                                          rng=np.random.default_rng(6)))
        mdl = M.SeparationModel.from_checkpoint(p)

        def peak(seconds):
            x = self.mix(seconds)
            gc.collect()
            tracemalloc.start()
            try:
                mdl.separate(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 1.89 measured; a per-step state or tape kept across the scan
        # would grow faster than the input
        one = peak(1.0)
        assert peak(2.0) <= 2.3 * one

    def test_threads_sharing_the_model_match_one_thread_calls(self, saved):
        # the scans' step buffers belong to each call, so threads that share
        # one frozen model and switch every few microseconds get the stems
        # of one-thread calls bit for bit; more threads than cores, and
        # inputs of one length, so every scan shape is common to them
        mdl = M.SeparationModel.from_checkpoint(saved)
        inputs = [np.random.default_rng(20 + i).standard_normal(4000) * 0.3
                  for i in range(4)]
        want = [[est.data for est in mdl.separate(x)] for x in inputs]
        got = [None] * len(inputs)
        start = threading.Barrier(len(inputs))

        def run(i):
            start.wait(timeout=60)
            got[i] = [est.data for est in mdl.separate(inputs[i])]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for stems, ref in zip(got, want, strict=True):
            assert stems is not None
            assert all(np.array_equal(a, b) for a, b in zip(stems, ref, strict=True))

    def test_load_state_stays_float64_and_trainable(self, saved):
        mdl = self.trainable(saved)
        params = mdl.named_parameters()
        assert all(p.dtype == np.float64 and p.requires_grad for _, p in params)
        s1, s2 = mdl.separate(self.mix(0.05))
        nm.tsum(nm.mul(s1, s2)).backward()
        assert all(p.grad is not None for _, p in params)

    def test_float64_input_to_frozen_model_rejected(self, saved):
        mdl = M.SeparationModel.from_checkpoint(saved)
        with pytest.raises(nm.NumericsError, match="float32"):
            mdl.separate(Tensor(self.mix(0.05)))


class TestConfig:
    def test_text_roundtrip(self):
        cfg = M.ModelConfig(d=12, r=3, h=4, norm_kind="layernorm",
                            bidirectional=False, exact_zoh=True)
        assert M.config_from_text(M.config_to_text(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = M.config_from_text("# header\n\nd = 8   # inline\nr = 2\n")
        assert (cfg.d, cfg.r) == (8, 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError, match="unknown key"):
            M.config_from_text("d = 8\nr = 2\nwidth = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(DataFormatError, match="bad value"):
            M.config_from_text("d = eight\nr = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            M.config_from_text("d = 8\nd = 9\nr = 2\n")

    def test_requires_d_and_r(self):
        with pytest.raises(DataFormatError):
            M.config_from_text("d = 8\n")

    def test_bool_parsing(self):
        cfg = M.config_from_text("d = 8\nr = 2\nbidirectional = false\n"
                                 "exact_zoh = true\n")
        assert cfg.bidirectional is False and cfg.exact_zoh is True

    def test_preset_names(self):
        assert M.preset("XS").d == 128
        with pytest.raises(DataFormatError, match="preset"):
            M.preset("xxl")

    def test_load_config_path_or_preset(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("d = 6\nr = 2\n")
        assert M.load_config(f).d == 6
        assert M.load_config("m").r == 16
        with pytest.raises(DataFormatError):
            M.load_config(tmp_path / "missing.cfg")

    def test_config_files_are_the_presets(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert sorted(f.stem for f in configs.glob("*.cfg")) == sorted(M.PRESETS)
        for name in M.PRESETS:
            assert M.load_config(configs / f"{name}.cfg") == M.preset(name)

    @pytest.mark.parametrize("chunk_len", [M.CHUNK_LEN_MAX + 2, 2_000_000_000, 10**200],
                             ids=["max+2", "2e9", "1e200"])
    def test_oversized_chunk_len_rejected(self, chunk_len):
        # before any allocation: 10**200 made np.pad raise TypeError and
        # 2e9 asked for a 954 GiB array
        with pytest.raises(DataFormatError, match="chunk_len"):
            M.config_from_text(f"d = 4\nr = 1\nchunk_len = {chunk_len}\n")
        assert M.config_from_text(f"d = 4\nr = 1\nchunk_len = {M.CHUNK_LEN_MAX}\n"
                                  ).chunk_len == M.CHUNK_LEN_MAX

    def test_invalid_field_values_rejected(self):
        with pytest.raises(DataFormatError):
            M.ModelConfig(d=0, r=1)
        with pytest.raises(DataFormatError):
            M.ModelConfig(d=4, r=1, norm_kind="instance")
        with pytest.raises(DataFormatError, match="chunk_len"):
            M.ModelConfig(d=4, r=1, chunk_len=5)
        # the encoder geometry, speaker count and rate are module constants
        for key, value in (("num_speakers", 3), ("enc_stride", 20),
                           ("sample_rate", 0)):
            with pytest.raises(DataFormatError, match=f"unknown key '{key}'"):
                M.config_from_text(f"d = 8\nr = 2\n{key} = {value}\n")
