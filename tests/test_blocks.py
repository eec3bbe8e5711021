"""Gated scan block: direction symmetry, gating, init, parameter names."""

import gc
import tracemalloc

import numpy as np
import pytest

import sepscan.blocks as blocks
import sepscan.model as M
import sepscan.numerics as nm
from sepscan.gradcheck import run_suite
from sepscan.numerics import Tensor


def _input(rng, D, L):
    return Tensor((rng.standard_normal((D, L)) * 0.5).T)


def _block(d, h, rng, bidirectional=True):
    """The first scan block's entries of a freshly drawn one-block model."""
    cfg = M.ModelConfig(d=d, r=1, h=h, bidirectional=bidirectional)
    return blocks.scope(M.init_parameters(cfg, rng), "blocks.0.intra_scan")


class TestDtRank:
    def test_ladder(self):
        assert blocks.dt_rank_for(1) == 1
        assert blocks.dt_rank_for(16) == 1
        assert blocks.dt_rank_for(17) == 2
        assert blocks.dt_rank_for(128) == 8
        assert blocks.dt_rank_for(256) == 16
        assert blocks.dt_rank_for(512) == 32


class TestInit:
    def test_state_decay_ladder(self):
        # continuous-time poles initialize to -(h+1) per state index
        rng = np.random.default_rng(0)
        w = _block(4, 6, rng)
        a = -np.exp(w["fwd.a_log"].data)
        for h in range(6):
            np.testing.assert_allclose(a[:, h], -(h + 1), rtol=1e-12)

    def test_skip_starts_at_identity(self):
        rng = np.random.default_rng(0)
        w = _block(4, 6, rng)
        assert np.all(w["fwd.d_skip"].data == 1.0)

    def test_delta_bias_range(self):
        # softplus(b_delta) must land inside the documented [1e-3, 1e-1]
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = _block(8, 4, rng)
            dt = np.log1p(np.exp(w["fwd.proj.b_delta"].data))
            assert np.all(dt >= 1e-3 - 1e-12) and np.all(dt <= 1e-1 + 1e-12)

    def test_unidirectional_has_no_backward(self):
        rng = np.random.default_rng(2)
        w = _block(4, 3, rng, bidirectional=False)
        assert "fwd.a_log" in w
        assert not blocks.scope(w, "bwd")


class TestDirectionSymmetry:
    def test_tied_weights_flip_equivariance(self):
        # with bwd == fwd the block commutes with time reversal
        rng = np.random.default_rng(3)
        w = _block(3, 4, rng)
        for name, p in blocks.scope(w, "fwd").items():
            w[f"bwd.{name}"] = Tensor(p.data)
        x = _input(rng, 3, 11)
        xr = Tensor(x.data[::-1].copy())
        y = blocks.bi_scan_forward(x, w, False).data
        yr = blocks.bi_scan_forward(xr, w, False).data
        np.testing.assert_allclose(yr, y[::-1], atol=1e-12)

    def test_swapping_directions_equals_flipping_input(self):
        rng = np.random.default_rng(4)
        w = _block(3, 4, rng)
        other = {"fwd.": "bwd.", "bwd.": "fwd."}       # fwd.* <-> bwd.*
        swapped = {other.get(name[:4], name[:4]) + name[4:]: p
                   for name, p in w.items()}
        x = _input(rng, 3, 9)
        xr = Tensor(x.data[::-1].copy())
        y = blocks.bi_scan_forward(x, w, False).data
        ys = blocks.bi_scan_forward(xr, swapped, False).data
        np.testing.assert_allclose(ys, y[::-1], atol=1e-12)

    def test_unidirectional_ignores_future(self):
        # causal: outputs before an input bump must not change
        rng = np.random.default_rng(5)
        w = _block(3, 4, rng, bidirectional=False)
        x = rng.standard_normal((3, 12)).T
        base = blocks.bi_scan_forward(Tensor(x.copy()), w, False).data
        x2 = x.copy()
        x2[8] += 1.0
        out = blocks.bi_scan_forward(Tensor(x2), w, False).data
        np.testing.assert_allclose(out[:8], base[:8], atol=1e-12)
        assert not np.allclose(out[8:], base[8:])

    def test_bidirectional_sees_future(self):
        rng = np.random.default_rng(6)
        w = _block(3, 4, rng)
        x = rng.standard_normal((3, 12)).T
        base = blocks.bi_scan_forward(Tensor(x.copy()), w, False).data
        x2 = x.copy()
        x2[8] += 1.0
        out = blocks.bi_scan_forward(Tensor(x2), w, False).data
        assert not np.allclose(out[:8], base[:8])


def _branches(x, w):
    """The shared gate and the ungated forward and backward branch outputs
    of one block."""
    h_in = nm.matmul(w["w_in"], x)
    gate = nm.silu(nm.matmul(w["w_gate"], x))
    fwd, bwd = blocks.scope(w, "fwd"), blocks.scope(w, "bwd")
    return (gate,
            blocks._branch(blocks._conv(h_in, fwd, reverse=False), fwd, False,
                           reverse=False),
            blocks._branch(blocks._conv(h_in, bwd, reverse=True), bwd, False,
                           reverse=True))


class TestGating:
    def test_both_branches_share_the_gate(self):
        # zeroing the shared gate projection silences the block, whether it
        # merges two directions or has one
        rng = np.random.default_rng(7)
        for bidirectional in (True, False):
            w = _block(3, 4, rng, bidirectional)
            w["w_gate"].data[...] = 0.0      # silu(0) == 0 exactly
            out = blocks.bi_scan_forward(_input(rng, 3, 8), w, False)
            assert np.all(out.data == 0.0), bidirectional

    def test_branch_merge_is_mean(self):
        # the gate multiplies the mean of the two directions once
        rng = np.random.default_rng(8)
        w = _block(3, 4, rng)
        x = _input(rng, 3, 8)
        y = blocks.bi_scan_forward(x, w, False)
        gate, s_f, s_b = _branches(x, w)
        merged = nm.matmul(w["w_out"], nm.mul(gate, nm.mean_pair(s_f, s_b)))
        np.testing.assert_array_equal(y.data, merged.data)

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(9)
        w = _block(2, 3, rng)
        x = _input(rng, 2, 6)
        blocks.bi_scan_forward(x, w, False).sum().backward()
        for name, p in w.items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), f"zero gradient for {name}"


class TestBatched:
    def test_batched_matches_loop(self):
        rng = np.random.default_rng(10)
        w = _block(3, 4, rng)
        x = np.moveaxis(rng.standard_normal((5, 3, 7)) * 0.5, -1, 0)
        batched = blocks.bi_scan_forward(Tensor(x), w, False).data
        for i in range(5):
            single = blocks.bi_scan_forward(Tensor(x[:, i].copy()), w, False).data
            np.testing.assert_allclose(batched[:, i], single, atol=1e-12)

    @pytest.mark.parametrize("taped", [False, True])
    def test_empty_sequence(self, taped):
        # L = 0: the untaped block's tile rule must not divide by the empty
        # array's size; the taped block backpropagates zeros
        w = {name: Tensor(p.data, requires_grad=taped)
             for name, p in _block(3, 4, np.random.default_rng(11)).items()}
        h = Tensor(np.zeros((0, 5, 3)), requires_grad=taped)
        y = blocks.bi_scan_forward(h, w, False)
        assert y.shape == (0, 5, 3)
        if taped:
            y.sum().backward()
            for leaf in (h, *w.values()):
                assert leaf.grad.shape == leaf.shape and not np.any(leaf.grad)


class TestBatchTiles:
    """An untaped block runs over byte-sized tiles of its batch axis."""

    @pytest.fixture(scope="class")
    def xs(self, tmp_path_factory):
        """A frozen float32 xs model, as `separate` loads it."""
        p = tmp_path_factory.mktemp("xs") / "xs.ckpt"
        M.save_model(p, M.SeparationModel(M.preset("xs"),
                                          rng=np.random.default_rng(3)))
        return M.SeparationModel.from_checkpoint(p)

    @staticmethod
    def mix(seconds):
        return np.random.default_rng(5).standard_normal(int(8000 * seconds)) * 0.3

    @staticmethod
    def stems(model, x, tile_bytes):
        """The stems at a tile size, and each bi_scan_forward call's tile
        batch sizes, one list per call in call order."""
        calls = []
        forward, run = blocks.bi_scan_forward, blocks._bi_scan

        def counted_forward(*args):
            calls.append([])
            return forward(*args)

        def counted_run(h, *args):
            calls[-1].append(h.shape[1])
            return run(h, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "_TILE_BYTES", tile_bytes)
            mp.setattr(blocks, "bi_scan_forward", counted_forward)
            mp.setattr(blocks, "_bi_scan", counted_run)
            return np.stack([e.data for e in model.separate(x)]), calls

    @pytest.fixture(scope="class")
    def untiled_1s(self, xs):
        return self.stems(xs, self.mix(1.0), 1 << 62)[0]

    # 512 KiB splits both passes at 1 s into 4 tiles of whole GEMMs; 1 byte
    # makes every tile one batch row, whose few-row GEMMs round differently:
    # measured 4.8e-7 of the peak amplitude, a few float32 ulps
    @pytest.mark.parametrize("tile_bytes,tol", [(512 * 1024, 0.0), (1, 1e-5)],
                             ids=["512KiB", "one_row"])
    def test_small_tiles_match_the_untiled_block(self, xs, untiled_1s,
                                                 tile_bytes, tol):
        got, calls = self.stems(xs, self.mix(1.0), tile_bytes)
        # the tracer files a dp_block's first call as intra, its second as
        # inter, so each pass is one call however many tiles it runs
        assert len(calls) == 2 * xs.config.r
        assert all(len(tiles) >= 3 for tiles in calls)
        # intra: 7 chunks per batch; inter: 250 positions
        assert {sum(t) for t in calls[0::2]} == {7}
        assert {sum(t) for t in calls[1::2]} == {250}
        if tol == 0.0:
            assert np.array_equal(got, untiled_1s)
        else:
            np.testing.assert_allclose(got, untiled_1s, rtol=0,
                                       atol=tol * np.abs(untiled_1s).max())

    @pytest.mark.parametrize("seconds", [1.0, 2.0])
    def test_default_tile_is_bit_identical(self, xs, untiled_1s, seconds):
        x = self.mix(seconds)
        got, calls = self.stems(xs, x, blocks._TILE_BYTES)
        assert len(calls) == 2 * xs.config.r
        assert len(calls[0]) >= 2          # the tiles engage at 1 s
        if seconds == 1.0:
            ref = untiled_1s
        else:
            ref, _ = self.stems(xs, x, 1 << 62)
        assert np.array_equal(got, ref)

    @staticmethod
    def peak(model, x):
        gc.collect()
        tracemalloc.start()
        try:
            model.separate(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_at_1s_is_bounded(self, xs):
        """10.85 MB measured; 14.44 MB while masks, dp_block and the block
        held arrays they no longer read.  The bound leaves 10%."""
        assert self.peak(xs, self.mix(1.0)) <= 12e6

    def test_peak_at_10s_is_bounded(self, xs):
        """61.64 MB measured with 1 MiB tiles; 205 MB untiled, where every
        E-wide temporary of a block held the whole batch.  The bound leaves
        7%."""
        assert self.peak(xs, self.mix(10.0)) <= 66e6


class TestNamedParameters:
    def test_names_unique_and_complete(self):
        rng = np.random.default_rng(11)
        # the dict would hide a name the inventory repeats
        cfg = M.ModelConfig(d=4, r=2, h=3)
        inventory = [n for n, _ in M.parameter_shapes(cfg)]
        assert len(inventory) == len(set(inventory))
        w = _block(4, 3, rng)
        names = list(w)
        assert "w_in" in names and "fwd.proj.w_b" in names
        assert any(n.startswith("bwd.") for n in names)

    def test_per_direction_count_formula(self):
        # E(2*dt_rank + 3H + 7) per direction
        rng = np.random.default_rng(12)
        d, h = 8, 5
        e, dtr = 2 * d, blocks.dt_rank_for(d)
        w = _block(d, h, rng)
        fwd = sum(p.size for p in blocks.scope(w, "fwd").values())
        assert fwd == e * (2 * dtr + 3 * h + 7)


def test_block_gradients():
    results = run_suite("blocks")
    bad = [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.ok]
    assert not bad, f"block gradchecks failed: {bad}"
