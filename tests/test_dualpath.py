"""Chunking, overlap-add reconstruction, norms, and the dual-path block."""

import numpy as np
import pytest

import sepscan.blocks as blocks
import sepscan.dualpath as dp
import sepscan.model as M
import sepscan.numerics as nm
from sepscan.gradcheck import run_suite
from sepscan.numerics import NumericsError, Tensor


class TestChunk:
    def test_worked_example(self):
        # N=6, K=4, hop=2 -> two frames [0..3] and [2..5]
        x = Tensor(np.arange(6.0)[:, None])
        cf = dp.chunk(x, 4)
        assert cf.shape == (2, 4, 1)
        np.testing.assert_array_equal(cf.data[0, :, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(cf.data[1, :, 0], [2, 3, 4, 5])

    def test_short_input_zero_padded(self):
        x = Tensor(np.arange(3.0)[:, None])
        cf = dp.chunk(x, 4)
        assert cf.shape == (1, 4, 1)
        np.testing.assert_array_equal(cf.data[0, :, 0], [0, 1, 2, 0])

    def test_frame_count_formula(self):
        for n in (1, 5, 63, 64, 65, 250, 999):
            x = Tensor(np.zeros((2, n)).T)
            cf = dp.chunk(x, 64)
            hop = 32
            expect = max(0, -(-(n - 64) // hop)) + 1 if n > 64 else 1
            assert cf.shape[0] == expect, n

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 700))
            k = int(rng.integers(2, 80)) * 2
            x = rng.standard_normal((3, n)).T
            cf = dp.chunk(Tensor(x), k)
            back = dp.dechunk(cf, n).data
            assert back.shape == (n, 3)
            assert np.array_equal(back, x), (n, k)

    def test_roundtrip_k250(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            x = rng.standard_normal((2, n)).T
            assert np.array_equal(dp.dechunk(dp.chunk(Tensor(x), 250), n).data, x)

    def test_all_ones_normalization(self):
        # overlap regions see double coverage; dechunk must divide it out
        x = Tensor(np.ones((1, 20)).T)
        out = dp.dechunk(dp.chunk(x, 8), 20).data
        np.testing.assert_array_equal(out, np.ones((1, 20)).T)

    def test_frame_affine_map_commutes_with_dechunk(self):
        # dechunk averages the chunks covering each frame (weights summing
        # to 1), so the mask head may run after it instead of before
        rng = np.random.default_rng(2)
        cases = [(int(rng.integers(1, 5)), int(rng.integers(1, 400)),
                  int(rng.integers(1, 40)) * 2) for _ in range(30)]
        assert any(n < k for _, n, k in cases)
        for d, n, k in cases:
            w = rng.standard_normal((2 * d, d))
            bias = rng.standard_normal(2 * d)
            cf = dp.chunk(Tensor(rng.standard_normal((d, n)).T), k)
            after = dp.dechunk(cf, n).data @ w.T + bias
            cf = Tensor(np.einsum("od,skd->sko", w, cf.data) + bias)
            before = dp.dechunk(cf, n).data
            np.testing.assert_allclose(before, after, rtol=0, atol=1e-12)

    def test_odd_chunk_rejected(self):
        with pytest.raises(NumericsError):
            dp.chunk(Tensor(np.zeros((1, 10)).T), 5)


class TestNorms:
    @staticmethod
    def _norm(d, kind):
        cfg = M.ModelConfig(d=d, r=1, norm_kind=kind)
        return blocks.scope(M.init_parameters(cfg, np.random.default_rng(0)),
                            "pre_norm")

    def test_kinds(self):
        assert dp.NORM_KINDS == ("rmsnorm", "layernorm")

    def test_rmsnorm_has_no_bias(self):
        assert list(self._norm(4, "rmsnorm")) == ["gain"]
        assert list(self._norm(4, "layernorm")) == ["gain", "bias"]

    def test_apply_norm_channel_axis(self):
        rng = np.random.default_rng(2)
        x = Tensor((rng.standard_normal((6, 9)) * 4).T)
        w = self._norm(6, "layernorm")
        y = dp.apply_norm(x, w).data
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)


class TestDpBlock:
    def _block(self, rng, d=2, h=2, norm_kind="rmsnorm"):
        cfg = M.ModelConfig(d=d, r=1, h=h, norm_kind=norm_kind)
        return blocks.scope(M.init_parameters(cfg, rng), "blocks.0")

    def test_residual_identity_when_output_zeroed(self):
        # zero both W_out projections -> the block is exactly identity
        rng = np.random.default_rng(3)
        w = self._block(rng, d=3, h=2)
        w["intra_scan.w_out"].data[...] = 0.0
        w["inter_scan.w_out"].data[...] = 0.0
        x = rng.standard_normal((3, 6, 4)).T            # [S, K, D]
        out = dp.dp_block(Tensor(x.copy()), w, False).data
        np.testing.assert_array_equal(out, x)

    def test_intra_path_is_per_chunk(self):
        # zero the inter unit; changing one chunk must not affect others
        rng = np.random.default_rng(4)
        w = self._block(rng, d=2, h=2)
        w["inter_scan.w_out"].data[...] = 0.0
        x = rng.standard_normal((2, 5, 3)).T
        base = dp.dp_block(Tensor(x.copy()), w, False).data
        x2 = x.copy()
        x2[1] += 1.0
        out = dp.dp_block(Tensor(x2), w, False).data
        np.testing.assert_allclose(out[0], base[0], atol=1e-12)
        np.testing.assert_allclose(out[2], base[2], atol=1e-12)
        assert not np.allclose(out[1], base[1])

    def test_inter_path_crosses_chunks(self):
        rng = np.random.default_rng(5)
        w = self._block(rng, d=2, h=2)
        x = rng.standard_normal((2, 5, 3)).T
        base = dp.dp_block(Tensor(x.copy()), w, False).data
        x2 = x.copy()
        x2[1] += 1.0
        out = dp.dp_block(Tensor(x2), w, False).data
        assert not np.allclose(out[0], base[0])

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        w = self._block(rng, d=4, h=3, norm_kind="layernorm")
        x = Tensor(rng.standard_normal((4, 6, 5)).T)
        assert dp.dp_block(x, w, False).shape == (5, 6, 4)


def test_dp_block_gradients():
    results = run_suite("dualpath")
    bad = [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.ok]
    assert not bad, f"dual-path gradchecks failed: {bad}"
