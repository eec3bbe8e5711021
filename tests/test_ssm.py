"""Scan semantics: discretization values, closed forms, dense oracle, duality."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

import sepscan.numerics as nm
import sepscan.ssm as ssm
from sepscan.gradcheck import run_suite
from sepscan.numerics import NumericsError, Tensor

# one-pole discretization at a = -1, delta = 0.1, b = 1:
#   Abar = exp(-0.1)
#   exact Bbar = (exp(-0.1) - 1) / (-1) = 1 - exp(-0.1)
ABAR_ONE_POLE = 0.9048374180359595
BBAR_ZOH_ONE_POLE = 0.09516258196404048


def _const_params(a_vals, delta_val, b_row, c_row, L, exact_zoh):
    """Time-invariant SsmParams with E=1 and the given H-vectors."""
    H = len(a_vals)
    return ssm.SsmParams(
        a=Tensor(np.asarray([a_vals], dtype=np.float64)),
        delta=Tensor(np.full((1, L), delta_val).T),
        b=Tensor(np.tile(np.asarray(b_row, dtype=np.float64), (L, 1))),
        c=Tensor(np.tile(np.asarray(c_row, dtype=np.float64), (L, 1))),
        exact_zoh=exact_zoh,
    )


class TestDiscretize:
    """ssm._zoh, the one discretization both scans and the adjoint call."""

    def test_zoh_one_pole_frozen_values(self):
        a = np.array([[-1.0]])
        delta = np.array([[0.1]])
        b = np.array([[1.0]])
        abar, bbar = ssm._zoh(delta, a, b, 1, exact_zoh=True)
        assert abs(abar[0, 0] - ABAR_ONE_POLE) < 1e-15
        assert abs(bbar[0, 0] - BBAR_ZOH_ONE_POLE) < 1e-15

    def test_euler_one_pole(self):
        a = np.array([[-1.0]])
        delta = np.array([[0.1]])
        b = np.array([[2.0]])
        abar, bbar = ssm._zoh(delta, a, b, 1, exact_zoh=False)
        assert abs(abar[0, 0] - ABAR_ONE_POLE) < 1e-15
        assert abs(bbar[0, 0] - 0.2) < 1e-15

    def test_zoh_approaches_euler_for_small_delta(self):
        a = np.array([[-2.0]])
        delta = np.array([[1e-7]])
        b = np.array([[1.0]])
        _, bz = ssm._zoh(delta, a, b, 1, exact_zoh=True)
        _, be = ssm._zoh(delta, a, b, 1, exact_zoh=False)
        assert abs(bz[0, 0] - be[0, 0]) < 1e-13

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_zoh_forms_the_input_term_from_x(self, exact_zoh):
        # the kernels' broadcast: dt and x [L, B, 1, E], a [H, E], b [L, B, H, 1]
        rng = np.random.default_rng(12)
        dt = rng.uniform(0.05, 0.5, (3, 2, 1, 5))
        x = rng.standard_normal((3, 2, 1, 5))
        a = -np.exp(rng.uniform(-1, 1, (4, 5)))
        b = rng.standard_normal((3, 2, 4, 1))
        abar, bx = ssm._zoh(dt, a, b, x, exact_zoh)
        want = np.expm1(dt * a) / a * b * x if exact_zoh else b * (dt * x)
        assert np.array_equal(abar, np.exp(dt * a))
        assert np.array_equal(bx, want)


class TestScanClosedForms:
    def test_single_state_geometric_sum(self):
        # H=1 time-invariant: y_t = c * sum_k abar^(t-k) * bbar * x_k
        rng = np.random.default_rng(0)
        L = 24
        x = rng.standard_normal((1, L))
        params = _const_params([-0.7], 0.3, [1.3], [0.9], L, exact_zoh=False)
        y = ssm.scan_sequential(Tensor(x.T), params).data[:, 0]
        abar = math.exp(-0.7 * 0.3)
        bbar = 0.3 * 1.3
        expect = np.zeros(L)
        h = 0.0
        for k in range(L):
            h = abar * h + bbar * x[0, k]
            expect[k] = 0.9 * h
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_impulse_response_matches_kernel(self):
        rng = np.random.default_rng(1)
        H, L = 4, 64
        a = rng.standard_normal((H, H)) * 0.3
        a = a - (np.abs(a).sum(axis=1).max() + 0.3) * np.eye(H)
        sys = ssm.DenseSsm(a=a, b=rng.standard_normal((H, 1)),
                           c=rng.standard_normal((1, H)), delta=0.2)
        kern = ssm.materialize_kernel(sys, L)
        impulse = np.zeros(L)
        impulse[0] = 1.0
        np.testing.assert_allclose(sys.scan(impulse), kern, atol=1e-12)

    def test_dense_scan_vs_kernel_convolve(self):
        rng = np.random.default_rng(2)
        H, L = 4, 16
        a = rng.standard_normal((H, H)) * 0.3
        a = a - (np.abs(a).sum(axis=1).max() + 0.3) * np.eye(H)
        sys = ssm.DenseSsm(a=a, b=rng.standard_normal((H, 1)),
                           c=rng.standard_normal((1, H)), delta=0.15)
        x = rng.standard_normal(L)
        np.testing.assert_allclose(sys.scan(x), ssm.kernel_convolve(x, sys),
                                   atol=1e-11)

    def test_oracle_guards(self):
        sys = ssm.DenseSsm(a=-np.eye(40), b=np.ones((40, 1)),
                           c=np.ones((1, 40)), delta=0.1)
        with pytest.raises(NumericsError):
            ssm.materialize_kernel(sys, 8)
        small = ssm.DenseSsm(a=-np.eye(2), b=np.ones((2, 1)),
                             c=np.ones((1, 2)), delta=0.1)
        with pytest.raises(NumericsError):
            ssm.materialize_kernel(small, ssm.MAX_ORACLE_L + 1)


class TestDuality:
    def test_selective_scan_equals_kernel_for_time_invariant(self):
        # diagonal dense system == E=1 selective scan with constant params
        rng = np.random.default_rng(3)
        for _ in range(10):
            H = int(rng.integers(1, 9))
            L = int(rng.integers(1, 65))
            diag = -np.exp(rng.uniform(-1.5, 1.0, H))
            bvec = rng.standard_normal(H)
            cvec = rng.standard_normal(H)
            delta = float(rng.uniform(0.02, 0.5))
            x = rng.standard_normal(L)

            params = _const_params(diag, delta, bvec, cvec, L, exact_zoh=True)
            y_scan = ssm.scan_sequential(Tensor(x[:, None]), params).data[:, 0]

            sys = ssm.DenseSsm(a=np.diag(diag), b=bvec[:, None],
                               c=cvec[None, :], delta=delta)
            y_kern = ssm.kernel_convolve(x, sys)
            assert np.max(np.abs(y_scan - y_kern)) < 1e-10


class TestParallelScan:
    def test_matches_sequential_small_grid(self):
        rng = np.random.default_rng(4)
        for exact_zoh in (False, True):
            for L in (1, 2, 7, 64):
                for E, H in ((1, 1), (2, 3)):
                    a = -np.exp(rng.uniform(-1, 1, (E, H)))
                    params = ssm.SsmParams(
                        a=Tensor(a),
                        delta=Tensor(rng.uniform(0.05, 0.5, (E, L)).T),
                        b=Tensor(rng.standard_normal((L, H))),
                        c=Tensor(rng.standard_normal((L, H))),
                        exact_zoh=exact_zoh,
                    )
                    x = Tensor(rng.standard_normal((E, L)).T)
                    y_seq = ssm.scan_sequential(x, params).data
                    y_par = ssm.scan_parallel(x, params).data
                    assert np.max(np.abs(y_seq - y_par)) < 1e-8, (exact_zoh, L, E, H)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        B, E, L, H = 3, 2, 12, 4
        a = -np.exp(rng.uniform(-1, 1, (E, H)))
        # drawn [B, E, L] and [B, L, H], run time-major
        delta = np.moveaxis(rng.uniform(0.05, 0.5, (B, E, L)), -1, 0)
        b = rng.standard_normal((B, L, H)).swapaxes(0, 1)
        c = rng.standard_normal((B, L, H)).swapaxes(0, 1)
        x = np.moveaxis(rng.standard_normal((B, E, L)), -1, 0)
        batched = ssm.scan_sequential(
            Tensor(x),
            ssm.SsmParams(a=Tensor(a), delta=Tensor(delta),
                          b=Tensor(b), c=Tensor(c))).data
        for i in range(B):
            single = ssm.scan_sequential(
                Tensor(x[:, i]),
                ssm.SsmParams(a=Tensor(a), delta=Tensor(delta[:, i]),
                              b=Tensor(b[:, i]), c=Tensor(c[:, i]))).data
            np.testing.assert_allclose(batched[:, i], single, atol=1e-12)

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("L", [65, 2 * ssm._BLOCK + 5])
    def test_gradients_match_sequential(self, L, exact_zoh):
        # the adjoint replays from scan_parallel's own block checkpoints
        rng = np.random.default_rng(L)
        args = _random_scan(rng, 3, 2, L, 4)
        w = Tensor(np.moveaxis(rng.standard_normal((3, 2, L)), -1, 0))
        grads = {}
        for scan in (ssm.scan_sequential, ssm.scan_parallel):
            leaves = [Tensor(arr, requires_grad=True) for arr in args]
            x, delta, a, b, c = leaves
            y = scan(x, ssm.SsmParams(a=a, delta=delta, b=b, c=c,
                                      exact_zoh=exact_zoh))
            nm.mul(y, w).sum().backward()
            grads[scan] = [leaf.grad for leaf in leaves]
        for name, want, got in zip("x delta a b c".split(),
                                   grads[ssm.scan_sequential],
                                   grads[ssm.scan_parallel]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


class TestBlockReplay:
    """The adjoint replays states in blocks of _BLOCK steps from checkpoints."""

    @staticmethod
    def _scan(exact_zoh, L, B=2):
        """y and the gradients of x, delta, a, b, c of a weighted sum of y."""
        rng = np.random.default_rng(8)
        E, H = 3, 4
        tm = lambda arr: np.moveaxis(arr, -1, 0)            # [B, E, L] -> [L, B, E]
        x = Tensor(tm(rng.standard_normal((B, E, L))), requires_grad=True)
        delta = Tensor(tm(rng.uniform(0.05, 0.5, (B, E, L))), requires_grad=True)
        a = Tensor(-np.exp(rng.uniform(-1, 1, (E, H))), requires_grad=True)
        b = Tensor(rng.standard_normal((B, L, H)).swapaxes(0, 1), requires_grad=True)
        c = Tensor(rng.standard_normal((B, L, H)).swapaxes(0, 1), requires_grad=True)
        w = Tensor(tm(rng.standard_normal((B, E, L))))
        y = ssm.scan_sequential(
            x, ssm.SsmParams(a=a, delta=delta, b=b, c=c, exact_zoh=exact_zoh))
        nm.mul(y, w).sum().backward()
        return y.data, [t.grad for t in (x, delta, a, b, c)]

    @classmethod
    def _gradients(cls, exact_zoh, L):
        return cls._scan(exact_zoh, L)[1]

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_gradients_do_not_depend_on_block_length(self, exact_zoh,
                                                     monkeypatch):
        # L = 2 blocks + 5 steps: three blocks, the last one partial
        L = 2 * ssm._BLOCK + 5
        blocked = self._gradients(exact_zoh, L)
        for block in (L + 1, 1):
            monkeypatch.setattr(ssm, "_BLOCK", block)
            replayed = self._gradients(exact_zoh, L)
            for name, want, got in zip("x delta a b c".split(), blocked, replayed):
                assert np.array_equal(want, got), (block, name)

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_batch_tiles_match_one_tile(self, exact_zoh, monkeypatch):
        L = 2 * ssm._BLOCK + 5
        assert ssm._tiles(5, 4, 3, 8) == [slice(0, 5)]
        y_one, g_one = self._scan(exact_zoh, L, B=5)
        # a [2, H, E] float64 state is 2 * 4 * 3 * 8 bytes: tiles of 2 + 2 + 1
        monkeypatch.setattr(ssm, "_TILE_BYTES", 2 * 4 * 3 * 8)
        assert [k.stop - k.start for k in ssm._tiles(5, 4, 3, 8)] == [2, 2, 1]
        y_tiled, g_tiled = self._scan(exact_zoh, L, B=5)
        assert np.array_equal(y_one, y_tiled)
        for name, want, got in zip("x delta a b c".split(), g_one, g_tiled):
            if name == "a":  # summed over the tiles
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(want, got), name

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    def test_reused_tile_buffers_start_from_zero(self, exact_zoh, taped,
                                                 monkeypatch):
        # one set of step buffers serves every tile; tiles of 3 + 3 + 1 rows,
        # so the last tile steps in a shorter view that still holds the
        # state the tile before it ended on
        L, B, E, H = 2 * ssm._BLOCK + 5, 7, 3, 4
        x, d, a, b, c = _random_scan(np.random.default_rng(16), B, E, L, H)
        bias = np.random.default_rng(17).uniform(-1, 1, E)
        y_one, ck_one = ssm._scan_forward(x, d, bias, a, b, c, exact_zoh, taped)
        monkeypatch.setattr(ssm, "_TILE_BYTES", 3 * H * E * 8)
        assert [k.stop - k.start for k in ssm._tiles(B, H, E, 8)] == [3, 3, 1]
        y, ck = ssm._scan_forward(x, d, bias, a, b, c, exact_zoh, taped)
        assert np.array_equal(y, y_one)
        assert np.array_equal(ck, ck_one) if taped else ck is None

    @pytest.mark.parametrize("taped", [False, True])
    def test_only_a_taped_scan_keeps_checkpoints(self, taped, monkeypatch):
        L, B, E, H = 2 * ssm._BLOCK + 5, 2, 3, 4
        kept = []
        forward = ssm._scan_forward

        def spy(*args):
            y, ck = forward(*args)
            kept.append(ck)
            return y, ck

        monkeypatch.setattr(ssm, "_scan_forward", spy)
        x, delta, a, b, c = _random_scan(np.random.default_rng(12), B, E, L, H)
        ssm.scan_sequential(Tensor(x), ssm.SsmParams(
            a=Tensor(a, requires_grad=taped), delta=Tensor(delta),
            b=Tensor(b), c=Tensor(c)))
        if taped:
            assert kept[0].shape == (2, B, H, E)
        else:
            assert kept == [None]

    @pytest.mark.parametrize("L, B", [(32, 13), (13, 32)])
    def test_replay_holds_two_block_buffers(self, L, B):
        """At the train intra and inter shapes, the Euler adjoint's peak
        past its outputs is two [n, B, H, E] buffers, n = min(L, _BLOCK):
        each step's Abar, later W, and the block's states, which first hold
        Bbar x, then lambda and then q = lambda delta.  The rest is
        state-sized or [L, B, E], 1/H of one (2.43x and 2.57x in all); a
        third buffer of Bbar x would make it about 3.5x.  The exact hold
        adds one buffer, its replayed p, which becomes q = lambda p (3.39x
        and 3.53x); a per-step branch with three workspace states of its
        own held 3.45x and 3.72x, and the bounds keep below those."""
        E, H = 64, 8
        rng = np.random.default_rng(L)
        x, d, g = (rng.standard_normal((L, B, E)) for _ in range(3))
        b, c = (rng.standard_normal((L, B, H)) for _ in range(2))
        a, bias = -np.exp(rng.uniform(-1, 1, (E, H))), rng.uniform(-3, -1, E)
        block = min(L, ssm._BLOCK) * B * H * E * x.itemsize
        for exact_zoh, bound in ((False, 3.0), (True, 3.45 if L > B else 3.6)):
            _, ck = ssm._scan_forward(x, d, bias, a, b, c, exact_zoh, True)
            gc.collect()
            tracemalloc.start()
            try:
                gx, gdelta, _, gb, gc_ = ssm._scan_backward(x, d, bias, a, b, c,
                                                            exact_zoh, ck, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            past_outputs = peak - sum(arr.nbytes for arr in (gx, gdelta, gb, gc_))
            assert past_outputs <= bound * block, (exact_zoh, past_outputs / block)


class TestStepGroups:
    """The forward discretizes up to _GROUP steps per _zoh call."""

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("B", [2, 7])
    def test_groups_match_one_step_per_call(self, exact_zoh, taped, B,
                                            monkeypatch):
        # L = 2 blocks + 5 steps, so groups of 3 end on a partial group and
        # straddle block ends; B = 7 runs as tiles of 3 + 3 + 1 rows, the
        # last one in a shorter view of the group buffers
        L, E, H = 2 * ssm._BLOCK + 5, 3, 4
        x, d, a, b, c = _random_scan(np.random.default_rng(18), B, E, L, H)
        bias = np.random.default_rng(19).uniform(-1, 1, E)
        if B == 7:
            tiles = [slice(0, 3), slice(3, 6), slice(6, 7)]
            monkeypatch.setattr(ssm, "_tiles", lambda *shape: tiles)
        monkeypatch.setattr(ssm, "_GROUP", 1)
        y_one, ck_one = ssm._scan_forward(x, d, bias, a, b, c, exact_zoh, taped)
        monkeypatch.setattr(ssm, "_GROUP", 3)
        y, ck = ssm._scan_forward(x, d, bias, a, b, c, exact_zoh, taped)
        assert np.array_equal(y, y_one)
        assert np.array_equal(ck, ck_one) if taped else ck is None

    def test_step_buffers_come_after_the_step_sizes(self):
        """An untaped scan at the CLI's intra-chunk shape ([L, n, E] =
        [250, 3, 256] float32, H = 16, one tile of G = 5 steps) peaks past
        its output at the step sizes and their softplus temporary, two
        [L, n, E] arrays (2.02x measured).  The step buffers, Abar and Bbar x
        of G steps, each at most _TILE_BYTES, are made after that
        temporary is freed; made before it, or with Euler's u = delta x
        formed for the whole tile, they would add to it (2.30x at the
        step-per-call kernel, which did both for one state each)."""
        L, B, E, H = 250, 3, 256, 16
        rng = np.random.default_rng(20)
        x, d, a, b, c = (arr.astype(np.float32) for arr in _random_scan(rng, B, E, L, H))
        bias = rng.uniform(-3, -1, E).astype(np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            y, _ = ssm._scan_forward(x, d, bias, a, b, c, False, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = L * B * E * x.itemsize
        bound = max(2 * steps, steps + 2 * ssm._TILE_BYTES) + ssm._TILE_BYTES // 4
        assert peak - y.nbytes <= bound, (peak - y.nbytes) / steps


def _oracle(x, delta, a, b, c, exact_zoh):
    """Literal float64 loop over [L, B, E]: h_t = exp(delta_t a) h_{t-1}
    + p_t b_t x_t and y_t = c_t . h_t, with p = expm1(delta a) / a or delta."""
    y = np.empty(x.shape)
    h = np.zeros(x.shape[1:] + a.shape[1:])                 # [B, E, H]
    for t in range(x.shape[0]):
        z = delta[t, :, :, None] * a
        p = np.expm1(z) / a if exact_zoh else delta[t, :, :, None]
        h = np.exp(z) * h + p * b[t, :, None, :] * x[t, :, :, None]
        y[t] = (h * c[t, :, None, :]).sum(axis=-1)
    return y


def _random_scan(rng, B, E, L, H):
    """Drawn [B, E, L] and [B, L, H], returned time-major: [L, B, E], [L, B, H]."""
    tm = lambda arr: np.moveaxis(arr, -1, 0)
    return (tm(rng.standard_normal((B, E, L))), tm(rng.uniform(0.05, 0.5, (B, E, L))),
            -np.exp(rng.uniform(-1, 1, (E, H))),
            rng.standard_normal((B, L, H)).swapaxes(0, 1),
            rng.standard_normal((B, L, H)).swapaxes(0, 1))


def _sequential(x, delta, a, b, c, exact_zoh, batched=True):
    lift = (lambda arr: arr) if batched else (lambda arr: arr[:, 0])
    params = ssm.SsmParams(a=Tensor(a), delta=Tensor(lift(delta)),
                           b=Tensor(lift(b)), c=Tensor(lift(c)),
                           exact_zoh=exact_zoh)
    return ssm.scan_sequential(Tensor(lift(x)), params).data


class TestKernelParity:
    """The time-major kernel against the float64 literal loop."""

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("L", [1, 63, 64, 65, 200])
    def test_matches_literal_loop(self, L, batched, exact_zoh):
        rng = np.random.default_rng(L)
        args = _random_scan(rng, 3 if batched else 1, 5, L, 4)
        want = _oracle(*args, exact_zoh)
        got = _sequential(*args, exact_zoh, batched)
        if not batched:
            want = want[:, 0]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_float32_tracks_float64(self, exact_zoh):
        args = _random_scan(np.random.default_rng(9), 3, 8, 200, 16)
        want = _sequential(*args, exact_zoh)
        got = _sequential(*(arr.astype(np.float32) for arr in args), exact_zoh)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_gradients_match_central_differences(self, exact_zoh):
        # L = 65 spans two replay blocks, so the checkpointed state is used
        rng = np.random.default_rng(10)
        args = _random_scan(rng, 2, 3, 65, 4)
        w = np.moveaxis(rng.standard_normal((2, 3, 65)), -1, 0)
        leaves = [Tensor(arr, requires_grad=True) for arr in args]
        x, delta, a, b, c = leaves
        y = ssm.scan_sequential(x, ssm.SsmParams(a=a, delta=delta, b=b, c=c,
                                                 exact_zoh=exact_zoh))
        nm.mul(y, Tensor(w)).sum().backward()

        def loss(arrs):
            return float(np.sum(w * _oracle(*arrs, exact_zoh)))

        def central(k, direction, eps=1e-6):
            up = [arr.copy() for arr in args]
            dn = [arr.copy() for arr in args]
            up[k] += eps * direction
            dn[k] -= eps * direction
            return (loss(up) - loss(dn)) / (2 * eps)

        # every entry along one random direction, then 24 single entries
        for k, name in enumerate("x delta a b c".split()):
            grad = leaves[k].grad
            v = rng.standard_normal(grad.shape)
            fd = central(k, v)
            assert abs(np.sum(grad * v) - fd) < 1e-7 * abs(fd), name
            for flat in rng.choice(grad.size, size=min(24, grad.size), replace=False):
                e = np.zeros(grad.size)
                e[flat] = 1.0
                fd = central(k, e.reshape(grad.shape))
                want = grad.flat[flat]
                assert abs(want - fd) < 1e-6 * np.max(np.abs(grad)), (name, flat)

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_zoh_out_buffers_give_the_same_arrays(self, exact_zoh):
        rng = np.random.default_rng(11)
        dt = rng.uniform(0.05, 0.5, (2, 1, 5))
        a = -np.exp(rng.uniform(-1, 1, (4, 5)))
        b = rng.standard_normal((2, 4, 1))
        fresh = ssm._zoh(dt, a, b, 1, exact_zoh)       # Bbar x at x = 1
        out = tuple(np.empty((2, 4, 5)) for _ in range(3))
        into = ssm._zoh(dt, a, b, 1, exact_zoh, out=out)
        assert into[0] is out[0] and into[1] is out[1]
        for want, got in zip(fresh, into, strict=True):
            assert np.array_equal(want, got)
        # the exact hold leaves p in the third buffer for the adjoint
        if exact_zoh:
            assert np.array_equal(out[2], np.expm1(dt * a) / a)


class TestReverseScan:
    """reverse=True is the scan of the time-reversed sequence, reversed back."""

    @staticmethod
    def _grads(args, w, exact_zoh, reverse):
        leaves = [Tensor(arr, requires_grad=True) for arr in args]
        x, delta, a, b, c = leaves
        params = ssm.SsmParams(a=a, delta=delta, b=b, c=c, exact_zoh=exact_zoh)
        y = ssm.scan_sequential(x, params, reverse=reverse)
        nm.mul(y, Tensor(w)).sum().backward()
        return [y.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("L", [1, 65, 2 * ssm._BLOCK + 5])
    def test_equals_flipped_forward_scan(self, exact_zoh, batched, L):
        rng = np.random.default_rng(L)
        x, delta, a, b, c = _random_scan(rng, 3, 5, L, 4)
        w = np.moveaxis(rng.standard_normal((3, 5, L)), -1, 0)
        if not batched:
            x, delta, b, c, w = x[:, 0], delta[:, 0], b[:, 0], c[:, 0], w[:, 0]
        args = [x, delta, a, b, c]
        # time is axis 0 of every operand but a
        axes = (0, 0, None, 0, 0)

        def flip(arr, axis=0):
            return arr if axis is None else np.flip(arr, axis).copy()

        got = self._grads(args, w, exact_zoh, reverse=True)
        flipped = self._grads([flip(arr, ax) for arr, ax in zip(args, axes)],
                              flip(w), exact_zoh, reverse=False)
        want = [flip(flipped[0])] + [flip(g, ax) for g, ax in zip(flipped[1:], axes)]
        for name, wv, gv in zip("y x delta a b c".split(), want, got):
            assert np.array_equal(wv, gv), name


class TestStability:
    def test_state_bounded_on_long_input(self):
        # a < 0 and delta > 0 keep |Abar| < 1; with |x| <= 1 the output
        # admits the geometric bound sum |c| |bbar| / (1 - abar_max)
        rng = np.random.default_rng(6)
        E, H, L = 2, 4, 10_000
        a = -np.exp(rng.uniform(-1, 0.5, (E, H)))
        delta_val = 0.2
        b_row = rng.uniform(-1, 1, H)
        c_row = rng.uniform(-1, 1, H)
        params = ssm.SsmParams(
            a=Tensor(a),
            delta=Tensor(np.full((E, L), delta_val).T),
            b=Tensor(np.tile(b_row, (L, 1))),
            c=Tensor(np.tile(c_row, (L, 1))),
        )
        x = np.sign(rng.standard_normal((E, L))).T
        y = ssm.scan_sequential(Tensor(x), params).data
        abar_max = np.exp(a * delta_val).max()
        bound = np.sum(np.abs(c_row) * np.abs(delta_val * b_row)) / (1 - abar_max)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) <= bound + 1e-9


class TestValidation:
    def test_positive_a_rejected(self):
        p = ssm.SsmParams(a=Tensor(np.array([[0.5]])),
                          delta=Tensor(np.full((1, 4), 0.1).T),
                          b=Tensor(np.ones((4, 1))),
                          c=Tensor(np.ones((4, 1))))
        with pytest.raises(NumericsError):
            ssm.scan_sequential(Tensor(np.ones((1, 4)).T), p)

    def test_nonpositive_delta_rejected(self):
        p = ssm.SsmParams(a=Tensor(np.array([[-0.5]])),
                          delta=Tensor(np.zeros((1, 4)).T),
                          b=Tensor(np.ones((4, 1))),
                          c=Tensor(np.ones((4, 1))))
        with pytest.raises(NumericsError):
            ssm.scan_sequential(Tensor(np.ones((1, 4)).T), p)

    def test_shape_mismatch_rejected(self):
        p = ssm.SsmParams(a=Tensor(np.array([[-0.5]])),
                          delta=Tensor(np.full((1, 4), 0.1).T),
                          b=Tensor(np.ones((5, 1))),
                          c=Tensor(np.ones((4, 1))))
        with pytest.raises(NumericsError):
            ssm.scan_sequential(Tensor(np.ones((1, 4)).T), p)

    @pytest.mark.parametrize("scan", [ssm.scan_sequential, ssm.scan_parallel])
    @pytest.mark.parametrize("E, H", [(3, 0), (0, 4)])
    def test_zero_size_a_rejected(self, scan, E, H):
        # no channels or no states: both evaluators refuse the same way
        x, delta, a, b, c = map(Tensor, _random_scan(np.random.default_rng(21),
                                                     2, E, 5, H))
        with pytest.raises(NumericsError, match="a must be a nonempty"):
            scan(x, ssm.SsmParams(a=a, delta=delta, b=b, c=c))


class TestFusedScan:
    """The fused scan against the bare scan of softplus(delta + bias) with
    a numpy skip: delta is raw, and delta_bias and d_skip are given."""

    @staticmethod
    def _args(rng, B, E, L, H):
        x, _, a, b, c = _random_scan(rng, B, E, L, H)
        tm = lambda arr: np.moveaxis(arr, -1, 0)
        raw = tm(rng.uniform(-3.0, 0.0, (B, E, L)))
        return [x, raw, a, b, c, rng.uniform(-1, 1, E), rng.uniform(-1, 1, E)]

    @staticmethod
    def _fused(scan, args, w, exact_zoh):
        leaves = [Tensor(arr, requires_grad=True) for arr in args]
        x, raw, a, b, c, bias, skip = leaves
        y = scan(x, ssm.SsmParams(a=a, delta=raw, b=b, c=c, exact_zoh=exact_zoh,
                                  delta_bias=bias, d_skip=skip))
        nm.mul(y, Tensor(w)).sum().backward()
        return y.data, [leaf.grad for leaf in leaves]

    @staticmethod
    def _reference(scan, args, w, exact_zoh):
        x, raw, a, b, c, bias, skip = args
        leaves = [Tensor(arr, requires_grad=True)
                  for arr in (x, ssm._step_sizes(raw, bias), a, b, c)]
        y = scan(leaves[0], ssm.SsmParams(a=leaves[2], delta=leaves[1], b=leaves[3],
                                          c=leaves[4], exact_zoh=exact_zoh))
        nm.mul(y, Tensor(w)).sum().backward()
        gx, gd, ga, gb, gc = (leaf.grad for leaf in leaves)
        graw = gd / (1.0 + np.exp(-(raw + bias)))
        return y.data + skip * x, [gx + w * skip, graw, ga, gb, gc,
                                   graw.sum(axis=(0, 1)), (w * x).sum(axis=(0, 1))]

    @classmethod
    def _check(cls, scan, exact_zoh):
        rng = np.random.default_rng(13)
        args = cls._args(rng, 5, 3, ssm._BLOCK + 6, 4)
        w = np.moveaxis(rng.standard_normal((5, 3, ssm._BLOCK + 6)), -1, 0)
        y, grads = cls._fused(scan, args, w, exact_zoh)
        y_ref, grads_ref = cls._reference(scan, args, w, exact_zoh)
        assert np.array_equal(y, y_ref)
        names = "x delta a b c delta_bias d_skip".split()
        for name, want, got in zip(names, grads_ref, grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_bare_scan_over_several_tiles(self, exact_zoh, reverse,
                                                  monkeypatch):
        # a [2, H, E] float64 state per tile: tiles of 2 + 2 + 1
        monkeypatch.setattr(ssm, "_TILE_BYTES", 2 * 4 * 3 * 8)
        self._check(lambda x, p: ssm.scan_sequential(x, p, reverse=reverse),
                    exact_zoh)

    @pytest.mark.parametrize("exact_zoh", [False, True])
    def test_parallel_matches_bare_parallel_scan(self, exact_zoh):
        self._check(ssm.scan_parallel, exact_zoh)

    @pytest.mark.parametrize("raw", [np.nan, -800.0, -1e4, np.inf])
    def test_nan_or_underflowing_delta_rejected(self, raw):
        # softplus(z) underflows to 0 in float64 below about -745
        args = self._args(np.random.default_rng(14), 2, 3, 8, 4)
        args[1][5, 1, 2] = raw
        with pytest.raises(NumericsError,
                           match="delta must be finite and strictly positive"):
            self._fused(ssm.scan_sequential, args, args[0], False)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.inf])
    def test_nonpositive_or_infinite_unbiased_delta_rejected(self, step):
        # with no delta_bias the raw delta is the step size, checked as given
        x, delta, a, b, c = map(Tensor, _random_scan(np.random.default_rng(18),
                                                     2, 3, 8, 4))
        delta.data[5, 1, 2] = step
        with pytest.raises(NumericsError,
                           match="delta must be finite and strictly positive"):
            ssm.scan_sequential(x, ssm.SsmParams(a=a, delta=delta, b=b, c=c))

    @pytest.mark.parametrize("biased", [False, True])
    def test_empty_sequence_gives_empty_output(self, biased):
        # L = 0: every step-size tile is empty, which the check passes
        x, delta, a, b, c = map(Tensor, _random_scan(np.random.default_rng(19),
                                                     2, 3, 0, 4))
        bias = Tensor(np.zeros(3)) if biased else None
        y = ssm.scan_sequential(x, ssm.SsmParams(a=a, delta=delta, b=b, c=c,
                                                 delta_bias=bias))
        assert y.shape == (0, 2, 3)

    @pytest.mark.parametrize("scan", [ssm.scan_sequential, ssm.scan_parallel])
    @pytest.mark.parametrize("exact_zoh", [False, True])
    @pytest.mark.parametrize("fused", [False, True])
    def test_empty_sequence_backpropagates_zeros(self, scan, exact_zoh, fused):
        # L = 0: the adjoint replays one empty block, and every gradient
        # has its input's shape and is zero
        args = self._args(np.random.default_rng(20), 2, 3, 0, 4)
        leaves = [Tensor(arr, requires_grad=True) for arr in args[:7 if fused else 5]]
        x, raw, a, b, c, *fields = leaves
        bias, skip = fields or (None, None)
        y = scan(x, ssm.SsmParams(a=a, delta=raw, b=b, c=c, exact_zoh=exact_zoh,
                                  delta_bias=bias, d_skip=skip))
        y.sum().backward()
        for leaf in leaves:
            assert leaf.grad.shape == leaf.shape and not np.any(leaf.grad)

    @pytest.mark.parametrize("field", ["delta_bias", "d_skip"])
    def test_fused_field_shape_mismatch_rejected(self, field):
        x, raw, a, b, c, bias, skip = map(
            Tensor, self._args(np.random.default_rng(15), 2, 3, 8, 4))
        params = ssm.SsmParams(a=a, delta=raw, b=b, c=c, delta_bias=bias,
                               d_skip=skip)
        setattr(params, field, Tensor(np.ones(getattr(params, field).shape[:-1] + (4,))))
        with pytest.raises(NumericsError, match=field):
            ssm.scan_sequential(x, params)


class TestSelectiveParameterize:
    def test_shapes_and_delta_positive(self):
        rng = np.random.default_rng(7)
        E, L, H, R = 4, 10, 3, 2
        proj = {
            "w_delta_down": Tensor(rng.standard_normal((R, E)) * 0.3),
            "w_delta_up": Tensor(rng.standard_normal((E, R)) * 0.3),
            "b_delta": Tensor(rng.standard_normal(E)),
            "w_b": Tensor(rng.standard_normal((H, E)) * 0.3),
            "w_c": Tensor(rng.standard_normal((H, E)) * 0.3),
        }
        a = Tensor(-np.exp(rng.uniform(-1, 1, (E, H))))
        params = ssm.selective_parameterize(Tensor(rng.standard_normal((E, L)).T),
                                            proj, a, False)
        assert params.delta.shape == (L, E)
        assert params.b.shape == (L, H)
        assert params.c.shape == (L, H)
        # delta is the raw projection; the scan adds the bias and softplus
        assert params.delta_bias is proj["b_delta"]
        assert np.all(ssm._step_sizes(params.delta.data, params.delta_bias.data) > 0)


def test_scan_gradients_all_modes():
    results = run_suite("ssm")
    bad = [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.ok]
    assert not bad, f"scan gradchecks failed: {bad}"
