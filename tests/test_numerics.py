"""Engine contracts: shapes, graph mechanics, and primitive gradients."""

import weakref

import numpy as np
import pytest

import sepscan.gradcheck as gc
import sepscan.numerics as nm
import sepscan.ssm as ssm
from sepscan.gradcheck import run_suite
from sepscan.numerics import NumericsError, Tensor


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# operand rules
# ---------------------------------------------------------------------------


class TestOperandRules:
    def test_integer_data_becomes_float64(self):
        assert Tensor(np.arange(3)).dtype == np.float64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericsError):
            nm.add(t(np.zeros((2, 3))), t(np.zeros(3)))
        with pytest.raises(NumericsError):
            nm.mul(t(np.zeros((2, 3))), t(np.zeros((2, 1))))
        # a scalar is not broadcast either, on either side
        with pytest.raises(NumericsError, match="no implicit broadcasting"):
            nm.mul(t(np.ones((2, 3))), t(2.0))
        with pytest.raises(NumericsError, match="no implicit broadcasting"):
            nm.add(t(3.0), t(np.full((4,), 1.5)))

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float64))
        b = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(NumericsError):
            nm.add(a, b)

    def test_matmul_dtype_mismatch_rejected(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((3, 4), dtype=np.float64).T)
        with pytest.raises(NumericsError, match="float32 vs float64"):
            nm.matmul(a, b)

    def test_matmul_strictly_2d(self):
        with pytest.raises(NumericsError):
            nm.matmul(t(np.zeros((2, 3, 4))), t(np.zeros((4, 5))))
        with pytest.raises(NumericsError) as e:
            nm.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)

    def test_matmul_maps_the_last_axis_of_a_batch(self):
        # the mapped axis is the last one of a time-major [L, B, I]
        rng = np.random.default_rng(3)
        w = t(rng.standard_normal((5, 3)))
        x = t(rng.standard_normal((4, 3, 6)).transpose(2, 0, 1))
        y = nm.matmul(w, x)
        assert y.shape == (6, 4, 5)
        for i in range(4):
            np.testing.assert_allclose(y.data[:, i], x.data[:, i] @ w.data.T,
                                       rtol=1e-14)
        with pytest.raises(NumericsError):
            nm.matmul(w, t(np.zeros((2, 4, 3, 6)).transpose(3, 0, 1, 2)))

    def test_views_are_copies(self):
        x = t(np.arange(6.0).reshape(2, 3))
        y = nm.permute(x, 1, 0)
        y.data[...] = -1.0
        assert np.array_equal(x.data, np.arange(6.0).reshape(2, 3))


_F32 = Tensor(np.ones((3, 5), dtype=np.float32).T)
_W32 = Tensor(np.ones((4, 3), dtype=np.float32))
_W64 = Tensor(np.ones(3))
_SCAN_PARAMS = ssm.SsmParams(
    a=Tensor(-np.ones((3, 2))),
    delta=Tensor(np.full((3, 5), 0.1, dtype=np.float32).T),
    b=Tensor(np.ones((5, 2), dtype=np.float32)),
    c=Tensor(np.ones((5, 2), dtype=np.float32)),
)
_SCAN_PARAMS_32 = ssm.SsmParams(
    a=Tensor(-np.ones((3, 2), dtype=np.float32)), delta=_SCAN_PARAMS.delta,
    b=_SCAN_PARAMS.b, c=_SCAN_PARAMS.c, d_skip=_W64)
# keyed "op" or "op/case": the error names the op
MIXED_DTYPE_OPS = {
    "matmul/bias": lambda: nm.matmul(_W32, _F32, Tensor(np.ones(4))),
    "scan_sequential/d_skip": lambda: ssm.scan_sequential(_F32, _SCAN_PARAMS_32),
    "conv1d_depthwise": lambda: nm.conv1d_depthwise(
        _F32, Tensor(np.ones((3, 4))), _W64),
    "rmsnorm": lambda: nm.rmsnorm(_F32, _W64),
    "layernorm": lambda: nm.layernorm(_F32, _W64, _W64),
    "scan_sequential": lambda: ssm.scan_sequential(_F32, _SCAN_PARAMS),
}


@pytest.mark.parametrize("op", MIXED_DTYPE_OPS)
def test_float64_weight_on_float32_input_rejected(op):
    with pytest.raises(NumericsError,
                       match=rf"^{op.split('/')[0]}: dtype mismatch float"):
        MIXED_DTYPE_OPS[op]()


# ---------------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------------


class TestBackward:
    def test_fanout_accumulates(self):
        x = t([1.0, 2.0], grad=True)
        y = nm.tsum(nm.add(x, x))
        y.backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_repeated_backward_accumulates(self):
        x = t([3.0], grad=True)
        y = nm.tsum(nm.mul(x, x))
        y.backward()
        y.backward()
        assert np.array_equal(x.grad, [12.0])

    def test_nonscalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(NumericsError, match="scalar"):
            nm.mul(x, x).backward()

    def test_detached_loss_rejected(self):
        x = t([1.0, 2.0])
        with pytest.raises(NumericsError):
            nm.tsum(nm.mul(x, x)).backward()

    def test_zero_grad(self):
        x = t([1.0], grad=True)
        nm.tsum(x).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_vjp_may_return_none_for_a_parent_that_requires_grad(self):
        a, b = t(3.0, grad=True), t(5.0, grad=True)
        out = nm.primitive(2.0 * a.data, (a, b), lambda g: (g * 2, None), "twice_a")
        out.backward()
        assert a.grad == 2.0 and b.grad is None

    def test_branchy_graph_exact_chain(self):
        # f(x) = sum((x*x + x) * x) -> df/dx = 3x^2 + 2x
        x = t([1.0, -2.0, 0.5], grad=True)
        y = nm.tsum(nm.mul(nm.add(nm.mul(x, x), x), x))
        y.backward()
        expect = 3 * x.data**2 + 2 * x.data
        np.testing.assert_allclose(x.grad, expect, rtol=1e-12)


def _skip_scan(x):
    L, E = x.shape
    rng = np.random.default_rng(0)
    return ssm.scan_sequential(x, ssm.SsmParams(
        a=t(-rng.uniform(0.5, 1.5, (E, 2))), delta=t(rng.uniform(0.1, 0.5, (L, E))),
        b=t(rng.normal(size=(L, 2))), c=t(rng.normal(size=(L, 2))),
        d_skip=t(np.ones(E))))


# producers whose output no VJP reads, neither their own nor the consumer's
UNREAD_OUTPUTS = {
    "add": lambda x: nm.add(x, x),
    "silu": nm.silu,
    "rmsnorm": lambda x: nm.rmsnorm(x, t(np.ones(3))),
    "layernorm": lambda x: nm.layernorm(x, t(np.ones(3)), t(np.zeros(3))),
    "permute": lambda x: nm.permute(nm.permute(x, 1, 0), 1, 0),
    "skip_scan": _skip_scan,
}


class TestGraphHoldsOnlyWhatVjpsRead:
    @pytest.mark.parametrize("op", sorted(UNREAD_OUTPUTS))
    def test_an_unread_output_is_freed_while_the_graph_lives(self, op):
        x = t(np.random.default_rng(1).normal(size=(4, 3)), grad=True)
        mid = UNREAD_OUTPUTS[op](x)
        out = weakref.ref(mid.data)
        loss = nm.tsum(nm.mean_pair(mid, x))
        del mid
        assert out() is None
        loss.backward()
        # mean_pair's direct path alone would give 0.5 everywhere
        assert np.all(np.isfinite(x.grad)) and np.any(x.grad != 0.5)

    def test_a_node_holds_no_tensor_but_leaves(self):
        x = t(np.ones((4, 3)), grad=True)
        loss = nm.tsum(nm.silu(nm.add(x, x)))
        vertices = nm._topo_order(loss._node)
        assert [v.op for v in vertices if isinstance(v, nm._Node)] \
            == ["add", "silu", "sum"]
        assert [v for v in vertices if not isinstance(v, nm._Node)] == [x]
        assert x._node is None and "op=sum" in repr(loss)

    def test_a_constant_input_gets_no_vertex(self):
        x, c = t(np.ones(3), grad=True), t(np.full(3, 2.0))
        assert nm.mul(x, c)._node.parents == (x, None)


class TestDebugMode:
    def test_nonfinite_flagged_with_op_name(self):
        nm.set_debug(True)
        try:
            with pytest.raises(NumericsError, match="exp"):
                nm.exp(t(1e4))
        finally:
            nm.set_debug(False)

    def test_disabled_by_default(self):
        y = nm.exp(t(1e4))
        assert np.isinf(y.data)


# ---------------------------------------------------------------------------
# op semantics
# ---------------------------------------------------------------------------


class TestOpSemantics:
    def test_narrow_slices_and_scatters_back(self):
        x = t(np.arange(10.0).reshape(5, 2), grad=True)
        y = nm.narrow(x, 0, 1, 3)
        assert np.array_equal(y.data, x.data[1:4])
        nm.tsum(y).backward()
        assert np.array_equal(x.grad, [[0, 0], [1, 1], [1, 1], [1, 1], [0, 0]])
        assert nm.narrow(x, -1, 2, 0).shape == (5, 0)

    @pytest.mark.parametrize("start, length", [(0, -1), (3, -2), (-1, 2), (4, 2),
                                               (0, 6)])
    def test_narrow_out_of_range_rejected(self, start, length):
        with pytest.raises(NumericsError, match="narrow"):
            nm.narrow(t(np.zeros(5)), 0, start, length)

    @pytest.mark.parametrize("axis", [2, 5, -3])
    def test_narrow_axis_out_of_range_rejected(self, axis):
        with pytest.raises(NumericsError, match="narrow: axis"):
            nm.narrow(t(np.zeros((3, 4))), axis, 0, 2)

    def test_sigmoid_extreme_inputs_finite(self):
        y = nm.sigmoid(t([-1e4, 0.0, 1e4]))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-14)],
                             ids=["float32", "float64"])
    def test_softplus_large_input_linear(self, dtype, rtol):
        # the scan's softplus; -1e4, which underflows to a zero step, is
        # refused (tests/test_ssm.py::TestFusedScan)
        x = np.array([-88, -20, 0, 1e-8, 20, 88, 500, 1e4], dtype=dtype)
        with np.errstate(over="raise", invalid="raise"):
            y = ssm._step_sizes(x, dtype(0))
            want = np.logaddexp(dtype(0), x)
        assert y.dtype == dtype
        np.testing.assert_allclose(y, want, rtol=rtol, atol=0)

    @pytest.mark.parametrize("T,S", [(1, 1), (3, 1), (4, 1), (5, 2), (6, 2),
                                     (7, 3), (9, 4)])
    def test_frame_pads_an_unaligned_length(self, T, S):
        # S = ceil(max(T - size, 0) / hop) + 1; the padding is zeros
        x = t(np.arange(1.0, 2 * T + 1).reshape(2, T).T)
        f = nm.frame(x, size=4, hop=2)
        assert f.shape == (S, 4, 2)
        flat = np.zeros(((S - 1) * 2 + 4, 2))
        flat[:T] = x.data
        for s in range(S):
            assert np.array_equal(f.data[s], flat[2 * s : 2 * s + 4])
        with pytest.raises(NumericsError, match="length 0 must be positive"):
            nm.frame(t(np.zeros((0, 2))), size=4, hop=2)

    def test_overlap_add_trims_to_out_len(self):
        frames = t(np.ones((4, 3)).T)       # 3 frames of 4 at hop 2 cover 8
        for n in range(1, 9):
            y = nm.overlap_add(frames, hop=2, out_len=n)
            assert np.array_equal(y.data, [1, 1, 2, 2, 2, 2, 1, 1][:n])
        for n in (0, 9):
            with pytest.raises(NumericsError, match="out of range"):
                nm.overlap_add(frames, hop=2, out_len=n)
        with pytest.raises(NumericsError, match="hop must be positive"):
            nm.overlap_add(frames, hop=0, out_len=4)

    def test_frame_contents(self):
        x = t(np.arange(8.0))
        f = nm.frame(x, size=4, hop=2)
        assert f.shape == (3, 4)
        assert np.array_equal(f.data[1], [2, 3, 4, 5])

    def test_overlap_add_constant_coverage(self):
        frames = t(np.ones((4, 3)).T)
        y = nm.overlap_add(frames, hop=2, out_len=8)
        assert np.array_equal(y.data, [1, 1, 2, 2, 2, 2, 1, 1])

    def test_conv_is_causal(self):
        # bump an input sample; outputs strictly before it must not move
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 10)).T
        k = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        base = nm.conv1d_depthwise(t(x), t(k), t(b)).data
        x2 = x.copy()
        x2[6] += 1.0
        out = nm.conv1d_depthwise(t(x2), t(k), t(b)).data
        assert np.array_equal(out[:6], base[:6])
        assert not np.array_equal(out[6:], base[6:])

    @pytest.mark.parametrize(
        "shape,reverse",
        [((0, 3), False), ((0, 2, 3), False), ((0, 3), True), ((0, 2, 3), True)],
        ids=["shape0", "shape1", "shape0-reverse", "shape1-reverse"])
    def test_conv_of_empty_input_is_empty(self, shape, reverse):
        x = t(np.zeros(shape), grad=True)
        k, b = t(np.ones((3, 4)), grad=True), t(np.ones(3), grad=True)
        y = nm.conv1d_depthwise(x, k, b, reverse=reverse)
        assert y.shape == shape
        nm.tsum(y).backward()
        assert x.grad.shape == shape
        assert not k.grad.any() and not b.grad.any()

    @pytest.mark.parametrize("shape", [(3, 2), (3, 9), (2, 3, 2), (2, 3, 9)])
    def test_reverse_conv_is_the_flipped_causal_conv(self, shape):
        # dyadic values keep every product and sum exact, so the kernel and
        # bias gradients, which sum in reversed order, compare exactly too
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        x, k, b, w = (rng.integers(-32, 33, size=s) / 8.0
                      for s in (shape, (3, 4), (3,), shape))
        # [E, L] and [B, E, L] draws, time-major
        x, w = np.moveaxis(x, -1, 0), np.moveaxis(w, -1, 0)

        def run(reverse):
            # reverse=False runs flip o conv o flip, reverse=True the mirror
            flip = (lambda a: a) if reverse else (lambda a: np.flip(a, 0).copy())
            leaves = [t(flip(x), grad=True), t(k, grad=True), t(b, grad=True)]
            y = nm.conv1d_depthwise(*leaves, reverse=reverse)
            nm.mul(y, t(flip(w))).sum().backward()
            return [flip(y.data), flip(leaves[0].grad), leaves[1].grad,
                    leaves[2].grad]

        for name, want, got in zip("y x kernel bias".split(), run(False), run(True)):
            assert np.array_equal(want, got), name

    def test_layernorm_standardizes_columns(self):
        rng = np.random.default_rng(1)
        x = t((rng.standard_normal((16, 5)) * 3 + 1).T)
        y = nm.layernorm(x, t(np.ones(16)), t(np.zeros(16)))
        np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.data.std(axis=-1), 1.0, atol=1e-6)

    def test_rmsnorm_scale_property(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3)).T
        g = np.ones(8)
        y1 = nm.rmsnorm(t(x), t(g)).data
        y2 = nm.rmsnorm(t(5.0 * x), t(g)).data
        np.testing.assert_allclose(y1, y2, atol=1e-9)

    def test_mean_pair(self):
        a, b = t([2.0, 4.0]), t([4.0, 0.0])
        assert np.array_equal(nm.mean_pair(a, b).data, [3.0, 2.0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_every_primitive_gradient():
    results = run_suite("numerics")
    bad = [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.ok]
    assert not bad, f"primitive gradchecks failed: {bad}"


def test_gradcheck_flags_a_wrong_gradient_past_a_constant_input():
    # sum(x * c * y) with c a constant: a VJP wrong only in y, the last
    # input, fails, so the checker reaches every input that needs a gradient
    def probe(y_scale):
        def fn(x, c, y):
            xd, cd, yd = x.data, c.data, y.data

            def vjp(g):
                return g * cd * yd, None, y_scale * g * xd * cd

            return nm.primitive(np.asarray((xd * cd * yd).sum()), (x, c, y), vjp,
                                "probe")
        return fn

    rng = np.random.default_rng(0)
    x, c, y = (rng.uniform(-2.0, 2.0, (3, 4)) for _ in range(3))
    inputs = [t(x, grad=True), t(c), t(y, grad=True)]
    assert gc.gradcheck(probe(1.5), inputs) > max(gc.PRIMITIVE_TOL, gc.COMPOSITE_TOL,
                                                  gc.FULL_MODEL_TOL)
    assert gc.gradcheck(probe(1.0), inputs) < gc.PRIMITIVE_TOL


def test_removing_a_check_leaves_the_others_inputs_unchanged(monkeypatch):
    # each check draws from its own generator: dropping the first numerics
    # and the first ssm check moves no other check's recorded error, to the bit
    def errors():
        return {r.name: r.max_rel_err for r in run_suite("all")}

    full = errors()
    monkeypatch.delitem(gc.CHECKS, "add")
    monkeypatch.delitem(gc.CHECKS, "selective_scan_euler")
    rest = errors()
    assert len(rest) == len(full) - 2
    assert rest == {k: full[k] for k in rest}


def test_every_check_keeps_its_suite_tolerance():
    # the contract's tolerances, pinned: an edit to the table cannot loosen
    # a check without failing here
    assert (gc.PRIMITIVE_TOL, gc.COMPOSITE_TOL, gc.FULL_MODEL_TOL) == (1e-6, 1e-5, 1e-4)
    suite_tol = {"numerics": gc.PRIMITIVE_TOL, "ssm": gc.PRIMITIVE_TOL,
                 "blocks": gc.COMPOSITE_TOL, "dualpath": gc.COMPOSITE_TOL,
                 "model": gc.FULL_MODEL_TOL}
    want = {name: gc.COMPOSITE_TOL if name in ("rmsnorm", "layernorm")
            else suite_tol[suite] for name, (suite, _make, _tol) in gc.CHECKS.items()}
    assert {name: tol for name, (_suite, _make, tol) in gc.CHECKS.items()} == want
