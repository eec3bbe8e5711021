"""Dense-tensor reverse-mode autodiff on numpy storage.

Shape conventions used across the package (time on axis 0, channels last):

    waveform     [T]
    features     [N, D]          (frames, channels)
    framed       [S, size, ...]  (window index, window position, ...)
    chunked      [S, K, D]       (chunk index, chunk position, channels)
    batched seq  [L, B, E]       (time, batch, channels)

Rules the engine enforces rather than glosses over:

  * no implicit broadcasting: a binary op's operands have one shape;
  * an op's inputs all have its output's dtype (primitive checks this);
  * matmul maps the last axis of [L, I] or [L, B, I] by a 2-D [O, I]
    weight as one 2-D GEMM; the per-channel ops (the norms, matmul's
    bias) act on the last axis and conv1d_depthwise along axis 0;
  * Tensor() and permute materialize C-ordered copies, never aliased views;
    the one exception is as_tensor, which wraps an array as it is (a view,
    a broadcast or a shared payload) in a leaf that requires no gradient,
    so no backward pass reaches it, for an array no op writes into while
    the leaf is in use;
  * gradients accumulate additively on the leaves (the tensors with no
    VJP) across fan-out and across repeated backward() calls; callers
    reset explicitly with zero_grad().  No other tensor keeps a gradient.

The recorded graph is made of nodes, not tensors.  A taped op's output
tensor points at one node: the op's name, its VJP callback, and per input
where that input's gradient goes (the input's own node, the input itself
if it is a leaf, or nowhere if it needs no gradient).  A node holds no
output array, and each VJP closes over exactly the arrays it reads, so an
op's output lives only while the caller holds it or some VJP reads it.
A node refers to no tensor but the leaves, which refer to no node, so the
graph is acyclic and freed by reference counting alone.  ``backward``
linearizes that DAG once (topological order), visits every node exactly
once, and pushes vector-Jacobian products toward the leaves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class NumericsError(ValueError):
    """Shape, dtype, connectivity, or finiteness violation inside the engine."""


# ---------------------------------------------------------------------------
# debug switch
# ---------------------------------------------------------------------------

_DEBUG = False


def set_debug(flag: bool) -> None:
    """Toggle per-op finiteness checking (NaN/Inf surfaces as NumericsError)."""
    global _DEBUG
    _DEBUG = bool(flag)


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense float array plus the graph node of the op that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True, order="C")
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None      # set on a taped op's output

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self._node is not None:
            flags.append(f"op={self._node.op}")
        tail = (", " + ", ".join(flags)) if flags else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tail})"

    # -- shorthand ----------------------------------------------------------

    def sum(self) -> "Tensor":
        return tsum(self)

    # -- reverse mode -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        self must be a scalar (0-d) tensor connected to a recorded graph.
        An intermediate's gradient is held only until its VJP has run, so
        no non-leaf tensor keeps one.
        """
        if self.data.shape != ():
            raise NumericsError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        root = _vertex(self)
        if root is None:
            raise NumericsError(
                "backward on a detached loss: no input in its history had "
                "requires_grad=True"
            )
        pending: dict[int, np.ndarray] = {id(root): np.ones((), dtype=self.dtype)}
        for vertex in reversed(_topo_order(root)):
            g = pending.pop(id(vertex), None)
            if g is None:
                continue
            if isinstance(vertex, Tensor):          # a leaf
                vertex.grad = g if vertex.grad is None else vertex.grad + g
                continue
            for parent, pg in zip(vertex.parents, vertex.vjp(g)):
                if pg is None or parent is None:
                    continue
                have = pending.get(id(parent))
                pending[id(parent)] = pg if have is None else have + pg


class _Node:
    """One taped op: its name, its VJP, and per input the vertex (see
    _vertex) its gradient goes to.  It holds no output array."""

    __slots__ = ("op", "vjp", "parents")

    def __init__(self, op: str, vjp: Callable[[np.ndarray], tuple],
                 parents: tuple):
        self.op = op
        self.vjp = vjp
        self.parents = parents


def _vertex(t: Tensor) -> "_Node | Tensor | None":
    """Where t's gradient goes: its node if an op taped it, t itself if it
    is a leaf that requires a gradient, else nowhere (None)."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _topo_order(root: "_Node | Tensor") -> list:
    """Iterative postorder: leaves first, root last; each vertex exactly once."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        vertex, expanded = stack.pop()
        if expanded:
            order.append(vertex)
            continue
        if id(vertex) in seen:
            continue
        seen.add(id(vertex))
        stack.append((vertex, True))
        if isinstance(vertex, _Node):
            for parent in vertex.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# graph recording
# ---------------------------------------------------------------------------


def primitive(
    data: np.ndarray,
    parents: Sequence[Tensor],
    vjp: Callable[[np.ndarray], tuple],
    op: str,
) -> Tensor:
    """Wrap one executed op's output array, taping a node for it when any
    input requires a gradient.

    vjp receives the upstream gradient and must return one array (or None)
    per parent, each matching that parent's shape.  It should close over
    the arrays it reads and no tensor: the node keeps the vjp, not the
    output or the inputs.  Other modules use this to define fused
    primitives (the selective scan) without touching the engine internals.
    """
    for p in parents:
        if p.data.dtype != data.dtype:
            raise NumericsError(f"{op}: dtype mismatch {p.dtype} vs {data.dtype}")
    if _DEBUG and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(op, vjp, tuple(_vertex(p) for p in parents))
    else:
        out.requires_grad = False
        out._node = None
    return out


def as_tensor(arr: np.ndarray) -> Tensor:
    """A leaf that holds arr itself where Tensor() would copy it; for the
    untaped views of the module rules."""
    t = Tensor(())
    t.data = arr
    return t


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise NumericsError(
            f"{op}: shape mismatch {a.shape} vs {b.shape} (no implicit broadcasting)"
        )


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return primitive(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    # each side's gradient reads the other side's values
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (None if bd is None else g * bd,
                None if ad is None else g * ad)

    return primitive(a.data * b.data, (a, b), vjp, "mul")


def neg(x: Tensor) -> Tensor:
    return primitive(-x.data, (x,), lambda g: (-g,), "neg")


def mean_pair(a: Tensor, b: Tensor) -> Tensor:
    """(a + b) / 2 elementwise; the merge point of two directional branches."""
    _same_shape(a, b, "mean_pair")

    def vjp(g):
        h = 0.5 * g
        return h, h

    return primitive(0.5 * (a.data + b.data), (a, b), vjp, "mean_pair")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x / 2)) / 2; tanh saturates without overflowing
    s = np.tanh(0.5 * x)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(x: Tensor) -> Tensor:
    s = _stable_sigmoid(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return primitive(s, (x,), vjp, "sigmoid")


def silu(x: Tensor) -> Tensor:
    xd = x.data

    def vjp(g):
        s = _stable_sigmoid(xd)         # recomputed, so the tape keeps x alone
        return (g * s * (1.0 + xd * (1.0 - s)),)

    out = _stable_sigmoid(xd)
    out *= xd
    return primitive(out, (x,), vjp, "silu")


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return primitive(t, (x,), vjp, "tanh")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def vjp(g):
        return (g * mask,)

    return primitive(np.where(mask, x.data, 0.0), (x,), vjp, "relu")


def exp(x: Tensor) -> Tensor:
    # IEEE semantics by contract: overflow yields inf silently; debug
    # mode turns the non-finite result into an error instead
    with np.errstate(over="ignore"):
        e = np.exp(x.data)

    def vjp(g):
        return (g * e,)

    return primitive(e, (x,), vjp, "exp")


# ---------------------------------------------------------------------------
# structural ops (all materialize copies)
# ---------------------------------------------------------------------------


def permute(x: Tensor, *dims: int) -> Tensor:
    if sorted(dims) != list(range(x.ndim)):
        raise NumericsError(f"permute: {dims} is not a permutation of rank {x.ndim}")
    inverse = tuple(np.argsort(dims))

    def vjp(g):
        return (np.transpose(g, inverse).copy(),)

    return primitive(np.transpose(x.data, dims).copy(), (x,), vjp, "permute")


def tsum(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        return (np.full(shape, float(g), dtype=dtype),)

    return primitive(np.asarray(x.data.sum(), dtype=x.dtype), (x,), vjp, "sum")


def _channel_sum(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last: the gradient of a per-channel weight."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along `axis`."""
    if not -x.ndim <= axis < x.ndim:
        raise NumericsError(f"narrow: axis {axis} out of range for {x.shape}")
    axis = axis % x.ndim
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise NumericsError(
            f"narrow: [{start}:{start + length}] out of bounds for axis {axis} "
            f"of {x.shape}"
        )
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index, shape = tuple(index), x.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return primitive(x.data[index].copy(), (x,), vjp, "narrow")


def _frame_array(a: np.ndarray, size: int, hop: int, length: int) -> np.ndarray:
    """[T, ...] zero-padded to `length` -> a copy [S, size, ...] of windows."""
    if length > a.shape[0]:
        a = np.pad(a, [(0, length - a.shape[0])] + [(0, 0)] * (a.ndim - 1))
    windows = np.lib.stride_tricks.sliding_window_view(a, size, axis=0)[::hop]
    return np.moveaxis(windows, -1, 1).copy()


def frame(x: Tensor, size: int, hop: int) -> Tensor:
    """Slice axis 0 into overlapping windows: [T, ...] -> [S, size, ...].

    The encoder frames a waveform [T] into [N, size] and chunk frames
    features [N, D] into [S, K, D], both with this one op.  The end of
    axis 0 is zero-padded to the shortest length size + m * hop >= T, so
    S = ceil(max(T - size, 0) / hop) + 1 and a short input is one window;
    an empty axis is refused.  The adjoint is overlap_add back to T, so
    gradients scatter-add back into place and the padding's share drops.
    """
    T = x.shape[0]
    if size <= 0 or hop <= 0 or T < 1:
        raise NumericsError(
            f"frame: size {size}, hop {hop} and length {T} must be positive")
    covered = -(-max(T - size, 0) // hop) * hop + size

    def vjp(g):
        return (_overlap_add_array(g, hop, T),)

    return primitive(_frame_array(x.data, size, hop, covered), (x,), vjp, "frame")


def _overlap_add_array(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Sum windows [S, size, ...] onto a line, keeping its first out_len rows."""
    S = min(frames.shape[0], -(-out_len // hop))    # windows starting in range
    out = np.zeros((out_len,) + frames.shape[2:], dtype=frames.dtype)
    for s in range(S):
        lo = s * hop
        out[lo : lo + frames.shape[1]] += frames[s, : out_len - lo]
    return out


def overlap_add(x: Tensor, hop: int, out_len: int) -> Tensor:
    """Sum overlapping windows back onto a line: [S, size, ...] -> [out_len, ...].

    Keeps the first out_len of the (S - 1) * hop + size rows covered, for
    any 0 < out_len <= that, which cuts off the padding frame added.  The
    adjoint of frame: its gradient frames the zero-extended gradient.
    """
    if x.ndim < 2:
        raise NumericsError(f"overlap_add: expected framed input, got {x.shape}")
    if hop <= 0:
        raise NumericsError("overlap_add: hop must be positive")
    S, size = x.shape[:2]
    covered = (S - 1) * hop + size
    if not 0 < out_len <= covered:
        raise NumericsError(
            f"overlap_add: {S} frames of {size} at hop {hop} cover "
            f"{covered} samples, so out_len {out_len} is out of range")

    def vjp(g):
        return (_frame_array(g, size, hop, covered),)

    return primitive(_overlap_add_array(x.data, hop, out_len), (x,), vjp, "overlap_add")


# ---------------------------------------------------------------------------
# matmul and depthwise convolution
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Apply the [O, I] map a to the last axis of b: [L, I] or [L, B, I],
    then add the optional per-channel bias [O].

    The leading axes of b are reshaped away, so the product and both
    gradients are each one 2-D GEMM, and the bias gradient one row sum.
    """
    if a.ndim != 2 or b.ndim not in (2, 3):
        raise NumericsError(
            f"matmul: needs ranks 2 and 2 or 3, got {a.ndim} and {b.ndim}"
        )
    O, I = a.shape
    if b.shape[-1] != I:
        raise NumericsError(
            f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}"
        )
    if bias is not None and bias.shape != (O,):
        raise NumericsError(f"matmul: bias {bias.shape} does not match {O} outputs")

    # each operand's gradient reads the other operand's values
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    shape = b.shape
    bias_grad = None if bias is None else bias.requires_grad

    def vjp(g):
        g = g.reshape(-1, O)
        ga = None if bd is None else g.T @ bd.reshape(-1, I)
        gb = None if ad is None else (g @ ad).reshape(shape)
        if bias_grad is None:
            return ga, gb
        return ga, gb, g.sum(axis=0) if bias_grad else None

    out = b.data.reshape(-1, I) @ a.data.T
    if bias is not None:
        out += bias.data
    return primitive(out.reshape(b.shape[:-1] + (O,)),
                     (a, b) if bias is None else (a, b, bias), vjp, "matmul")


def conv1d_depthwise(x: Tensor, kernel: Tensor, bias: Tensor,
                     reverse: bool = False) -> Tensor:
    """Causal depthwise convolution along axis 0.

    x: [L, ..., E], kernel: [E, W], bias: [E].  The input is
    front-padded with W - 1 zeros so position l never sees the future:
    y[l, ..., e] = sum_w kernel[e, w] * x[l - (W - 1) + w, ..., e] + bias[e].
    reverse=True is the anti-causal mirror, x[l + (W - 1) - w, ..., e]:
    the causal convolution of the time-reversed input, reversed back.
    """
    if x.ndim < 2:
        raise NumericsError(f"conv1d_depthwise: input must be [L, ..., E], got {x.shape}")
    if kernel.ndim != 2:
        raise NumericsError(f"conv1d_depthwise: kernel must be [E, W], got {kernel.shape}")
    E, W = kernel.shape
    if x.shape[-1] != E:
        raise NumericsError(
            f"conv1d_depthwise: channel count mismatch, input has {x.shape[-1]} "
            f"channels but kernel has {E}"
        )
    if bias.shape != (E,):
        raise NumericsError(
            f"conv1d_depthwise: bias {bias.shape} does not match {E} channels"
        )
    # tap w reads x shifted by s = W - 1 - w (later; earlier under reverse),
    # so its first (last) s outputs see only the zero padding, and a tap
    # with s >= L sees nothing else.  A tap is (w, output slice, input
    # slice) on axis 0, shared by the VJP.  The first tap writes the output:
    # no padded copy, no zero fill.  An empty input keeps the last tap,
    # whose slices are empty
    L = x.shape[0]
    w0 = max(W - max(L, 1), 0)
    taps = []
    for w in range(w0, W):
        s = W - 1 - w
        late, early = slice(s, None), slice(None, L - s)
        taps.append((w, early, late) if reverse else (w, late, early))
    taps_k = kernel.data.T  # [W, E]: tap w's weights broadcast over the rows
    x_grad, bias_grad = x.requires_grad, bias.requires_grad
    xd = x.data if kernel.requires_grad else None    # read by the kernel gradient
    out = np.empty_like(x.data)
    (_, o, i), s0 = taps[0], W - 1 - w0
    out[slice(L - s0, None) if reverse else slice(None, s0)] = 0.0
    np.multiply(taps_k[w0], x.data[i], out=out[o])
    for w, o, i in taps[1:]:
        out[o] += taps_k[w] * x.data[i]
    out += bias.data

    def vjp(g):
        gx = None
        if x_grad:
            gx = np.zeros_like(g)
            for w, o, i in taps:
                gx[i] += taps_k[w] * g[o]
        gk = None
        if xd is not None:
            gk = np.zeros((E, W), dtype=g.dtype)
            for w, o, i in taps:
                gk[:, w] = _channel_sum(g[o] * xd[i])
        gb = _channel_sum(g) if bias_grad else None
        return gx, gk, gb

    return primitive(out, (x, kernel, bias), vjp, "conv1d_depthwise")


# ---------------------------------------------------------------------------
# normalization primitives (reduce over the channel axis, the last one)
# ---------------------------------------------------------------------------


NORM_EPS = 1e-8


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by a per-channel gain.

    x: [..., D], gain: [D].  y = x / sqrt(mean_D(x^2) + NORM_EPS) * gain.
    """
    D = x.shape[-1]
    if gain.shape != (D,):
        raise NumericsError(f"rmsnorm: gain {gain.shape} does not match D={D}")
    xd, gd = x.data, gain.data
    x_grad, gain_grad = x.requires_grad, gain.requires_grad
    r = np.sqrt(np.mean(xd * xd, axis=-1, keepdims=True) + NORM_EPS)

    # the VJP keeps x and r and recomputes xhat = x / r, not a third array
    def vjp(g):
        gx = None
        if x_grad:
            u = g * gd
            dot = np.sum(u * xd, axis=-1, keepdims=True)
            gx = u / r - xd * dot / (D * r**3)
        gg = _channel_sum(g * (xd / r)) if gain_grad else None
        return gx, gg

    out = xd / r
    out *= gd
    return primitive(out, (x, gain), vjp, "rmsnorm")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Mean/variance normalization over the last axis with per-channel gain and bias."""
    D = x.shape[-1]
    if gain.shape != (D,) or bias.shape != (D,):
        raise NumericsError(
            f"layernorm: gain {gain.shape} / bias {bias.shape} do not match D={D}"
        )
    xd, gd = x.data, gain.data
    x_grad, gain_grad, bias_grad = (x.requires_grad, gain.requires_grad,
                                    bias.requires_grad)
    mu = np.mean(xd, axis=-1, keepdims=True)
    xc = xd - mu
    sigma = np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + NORM_EPS)

    # the VJP keeps x, mu and sigma and recomputes xhat = (x - mu) / sigma
    def vjp(g):
        xhat = (xd - mu) / sigma
        gx = None
        if x_grad:
            u = g * gd
            gx = (
                u
                - np.mean(u, axis=-1, keepdims=True)
                - xhat * np.mean(u * xhat, axis=-1, keepdims=True)
            ) / sigma
        gg = _channel_sum(g * xhat) if gain_grad else None
        gb = _channel_sum(g) if bias_grad else None
        return gx, gg, gb

    xc /= sigma
    return primitive(xc * gd + bias.data, (x, gain, bias), vjp, "layernorm")

