"""Bidirectional selective-scan block.

One block sees a time-major sequence h [L, D] (or a batch [L, B, D]) and
runs it through two directional selective-SSM branches that share the
input and gate projections:

    h_in  = W_in h                      expanded to E = 2D channels
    z     = W_gate h
    x_fwd = SiLU(conv_fwd(h_in))        causal depthwise conv, kernel 4
    x_bwd = SiLU(conv_bwd(h_in))        anti-causal: the mirrored conv
    s_d   = scan_d(x_d) + d_skip * x_d  one fused selective scan per direction,
                                        the backward one from t = L - 1 down
    out   = W_out(SiLU(z) * (s_fwd + s_bwd) / 2)

The backward branch reads the same h_in as the forward one, at the same
positions; only its conv and its scan run against time, and the gate
SiLU(z), which both directions share, multiplies their mean once.  Each
of those is exactly its causal counterpart applied to the time-reversed
sequence and reversed back, and every other op acts on one position at
a time, so with tied weights the block is exactly flip-equivariant.  A
unidirectional variant drops the backward branch and the averaging, so
its output is W_out(SiLU(z) * s_fwd).
The projections act on the channel axis (the last) and the convs and
scans on time (axis 0), so no operand is permuted on its way to a scan.

Every op of the block is independent across the batch axis of [L, B, D]
(chunks in the intra pass, positions in the inter pass).  So an untaped
(inference) block runs over contiguous tiles of that axis and writes each
tile's output into one [L, B, D] result: its E-wide temporaries (h_in,
the gate, each branch's conv output x, raw delta, step sizes and s, the
mean of the two directions and the gated mean) exist for one tile at a
time, so the block's share of the peak is set by the tile, not by the
input length.  Within a tile each lives only while it is read: both
directions' x are formed from h_in before either scan runs, so h_in dies
first, and each x dies once its scan has returned.  The tile is sized in
bytes, from L*E*itemsize against _TILE_BYTES, like the scan kernels'
batch tiles (ssm._TILE_BYTES): one rule serves every (L, E, dtype), and a
batch whose [L, B, E] array fits is one tile, run as it was.  The size
keeps hundreds of rows in every projection GEMM; GEMMs of a few rows
round differently, and at this size the tiled outputs are bit-identical
to the untiled ones.  A taped (training) block runs whole.

A block holds no weights of its own.  It reads the entries of the
model's name-keyed parameter dict below its prefix, which `scope`
selects: w_in, w_gate, w_out, and per direction (fwd., bwd.) the conv
kernel and bias, the delta/B/C projections under proj., a_log (the scan
sees a = -exp(a_log) < 0) and d_skip.  The names and shapes are
model.parameter_shapes; the initial values are model.init_parameters.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from . import ssm
from .numerics import Tensor

CONV_WIDTH = 4

# bytes of one batch tile's [L, b, E] array in an untaped block
_TILE_BYTES = 1 << 20


def dt_rank_for(d: int) -> int:
    """Rank of the two-stage delta projection for model width d, ceil(d / 16)
    in integers: a checkpoint's d may be too large for a float."""
    return max(1, -(-d // 16))


def scope(params: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """The entries of params named prefix.<rest>, keyed by <rest>."""
    head = prefix + "."
    return {name[len(head):]: p for name, p in params.items()
            if name.startswith(head)}


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _conv(h_in: Tensor, w: dict[str, Tensor], reverse: bool) -> Tensor:
    """One direction's scan input: SiLU(conv(h_in)), anti-causal if reverse."""
    return nm.silu(nm.conv1d_depthwise(h_in, w["conv_kernel"], w["conv_bias"],
                                       reverse=reverse))


def _branch(x: Tensor, w: dict[str, Tensor], exact_zoh: bool,
            reverse: bool) -> Tensor:
    """One direction: x = _conv(h_in) through one scan, skip fused."""
    a = nm.neg(nm.exp(w["a_log"]))
    params = ssm.selective_parameterize(x, scope(w, "proj"), a, exact_zoh)
    params.d_skip = w["d_skip"]
    return ssm.scan_sequential(x, params, reverse=reverse)


def bi_scan_forward(h: Tensor, w: dict[str, Tensor], exact_zoh: bool) -> Tensor:
    """Run one block over h: [L, D] or [L, B, D]; output matches the input shape.

    w maps the block's parameter names below its prefix (w_in, fwd.a_log,
    ...) to tensors; the block is unidirectional when it has no bwd.* entry.
    Untaped, a batch runs over tiles of its batch axis (module docstring).
    """
    taped = h.requires_grad or any(p.requires_grad for p in w.values())
    if taped or h.ndim != 3:
        return _bi_scan(h, w, exact_zoh)
    L, B, _ = h.shape
    n = max(1, _TILE_BYTES // max(1, L * w["w_in"].shape[0] * h.data.itemsize))
    if n >= B:
        return _bi_scan(h, w, exact_zoh)
    out = np.empty((L, B, w["w_out"].shape[0]), dtype=h.dtype)
    for i in range(0, B, n):
        out[:, i:i + n] = _bi_scan(nm.as_tensor(h.data[:, i:i + n]), w,
                                   exact_zoh).data
    return nm.as_tensor(out)


def _bi_scan(h: Tensor, w: dict[str, Tensor], exact_zoh: bool) -> Tensor:
    """bi_scan_forward on the whole of h, taped or not; h_in and each x
    are dropped as soon as nothing reads them (module docstring)."""
    fwd, bwd = scope(w, "fwd"), scope(w, "bwd")
    h_in = nm.matmul(w["w_in"], h)
    gate = nm.silu(nm.matmul(w["w_gate"], h))
    x_f = _conv(h_in, fwd, reverse=False)
    x_b = _conv(h_in, bwd, reverse=True) if bwd else None
    del h_in
    y = _branch(x_f, fwd, exact_zoh, reverse=False)
    del x_f
    if bwd:
        y = nm.mean_pair(y, _branch(x_b, bwd, exact_zoh, reverse=True))
    return nm.matmul(w["w_out"], nm.mul(gate, y))
