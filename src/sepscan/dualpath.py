"""Dual-path processing: chunking, normalization, and intra/inter blocks.

A long frame sequence h [N, D] is folded into overlapping chunks
[S, K, D] (50% overlap by default), so that one block can alternate

    h <- h + block_intra(norm(h))   sequences along K, batched over S
    h <- h + block_inter(norm(h))   sequences along S, batched over K

giving every output frame a path to every input frame while each scan
only ever runs over K or S steps.  The blocks take time-major [L, B, D]
sequences, so the inter pass runs on [S, K, D] as it is and only the
intra pass swaps the two leading axes, in and out.  dechunk inverts
chunk exactly: the overlap-add sum is divided by how many chunks cover
each frame.  The alignment lives in the framing ops: nm.frame pads N to
whole chunks and nm.overlap_add trims back to N.

A block's weights are the model's parameter entries below its prefix
(blocks.scope): the two norms, intra_norm. and inter_norm., each a gain
and, for a layernorm, a bias, and the two scan blocks, intra_scan. and
inter_scan.
"""

from __future__ import annotations

import numpy as np

from . import blocks
from . import numerics as nm
from .numerics import NumericsError, Tensor


# ---------------------------------------------------------------------------
# chunk / dechunk
# ---------------------------------------------------------------------------


def chunk(h: Tensor, chunk_len: int) -> Tensor:
    """Fold [N, D] into 50%-overlapping chunks [S, K, D], hop = K // 2.

    nm.frame zero-pads N up to K plus a whole number of hops, so
    S = ceil(max(N - K, 0) / hop) + 1; a short input becomes one chunk.
    """
    if h.ndim != 2:
        raise NumericsError(f"chunk expects [N, D], got {h.shape}")
    if chunk_len % 2:
        raise NumericsError(
            f"chunk_len must be even for 50% overlap, got {chunk_len}")
    return nm.frame(h, chunk_len, chunk_len // 2)


def dechunk(x: Tensor, n: int) -> Tensor:
    """Invert chunk of an [n, D] input: overlap-add the first n frames of
    the chunks x [S, K, D], normalize by coverage."""
    S, K, D = x.shape
    hop = K // 2
    summed = nm.overlap_add(x, hop, n)                     # [n, D]
    coverage = nm._overlap_add_array(np.ones((S, K), x.dtype), hop, n)
    inv = nm.as_tensor(np.broadcast_to((1.0 / coverage)[:, None], (n, D)))
    return nm.mul(summed, inv)


# ---------------------------------------------------------------------------
# normalization over the channel axis
# ---------------------------------------------------------------------------

NORM_KINDS = ("rmsnorm", "layernorm")


def apply_norm(x: Tensor, w: dict[str, Tensor]) -> Tensor:
    """Normalize over the channel axis (the last) at every position: a
    layernorm when w has a bias entry besides its gain, else an rmsnorm."""
    if "bias" in w:
        return nm.layernorm(x, w["gain"], w["bias"])
    return nm.rmsnorm(x, w["gain"])


# ---------------------------------------------------------------------------
# dual-path block
# ---------------------------------------------------------------------------


def dp_block(h: Tensor, w: dict[str, Tensor], exact_zoh: bool) -> Tensor:
    """One intra-chunk pass and one inter-chunk pass, each with a skip.

    w maps the block's parameter names below its prefix (intra_norm.gain,
    inter_scan.w_in, ...) to tensors.
    """
    if h.ndim != 3:
        raise NumericsError(f"dp_block expects [S, K, D], got {h.shape}")
    # nested, so the intra pass's [K, S, D] input and output die in the add
    h = nm.add(h, nm.permute(blocks.bi_scan_forward(
        nm.permute(apply_norm(h, blocks.scope(w, "intra_norm")), 1, 0, 2),
        blocks.scope(w, "intra_scan"), exact_zoh), 1, 0, 2))

    inter_out = blocks.bi_scan_forward(apply_norm(h, blocks.scope(w, "inter_norm")),
                                       blocks.scope(w, "inter_scan"), exact_zoh)
    return nm.add(h, inter_out)
