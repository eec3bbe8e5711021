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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks
from . import numerics as nm
from .numerics import NumericsError, Tensor


# ---------------------------------------------------------------------------
# chunk / dechunk
# ---------------------------------------------------------------------------


@dataclass
class ChunkedFeature:
    data: Tensor          # [S, K, D], hop K // 2
    original_len: int     # N before alignment padding


def chunk(h: Tensor, chunk_len: int) -> ChunkedFeature:
    """Fold [N, D] into 50%-overlapping chunks [S, K, D], hop = K // 2.

    nm.frame zero-pads N up to K plus a whole number of hops, so
    S = ceil(max(N - K, 0) / hop) + 1; a short input becomes one chunk.
    """
    if h.ndim != 2:
        raise NumericsError(f"chunk expects [N, D], got {h.shape}")
    if chunk_len % 2:
        raise NumericsError(
            f"chunk_len must be even for 50% overlap, got {chunk_len}")
    framed = nm.frame(h, chunk_len, chunk_len // 2)
    return ChunkedFeature(data=framed, original_len=h.shape[0])


def dechunk(cf: ChunkedFeature) -> Tensor:
    """Invert chunk: overlap-add the first N frames, normalize by coverage."""
    S, K, D = cf.data.shape
    hop, N = K // 2, cf.original_len
    summed = nm.overlap_add(cf.data, hop, N)               # [N, D]
    coverage = np.zeros(N, dtype=cf.data.dtype)
    for s in range(S):
        coverage[s * hop : s * hop + K] += 1.0
    inv = Tensor(np.broadcast_to((1.0 / coverage)[:, None], (N, D)))
    return nm.mul(summed, inv)


# ---------------------------------------------------------------------------
# normalization over the channel axis
# ---------------------------------------------------------------------------

NORM_KINDS = ("rmsnorm", "layernorm")


@dataclass
class NormWeights:
    kind: str
    gain: Tensor
    bias: Tensor | None = None


def init_norm(d: int, kind: str) -> NormWeights:
    if kind not in NORM_KINDS:
        raise NumericsError(f"unknown norm kind '{kind}' (have {NORM_KINDS})")
    gain = nm.ones((d,), requires_grad=True)
    bias = nm.zeros((d,), requires_grad=True) if kind == "layernorm" else None
    return NormWeights(kind=kind, gain=gain, bias=bias)


def apply_norm(x: Tensor, w: NormWeights) -> Tensor:
    """Normalize over the channel axis (the last) at every position."""
    if w.kind == "rmsnorm":
        return nm.rmsnorm(x, w.gain)
    return nm.layernorm(x, w.gain, w.bias)


# ---------------------------------------------------------------------------
# dual-path block
# ---------------------------------------------------------------------------


@dataclass
class DpBlockWeights:
    intra_norm: NormWeights
    intra_scan: blocks.BiScanWeights
    inter_norm: NormWeights
    inter_scan: blocks.BiScanWeights


def init_dp_block(d: int, h: int, norm_kind: str, rng: np.random.Generator,
                  bidirectional: bool = True,
                  exact_zoh: bool = False) -> DpBlockWeights:
    return DpBlockWeights(
        intra_norm=init_norm(d, norm_kind),
        intra_scan=blocks.init_bi_scan(d, h, rng, bidirectional, exact_zoh),
        inter_norm=init_norm(d, norm_kind),
        inter_scan=blocks.init_bi_scan(d, h, rng, bidirectional, exact_zoh),
    )


def dp_block(h: Tensor, w: DpBlockWeights) -> Tensor:
    """One intra-chunk pass and one inter-chunk pass, each with a skip."""
    if h.ndim != 3:
        raise NumericsError(f"dp_block expects [S, K, D], got {h.shape}")
    intra_in = nm.permute(apply_norm(h, w.intra_norm), 1, 0, 2)     # [K, S, D]
    intra_out = blocks.bi_scan_forward(intra_in, w.intra_scan)
    h = nm.add(h, nm.permute(intra_out, 1, 0, 2))                   # [S, K, D]

    inter_out = blocks.bi_scan_forward(apply_norm(h, w.inter_norm), w.inter_scan)
    return nm.add(h, inter_out)
