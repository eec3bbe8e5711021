"""Bidirectional selective-scan block.

One block sees a time-major sequence h [L, D] (or a batch [L, B, D]) and
runs it through two directional selective-SSM branches that share the
input and gate projections:

    h_in  = W_in h                      expanded to E = 2D channels
    z     = W_gate h
    x_fwd = SiLU(conv_fwd(h_in))        causal depthwise conv, kernel 4
    x_bwd = SiLU(conv_bwd(h_in))        anti-causal: the mirrored conv
    s_d   = scan_d(x_d) + d_skip * x_d  selective scan per direction, the
    y_d   = SiLU(z) * s_d               backward one from t = L - 1 down;
                                        one fused scan yields s_d and y_d
    out   = W_out((y_fwd + y_bwd) / 2)

The backward branch reads the same h_in and gate as the forward one, at
the same positions; only its conv and its scan run against time.  Each
of those is exactly its causal counterpart applied to the time-reversed
sequence and reversed back, and every other op acts on one position at
a time, so with tied weights the block is exactly flip-equivariant.  A
unidirectional variant drops the backward branch and the final averaging.
The projections act on the channel axis (the last) and the convs and
scans on time (axis 0), so no operand is permuted on its way to a scan.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import ssm
from .numerics import Tensor

CONV_WIDTH = 4
DT_MIN, DT_MAX = 1e-3, 1e-1


def dt_rank_for(d: int) -> int:
    """Rank of the two-stage delta projection for model width d."""
    return max(1, math.ceil(d / 16))


# ---------------------------------------------------------------------------
# weight containers
# ---------------------------------------------------------------------------


@dataclass
class DirectionWeights:
    conv_kernel: Tensor        # [E, CONV_WIDTH]
    conv_bias: Tensor          # [E]
    proj: ssm.SsmProjection
    a_log: Tensor              # [E, H]; the scan sees a = -exp(a_log) < 0
    d_skip: Tensor             # [E]


@dataclass
class BiScanWeights:
    w_in: Tensor               # [E, D]
    w_gate: Tensor             # [E, D]
    w_out: Tensor              # [D, E]
    fwd: DirectionWeights
    bwd: DirectionWeights | None = None   # None -> unidirectional
    exact_zoh: bool = False


def named_parameters(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Flatten a weight struct into stable (dotted-name, tensor) pairs."""
    if isinstance(obj, Tensor):
        return [(prefix, obj)]
    out: list[tuple[str, Tensor]] = []
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None or isinstance(value, (bool, int, float, str)):
                continue
            name = f"{prefix}.{f.name}" if prefix else f.name
            out.extend(named_parameters(value, name))
        return out
    if isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            name = f"{prefix}.{i}" if prefix else str(i)
            out.extend(named_parameters(value, name))
        return out
    return out


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def _linear_init(rng, out_dim, in_dim):
    bound = 1.0 / math.sqrt(in_dim)
    return nm.uniform((out_dim, in_dim), -bound, bound, rng, requires_grad=True)


def init_direction(e: int, h: int, dt_rank: int,
                   rng: np.random.Generator) -> DirectionWeights:
    conv_bound = 1.0 / math.sqrt(CONV_WIDTH)
    conv_kernel = nm.uniform((e, CONV_WIDTH), -conv_bound, conv_bound, rng,
                             requires_grad=True)
    conv_bias = nm.uniform((e,), -conv_bound, conv_bound, rng, requires_grad=True)
    proj = ssm.SsmProjection(
        w_delta_down=_linear_init(rng, dt_rank, e),
        w_delta_up=_linear_init(rng, e, dt_rank),
        # bias chosen so softplus lands log-uniformly in [DT_MIN, DT_MAX]
        b_delta=Tensor(
            np.log(np.expm1(np.exp(
                rng.uniform(np.log(DT_MIN), np.log(DT_MAX), size=e)
            ))),
            requires_grad=True,
        ),
        w_b=_linear_init(rng, h, e),
        w_c=_linear_init(rng, h, e),
    )
    # a[e, k] = -(k + 1): slow-to-fast decay ladder shared by every channel
    a_log = Tensor(np.tile(np.log(np.arange(1, h + 1)), (e, 1)), requires_grad=True)
    d_skip = nm.ones((e,), requires_grad=True)
    return DirectionWeights(conv_kernel=conv_kernel, conv_bias=conv_bias,
                            proj=proj, a_log=a_log, d_skip=d_skip)


def init_bi_scan(d: int, h: int, rng: np.random.Generator,
                 bidirectional: bool = True,
                 exact_zoh: bool = False) -> BiScanWeights:
    e = 2 * d
    dtr = dt_rank_for(d)
    return BiScanWeights(
        w_in=_linear_init(rng, e, d),
        w_gate=_linear_init(rng, e, d),
        w_out=_linear_init(rng, d, e),
        fwd=init_direction(e, h, dtr, rng),
        bwd=init_direction(e, h, dtr, rng) if bidirectional else None,
        exact_zoh=exact_zoh,
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _branch(h_in: Tensor, gate: Tensor, dw: DirectionWeights, exact_zoh: bool,
            reverse: bool) -> Tensor:
    """One direction: SiLU(conv(h_in)) through one scan, skip and gate fused."""
    x = nm.silu(nm.conv1d_depthwise(h_in, dw.conv_kernel, dw.conv_bias,
                                    reverse=reverse))
    a = nm.neg(nm.exp(dw.a_log))
    params = ssm.selective_parameterize(x, dw.proj, a, exact_zoh=exact_zoh)
    params.d_skip, params.gate = dw.d_skip, gate
    return ssm.scan_sequential(x, params, reverse=reverse)


def bi_scan_forward(h: Tensor, w: BiScanWeights) -> Tensor:
    """Run one block over h: [L, D] or [L, B, D]; output matches the input shape."""
    h_in = nm.matmul(w.w_in, h)
    gate = nm.silu(nm.matmul(w.w_gate, h))
    y_f = _branch(h_in, gate, w.fwd, w.exact_zoh, reverse=False)
    if w.bwd is None:
        return nm.matmul(w.w_out, y_f)
    y_b = _branch(h_in, gate, w.bwd, w.exact_zoh, reverse=True)
    return nm.matmul(w.w_out, nm.mean_pair(y_f, y_b))
