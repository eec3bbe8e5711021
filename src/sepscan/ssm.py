"""Selective state-space scans: recurrence kernels, discretization, oracle.

A continuous-time diagonal state-space model

    h'(t) = A h(t) + B x(t),    y(t) = C h(t)

is stepped at input-dependent intervals delta.  Zero-order hold gives

    Abar = exp(delta A)
    Bbar = (delta A)^-1 (exp(delta A) - I) delta B     (exact form)
         = delta B                                     (Euler simplification)

and the discrete recurrence h_t = Abar_t h_{t-1} + Bbar_t x_t, y_t = C_t h_t.
Selectivity means delta, B, and C are functions of the input at each step
while A stays input-independent.

Both scans are Mamba's fused selective scan without its gate: given
SsmParams' delta_bias and d_skip, they return y + d_skip x for the
recurrence y stepped at softplus(delta + delta_bias); a field left None
drops its term.  The gate SiLU(z) is the block's, which multiplies it once
into the mean of its two directions (blocks).

Three evaluation paths compute the same recurrence:

  * scan_sequential: the stepwise loop, O(B*E*H) live state;
  * scan_parallel:   associative prefix doubling over (Abar, Bbar x) pairs;
  * kernel_convolve: a dense-matrix convolution oracle, valid only for
    time-invariant parameters, kept deliberately independent so the fast
    paths have something external to agree with.

Both scans differentiate through a fused adjoint that does not store the
hidden-state trajectory.  A scan on the gradient tape keeps h_{t0-1} at
each block start t0 > 0, one state per _BLOCK steps (the parallel scan
reads them off its prefix states); the adjoint walks the blocks once, in
reverse.  It rebuilds each block's states from its checkpoint with one
_zoh call, which writes the block's Bbar x into its state buffer, then
steps h_t = Bbar_t x_t + Abar_t h_{t-1}: the forward's sum with its terms
swapped, so the states are the forward's bit for bit.  Its reverse loop
keeps only the recurrence lambda_t, which overwrites h_t once gc has read
it, W_t = Abar_t lambda_t h_{t-1}, which overwrites Abar_t, and ga's term;
the sums over H and E behind gdelta, gx and gb then take the whole block
in one call each.  An untaped (inference) scan keeps no checkpoints.
_zoh is the one copy of the discretization arithmetic, which both scans
and the adjoint call with x itself: it alone forms the input term Bbar x,
so no kernel knows Euler's delta x.

The sequential loop and the adjoint step through the operands in the
layout the graph already holds them: x, delta (and the adjoint's g) are
time-major [L, B, E] and b and c [L, B, H], so each step reads
contiguous slices, every broadcast runs over E in its inner loop, and no
operand is relaid out on entry; only a goes to [H, E].  The state is one
[B, H, E] buffer updated in place (h *= Abar; h += Bbar x), so an
untaped scan's live state stays O(B*E*H) whatever L is; the contractions
over H (y_t = c_t h_t, and the adjoint's b_t lambda_t and h_t g_t) are
matmuls.

The forward discretizes a group of G steps per _zoh call, into reused
[G, B, H, E] buffers of Abar and Bbar x through _zoh's out=; each step
then makes only h *= Abar_t, h += Bbar_t x_t and the c_t h_t matmul.
A numpy call's fixed cost is a large part of a short, narrow scan's time,
so the groups pay on one thread: one _zoh per step, bit-identical, takes
1.12x as long at the CLI's intra-chunk shape (L = 250, 3 chunks, E = 256,
H = 16, float32, Euler), 1.11x at a float64 training intra shape and 1.00x
at the CLI's inter-chunk shape (one BLAS thread, medians of 30 runs).
G = min(_GROUP, _TILE_BYTES // the tile's state bytes), at least 1, so
each buffer stays within _TILE_BYTES: a narrow tile takes several steps
per call (5 for the CLI's intra-chunk scans at E = 256, H = 16), a wide
tile, whose state fills _TILE_BYTES, takes one, and the cap keeps the
buffers of a tiny state, a fixed cost, small next to a short scan's O(L)
arrays.
The per-step products stay plain ufunc calls, not np.einsum (2.4 against
0.6 us a call): an einsum _zoh was 10-35% faster on one thread but slower
end to end when the CLI ran two threads, and is not re-measured since.

Both kernels run over contiguous tiles of the batch axis, each a full scan
of its rows from its own step sizes, so those exist a tile at a time.
Each kernel allocates its state and step buffers once per call, sized by
the first (largest) tile once its step sizes' temporaries are freed; each
tile steps in leading views of them, its states zeroed first.  A state is
touched several times per step, so it should stay in cache from one step
to the next: the tile is sized in bytes, from H*E*itemsize against
_TILE_BYTES, so the same rule serves every (E, H, dtype) and a batch
whose whole state fits is one tile.  The inter-chunk scans of a wide
model are where this matters: at E = 256, H = 16 a batch of 250 chunks is
a 4 MB float32 state, which untiled streams through memory at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import NumericsError, Tensor

# block length for the backward-pass state replay; bounds the recompute
# buffers at _BLOCK * B * E * H regardless of sequence length
_BLOCK = 64

# bytes of one batch tile's [B, H, E] state in the sequential kernels, and
# the most one of the forward's step-group buffers holds, so the state and
# its step buffers stay in L2 from one step to the next
_TILE_BYTES = 256 * 1024

# the most steps one _zoh call discretizes in the forward, so that a tiny
# state's step-group buffers stay small
_GROUP = 8

# the dense oracle is a correctness instrument, not a compute path
MAX_ORACLE_H = 32
MAX_ORACLE_L = 1024


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SsmParams:
    """Per-sequence scan parameters.

    a:     [E, H] continuous-time diagonal, strictly negative
    delta: [L, E] or [L, B, E], strictly positive step sizes (raw, under a bias)
    b:     [L, H] or [L, B, H], input projection at each step
    c:     [L, H] or [L, B, H], output projection at each step
    delta_bias and d_skip [E]: the fused terms, or None
    """

    a: Tensor
    delta: Tensor
    b: Tensor
    c: Tensor
    exact_zoh: bool = False
    delta_bias: Tensor | None = None
    d_skip: Tensor | None = None

    def validate(self, x: Tensor) -> None:
        if x.ndim not in (2, 3):
            raise NumericsError(f"scan input must be [L, E] or [L, B, E], got {x.shape}")
        if self.delta.shape != x.shape:
            raise NumericsError(
                f"scan: delta {self.delta.shape} does not match input {x.shape}"
            )
        if self.a.ndim != 2:
            raise NumericsError(f"scan: a must be [E, H], got {self.a.shape}")
        E, H = self.a.shape
        if x.shape[-1] != E:
            raise NumericsError(
                f"scan: input has {x.shape[-1]} channels but a has {E}"
            )
        want_bc = x.shape[:-1] + (H,)
        if self.b.shape != want_bc or self.c.shape != want_bc:
            raise NumericsError(
                f"scan: b {self.b.shape} / c {self.c.shape} do not match {want_bc}"
            )
        for name in ("delta_bias", "d_skip"):
            if (t := getattr(self, name)) is not None and t.shape != (E,):
                raise NumericsError(f"scan: {name} {t.shape} does not match {(E,)}")
        if not np.all(np.isfinite(self.a.data)) or np.any(self.a.data >= 0.0):
            raise NumericsError("scan: a must be finite and strictly negative")


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def _step_sizes(delta, bias):
    """delta, or softplus(delta + bias) in a fresh array by the stable split
    max(z, 0) + log1p(exp(-|z|)), whose exp never overflows.  Every step
    must be finite and strictly positive; a softplus may underflow to 0."""
    if bias is not None:
        z = delta + bias
        delta = np.abs(z)
        np.negative(delta, out=delta)
        np.log1p(np.exp(delta, out=delta), out=delta)
        delta += np.maximum(z, 0.0, out=z)
    # NaN fails both comparisons; initial= passes an empty tile
    if not (delta.min(initial=np.inf) > 0.0 and delta.max(initial=0.0) < np.inf):
        raise NumericsError("scan: delta must be finite and strictly positive")
    return delta


def _zoh(dt, a, b, x, exact_zoh, out=(None, None, None)):
    """Discretize broadcastable ndarrays: (Abar, Bbar x) with Bbar = p * b.

    p = expm1(dt a) / a under the exact hold and dt under Euler; it is
    also dBbar/db, which the adjoint reuses.  Bbar x is (p b) x under the
    exact hold and b (dt x) under Euler, whose E-wide dt x is the cheaper
    product to take first.  out = (abar, bx, p) writes the results into
    those arrays in place of fresh ones; the exact hold writes p into the
    third, where the adjoint reads it, and Euler ignores that buffer.
    """
    abar, bx, p = out
    z = np.multiply(dt, a, out=abar)
    if exact_zoh:
        p = np.expm1(z, out=p)
        p /= a
        bx = np.multiply(p, b, out=bx)
        bx *= x
    else:
        bx = np.multiply(np.multiply(dt, x), b, out=bx)
    return np.exp(z, out=z), bx


# ---------------------------------------------------------------------------
# fused scan arithmetic (ndarray level)
# ---------------------------------------------------------------------------


def _tiles(B, H, E, itemsize):
    """Contiguous slices of the batch axis whose [b, H, E] states each fit
    in _TILE_BYTES; one slice when the whole batch's state fits."""
    n = max(1, _TILE_BYTES // (H * E * itemsize))
    return [slice(i, min(i + n, B)) for i in range(0, B, n)]


def _scan_forward(x, d, bias, a, b, c, exact_zoh, taped):
    """The sequential kernel: steps h_t = Abar_t h_{t-1} + Bbar_t x_t per
    batch tile and reads y_t = c_t h_t, one matmul over H per step; one
    _zoh call discretizes a group of G steps.  Returns (y, ck): a taped
    scan's ck holds h_{t0-1} for each block start t0 > 0,
    [(L - 1) // _BLOCK, B, H, E], for the adjoint; an untaped one's is None.
    """
    aT = np.ascontiguousarray(a.T)
    L, B, E = x.shape
    H = aT.shape[0]
    y = np.empty(x.shape, dtype=x.dtype)
    ck = np.empty((max(L - 1, 0) // _BLOCK, B, H, E), x.dtype) if taped else None
    h_all = None
    for k in _tiles(B, H, E, x.itemsize):
        dk = _step_sizes(d[:, k], bias)
        n = k.stop - k.start
        if h_all is None:
            # the first tile is the largest; every tile steps in leading
            # views of its buffers, made once its step sizes' temporaries
            # are gone
            G = max(1, min(_GROUP, _TILE_BYTES // (n * H * E * x.itemsize)))
            h_all = np.empty((n, H, E), x.dtype)
            abar_all, bx_all = (np.empty((G, n, H, E), x.dtype) for _ in range(2))
        h = h_all[:n]
        h.fill(0)
        xk, bk = x[:, k, None, :], b[:, k, :, None]
        ct, yt = c[:, k, None, :], y[:, k, None, :]
        for t0 in range(0, L, G):
            grp = slice(t0, min(t0 + G, L))
            g = grp.stop - t0
            abar, bx = _zoh(dk[grp, :, None, :], aT, bk[grp], xk[grp], exact_zoh,
                            out=(abar_all[:g, :n], bx_all[:g, :n], None))
            for i in range(g):
                t = t0 + i
                h *= abar[i]
                h += bx[i]
                np.matmul(ct[t], h, out=yt[t])
                if taped and (t + 1) % _BLOCK == 0 and t + 1 < L:
                    ck[t // _BLOCK, k] = h
    return y, ck


def _scan_backward(x, d, bias, a, b, c, exact_zoh, ck, g):
    """Adjoint of the recurrence with blockwise state replay.

    Hidden states are not kept from the forward pass, only the block
    checkpoints ck it returned.  Per batch tile, one sweep walks the blocks
    in reverse, rebuilds each block's states from its checkpoint (from
    zeros for block 0) with the forward's own _zoh arithmetic, takes the
    c-gradient gc_t = h_t g_t of the whole block in one matmul and runs the
    adjoint recurrence

        lambda_t = g_t c_t + Abar_{t+1} lambda_{t+1}

    It runs time-major with [B, H, E] states, like the forward.  The [H, E]
    ga sums step by step in reverse time order; the other sums take a block
    per call (module docstring).
    """
    aT = np.ascontiguousarray(a.T)
    L, B, E = x.shape
    H = aT.shape[0]
    gx, gdelta, gb, gc = (np.empty(arr.shape, dtype=arr.dtype)
                          for arr in (x, d, b, c))
    ga = np.zeros(aT.shape, dtype=x.dtype)
    hbuf_all = None
    for k in _tiles(B, H, E, x.itemsize):
        dk = _step_sizes(d[:, k], bias)
        m = k.stop - k.start
        if hbuf_all is None:
            # the first tile is the largest; every tile works in leading
            # views of these buffers, made once its step sizes' temporaries
            # are gone
            n_max = min(_BLOCK, L)
            abar_all = np.empty((n_max, m, H, E), x.dtype)
            hbuf_all = np.empty((n_max + 1, m, H, E), x.dtype)
            p_all = np.empty_like(abar_all) if exact_zoh else None
            states = np.empty((5 if exact_zoh else 2, m, H, E), x.dtype)
        abar_b, hbuf = abar_all[:, :m], hbuf_all[:, :m]
        # blocks in reverse; lam_carry = Abar_{t+1} lambda_{t+1}
        lam_carry, wa, *scratch = states[:, :m]
        lam_carry.fill(0)
        for blk in range(len(ck), -1, -1):
            t0 = blk * _BLOCK
            blk_t = slice(t0, min(t0 + _BLOCK, L))
            n = blk_t.stop - t0
            # rebuild states h_{t0-1} .. h_{t0+n-1} for this block: one _zoh
            # call puts each step's Bbar x in hbuf, then h_t = Bbar_t x_t +
            # Abar_t h_{t-1}, the forward's sum with its terms swapped
            hbuf[0] = ck[blk - 1, k] if blk else 0
            p_b = p_all[:n, :m] if exact_zoh else None
            _zoh(dk[blk_t, :, None, :], aT, b[blk_t, k, :, None], x[blk_t, k, None, :],
                 exact_zoh, out=(abar_b[:n], hbuf[1:n + 1], p_b))
            for i in range(n):
                hbuf[i + 1] += np.multiply(abar_b[i], hbuf[i], out=wa)
            lam, w = hbuf[1:n + 1], abar_b[:n]
            np.matmul(lam, g[blk_t, k, :, None], out=gc[blk_t, k, :, None])
            for i in range(n - 1, -1, -1):
                t = t0 + i
                at = abar_b[i]
                np.multiply(c[t, k, :, None], g[t, k, None, :], out=lam[i])
                lam[i] += lam_carry
                np.multiply(at, lam[i], out=lam_carry)
                if exact_zoh:
                    # p = expm1(delta a) / a: dp/ddelta = Abar and
                    # dp/da = (delta Abar - p) / a; dL/dp = lambda x_t b_t
                    dbbar, dp, tmp = scratch
                    np.multiply(lam[i], x[t, k, None, :], out=dbbar)
                    np.multiply(dbbar, b[t, k, :, None], out=dp)
                    np.multiply(dp, at, out=tmp).sum(axis=1, out=gdelta[t, k])
                    gb[t, k] = np.multiply(dbbar, p_b[i], out=tmp).sum(axis=-1)
                    np.multiply(lam[i], p_b[i], out=tmp)
                    tmp *= b[t, k, :, None]
                    gx[t, k] = tmp.sum(axis=1)
                    np.multiply(dk[t, :, None, :], at, out=tmp)
                    tmp -= p_b[i]
                    tmp *= dp
                    tmp /= aT
                # W_t = dL/dAbar_t Abar_t replaces Abar_t; dAbar/ddelta = Abar a,
                # dAbar/da = Abar delta
                np.multiply(lam_carry, hbuf[i], out=at)
                ga += np.multiply(at, dk[t, :, None, :], out=wa).sum(axis=0)
                if exact_zoh:
                    ga += tmp.sum(axis=0)
            w *= aT
            if exact_zoh:
                gdelta[blk_t, k] += w.sum(axis=2)
            else:
                w.sum(axis=2, out=gdelta[blk_t, k])
                # Euler: Bbar = delta b, so with s = b_t lambda_t the x- and
                # delta-gradients are delta_t s and x_t s, and gb sums
                # lambda_t over E against delta_t x_t; s goes into the dead w
                s = np.matmul(b[blk_t, k, None, :], lam, out=w[:, :, :1])[:, :, 0]
                np.multiply(dk[blk_t], s, out=gx[blk_t, k])
                s *= x[blk_t, k]
                gdelta[blk_t, k] += s
                np.matmul(lam, (dk[blk_t] * x[blk_t, k])[..., None],
                          out=gb[blk_t, k, :, None])
        if bias is not None:
            # sigmoid(z) = 1 - exp(-softplus(z)), formed in the dead dk so
            # that no [L, B, E] temporary joins the block buffers
            gdelta[:, k] *= np.negative(np.expm1(np.negative(dk, out=dk), out=dk), out=dk)
    return gx, gdelta, ga.T, gb, gc


def _scan_parallel_forward(x, d, bias, a, b, c, exact_zoh, taped):
    """Prefix-doubling evaluation of the same recurrence.

    The recurrence elements (a_t, u_t) with u_t = Bbar_t x_t compose as
    (a2, u2) o (a1, u1) = (a2 a1, a2 u1 + u2); an inclusive scan under this
    product yields h_t directly.  log2(L) passes along the time axis, each
    a full-width array op in place, O(L log L) work against the sequential
    loop's O(L).  It runs on the kernels' time-major [L, B, H, E] states,
    so when taped the adjoint's block checkpoints are slices of eu.
    """
    L = x.shape[0]
    d = _step_sizes(d, bias)
    ea, eu = _zoh(d[:, :, None, :], a.T, b[..., None], x[:, :, None, :],
                  exact_zoh)                                        # [L, B, H, E]
    # in place: numpy buffers the overlapping operands of each op, so every
    # pass reads the previous pass's values; eu goes first, as it needs the
    # ea from before this pass
    k = 1
    while k < L:
        eu[k:] += ea[k:] * eu[:-k]
        ea[k:] *= ea[:-k]
        k *= 2
    ck = eu[_BLOCK - 1:L - 1:_BLOCK].copy() if taped else None     # [n, B, H, E]
    return np.matmul(c[:, :, None, :], eu)[:, :, 0], ck


# ---------------------------------------------------------------------------
# scan ops (graph level)
# ---------------------------------------------------------------------------


def _run_scan(x: Tensor, params: SsmParams, forward_fn, op_name: str,
              reverse: bool) -> Tensor:
    params.validate(x)
    batched = x.ndim == 3
    a, exact = params.a, params.exact_zoh
    bias, skip = (getattr(t, "data", None) for t in (params.delta_bias, params.d_skip))
    fused = [t for t in (params.delta_bias, params.d_skip) if t is not None]
    operands = (x, params.delta, a, params.b, params.c, *fused)

    # time is axis 0 of every operand but a; under reverse the kernels see
    # time-reversed views, so nothing is copied either way
    def lift(arr):
        arr = arr[::-1] if reverse else arr
        return arr if batched else arr[:, None]

    def back(arr):
        """Inverse of lift: a kernel result in the caller's layout."""
        arr = arr if batched else arr[:, 0]
        return arr[::-1] if reverse else arr

    xs, ds, bs, cs = (lift(t.data) for t in (x, params.delta, params.b, params.c))
    # only a scan on the tape keeps the adjoint's block checkpoints
    taped = any(t.requires_grad for t in operands)
    y, ck = forward_fn(xs, ds, bias, a.data, bs, cs, exact, taped)
    out = back(y)
    if skip is not None:
        out += skip * x.data
    # the VJP reads these arrays (xs is a view of x's)
    ad, xd = a.data, x.data

    def vjp(g):
        gx, gd, ga, gb, gc = _scan_backward(xs, ds, bias, ad, bs, cs, exact,
                                            ck, lift(g))
        grads = [back(gx), back(gd), ga, back(gb), back(gc)]
        if bias is not None:
            grads.append(nm._channel_sum(grads[1]))
        if skip is not None:
            grads[0] += g * skip
            grads.append(nm._channel_sum(g * xd))
        return grads

    return nm.primitive(out, operands, vjp, op_name)


def scan_sequential(x: Tensor, params: SsmParams, reverse: bool = False) -> Tensor:
    """Evaluate the selective recurrence stepwise.  x: [L, E] or [L, B, E].

    reverse=True steps t from L - 1 down to 0: the scan of the
    time-reversed sequence, reversed back.
    """
    return _run_scan(x, params, _scan_forward, "scan_sequential", reverse)


def scan_parallel(x: Tensor, params: SsmParams) -> Tensor:
    """Evaluate the selective recurrence by associative prefix doubling.

    Exactly the same contract and adjoint as the forward scan_sequential;
    results and gradients agree to reassociation-level rounding (1e-8
    scale in float64), the adjoint replaying from this scan's own states.
    """
    return _run_scan(x, params, _scan_parallel_forward, "scan_parallel", False)


# ---------------------------------------------------------------------------
# selective parameterization
# ---------------------------------------------------------------------------


def selective_parameterize(x: Tensor, proj: dict[str, Tensor], a: Tensor,
                           exact_zoh: bool) -> SsmParams:
    """Derive per-step (delta, b, c) from the sequence itself.

    proj holds the learned maps by name: w_delta_down [dt_rank, E],
    w_delta_up [E, dt_rank], b_delta [E], w_b and w_c [H, E].
    delta = W_up (W_down x) through a rank-reduced pair, raw: the scan adds
    delta_bias (b_delta) and takes the softplus.  b and c are direct linear
    readouts of each step.  x: [L, E] or [L, B, E]; delta comes out in x's
    shape, b and c as [L, H] or [L, B, H].
    """
    delta = nm.matmul(proj["w_delta_up"], nm.matmul(proj["w_delta_down"], x))
    b = nm.matmul(proj["w_b"], x)
    c = nm.matmul(proj["w_c"], x)
    return SsmParams(a=a, delta=delta, b=b, c=c, exact_zoh=exact_zoh,
                     delta_bias=proj["b_delta"])


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------


@dataclass
class DenseSsm:
    """A full-matrix, time-invariant system used only as a reference.

    a: [H, H] (must be invertible for the exact hold), b: [H, 1], c: [1, H],
    delta: scalar step size.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    delta: float

    def discretized(self) -> tuple[np.ndarray, np.ndarray]:
        H = self.a.shape[0]
        if self.a.shape != (H, H) or self.b.shape != (H, 1) or self.c.shape != (1, H):
            raise NumericsError(
                f"DenseSsm shapes must be [H,H],[H,1],[1,H]; got "
                f"{self.a.shape}, {self.b.shape}, {self.c.shape}"
            )
        import scipy.linalg     # only the oracle needs it; a cold import is slow

        abar = scipy.linalg.expm(self.delta * self.a)
        bbar = np.linalg.solve(self.a, (abar - np.eye(H)) @ self.b)
        return abar, bbar

    def scan(self, x: np.ndarray) -> np.ndarray:
        """Direct dense recurrence h_t = Abar h_{t-1} + Bbar x_t; y_t = C h_t."""
        abar, bbar = self.discretized()
        h = np.zeros((self.a.shape[0], 1))
        y = np.empty_like(x, dtype=np.float64)
        for t in range(x.shape[-1]):
            h = abar @ h + bbar * x[..., t]
            y[..., t] = (self.c @ h)[0, 0]
        return y


def materialize_kernel(sys: DenseSsm, length: int) -> np.ndarray:
    """K_k = C Abar^k Bbar for k = 0..length-1."""
    if sys.a.shape[0] > MAX_ORACLE_H:
        raise NumericsError(
            f"oracle limited to H <= {MAX_ORACLE_H}, got {sys.a.shape[0]}"
        )
    if length > MAX_ORACLE_L:
        raise NumericsError(f"oracle limited to L <= {MAX_ORACLE_L}, got {length}")
    abar, bbar = sys.discretized()
    kern = np.empty(length)
    v = bbar
    for k in range(length):
        kern[k] = (sys.c @ v)[0, 0]
        v = abar @ v
    return kern


def kernel_convolve(x: np.ndarray, sys: DenseSsm) -> np.ndarray:
    """Evaluate the time-invariant system as a causal convolution with K.

    Only valid when (delta, B, C) do not vary over time; that restriction is
    what makes this an oracle for the scans rather than a fourth compute path.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    kern = materialize_kernel(sys, x.shape[0])
    return np.convolve(x, kern)[: x.shape[0]]
