"""Central finite-difference checking of every hand-written backward pass.

The checker perturbs one input element at a time by +-step (default 1e-5),
reruns the forward in float64, and compares (f+ - f-) / (2 step) against the
analytic gradient.  Reported error is

    max|analytic - numeric| / max(1, max|numeric|)

so it reads as a relative error for O(1) gradients without blowing up when
a gradient is legitimately tiny.

``run_suite`` bundles named check collections, one per area of the package;
the command-line ``gradcheck`` subcommand and the acceptance tests both run
these same suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor

DEFAULT_STEP = 1e-5
PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-5
FULL_MODEL_TOL = 1e-4


@dataclass
class GradcheckResult:
    name: str
    tol: float
    max_rel_err: float = 0.0
    per_input: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tol


def _numeric_grad(fn: Callable[[], Tensor], param: Tensor, step: float) -> np.ndarray:
    flat = param.data.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(fn().data)
        flat[i] = keep - step
        lo = float(fn().data)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * step)
    return out.reshape(param.data.shape)


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    *,
    name: str = "gradcheck",
    step: float = DEFAULT_STEP,
    tol: float = PRIMITIVE_TOL,
    input_names: Sequence[str] | None = None,
) -> GradcheckResult:
    """Compare analytic gradients of a scalar-valued fn against central FD.

    Every input with requires_grad=True is checked elementwise.  Inputs must
    be float64; finite differences in single precision are meaningless at
    these tolerances.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise nm.NumericsError("gradcheck requires float64 inputs")
    if input_names is None:
        input_names = [f"input{i}" for i in range(len(inputs))]

    for t in inputs:
        t.zero_grad()
    loss = fn(*inputs)
    loss.backward()

    result = GradcheckResult(name=name, tol=tol)
    closure = lambda: fn(*inputs)
    for label, t in zip(input_names, inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = _numeric_grad(closure, t, step)
        scale = max(1.0, float(np.max(np.abs(numeric))) if numeric.size else 0.0)
        err = float(np.max(np.abs(analytic - numeric))) / scale if numeric.size else 0.0
        result.per_input[label] = err
        result.max_rel_err = max(result.max_rel_err, err)
    return result


# ---------------------------------------------------------------------------
# named suites
# ---------------------------------------------------------------------------


def _rand(rng, shape, lo=-2.0, hi=2.0, axes=None):
    """A uniform draw of `shape`, transposed by `axes` into the package
    layout: the draws, and so every check's inputs, predate that layout."""
    arr = rng.uniform(lo, hi, size=shape)
    return Tensor(arr if axes is None else arr.transpose(axes), requires_grad=True)


# [C, L] -> [L, C]; [B, C, L] -> [L, B, C]; [D, ., .] or [., size, S] reversed
_T, _TM, _T3 = (1, 0), (2, 0, 1), (2, 1, 0)


def suite_numerics(seed: int = 0) -> list[GradcheckResult]:
    """One check per engine primitive, random inputs in [-2, 2]."""
    from . import training

    rng = np.random.default_rng(seed)
    checks: list[GradcheckResult] = []

    def run(name, fn, inputs, names, tol=PRIMITIVE_TOL):
        checks.append(gradcheck(fn, inputs, name=name, tol=tol, input_names=names))

    a, b = _rand(rng, (3, 4)), _rand(rng, (3, 4))
    run("add", lambda x, y: nm.add(x, y).sum(), [a, b], ["a", "b"])
    run("mul", lambda x, y: nm.mul(x, y).sum(), [a, b], ["a", "b"])
    run("neg", lambda x: nm.neg(x).sum(), [_rand(rng, (5,))], ["x"])
    run("mean_pair", lambda x, y: nm.mean_pair(x, y).sum(), [a, b], ["a", "b"])

    run("sigmoid", lambda x: nm.sigmoid(x).sum(), [_rand(rng, (4, 3))], ["x"])
    run("silu", lambda x: nm.silu(x).sum(), [_rand(rng, (4, 3))], ["x"])
    run("tanh", lambda x: nm.tanh(x).sum(), [_rand(rng, (4, 3))], ["x"])
    # keep relu probes away from the kink at 0
    rmask = rng.uniform(0.25, 2.0, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    run("relu", lambda x: nm.relu(x).sum(), [Tensor(rmask, requires_grad=True)], ["x"])
    run("exp", lambda x: nm.exp(x).sum(), [_rand(rng, (4, 3))], ["x"])

    w6 = _rand(rng, (2, 3, 4))
    run("permute",
        lambda x, y: nm.mul(nm.permute(x, 2, 0, 1), y).sum(),
        [w6, _rand(rng, (4, 2, 3))], ["x", "w"])
    run("sum", lambda x: nm.tsum(x), [_rand(rng, (7,))], ["x"])
    # 9 rows frame into 4 windows of 4 at hop 2, padded to 10, trimmed to 9
    wf = nm.Tensor(rng.uniform(-1, 1, (2, 4, 4)).transpose(_T3))
    run("frame_unaligned",
        lambda x, y: nm.mul(nm.overlap_add(nm.mul(nm.frame(x, 4, 2), wf), 2, 9),
                            y).sum(),
        [_rand(rng, (2, 9), axes=_T), _rand(rng, (2, 9), axes=_T)], ["x", "w"])
    run("frame",
        lambda x, y: nm.mul(nm.frame(x, 4, 2), y).sum(),
        [_rand(rng, (2, 10), axes=_T), _rand(rng, (2, 4, 4), axes=_T3)], ["x", "w"])
    run("overlap_add",
        lambda x, y: nm.mul(nm.overlap_add(x, 2, 10), y).sum(),
        [_rand(rng, (2, 4, 4), axes=_T3), _rand(rng, (2, 10), axes=_T)], ["x", "w"])

    run("matmul",
        lambda x, y: nm.matmul(x, y).sum(),
        [_rand(rng, (3, 4)), _rand(rng, (4, 2), axes=_T)], ["a", "b"])
    # B == L: a weight gradient pairing g's batch axis with b's time axis fails
    wm = nm.Tensor(rng.uniform(-1, 1, (3, 3, 3)).transpose(_TM))
    run("matmul_batched",
        lambda x, y: nm.mul(nm.matmul(x, y), wm).sum(),
        [_rand(rng, (3, 4)), _rand(rng, (3, 4, 3), axes=_TM)], ["a", "b"])
    run("matmul_bias",
        lambda x, y, c: nm.mul(nm.matmul(x, y, c), wm).sum(),
        [_rand(rng, (3, 4)), _rand(rng, (3, 4, 3), axes=_TM), _rand(rng, (3,))],
        ["a", "b", "bias"])
    run("conv1d_depthwise",
        lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
        [_rand(rng, (3, 8), axes=_T), _rand(rng, (3, 4)), _rand(rng, (3,))],
        ["x", "kernel", "bias"])
    run("conv1d_depthwise_batched",
        lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
        [_rand(rng, (2, 3, 8), axes=_TM), _rand(rng, (3, 4)), _rand(rng, (3,))],
        ["x", "kernel", "bias"])
    wn = nm.Tensor(rng.standard_normal((3, 4, 2)).transpose(_T3))
    run("rmsnorm",
        lambda x, gn: nm.mul(nm.rmsnorm(x, gn), wn).sum(),
        [_rand(rng, (3, 4, 2), axes=_T3), _rand(rng, (3,))], ["x", "gain"],
        tol=COMPOSITE_TOL)
    run("layernorm",
        lambda x, gn, c: nm.mul(nm.layernorm(x, gn, c), wn).sum(),
        [_rand(rng, (3, 4, 2), axes=_T3), _rand(rng, (3,)), _rand(rng, (3,))],
        ["x", "gain", "bias"], tol=COMPOSITE_TOL)
    # an input shorter than the kernel: the first taps see only padding,
    # so their kernel gradient is zero
    wc = nm.Tensor(rng.standard_normal((2, 3, 2)).transpose(_TM))
    run("conv1d_depthwise_short",
        lambda x, k, c: nm.mul(nm.conv1d_depthwise(x, k, c),
                               nm.Tensor(wc.data[:, 0])).sum(),
        [_rand(rng, (3, 2), axes=_T), _rand(rng, (3, 4)), _rand(rng, (3,))],
        ["x", "kernel", "bias"])
    run("conv1d_depthwise_short_batched",
        lambda x, k, c: nm.mul(nm.conv1d_depthwise(x, k, c), wc).sum(),
        [_rand(rng, (2, 3, 2), axes=_TM), _rand(rng, (3, 4)), _rand(rng, (3,))],
        ["x", "kernel", "bias"])
    wr = nm.Tensor(rng.standard_normal((2, 3, 8)).transpose(_TM))
    run("conv1d_depthwise_reverse",
        lambda x, k, c: nm.mul(nm.conv1d_depthwise(x, k, c, reverse=True),
                               wr).sum(),
        [_rand(rng, (2, 3, 8), axes=_TM), _rand(rng, (3, 4)), _rand(rng, (3,))],
        ["x", "kernel", "bias"])
    # the reference is a constant; ref + noise stays well below the 80 dB cap
    sref = Tensor(rng.standard_normal(50))
    run("si_snr", lambda x: training.si_snr(x, sref),
        [Tensor(sref.data + 0.5 * rng.standard_normal(50), requires_grad=True)],
        ["est"])
    return checks


def suite_ssm(seed: int = 0) -> list[GradcheckResult]:
    from . import ssm

    rng = np.random.default_rng(seed)
    checks = []
    E, L, H = 3, 6, 2
    # the reverse scan and then the fused ones come last, so the entries
    # before them keep their draws.  A fused scan takes delta raw, with its
    # bias (softplus 0.49 .. 1.25), the D skip and the gate
    for mode, tag, batched, reverse, fused in (
            (False, "euler", False, False, False), (False, "euler", True, False, False),
            (True, "exact_zoh", False, False, False),
            (True, "exact_zoh", True, False, False),
            (False, "reverse", True, True, False), (False, "fused", True, False, True),
            (True, "fused_reverse_exact_zoh", True, True, True)):
        shape_x = (2, E, L) if batched else (E, L)
        shape_bc = (2, L, H) if batched else (L, H)
        # x and delta to [L, B, E] or [L, E], b and c to [L, B, H]
        to_x, to_bc = (_TM, (1, 0, 2)) if batched else (_T, None)
        x = _rand(rng, shape_x, -1.0, 1.0, to_x)
        delta = _rand(rng, shape_x, 0.05, 0.4, to_x)
        a = Tensor(rng.uniform(-2.0, -0.2, size=(E, H)), requires_grad=True)
        bmat = _rand(rng, shape_bc, -1.0, 1.0, to_bc)
        cmat = _rand(rng, shape_bc, -1.0, 1.0, to_bc)
        extra = ([_rand(rng, (E,), -0.5, 0.5), _rand(rng, (E,), -1.0, 1.0),
                  _rand(rng, shape_x, -1.0, 1.0, to_x)] if fused else [])

        def fn(xv, dv, av, bv, cv, *fv, _mode=mode, _reverse=reverse):
            params = ssm.SsmParams(av, dv, bv, cv, _mode, *fv)
            return ssm.scan_sequential(xv, params, reverse=_reverse).sum()

        name = f"selective_scan_{tag}" + ("_batched" if batched else "")
        checks.append(gradcheck(fn, [x, delta, a, bmat, cmat, *extra], name=name,
                                tol=PRIMITIVE_TOL,
                                input_names=["x", "delta", "a", "b", "c", "delta_bias",
                                             "d_skip", "gate"][:5 + len(extra)]))
    return checks


def suite_blocks(seed: int = 0) -> list[GradcheckResult]:
    from . import blocks

    rng = np.random.default_rng(seed)
    D, L, H = 3, 5, 2
    w = blocks.init_bi_scan(D, H, rng)
    names, params = zip(*blocks.named_parameters(w, "bi_scan"))
    x = _rand(rng, (D, L), -1.0, 1.0, _T)

    def fn(*_args):
        return blocks.bi_scan_forward(x, w).sum()

    res = gradcheck(fn, [x, *params], name="bi_scan_block", tol=COMPOSITE_TOL,
                    input_names=["x", *names])
    return [res]


def suite_dualpath(seed: int = 0) -> list[GradcheckResult]:
    from . import blocks, dualpath

    rng = np.random.default_rng(seed)
    D, K, S, H = 2, 4, 3, 2
    w = dualpath.init_dp_block(D, H, "rmsnorm", rng)
    names, params = zip(*blocks.named_parameters(w, "block"))
    x = _rand(rng, (D, K, S), -1.0, 1.0, _T3)            # [S, K, D]

    def fn(*_args):
        return dualpath.dp_block(x, w).sum()

    res = gradcheck(fn, [x, *params], name="dp_block", tol=COMPOSITE_TOL,
                    input_names=["x", *names])
    return [res]


def suite_model(seed: int = 0) -> list[GradcheckResult]:
    """End-to-end: separation forward + permutation-invariant loss, tiny model."""
    from . import model as model_mod
    from . import training

    rng = np.random.default_rng(seed)
    cfg = model_mod.ModelConfig(d=4, r=1, h=2, chunk_len=4)
    net = model_mod.SeparationModel(cfg, rng=rng)
    T = 64
    mix = Tensor(rng.standard_normal(T) * 0.1)
    ref1 = Tensor(rng.standard_normal(T) * 0.1)
    ref2 = Tensor(rng.standard_normal(T) * 0.1)
    items = net.named_parameters()
    names = [n for n, _ in items]
    params = [p for _, p in items]

    def fn(*_args):
        est = net.separate(mix)
        loss, _perm = training.pit_loss(est, (ref1, ref2))
        return loss

    res = gradcheck(fn, params, name="full_model_pit", tol=FULL_MODEL_TOL,
                    input_names=names)
    return [res]


SUITES: dict[str, Callable[[int], list[GradcheckResult]]] = {
    "numerics": suite_numerics,
    "ssm": suite_ssm,
    "blocks": suite_blocks,
    "dualpath": suite_dualpath,
    "model": suite_model,
}


def run_suite(name: str, seed: int = 0) -> list[GradcheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown gradcheck suite '{name}' (have {sorted(SUITES)} + 'all')")
    return SUITES[name](seed)
