"""Central finite-difference checking of every hand-written backward pass.

The checker perturbs one input element at a time by +-STEP (1e-5), reruns
the forward in float64, and compares (f+ - f-) / (2 STEP) against the
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
from . import training
from .numerics import Tensor

STEP = 1e-5
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


def _numeric_grad(fn: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    flat = param.data.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + STEP
        hi = float(fn().data)
        flat[i] = keep - STEP
        lo = float(fn().data)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * STEP)
    return out.reshape(param.data.shape)


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    *,
    name: str = "gradcheck",
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
        numeric = _numeric_grad(closure, t)
        scale = max(1.0, float(np.max(np.abs(numeric))) if numeric.size else 0.0)
        err = float(np.max(np.abs(analytic - numeric))) / scale if numeric.size else 0.0
        result.per_input[label] = err
        result.max_rel_err = max(result.max_rel_err, err)
    return result


# ---------------------------------------------------------------------------
# named suites
# ---------------------------------------------------------------------------


def _entry_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of one suite entry, seeded from (seed, entry name), so
    adding, removing or resizing an entry moves no other entry's inputs."""
    return np.random.default_rng([seed, *name.encode()])


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _pair(rng):
    return [_rand(rng, (3, 4)), _rand(rng, (3, 4))]


def _conv_inputs(rng, x_shape):
    """A conv input, a [3, 4] kernel and its bias."""
    return [_rand(rng, x_shape), _rand(rng, (3, 4)), _rand(rng, (3,))]


def _si_snr_inputs(rng):
    ref = rng.standard_normal(50)
    return [Tensor(ref + 0.5 * rng.standard_normal(50), requires_grad=True),
            Tensor(ref)]


# name -> (fn, draw, input names[, tol]), tol PRIMITIVE_TOL unless given.
# draw(rng) returns fn's inputs; one without requires_grad is a constant
# (a weight on fn's output, or si_snr's reference) and is not checked
NUMERICS_CHECKS = {
    "add": (lambda x, y: nm.add(x, y).sum(), _pair, ["a", "b"]),
    "mul": (lambda x, y: nm.mul(x, y).sum(), _pair, ["a", "b"]),
    "neg": (lambda x: nm.neg(x).sum(), lambda g: [_rand(g, (5,))], ["x"]),
    "mean_pair": (lambda x, y: nm.mean_pair(x, y).sum(), _pair, ["a", "b"]),
    "sigmoid": (lambda x: nm.sigmoid(x).sum(), lambda g: [_rand(g, (4, 3))], ["x"]),
    "silu": (lambda x: nm.silu(x).sum(), lambda g: [_rand(g, (4, 3))], ["x"]),
    "tanh": (lambda x: nm.tanh(x).sum(), lambda g: [_rand(g, (4, 3))], ["x"]),
    # relu probes stay away from the kink at 0
    "relu": (lambda x: nm.relu(x).sum(),
             lambda g: [Tensor(g.uniform(0.25, 2.0, size=(4, 3))
                               * g.choice([-1.0, 1.0], size=(4, 3)),
                               requires_grad=True)],
             ["x"]),
    "exp": (lambda x: nm.exp(x).sum(), lambda g: [_rand(g, (4, 3))], ["x"]),
    "permute": (lambda x, y: nm.mul(nm.permute(x, 2, 0, 1), y).sum(),
                lambda g: [_rand(g, (2, 3, 4)), _rand(g, (4, 2, 3))], ["x", "w"]),
    "sum": (lambda x: nm.tsum(x), lambda g: [_rand(g, (7,))], ["x"]),
    # 9 rows frame into 4 windows of 4 at hop 2, padded to 10, trimmed to 9
    "frame_unaligned": (
        lambda x, y, wf: nm.mul(nm.overlap_add(nm.mul(nm.frame(x, 4, 2), wf), 2, 9),
                                y).sum(),
        lambda g: [_rand(g, (9, 2)), _rand(g, (9, 2)),
                   Tensor(g.uniform(-1, 1, (4, 4, 2)))],
        ["x", "w", "window"]),
    "frame": (lambda x, y: nm.mul(nm.frame(x, 4, 2), y).sum(),
              lambda g: [_rand(g, (10, 2)), _rand(g, (4, 4, 2))], ["x", "w"]),
    "overlap_add": (lambda x, y: nm.mul(nm.overlap_add(x, 2, 10), y).sum(),
                    lambda g: [_rand(g, (4, 4, 2)), _rand(g, (10, 2))], ["x", "w"]),
    "matmul": (lambda x, y: nm.matmul(x, y).sum(),
               lambda g: [_rand(g, (3, 4)), _rand(g, (2, 4))], ["a", "b"]),
    # B == L: a weight gradient pairing g's batch axis with b's time axis fails
    "matmul_batched": (
        lambda x, y, wm: nm.mul(nm.matmul(x, y), wm).sum(),
        lambda g: [_rand(g, (3, 4)), _rand(g, (3, 3, 4)),
                   Tensor(g.uniform(-1, 1, (3, 3, 3)))],
        ["a", "b", "w"]),
    "matmul_bias": (
        lambda x, y, c, wm: nm.mul(nm.matmul(x, y, c), wm).sum(),
        lambda g: [_rand(g, (3, 4)), _rand(g, (3, 3, 4)), _rand(g, (3,)),
                   Tensor(g.uniform(-1, 1, (3, 3, 3)))],
        ["a", "b", "bias", "w"]),
    "conv1d_depthwise": (lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
                         lambda g: _conv_inputs(g, (8, 3)), ["x", "kernel", "bias"]),
    "conv1d_depthwise_batched": (
        lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
        lambda g: _conv_inputs(g, (8, 2, 3)), ["x", "kernel", "bias"]),
    "rmsnorm": (lambda x, gn, wn: nm.mul(nm.rmsnorm(x, gn), wn).sum(),
                lambda g: [_rand(g, (2, 4, 3)), _rand(g, (3,)),
                           Tensor(g.standard_normal((2, 4, 3)))],
                ["x", "gain", "w"], COMPOSITE_TOL),
    "layernorm": (lambda x, gn, c, wn: nm.mul(nm.layernorm(x, gn, c), wn).sum(),
                  lambda g: [_rand(g, (2, 4, 3)), _rand(g, (3,)), _rand(g, (3,)),
                             Tensor(g.standard_normal((2, 4, 3)))],
                  ["x", "gain", "bias", "w"], COMPOSITE_TOL),
    # an input shorter than the kernel: the first taps see only padding,
    # so their kernel gradient is zero
    "conv1d_depthwise_short": (
        lambda x, k, c, wc: nm.mul(nm.conv1d_depthwise(x, k, c), wc).sum(),
        lambda g: [*_conv_inputs(g, (2, 3)), Tensor(g.standard_normal((2, 3)))],
        ["x", "kernel", "bias", "w"]),
    "conv1d_depthwise_short_batched": (
        lambda x, k, c, wc: nm.mul(nm.conv1d_depthwise(x, k, c), wc).sum(),
        lambda g: [*_conv_inputs(g, (2, 2, 3)), Tensor(g.standard_normal((2, 2, 3)))],
        ["x", "kernel", "bias", "w"]),
    "conv1d_depthwise_reverse": (
        lambda x, k, c, wr: nm.mul(nm.conv1d_depthwise(x, k, c, reverse=True),
                                   wr).sum(),
        lambda g: [*_conv_inputs(g, (8, 2, 3)), Tensor(g.standard_normal((8, 2, 3)))],
        ["x", "kernel", "bias", "w"]),
    # the reference is a constant; ref + noise stays well below the 80 dB cap
    "si_snr": (training.si_snr, _si_snr_inputs, ["est", "ref"]),
}


def suite_numerics(seed: int = 0) -> list[GradcheckResult]:
    """One check per engine primitive, random inputs in [-2, 2]."""
    return [gradcheck(fn, draw(_entry_rng(seed, name)), name=name,
                      tol=tol[0] if tol else PRIMITIVE_TOL, input_names=names)
            for name, (fn, draw, names, *tol) in NUMERICS_CHECKS.items()]


# name -> (exact_zoh, batched, reverse, fused).  A fused scan takes delta
# raw, with its bias (softplus 0.49 .. 1.25), the D skip and the gate
SSM_CHECKS = {
    "selective_scan_euler": (False, False, False, False),
    "selective_scan_euler_batched": (False, True, False, False),
    "selective_scan_exact_zoh": (True, False, False, False),
    "selective_scan_exact_zoh_batched": (True, True, False, False),
    "selective_scan_reverse_batched": (False, True, True, False),
    "selective_scan_fused_batched": (False, True, False, True),
    "selective_scan_fused_reverse_exact_zoh_batched": (True, True, True, True),
}


def suite_ssm(seed: int = 0) -> list[GradcheckResult]:
    from . import ssm

    checks = []
    E, L, H = 3, 6, 2
    for name, (mode, batched, reverse, fused) in SSM_CHECKS.items():
        rng = _entry_rng(seed, name)
        # x, delta and the gate [L, B, E] or [L, E], b and c [L, B, H] or [L, H]
        shape_x = (L, 2, E) if batched else (L, E)
        shape_bc = (L, 2, H) if batched else (L, H)
        x = _rand(rng, shape_x, -1.0, 1.0)
        delta = _rand(rng, shape_x, 0.05, 0.4)
        a = Tensor(rng.uniform(-2.0, -0.2, size=(E, H)), requires_grad=True)
        bmat = _rand(rng, shape_bc, -1.0, 1.0)
        cmat = _rand(rng, shape_bc, -1.0, 1.0)
        extra = ([_rand(rng, (E,), -0.5, 0.5), _rand(rng, (E,), -1.0, 1.0),
                  _rand(rng, shape_x, -1.0, 1.0)] if fused else [])

        def fn(xv, dv, av, bv, cv, *fv, _mode=mode, _reverse=reverse):
            params = ssm.SsmParams(av, dv, bv, cv, _mode, *fv)
            return ssm.scan_sequential(xv, params, reverse=_reverse).sum()

        checks.append(gradcheck(fn, [x, delta, a, bmat, cmat, *extra], name=name,
                                tol=PRIMITIVE_TOL,
                                input_names=["x", "delta", "a", "b", "c", "delta_bias",
                                             "d_skip", "gate"][:5 + len(extra)]))
    return checks


def _block_check(seed: int, name: str, prefix: str, d: int, x_shape,
                 forward) -> list[GradcheckResult]:
    """forward(x, w, False).sum() checked in x and every weight w below
    prefix, of a seeded width-d model with r = 1 and h = 2; the weights are
    drawn before x."""
    from . import blocks
    from .model import ModelConfig, init_parameters

    rng = np.random.default_rng(seed)
    w = blocks.scope(init_parameters(ModelConfig(d=d, r=1, h=2), rng), prefix)
    names, params = zip(*w.items())
    x = _rand(rng, x_shape, -1.0, 1.0)

    def fn(*_args):
        return forward(x, w, False).sum()

    return [gradcheck(fn, [x, *params], name=name, tol=COMPOSITE_TOL,
                      input_names=["x", *names])]


def suite_blocks(seed: int = 0) -> list[GradcheckResult]:
    from . import blocks

    # x is [L, D] = [5, 3]
    return _block_check(seed, "bi_scan_block", "blocks.0.intra_scan", 3, (5, 3),
                        blocks.bi_scan_forward)


def suite_dualpath(seed: int = 0) -> list[GradcheckResult]:
    from . import dualpath

    # x is [S, K, D] = [3, 4, 2]
    return _block_check(seed, "dp_block", "blocks.0", 2, (3, 4, 2),
                        dualpath.dp_block)


def suite_model(seed: int = 0) -> list[GradcheckResult]:
    """End-to-end: separation forward + permutation-invariant loss, tiny model."""
    from . import model as model_mod

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
