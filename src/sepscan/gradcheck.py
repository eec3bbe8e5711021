"""Central finite-difference checking of every hand-written backward pass.

``gradcheck(fn, inputs)`` perturbs one element of each input that requires
a gradient at a time by +-STEP (1e-5), reruns the forward in float64, and
compares (f+ - f-) / (2 STEP) against the analytic gradient.  It returns
the worst error over those inputs, each input's error being

    max|analytic - numeric| / max(1, max|numeric|)

so it reads as a relative error for O(1) gradients without blowing up when
a gradient is legitimately tiny.

Every check is one row of ``CHECKS``: its suite tag, a ``make(rng)`` that
returns ``(fn, inputs)``, and its tolerance.  ``run_suite`` is the one
runner: it runs the rows of one suite, or all of them, each on its own
generator seeded from (seed, check name), so adding, removing or resizing
a check moves no other check's inputs, and pairs each check's name and
tolerance with its error in a ``GradcheckResult``.  The command-line
``gradcheck`` subcommand and the acceptance tests both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blocks, dualpath, model, ssm, training
from . import numerics as nm
from .numerics import Tensor

STEP = 1e-5
PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-5
FULL_MODEL_TOL = 1e-4


@dataclass
class GradcheckResult:
    name: str
    tol: float
    max_rel_err: float

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


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[Tensor]) -> float:
    """The worst relative error of a scalar-valued fn's analytic gradients
    against central FD.

    Every input with requires_grad=True is checked elementwise.  Inputs must
    be float64; finite differences in single precision are meaningless at
    these tolerances.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise nm.NumericsError("gradcheck requires float64 inputs")

    for t in inputs:
        t.zero_grad()
    loss = fn(*inputs)
    loss.backward()

    worst = 0.0
    closure = lambda: fn(*inputs)
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = _numeric_grad(closure, t)
        scale = max(1.0, float(np.max(np.abs(numeric))) if numeric.size else 0.0)
        err = float(np.max(np.abs(analytic - numeric))) / scale if numeric.size else 0.0
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


def _entry_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of one check, seeded from (seed, check name)."""
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


def _primitive(fn, draw, tol=PRIMITIVE_TOL):
    """A numerics row: draw(rng) returns fn's inputs; one without
    requires_grad is a constant (a weight on fn's output, or si_snr's
    reference) and is not checked."""
    return "numerics", lambda rng: (fn, draw(rng)), tol


def _scan_check(exact_zoh, batched, reverse, fused):
    """A selective_scan check on [L, E] = [6, 3] inputs, or [6, 2, 3]
    when batched, with H = 2.  A fused scan takes delta raw, with its bias
    (softplus 0.49 .. 1.25), the D skip and the gate."""
    def make(rng):
        E, L, H = 3, 6, 2
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

        def fn(xv, dv, av, bv, cv, *fv):
            params = ssm.SsmParams(av, dv, bv, cv, exact_zoh, *fv)
            return ssm.scan_sequential(xv, params, reverse=reverse).sum()

        return fn, [x, delta, a, bmat, cmat, *extra]
    return "ssm", make, PRIMITIVE_TOL


def _block_check(suite, prefix, d, x_shape, forward):
    """forward(x, w, False).sum() checked in x and every weight w below
    prefix, of a width-d model with r = 1 and h = 2; the weights are drawn
    before x."""
    def make(rng):
        w = blocks.scope(model.init_parameters(model.ModelConfig(d=d, r=1, h=2), rng),
                         prefix)
        x = _rand(rng, x_shape, -1.0, 1.0)
        return lambda *_args: forward(x, w, False).sum(), [x, *w.values()]
    return suite, make, COMPOSITE_TOL


def _model_check(rng):
    """End-to-end: separation forward + permutation-invariant loss, tiny model."""
    net = model.SeparationModel(model.ModelConfig(d=4, r=1, h=2, chunk_len=4), rng=rng)
    mix, ref1, ref2 = (Tensor(rng.standard_normal(64) * 0.1) for _ in range(3))

    def fn(*_args):
        return training.pit_loss(net.separate(mix), (ref1, ref2))[0]

    return fn, list(net.params.values())


# name -> (suite, make, tol); make(rng) returns (fn, inputs)
CHECKS = {
    "add": _primitive(lambda x, y: nm.add(x, y).sum(), _pair),
    "mul": _primitive(lambda x, y: nm.mul(x, y).sum(), _pair),
    "neg": _primitive(lambda x: nm.neg(x).sum(), lambda g: [_rand(g, (5,))]),
    "mean_pair": _primitive(lambda x, y: nm.mean_pair(x, y).sum(), _pair),
    "sigmoid": _primitive(lambda x: nm.sigmoid(x).sum(), lambda g: [_rand(g, (4, 3))]),
    "silu": _primitive(lambda x: nm.silu(x).sum(), lambda g: [_rand(g, (4, 3))]),
    "tanh": _primitive(lambda x: nm.tanh(x).sum(), lambda g: [_rand(g, (4, 3))]),
    # relu probes stay away from the kink at 0
    "relu": _primitive(lambda x: nm.relu(x).sum(),
                       lambda g: [Tensor(g.uniform(0.25, 2.0, size=(4, 3))
                                         * g.choice([-1.0, 1.0], size=(4, 3)),
                                         requires_grad=True)]),
    "exp": _primitive(lambda x: nm.exp(x).sum(), lambda g: [_rand(g, (4, 3))]),
    "permute": _primitive(lambda x, y: nm.mul(nm.permute(x, 2, 0, 1), y).sum(),
                          lambda g: [_rand(g, (2, 3, 4)), _rand(g, (4, 2, 3))]),
    "sum": _primitive(lambda x: nm.tsum(x), lambda g: [_rand(g, (7,))]),
    # 9 rows frame into 4 windows of 4 at hop 2, padded to 10, trimmed to 9
    "frame_unaligned": _primitive(
        lambda x, y, wf: nm.mul(nm.overlap_add(nm.mul(nm.frame(x, 4, 2), wf), 2, 9),
                                y).sum(),
        lambda g: [_rand(g, (9, 2)), _rand(g, (9, 2)),
                   Tensor(g.uniform(-1, 1, (4, 4, 2)))]),
    "frame": _primitive(lambda x, y: nm.mul(nm.frame(x, 4, 2), y).sum(),
                        lambda g: [_rand(g, (10, 2)), _rand(g, (4, 4, 2))]),
    "overlap_add": _primitive(lambda x, y: nm.mul(nm.overlap_add(x, 2, 10), y).sum(),
                              lambda g: [_rand(g, (4, 4, 2)), _rand(g, (10, 2))]),
    "matmul": _primitive(lambda x, y: nm.matmul(x, y).sum(),
                         lambda g: [_rand(g, (3, 4)), _rand(g, (2, 4))]),
    # B == L: a weight gradient pairing g's batch axis with b's time axis fails
    "matmul_batched": _primitive(
        lambda x, y, wm: nm.mul(nm.matmul(x, y), wm).sum(),
        lambda g: [_rand(g, (3, 4)), _rand(g, (3, 3, 4)),
                   Tensor(g.uniform(-1, 1, (3, 3, 3)))]),
    "matmul_bias": _primitive(
        lambda x, y, c, wm: nm.mul(nm.matmul(x, y, c), wm).sum(),
        lambda g: [_rand(g, (3, 4)), _rand(g, (3, 3, 4)), _rand(g, (3,)),
                   Tensor(g.uniform(-1, 1, (3, 3, 3)))]),
    "conv1d_depthwise": _primitive(lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
                                   lambda g: _conv_inputs(g, (8, 3))),
    "conv1d_depthwise_batched": _primitive(
        lambda x, k, c: nm.conv1d_depthwise(x, k, c).sum(),
        lambda g: _conv_inputs(g, (8, 2, 3))),
    "rmsnorm": _primitive(lambda x, gn, wn: nm.mul(nm.rmsnorm(x, gn), wn).sum(),
                          lambda g: [_rand(g, (2, 4, 3)), _rand(g, (3,)),
                                     Tensor(g.standard_normal((2, 4, 3)))],
                          COMPOSITE_TOL),
    "layernorm": _primitive(
        lambda x, gn, c, wn: nm.mul(nm.layernorm(x, gn, c), wn).sum(),
        lambda g: [_rand(g, (2, 4, 3)), _rand(g, (3,)), _rand(g, (3,)),
                   Tensor(g.standard_normal((2, 4, 3)))],
        COMPOSITE_TOL),
    # an input shorter than the kernel: the first taps see only padding,
    # so their kernel gradient is zero
    "conv1d_depthwise_short": _primitive(
        lambda x, k, c, wc: nm.mul(nm.conv1d_depthwise(x, k, c), wc).sum(),
        lambda g: [*_conv_inputs(g, (2, 3)), Tensor(g.standard_normal((2, 3)))]),
    "conv1d_depthwise_short_batched": _primitive(
        lambda x, k, c, wc: nm.mul(nm.conv1d_depthwise(x, k, c), wc).sum(),
        lambda g: [*_conv_inputs(g, (2, 2, 3)), Tensor(g.standard_normal((2, 2, 3)))]),
    "conv1d_depthwise_reverse": _primitive(
        lambda x, k, c, wr: nm.mul(nm.conv1d_depthwise(x, k, c, reverse=True),
                                   wr).sum(),
        lambda g: [*_conv_inputs(g, (8, 2, 3)), Tensor(g.standard_normal((8, 2, 3)))]),
    # the reference is a constant; ref + noise stays well below the 80 dB cap
    "si_snr": _primitive(training.si_snr, _si_snr_inputs),
    # _scan_check(exact_zoh, batched, reverse, fused)
    "selective_scan_euler": _scan_check(False, False, False, False),
    "selective_scan_euler_batched": _scan_check(False, True, False, False),
    "selective_scan_exact_zoh": _scan_check(True, False, False, False),
    "selective_scan_exact_zoh_batched": _scan_check(True, True, False, False),
    "selective_scan_reverse_batched": _scan_check(False, True, True, False),
    "selective_scan_fused_batched": _scan_check(False, True, False, True),
    "selective_scan_fused_reverse_exact_zoh_batched":
        _scan_check(True, True, True, True),
    # x is [L, D] = [5, 3]
    "bi_scan_block": _block_check("blocks", "blocks.0.intra_scan", 3, (5, 3),
                                  blocks.bi_scan_forward),
    # x is [S, K, D] = [3, 4, 2]
    "dp_block": _block_check("dualpath", "blocks.0", 2, (3, 4, 2), dualpath.dp_block),
    "full_model_pit": ("model", _model_check, FULL_MODEL_TOL),
}

SUITES = sorted({suite for suite, _make, _tol in CHECKS.values()})


def run_suite(name: str, seed: int = 0) -> list[GradcheckResult]:
    """Run the checks of suite name, or every check for "all"."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown gradcheck suite '{name}' (have {SUITES} + 'all')")
    results = []
    for key, (suite, make, tol) in CHECKS.items():
        if name in (suite, "all"):
            fn, inputs = make(_entry_rng(seed, key))
            results.append(GradcheckResult(key, tol, gradcheck(fn, inputs)))
    return results
