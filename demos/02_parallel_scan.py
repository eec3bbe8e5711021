"""A linear recurrence evaluated out of order, without changing the answer.

The step h_t = abar_t * h_{t-1} + u_t is an associative operation on
pairs (abar, u): composing two steps gives another step. Associativity
is what lets a prefix scan evaluate all L partial compositions in
O(log L) sweeps over the sequence instead of one strictly serial pass.
This script checks that the reordered evaluation matches the sequential
one to tight tolerance across a grid of shapes, then times both on a
longer input.

Run from the repository root:

    python demos/02_parallel_scan.py
"""

import time

import numpy as np

from sepscan import ssm
from sepscan.numerics import Tensor

# ---------------------------------------------------------------------------
# random selective inputs (time-varying delta, B, C)
# ---------------------------------------------------------------------------


def random_case(L, E, H, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((L, E)))
    params = ssm.SsmParams(
        a=Tensor(-np.exp(rng.uniform(-1.0, 1.0, (E, H)))),
        delta=Tensor(np.exp(rng.uniform(-3.0, -1.0, (L, E)))),
        b=Tensor(rng.standard_normal((L, H))),
        c=Tensor(rng.standard_normal((L, H))),
    )
    return x, params


# ---------------------------------------------------------------------------
# agreement across shapes
# ---------------------------------------------------------------------------

print("sequential vs parallel, max abs gap per case:")
worst = 0.0
for L in (1, 7, 64, 250):
    for E in (1, 4):
        x, params = random_case(L, E, 16, seed=L * 10 + E)
        y_seq = ssm.scan_sequential(x, params).data
        y_par = ssm.scan_parallel(x, params).data
        gap = float(np.max(np.abs(y_seq - y_par)))
        worst = max(worst, gap)
        print(f"  L={L:4d} E={E}  gap={gap:.3e}")
assert worst < 1e-8
print(f"worst case {worst:.3e}: the reordering is exact up to roundoff.\n")

# ---------------------------------------------------------------------------
# timing on a longer sequence
# ---------------------------------------------------------------------------

# On numpy the parallel scan wins by vectorization, not by extra cores:
# O(log L) full-array sweeps replace L interpreter-dispatched step
# updates. That pays only while each step is tiny, as here with one
# channel: parallel / sequential is about 0.05 at this shape. The sweeps
# do O(L log L) work on the whole state, so once B*E*H makes each step
# real array work the parallel scan loses, and by far: it is about 8-12x
# slower at model widths (float32, one BLAS thread: 8.5x at
# [L, B, E, H] = [1000, 4, 64, 16], 12x at the xs intra-chunk scan's
# [250, 7, 256, 16]). The model's blocks therefore scan sequentially.
L, E, H = 8000, 1, 8
x, params = random_case(L, E, H, seed=0)

for name, fn in (("sequential", ssm.scan_sequential),
                 ("parallel  ", ssm.scan_parallel)):
    fn(x, params)                       # warmup
    t0 = time.perf_counter()
    fn(x, params)
    dt = time.perf_counter() - t0
    print(f"{name}  L={L} E={E} H={H}: {dt * 1e3:8.1f} ms")
