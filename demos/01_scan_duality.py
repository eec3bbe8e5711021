"""Recurrence and convolution are the same linear time-invariant system.

A diagonal state-space recurrence h' = Ah + Bx, y = Ch with parameters
held constant over time has a closed-form impulse response
K_k = C Abar^k Bbar. Running the recurrence step by step and convolving
the input with K must therefore produce the same output. This script
builds one random stable system, evaluates it both ways, and prints the
worst-case disagreement (it should sit at float64 roundoff).

Run from the repository root:

    python demos/01_scan_duality.py
"""

import numpy as np

from sepscan import ssm
from sepscan.numerics import Tensor

# ---------------------------------------------------------------------------
# a random stable diagonal system
# ---------------------------------------------------------------------------

rng = np.random.default_rng(7)
H = 6          # states
L = 48         # time steps
delta = 0.1    # step size

diag = -np.exp(rng.uniform(-1.5, 1.0, H))    # strictly negative: stable
bvec = rng.standard_normal(H)
cvec = rng.standard_normal(H)
x = rng.standard_normal(L)

print(f"system: H={H} diagonal states, L={L} steps, delta={delta}")
print(f"eigenvalues of A (continuous time): {np.sort(diag)[::-1].round(3)}")

# ---------------------------------------------------------------------------
# path 1: run it as a recurrence
# ---------------------------------------------------------------------------

# The selective scan accepts time-varying (delta, B, C); a time-invariant
# system is the special case where every step carries the same values.
params = ssm.SsmParams(
    a=Tensor(diag[None, :]),                                   # [E=1, H]
    delta=Tensor(np.full((L, 1), delta)),                      # [L, E]
    b=Tensor(np.broadcast_to(bvec, (L, H)).copy()),            # [L, H]
    c=Tensor(np.broadcast_to(cvec, (L, H)).copy()),            # [L, H]
    exact_zoh=True,   # exact hold, so both paths discretize identically
)
y_recurrence = ssm.scan_sequential(Tensor(x[:, None]), params).data[:, 0]

# ---------------------------------------------------------------------------
# path 2: materialize the kernel and convolve
# ---------------------------------------------------------------------------

sys = ssm.DenseSsm(a=np.diag(diag), b=bvec[:, None], c=cvec[None, :],
                   delta=delta)
kernel = ssm.materialize_kernel(sys, L)
y_convolution = ssm.kernel_convolve(x, sys)

print(f"\nkernel head: {kernel[:5].round(5)}")
print(f"kernel tail magnitude: {abs(kernel[-1]):.2e} (decays because A < 0)")

# ---------------------------------------------------------------------------
# they agree to roundoff
# ---------------------------------------------------------------------------

gap = np.max(np.abs(y_recurrence - y_convolution))
print(f"\nmax |recurrence - convolution| = {gap:.3e}")
assert gap < 1e-10, "the two evaluations of one system diverged"
print("the recurrent and convolutional views are the same computation.")

# The selective model exploits both directions of this duality: it trains
# and runs as a recurrence (so B, C, delta may depend on the input at
# every step), while the time-invariant special case stays available as
# an independent oracle for testing.
