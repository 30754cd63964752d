"""
Association losses and gradient checking
========================================

The training loss has four parts: forward cross-entropy, backward
cross-entropy, a forward/backward consistency gap, and a best-direction
term on true matches.  All gradients are analytic; this demo compares
them against central finite differences and shows two closed-form loss
identities.
"""

import numpy as np

from cloudtrack import fd_gradient_check, loss_from_raw
from cloudtrack.verification import identity_errors, random_instance

rng = np.random.default_rng(42)

# A random frame pair: raw augmented score matrices plus a consistent
# ground-truth assignment with persisting, leaving, and entering ids.
m1, m2, gt, dummy = random_instance(rng, max_count=6)
cp, cc = gt.g3.shape
print(f"instance: {cp} previous objects, {cc} current objects")

losses = loss_from_raw(m1, m2, gt)
print(
    f"l_f={losses.l_f:.4f} l_b={losses.l_b:.4f} "
    f"l_c={losses.l_c:.4f} l_a={losses.l_a:.4f} total={losses.total:.4f}"
)

# Central finite differences over every entry of M1 and M2 plus the
# shared dummy score.  The analytic gradients should agree to well
# under 1e-4 relative error.
worst = max(
    fd_gradient_check(*random_instance(rng, max_count=6)[:3]) for _ in range(10)
)
print(f"\nworst relative gradient error over 10 random instances: {worst:.2e}")

# Identity one: a decisive logit at every true cell drives the total
# loss to zero.  Identity two: all-equal scores make the forward term
# exactly ln(count_cur + 1), the uniform pick among cc + 1 candidates.
sharp_err, uniform_err = identity_errors(gt)
print(f"sharp-prediction total loss: {sharp_err:.2e} (should be ~0)")
print(
    f"uniform-prediction l_f error vs ln({cc}+1)={np.log(cc + 1.0):.5f}: "
    f"{uniform_err:.2e}"
)
