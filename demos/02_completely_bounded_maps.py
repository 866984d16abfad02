"""Norm growth of a linear map under matrix amplification.

A map phi on d x d matrices amplifies to id_n (x) phi acting blockwise on
nd x nd matrices.  The supremum of the amplified norms over n is the
completely bounded norm; sampling amplified inputs gives certified lower
bounds level by level.  Two classics:

* the transpose has norm 1 but its level-n amplifications grow, so it is
  bounded without being completely bounded,
* compressions are completely contractive at every exponent.
"""

import numpy as np

from lpalg import LinearMap, cb_norm_lower

transpose = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
est = cb_norm_lower(transpose, 2.0, n_max=4, trials=12, rng=np.random.default_rng(0))
print("transpose on 2x2 matrices, p = 2")
for n, value in est.levels:
    print(f"  level {n}: certified lower bound {value:.12f}")
print(f"  best: {est.best:.12f}  (the transpose is not completely bounded uniformly)")
print()

proj = np.diag([1.0, 1.0, 0.0])
compress = LinearMap(3, 3, apply_fn=lambda a: proj @ np.asarray(a, dtype=complex) @ proj)
print("corner compression on 3x3 matrices")
for p in (1.0, 1.5, 2.0, 3.0):
    est = cb_norm_lower(compress, p, n_max=3, trials=12, rng=np.random.default_rng(1))
    print(f"  p={p:<3}: levels " +
          ", ".join(f"{v:.9f}" for _, v in est.levels) + "   (all <= 1)")
