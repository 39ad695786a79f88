"""Finite-difference Hessians with Richardson extrapolation.

Central second differences on a shrinking ladder of step sizes, combined by
Richardson extrapolation of the h^2 error expansion.  Callers pass f_batch,
which maps (N, d) arrays of sample points to N values.

The stencil of every level is one half-stencil of offsets o (e_i, e_i + e_j
and e_i - e_j for i < j, times h), and f_batch is called twice per Hessian:
once on x + o and once on x - o, each with the centre x as its first row.
The two calls have the same shape, so for an even function the values at
-x sit at the same row positions as those at x, only with the two calls
swapped.  The Hessian is then bit-identical at x and -x even when f_batch
(through BLAS) rounds a row differently depending on where it sits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_STEP = 5e-3
DEFAULT_LEVELS = 3


@lru_cache(maxsize=16)
def _half_stencil(d):
    """The unit half-stencil in d dimensions and its pairs i < j, as
    read-only arrays shared by every Hessian of that dimension."""
    eye = np.eye(d)
    iu, ju = np.triu_indices(d, 1)
    half = np.concatenate([eye, eye[iu] + eye[ju], eye[iu] - eye[ju]])
    for a in (half, iu, ju):
        a.flags.writeable = False
    return half, iu, ju


def hessian(f_batch, x, step=DEFAULT_STEP, levels=DEFAULT_LEVELS):
    """Hessian of a scalar function at x.

    f_batch maps an (N, d) array to N values.  step is relative to |x|;
    levels is the number of step sizes on the ladder (levels - 1 Richardson
    stages).
    """
    x = np.asarray(x, dtype=float)
    d = len(x)
    scale = max(math.sqrt(x @ x), 1.0)
    h = step * scale / 2.0 ** np.arange(levels)

    half, iu, ju = _half_stencil(d)
    offs = (h[:, None, None] * half).reshape(-1, d)

    def run(points):
        vals = np.asarray(f_batch(np.concatenate([x[None, :], points])), dtype=float)
        return vals[0], vals[1:].reshape(levels, len(half))

    f0, plus = run(x + offs)
    _, minus = run(x - offs)

    # sums pair antipodal stencil points first, so an even function
    # produces bit-identical Hessians at x and -x
    sums = plus + minus
    p = len(iu)
    h2 = (h * h)[:, None]
    diag = (sums[:, :d] - 2 * f0) / h2
    off = (sums[:, d : d + p] - sums[:, d + p :]) / (4 * h2)

    tables = np.zeros((levels, d, d))
    idx = np.arange(d)
    tables[:, idx, idx] = diag
    tables[:, iu, ju] = off
    tables[:, ju, iu] = off

    order = 1
    while len(tables) > 1:
        factor = 4 ** order
        tables = (factor * tables[1:] - tables[:-1]) / (factor - 1)
        order += 1
    return tables[0]
