"""Dense solve that reports failure as None instead of errors.

Several callers probe systems that are legitimately singular (exponents at
or past an abscissa of convergence, policies that never absorb) and decide
what that means themselves.  An exactly singular matrix raises LinAlgError
and a numerically singular one yields non-finite entries; both come back
as None.  numpy's solver is used rather than ``scipy.linalg.solve``, whose
batched solver (scipy 1.17) leaks memory on every ill-conditioned system,
which diode Jacobians routinely are.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = ["solve_or_none"]


def solve_or_none(
    m: NDArray[np.float64], rhs: NDArray[np.float64]
) -> NDArray[np.float64] | None:
    """Solution of m @ x = rhs, or None when the system is not cleanly solvable."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(x).all():
        return None
    return x
