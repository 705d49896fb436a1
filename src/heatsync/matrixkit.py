"""Dense real linear algebra used by the certificates and the simulator.

Certificate verdicts come from one LAPACK ``eigvalsh`` call in
``certify.evaluate_certificate``; this module holds the symmetric matrix
type those verdicts are taken on and the power iteration behind the
spectral diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix; the constructor symmetrizes its input.

    ``asym_residual`` records how far the raw input was from symmetric,
    so accidental asymmetry upstream stays observable.
    """

    mat: np.ndarray
    asym_residual: float

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        sym = (a + a.T) / 2.0
        object.__setattr__(self, "mat", sym)
        object.__setattr__(self, "asym_residual", float(np.abs(a - a.T).max(initial=0.0)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def power_dominant(
    a, iters: int = 20000, tol: float = 1e-9, seed: int = 1234
) -> tuple[float, bool]:
    """Spectral-radius estimate by power iteration with renormalization.

    The estimate is the geometric mean of the norm growth over the last ten
    iterations, which also smooths the oscillation a dominant complex pair
    would cause.  ``converged`` reports whether the estimate moved by less
    than ``tol`` (relative) over the last ten iterations.  The start vector
    is drawn from a fixed-seed generator so results are reproducible.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = a.shape[0]
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    log_ratios: list[float] = []
    estimates: list[float] = []
    estimate = 0.0
    for m in range(1, iters + 1):
        w = a @ v
        r = float(np.linalg.norm(w))
        if r == 0.0:
            return 0.0, True
        v = w / r
        log_ratios.append(np.log(r))
        estimate = float(np.exp(np.mean(log_ratios[-10:])))
        estimates.append(estimate)
        if m >= 20:
            recent = estimates[-10:]
            if max(recent) - min(recent) <= tol * max(1.0, abs(estimate)):
                return estimate, True
    return estimate, False
