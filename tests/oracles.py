"""Independent references the tests hold the production code to.

None of these runs on a production path.  ``sym_eigenvalues`` is a
hand-rolled cyclic Jacobi iteration (slow, accurate, no LAPACK),
``is_negative_definite`` decides definiteness by a Cholesky attempt, and
``normalized_certificate`` writes the certificate in its closed normalized
form.  Production decides certificates from one ``eigvalsh`` call in
``heatsync.evaluate_certificate``; the tests check it against these.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from heatsync import SymMatrix, laplacian, leader_mask
from heatsync.errors import NoConvergence


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) plus the Jacobi iteration bookkeeping."""

    eigenvalues: np.ndarray
    iterations: int
    residual: float


def _as_sym(a) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(a)


def sym_eigenvalues(a, tol: float = 1e-11, max_sweeps: int = 100) -> Spectrum:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Convergence: the largest off-diagonal magnitude drops below
    ``tol * max(1, ||A||_F)``.  Quadratic convergence makes a handful of
    sweeps enough at the certificate sizes the tests use (dim <= ~40).

    Raises NoConvergence if the sweep cap is hit above tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = _as_sym(a).mat.copy()
    n = w.shape[0]
    if n == 0:
        raise ValueError("empty matrix has no spectrum")
    if n == 1:
        return Spectrum(eigenvalues=w.diagonal().copy(), iterations=0, residual=0.0)
    threshold = tol * max(1.0, float(np.linalg.norm(w, "fro")))

    def max_off(m):
        off = m - np.diag(m.diagonal())
        return float(np.abs(off).max())

    rotations = 0
    for _ in range(max_sweeps):
        if max_off(w) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp, rq = w[p, :].copy(), w[q, :].copy()
                w[p, :] = c * rp - s * rq
                w[q, :] = s * rp + c * rq
                cp, cq = w[:, p].copy(), w[:, q].copy()
                w[:, p] = c * cp - s * cq
                w[:, q] = s * cp + c * cq
                w[p, q] = w[q, p] = 0.0
                rotations += 1
    residual = max_off(w)
    if residual > threshold:
        raise NoConvergence(
            f"jacobi residual {residual:.3e} above {threshold:.3e} "
            f"after {max_sweeps} sweeps"
        )
    return Spectrum(
        eigenvalues=np.sort(w.diagonal()), iterations=rotations, residual=residual
    )


def is_negative_definite(a, margin: float = 0.0) -> bool:
    """True iff -(A + margin*I) is positive definite (Cholesky succeeds).

    Equivalent to max eigenvalue < -margin; any pivot failure means False.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    m = _as_sym(a).mat
    shifted = -(m + margin * np.eye(m.shape[0]))
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def normalized_certificate(cfg) -> np.ndarray:
    """The certificate of a normalized config (beta=1, P=I, scalar gains)::

        [ -(pi^2/2) I    k M                     ]
        [ k M            2 alpha I - 2 k M + g L ]
    """
    assert cfg.is_normalized
    k, g, n = cfg.k_scalar, cfg.g_scalar, cfg.n
    lap = laplacian(cfg.graph).astype(float)
    mask = leader_mask(cfg.graph).astype(float)
    eye = np.eye(n)
    top = np.hstack([-(np.pi**2 / 2.0) * eye, k * mask])
    bottom = np.hstack([k * mask, 2.0 * cfg.alpha * eye - 2.0 * k * mask + g * lap])
    return np.vstack([top, bottom])
