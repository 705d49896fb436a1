"""Synchronization certificates for the coupled heat-equation network.

The sufficient condition for leader synchronization is negative definiteness
of a 2N x 2N block matrix assembled from the physics (reaction alpha,
diffusion beta), the boundary gains, the in-domain coupling gains and the
follower Laplacian.  ``certificate_matrix`` builds it for per-agent gains
and any beta; with beta = 1 and common scalar gains it reads

    [ -(pi^2/2) I    k M                     ]
    [ k M            2 alpha I - 2 k M + g L ]

a linear matrix inequality in the coupling gain.  The coupling term enters
the lower-right block once (as g*L for a scalar gain); for g <= 0 this
is the conservative reading and it is the one all the closed-form gain
windows are derived from.  ``evaluate_certificate`` decides feasibility
from the top eigenvalue of one LAPACK ``eigvalsh`` call.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .graph import FollowerGraph, _as_float, laplacian, leader_mask

_HALF_PI_SQ = np.pi**2 / 2.0
# A certificate is feasible when its top eigenvalue lies below -FEASIBILITY_MARGIN.
FEASIBILITY_MARGIN = 1e-9

Gains = Union[float, Sequence[float]]


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


def trapezoid_weights(nx: int) -> np.ndarray:
    """Trapezoid quadrature weights of the uniform nx-point grid on [0, 1]."""
    dx = 1.0 / (nx - 1)
    w = np.full(nx, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def _as_gain_vector(value: Gains, n: int, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(n, float(value))
    vec = np.asarray(value, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence")
    return vec


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """One scenario: graph topology plus physical and control parameters.

    ``k`` is the boundary feedback gain (scalar or one value per follower;
    values on followers without leader access are inert: ``boundary_gains``
    multiplies them by the leader mask).  ``g`` is the in-domain coupling
    gain, with the sign convention that the coupling term is ``+ g * L @ z``,
    so attractive coupling means g < 0.  The parameters are stored as
    floats (a per-follower gain as a list of them); a bool, a string or a
    value that is not finite raises ValueError.
    """

    graph: FollowerGraph
    alpha: float
    beta: float = 1.0
    k: Gains = 0.0
    g: Gains = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "k", "g"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        # JSON configs may carry NaN or Infinity; no verdict means anything then.
        if not (isinstance(self.alpha, float) and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite number, got {self.alpha}")
        if not (isinstance(self.beta, float) and np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite number, got {self.beta}")
        for name in ("k", "g"):
            if not np.isfinite(_as_gain_vector(getattr(self, name), self.graph.n, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def k_vector(self) -> np.ndarray:
        return _as_gain_vector(self.k, self.n, "k")

    @property
    def boundary_gains(self) -> np.ndarray:
        """k_i * m_i: zero on followers without a leader link, whatever k says."""
        return self.k_vector * leader_mask(self.graph).astype(float).diagonal()

    @property
    def g_vector(self) -> np.ndarray:
        return _as_gain_vector(self.g, self.n, "g")

    @property
    def k_scalar(self) -> float | None:
        return float(self.k) if np.isscalar(self.k) else None

    @property
    def g_scalar(self) -> float | None:
        return float(self.g) if np.isscalar(self.g) else None

    def with_gains(self, k: Gains | None = None, g: Gains | None = None):
        changes = {}
        if k is not None:
            changes["k"] = k
        if g is not None:
            changes["g"] = g
        return replace(self, **changes)


@dataclass(frozen=True)
class Certificate:
    """Feasibility verdict for one certificate matrix.

    ``margin`` is ``-max_eig`` when feasible and zero otherwise: the largest
    d such that the matrix stays negative semidefinite under a +d*I shift,
    which doubles as the guaranteed exponential decay margin of the error
    norm squared.
    """

    matrix: SymMatrix
    max_eig: float
    feasible: bool
    margin: float


def certificate_matrix(cfg: NetworkConfig) -> SymMatrix:
    """The 2N x 2N certificate matrix.

    Blocks, with Kbar = diag(k_i m_i) the masked boundary gains, G = diag(g)
    and L the follower Laplacian::

        [ -(beta*pi^2/2) I     beta Kbar                              ]
        [ beta Kbar            2 alpha I - 2 beta Kbar + sym(G L)     ]

    where sym(X) = (X + X^T)/2.  Negative definiteness certifies exponential
    leader synchronization in the L2 norm.  Raises ValueError when finite
    parameters overflow into an entry that is not finite.
    """
    n = cfg.n
    if n < 1:
        raise DimensionMismatch("certificates need at least one follower")
    eye = np.eye(n)
    lap = laplacian(cfg.graph).astype(float)
    kbar = np.diag(cfg.boundary_gains)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        gl = np.diag(cfg.g_vector) @ lap
        top = np.hstack([-(cfg.beta * _HALF_PI_SQ) * eye, cfg.beta * kbar])
        lower_right = 2.0 * cfg.alpha * eye - cfg.beta * (kbar + kbar.T) + (gl + gl.T) / 2.0
        bottom = np.hstack([cfg.beta * kbar.T, lower_right])
        matrix = SymMatrix(np.vstack([top, bottom]))
    if not np.isfinite(matrix.mat).all():
        raise ValueError("the certificate matrix overflows: alpha, beta, k or g is too large")
    return matrix


def evaluate_certificate(matrix: SymMatrix) -> Certificate:
    """Decide feasibility of a certificate matrix from its top eigenvalue.

    One ``eigvalsh`` call gives ``max_eig``; the certificate is feasible
    when ``max_eig < -FEASIBILITY_MARGIN``, and only then is its decay
    margin ``-max_eig`` reported (zero otherwise), so the fields cannot
    disagree.
    """
    max_eig = float(np.linalg.eigvalsh(matrix.mat)[-1])
    feasible = max_eig < -FEASIBILITY_MARGIN
    return Certificate(
        matrix=matrix,
        max_eig=max_eig,
        feasible=feasible,
        margin=-max_eig if feasible else 0.0,
    )
