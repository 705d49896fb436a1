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
from the top eigenvalue of one LAPACK ``eigvalsh`` call.  ``certificate_sweep``
applies that rule to a grid of gains, from stacks of the same builder, which
alone decides when a certificate is out of range; both routes refuse it then.
This module holds the certificates only: the scenario they judge,
``NetworkConfig``, and the verdict threshold ``FEASIBILITY_MARGIN`` live
in the config layer, ``scenarios``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import laplacian, leader_mask
from .scenarios import FEASIBILITY_MARGIN, NetworkConfig

_HALF_PI_SQ = np.pi**2 / 2.0
# a sweep builds and solves at most this many certificate entries at once
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix; the constructor symmetrizes its input."""

    mat: np.ndarray

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "mat", (a + a.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


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


def _certificate_stack(cfg: NetworkConfig, k: np.ndarray, g: np.ndarray):
    """The certificates of ``cfg`` at the gains in each row of k and g, each
    (cells, N), or (cells, 1) for gains common to all followers: a stack
    (cells, 2N, 2N), symmetric as built, and per cell whether it is in range:
    every entry within +-max/2, where SymMatrix's (a + a^T)/2 is exact (nan is not)."""
    n = cfg.n
    if n < 1:
        raise DimensionMismatch("certificates need at least one follower")
    stack = np.zeros((len(k), 2 * n, 2 * n))
    d, lower = np.arange(n), stack[:, n:, n:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow puts its cell out of range
        stack[:, :n, :n] = -(cfg.beta * _HALF_PI_SQ) * np.eye(n)  # its -0.0s: eigvalsh reads signs
        km = k * leader_mask(cfg.graph).astype(float).diagonal()
        stack[:, d, n + d] = stack[:, n + d, d] = cfg.beta * km
        gl = g[:, :, np.newaxis] * laplacian(cfg.graph)
        gl += 0.0  # a zero entry is +0, as in the product diag(g) L
        np.add(gl, gl.swapaxes(1, 2), out=lower)
        lower /= 2.0
        lower[:, d, d] = 2.0 * cfg.alpha - cfg.beta * (km + km) + lower[:, d, d]
    half = np.finfo(float).max / 2.0
    return stack, (stack.max(axis=(1, 2)) <= half) & (stack.min(axis=(1, 2)) >= -half)


def certificate_matrix(cfg: NetworkConfig) -> SymMatrix:
    """The 2N x 2N certificate matrix.

    Blocks, with Kbar = diag(k_i m_i) the masked boundary gains, G = diag(g)
    and L the follower Laplacian::

        [ -(beta*pi^2/2) I     beta Kbar                              ]
        [ beta Kbar            2 alpha I - 2 beta Kbar + sym(G L)     ]

    where sym(X) = (X + X^T)/2.  Negative definiteness certifies exponential
    leader synchronization in the L2 norm.  This is the one-cell case of
    ``certificate_sweep``'s stack; a cell out of its range raises ValueError.
    """
    stack, in_range = _certificate_stack(cfg, cfg.k_vector[np.newaxis], cfg.g_vector[np.newaxis])
    if not in_range[0]:
        raise ValueError("the certificate matrix overflows: alpha, beta, k or g is too large")
    return SymMatrix(stack[0])


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


def certificate_sweep(cfg: NetworkConfig, k: np.ndarray, g: np.ndarray):
    """Top eigenvalues and verdicts of ``cfg``'s certificates at the common
    gains (k[c], g[c]) of each cell c, by ``evaluate_certificate``'s rule.

    The certificates are built as stacks of at most ``_STACK_ENTRIES``
    entries, and the cells in range are solved by one ``eigvalsh`` call per
    stack; a stack whose solve fails is solved again one cell at a time.  A
    cell out of range or whose solve fails has a nan eigenvalue, as if its
    ``certificate_matrix`` or ``evaluate_certificate`` had raised.
    Without followers it raises DimensionMismatch, as that builder does.
    """
    max_eig = np.full(len(k), np.nan)
    size = max(1, _STACK_ENTRIES // max(1, 4 * cfg.n**2))  # cells per stack
    for lo in range(0, len(k), size):
        a, in_range = _certificate_stack(cfg, k[lo : lo + size, None], g[lo : lo + size, None])
        done = np.flatnonzero(in_range)
        try:
            max_eig[lo + done] = np.linalg.eigvalsh(a[done])[:, -1]
        except np.linalg.LinAlgError:
            for c in done:
                try:
                    max_eig[lo + c] = np.linalg.eigvalsh(a[c])[-1]
                except np.linalg.LinAlgError:
                    pass
    return max_eig, max_eig < -FEASIBILITY_MARGIN
