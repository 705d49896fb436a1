"""Control-gain synthesis: boundary-gain windows and the coupling gain.

The admissible boundary gain k has a closed-form open interval per connected
component.  The in-domain coupling gain g needs no search: for a common g
the certificate is Omega(g) = Omega(0) + g (0 (+) L), and the graph
Laplacian L is positive semidefinite, so by Weyl's inequality the top
certificate eigenvalue is nonincreasing in g.  The most attractive gain
design considers, G_MIN, is therefore the maximal-margin gain on
[G_MIN, 0], and one certificate there decides the whole interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import (
    Certificate,
    NetworkConfig,
    certificate_matrix,
    evaluate_certificate,
)
from .errors import (
    DimensionMismatch,
    EmptyWindow,
    InfeasibleInBracket,
    InvalidLeaderCount,
    UncontrollableComponent,
)
from .graph import FollowerGraph, connected_components

_PI_SQ = np.pi**2
# the most attractive coupling gain that design considers
G_MIN = -1e4


@dataclass(frozen=True)
class Interval:
    """Open interval of admissible boundary gains; may be empty."""

    lo: float
    hi: float
    empty: bool = False

    @property
    def width(self) -> float:
        return 0.0 if self.empty else self.hi - self.lo

    @property
    def midpoint(self) -> float:
        if self.empty:
            raise EmptyWindow("empty interval has no midpoint")
        return 0.5 * (self.lo + self.hi)


_EMPTY = Interval(lo=np.nan, hi=np.nan, empty=True)


@dataclass(frozen=True)
class ComponentPlan:
    """Per-component bookkeeping from the design pipeline."""

    component: tuple[int, ...]
    n_nodes: int
    leader_count: int
    window: Interval


@dataclass(frozen=True)
class GainDesign:
    """Synthesized gains plus the certificate that vouches for them."""

    k: float
    g: float
    k_window: Interval
    certificate: Certificate
    per_component: tuple[ComponentPlan, ...]


def k_window_partial(alpha: float, n: int, s: int) -> Interval:
    """Admissible boundary gain interval with s of n agents leader-connected.

    Empty iff alpha >= s pi^2 / (4 n); otherwise

        pi^2/2 - (pi/2) sqrt(pi^2 - 4 (n/s) alpha) < k < pi^2/2 + (pi/2) sqrt(...)

    s = n is the fully controlled case, in which the window depends on
    alpha alone.
    """
    if not 1 <= s <= n:
        raise InvalidLeaderCount(f"need 1 <= s <= n, got s={s}, n={n}")
    if alpha >= s * _PI_SQ / (4.0 * n):
        return _EMPTY
    radius = 0.5 * np.pi * np.sqrt(_PI_SQ - 4.0 * (n / s) * alpha)
    return Interval(lo=_PI_SQ / 2.0 - radius, hi=_PI_SQ / 2.0 + radius)


def search_g(cfg: NetworkConfig) -> tuple[float, Certificate]:
    """The maximal-margin coupling gain on [G_MIN, 0]: G_MIN itself.

    Any g already on ``cfg`` is ignored.  G_MIN is returned with its
    certificate when that is feasible; otherwise, by monotonicity, no g in
    [G_MIN, 0] is, and InfeasibleInBracket carries G_MIN and its max
    eigenvalue.  The certificate block-decomposes over components, so a
    component with no leader link is infeasible for every g.
    """
    cert = evaluate_certificate(certificate_matrix(cfg.with_gains(g=G_MIN)))
    if not cert.feasible:
        raise InfeasibleInBracket(g_best=G_MIN, max_eig=cert.max_eig)
    return G_MIN, cert


def design(graph: FollowerGraph, alpha: float, beta: float = 1.0) -> GainDesign:
    """Full synthesis pipeline for a common boundary gain and coupling gain.

    Per connected component of the follower graph the admissible window is
    computed from (component size, leader count) at the rescaled reaction
    rate alpha/beta; the common k is the midpoint of the narrowest window.
    The coupling gain then comes from ``search_g`` on the whole network, and
    the returned certificate is always re-verified at the true beta.

    Raises DimensionMismatch without followers, UncontrollableComponent
    when some component has no leader node (the one case in which no
    coupling gain can help) and EmptyWindow when the reaction rate is too
    large for some component.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if graph.n < 1:
        raise DimensionMismatch("gain design needs at least one follower")
    alpha_scaled = alpha / beta
    plans: list[ComponentPlan] = []
    for comp in connected_components(graph):
        s_i = sum(1 for v in comp if v in graph.leader_set)
        if s_i < 1:
            raise UncontrollableComponent(comp)
        window = k_window_partial(alpha_scaled, len(comp), s_i)
        if window.empty:
            raise EmptyWindow(
                f"no admissible boundary gain for component {comp}: "
                f"alpha/beta={alpha_scaled:.6g} >= {s_i}*pi^2/(4*{len(comp)})"
            )
        plans.append(
            ComponentPlan(
                component=comp, n_nodes=len(comp), leader_count=s_i, window=window
            )
        )
    narrowest = min(plans, key=lambda p: p.window.width)
    k = narrowest.window.midpoint

    base = NetworkConfig(graph=graph, alpha=alpha, beta=beta, k=k, g=0.0)
    g, cert = search_g(base)
    return GainDesign(
        k=k,
        g=g,
        k_window=narrowest.window,
        certificate=cert,
        per_component=tuple(plans),
    )
