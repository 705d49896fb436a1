import numpy as np
import pytest

from heatsync import PRESETS, NetworkConfig, build_graph


def demo_graph():
    """The five-follower network of the paper's Section V example."""
    graph = PRESETS["sectionV"]["graph"]
    return build_graph(graph["n"], graph["edges"], graph["leader_set"])


@pytest.fixture
def demo_net():
    """The five-follower demo scenario with its published gains."""
    return NetworkConfig(graph=demo_graph(), alpha=0.0, beta=1.0, k=3.0, g=-2.0)


@pytest.fixture
def walked(monkeypatch):
    """The start step of each stride the block map walks, in order, as ``simulate`` runs."""
    from heatsync import pdesim

    starts, stepwise = [], pdesim._stepwise
    monkeypatch.setattr(pdesim, "_stepwise",
                        lambda *args: starts.append(args[-1][0]) or stepwise(*args))
    return starts


def random_connected_graph(rng, n_max=8, n_min=2):
    """Random connected follower graph with a nonempty leader set."""
    n = int(rng.integers(n_min, n_max + 1))
    perm = rng.permutation(n) + 1
    edges = set()
    for i in range(1, n):  # random spanning tree first
        j = int(rng.integers(0, i))
        a, b = int(perm[i]), int(perm[j])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, n))):
        a, b = (int(v) for v in rng.integers(1, n + 1, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    s = int(rng.integers(1, n + 1))
    leaders = [int(v) for v in rng.choice(np.arange(1, n + 1), size=s, replace=False)]
    return build_graph(n, sorted(edges), leaders)


def random_graph(rng, n_max=8, n_min=1, edge_prob=0.4, allow_empty_leaders=True):
    """Random graph, not necessarily connected."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((i, j))
    lo = 0 if allow_empty_leaders else 1
    s = int(rng.integers(lo, n + 1))
    leaders = [int(v) for v in rng.choice(np.arange(1, n + 1), size=s, replace=False)]
    return build_graph(n, edges, leaders)
