import numpy as np
import pytest

from heatsync import (
    build_graph,
    connected_components,
    demo_graph,
    design,
    laplacian,
    leader_mask,
)
from heatsync.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    SelfLoop,
    UncontrollableComponent,
)

from conftest import random_graph


def incidence(g):
    """Oriented edge-node incidence matrix U, +1 at the lower-numbered endpoint.

    Built edge by edge, independently of ``laplacian``, so that U^T U = L
    pins the Laplacian.
    """
    u = np.zeros((len(g.edges), g.n), dtype=np.int64)
    for r, (i, j) in enumerate(g.edges):
        u[r, i - 1] = 1
        u[r, j - 1] = -1
    return u


def design_accepts(g):
    """False iff ``design`` rejects the graph as having a component without
    a leader-connected node (UncontrollableComponent)."""
    try:
        design(g, alpha=0.0)
    except UncontrollableComponent:
        return False
    return True


def bfs_components(n, edges):
    """Independent oracle: breadth-first traversal over an adjacency list."""
    adj = {v: [] for v in range(1, n + 1)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, comps = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        queue, comp = [start], []
        seen.add(start)
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


class TestBuildGraph:
    def test_demo_network(self):
        g = demo_graph()
        assert g.n == 5
        assert g.edges == ((1, 3), (2, 4), (3, 4), (4, 5))
        assert g.leader_set == frozenset({1, 2, 3})

    def test_single_agent(self):
        g = build_graph(1, [], [1])
        assert g.n == 1 and g.edges == () and g.leader_set == frozenset({1})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(2, [(1, 2), (1, 2)], [])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(1, 2), (2, 1)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(2, 2)], [])

    def test_out_of_range_edge(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(3, [(1, 4)], [])

    def test_out_of_range_leader(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(3, [], [0])

    def test_empty_leader_set_allowed(self):
        assert len(build_graph(2, [(1, 2)], []).leader_set) == 0

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_boolean_ids_rejected(self, flag):
        # True == 1, but a flag is not a follower count or a node id
        with pytest.raises(ValueError):
            build_graph(flag, [], [])
        with pytest.raises(ValueError):
            build_graph(3, [(flag, 2)], [])
        with pytest.raises(ValueError):
            build_graph(3, [(1, 2)], [flag])


class TestLaplacian:
    def test_demo_by_definition(self):
        # hand-applied definition: degree diagonal, -1 at edges
        expected = np.array(
            [
                [1, 0, -1, 0, 0],
                [0, 1, 0, -1, 0],
                [-1, 0, 2, -1, 0],
                [0, -1, -1, 3, -1],
                [0, 0, 0, -1, 1],
            ]
        )
        assert np.array_equal(laplacian(demo_graph()), expected)

    def test_edgeless_is_zero(self):
        assert np.array_equal(laplacian(build_graph(4, [], [])), np.zeros((4, 4)))

    def test_two_node_path(self):
        assert np.array_equal(
            laplacian(build_graph(2, [(1, 2)], [])), np.array([[1, -1], [-1, 1]])
        )

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_graph(rng)
            lap = laplacian(g)
            assert lap.dtype == np.int64
            assert np.array_equal(lap @ np.ones(g.n, dtype=np.int64), np.zeros(g.n))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng)
            if g.n:
                assert np.linalg.eigvalsh(laplacian(g).astype(float)).min() > -1e-10


class TestIncidence:
    def test_single_edge(self):
        assert np.array_equal(incidence(build_graph(2, [(1, 2)], [])), [[1, -1]])

    def test_edgeless_shape(self):
        assert incidence(build_graph(3, [], [])).shape == (0, 3)

    def test_gram_identity_demo(self):
        g = demo_graph()
        u = incidence(g)
        assert u.shape == (4, 5)
        assert np.array_equal(u.T @ u, laplacian(g))

    def test_gram_identity_random(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            g = random_graph(rng)
            u = incidence(g)
            assert np.array_equal(u.T @ u, laplacian(g))

    def test_kernel_of_connected_graph(self):
        from conftest import random_connected_graph

        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_connected_graph(rng)
            u = incidence(g).astype(float)
            assert np.array_equal(u @ np.ones(g.n), np.zeros(len(g.edges)))
            x = rng.standard_normal(g.n)
            x -= x.mean()  # orthogonal to the all-ones vector
            if np.linalg.norm(x) > 1e-9:
                assert np.linalg.norm(u @ x) > 1e-9


class TestComponents:
    def test_demo_single_component(self):
        assert connected_components(demo_graph()) == [(1, 2, 3, 4, 5)]

    def test_edgeless(self):
        assert connected_components(build_graph(3, [], [])) == [(1,), (2,), (3,)]

    def test_one_pair(self):
        assert connected_components(build_graph(3, [(1, 2)], [])) == [(1, 2), (3,)]

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_graph(rng, edge_prob=0.25)
            assert sorted(connected_components(g)) == bfs_components(g.n, g.edges)


class TestLeaderConnectivity:
    def test_demo_true(self):
        assert design_accepts(demo_graph())

    def test_isolated_node_false(self):
        assert not design_accepts(build_graph(3, [(1, 2)], [1]))

    def test_all_leaders_true(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_graph(rng)
            g_all = build_graph(g.n, g.edges, range(1, g.n + 1))
            assert design_accepts(g_all)

    def test_definitional_cross_check(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_graph(rng)
            by_components = all(
                any(v in g.leader_set for v in comp)
                for comp in connected_components(g)
            )
            assert design_accepts(g) == by_components


class TestLeaderMask:
    def test_demo(self):
        assert np.array_equal(
            leader_mask(demo_graph()), np.diag([1, 1, 1, 0, 0])
        )

    def test_empty(self):
        assert np.array_equal(leader_mask(build_graph(3, [], [])), np.zeros((3, 3)))

    def test_full(self):
        assert np.array_equal(
            leader_mask(build_graph(3, [], [1, 2, 3])), np.eye(3)
        )
