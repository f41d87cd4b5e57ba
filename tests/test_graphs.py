import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync.graphs import (
    DirectedWeightedGraph,
    SparseLaplacian,
    compute_h_weights,
    format_edge_list,
    generate_circulant,
    generate_disconnected_composite,
    generate_vicsek_fractal,
    laplacian,
    read_edge_list,
    weakly_connected_components,
)
from cohsync.linalg import SolverError


def random_strongly_connected(rng, n):
    """Directed cycle plus random extra edges: strongly connected by design."""
    A = np.zeros((n, n))
    for i in range(n):
        A[(i + 1) % n, i] = 1.0
    extra = rng.random((n, n)) < 0.3
    np.fill_diagonal(extra, False)
    A[extra] = 1.0
    return DirectedWeightedGraph(A)


# ---------------------------------------------------------------------------
# Laplacian basics


def test_laplacian_single_edge():
    # flow 1 -> 2 (0-based: 0 -> 1): node 1 observes node 0
    g = DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0)])
    assert np.array_equal(laplacian(g), np.array([[0.0, 0.0], [-1.0, 1.0]]))


def test_laplacian_directed_three_cycle():
    g = DirectedWeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(g), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_laplacian_row_sums_zero(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(A, 0.0)
    L = laplacian(DirectedWeightedGraph(A))
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-14 * max(1.0, np.max(np.abs(L)))


# Network sums (the disagreements zeta = L Y and the collaborative
# exchange L X_hat) through the dense Laplacian; the sparse products the
# simulator uses are checked against it further down.


def test_laplacian_product_zero_for_agreeing_outputs():
    g = DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    z = laplacian(g) @ np.array([[1.5], [1.5]])
    assert np.all(z == 0.0)


def test_laplacian_product_single_edge():
    g = DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0)])
    z = laplacian(g) @ np.array([[1.0], [0.0]])
    assert z[0, 0] == 0.0
    assert z[1, 0] == -1.0


def test_laplacian_product_matches_kron_oracle():
    rng = np.random.default_rng(2)
    g = generate_circulant(25)
    Y = rng.standard_normal((25, 2))
    L = laplacian(g)
    oracle = (np.kron(L, np.eye(2)) @ Y.reshape(-1)).reshape(25, 2)
    assert np.allclose(L @ Y, oracle, atol=1e-12)


def test_laplacian_product_respects_blocks():
    g = generate_disconnected_composite((3, 4), seed=1)
    L = laplacian(g)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 2))
    full = L @ X
    # Zeroing the other block's states must not change a block's signals.
    X_masked = X.copy()
    X_masked[3:] = 0.0
    assert np.array_equal((L @ X_masked)[:3], full[:3])
    single = X.copy()
    single[:2] = 0.0
    single[3:] = 0.0
    sig = L @ single
    L_direct = np.diag(g.adjacency.sum(axis=1)) - g.adjacency
    assert np.allclose(sig, np.outer(L_direct[:, 2], X[2]), atol=1e-12)


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedWeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self-loop
    with pytest.raises(ValueError):
        DirectedWeightedGraph(np.array([[0.0, -1.0], [0.0, 0.0]]))  # negative weight
    with pytest.raises(ValueError):
        DirectedWeightedGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DirectedWeightedGraph(np.array([[0.0, np.nan], [0.0, 0.0]]))  # non-finite weight
    for weight in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            DirectedWeightedGraph.from_edges(2, [(0, 1, weight)])
    with pytest.raises(ValueError):
        DirectedWeightedGraph.from_edges(2, [(1, 1, 0.5)])  # self-loop
    with pytest.raises(ValueError):
        DirectedWeightedGraph.from_edges(2, [(0, 2, 1.0)])  # outside the node range
    # A zero-weight self-loop is no edge, as a zero on the diagonal.
    assert DirectedWeightedGraph.from_edges(2, [(1, 1, 0.0)]).cols.size == 0


def test_edge_records_keep_dense_semantics():
    # As if each record were written into a dense matrix in turn: a repeated
    # pair keeps its last weight and a zero weight adds no edge.
    g = DirectedWeightedGraph.from_edges(
        5, [(0, 1, 2.0), (3, 2, 1.0), (0, 1, 0.5), (1, 2, 0.0), (4, 3, 1.0), (4, 3, 0.0)]
    )
    assert g.indptr.tolist() == [0, 0, 1, 2, 2, 2]
    assert g.cols.tolist() == [0, 3]
    assert g.weights.tolist() == [0.5, 1.0]
    # Neither zero record joins two components.
    assert weakly_connected_components(g) == [[0, 1], [2, 3], [4]]
    expected = np.zeros((5, 5))
    expected[1, 0] = 0.5
    expected[2, 3] = 1.0
    assert np.array_equal(g.adjacency, expected)
    assert np.array_equal(DirectedWeightedGraph(expected).weights, g.weights)


def awkward_graph(rng, n):
    """Random weighted digraph with a source node, two isolated nodes and a
    one-node component, besides whatever components the draw makes."""
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
    np.fill_diagonal(A, 0.0)
    A[0] = 0.0  # node 0 observes nobody
    A[:, [1, 2]] = 0.0
    A[[1, 2]] = 0.0  # nodes 1 and 2 are isolated
    return DirectedWeightedGraph(A)


@pytest.mark.parametrize("seed", range(6))
def test_component_laplacian_products_match_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    g = awkward_graph(rng, n)
    comps = weakly_connected_components(g)
    assert [1] in comps and [2] in comps
    rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    dense = laplacian(g) @ rows
    for comp in comps:
        L = SparseLaplacian(DirectedWeightedGraph(g.adjacency[np.ix_(comp, comp)]))
        assert L.shape == (len(comp), len(comp))
        ours = L @ rows[comp]
        ref = dense[comp]
        err = np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), np.finfo(float).tiny)
        assert err <= 1e-15
    whole = SparseLaplacian(g)
    assert np.linalg.norm(whole @ rows - dense) <= 1e-15 * np.linalg.norm(dense)
    assert np.array_equal((whole @ np.eye(n))[0], np.zeros(n))  # the source row


@pytest.mark.parametrize("seed", range(6))
def test_component_laplacian_rows_bitwise_match_whole_graph(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 40))
    g = awkward_graph(rng, n)
    comps = weakly_connected_components(g)
    rows = rng.standard_normal((n, 4))
    # Zeros of both signs, so that some row sums are zeros too.
    rows[rng.random((n, 4)) < 0.4] = 0.0
    rows[rng.random((n, 4)) < 0.3] = -0.0
    whole = SparseLaplacian(g) @ rows

    def same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    for comp in comps:
        # Each component's Laplacian, taken as a graph of its own.
        alone = DirectedWeightedGraph(g.adjacency[np.ix_(comp, comp)])
        assert same(SparseLaplacian(alone) @ rows[comp], whole[comp])


def test_sparse_laplacian_slots():
    # Node 2 observes 0 and 1, node 0 observes 2: rows in column order with
    # the diagonal in place, padded with zero weights in the row's own column.
    g = DirectedWeightedGraph.from_edges(3, [(0, 2, 1.0), (1, 2, 2.0), (2, 0, 0.5)])
    L = SparseLaplacian(g)
    assert L.cols.tolist() == [[0, 1, 0], [2, 1, 1], [0, 1, 2]]
    assert L.vals.tolist() == [[0.5, 0.0, -1.0], [-0.5, 0.0, -2.0], [0.0, 0.0, 3.0]]
    assert np.array_equal(L @ np.eye(3), laplacian(g))


def test_weakly_connected_components():
    g = DirectedWeightedGraph.from_edges(5, [(0, 1, 1.0), (3, 4, 2.0)])
    assert weakly_connected_components(g) == [[0, 1], [2], [3, 4]]
    assert weakly_connected_components(DirectedWeightedGraph(np.zeros((0, 0)))) == []


@pytest.mark.parametrize("seed", range(20))
def test_weakly_connected_components_match_a_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    A = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.08))
    np.fill_diagonal(A, 0.0)
    perm = rng.permutation(n)
    g = DirectedWeightedGraph(A[np.ix_(perm, perm)])
    # Depth-first search over the symmetrized dense pattern.
    sym = (g.adjacency + g.adjacency.T) > 0.0
    seen, expected = set(), []
    for root in range(n):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.flatnonzero(sym[v]).tolist():
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        expected.append(sorted(comp))
    assert weakly_connected_components(g) == expected


def test_directed_circulant_of_100k_nodes_stays_sparse():
    n = 100_000
    g = generate_circulant(n, offsets=(1, 2))
    edges = 2 * n
    assert (g.indptr.size, g.cols.size, g.weights.size) == (n + 1, edges, edges)
    assert weakly_connected_components(g) == [list(range(n))]
    L = SparseLaplacian(g)
    # One slot per in-neighbour and one for the diagonal.
    assert L.cols.shape == (3, n) and L.vals.shape == (3, n)
    for array in [*vars(g).values(), *vars(L).values()]:
        assert array.size <= 2 * (n + edges)
    y = np.arange(n, dtype=float)[:, None]
    z = L @ y
    assert np.array_equal(z[2:, 0], np.full(n - 2, 3.0))  # 2 y_i - y_{i-1} - y_{i-2}
    assert np.array_equal(L @ np.ones((n, 1)), np.zeros((n, 1)))


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("generation,expected_n", [(1, 5), (2, 25), (3, 121)])
def test_vicsek_node_counts(generation, expected_n):
    g = generate_vicsek_fractal(generation, directed=True)
    assert g.n_nodes == expected_n
    # a tree: exactly n-1 directed edges
    assert int(np.count_nonzero(g.adjacency)) == expected_n - 1


@pytest.mark.parametrize("generation", [1, 2, 3])
def test_vicsek_directed_spanning_tree_and_single_basic(generation):
    g = generate_vicsek_fractal(generation, directed=True)
    A = g.adjacency
    n = g.n_nodes
    # exactly one node observes nobody (the root); every other observes one parent
    out_degree = (A > 0).sum(axis=1)
    assert int((out_degree == 0).sum()) == 1
    assert np.all(np.isin(out_degree, [0, 1]))
    root = int(np.nonzero(out_degree == 0)[0][0])
    # information reaches everyone: follow a[child, parent] from the root
    seen = {root}
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for child in np.nonzero(A[:, parent] > 0)[0]:
            if child not in seen:
                seen.add(int(child))
                frontier.append(int(child))
    assert len(seen) == n


@pytest.mark.parametrize("generation,expected_n", [(1, 5), (2, 25), (3, 121)])
def test_vicsek_undirected_symmetric(generation, expected_n):
    g = generate_vicsek_fractal(generation, directed=False)
    assert g.n_nodes == expected_n
    L = laplacian(g)
    assert np.array_equal(L, L.T)
    assert int(np.count_nonzero(g.adjacency)) == 2 * (expected_n - 1)
    assert weakly_connected_components(g) == [list(range(expected_n))]


def test_circulant_row_sums():
    g = generate_circulant(25, offsets=(1, 2), directed=True)
    assert np.all(g.adjacency.sum(axis=1) == 2.0)
    assert np.all(g.adjacency.sum(axis=0) == 2.0)


def test_circulant_spectrum_matches_dft():
    n = 25
    offsets = (1, 2)
    L = laplacian(generate_circulant(n, offsets=offsets, directed=True))
    omega = np.exp(2j * np.pi / n)
    expected = np.array([sum(1 - omega ** (o * k) for o in offsets) for k in range(n)])
    got = np.linalg.eigvals(L)
    # sort on rounded keys so conjugate pairs line up despite fp jitter
    order = np.lexsort((got.imag.round(8), got.real.round(8)))
    order_e = np.lexsort((expected.imag.round(8), expected.real.round(8)))
    assert np.max(np.abs(got[order] - expected[order_e])) < 1e-10


def test_circulant_undirected():
    g = generate_circulant(10, offsets=(1,), directed=False)
    L = laplacian(g)
    assert np.array_equal(L, L.T)
    assert np.all(np.diag(L) == 2.0)
    # Against the entry-by-entry build, offsets o and n - o both present.
    for directed in (True, False):
        expected = np.zeros((10, 10))
        for i in range(10):
            for o in (1, 5, 9):
                expected[(i + o) % 10, i] = 1.0
        if not directed:
            expected = np.maximum(expected, expected.T)
        g = generate_circulant(10, offsets=(1, 5, 9), directed=directed)
        assert np.array_equal(g.adjacency, expected)


def test_circulant_validation():
    with pytest.raises(ValueError):
        generate_circulant(5, offsets=(0,))
    with pytest.raises(ValueError):
        generate_circulant(5, offsets=(1, 1))


def test_disconnected_composite_structure():
    g = generate_disconnected_composite((8, 8, 8), seed=42)
    A = g.adjacency
    assert g.n_nodes == 24
    # no coupling across the three blocks
    for a, b in [(0, 8), (0, 16), (8, 16)]:
        assert np.count_nonzero(A[a : a + 8, b : b + 8]) == 0
        assert np.count_nonzero(A[b : b + 8, a : a + 8]) == 0
    # Each block is strongly connected, so it is the basic component of its own.
    L = laplacian(g)
    for a in (0, 8, 16):
        assert compute_h_weights(L[a : a + 8, a : a + 8]).gamma > 0.0
    assert weakly_connected_components(g) == [
        list(range(8)),
        list(range(8, 16)),
        list(range(16, 24)),
    ]


def test_disconnected_composite_componentwise_reproducible():
    # component ci of the composite equals the single-component build with
    # the same (seed, index)-derived randomness
    g = generate_disconnected_composite((8, 8, 8), seed=7)
    for ci in range(3):
        block = g.adjacency[ci * 8 : (ci + 1) * 8, ci * 8 : (ci + 1) * 8]
        rng = np.random.default_rng([7, ci])
        expected = np.zeros((8, 8))
        for i in range(8):
            expected[(i + 1) % 8, i] = 1.0
        for u in range(8):
            for v in range(8):
                draw = rng.random()
                if u == v or expected[v, u] > 0.0:
                    continue
                if draw < 0.2:
                    expected[v, u] = 1.0
        assert np.array_equal(block, expected)


# ---------------------------------------------------------------------------
# h-weights


def test_h_weights_seeded_family():
    rng = np.random.default_rng(12345)
    for k in range(20):
        n = int(rng.integers(3, 13))
        g = random_strongly_connected(rng, n)
        L = laplacian(g)
        hw = compute_h_weights(L)
        assert hw.h.shape == (n,)
        assert np.min(hw.h) == pytest.approx(1.0)
        assert np.all(hw.h > 0.0)
        scale = max(1.0, np.max(np.abs(L)))
        assert np.max(np.abs(hw.h @ L)) <= 1e-10 * scale * np.max(hw.h), f"case {k}"
        assert hw.gamma > 0.0
        H = np.diag(hw.h)
        cert = H @ L + L.T @ H - 2.0 * hw.gamma * (L.T @ L)
        assert np.min(np.linalg.eigvalsh(0.5 * (cert + cert.T))) >= -1e-10, f"case {k}"


def test_h_weights_balanced_graph_gives_uniform_h():
    L = laplacian(generate_circulant(7, offsets=(1, 2), directed=True))
    hw = compute_h_weights(L)
    assert np.max(np.abs(hw.h - 1.0)) < 1e-9


def test_h_weights_rejects_disconnected():
    g = generate_disconnected_composite((4, 4), seed=0)
    with pytest.raises(SolverError):
        compute_h_weights(laplacian(g))


def strongly_connected_by_closure(A):
    """Oracle: the boolean transitive closure of i -> j for A[i, j] > 0
    (Warshall's algorithm) is all true."""
    reach = (np.asarray(A) > 0.0) | np.eye(A.shape[0], dtype=bool)
    for k in range(A.shape[0]):
        reach |= reach[:, [k]] & reach[[k], :]
    return bool(reach.all())


def test_h_weights_reject_exactly_the_graphs_that_are_not_strongly_connected():
    # Node 0 reaches every node but no node reaches it; two disjoint cycles.
    spanning_tree = DirectedWeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (3, 1, 1.0)])
    two_cycles = DirectedWeightedGraph.from_edges(6, [(i, 3 * (i // 3) + (i + 1) % 3, 1.0) for i in range(6)])
    digraphs = [spanning_tree, two_cycles]
    rng = np.random.default_rng(2026)
    for n in range(2, 13):
        for density in (0.15, 0.3, 0.5):
            edges = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
            digraphs.append(DirectedWeightedGraph(edges * (0.5 + rng.random((n, n)))))
    rejected = 0
    for g in digraphs:
        L = laplacian(g)
        if strongly_connected_by_closure(g.adjacency):
            assert compute_h_weights(L).gamma > 0.0
        else:
            with pytest.raises(SolverError, match="strongly connected"):
                compute_h_weights(L)
            rejected += 1
    assert not strongly_connected_by_closure(spanning_tree.adjacency)
    assert not strongly_connected_by_closure(two_cycles.adjacency)
    assert 2 < rejected < len(digraphs) - 2


def test_h_weights_rejects_non_laplacian():
    with pytest.raises(ValueError):
        compute_h_weights(np.array([[1.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# edge-list exchange format


def test_edge_list_round_trip():
    g = generate_disconnected_composite((5, 4), seed=3)
    text = format_edge_list(g)
    back = read_edge_list(text)
    assert back.n_nodes == g.n_nodes
    assert np.array_equal(back.adjacency, g.adjacency)


def test_edge_list_header_and_comments():
    text = "# demo\nnodes 3\n1 2 1.0\n# trailing comment\n2 3 0.5\n"
    g = read_edge_list(text)
    assert g.n_nodes == 3
    assert g.adjacency[1, 0] == 1.0
    assert g.adjacency[2, 1] == 0.5
    with pytest.raises(ValueError):
        read_edge_list("1 2 1.0\n")  # missing header
    with pytest.raises(ValueError):
        read_edge_list("nodes 2\n1 3 1.0\n")  # id out of range
    for count in ("-3", "2.5", "two"):
        with pytest.raises(ValueError, match="^line 2: node count"):
            read_edge_list(f"# demo\nnodes {count}\n1 2 1.0\n")
    # A large node count costs its edges, not its square.
    big = read_edge_list("nodes 200000\n1 200000 2.5\n")
    assert big.n_nodes == 200_000
    assert big.indptr.size == 200_001
    assert big.cols.tolist() == [0] and big.weights.tolist() == [2.5]
