"""Directed weighted network topologies and their Laplacian structure.

Conventions used throughout the package:

* A graph is stored as in-neighbour rows: row i lists the nodes i
  observes, ``cols[indptr[i]:indptr[i + 1]]`` in increasing order, with
  their positive weights in ``weights`` at the same positions.  Information
  flows from each listed node j to i.  An edge record ``(i, j, w)`` in the
  text exchange format is the flow itself: j observes i.  Nothing of size
  N^2 is stored; the dense ``adjacency[i, j] = w`` is built on request,
  for small graphs.
* The Laplacian has row sums zero: ``L[i, i] = sum_j a[i, j]`` and
  ``L[i, j] = -a[i, j]`` off the diagonal, so the network signal
  ``zeta_i = sum_j L[i, j] y_j = sum_j a[i, j] (y_i - y_j)``.
* A *basic* component is a strongly connected component whose members
  observe nobody outside it; every influence chain ends in one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import SolverError, min_eigenvalue_sym

__all__ = [
    "DirectedWeightedGraph",
    "HWeights",
    "laplacian",
    "SparseLaplacian",
    "weakly_connected_components",
    "generate_vicsek_fractal",
    "generate_circulant",
    "generate_disconnected_composite",
    "compute_h_weights",
    "read_edge_list",
    "format_edge_list",
]


class DirectedWeightedGraph:
    """Immutable directed graph over nodes 0..n-1 with positive weights,
    held as in-neighbour rows: ``indptr``, ``cols`` and ``weights``."""

    def __init__(self, adjacency):
        """From a dense matrix, for small graphs: adjacency[i, j] = w means i observes j."""
        A = np.asarray(adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be square, got {A.shape}")
        rows, cols = np.nonzero(A)
        self._store(A.shape[0], cols, rows, A[rows, cols])

    @classmethod
    def from_flows(cls, n_nodes: int, src, dst, weights) -> "DirectedWeightedGraph":
        """Build from flow arrays: dst[k] observes src[k] with weight weights[k].

        As in a dense matrix written record by record, a repeated
        (src, dst) pair keeps its last weight and a zero weight adds no edge.
        """
        graph = cls.__new__(cls)
        graph._store(n_nodes, src, dst, weights)
        return graph

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "DirectedWeightedGraph":
        """Build from flow records (src, dst, weight): dst observes src."""
        records = np.array(list(edges), dtype=float).reshape(-1, 3)
        return cls.from_flows(n_nodes, records[:, 0], records[:, 1], records[:, 2])

    def _store(self, n_nodes, src, dst, weights):
        n = int(n_nodes)
        if n < 0:
            raise ValueError("the node count must be nonnegative")
        flows = np.stack([np.asarray(src), np.asarray(dst)])
        bad = np.flatnonzero(np.any((flows < 0) | (flows >= n) | (flows % 1 != 0), axis=0))
        if bad.size:
            raise ValueError(f"edge ({flows[0, bad[0]]}, {flows[1, bad[0]]}) outside node range")
        # Entries by (row, column); of a repeated pair the last record wins.
        key = flows[1].astype(np.intp) * n + flows[0].astype(np.intp)
        order = np.argsort(key, kind="stable")
        key, w = key[order], np.asarray(weights, dtype=float)[order]
        last = np.ones(key.size, dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        key, w = key[last], w[last]
        if not np.all(np.isfinite(w)):
            raise ValueError("adjacency contains non-finite weights")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be nonnegative")
        rows, cols = np.divmod(key, max(n, 1))
        if np.any((rows == cols) & (w != 0.0)):
            raise ValueError("self-loops are not allowed")
        edge = w != 0.0
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[edge], minlength=n))])
        self.cols, self.weights = cols[edge], w[edge]
        for array in (self.indptr, self.cols, self.weights):
            array.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def rows(self) -> np.ndarray:
        """The observing node of each stored entry."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    @property
    def adjacency(self) -> np.ndarray:
        """The dense matrix, built on request: adjacency[i, j] = w means i observes j."""
        A = np.zeros((self.n_nodes, self.n_nodes))
        A[self.rows, self.cols] = self.weights
        return A


def laplacian(graph: DirectedWeightedGraph) -> np.ndarray:
    """Dense row-sum-zero Laplacian of the observation graph, for small graphs."""
    A = graph.adjacency
    L = -A
    np.fill_diagonal(L, A.sum(axis=1))
    return L


class SparseLaplacian:
    """A graph's Laplacian held by entry slot: row i's j-th entry is
    vals[j, i] in column cols[j, i], both of shape (width, n).

    Each row keeps its entries in column order, diagonal included, and a
    row with fewer entries than the widest is padded with zero weights in
    its own column.  So storage and product cost grow with the number of
    nodes times the largest in-degree, not with its square.

    The degree is summed over the row's weights in column order.  A row's
    product adds that row's own terms in column order and then zeros, so
    it depends on nothing else, and a weakly connected component taken as
    a graph of its own gives the same product rows as the whole graph,
    bitwise.  That includes the sign of a zero: numpy's reduction starts
    from +0, so a row whose terms sum to zero gives +0 whatever their signs.
    """

    def __init__(self, graph: DirectedWeightedGraph):
        n = graph.n_nodes
        rows, cols, weights = graph.rows, graph.cols, graph.weights
        degree = np.bincount(rows, weights=weights, minlength=n)
        # A row's diagonal follows its in-neighbours of smaller index.
        diagonal = np.bincount(rows[cols < rows], minlength=n)
        slot = np.arange(cols.size) - graph.indptr[rows] + (cols > rows)
        width = int(np.diff(graph.indptr).max(initial=0)) + 1
        self.cols = np.tile(np.arange(n), (width, 1))
        self.vals = np.zeros((width, n))
        self.cols[slot, rows] = cols
        self.vals[slot, rows] = -weights
        self.vals[diagonal, np.arange(n)] = degree

    @property
    def shape(self) -> tuple[int, int]:
        n = self.cols.shape[1]
        return (n, n)

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        """L @ Y for rows Y."""
        out = np.empty(Y.shape, order="F")
        self.bind(Y, out)()
        return out

    def bind(self, Y: np.ndarray, out: np.ndarray):
        """A function writing L @ Y into out for whatever Y then holds,
        summing each row's terms slot after slot in one reduction."""
        # Gathered as (columns, slots, rows), so that each operation runs
        # along the rows; for Y stored column by column the gather reads
        # contiguous columns as well.
        source, cols, vals, into = Y.T, self.cols, self.vals, out.T
        terms = np.empty((source.shape[0],) + cols.shape)

        def product():
            source.take(cols, axis=1, out=terms, mode="clip")  # "raise" would buffer out
            np.multiply(terms, vals, out=terms)
            np.add.reduce(terms, axis=1, initial=0.0, out=into)

        return product


def weakly_connected_components(graph: DirectedWeightedGraph) -> list[list[int]]:
    """Connected components of the underlying undirected structure, each
    sorted, in order of their smallest node.

    Label propagation with pointer jumping over the edge arrays: each node
    points at a node of its component no larger than itself.  A round
    hooks the larger of the two roots an edge joins onto the smaller, then
    jumps every pointer to its root, until no edge joins two roots.  A
    component's root is then its smallest node.
    """
    u, v = graph.rows, graph.cols
    root = np.arange(graph.n_nodes)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)] if order.size else []


# ---------------------------------------------------------------------------
# generators


def _vicsek_tree(generation: int):
    """Recursive cross-of-crosses tree.

    Returns (n_nodes, undirected edges, center id, ports) where ports maps
    each compass direction to the extremal node on that side.  Five copies
    of the previous generation are joined across facing ports; the joins
    are edges at generation 2 and node identifications at generation 3,
    which pins the node counts at 5, 25 and 121.
    """
    if generation == 1:
        return 5, [(0, 1), (0, 2), (0, 3), (0, 4)], 0, {"N": 1, "E": 2, "S": 3, "W": 4}
    n0, edges0, center0, ports0 = _vicsek_tree(generation - 1)
    opposite = {"N": "S", "S": "N", "E": "W", "W": "E"}
    copy_of = {"N": 1, "E": 2, "S": 3, "W": 4}
    raw_edges = []
    for k in range(5):
        raw_edges.extend((u + k * n0, v + k * n0) for u, v in edges0)
    alias: dict[int, int] = {}
    for d, k in copy_of.items():
        u = ports0[d]                       # center copy's port facing d
        v = k * n0 + ports0[opposite[d]]    # d-copy's port facing back
        if generation >= 3:
            alias[v] = u
        else:
            raw_edges.append((u, v))
    keep = [v for v in range(5 * n0) if v not in alias]
    relabel = {v: i for i, v in enumerate(keep)}

    def resolve(v: int) -> int:
        return relabel[alias.get(v, v)]

    edges = [(resolve(u), resolve(v)) for u, v in raw_edges]
    ports = {d: resolve(k * n0 + ports0[d]) for d, k in copy_of.items()}
    return len(keep), edges, resolve(center0), ports


def generate_vicsek_fractal(generation: int, directed: bool = True) -> DirectedWeightedGraph:
    """Cross-shaped fractal tree with 5, 25 or 121 nodes.

    The directed variant orients every edge away from the global center,
    so each node observes its parent and the center is the unique basic
    component.  All weights are 1.
    """
    if generation not in (1, 2, 3):
        raise ValueError("generation must be 1, 2 or 3")
    n, edges, center, _ = _vicsek_tree(generation)
    if directed:
        # BFS orientation: child observes parent
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * n
        seen[center] = True
        frontier = [center]
        flows = []
        while frontier:
            nxt = []
            for parent in frontier:
                for child in adj[parent]:
                    if not seen[child]:
                        seen[child] = True
                        flows.append((parent, child))
                        nxt.append(child)
            frontier = nxt
        if not all(seen):
            raise SolverError("fractal construction produced a disconnected tree")
    else:
        flows = edges + [(v, u) for u, v in edges]
    src, dst = np.array(flows).T
    return DirectedWeightedGraph.from_flows(n, src, dst, np.ones(src.size))


def generate_circulant(n_nodes: int, offsets=(1, 2), directed: bool = True) -> DirectedWeightedGraph:
    """Ring lattice: node i feeds node i+o mod n for every offset o."""
    offs = tuple(int(o) for o in offsets)
    if len(set(offs)) != len(offs):
        raise ValueError("offsets must be distinct")
    if any(not (0 < o < n_nodes) for o in offs):
        raise ValueError("offsets must lie strictly between 0 and n_nodes")
    src = np.tile(np.arange(n_nodes), len(offs))
    dst = (src + np.repeat(np.array(offs, dtype=np.intp), n_nodes)) % n_nodes
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return DirectedWeightedGraph.from_flows(n_nodes, src, dst, np.ones(src.size))


def generate_disconnected_composite(component_sizes=(8, 8, 8), seed: int = 0) -> DirectedWeightedGraph:
    """Several strongly connected random digraphs with no coupling between them.

    Each component gets a directed Hamiltonian cycle (guaranteeing strong
    connectivity) plus random extra edges drawn from an rng seeded by
    (seed, component index), so any single component can be regenerated
    in isolation bit-for-bit.
    """
    sizes = [int(s) for s in component_sizes]
    if any(s < 2 for s in sizes):
        raise ValueError("components need at least 2 nodes")
    src, dst = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    base = 0
    for ci, size in enumerate(sizes):
        # One draw per ordered pair (u, v), row by row; u feeds v if it is
        # below 0.2, unless u == v or u already feeds v along the cycle.
        extra = np.random.default_rng([int(seed), ci]).random((size, size)) < 0.2
        ring = np.arange(size)
        extra[ring, ring] = False
        extra[ring, (ring + 1) % size] = False
        u, v = np.nonzero(extra)
        src += [base + ring, base + u]
        dst += [base + (ring + 1) % size, base + v]
        base += size
    src, dst = np.concatenate(src), np.concatenate(dst)
    return DirectedWeightedGraph.from_flows(base, src, dst, np.ones(src.size))


# ---------------------------------------------------------------------------
# balancing weights


@dataclass(frozen=True)
class HWeights:
    """Left-balancing weights of a strongly connected Laplacian.

    h is the positive left null vector of L scaled so min(h) = 1, and
    gamma > 0 makes diag(h) L + L' diag(h) - 2 gamma L'L positive
    semidefinite; both facts are re-verified on construction.
    """

    h: np.ndarray
    gamma: float


def compute_h_weights(L) -> HWeights:
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if L.ndim != 2 or L.shape[1] != n:
        raise ValueError("Laplacian must be square")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    A = -L.copy()
    np.fill_diagonal(A, 0.0)
    if np.any(A < -1e-12) or np.max(np.abs(L.sum(axis=1))) > 1e-12 * max(1.0, np.max(np.abs(L))):
        raise ValueError("input is not a row-sum-zero Laplacian")
    # Strongly connected exactly when node 0 reaches every node along the
    # edges i -> j for A[i, j] > 0 and along the reversed edges too.
    edges = A > 0.0
    for step in (edges, edges.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = step[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            raise SolverError("h-weights need a strongly connected graph")

    # left null vector of L = kernel of L', via the smallest singular pair
    U, sing, _ = np.linalg.svd(L)
    h = U[:, -1]
    if abs(h.sum()) < 1e-12:
        raise SolverError("left null vector has no sign")  # cannot happen when strongly connected
    h = h * np.sign(h.sum())
    if np.min(h) <= 1e-12 * np.max(h):
        raise SolverError("left null vector is not strictly positive")
    h = h / np.min(h)

    # gamma: half the smallest generalized eigenvalue of
    # (HL + L'H, L'L) restricted to the complement of span{1}
    HL = h[:, None] * L
    sym = HL + HL.T
    gram = L.T @ L
    ones = np.ones((1, n))
    V = np.linalg.svd(ones)[2][1:].T  # orthonormal basis of span{1}^perp
    M1 = V.T @ sym @ V
    M2 = V.T @ gram @ V
    lam_min = float(scipy.linalg.eigh(0.5 * (M1 + M1.T), 0.5 * (M2 + M2.T), eigvals_only=True)[0])
    if lam_min <= 0.0:
        raise SolverError("balanced Laplacian form is not positive definite off span{1}")
    gamma = 0.5 * lam_min
    cert = sym - 2.0 * gamma * gram
    margin = min_eigenvalue_sym(0.5 * (cert + cert.T))
    if margin < -1e-10:
        raise SolverError(f"h-weight certificate violated, margin {margin:.3e}")
    return HWeights(h=h, gamma=gamma)


# ---------------------------------------------------------------------------
# text exchange format


def format_edge_list(graph: DirectedWeightedGraph) -> str:
    """Serialize as a node-count header plus one `i j weight` flow per line.

    Node ids are 1-based in the text form; `i j w` means j observes i.
    """
    out = io.StringIO()
    out.write(f"nodes {graph.n_nodes}\n")
    for d, s, w in zip(graph.rows.tolist(), graph.cols.tolist(), graph.weights.tolist()):
        out.write(f"{s + 1} {d + 1} {w:.17g}\n")
    return out.getvalue()


def read_edge_list(text: str) -> DirectedWeightedGraph:
    """Parse the format written by format_edge_list."""
    n = None
    src, dst, weights = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "nodes" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'nodes <count>' header")
            n = int(parts[1]) if parts[1].isascii() and parts[1].isdigit() else -1
            if n < 0:
                raise ValueError(f"line {lineno}: node count {parts[1]!r} is not a nonnegative integer")
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'src dst weight'")
        try:
            s, d, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer node ids and a numeric weight, got {line!r}") from None
        if not (1 <= s <= n and 1 <= d <= n):
            raise ValueError(f"line {lineno}: node id outside 1..{n}")
        src.append(s - 1)
        dst.append(d - 1)
        weights.append(w)
    if n is None:
        raise ValueError("missing 'nodes <count>' header")
    return DirectedWeightedGraph.from_flows(n, src, dst, weights)
