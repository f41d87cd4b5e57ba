"""Directed weighted network topologies and their Laplacian structure.

Conventions used throughout the package:

* ``adjacency[i, j] = w > 0`` means node i observes node j with weight w,
  i.e. information flows from j to i.  An edge record ``(i, j, w)`` in the
  text exchange format is the flow itself: j observes i.
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

from .linalg import SolverError, eigenvalues, min_eigenvalue_sym

__all__ = [
    "DirectedWeightedGraph",
    "LaplacianDecomposition",
    "HWeights",
    "laplacian",
    "SparseLaplacian",
    "component_laplacians",
    "basic_bicomponents",
    "weakly_connected_components",
    "generate_vicsek_fractal",
    "generate_circulant",
    "generate_disconnected_composite",
    "compute_h_weights",
    "read_edge_list",
    "format_edge_list",
]


class DirectedWeightedGraph:
    """Immutable directed graph over nodes 0..n-1 with nonnegative weights."""

    def __init__(self, adjacency):
        A = np.array(adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be square, got {A.shape}")
        if A.size and not np.all(np.isfinite(A)):
            raise ValueError("adjacency contains non-finite weights")
        if np.any(A < 0.0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(A) != 0.0):
            raise ValueError("self-loops are not allowed")
        A.setflags(write=False)
        self._adjacency = A

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "DirectedWeightedGraph":
        """Build from flow records (src, dst, weight): dst observes src."""
        A = np.zeros((n_nodes, n_nodes))
        for src, dst, w in edges:
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise ValueError(f"edge ({src}, {dst}) outside node range")
            A[dst, src] = w
        return cls(A)

    @property
    def n_nodes(self) -> int:
        return self._adjacency.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        return self._adjacency

    def is_undirected(self) -> bool:
        return bool(np.array_equal(self._adjacency, self._adjacency.T))


def laplacian(graph: DirectedWeightedGraph) -> np.ndarray:
    """Row-sum-zero Laplacian of the observation graph."""
    A = graph.adjacency
    L = -A.copy()
    np.fill_diagonal(L, A.sum(axis=1))
    return L


class SparseLaplacian:
    """A Laplacian held by entry slot: row i's j-th entry is vals[j, i, 0]
    in column cols[j, i], for cols of shape (width, n).

    Each row keeps its entries in column order, diagonal included, and a
    row with fewer entries than the widest is padded with zero weights in
    its own column.  So storage and product cost grow with the number of
    nodes times the largest in-degree, not with its square.
    """

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self.cols, self.vals = cols, vals

    @property
    def shape(self) -> tuple[int, int]:
        n = self.cols.shape[1]
        return (n, n)

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        """L @ Y for rows Y, summing each row's terms slot after slot."""
        terms = np.take(Y, self.cols, axis=0)
        terms *= self.vals
        out = terms[0].copy()
        for term in terms[1:]:
            out += term
        return out


def component_laplacians(graph: DirectedWeightedGraph, components) -> list[SparseLaplacian]:
    """The Laplacian of each node set, indexed in the set's own order.

    Each set must hold every in-neighbour of its members (a weakly
    connected component, or a union of them).  Only the adjacency's
    nonzeros are read.  The degree is summed over the row's weights in
    column order.  A row's product adds that row's own terms in column
    order and then zeros, so it depends on nothing else, and a set listed
    in increasing order gives the same product rows as the whole graph's
    matrix, bitwise up to the sign of a zero.
    """
    A = graph.adjacency
    n = A.shape[0]
    owner = np.full(n, -1)
    local = np.zeros(n, dtype=np.intp)
    sizes = []
    for index, nodes in enumerate(components):
        nodes = np.asarray(nodes, dtype=np.intp)
        if np.any(owner[nodes] >= 0):
            raise ValueError("node sets overlap")
        owner[nodes] = index
        local[nodes] = np.arange(nodes.size)
        sizes.append(nodes.size)

    rows, cols = np.nonzero(A)
    weights = A[rows, cols]
    if np.any((owner[rows] >= 0) & (owner[rows] != owner[cols])):
        raise ValueError("a node set lacks an in-neighbour of one of its members")
    degree = np.bincount(rows, weights=weights, minlength=n)

    # All entries, diagonal included, ordered by (set, local row, local column).
    r = np.concatenate([rows, np.arange(n)])
    c = np.concatenate([cols, np.arange(n)])
    v = np.concatenate([-weights, degree])
    keep = owner[r] >= 0
    r, c, v = r[keep], c[keep], v[keep]
    order = np.lexsort((local[c], local[r], owner[r]))
    bounds = np.searchsorted(owner[r[order]], np.arange(len(sizes) + 1))
    r, c, v = local[r[order]], local[c[order]], v[order]

    out = []
    for k, size in enumerate(sizes):
        part = slice(bounds[k], bounds[k + 1])
        lr, lc, lv = r[part], c[part], v[part]
        counts = np.bincount(lr, minlength=size)
        slot = np.arange(lr.size) - (np.cumsum(counts) - counts)[lr]
        cols_k = np.tile(np.arange(size), (counts.max(), 1))
        vals_k = np.zeros(cols_k.shape + (1,))
        cols_k[slot, lr] = lc
        vals_k[slot, lr, 0] = lv
        out.append(SparseLaplacian(cols_k, vals_k))
    return out


def _tarjan_scc(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, iterative to survive deep graphs."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            advanced = False
            for w in children:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class LaplacianDecomposition:
    """Permuted Laplacian exposing the basic-component block structure.

    ``laplacian`` is the permuted matrix: the leading ``nonbasic_block_size``
    rows form the grounded block (all eigenvalues in the open right half
    plane), followed by one diagonal block per basic component.
    ``node_permutation[k]`` is the original id of the node in position k.
    ``basic_components`` lists original node ids, one list per component.
    """

    laplacian: np.ndarray
    node_permutation: np.ndarray
    basic_components: list[list[int]]
    nonbasic_block_size: int


def basic_bicomponents(graph: DirectedWeightedGraph) -> LaplacianDecomposition:
    """Split the network into its basic components and the grounded rest."""
    A = graph.adjacency
    n = graph.n_nodes
    succ = [list(np.nonzero(A[i])[0]) for i in range(n)]
    comps = _tarjan_scc(succ)
    basic = []
    nonbasic_nodes = []
    for ci, comp in enumerate(comps):
        members = np.array(comp)
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        if np.any(A[np.ix_(members, outside)] > 0.0):
            nonbasic_nodes.extend(comp)
        else:
            basic.append(comp)
    basic.sort(key=lambda comp: comp[0])
    nonbasic_nodes.sort()
    perm = np.array(nonbasic_nodes + [v for comp in basic for v in comp], dtype=int)
    L = laplacian(graph)
    L_perm = L[np.ix_(perm, perm)]
    k = len(nonbasic_nodes)
    if k:
        spec = eigenvalues(L_perm[:k, :k])
        if float(np.min(spec.eigenvalues.real)) <= 1e-12:
            raise SolverError("grounded block has an eigenvalue off the open right half plane")
    return LaplacianDecomposition(
        laplacian=L_perm,
        node_permutation=perm,
        basic_components=basic,
        nonbasic_block_size=k,
    )


def weakly_connected_components(graph: DirectedWeightedGraph) -> list[list[int]]:
    """Connected components of the underlying undirected structure."""
    A = graph.adjacency
    n = graph.n_nodes
    sym = (A + A.T) > 0.0
    seen = np.zeros(n, dtype=bool)
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        frontier = [root]
        seen[root] = True
        comp = []
        while frontier:
            v = frontier.pop()
            comp.append(v)
            for w in np.nonzero(sym[v])[0]:
                if not seen[w]:
                    seen[w] = True
                    frontier.append(int(w))
        comps.append(sorted(comp))
    return comps


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
    A = np.zeros((n, n))
    if directed:
        # BFS orientation: child observes parent
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * n
        seen[center] = True
        frontier = [center]
        while frontier:
            nxt = []
            for parent in frontier:
                for child in adj[parent]:
                    if not seen[child]:
                        seen[child] = True
                        A[child, parent] = 1.0
                        nxt.append(child)
            frontier = nxt
        if not all(seen):
            raise SolverError("fractal construction produced a disconnected tree")
    else:
        for u, v in edges:
            A[u, v] = 1.0
            A[v, u] = 1.0
    return DirectedWeightedGraph(A)


def generate_circulant(n_nodes: int, offsets=(1, 2), directed: bool = True) -> DirectedWeightedGraph:
    """Ring lattice: node i feeds node i+o mod n for every offset o."""
    offs = tuple(int(o) for o in offsets)
    if len(set(offs)) != len(offs):
        raise ValueError("offsets must be distinct")
    if any(not (0 < o < n_nodes) for o in offs):
        raise ValueError("offsets must lie strictly between 0 and n_nodes")
    A = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for o in offs:
            A[(i + o) % n_nodes, i] = 1.0
    if not directed:
        A = np.maximum(A, A.T)
    return DirectedWeightedGraph(A)


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
    total = sum(sizes)
    A = np.zeros((total, total))
    base = 0
    for ci, size in enumerate(sizes):
        rng = np.random.default_rng([int(seed), ci])
        for i in range(size):
            A[base + (i + 1) % size, base + i] = 1.0
        for u in range(size):
            for v in range(size):
                draw = rng.random()
                if u == v or A[base + v, base + u] > 0.0:
                    continue
                if draw < 0.2:
                    A[base + v, base + u] = 1.0
        base += size
    return DirectedWeightedGraph(A)


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
    succ = [list(np.nonzero(A[i] > 0.0)[0]) for i in range(n)]
    if len(_tarjan_scc(succ)) != 1:
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
    A = graph.adjacency
    out = io.StringIO()
    out.write(f"nodes {graph.n_nodes}\n")
    dst, src = np.nonzero(A)
    for d, s in zip(dst.tolist(), src.tolist()):
        out.write(f"{s + 1} {d + 1} {A[d, s]:.17g}\n")
    return out.getvalue()


def read_edge_list(text: str) -> DirectedWeightedGraph:
    """Parse the format written by format_edge_list."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "nodes" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'nodes <count>' header")
            n = int(parts[1])
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'src dst weight'")
        src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ValueError(f"line {lineno}: node id outside 1..{n}")
        edges.append((src - 1, dst - 1, w))
    if n is None:
        raise ValueError("missing 'nodes <count>' header")
    return DirectedWeightedGraph.from_edges(n, edges)
