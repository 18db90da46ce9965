"""Graph representation, validation, distances, and file I/O.

Graphs are simple, undirected, 0/1, with 0-based integer vertex labels and a
dense adjacency matrix.  Loading and family construction reject graphs above
MAX_VERTICES = 4096 before allocating the matrix.  Instances are immutable after
construction and safe to share across workers.

Connectivity and distances expand level by level from all sources at once; a
level is one product of 0/1 matrices in float32.  Each entry of such a product
counts vertices, so it is at most n <= MAX_VERTICES < 2**24 and float32 holds
it exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "Graph",
    "DistanceData",
    "GraphError",
    "MAX_VERTICES",
    "require_size",
    "checked_vertices",
    "load_graph",
    "save_graph",
    "distances",
]


MAX_VERTICES = 4096
# the float32 products of 0/1 matrices are exact only while n < 2**24
assert MAX_VERTICES < 2 ** 24


class GraphError(ValueError):
    """Invalid graph data; .reason names the violated invariant."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def require_size(what: str, n: int) -> None:
    """Reject a graph of n vertices above MAX_VERTICES, before allocating it."""
    if n > MAX_VERTICES:
        raise GraphError("size", f"{what} has more than MAX_VERTICES = {MAX_VERTICES} vertices")


def checked_vertices(n: int, vertices) -> list[int]:
    """The vertices, read once, as Python ints: each must be an int (numpy
    ints too, bools not) in 0..n-1, so none is truncated or wraps round."""
    vertices = list(vertices)
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
    return [int(v) for v in vertices]


def _is_symmetric(adj: np.ndarray, tile: int = 128) -> bool:
    """adj == adj.T, compared tile by tile: a whole transposed comparison
    strides across rows and costs about ten times as much at n = 4096."""
    n = len(adj)
    return not any((adj[i:i + tile, j:j + tile] != adj[j:j + tile, i:i + tile].T).any()
                   for i in range(0, n, tile) for j in range(i, n, tile))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with dense 0/1 adjacency."""

    adjacency: np.ndarray
    label: str = ""
    connected: bool = field(init=False, default=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError("shape", "adjacency must be square")
        # checked before the cast, which would wrap 256 to 0 and cut 1.7 to 1;
        # two comparisons, not np.isin, which sorts the whole matrix
        if not ((adj == 0) | (adj == 1)).all():
            raise GraphError("entries", "adjacency entries must be 0/1")
        adj = adj.astype(np.int8)
        if adj.diagonal().any():
            v = int(np.nonzero(adj.diagonal())[0][0])
            raise GraphError("loop", f"vertex {v}")
        if not _is_symmetric(adj):
            u, v = (int(i) for i in np.argwhere(adj != adj.T)[0])
            raise GraphError("asymmetric", f"pair ({u}, {v})")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "connected", self._check_connected())

    def _check_connected(self) -> bool:
        """Expand from vertex 0, one boolean vector per level."""
        if self.n == 0:
            return False
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = self.adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def is_regular(self) -> Optional[int]:
        """The common valency, or None when degrees differ."""
        degs = self.adjacency.sum(axis=1)
        k = int(degs[0])
        return k if (degs == k).all() else None

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def require_connected(self):
        if not self.connected:
            raise GraphError("disconnected", self.label or f"graph on {self.n} vertices")

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}{tag})"


@dataclass(frozen=True)
class DistanceData:
    """Exact distance structure: the diameter D and the n x n distance matrix."""

    D: int
    dist: np.ndarray


def distances(g: Graph) -> DistanceData:
    """All-pairs distances by one level-synchronous expansion from every source.

    Row s of frontier is the indicator of the vertices at distance d from s;
    the vertices at distance d + 1 are (frontier @ A > 0) & (dist < 0).  So the
    whole matrix takes D + 1 float32 products, each exact (see the module
    docstring), and the loop stops at the first empty level.
    """
    g.require_connected()
    require_size("graph", g.n)
    adj = g.adjacency.astype(np.float32)
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(g.n, dtype=np.float32)
    D = 0
    while True:
        reach = (frontier @ adj > 0) & (dist < 0)
        if not reach.any():
            break
        D += 1
        dist[reach] = D
        frontier = reach.astype(np.float32)
    dist.setflags(write=False)
    return DistanceData(D=D, dist=dist)


# ---------------------------------------------------------------------------
# file formats: JSON {"n":, "edges":, "label":} or plain-text edge list
# ---------------------------------------------------------------------------


def _json_int(value, what: str) -> int:
    # bool is an int subclass; a float or a string must not be truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError("parse", f"{what} {value!r} is not an integer")
    return value


def _graph_from_edges(n: int, edges, label: str) -> Graph:
    require_size("graph", n)
    adj = np.zeros((n, n), dtype=np.int8)
    seen = set()
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError("parse", f"edge {e!r} is not a pair")
        u, v = _json_int(e[0], "vertex id"), _json_int(e[1], "vertex id")
        if u == v:
            raise GraphError("loop", f"edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("out-of-range", f"edge ({u}, {v}) with n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError("duplicate", f"edge {key}")
        seen.add(key)
        adj[u, v] = adj[v, u] = 1
    return Graph(adj, label=label)


def load_graph(path) -> Graph:
    """Load a graph file (JSON or 'u v' edge lines); disconnection only warns."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphError("parse", str(e)) from None
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise GraphError("parse", 'JSON graph needs "n" and "edges"')
        if not isinstance(data["edges"], list):
            raise GraphError("parse", '"edges" must be a list of pairs')
        n = _json_int(data["n"], '"n"')
        if n < 0:
            raise GraphError("parse", f'"n" {n} is negative')
        if n == 0:
            raise GraphError("parse", '"n" is 0: a graph needs at least one vertex')
        g = _graph_from_edges(n, data["edges"], str(data.get("label", "")))
    else:
        edges = []
        hi = -1
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError("parse", f"line {lineno}: expected 'u v'")
            # int() alone would also take "1_0" or non-ASCII digits
            if not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
                raise GraphError("parse", f"line {lineno}: vertex ids must be integers")
            u, v = int(parts[0]), int(parts[1])
            edges.append((u, v))
            hi = max(hi, u, v)
        if hi < 0:
            raise GraphError("parse", "no edges found")
        g = _graph_from_edges(hi + 1, edges, "")
    if not g.connected:
        import warnings

        warnings.warn(f"graph {g.label or path} is disconnected", stacklevel=2)
    return g


def save_graph(g: Graph, path) -> None:
    """Write the canonical JSON graph format (edges with u < v, sorted)."""
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.label:
        payload["label"] = g.label
    Path(path).write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
