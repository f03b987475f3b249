"""Undirected connected topologies and their gossip mixing matrices.

Mixing weights follow the Metropolis-Hastings rule, which produces a
symmetric doubly-stochastic matrix with positive weights on every edge of
any connected graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import SymMatrix, sym_eig

RESAMPLE_CAP = 1000

# A second eigenvalue this close to 1 means the graph is effectively
# disconnected; doubles as the lambda_1 simplicity audit.
_SIMPLE_TOP_TOL = 1e-9


class GraphError(Exception):
    pass


@dataclass(eq=False)
class Topology:
    """Undirected simple graph given as sorted (i, j) pairs with i < j."""

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("need at least one node")
        seen = set()
        deg = np.zeros(self.n, dtype=int)
        canonical = []
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i},{j}) out of range")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
            deg[i] += 1
            deg[j] += 1
        self.edges = tuple(sorted(canonical))
        self.degrees = deg
        if not self._connected():
            raise GraphError("graph is not connected")

    def _connected(self) -> bool:
        if self.n == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n


def _ring_edges(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def gen_topology(kind: str, n: int, seed: int = 0, q: float | None = None) -> Topology:
    """Generate a connected topology: "ring", "complete" or "erdos_renyi".

    Erdos-Renyi draws each edge with probability q and resamples (with a
    derived seed) until the graph is connected, up to RESAMPLE_CAP tries.
    """
    if n < 1:
        raise GraphError("need at least one node")
    if kind == "ring":
        return Topology(n, tuple(_ring_edges(n)))
    if kind == "complete":
        return Topology(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "erdos_renyi":
        if q is None or not (0.0 < q <= 1.0):
            raise GraphError(f"erdos_renyi requires edge probability q in (0, 1], got {q}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for attempt in range(RESAMPLE_CAP):
            rng = np.random.default_rng(seed + attempt)
            draws = rng.random(len(pairs))
            edges = tuple(e for e, r in zip(pairs, draws) if r < q)
            try:
                return Topology(n, edges)
            except GraphError:
                continue
        raise GraphError(
            f"no connected graph after {RESAMPLE_CAP} resamples; q={q} too small for n={n}"
        )
    raise GraphError(f"unknown topology kind {kind!r}")


@dataclass(eq=False)
class MixingMatrix:
    """Gossip matrix with its spectral diagnostics.

    rho is max(|lambda_2|, |lambda_n|); psd records whether the whole
    spectrum is nonnegative (within round-off).
    """

    w: SymMatrix
    rho: float
    psd: bool
    decomposition: tuple[np.ndarray, np.ndarray]  # sym_eig(w)

    @property
    def n(self) -> int:
        return self.w.n


def _make_mixing(sym: SymMatrix) -> MixingMatrix:
    n = sym.n
    row_err = np.max(np.abs(sym.entries.sum(axis=1) - 1.0))
    if row_err > 1e-12:
        raise GraphError(f"row sums deviate from 1 by {row_err:.3e}")
    dec = sym_eig(sym)
    lam = dec.eigenvalues
    if lam[0] <= -1.0:
        raise GraphError(f"eigenvalue {lam[0]} outside (-1, 1]")
    if lam[-1] > 1.0 + 1e-10:
        raise GraphError(f"eigenvalue {lam[-1]} outside (-1, 1]")
    if n > 1 and lam[-2] > 1.0 - _SIMPLE_TOP_TOL:
        raise GraphError("top eigenvalue is not simple (disconnected graph?)")
    rho = 0.0 if n == 1 else float(max(abs(lam[-2]), abs(lam[0])))
    return MixingMatrix(sym, rho, bool(lam[0] >= -1e-12), dec)


def metropolis_weights(t: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: W_ij = 1 / (1 + max(deg_i, deg_j))."""
    n = t.n
    a = np.zeros((n, n))
    for i, j in t.edges:
        a[i, j] = a[j, i] = 1.0 / (1.0 + max(t.degrees[i], t.degrees[j]))
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return _make_mixing(SymMatrix(a))


def lazify(w: MixingMatrix) -> MixingMatrix:
    """Half-lazy walk (I + W) / 2; maps the spectrum into [0, 1]."""
    n = w.n
    return _make_mixing(SymMatrix(0.5 * (np.eye(n) + w.w.entries)))


def topology_to_edgelist(t: Topology) -> str:
    """Serialize as "n m" followed by one "i j" line per edge (0-based)."""
    lines = [f"{t.n} {len(t.edges)}"]
    lines.extend(f"{i} {j}" for i, j in t.edges)
    return "\n".join(lines) + "\n"
