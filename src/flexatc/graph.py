"""Undirected connected topologies and their gossip mixing matrices.

Mixing weights follow the Metropolis-Hastings rule, which produces a
symmetric doubly-stochastic matrix with positive weights on every edge of
any connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import sym_eig

RESAMPLE_CAP = 1000

# A second eigenvalue this close to 1 means the graph is effectively
# disconnected; doubles as the lambda_1 simplicity audit.
_SIMPLE_TOP_TOL = 1e-9


class GraphError(Exception):
    pass


@dataclass(eq=False)
class Topology:
    """Undirected simple graph given as sorted (i, j) pairs with i < j, read
    from one boolean adjacency matrix; so are its degrees and connectivity."""

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False)
    adjacency: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("need at least one node")
        self.adjacency = adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i},{j}) out of range")
            if adj[i, j]:
                raise GraphError(f"duplicate edge {(min(i, j), max(i, j))}")
            adj[i, j] = adj[j, i] = True
        self.edges = _pairs(*np.nonzero(np.triu(adj)))
        self.degrees = adj.sum(axis=1)
        seen = frontier = np.arange(self.n) == 0
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            raise GraphError("graph is not connected")


def _pairs(i: np.ndarray, j: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(zip(i.tolist(), j.tolist()))


def gen_topology(kind: str, n: int, seed: int = 0, q: float | None = None) -> Topology:
    """Generate a connected topology: "ring", "complete" or "erdos_renyi".

    Erdos-Renyi draws each edge with probability q and resamples (with a
    derived seed) until the graph is connected, up to RESAMPLE_CAP tries.
    """
    if n < 1:
        raise GraphError("need at least one node")
    if kind == "ring":
        # n = 1 has no edge and n = 2 one, not the same edge twice
        i = np.arange(n if n > 2 else n - 1)
        return Topology(n, _pairs(i, (i + 1) % n))
    if kind == "complete":
        return Topology(n, _pairs(*np.triu_indices(n, 1)))
    if kind != "erdos_renyi":
        raise GraphError(f"unknown topology kind {kind!r}")
    if q is None or not (0.0 < q <= 1.0):
        raise GraphError(f"erdos_renyi requires edge probability q in (0, 1], got {q}")
    i, j = np.triu_indices(n, 1)
    for attempt in range(RESAMPLE_CAP):
        keep = np.random.default_rng(seed + attempt).random(i.size) < q
        try:
            return Topology(n, _pairs(i[keep], j[keep]))
        except GraphError:
            continue
    raise GraphError(
        f"no connected graph after {RESAMPLE_CAP} resamples; q={q} too small for n={n}"
    )


@dataclass(eq=False)
class MixingMatrix:
    """Gossip matrix with its spectral diagnostics.

    rho is max(|lambda_2|, |lambda_n|); psd records whether the whole
    spectrum is nonnegative (within round-off).
    """

    w: np.ndarray
    rho: float
    psd: bool
    decomposition: tuple[np.ndarray, np.ndarray]  # sym_eig(w)

    @property
    def n(self) -> int:
        return self.w.shape[0]


def _make_mixing(w: np.ndarray) -> MixingMatrix:
    n = w.shape[0]
    row_err = np.max(np.abs(w.sum(axis=1) - 1.0))
    if row_err > 1e-12:
        raise GraphError(f"row sums deviate from 1 by {row_err:.3e}")
    dec = sym_eig(w)
    lam = dec.eigenvalues
    if lam[0] <= -1.0:
        raise GraphError(f"eigenvalue {lam[0]} outside (-1, 1]")
    if lam[-1] > 1.0 + 1e-10:
        raise GraphError(f"eigenvalue {lam[-1]} outside (-1, 1]")
    if n > 1 and lam[-2] > 1.0 - _SIMPLE_TOP_TOL:
        raise GraphError("top eigenvalue is not simple (disconnected graph?)")
    rho = 0.0 if n == 1 else float(max(abs(lam[-2]), abs(lam[0])))
    return MixingMatrix(w, rho, bool(lam[0] >= -1e-12), dec)


def metropolis_weights(t: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: W_ij = 1 / (1 + max(deg_i, deg_j))."""
    deg = t.degrees
    a = np.where(t.adjacency, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return _make_mixing(a)


def lazify(w: MixingMatrix) -> MixingMatrix:
    """Half-lazy walk (I + W) / 2; maps the spectrum into [0, 1]."""
    return _make_mixing(0.5 * (np.eye(w.n) + w.w))


def topology_to_edgelist(t: Topology) -> str:
    """Serialize as "n m" followed by one "i j" line per edge (0-based)."""
    lines = [f"{t.n} {len(t.edges)}"]
    lines.extend(f"{i} {j}" for i, j in t.edges)
    return "\n".join(lines) + "\n"
