"""Loss oracles, proximal terms, smoothness constants, and LIBSVM-format
dataset handling with uniform partitioning across agents.

A ProblemInstance is its stacked per-network oracle: the constructors build
the agents' arrays directly, so no oracle call loops over agents in Python.
QuadraticLoss and LogisticLoss evaluate one agent at a time; they are the
reference the stacked oracles are tested against, and only the instance
constructors check their inputs.
"""

from __future__ import annotations

import io
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

_POWER_ITER_CAP = 100_000
_POWER_ITER_TOL = 1e-8

# str.splitlines() breaks ASCII text at \n, \r, \r\n, \v, \f and \x1c-\x1e;
# str.split() also separates tokens at tab and \x1f.
_OTHER_SPACE = b"\r\x0b\x0c\x1c\x1d\x1e\t\x1f"
_TO_SPACE_OR_NEWLINE = bytes.maketrans(_OTHER_SPACE, b"\n\n\n\n\n\n  ")
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_BLOCK_BYTES = 1 << 20


class ParseError(Exception):
    """Malformed LIBSVM input; message carries the offending line number."""


class ProblemError(Exception):
    pass


@dataclass(eq=False)
class Dataset:
    """Sparse binary-classification samples in CSR-style storage.

    Labels are strictly +1/-1; feature indices are 0-based and < d.
    """

    d: int
    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.labels.size

    def sample(self, i: int) -> tuple[np.ndarray, np.ndarray, float]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi], float(self.labels[i])

    def dense(self) -> np.ndarray:
        x = np.zeros((len(self), self.d))
        x[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = self.values
        return x

    def subset(self, rows: np.ndarray) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        lo = self.indptr[rows]
        counts = self.indptr[rows + 1] - lo
        indptr = np.zeros(rows.size + 1, dtype=int)
        np.cumsum(counts, out=indptr[1:])
        # entry j of output row r comes from entry lo[r] + (j - indptr[r])
        src = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts)
        return Dataset(self.d, self.labels[rows], indptr, self.indices[src], self.values[src])

    def head(self, m: int) -> "Dataset":
        """The first m samples; the dataset itself when it has no more."""
        return self if m >= len(self) else self.subset(np.arange(m))


def _tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds of the runs between spaces and newlines, buf[starts[t]:ends[t]],
    and which of them open a line (the label)."""
    space = np.ones(buf.size + 2, dtype=bool)
    np.equal(buf, 32, out=space[1:-1])
    space[1:-1] |= buf == 10
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = edges[0::2], edges[1::2]
    after_break = np.searchsorted(starts, np.flatnonzero(buf == 10))
    is_label = np.zeros(starts.size, dtype=bool)
    is_label[after_break[after_break < starts.size]] = True
    is_label[:1] = True
    return starts, ends, is_label


def _malformed(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               is_label: np.ndarray) -> np.ndarray:
    """Tokens that fail before their numbers are read: a label has no colon;
    a feature token has one, text on both sides, and an index of digits after
    an optional sign.  numpy reads "nan(...)" where float() refuses it."""
    colons = np.append(np.flatnonzero(buf == 58), buf.size)
    first = np.searchsorted(colons, starts)
    n_colon = np.searchsorted(colons, ends) - first
    colon = colons[first]
    bad = np.where(is_label, n_colon != 0,
                   (n_colon != 1) | (colon == starts) | (colon == ends - 1))
    bad[np.searchsorted(starts, np.flatnonzero(buf == 40), side="right") - 1] = True
    feat = np.flatnonzero(~is_label & ~bad)
    if feat.size:
        lo = starts[feat] + ((buf[starts[feat]] == 43) | (buf[starts[feat]] == 45))
        # digits are the only bytes b with (b - 48) mod 256 <= 9
        top = np.maximum.reduceat(buf - 48, np.column_stack((lo, colon[feat])).ravel())[0::2]
        bad[feat[top > 9]] = True
    return bad


def _parse_fields(data: bytes, starts: np.ndarray, is_label: np.ndarray,
                  limit: int) -> tuple[np.ndarray, int]:
    """The numbers of tokens [0, limit), read in one pass, and limit lowered
    to the first token whose numbers do not parse; bisection finds that token
    by reading about len(data) more bytes."""
    stream = data.translate(_COLON_TO_SPACE)
    bounds = np.append(starts, len(stream))

    def numbers(lo: int, hi: int) -> np.ndarray | None:
        count = 2 * (hi - lo) - int(np.count_nonzero(is_label[lo:hi]))
        if count == 0:  # numpy reads a blank stream as [-1.0]
            return np.empty(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 only warns
            try:
                out = np.fromstring(stream[bounds[lo]:bounds[hi]], sep=" ")
            except (ValueError, DeprecationWarning):
                return None
        return out if out.size == count else None

    out = numbers(0, limit)
    if out is None:
        lo = 0
        while limit - lo > 1:
            mid = (lo + limit) // 2
            lo, limit = (lo, mid) if numbers(lo, mid) is None else (mid, limit)
        limit = lo
        out = numbers(0, limit)
    return out, limit


def _parse_block(block: bytes, first_line: int, map_01_labels: bool):
    """(labels, features per sample, (index, value) rows) of the whole lines
    of a normalised block whose first line is line first_line + 1 of the
    input; raises ParseError at the first malformed token."""
    buf = np.frombuffer(block, dtype=np.uint8)
    starts, ends, is_label = _tokens(buf)
    malformed = _malformed(buf, starts, ends, is_label)
    limit = int(np.argmax(malformed)) if malformed.any() else starts.size
    numbers, limit = _parse_fields(block, starts, is_label, limit)

    head = is_label[:limit]
    is_label_number = np.repeat(head, np.where(head, 1, 2))
    labels = numbers[is_label_number]
    pairs = numbers[~is_label_number].reshape(-1, 2)  # (index, value) rows
    if map_01_labels:
        labels[labels == 0.0] = -1.0
    bad = [limit]
    bad_label = (labels != 1.0) & (labels != -1.0)
    if bad_label.any():
        bad.append(np.flatnonzero(head)[np.argmax(bad_label)])
    bad_index = pairs[:, 0] < 1.0
    if bad_index.any():
        bad.append(np.flatnonzero(~head)[np.argmax(bad_index)])
    t = int(min(bad))
    if t < starts.size:
        tok = block[starts[t]:ends[t]].decode("utf-8", "replace")
        if t == limit:
            what = f"bad label {tok!r}" if is_label[t] else f"malformed feature token {tok!r}"
        elif is_label[t]:
            what = f"label {tok!r} is not +1/-1"
        else:
            what = f"index {int(pairs[np.count_nonzero(~head[:t]), 0])} is not 1-based"
        raise ParseError(f"line {first_line + block.count(10, 0, starts[t]) + 1}: {what}")
    counts = np.diff(np.append(np.flatnonzero(is_label), starts.size)) - 1
    return labels, counts, pairs


def _normalise(data: bytes) -> bytes:
    """Every line break as a newline and every other separator as a space."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if any(ch in data for ch in _OTHER_SPACE):
        data = data.translate(_TO_SPACE_OR_NEWLINE)
    return data


def _line_blocks(stream: BinaryIO) -> Iterator[bytes]:
    """The normalised input in blocks of whole lines, one read of about
    _BLOCK_BYTES each; the last block may lack its final newline. A read
    that ends in a carriage return keeps it for the next, whose first byte
    may be the newline that pairs with it."""
    tail = b""
    while chunk := stream.read(_BLOCK_BYTES):
        data = tail + chunk
        keep = data[-1:] if data[-1:] == b"\r" else b""
        data = _normalise(data[:len(data) - len(keep)])
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:] + keep
    if tail:
        yield _normalise(tail)


def _read_stream(stream: BinaryIO, map_01_labels: bool) -> Dataset:
    """The dataset of a seekable binary stream, read from its start in blocks
    of whole lines. Every feature token holds one colon, so a first pass
    counting colons sizes the index and value arrays, and each block's pairs
    are written into them."""
    size = sum(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 58)
               for chunk in iter(lambda: stream.read(_BLOCK_BYTES), b""))
    stream.seek(0)
    indices, values = np.empty(size, dtype=int), np.empty(size)
    labels, counts = [np.empty(0)], [np.empty(0, dtype=int)]
    end = lines = 0
    for block in _line_blocks(stream):
        block_labels, block_counts, pairs = _parse_block(block, lines, map_01_labels)
        start, end = end, end + pairs.shape[0]
        indices[start:end] = pairs[:, 0]
        values[start:end] = pairs[:, 1]
        labels.append(block_labels)
        counts.append(block_counts)
        lines += block.count(b"\n")
    indices -= 1
    return Dataset(int(indices.max()) + 1 if size else 0, np.concatenate(labels),
                   np.append(0, np.cumsum(np.concatenate(counts))), indices, values)


def read_libsvm(path: str | os.PathLike, map_01_labels: bool = False) -> Dataset:
    """parse_libsvm of a file's bytes, streamed: the file is never held whole,
    and the only full-size arrays are the dataset's own. OSError propagates."""
    with open(path, "rb") as stream:
        return _read_stream(stream, map_01_labels)


def parse_libsvm(text: str | bytes, map_01_labels: bool = False) -> Dataset:
    """Parse "label idx:val idx:val ..." lines; 1-based indices become 0-based.

    Labels must be +1/-1; with map_01_labels, 0/1 files are accepted and 0 is
    mapped to -1. The dimension is the largest index seen. Lines and tokens
    split as str.splitlines() and str.split() split ASCII text; the first
    malformed token raises ParseError naming its line.
    """
    return _read_stream(io.BytesIO(text.encode() if isinstance(text, str) else text),
                        map_01_labels)


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; round-trips every value exactly."""
    lines = []
    for i in range(len(ds)):
        idx, vals, label = ds.sample(i)
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, vals))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def normalize_features(ds: Dataset) -> Dataset:
    """Per-feature max-abs scaling (off by default everywhere)."""
    scale = np.ones(ds.d)
    np.fmax.at(scale, ds.indices, np.abs(ds.values))  # fmax, like max(), keeps 1.0 over nan
    return Dataset(ds.d, ds.labels.copy(), ds.indptr.copy(), ds.indices.copy(),
                   ds.values / scale[ds.indices])


def _shuffled_split(m: int, n: int, seed: int) -> list[np.ndarray]:
    """The sample rows of each of n agents: a seeded shuffle of range(m) cut
    into n slices with sizes differing by <= 1."""
    if n < 1:
        raise ProblemError("need at least one agent")
    if n > m:
        raise ProblemError(f"cannot split {m} samples across {n} agents")
    return np.array_split(np.random.default_rng(seed).permutation(m), n)


def partition(ds: Dataset, n: int, seed: int) -> list[Dataset]:
    """Seeded uniform shuffle split into n slices with sizes differing by <= 1."""
    return [ds.subset(rows) for rows in _shuffled_split(len(ds), n, seed)]


@dataclass(eq=False)
class QuadraticLoss:
    """f(x) = 1/2 sum_j h_j (x_j - b_j)^2 with per-coordinate curvature h."""

    target: np.ndarray
    curvature: np.ndarray | None = None

    def __post_init__(self):
        if self.curvature is None:
            self.curvature = np.ones_like(self.target)

    def value(self, x: np.ndarray) -> float:
        diff = x - self.target
        return 0.5 * float(np.sum(self.curvature * diff * diff))

    def grad(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.target.shape:
            raise ProblemError(f"gradient point has shape {x.shape}, expected {self.target.shape}")
        return self.curvature * (x - self.target)

    def constants(self) -> tuple[float, float]:
        return float(np.max(self.curvature)), float(np.min(self.curvature))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) never overflows, and each branch is the textbook stable form
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


@dataclass(eq=False)
class LogisticLoss:
    """Mean logistic loss over a data slice plus an optional ridge term.

    f(x) = (1/m) sum_j ln(1 + exp(-y_j <X_j, x>)) + (ridge/2) ||x||^2
    """

    features: np.ndarray
    labels: np.ndarray
    ridge: float = 0.0

    @classmethod
    def from_dataset(cls, ds: Dataset, ridge: float = 0.0) -> "LogisticLoss":
        return cls(ds.dense(), ds.labels, ridge)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    def value(self, x: np.ndarray) -> float:
        margins = self.labels * (self.features @ x)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * self.ridge * float(x @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        margins = self.labels * (self.features @ x)
        # d/dx ln(1+e^{-t}) with t = y<X,x> gives -yX * sigmoid(-t)
        weights = self.labels * _sigmoid(-margins)
        return -(self.features.T @ weights) / self.m + self.ridge * x

    def constants(self) -> tuple[float, float]:
        gram = (self.features.T @ self.features) / (4.0 * self.m)
        return _power_iteration_lmax(gram) + self.ridge, self.ridge


def _power_iteration_lmax(gram: np.ndarray, tol: float = _POWER_ITER_TOL) -> float:
    """Largest eigenvalue of a PSD matrix by plain power iteration."""
    d = gram.shape[0]
    v = np.random.default_rng(0).standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITER_CAP):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - lam) <= tol * max(norm, 1e-300):
            return norm
        lam = norm
    raise ProblemError("power iteration did not converge")


@dataclass(eq=False)
class ProxSpec:
    """Shared nonsmooth term: "none" or "l1" with a positive weight."""

    kind: str = "none"
    weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1"):
            raise ProblemError(f"unknown prox kind {self.kind!r}")
        if self.kind == "l1" and not (np.isfinite(self.weight) and self.weight > 0.0):
            raise ProblemError(f"l1 weight must be positive and finite, got {self.weight}")

    def value(self, x: np.ndarray):
        """r(x) of a point, or of each point along the last axis."""
        if self.kind == "none":
            return 0.0
        return self.weight * np.abs(x).sum(axis=-1)

    def apply(self, v: np.ndarray, alpha: float) -> np.ndarray:
        """prox_{alpha r}: identity for "none", soft threshold for "l1"."""
        if alpha <= 0.0:
            raise ProblemError(f"prox stepsize must be positive, got {alpha}")
        if self.kind == "none":
            return np.array(v, dtype=float)
        thresh = alpha * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


# The stacked oracles take iterates of shape (..., n, d) and points of shape
# (..., d): any leading axes (one per run of a batch) are carried through,
# and every run's result is bitwise the one it gets without them.

@dataclass(eq=False)
class _QuadraticStack:
    """Quadratic agents as (n, d) targets and curvatures."""

    targets: np.ndarray
    curvatures: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.targets.shape

    @property
    def width(self) -> int:
        """Entries per agent of the objective's temporaries at one point."""
        return self.targets.shape[1]

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        return self.curvatures * (x - self.targets)

    def value(self, point: np.ndarray) -> np.ndarray:
        diff = point[..., None, :] - self.targets
        return 0.5 * (self.curvatures * diff * diff).sum(axis=(-2, -1)) / self.targets.shape[0]


@dataclass(eq=False)
class _LogisticStack:
    """Logistic agents as one (n, d, m_max) tensor of label-signed features.

    signed[i] = (y_i * X_i).T for agent i's labels y_i and (m_i, d) features
    X_i, so a margin y <X_j, x> is one entry of x @ signed[i] and a gradient
    is one signed[i] @ weights. Agent i owns columns [0, m[i]); the padding
    columns are zero, which zeroes their gradient contribution, and the
    boolean mask real hides them from the value. Each (run, agent) pair gets
    its own matrix-vector product, so a run gets the same bits alone as in a
    batch; the products loop agent by agent. Every agent has the same ridge.
    """

    signed: np.ndarray
    real: np.ndarray
    m: np.ndarray
    ridge: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.signed.shape[:2]

    @property
    def width(self) -> int:
        """Entries per agent of the objective's margins at one point, m_max."""
        return self.signed.shape[2]

    def _signed(self, ndim: int) -> np.ndarray:
        """signed as (n, 1, ..., 1, d, m_max), an operand of ndim axes."""
        n, d, width = self.signed.shape
        return self.signed.reshape((n,) + (1,) * (ndim - 3) + (d, width))

    def _by_agent(self, left: np.ndarray, right: np.ndarray, runs: tuple) -> np.ndarray:
        """left @ right, one product per (agent, run), as a C-ordered
        (*runs, n, rows, cols) array. Both operands put the agent axis first,
        as x.swapaxes(0, -2) does to (*runs, n, d). numpy orders the loop by
        the first operand whose strides rank the two axes, so a contiguous
        agent-first operand makes every run reuse an agent's block while it
        is in cache."""
        out = np.empty(runs + (self.signed.shape[0], left.shape[-2], right.shape[-1]))
        np.matmul(left, right, out=out.swapaxes(0, -3))
        return out

    def _margins(self, x: np.ndarray) -> np.ndarray:
        """x[..., i, :] @ signed[i] for each agent i, (..., n, m_max). An x
        with one row for all agents is spread to n rows first, so that it is
        the operand that orders the loop."""
        runs = x.shape[:-2]
        x = np.broadcast_to(x, runs + self.signed.shape[:2])
        xt = np.ascontiguousarray(x.swapaxes(0, -2))[..., None, :]
        return self._by_agent(xt, self._signed(xt.ndim), runs)[..., 0, :]

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        # d/dx ln(1 + e^-t) = -yX sigma(-t), and sigma(-t) = 1 / (1 + e^t) is
        # exactly 0 where e^t overflows to inf
        weights = self._margins(x)
        with np.errstate(over="ignore"):
            np.exp(weights, out=weights)
        weights += 1.0
        np.reciprocal(weights, out=weights)
        weights = np.ascontiguousarray(weights.swapaxes(0, -2))[..., None]
        grads = self._by_agent(self._signed(weights.ndim), weights, x.shape[:-2])[..., 0]
        np.negative(grads, out=grads)
        grads /= self.m[:, None]
        grads += self.ridge * x
        return grads

    def value(self, point: np.ndarray) -> np.ndarray:
        # ln(1 + e^-t) = max(-t, 0) + ln(1 + e^-|t|), the padding masked out;
        # computed in place in the margins' buffer and one more
        losses = self._margins(point[..., None, :])
        soft = np.abs(losses)
        np.negative(soft, out=soft)
        np.exp(soft, out=soft)
        np.log1p(soft, out=soft)
        np.negative(losses, out=losses)
        np.maximum(losses, 0.0, out=losses)
        losses += soft
        np.copyto(losses, 0.0, where=~self.real)
        per_agent = losses.sum(axis=-1)
        per_agent /= self.m
        per_agent += 0.5 * self.ridge * np.vecdot(point, point)[..., None]
        return per_agent.sum(axis=-1) / self.m.size


@dataclass(eq=False)
class ProblemInstance:
    """The consensus problem min_x (1/n) sum_i f_i(x) + r(x): the n agent
    losses as one stacked oracle, the shared prox term r, and the common
    constants L = max_i L_i and mu = min_i mu_i; n and d are the stack's.

    Row i of grad_stack is agent i's gradient. Each oracle also takes a
    leading run axis, (S, n, d) iterates or (S, d) points, and evaluates
    every run in the same numpy calls.
    """

    stack: _QuadraticStack | _LogisticStack
    prox: ProxSpec
    L: float
    mu: float

    def __post_init__(self):
        if not self.L > 0.0:
            raise ProblemError("smoothness constant must be positive")
        self.n, self.d = self.stack.shape

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradients of the stacked iterate, row i for agent i."""
        return self.stack.grad_stack(x)

    def mean_grad(self, point: np.ndarray) -> np.ndarray:
        return np.mean(self.stack.grad_stack(point[..., None, :]), axis=-2)

    def objective(self, point: np.ndarray):
        """Consensus objective (1/n) sum_i f_i(point) + r(point): a float for
        one point, an array for a stack of points."""
        value = self.stack.value(point) + self.prox.value(point)
        return float(value) if np.ndim(point) == 1 else value


def quadratic_from_targets(targets, curvatures=None, prox=None) -> ProblemInstance:
    """Quadratic agents f_i(x) = 1/2 sum_j h_ij (x_j - b_ij)^2 from (n, d)
    targets b and positive curvatures h (all ones by default), all finite."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.size == 0:
        raise ProblemError(f"targets must be a nonempty (n, d) array, got shape {targets.shape}")
    curvatures = np.ones_like(targets) if curvatures is None else np.asarray(curvatures, float)
    if curvatures.shape != targets.shape:
        raise ProblemError("curvature and target shapes differ")
    if not np.all(np.isfinite(targets)):
        raise ProblemError("target entries must be finite")
    if not np.all((curvatures > 0.0) & (curvatures < np.inf)):
        raise ProblemError("curvature entries must be positive and finite")
    return ProblemInstance(_QuadraticStack(targets, curvatures), prox or ProxSpec(),
                           float(curvatures.max()), float(curvatures.min()))


def quadratic_instance(
    n: int,
    d: int,
    seed: int,
    curvature_min: float = 1.0,
    curvature_max: float = 1.0,
    prox: ProxSpec | None = None,
    target_scale: float = 1.0,
    target_offset_scale: float = 0.0,
) -> ProblemInstance:
    """Synthetic quadratic agents with seeded random targets (client drift).

    All agents share a log-spaced curvature profile spanning
    [curvature_min, curvature_max], so kappa = curvature_max / curvature_min.
    A common random offset (target_offset_scale) shifts every target without
    changing the heterogeneity.
    """
    if not (0.0 < curvature_min <= curvature_max < np.inf):
        raise ProblemError("need 0 < curvature_min <= curvature_max < inf")
    rng = np.random.default_rng(seed)
    h = np.geomspace(curvature_min, curvature_max, d) if d > 1 else np.array([curvature_max])
    offset = target_offset_scale * rng.standard_normal(d)
    targets = offset + target_scale * rng.standard_normal((n, d))
    return quadratic_from_targets(targets, np.tile(h, (n, 1)), prox)


def logistic_instance(
    ds: Dataset,
    n: int,
    partition_seed: int,
    ridge: float,
    prox: ProxSpec | None = None,
) -> ProblemInstance:
    """Logistic agents with a common ridge on a seeded uniform partition,
    which gives every agent at least one sample. The agents' slices are
    scattered from the CSR arrays into the signed stack one at a time, so no
    second copy of the dataset is built, and L_i is the ridge plus the power
    iteration's top eigenvalue of the Gram X_i^T X_i / (4 m_i) of its block."""
    if not ridge >= 0.0:
        raise ProblemError("ridge must be nonnegative")
    chunks = _shuffled_split(len(ds), n, partition_seed)
    m = np.array([rows.size for rows in chunks])
    signed = np.zeros((n, ds.d, m.max()))
    lmax = []
    for i, rows in enumerate(chunks):
        s = ds.subset(rows)
        sample = np.repeat(np.arange(m[i]), np.diff(s.indptr))
        signed[i, s.indices, sample] = s.values * s.labels[sample]
        block = np.ascontiguousarray(signed[i, :, :m[i]].T)
        lmax.append(_power_iteration_lmax(block.T @ block / (4.0 * m[i])))
    real = np.arange(m.max()) < m[:, None]
    return ProblemInstance(_LogisticStack(signed, real, m, float(ridge)), prox or ProxSpec(),
                           max(lmax) + ridge, float(ridge))
