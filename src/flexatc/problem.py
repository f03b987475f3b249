"""Loss oracles, proximal terms, smoothness constants, and LIBSVM-format
dataset handling with uniform partitioning across agents.

A ProblemInstance is its stacked per-network oracle: the constructors build
the agents' arrays directly and check their inputs, so no oracle call loops
over agents in Python. The per-agent losses the tests compare the stacked
oracles against live in tests/reference.py.
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
_BLOCK_BYTES = 1 << 16
# Agents per group of the logistic oracles' loop: four replica-scale blocks
# are about 0.7 MB, which stay in a 2 MB L2 cache through the group's work.
_GROUP = 4


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
    to the first token whose numbers do not parse, which a scan of the
    tokens one at a time finds."""
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
        limit = next(t for t in range(limit) if numbers(t, t + 1) is None)
        out = numbers(0, limit)
    return out, limit


def _first_repeat(index: np.ndarray, sample: np.ndarray) -> int | None:
    """The first (index, value) pair whose index an earlier pair of its
    sample holds, pair k being of sample sample[k] and a sample's pairs
    adjacent; None if no sample repeats an index. LIBSVM lists a sample's
    indices in rising order; only the samples that do not are sorted."""
    falls = np.flatnonzero((index[1:] <= index[:-1]) & (sample[1:] == sample[:-1]))
    if not falls.size:
        return None
    pick = np.flatnonzero(np.isin(sample, sample[falls]))
    pick = pick[np.lexsort((index[pick], sample[pick]))]
    repeat = (index[pick[1:]] == index[pick[:-1]]) & (sample[pick[1:]] == sample[pick[:-1]])
    return int(pick[1:][repeat].min()) if repeat.any() else None


def _parse_block(block: bytes, first_line: int):
    """(labels, features per sample, 0-based indices, values) of the whole
    lines of a normalised block whose first line is line first_line + 1 of
    the input; raises ParseError at the first malformed token or bad label,
    index or value."""
    buf = np.frombuffer(block, dtype=np.uint8)
    starts, ends, is_label = _tokens(buf)
    malformed = _malformed(buf, starts, ends, is_label)
    limit = int(np.argmax(malformed)) if malformed.any() else starts.size
    numbers, limit = _parse_fields(block, starts, is_label, limit)

    head = is_label[:limit]
    is_label_number = np.repeat(head, np.where(head, 1, 2))
    labels = numbers[is_label_number]
    pairs = numbers[~is_label_number].reshape(-1, 2)  # (index, value) rows
    index, value = pairs[:, 0], pairs[:, 1]
    bad = [limit]
    bad_label = (labels != 1.0) & (labels != -1.0)
    if bad_label.any():
        bad.append(np.flatnonzero(head)[np.argmax(bad_label)])
    # an index of 2^53 or more may have been rounded to another integer
    bad_pair = (index < 1.0) | (index >= 2.0**53) | ~np.isfinite(value)
    if bad_pair.any():
        bad.append(np.flatnonzero(~head)[np.argmax(bad_pair)])
    if (repeat := _first_repeat(index, np.cumsum(head)[~head])) is not None:
        bad.append(np.flatnonzero(~head)[repeat])
    t = int(min(bad))
    if t < starts.size:
        tok = block[starts[t]:ends[t]].decode("utf-8", "replace")
        k = np.count_nonzero(~head[:t])
        if t == limit:
            what = f"bad label {tok!r}" if is_label[t] else f"malformed feature token {tok!r}"
        elif is_label[t]:
            what = f"label {tok!r} is not +1/-1"
        elif index[k] < 1.0:
            what = f"index {int(index[k])} is not 1-based"
        elif index[k] >= 2.0**53:
            what = f"feature token {tok!r} has an index of 2^53 or more"
        elif not np.isfinite(value[k]):
            what = f"feature token {tok!r} has a non-finite value"
        else:
            what = f"feature token {tok!r} repeats index {int(index[k])} of its line"
        raise ParseError(f"line {first_line + block.count(10, 0, starts[t]) + 1}: {what}")
    counts = np.diff(np.append(np.flatnonzero(is_label), starts.size)) - 1
    indices = index.astype(int)
    indices -= 1
    # a copy, so that the (index, value) rows are freed with the block
    return labels, counts, indices, value.copy()


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


def _count(stream: BinaryIO) -> int:
    """The samples of a seekable binary stream, which is left at its start:
    the tokens that open a line, each of which the parser reads as a label."""
    rows = sum(int(np.count_nonzero(_tokens(np.frombuffer(block, dtype=np.uint8))[2]))
               for block in _line_blocks(stream))
    stream.seek(0)
    return rows


def _parsed_blocks(stream: BinaryIO) -> Iterator[tuple]:
    """(first sample, labels, features per sample, 0-based indices, values)
    of each block of whole lines of a binary stream."""
    rows = lines = 0
    for block in _line_blocks(stream):
        labels, counts, indices, values = _parse_block(block, lines)
        yield rows, labels, counts, indices, values
        rows += labels.size
        lines += block.count(b"\n")


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse "label idx:val idx:val ..." lines; 1-based indices become 0-based.

    Labels must be +1/-1, indices below 2^53 and values finite. The
    dimension is the largest index seen. Lines and tokens split as
    str.splitlines() and str.split() split ASCII text; the first malformed
    token or bad label, index or value raises ParseError naming its line.
    The text runs through the block loop read_logistic runs on a file, and
    its colons, one per feature token, size the index and value arrays.
    """
    data = text.encode() if isinstance(text, str) else text
    size = data.count(b":")
    indices, values = np.empty(size, dtype=int), np.empty(size)
    labels, counts = [np.empty(0)], [np.empty(0, dtype=int)]
    end = 0
    for _, block_labels, block_counts, block_indices, block_values in _parsed_blocks(
            io.BytesIO(data)):
        start, end = end, end + block_indices.size
        indices[start:end] = block_indices
        values[start:end] = block_values
        labels.append(block_labels)
        counts.append(block_counts)
    return Dataset(int(indices.max()) + 1 if size else 0, np.concatenate(labels),
                   np.append(0, np.cumsum(np.concatenate(counts))), indices, values)


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; round-trips every value exactly."""
    lines = []
    for i in range(len(ds)):
        idx, vals, label = ds.sample(i)
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, vals))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _shuffled_split(m: int, n: int, seed: int) -> list[np.ndarray]:
    """The sample rows of each of n agents: a seeded shuffle of range(m) cut
    into n slices with sizes differing by <= 1."""
    if n < 1:
        raise ProblemError("need at least one agent")
    if n > m:
        raise ProblemError(f"cannot split {m} samples across {n} agents")
    return np.array_split(np.random.default_rng(seed).permutation(m), n)


def _power_iteration_lmax(gram: np.ndarray) -> float:
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
        if abs(norm - lam) <= _POWER_ITER_TOL * max(norm, 1e-300):
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
        return v - np.clip(v, -thresh, thresh)


# The stacks take (..., n, d) iterates, row i agent i's: grad_stack gives each
# agent's gradient and value (1/n) sum_i f_i(x_i). Any leading axes (one per run
# of a batch) are carried through, and each run gets the bits it gets alone.

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
        return self.targets.shape[1]

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        return self.curvatures * (x - self.targets)

    def value(self, x: np.ndarray) -> np.ndarray:
        diff = x - self.targets
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
    batch. Both oracles take the agents _GROUP at a time: their temporaries
    are one group's margins, and a group's blocks are still in cache when its
    gradient product reads them. Every agent has the same ridge.
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
        return max(self.signed.shape[1:])  # a gradient's d or a margin row's m_max

    def _groups(self, x: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """(agents, signed[agents], margins) for each group of _GROUP agents,
        margins[..., j, :] = x[..., i, :] @ signed[i] for its j-th agent i."""
        for lo in range(0, self.signed.shape[0], _GROUP):
            agents = slice(lo, lo + _GROUP)
            blocks = self.signed[agents]
            yield agents, blocks, np.matmul(x[..., agents, None, :], blocks)[..., 0, :]

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        # d/dx ln(1 + e^-t) = -yX sigma(-t), and sigma(-t) = 1 / (1 + e^t) is
        # exactly 0 where e^t overflows to inf
        grads = np.empty(x.shape)
        with np.errstate(over="ignore"):
            for agents, blocks, margins in self._groups(x):
                np.matmul(blocks, (1.0 / (1.0 + np.exp(margins)))[..., None],
                          out=grads[..., agents, :, None])
        # in place: a new result array raised replica_run's peak RSS by 0.1 MB
        grads /= -self.m[:, None]
        grads += self.ridge * x
        return grads

    def value(self, x: np.ndarray) -> np.ndarray:
        # ln(1 + e^-t) = max(-t, 0) + ln(1 + e^-|t|), the padding masked out
        per_agent = np.empty(x.shape[:-1])
        for agents, _, losses in self._groups(x):
            soft = np.abs(losses)
            np.negative(soft, out=soft)
            np.exp(soft, out=soft)
            np.log1p(soft, out=soft)
            np.negative(losses, out=losses)
            np.maximum(losses, 0.0, out=losses)
            losses += soft
            np.copyto(losses, 0.0, where=~self.real[agents])
            losses.sum(axis=-1, out=per_agent[..., agents])
        per_agent /= self.m
        per_agent += 0.5 * self.ridge * np.vecdot(x, x)
        return per_agent.sum(axis=-1) / self.m.size


@dataclass(eq=False)
class ProblemInstance:
    """The consensus problem min_x (1/n) sum_i f_i(x) + r(x): the n agent
    losses as one stacked oracle, the shared prox term r, and the common
    constants L = max_i L_i and mu = min_i mu_i. n, d and width, the length
    of the widest array an oracle makes per point and agent, are the stack's.

    Row i of grad_stack is agent i's gradient; mean_grad and objective
    spread a point to every agent as a read-only (..., n, d) view. Each
    oracle also takes a leading run axis, (S, n, d) iterates or (S, d)
    points, and evaluates every run in the same numpy calls.
    """

    stack: _QuadraticStack | _LogisticStack
    prox: ProxSpec
    L: float
    mu: float

    def __post_init__(self):
        if not self.L > 0.0:
            raise ProblemError("smoothness constant must be positive")
        self.n, self.d = self.stack.shape
        if self.d < 1:
            raise ProblemError("need at least one feature")
        self.width = self.stack.width

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradients of the stacked iterate, row i for agent i."""
        return self.stack.grad_stack(x)

    def _spread(self, point: np.ndarray) -> np.ndarray:
        return np.broadcast_to(point[..., None, :], point.shape[:-1] + (self.n, self.d))

    def mean_grad(self, point: np.ndarray) -> np.ndarray:
        return np.mean(self.stack.grad_stack(self._spread(point)), axis=-2)

    def objective(self, point: np.ndarray):
        """Consensus objective (1/n) sum_i f_i(point) + r(point): numpy's
        float64 for one point, an array for a stack of points."""
        return self.stack.value(self._spread(point)) + self.prox.value(point)


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


def _stack_instance(blocks, m: int, n: int, partition_seed: int, ridge: float,
                    prox: ProxSpec | None, d: int = 0) -> ProblemInstance:
    """Logistic agents on the seeded split of the first m samples that blocks
    yields as (first sample, labels, features per sample, 0-based indices,
    values). The split gives each sample its agent and column before any is
    read, and each block is scattered into the signed stack; later samples
    widen the feature axis from d, as a dataset's d counts them, but are not
    stored. L_i is the ridge plus the power iteration's top eigenvalue of the
    Gram X_i^T X_i / (4 m_i) of agent i's block."""
    if not ridge >= 0.0:
        raise ProblemError("ridge must be nonnegative")
    ridge = float(ridge)
    chunks = _shuffled_split(m, n, partition_seed)
    sizes = np.array([rows.size for rows in chunks])
    agent, column = np.empty(m, dtype=int), np.empty(m, dtype=int)
    for i, rows in enumerate(chunks):
        agent[rows] = i
        column[rows] = np.arange(rows.size)
    del chunks, rows  # slices of the split's permutation, which the scatter does not need
    width = d
    try:
        signed = np.zeros((n, width, sizes.max()))
        for first, labels, counts, indices, values in blocks:
            if indices.size and indices.max() >= width:
                width = int(indices.max()) + 1
                grown = np.zeros((n, width, signed.shape[2]))
                grown[:, :signed.shape[1]] = signed
                signed = grown
            keep = min(labels.size, max(m - first, 0))
            stop = counts[:keep].sum()
            kept = slice(first, first + keep)
            signed[np.repeat(agent[kept], counts[:keep]), indices[:stop],
                   np.repeat(column[kept], counts[:keep])] = (
                values[:stop] * np.repeat(labels[:keep], counts[:keep]))
        lmax = []
        for i in range(n):
            block = np.ascontiguousarray(signed[i, :, :sizes[i]].T)
            lmax.append(_power_iteration_lmax(block.T @ block / (4.0 * sizes[i])))
    except (MemoryError, ValueError) as exc:  # numpy's refusal of a shape
        shape = (n, width, int(sizes.max()))
        raise ProblemError(f"cannot allocate the feature stack of shape {shape} "
                           "and its Gram matrices") from exc
    real = np.arange(sizes.max()) < sizes[:, None]
    return ProblemInstance(_LogisticStack(signed, real, sizes, ridge), prox or ProxSpec(),
                           max(lmax) + ridge, ridge)


def logistic_instance(
    ds: Dataset,
    n: int,
    partition_seed: int,
    ridge: float,
    prox: ProxSpec | None = None,
) -> ProblemInstance:
    """Logistic agents with a common ridge on a seeded uniform partition,
    which gives every agent at least one sample. The dataset must hold what
    parse_libsvm makes: labels +1 or -1, an indptr that runs without
    decreasing from 0 to the count of (index, value) pairs, indices in
    [0, d) with none repeated within a sample, and finite values. Its rows
    are scattered into the signed stack in blocks of about _BLOCK_BYTES of
    its pairs, so the stack is the only second copy of the samples."""
    labels, indptr = np.asarray(ds.labels), np.asarray(ds.indptr)
    indices, values = np.asarray(ds.indices), np.asarray(ds.values)
    if indices.shape != values.shape:
        raise ProblemError("feature indices and values differ in length")
    if (indptr.shape != (labels.size + 1,) or indptr[0] != 0 or indptr[-1] != indices.size
            or np.any(np.diff(indptr) < 0)):
        raise ProblemError(f"indptr must run without decreasing from 0 to {indices.size} "
                           f"in {labels.size + 1} entries")
    if not np.all((labels == 1.0) | (labels == -1.0)):
        raise ProblemError("labels must be +1 or -1")
    if indices.size and not (indices.min() >= 0 and indices.max() < ds.d):
        raise ProblemError(f"feature indices must lie in [0, {ds.d})")
    if not np.all(np.isfinite(values)):
        raise ProblemError("feature values must be finite")
    step = max(_BLOCK_BYTES // 16, 1)
    cuts = np.searchsorted(indptr, np.arange(step, indptr[-1], step))
    bounds = np.unique(np.concatenate(([0], cuts, [labels.size])))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sample = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
        index = indices[indptr[lo]:indptr[hi]]
        if (k := _first_repeat(index, sample)) is not None:
            raise ProblemError(f"sample {sample[k]} repeats feature index {index[k]}")
    blocks = ((lo, labels[lo:hi], np.diff(indptr[lo:hi + 1]),
               indices[indptr[lo]:indptr[hi]], values[indptr[lo]:indptr[hi]])
              for lo, hi in zip(bounds[:-1], bounds[1:]))
    return _stack_instance(blocks, labels.size, n, partition_seed, ridge, prox, ds.d)


def read_logistic(
    path: str | os.PathLike,
    n: int,
    partition_seed: int,
    ridge: float,
    prox: ProxSpec | None = None,
    max_samples: int | None = None,
) -> ProblemInstance:
    """logistic_instance of parse_libsvm of the file's bytes cut to its
    first max_samples samples (all by default), with neither the file held
    whole nor a dataset built: a counting pass fixes the split, and the
    parse loop scatters each block of about _BLOCK_BYTES of the file
    straight into the signed stack. A malformed file raises its ParseError
    before any error of the split or the ridge; OSError propagates."""
    with open(path, "rb") as stream:
        m = _count(stream)
        if max_samples is not None:
            m = min(m, max_samples)
        try:
            return _stack_instance(_parsed_blocks(stream), m, n, partition_seed, ridge, prox)
        except ProblemError:
            for _ in _parsed_blocks(stream):
                pass
            raise
