import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flexatc as fa
from flexatc import problem as pb
from flexatc import solver


def synthetic_logistic_dataset(m: int, d: int, seed: int) -> pb.Dataset:
    """Dense random features with labels from a noisy random hyperplane."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, d))
    plane = rng.standard_normal(d)
    margins = x @ plane + 0.3 * rng.standard_normal(m)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    indptr = np.arange(0, m * d + 1, d)
    indices = np.tile(np.arange(d), m)
    return pb.Dataset(d, labels, indptr, indices, x.reshape(-1).copy())


def correlated_logistic_dataset(m: int, d: int, seed: int) -> pb.Dataset:
    """Features driven by a few latent factors, like real tabular data;
    conditions the losses much worse than iid features."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(m, 4))
    mix = 0.5 * rng.standard_normal((4, d))
    x = np.clip(base @ mix + 0.15 * rng.uniform(-1.0, 1.0, (m, d)), -1.0, 1.0)
    plane = rng.standard_normal(d)
    labels = np.where(x @ plane + 0.5 * rng.standard_normal(m) > 0.8, 1.0, -1.0)
    indptr = np.arange(0, m * d + 1, d)
    return pb.Dataset(d, labels, indptr, np.tile(np.arange(d), m), x.reshape(-1).copy())


def write_libsvm(ds: pb.Dataset, path) -> Path:
    """Write a dataset to a LIBSVM file, whose d is its largest index + 1,
    and return the path. A dense dataset, every sample storing features
    1..d in order, goes through np.savetxt, many times faster than
    serialize_libsvm's loop over samples; both round-trip every value."""
    path, m, d = Path(path), len(ds), ds.d
    if m * d and np.array_equal(ds.indices, np.tile(np.arange(d), m)):
        rows = np.column_stack((ds.labels, ds.values.reshape(m, d)))
        np.savetxt(path, rows, fmt="%+d " + " ".join(f"{j + 1}:%.17g" for j in range(d)))
    else:
        path.write_text(pb.serialize_libsvm(ds))
    return path


def set_steps_per_block(monkeypatch, inst: pb.ProblemInstance, count: int, steps: int) -> None:
    """Shrink solver's block budget so a batch of `count` runs on `inst`
    records `steps` steps per block."""
    monkeypatch.setattr(solver, "_BLOCK_BUDGET", steps * count * inst.n * inst.width)
    assert solver.block_length(inst, count) == steps


def traced_peak(build):
    """build() and the tracemalloc peak of the call above what was traced
    before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


def random_sparse_dataset(m: int, d: int, seed: int, density: float = 0.4) -> pb.Dataset:
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], size=m)
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for _ in range(m):
        mask = rng.random(d) < density
        cols = np.nonzero(mask)[0]
        indices.extend(cols.tolist())
        values.extend(rng.standard_normal(cols.size).tolist())
        indptr.append(len(indices))
    return pb.Dataset(d, labels, np.asarray(indptr), np.asarray(indices, dtype=int),
                      np.asarray(values))


@pytest.fixture(scope="session")
def ring4():
    return fa.metropolis_weights(fa.gen_topology("ring", 4))


@pytest.fixture(scope="session")
def ring10():
    return fa.metropolis_weights(fa.gen_topology("ring", 10))


@pytest.fixture(scope="session")
def complete3():
    return fa.metropolis_weights(fa.gen_topology("complete", 3))
