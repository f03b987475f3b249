"""The unified adapt-then-combine iteration with probabilistic
communication skipping in its square-root-dual (u) form, and a centralized
proximal-gradient reference solver.

One iteration from state (x, u), with stepsize alpha and coin theta:

    w  = x - alpha * grad F(x)                     (adapt, always local)
    zu = w - sqrt(B) u
    theta = 1:  x+ = prox(A zu),  u+ = u + p sqrt(B) zu   (communicate)
    theta = 0:  x+ = prox(zu),    u+ = u                  (skip)

The dual variable of the paper's y-form is y = -sqrt(B) u, so
sum_i y_i = 0 for every u; a run's trace keeps only its final (x, u). The
y-form advances y itself, theta = 1: x+ = prox(A (w + y)),
y+ = y - p B (w + y); theta = 0: x+ = prox(w + y), y+ = y; it generates the
same x-sequence given the same coins, up to round-off.

run_grid is the one iteration loop: it advances every (pair, p, seed) run
of a batch as one stacked (S, n, d) u-form state, each run taking the
branch of its own coin, and run is its one-run case. The tests check it
against single-step references of both forms and of the p = 1 primal
recursion, kept in tests/reference.py.

The per-step loop only advances the state: it writes each new x into a
block buffer of T + 1 rows (row 0 the iterate the block leaves from,
row j + 1 the iterate after its step j), and at the end of each block of T
steps the divergence test and the recorded columns (relative error,
consensus, objective and kkt) are computed for the whole block at once,
with the same per-row reductions, so the same bits, as one step at a time.
block_length sizes T so that the widest array an oracle makes for the
block, its iterates or its margins, T * S * n * width doubles, stays within
_BLOCK_BUDGET. A divergence is reported at the end of the block it happens
in, as the first step whose iterate left the finite ball of radius
1e12 * max(1, ||x*||); the later steps of that block run with numpy's
overflow warnings silenced. An observer
receives each block, once recorded, as a GridBlock of the states its steps
leave from, their gradients and both of their coin branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .combiners import CombinerPair
from .problem import ProblemInstance

_DIVERGENCE_NORM = 1e12
# Doubles of a block's widest array, about 128 KiB, so a block stays in L2.
_BLOCK_BUDGET = 2**14


class DivergenceError(Exception):
    """A run's iterate at `iteration` is not finite, or its norm exceeds
    _DIVERGENCE_NORM * max(1, ||x*||) for the run's replicated reference x*
    (just _DIVERGENCE_NORM without one)."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"divergence detected at iteration {iteration}: an iterate is not "
                         f"finite or has norm above {_DIVERGENCE_NORM:g} * max(1, ||x*||)")

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not from the formatted
        # message, so the error keeps its text across the process pool.
        return type(self), (self.iteration,)


class SolverError(Exception):
    pass


def coin_flips(p: float, seed: int, count: int) -> np.ndarray:
    """Bernoulli(p) coin flips theta_0 .. theta_{count-1} from one seeded
    stream in index order, so a longer draw begins with a shorter one."""
    if not (0.0 < p <= 1.0):
        raise SolverError(f"probability must lie in (0, 1], got {p}")
    return (np.random.default_rng(seed).random(count) < p).astype(int)


@dataclass(eq=False)
class RunTrace:
    """Per-iteration records; row k, at index k, describes the state after step k.

    rel_err is ||x - x*|| / ||x*|| (NaN without a reference); consensus_err
    is the Frobenius distance to the block-mean; objective and kkt_residual
    are evaluated at the network-average point. x and u are the (n, d)
    state after the last step.
    """

    theta: np.ndarray
    comms: np.ndarray
    rel_err: np.ndarray
    consensus_err: np.ndarray
    objective: np.ndarray
    kkt_residual: np.ndarray
    x: np.ndarray
    u: np.ndarray


@dataclass(frozen=True, eq=False)
class GridRun:
    """One run of a batch: its combiner pair and its coins, which run_grid
    draws as coin_flips(p, seed, iters)."""

    pair: CombinerPair
    p: float
    seed: int


class GridBlock(NamedTuple):
    """Steps k0 .. k0 + T - 1 of a batch, as run_grid hands them to its
    observer: the state each step leaves from and both successors it may
    take. The arrays are (T, S, n, d), row j describing step k0 + j of each
    of the S runs. grad = grad_stack(x); with the batch's stepsize alpha and
    each run's p, w = x - alpha grad and zu = w - sqrt(B) u, and a run whose
    coin says communicate moves to (x_comm, u_comm) =
    (prox(A zu), u + p sqrt(B) zu), one that skips to (x_skip, u) with
    x_skip = prox(zu). run_grid hands the blocks in step order, each step
    in exactly one; the arrays are views of its buffers, valid only during
    the call, and must not be modified."""

    k0: int
    x: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    x_comm: np.ndarray
    u_comm: np.ndarray
    x_skip: np.ndarray


def block_length(instance: ProblemInstance, count: int) -> int:
    """Steps per recording block of a batch of `count` runs: as many as keep
    count * n * width doubles a step within _BLOCK_BUDGET, and at least 1."""
    return max(1, _BLOCK_BUDGET // (count * instance.n * instance.width))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each (step, run) block of a (T, S, ...)
    stack: the dot product np.linalg.norm takes of the block alone, so the
    same bits."""
    flat = v.reshape(v.shape[:2] + (-1,))
    return np.vecdot(flat, flat)


def run_grid(
    instance: ProblemInstance,
    runs: list[GridRun],
    alpha: float,
    iters: int,
    reference: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    record_kkt: bool = True,
    observer=None,
) -> list[RunTrace]:
    """Run `iters` iterations of every GridRun in `runs` as one stacked
    (S, n, d) state, one RunTrace per run, in order.

    reference, broadcast to (S, n, d), is the replicated optimum used for
    relative errors; x0 is the (n, d) start of every run (zeros if None).
    Each step evaluates the stacked gradient once and both branches of the
    u-form transition once, and each run takes the branch its own coin
    picks. A run's trace is bitwise the same alone,
    in any batch and at any position in it, and for any block length, and
    identical arguments give an identical trace.

    The records and the divergence test are computed once per block of
    block_length steps (see the module docstring): a DivergenceError names
    the first step of the block whose iterate is not finite or has norm
    above _DIVERGENCE_NORM * max(1, ||reference||), the run's own reference
    (_DIVERGENCE_NORM without one), and is raised at the end of that block.

    observer(block), when given, is called with each GridBlock once the
    block has been recorded, so a block that diverges is never observed; it
    must not modify the arrays, and it does not alter the traces.
    """
    if iters < 1:
        raise SolverError("need at least one iteration")
    if not runs:
        raise SolverError("need at least one run")
    shape = (instance.n, instance.d)
    if x0 is not None and np.shape(x0) != shape:
        raise SolverError(f"x0 has shape {np.shape(x0)}, expected {shape}")
    if not (0.0 < alpha < 2.0 / instance.L):
        raise SolverError(f"stepsize {alpha} outside (0, 2/L) with L={instance.L}")
    count = len(runs)
    coins = np.stack([coin_flips(r.p, r.seed, iters) for r in runs])
    comms = np.cumsum(coins, axis=1) * np.array([r.pair.comm_rounds for r in runs])[:, None]
    take = coins.T.astype(bool)[:, :, None, None]
    p = np.array([r.p for r in runs])[:, None, None]
    a = np.stack([r.pair.a for r in runs])
    sqrt_b = np.stack([r.pair.sqrt_b for r in runs])
    prox = instance.prox.apply

    start = np.zeros(shape) if x0 is None else np.array(x0, dtype=float)
    u = np.zeros((count,) + shape)
    bound, ref_norm = _DIVERGENCE_NORM, None
    if reference is not None:
        reference = np.ascontiguousarray(np.broadcast_to(reference, u.shape))
        with np.errstate(over="ignore"):
            ref_norm = np.sqrt(_sq_norms(reference[None])[0])
            # capped below inf, so that an infinite norm always diverges
            bound = np.minimum(_DIVERGENCE_NORM * np.maximum(1.0, ref_norm), np.finfo(float).max)

    # Squared norms per step; the roots are taken once, after the loop.
    err_sq, kkt_sq = np.full((iters, count), np.nan), np.full((iters, count), np.nan)
    consensus_sq = np.empty((iters, count))
    objective = np.empty((iters, count))
    length = min(iters, block_length(instance, count))
    xs = np.empty((length + 1,) + u.shape)
    xs[0] = start
    # u, grad, x_comm, u_comm and x_skip of the block's steps
    steps = None if observer is None else np.empty((5, length) + u.shape)

    def record(k0: int, new: np.ndarray) -> None:
        """Check and measure steps k0 .. k0 + len(new) - 1 from their new iterates."""
        bad = np.flatnonzero(~(np.sqrt(_sq_norms(new)) <= bound).all(axis=1))
        if bad.size:
            raise DivergenceError(k0 + int(bad[0]))
        rows = slice(k0, k0 + len(new))
        if reference is not None:
            err_sq[rows] = _sq_norms(new - reference)
        mean_point = np.add.reduce(new, axis=2) / instance.n
        consensus_sq[rows] = _sq_norms(new - mean_point[:, :, None, :])
        objective[rows] = instance.objective(mean_point)
        if record_kkt:
            g = instance.mean_grad(mean_point)
            kkt_sq[rows] = _sq_norms(mean_point - prox(mean_point - alpha * g, alpha))

    # A diverging run overflows in the steps left in its block; the block's
    # divergence test reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            j = k % length
            x = xs[j]
            grad = instance.grad_stack(x)
            w = x - alpha * grad
            zu = w - sqrt_b @ u
            x_comm, u_comm = prox(a @ zu, alpha), u + p * (sqrt_b @ zu)
            x_skip = prox(zu, alpha)
            if steps is not None:
                for buffer, array in zip(steps, (u, grad, x_comm, u_comm, x_skip)):
                    buffer[j] = array
            xs[j + 1] = np.where(take[k], x_comm, x_skip)
            u = np.where(take[k], u_comm, u)
            if j == length - 1 or k == iters - 1:
                record(k - j, xs[1:j + 2])
                if observer is not None:
                    observer(GridBlock(k - j, xs[:j + 1], *steps[:, :j + 1]))
                xs[0] = xs[j + 1]

    x = xs[0].copy()
    # against a zero optimum, a finite error reads as an infinite relative one
    with np.errstate(over="ignore"):
        rel_err = err_sq if reference is None else (
            np.sqrt(err_sq) / np.maximum(ref_norm, 1e-300))
    consensus, kkt = np.sqrt(consensus_sq), np.sqrt(kkt_sq)
    return [
        RunTrace(
            theta=coins[s],
            comms=comms[s],
            rel_err=rel_err[:, s].copy(),
            consensus_err=consensus[:, s].copy(),
            objective=objective[:, s].copy(),
            kkt_residual=kkt[:, s].copy(),
            x=x[s],
            u=u[s],
        )
        for s in range(count)
    ]


def run(
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    p: float,
    seed: int,
    iters: int,
    reference: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    record_kkt: bool = True,
    observer=None,
) -> RunTrace:
    """One run of `iters` iterations driven by coin_flips(p, seed, iters): the
    one-run case of run_grid, with the same trace it gets in any batch.

    reference is the replicated (n, d) optimum used for relative errors.
    """
    return run_grid(instance, [GridRun(pair, p, seed)], alpha, iters, reference, x0,
                    record_kkt, observer)[0]


def centralized_proxgrad(
    instance: ProblemInstance,
    max_iters: int = 500_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Reference solver: proximal gradient on the consensus problem.

    Iterates x+ = prox(x - alpha * mean_grad(x)) at alpha = 1/L, since the
    consensus solution x* does not depend on the stepsize, until the
    fixed-point residual ||x - x+|| drops to tol; a residual that is not
    finite ends the solve at once.
    """
    alpha = 1.0 / instance.L
    x = np.zeros(instance.d)
    residual = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            x_next = instance.prox.apply(x - alpha * instance.mean_grad(x), alpha)
            residual = float(np.linalg.norm(x - x_next))
            x = x_next
            if residual <= tol:
                return x
            if not math.isfinite(residual):
                raise SolverError(f"reference solver residual is {residual} at iteration {k}")
    raise SolverError(
        f"reference solver hit {max_iters} iterations with residual {residual:.3e} > {tol:.1e}"
    )
