"""The unified adapt-then-combine iteration with probabilistic
communication skipping, its square-root-dual mirror, the communication-free
primal recursion used for cross-validation, and a centralized
proximal-gradient reference solver.

One iteration from state (x, y), with stepsize alpha and coin theta:

    w = x - alpha * grad F(x)                      (adapt, always local)
    theta = 1:  x+ = prox(A (w + y)),  y+ = y - p B (w + y)   (communicate)
    theta = 0:  x+ = prox(w + y),      y+ = y                 (skip)

The mirror variable u tracks y = -sqrt(B) u and is updated as
u+ = u + p theta sqrt(B) (w - sqrt(B) u); both forms generate the same
x-sequence given the same coins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .combiners import CombinerPair
from .linalg import kron_apply
from .problem import ProblemInstance

_DIVERGENCE_NORM = 1e12
_COIN_CHUNK = 1024


class DivergenceError(Exception):
    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = iteration
        self.detail = detail
        super().__init__(f"divergence detected at iteration {iteration}" + (f": {detail}" if detail else ""))

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not from the formatted
        # message, so the error keeps its text across the process pool.
        return type(self), (self.iteration, self.detail)


class SolverError(Exception):
    pass


@dataclass(eq=False)
class CoinSequence:
    """Deterministic Bernoulli(p) coin flips theta_0, theta_1, ...

    Draws come from a single seeded stream in index order, so every consumer
    that shares (p, seed) replays identical randomness.
    """

    p: float
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)
    _buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise SolverError(f"probability must lie in (0, 1], got {self.p}")
        self._rng = np.random.default_rng(self.seed)
        self._buf = np.empty(0, dtype=int)

    def _extend(self, upto: int) -> None:
        if self._buf.size >= upto:
            return
        # Batch size does not alter the underlying uniform stream, so any
        # access pattern sees the same coins.
        need = max(upto - self._buf.size, _COIN_CHUNK)
        fresh = (self._rng.random(need) < self.p).astype(int)
        self._buf = np.concatenate([self._buf, fresh])

    def theta(self, k: int) -> int:
        self._extend(k + 1)
        return int(self._buf[k])

    def draw(self, count: int) -> np.ndarray:
        self._extend(count)
        return self._buf[:count].copy()


@dataclass(eq=False)
class SolverState:
    """Stacked iterates plus counters; x, y, u are (n, d) arrays."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    k: int
    comms: int
    alpha: float
    p: float


def initial_state(instance: ProblemInstance, alpha: float, p: float,
                  x0: np.ndarray | None = None) -> SolverState:
    """Fresh state with y = u = 0; x0 defaults to all agents at zero."""
    shape = (instance.n, instance.d)
    if x0 is None:
        x = np.zeros(shape)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != shape:
            raise SolverError(f"x0 has shape {x.shape}, expected {shape}")
    if not (0.0 < alpha < 2.0 / instance.L):
        raise SolverError(f"stepsize {alpha} outside (0, 2/L) with L={instance.L}")
    if not (0.0 < p <= 1.0):
        raise SolverError(f"probability must lie in (0, 1], got {p}")
    return SolverState(x=x, y=np.zeros(shape), u=np.zeros(shape),
                       k=0, comms=0, alpha=alpha, p=p)


def _check_finite(x: np.ndarray, k: int) -> None:
    if not np.all(np.isfinite(x)) or np.linalg.norm(x) > _DIVERGENCE_NORM:
        raise DivergenceError(k, "stepsize likely out of range")


def flexatc_step(state: SolverState, instance: ProblemInstance,
                 pair: CombinerPair, theta: int, mirror: bool = True,
                 grad: np.ndarray | None = None) -> SolverState:
    """Advance one iteration; communication happens only when theta = 1.

    The u mirror costs two extra combine applications per communication and
    is only needed by diagnostics; pass mirror=False to leave u untouched.
    grad, when given, is grad_stack(state.x) already evaluated by the caller.
    """
    alpha, p = state.alpha, state.p
    if grad is None:
        grad = instance.grad_stack(state.x)
    w = state.x - alpha * grad
    if theta:
        z = w + state.y
        x_next = instance.prox.apply(kron_apply(pair.a, z), alpha)
        y_next = state.y - p * kron_apply(pair.b, z)
        if mirror:
            zu = w - kron_apply(pair.sqrt_b, state.u)
            u_next = state.u + p * kron_apply(pair.sqrt_b, zu)
        else:
            u_next = state.u
        comms = state.comms + pair.comm_rounds
    else:
        x_next = instance.prox.apply(w + state.y, alpha)
        y_next = state.y
        u_next = state.u
        comms = state.comms
    _check_finite(x_next, state.k)
    return replace(state, x=x_next, y=y_next, u=u_next, k=state.k + 1, comms=comms)


def mirror_step(state: SolverState, instance: ProblemInstance,
                pair: CombinerPair, theta: int,
                grad: np.ndarray | None = None) -> SolverState:
    """Same iteration driven purely by the u variable (y is ignored)."""
    alpha, p = state.alpha, state.p
    if grad is None:
        grad = instance.grad_stack(state.x)
    w = state.x - alpha * grad
    zu = w - kron_apply(pair.sqrt_b, state.u)
    if theta:
        x_next = instance.prox.apply(kron_apply(pair.a, zu), alpha)
        u_next = state.u + p * kron_apply(pair.sqrt_b, zu)
        comms = state.comms + pair.comm_rounds
    else:
        x_next = instance.prox.apply(zu, alpha)
        u_next = state.u
        comms = state.comms
    _check_finite(x_next, state.k)
    return replace(state, x=x_next, y=-kron_apply(pair.sqrt_b, u_next),
                   u=u_next, k=state.k + 1, comms=comms)


@dataclass(eq=False)
class RunTrace:
    """Per-iteration records; row k describes the state after step k.

    rel_err is ||x - x*|| / ||x*|| (NaN without a reference); consensus_err
    is the Frobenius distance to the block-mean; objective and kkt_residual
    are evaluated at the network-average point. x_avg and u_avg average the
    K iterates seen before each step (k = 0 .. K-1).
    """

    k: np.ndarray
    theta: np.ndarray
    comms: np.ndarray
    rel_err: np.ndarray
    consensus_err: np.ndarray
    objective: np.ndarray
    kkt_residual: np.ndarray
    x_avg: np.ndarray
    u_avg: np.ndarray
    x0: np.ndarray
    final: SolverState


def _consensus_err(x: np.ndarray) -> float:
    mean = x.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(x - mean))


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
    record_objective: bool = True,
    mirror: bool = True,
    step=flexatc_step,
    observer=None,
) -> RunTrace:
    """Run `iters` iterations driven by CoinSequence(p, seed).

    reference is the replicated (n, d) optimum used for relative errors.
    Deterministic: identical arguments give an identical trace.

    Each iteration evaluates the stacked gradient once and hands it to
    `step`. observer(k, state, grad, w), when given, is called before step k
    with the state it leaves from, grad = grad_stack(state.x) and
    w = state.x - alpha * grad; it must not modify them, and it sees the u
    mirror only while mirror is on. The observer does not alter the trace.
    """
    if iters < 1:
        raise SolverError("need at least one iteration")
    if reference is not None and hasattr(reference, "x_star"):
        reference = reference.x_star
    coins = CoinSequence(p, seed).draw(iters)
    state = initial_state(instance, alpha, p, x0)
    start = state.x.copy()
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else 0.0

    x_sum = np.zeros_like(state.x)
    u_sum = np.zeros_like(state.u)
    comms = np.empty(iters, dtype=int)
    rel_err = np.full(iters, np.nan)
    consensus = np.empty(iters)
    objective = np.full(iters, np.nan)
    kkt = np.full(iters, np.nan)

    if step is flexatc_step:
        step = partial(flexatc_step, mirror=mirror)
    for k in range(iters):
        x_sum += state.x
        u_sum += state.u
        grad = instance.grad_stack(state.x)
        if observer is not None:
            observer(k, state, grad, state.x - alpha * grad)
        state = step(state, instance, pair, int(coins[k]), grad=grad)
        comms[k] = state.comms
        if reference is not None:
            rel_err[k] = np.linalg.norm(state.x - reference) / max(ref_norm, 1e-300)
        consensus[k] = _consensus_err(state.x)
        if record_objective or record_kkt:
            mean_point = state.x.mean(axis=0)
        if record_objective:
            objective[k] = instance.objective(mean_point)
        if record_kkt:
            g = instance.mean_grad(mean_point)
            kkt[k] = np.linalg.norm(
                mean_point - instance.prox.apply(mean_point - alpha * g, alpha)
            )

    return RunTrace(
        k=np.arange(iters),
        theta=coins,
        comms=comms,
        rel_err=rel_err,
        consensus_err=consensus,
        objective=objective,
        kkt_residual=kkt,
        x_avg=x_sum / iters,
        u_avg=u_sum / iters,
        x0=start,
        final=state,
    )


def primal_recursion_step(
    x_k: np.ndarray,
    x_prev: np.ndarray,
    grad_k: np.ndarray,
    grad_prev: np.ndarray,
    pair: CombinerPair,
    alpha: float,
) -> np.ndarray:
    """One step of the equivalent single-variable recursion (p = 1, no prox):

    x+ = x - A x_prev - B x + A (x - alpha (grad F(x) - grad F(x_prev)))

    Valid from k >= 1 given a history produced by the two-variable form.
    """
    correction = x_k - alpha * (grad_k - grad_prev)
    return (
        x_k
        - kron_apply(pair.a, x_prev)
        - kron_apply(pair.b, x_k)
        + kron_apply(pair.a, correction)
    )


def centralized_proxgrad(
    instance: ProblemInstance,
    alpha: float,
    max_iters: int = 500_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Reference solver: proximal gradient on the consensus problem.

    Iterates x+ = prox(x - alpha * mean_grad(x)) until the fixed-point
    residual ||x - x+|| drops to tol.
    """
    if not (0.0 < alpha < 2.0 / instance.L):
        raise SolverError(f"stepsize {alpha} outside (0, 2/L) with L={instance.L}")
    x = np.zeros(instance.d)
    residual = np.inf
    for _ in range(max_iters):
        x_next = instance.prox.apply(x - alpha * instance.mean_grad(x), alpha)
        residual = float(np.linalg.norm(x - x_next))
        x = x_next
        if residual <= tol:
            return x
    raise SolverError(
        f"reference solver hit {max_iters} iterations with residual {residual:.3e} > {tol:.1e}"
    )
