"""Single-step references the tests hold the package against.

solver.run_grid advances a whole batch of runs as one stacked u-form state,
and analysis.GridCertificates certifies every run of it at once. Here is the
same arithmetic one state at a time: the u-form step (mirror_step, which
run_grid matches bit for bit), the paper's y-form step (flexatc_step, equal
up to round-off), the p = 1 primal recursion, and every certificate of one
state (branch_outcomes and the three checks, which GridCertificates matches
bit for bit). initial_state starts a single-state loop, and
IterateAverages is the run_grid observer behind the averaged-iterate
bound.
"""

from dataclasses import dataclass, replace

import numpy as np

from flexatc.analysis import CertificateError, FixedPoint, _sq, phi_value, varrho, zeta_rate
from flexatc.combiners import CombinerPair
from flexatc.linalg import kron_apply
from flexatc.problem import ProblemInstance
from flexatc.solver import _DIVERGENCE_NORM, DivergenceError, GridBlock, SolverError, SolverState


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


class IterateAverages:
    """run_grid observer averaging the iterates each run leaves from,
    x_k and u_k for k = 0 .. K-1, stacked (S, n, d) over the batch. The
    sums add one step at a time, in step order."""

    def __init__(self):
        self.x_sum = self.u_sum = None
        self.steps = 0

    def __call__(self, block: GridBlock) -> None:
        if self.x_sum is None:
            self.x_sum, self.u_sum = np.zeros_like(block.x[0]), np.zeros_like(block.u[0])
        for x, u in zip(block.x, block.u):
            self.x_sum += x
            self.u_sum += u
        self.steps += len(block.x)

    @property
    def x_avg(self) -> np.ndarray:
        return self.x_sum / self.steps

    @property
    def u_avg(self) -> np.ndarray:
        return self.u_sum / self.steps


def _check_finite(x: np.ndarray, k: int) -> None:
    if not np.all(np.isfinite(x)) or np.linalg.norm(x) > _DIVERGENCE_NORM:
        raise DivergenceError(k, "stepsize likely out of range")


def flexatc_step(state: SolverState, instance: ProblemInstance,
                 pair: CombinerPair, theta: int) -> SolverState:
    """Advance the y-form one iteration; communication happens only when
    theta = 1. The u mirror is advanced beside y."""
    alpha, p = state.alpha, state.p
    w = state.x - alpha * instance.grad_stack(state.x)
    if theta:
        z = w + state.y
        x_next = instance.prox.apply(kron_apply(pair.a, z), alpha)
        y_next = state.y - p * kron_apply(pair.b, z)
        zu = w - kron_apply(pair.sqrt_b, state.u)
        u_next = state.u + p * kron_apply(pair.sqrt_b, zu)
        comms = state.comms + pair.comm_rounds
    else:
        x_next = instance.prox.apply(w + state.y, alpha)
        y_next = state.y
        u_next = state.u
        comms = state.comms
    _check_finite(x_next, state.k)
    return replace(state, x=x_next, y=y_next, u=u_next, k=state.k + 1, comms=comms)


def mirror_step(state: SolverState, instance: ProblemInstance,
                pair: CombinerPair, theta: int) -> SolverState:
    """The u-form iteration run_grid advances, one step (y is ignored and
    returned as -sqrt(B) u)."""
    alpha, p = state.alpha, state.p
    w = state.x - alpha * instance.grad_stack(state.x)
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


@dataclass(eq=False)
class BranchOutcomes:
    """Both coin outcomes of the transition out of one state (x, u).

    With zu = w - sqrt(B) u, theta = 1 leads to (x_comm, u_comm) =
    (prox(A zu), u + p sqrt(B) zu) and theta = 0 to (x_skip, u). phi and
    psi describe the state itself, phi_comm and phi_skip the two successors,
    and expected_phi = p phi_comm + (1 - p) phi_skip is E[Phi+ | theta].
    u_gap is ||u - u*||^2.
    """

    w: np.ndarray
    x_comm: np.ndarray
    u_comm: np.ndarray
    x_skip: np.ndarray
    u_gap: float
    phi: float
    psi: float
    phi_comm: float
    phi_skip: float
    expected_phi: float


def branch_outcomes(
    state: SolverState,
    instance: ProblemInstance,
    pair: CombinerPair,
    fp: FixedPoint,
    grad_star: np.ndarray | None = None,
) -> BranchOutcomes:
    """Evaluate both branches of one transition exactly; grad_star is
    grad_stack(fp.x_star), evaluated here if not given."""
    alpha, p = state.alpha, state.p
    if grad_star is None:
        grad_star = instance.grad_stack(fp.x_star)
    grad = instance.grad_stack(state.x)
    w = state.x - alpha * grad
    zu = w - kron_apply(pair.sqrt_b, state.u)
    x_comm = instance.prox.apply(kron_apply(pair.a, zu), alpha)
    u_comm = state.u + p * kron_apply(pair.sqrt_b, zu)
    x_skip = instance.prox.apply(zu, alpha)

    u_gap = _sq(state.u - fp.u_star_b)
    u_term = u_gap / (p * p)
    phi_comm = phi_value(x_comm, u_comm, p, fp)
    phi_skip = _sq(x_skip - fp.x_star) + u_term
    return BranchOutcomes(
        w=w, x_comm=x_comm, u_comm=u_comm, x_skip=x_skip,
        u_gap=u_gap,
        phi=_sq(state.x - fp.x_star) + u_term,
        psi=_sq(grad - grad_star) + u_gap,
        phi_comm=phi_comm,
        phi_skip=phi_skip,
        expected_phi=p * phi_comm + (1.0 - p) * phi_skip,
    )


def lemma2_check(
    state: SolverState,
    instance: ProblemInstance,
    pair: CombinerPair,
    fp: FixedPoint,
) -> tuple[float, float]:
    """(slack, RHS) of the one-step descent inequality; the slack must stay
    above -tol * (1 + RHS)."""
    out = branch_outcomes(state, instance, pair, fp)
    p = state.p
    rhs = _sq(out.w - fp.w_star) + (1.0 - p * p * pair.sigma_m_b) * out.u_gap / (p * p)
    return rhs - out.expected_phi, rhs


def theorem2_check(
    state: SolverState,
    instance: ProblemInstance,
    pair: CombinerPair,
    fp: FixedPoint,
) -> tuple[float, float]:
    """(zeta, contraction slack zeta*Phi - E[Phi+]); needs mu > 0."""
    if instance.mu <= 0.0:
        raise CertificateError("linear-rate certificate requires a strongly convex instance")
    zeta = zeta_rate(instance.L, instance.mu, state.alpha, state.p, pair.sigma_m_b)
    out = branch_outcomes(state, instance, pair, fp)
    return zeta, zeta * out.phi - out.expected_phi


def theorem1_step_check(
    state: SolverState,
    instance: ProblemInstance,
    pair: CombinerPair,
    fp: FixedPoint,
    grad_star: np.ndarray | None = None,
) -> float:
    """Slack of Phi - E[Phi+] - varrho * Psi >= 0 (convex case allowed)."""
    rho = varrho(state.alpha, instance.L, pair.sigma_m_b)
    out = branch_outcomes(state, instance, pair, fp, grad_star)
    return out.phi - out.expected_phi - rho * out.psi
