"""Fixed-point computation, exact conditional-expectation certificates for
the descent/contraction inequalities, and the communication-complexity
calculator.

Every "expectation" here is the exact two-point mixture over the coin
theta in {0, 1} (weights p and 1-p), so certificate slacks carry no
sampling noise. The certificates cover exactly the transition that
solver.run_grid takes: a GridCertificates observer receives each step of
the batch, stacked over its runs, with the gradient and both coin branches
(x_comm, u_comm) and (x_skip, u) the driver computed, and the successor
the driver reports is the branch its coin picked. It buffers the steps and
reads every inequality from those branches for all runs and a block of
steps at once, and CertificateObserver is its one-run case. The tests
match it bit for bit against single-state references of every
certificate, kept in tests/reference.py. Nothing here iterates on its own.
The certified quantities:

    Phi  = ||x - x*||^2 + (1/p^2) ||u - u*||^2
    Psi  = ||grad F(x) - grad F(x*)||^2 + ||u - u*||^2

with the descent inequality  E[Phi+ | theta] <= ||w - w*||^2
+ (1 - p^2 sigma_m(B)) (1/p^2) ||u - u*||^2, the linear contraction
E[Phi+ | theta] <= zeta Phi, and the sublinear step bound
E[Phi+ | theta] <= Phi - varrho Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combiners import CombinerPair
from .linalg import kron_apply, range_solve
from .problem import ProblemInstance
from .solver import GridStep, block_length, centralized_proxgrad, run

SLACK_TOL = 1e-9


class CertificateError(Exception):
    """An executable inequality was violated beyond tolerance."""


@dataclass(eq=False)
class FixedPoint:
    """Reference optimum (x*, w*, u*_b) with the residuals of its
    stationarity system; x_opt is the consensus solution of length d."""

    x_opt: np.ndarray
    x_star: np.ndarray
    w_star: np.ndarray
    u_star_b: np.ndarray
    kkt_residual: float


def fixed_point(
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    tol: float = 1e-12,
    max_iters: int = 2_000_000,
    x_opt: np.ndarray | None = None,
) -> FixedPoint:
    """Solve the consensus problem to `tol` and lift it to (x*, w*, u*_b).

    u*_b is the minimum-norm solution of B u = sqrt(B) w*, which puts it in
    range(sqrt(B)). All stationarity residuals are verified before return.
    Passing a precomputed x_opt skips the centralized solve (useful when
    several combiner pairs share one problem).
    """
    if x_opt is None:
        x_opt = centralized_proxgrad(instance, alpha, max_iters=max_iters, tol=tol)
    x_star = np.tile(x_opt, (instance.n, 1))
    w_star = x_star - alpha * instance.grad_stack(x_star)
    u_star = range_solve(pair.b, kron_apply(pair.sqrt_b, w_star), tol=1e-8)

    z_star = w_star - kron_apply(pair.sqrt_b, u_star)
    r_root = float(np.linalg.norm(kron_apply(pair.sqrt_b, z_star)))
    r_prox = float(
        np.linalg.norm(x_star - instance.prox.apply(kron_apply(pair.a, z_star), alpha))
    )
    mean_block = u_star.mean(axis=0)
    r_orth = math.sqrt(instance.n) * float(np.linalg.norm(mean_block))

    w_scale = 1.0 + float(np.linalg.norm(w_star))
    if r_root > 1e-8 * w_scale:
        raise CertificateError(f"fixed point violates the dual stationarity residual: {r_root:.3e}")
    if r_prox > 1e-8 * w_scale:
        raise CertificateError(f"fixed point violates the prox stationarity residual: {r_prox:.3e}")
    if r_orth > 1e-9 * (1.0 + float(np.linalg.norm(u_star))):
        raise CertificateError(f"u* has a null-space component of size {r_orth:.3e}")

    return FixedPoint(
        x_opt=x_opt,
        x_star=x_star,
        w_star=w_star,
        u_star_b=u_star,
        kkt_residual=max(r_root, r_prox, r_orth),
    )


def _sq(v: np.ndarray) -> float:
    # The method form runs the same add-reduction as np.sum, so the bits are
    # the same, without np.sum's dispatch cost.
    return float((v * v).sum())


def phi_value(x: np.ndarray, u: np.ndarray, p: float, fp: FixedPoint) -> float:
    return _sq(x - fp.x_star) + _sq(u - fp.u_star_b) / (p * p)


def zeta_c(big_l: float, mu: float, alpha: float) -> float:
    """Function-only part of the linear rate, max{(1-aL)^2, (1-a mu)^2}."""
    return max((1.0 - alpha * big_l) ** 2, (1.0 - alpha * mu) ** 2)


def zeta_rate(big_l: float, mu: float, alpha: float, p: float, sigma_m: float) -> float:
    """Linear contraction factor max{(1-aL)^2, (1-a mu)^2, 1 - p^2 sigma_m}."""
    return max(zeta_c(big_l, mu, alpha), 1.0 - p * p * sigma_m)


def skip_threshold(zc: float, sigma_m: float) -> float:
    """Smallest p that keeps the linear rate at its p = 1 value.

    Values above 1 mean no skipping is free (communicate every iteration).
    """
    return math.sqrt((1.0 - zc) / sigma_m)


def varrho(alpha: float, big_l: float, sigma_m: float) -> float:
    return min(alpha * (2.0 / big_l - alpha), sigma_m)


def averaged_iterate_bound(
    x_avg: np.ndarray,
    u_avg: np.ndarray,
    x0: np.ndarray,
    iters: int,
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    p: float,
    fp: FixedPoint,
) -> tuple[float, float]:
    """Realized-path averaged bound: returns (measured, Phi0 / (varrho K))."""
    gdiff = instance.grad_stack(x_avg) - instance.grad_stack(fp.x_star)
    measured = _sq(gdiff) + _sq(u_avg - fp.u_star_b)
    phi0 = phi_value(x0, np.zeros_like(u_avg), p, fp)
    bound = phi0 / (varrho(alpha, instance.L, pair.sigma_m_b) * iters)
    return measured, bound


@dataclass(eq=False)
class CertificateSweep:
    """Per-iteration slacks along one trajectory; entry k certifies the
    transition from iterate k to k + 1."""

    lemma2_slack: np.ndarray
    lemma2_rhs: np.ndarray
    thm1_slack: np.ndarray
    thm2_slack: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    zeta: float | None

    def min_slacks(self) -> dict[str, float]:
        out = {
            "lemma2": float(np.min(self.lemma2_slack)),
            "thm1": float(np.min(self.thm1_slack)),
        }
        if self.zeta is not None:
            out["thm2"] = float(np.min(self.thm2_slack))
        return out

    def violations(self, tol: float = SLACK_TOL) -> list[tuple[str, int]]:
        """(inequality, iteration) pairs where the slack dips below -tol
        relative to its reference scale."""
        bad = []
        idx = np.nonzero(self.lemma2_slack < -tol * (1.0 + self.lemma2_rhs))[0]
        if idx.size:
            bad.append(("lemma2", int(idx[0])))
        idx = np.nonzero(self.thm1_slack < -tol * (1.0 + self.phi))[0]
        if idx.size:
            bad.append(("thm1", int(idx[0])))
        if self.zeta is not None:
            idx = np.nonzero(self.thm2_slack < -tol * (1.0 + self.phi))[0]
            if idx.size:
                bad.append(("thm2", int(idx[0])))
        return bad


def _sq_rows(v: np.ndarray) -> np.ndarray:
    # Per (step, run) of a (T, S, n, d) block, the same add-reduction as _sq
    # of the (n, d) state, over its flat (T, S, n d) view.
    v = v.reshape(v.shape[:2] + (-1,))
    return (v * v).sum(axis=-1)


class GridCertificates:
    """solver.run_grid observer that certifies every transition of every
    run in the batch it watches; run s pairs pairs[s] with fps[s].

    Each call copies the GridStep's seven arrays (its state, gradient,
    adapt step and both coin branches) into preallocated block buffers of
    solver.block_length steps. A full block, and the block that ends at step
    iters - 1, is certified at once: Phi, Psi and the three slacks for every
    run and step of the block. sweeps certifies any steps still pending.
    Each run's columns are bitwise what the single-state references of
    tests/reference.py give on its states, whatever the block length.
    grad_stack(x*) is evaluated once, here. Column k of each array
    certifies step k.
    """

    def __init__(self, instance: ProblemInstance, pairs: list[CombinerPair],
                 fps: list[FixedPoint], iters: int):
        self.instance = instance
        self.iters = iters
        self.sigma = np.array([pair.sigma_m_b for pair in pairs])
        self.x_star, self.w_star, self.u_star = (
            np.stack([getattr(fp, name) for fp in fps]) for name in ("x_star", "w_star", "u_star_b"))
        self.grad_star = instance.grad_stack(self.x_star)
        self.check_linear = instance.mu > 0.0
        shape = (len(pairs), iters)
        self.lemma2_slack, self.lemma2_rhs, self.thm1_slack, self.phi, self.psi = (
            np.empty(shape) for _ in range(5))
        self.thm2_slack = np.full(shape, np.nan)
        self.zeta = self.varrho = self.p = None
        # x, u, grad, w, x_comm, u_comm and x_skip of steps k0, k0 + 1, ...
        length = min(iters, block_length(instance, len(pairs)))
        self._block = np.empty((7, length) + self.x_star.shape)
        self._k0, self._pending = 0, 0

    def _rates(self, alpha: float, p: np.ndarray) -> None:
        big_l, mu = self.instance.L, self.instance.mu
        self.p = p
        self.varrho = np.array([varrho(alpha, big_l, s) for s in self.sigma])
        if self.check_linear:
            self.zeta = np.array([zeta_rate(big_l, mu, alpha, float(pk), s)
                                  for pk, s in zip(p, self.sigma)])

    def __call__(self, step: GridStep) -> None:
        if step.k == 0:  # alpha and p arrive with the steps and stay fixed for the run
            self._rates(step.alpha, step.p)
        if not self._pending:
            self._k0 = step.k
        for buffer, array in zip(self._block, step[3:]):
            buffer[self._pending] = array
        self._pending += 1
        if self._pending == self._block.shape[1] or step.k == self.iters - 1:
            self._certify()

    def _certify(self) -> None:
        """Read the slacks of the pending steps from the block buffers."""
        x, u, grad, w, x_comm, u_comm, x_skip = self._block[:, :self._pending]
        p = self.p
        pp = p * p
        u_gap = _sq_rows(u - self.u_star)
        u_term = u_gap / pp
        phi_comm = _sq_rows(x_comm - self.x_star) + _sq_rows(u_comm - self.u_star) / pp
        phi_skip = _sq_rows(x_skip - self.x_star) + u_term
        expected_phi = p * phi_comm + (1.0 - p) * phi_skip
        phi = _sq_rows(x - self.x_star) + u_term
        psi = _sq_rows(grad - self.grad_star) + u_gap
        rhs = _sq_rows(w - self.w_star) + (1.0 - pp * self.sigma) * u_gap / pp
        cols = slice(self._k0, self._k0 + self._pending)
        self.phi[:, cols], self.psi[:, cols] = phi.T, psi.T
        self.lemma2_slack[:, cols], self.lemma2_rhs[:, cols] = (rhs - expected_phi).T, rhs.T
        self.thm1_slack[:, cols] = (phi - expected_phi - self.varrho * psi).T
        if self.check_linear:
            self.thm2_slack[:, cols] = (self.zeta * phi - expected_phi).T
        self._pending = 0

    @property
    def sweeps(self) -> list[CertificateSweep]:
        """One CertificateSweep per run, viewing this observer's columns."""
        if self._pending:
            self._certify()
        return [
            CertificateSweep(
                lemma2_slack=self.lemma2_slack[s], lemma2_rhs=self.lemma2_rhs[s],
                thm1_slack=self.thm1_slack[s], thm2_slack=self.thm2_slack[s],
                phi=self.phi[s], psi=self.psi[s],
                zeta=None if self.zeta is None else float(self.zeta[s]),
            )
            for s in range(self.phi.shape[0])
        ]


class CertificateObserver(GridCertificates):
    """The one-run case of GridCertificates, for solver.run."""

    def __init__(self, instance: ProblemInstance, pair: CombinerPair, fp: FixedPoint,
                 iters: int):
        super().__init__(instance, [pair], [fp], iters)

    @property
    def sweep(self) -> CertificateSweep:
        return self.sweeps[0]


def sweep_certificates(
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    p: float,
    seed: int,
    iters: int,
    fp: FixedPoint,
    x0: np.ndarray | None = None,
) -> CertificateSweep:
    """Certify every transition of solver.run with the same arguments
    (same coins, same iterates); the trace itself is discarded."""
    observer = CertificateObserver(instance, pair, fp, iters)
    run(instance, pair, alpha, p, seed, iters, x0=x0,
        record_kkt=False, record_objective=False, observer=observer)
    return observer.sweep


@dataclass(eq=False)
class ComplexityEstimate:
    iterations: float
    communications: float
    p_star: float


def complexity(kappa: float, sigma_m: float, rounds: int, p: float, eps: float) -> ComplexityEstimate:
    """Expected iteration/communication counts to accuracy eps, and the
    communication-optimal probability p* = min(1, 1/sqrt(kappa sigma_m))."""
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if not (0.0 < sigma_m <= 1.0):
        raise ValueError(f"sigma_m must lie in (0, 1], got {sigma_m}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    log_term = math.log(1.0 / eps)
    iterations = max(kappa, 1.0 / (p * p * sigma_m)) * log_term
    communications = rounds * (p * kappa + 1.0 / (p * sigma_m)) * log_term
    return ComplexityEstimate(
        iterations=iterations,
        communications=communications,
        p_star=min(1.0, 1.0 / math.sqrt(kappa * sigma_m)),
    )
