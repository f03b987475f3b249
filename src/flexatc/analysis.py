"""Fixed-point computation, exact conditional-expectation certificates for
the descent/contraction inequalities, and the communication-complexity
calculator. The fixed point makes no eigendecomposition.

Every "expectation" here is the exact two-point mixture over the coin
theta in {0, 1} (weights p and 1-p), so certificate slacks carry no
sampling noise. The certificates cover exactly the transition that
solver.run_grid takes: a GridCertificates observer, whose rates are fixed
by the batch's runs, fixed points and stepsize, receives each block of
steps of the batch, stacked over its runs, with the gradient and both coin
branches (x_comm, u_comm) and (x_skip, u) the driver computed, and the
successor the driver reports is the branch its coin picked. It reads every
inequality from those branches for all runs and all steps of the block at
once, into the block's columns; it keeps no state between blocks. The
tests match it bit for bit against single-state references of every
certificate, kept in tests/reference.py.
Nothing here iterates on its own.
The certified quantities:

    Phi  = ||x - x*||^2 + (1/p^2) ||u - u*||^2
    Psi  = ||grad F(x) - grad F(x*)||^2 + ||u - u*||^2

with the descent inequality  E[Phi+ | theta] <= ||w - w*||^2
+ (1 - p^2 sigma_m) (1/p^2) ||u - u*||^2, the linear contraction
E[Phi+ | theta] <= zeta Phi, and the sublinear step bound
E[Phi+ | theta] <= Phi - varrho Psi, where sigma_m is the pair's
sigma_m_b, the smallest nonzero eigenvalue of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combiners import CombinerPair
from .linalg import LinalgError, kron_apply, norm
from .problem import ProblemInstance
from .solver import GridBlock, GridRun, SolverError, run

SLACK_TOL = 1e-9


class CertificateError(Exception):
    """An executable inequality was violated beyond tolerance."""


@dataclass(eq=False)
class FixedPoint:
    """Reference optimum (x*, w*, u*_b) with the residuals of its
    stationarity system."""

    x_star: np.ndarray
    w_star: np.ndarray
    u_star_b: np.ndarray
    kkt_residual: float


def fixed_point(
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    x_opt: np.ndarray,
) -> FixedPoint:
    """Lift the consensus solution x_opt, of length d, to (x*, w*, u*_b) at
    alpha; solver.centralized_proxgrad solves for x_opt.

    u*_b, the minimum-norm solution of B u = sqrt(B) w*, is one linear solve,
    (sqrt(B) + 11^T/n) u = w* - mean(w*), as null(B) = span(1) exactly.
    All stationarity residuals are verified before return; a singular
    solve raises LinalgError, and an overflowing w* - mean(w*) SolverError.
    """
    x_star = np.tile(x_opt, (instance.n, 1))
    w_star = x_star - alpha * instance.grad_stack(x_star)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = w_star - w_star.mean(axis=0)
    if not np.all(np.isfinite(rhs)):
        raise SolverError("fixed point overflows float64: w* - mean(w*) is not finite")
    try:
        u_star = np.linalg.solve(pair.sqrt_b + 1.0 / instance.n, rhs)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"fixed point solve failed: {exc}") from exc

    z_star = w_star - kron_apply(pair.sqrt_b, u_star)
    r_root = norm(kron_apply(pair.sqrt_b, z_star))
    r_prox = norm(x_star - instance.prox.apply(kron_apply(pair.a, z_star), alpha))
    r_orth = math.sqrt(instance.n) * norm(u_star.mean(axis=0))

    w_scale = 1.0 + norm(w_star)
    if r_root > 1e-8 * w_scale:
        raise CertificateError(f"fixed point violates the dual stationarity residual: {r_root:.3e}")
    if r_prox > 1e-8 * w_scale:
        raise CertificateError(f"fixed point violates the prox stationarity residual: {r_prox:.3e}")
    if r_orth > 1e-9 * (1.0 + norm(u_star)):
        raise CertificateError(f"u* has a null-space component of size {r_orth:.3e}")

    return FixedPoint(
        x_star=x_star,
        w_star=w_star,
        u_star_b=u_star,
        kkt_residual=max(r_root, r_prox, r_orth),
    )


def zeta_c(big_l: float, mu: float, alpha: float) -> float:
    """Function-only part of the linear rate, max{(1-aL)^2, (1-a mu)^2}."""
    return max((1.0 - alpha * big_l) ** 2, (1.0 - alpha * mu) ** 2)


def zeta_rate(big_l: float, mu: float, alpha: float, p: float, sigma_m: float) -> float:
    """Linear contraction factor max{(1-aL)^2, (1-a mu)^2, 1 - p^2 sigma_m}."""
    return max(zeta_c(big_l, mu, alpha), 1.0 - p * p * sigma_m)


def varrho(alpha: float, big_l: float, sigma_m: float) -> float:
    return min(alpha * (2.0 / big_l - alpha), sigma_m)


@dataclass(eq=False)
class CertificateSweep:
    """Per-iteration slacks along one trajectory; entry k certifies the
    transition from iterate k to k + 1. Each inequality's slack is read
    against its reference scale: lemma2 against lemma2_rhs, thm1 and thm2
    against phi; thm2 is certified only when zeta is set."""

    lemma2_slack: np.ndarray
    lemma2_rhs: np.ndarray
    thm1_slack: np.ndarray
    thm2_slack: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    zeta: float | None

    @property
    def _inequalities(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, slacks, scales) of each inequality this sweep certifies."""
        out = [("lemma2", self.lemma2_slack, self.lemma2_rhs), ("thm1", self.thm1_slack, self.phi)]
        if self.zeta is not None:
            out.append(("thm2", self.thm2_slack, self.phi))
        return out

    def min_slacks(self) -> dict[str, float]:
        return {name: float(np.min(slack)) for name, slack, _ in self._inequalities}

    def violations(self) -> list[tuple[str, int]]:
        """(inequality, iteration) pairs where the slack dips below -SLACK_TOL
        relative to its reference scale, or is NaN."""
        bad = []
        for name, slack, scale in self._inequalities:
            # a slack that is not a number fails too
            idx = np.flatnonzero(~(slack >= -SLACK_TOL * (1.0 + scale)))
            if idx.size:
                bad.append((name, int(idx[0])))
        return bad


def _sq_rows(v: np.ndarray) -> np.ndarray:
    # Per (step, run) of a (T, S, n, d) block, one add-reduction over its
    # flat (T, S, n d) view: the one tests/reference.py's _sq takes of an
    # (n, d) state, so the single-state references agree bit for bit.
    v = v.reshape(v.shape[:2] + (-1,))
    return (v * v).sum(axis=-1)


class GridCertificates:
    """solver.run_grid observer that certifies every transition of every
    run in the batch it watches, stepped with stepsize alpha; run s pairs
    runs[s] with fps[s].

    Each call certifies one GridBlock: Phi, Psi and the three slacks for
    every run and step of the block, read from its state, gradient, adapt
    step w = x - alpha grad and both coin branches, into the block's
    columns. A Phi, Psi or lemma-2 right-hand side that is not finite
    leaves no slack to read, so it raises SolverError naming its step.
    Each run's columns are bitwise what the single-state references of
    tests/reference.py give on its states, whatever the block length.
    grad_stack(x*) and the rates are evaluated once, here. Column k of each
    array certifies step k.
    """

    def __init__(self, instance: ProblemInstance, runs: list[GridRun],
                 fps: list[FixedPoint], alpha: float, iters: int):
        self.alpha = alpha
        self.p = np.array([r.p for r in runs])
        self.sigma = np.array([r.pair.sigma_m_b for r in runs])
        self.x_star, self.w_star, self.u_star = (
            np.stack([getattr(fp, name) for fp in fps]) for name in ("x_star", "w_star", "u_star_b"))
        self.grad_star = instance.grad_stack(self.x_star)
        big_l, mu = instance.L, instance.mu
        self.varrho = np.array([varrho(alpha, big_l, s) for s in self.sigma])
        self.zeta = (np.array([zeta_rate(big_l, mu, alpha, r.p, s)
                               for r, s in zip(runs, self.sigma)]) if mu > 0.0 else None)
        shape = (len(runs), iters)
        self.lemma2_slack, self.lemma2_rhs, self.thm1_slack, self.phi, self.psi = (
            np.empty(shape) for _ in range(5))
        self.thm2_slack = np.full(shape, np.nan)

    def __call__(self, block: GridBlock) -> None:
        x, u, grad, x_comm, u_comm, x_skip = block[1:]
        p = self.p
        pp = p * p
        u_gap = _sq_rows(u - self.u_star)
        u_term = u_gap / pp
        phi_comm = _sq_rows(x_comm - self.x_star) + _sq_rows(u_comm - self.u_star) / pp
        phi_skip = _sq_rows(x_skip - self.x_star) + u_term
        expected_phi = p * phi_comm + (1.0 - p) * phi_skip
        phi = _sq_rows(x - self.x_star) + u_term
        psi = _sq_rows(grad - self.grad_star) + u_gap
        w = x - self.alpha * grad
        rhs = _sq_rows(w - self.w_star) + (1.0 - pp * self.sigma) * u_gap / pp
        finite = np.isfinite(phi) & np.isfinite(psi) & np.isfinite(rhs)
        bad = np.flatnonzero(~finite.all(axis=1))
        if bad.size:
            raise SolverError(
                f"certificate terms overflow float64 at iteration {block.k0 + int(bad[0])}")
        cols = slice(block.k0, block.k0 + len(x))
        self.phi[:, cols], self.psi[:, cols] = phi.T, psi.T
        self.lemma2_slack[:, cols], self.lemma2_rhs[:, cols] = (rhs - expected_phi).T, rhs.T
        self.thm1_slack[:, cols] = (phi - expected_phi - self.varrho * psi).T
        if self.zeta is not None:
            self.thm2_slack[:, cols] = (self.zeta * phi - expected_phi).T

    @property
    def sweeps(self) -> list[CertificateSweep]:
        """One CertificateSweep per run, viewing this observer's columns."""
        return [
            CertificateSweep(
                lemma2_slack=self.lemma2_slack[s], lemma2_rhs=self.lemma2_rhs[s],
                thm1_slack=self.thm1_slack[s], thm2_slack=self.thm2_slack[s],
                phi=self.phi[s], psi=self.psi[s],
                zeta=None if self.zeta is None else float(self.zeta[s]),
            )
            for s in range(self.phi.shape[0])
        ]


def sweep_certificates(
    instance: ProblemInstance,
    pair: CombinerPair,
    alpha: float,
    p: float,
    seed: int,
    iters: int,
    fp: FixedPoint,
) -> CertificateSweep:
    """Certify every transition of solver.run with the same arguments from
    the zero start (same coins, same iterates); the trace is discarded."""
    observer = GridCertificates(instance, [GridRun(pair, p, seed)], [fp], alpha, iters)
    run(instance, pair, alpha, p, seed, iters, record_kkt=False, observer=observer)
    return observer.sweeps[0]


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
