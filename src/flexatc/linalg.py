"""Dense symmetric-matrix kernel: eigendecomposition (LAPACK through
numpy.linalg.eigh), PSD square roots, pseudo-inverse solves, and block-wise
(Kronecker) application of small n x n matrices to stacked vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold separating structural zero eigenvalues from round-off.
DEFAULT_EIG_TOL = 1e-9


class LinalgError(Exception):
    """Numerical failure or contract violation in the dense kernel."""


@dataclass(eq=False)
class SymMatrix:
    """Dense symmetric matrix; construction symmetrizes the input exactly."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise LinalgError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise LinalgError("matrix entries must be finite")
        self.entries = 0.5 * (a + a.T)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        if isinstance(other, SymMatrix):
            return self.entries @ other.entries
        return self.entries @ np.asarray(other)


def identity(n: int) -> SymMatrix:
    return SymMatrix(np.eye(n))


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def sym_eig(m: SymMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues, eigenvectors)


def sqrt_from_decomposition(dec: SpectralDecomposition, tol: float = DEFAULT_EIG_TOL) -> SymMatrix:
    """PSD square root from an existing decomposition (see psd_sqrt)."""
    lam = dec.eigenvalues
    if lam[0] < -tol:
        raise LinalgError(f"matrix is not PSD: eigenvalue {lam[0]:.3e} < -{tol:.1e}")
    # Structural zeros that round off to ~1e-16 would otherwise be amplified
    # to sqrt-scale (~1e-8) and leak out of the null space.
    null_cut = DEFAULT_EIG_TOL * max(lam[-1], 0.0)
    root = np.where(lam > null_cut, np.sqrt(np.clip(lam, 0.0, None)), 0.0)
    return SymMatrix(dec.eigenvectors @ (root[:, None] * dec.eigenvectors.T))


def psd_sqrt(m: SymMatrix, tol: float = DEFAULT_EIG_TOL) -> SymMatrix:
    """Symmetric PSD square root; eigenvalues in [-tol, 0) are clamped to 0."""
    return sqrt_from_decomposition(sym_eig(m), tol)


def min_nonzero_from_eigenvalues(lam: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> float:
    lam_max = lam[-1]
    if lam_max <= 0.0:
        return 0.0
    above = lam[lam > tol * lam_max]
    return float(above[0]) if above.size else 0.0


def min_nonzero_eig(m: SymMatrix, tol: float = DEFAULT_EIG_TOL) -> float:
    """Smallest eigenvalue above tol * lambda_max; 0 if every one is below."""
    return min_nonzero_from_eigenvalues(sym_eig(m).eigenvalues, tol)


def kron_apply(m: SymMatrix, x: np.ndarray) -> np.ndarray:
    """Apply m (x) I_d to a stacked vector without materializing it.

    Accepts either a flat vector of n*d entries or an (n, d) array of
    per-block rows; the output matches the input layout.
    """
    x = np.asarray(x, dtype=float)
    n = m.n
    if x.ndim == 1:
        if x.size == 0 or x.size % n != 0:
            raise LinalgError(f"stacked vector of length {x.size} is not divisible into {n} blocks")
        return (m.entries @ x.reshape(n, -1)).reshape(-1)
    if x.ndim == 2 and x.shape[0] == n:
        return m.entries @ x
    raise LinalgError(f"cannot apply {n}x{n} matrix block-wise to shape {x.shape}")


def range_solve(
    b: SymMatrix,
    rhs: np.ndarray,
    tol: float = 1e-9,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> np.ndarray:
    """Minimum-norm u with (b (x) I) u = rhs, for PSD b and rhs in range(b).

    The null-space projection of rhs must be at most tol * ||rhs||; anything
    larger means the right-hand side is inconsistent. The solution carries no
    null-space component.
    """
    rhs = np.asarray(rhs, dtype=float)
    flat = rhs.ndim == 1
    n = b.n
    if flat:
        if rhs.size == 0 or rhs.size % n != 0:
            raise LinalgError(f"rhs of length {rhs.size} is not divisible into {n} blocks")
        rhs2 = rhs.reshape(n, -1)
    elif rhs.ndim == 2 and rhs.shape[0] == n:
        rhs2 = rhs
    else:
        raise LinalgError(f"rhs shape {rhs.shape} does not match a {n}-block stacked vector")

    dec = sym_eig(b)
    lam = dec.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]), 1.0)
    if lam[0] < -eig_tol * scale:
        raise LinalgError(f"matrix is not PSD: eigenvalue {lam[0]:.3e}")
    keep = lam > eig_tol * max(lam[-1], 0.0)

    coeffs = dec.eigenvectors.T @ rhs2
    null_resid = np.linalg.norm(coeffs[~keep])
    if null_resid > tol * max(np.linalg.norm(rhs2), 1e-300):
        raise LinalgError(
            f"rhs lies outside range(b): null-space residual {null_resid:.3e}"
        )
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    u2 = dec.eigenvectors @ (inv[:, None] * coeffs)
    return u2.reshape(-1) if flat else u2
