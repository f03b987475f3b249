"""Dense symmetric-matrix kernel: eigendecomposition (LAPACK through
numpy.linalg.eigh), pseudo-inverse solves, and block-wise (Kronecker)
application of small n x n matrices to stacked vectors.
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


def sym_eig(m: SymMatrix):
    """Full eigendecomposition of a symmetric matrix: numpy.linalg.eigh's
    result, eigenvalues ascending with matching orthonormal eigenvector
    columns, as its eigenvalues and eigenvectors fields."""
    try:
        return np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigendecomposition failed: {exc}") from exc


def kron_apply(m: SymMatrix, x: np.ndarray) -> np.ndarray:
    """Apply m (x) I_d to an (n, d) array of per-block rows without
    materializing the Kronecker product."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != m.n:
        raise LinalgError(f"cannot apply {m.n}x{m.n} matrix block-wise to shape {x.shape}")
    return m.entries @ x


def range_solve(
    b: SymMatrix,
    rhs: np.ndarray,
    tol: float = 1e-9,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> np.ndarray:
    """Minimum-norm (n, d) u with (b (x) I) u = rhs, for PSD b and an (n, d)
    rhs in range(b).

    The null-space projection of rhs must be at most tol * ||rhs||; anything
    larger means the right-hand side is inconsistent. The solution carries no
    null-space component.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2 or rhs.shape[0] != b.n:
        raise LinalgError(f"rhs shape {rhs.shape} does not match a {b.n}-block stacked vector")

    dec = sym_eig(b)
    lam = dec.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]), 1.0)
    if lam[0] < -eig_tol * scale:
        raise LinalgError(f"matrix is not PSD: eigenvalue {lam[0]:.3e}")
    keep = lam > eig_tol * max(lam[-1], 0.0)

    coeffs = dec.eigenvectors.T @ rhs
    null_resid = np.linalg.norm(coeffs[~keep])
    if null_resid > tol * max(np.linalg.norm(rhs), 1e-300):
        raise LinalgError(
            f"rhs lies outside range(b): null-space residual {null_resid:.3e}"
        )
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    return dec.eigenvectors @ (inv[:, None] * coeffs)
