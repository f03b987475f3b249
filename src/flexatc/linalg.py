"""Dense symmetric-matrix kernel on plain arrays: eigendecomposition (LAPACK
through numpy.linalg.eigh), pseudo-inverse solves, and block-wise (Kronecker)
application of small n x n matrices to stacked vectors.
"""

from __future__ import annotations

import numpy as np

# Relative threshold separating structural zero eigenvalues from round-off.
DEFAULT_EIG_TOL = 1e-9


class LinalgError(Exception):
    """Numerical failure or contract violation in the dense kernel."""


def _square(a: np.ndarray) -> np.ndarray:
    """a as a finite, square, 2-D float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix entries must be finite")
    return a


def sym_eig(a: np.ndarray):
    """numpy.linalg.eigh of the symmetric part 0.5 * (a + a.T), which is a
    itself when a is exactly symmetric: eigenvalues ascending with matching
    orthonormal eigenvector columns, as its eigenvalues and eigenvectors fields."""
    a = _square(a)
    try:
        return np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigendecomposition failed: {exc}") from exc


def kron_apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply m (x) I_d to an (n, d) array of per-block rows without
    materializing the Kronecker product."""
    m = _square(m)
    x = np.asarray(x, dtype=float)
    n = m.shape[0]
    if x.ndim != 2 or x.shape[0] != n:
        raise LinalgError(f"cannot apply {n}x{n} matrix block-wise to shape {x.shape}")
    return m @ x


def range_solve(b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm (n, d) u with (b (x) I) u = rhs, for PSD b and an (n, d)
    rhs in range(b).

    The null-space projection of rhs must be at most DEFAULT_EIG_TOL * ||rhs||;
    anything larger means the right-hand side is inconsistent. The solution
    carries no null-space component.
    """
    dec = sym_eig(b)
    lam = dec.eigenvalues
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2 or rhs.shape[0] != lam.size:
        raise LinalgError(f"rhs shape {rhs.shape} does not match a {lam.size}-block stacked vector")

    scale = max(abs(lam[0]), abs(lam[-1]), 1.0)
    if lam[0] < -DEFAULT_EIG_TOL * scale:
        raise LinalgError(f"matrix is not PSD: eigenvalue {lam[0]:.3e}")
    keep = lam > DEFAULT_EIG_TOL * max(lam[-1], 0.0)

    coeffs = dec.eigenvectors.T @ rhs
    null_resid = np.linalg.norm(coeffs[~keep])
    if null_resid > DEFAULT_EIG_TOL * max(np.linalg.norm(rhs), 1e-300):
        raise LinalgError(
            f"rhs lies outside range(b): null-space residual {null_resid:.3e}"
        )
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    return dec.eigenvectors @ (inv[:, None] * coeffs)
