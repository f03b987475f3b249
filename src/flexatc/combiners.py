"""Combiner pairs (A, B): polynomials in the mixing matrix that drive the
combine step of the adapt-then-combine family.

Presets (selected by config string):

    nids:c=0.5    A = I - c(I - W),     B = c(I - W),        1 round
    ed            A = (I + W)/2,        B = (I - W)/2,       1 round
    mg_ed:N=3     A = (I + W^N)/2,      B = (I - W^N)/2,     N rounds
    atc_gt        A = W^2,              B = (I - W)^2,       2 rounds
    mg_sonata:N=2 A = W^(2N),           B = (I - W^N)^2,     2N rounds

The multi-gossip and gradient-tracking presets require a PSD mixing matrix
(lazify first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MixingMatrix
from .linalg import (
    DEFAULT_EIG_TOL,
    SymMatrix,
    min_nonzero_from_eigenvalues,
    sqrt_from_decomposition,
    sym_eig,
)

PRESET_NAMES = ("nids", "ed", "mg_ed", "atc_gt", "mg_sonata")


class CombinerError(Exception):
    """A combiner pair violates one of its structural requirements."""


@dataclass(eq=False)
class CheckResult:
    name: str
    passed: bool
    margin: float
    note: str = ""


@dataclass(eq=False)
class ValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            note = f" ({c.note})" if c.note else ""
            out.append(f"{c.name}: {status}, margin {c.margin:+.3e}{note}")
        return "\n".join(out)


@dataclass(eq=False)
class CombinerPair:
    """Validated (A, B) pair with its communication cost and spectral data."""

    a: SymMatrix
    b: SymMatrix
    w: SymMatrix
    variant: str
    comm_rounds: int
    sigma_m_b: float
    sqrt_b: SymMatrix


def parse_variant(text: str) -> tuple[str, dict[str, float]]:
    """Split a config string like "nids:c=0.5" into name and parameters."""
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise CombinerError(f"malformed combiner parameter {item!r} in {text!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise CombinerError(f"non-numeric combiner parameter in {text!r}") from exc
    return name, params


def _validate_matrices(a: np.ndarray, b: np.ndarray, w: np.ndarray, tol: float):
    n = a.shape[0]
    ones = np.ones(n)
    checks = []

    sym_err = max(np.max(np.abs(a - a.T)), np.max(np.abs(b - b.T)))
    checks.append(CheckResult("symmetry", sym_err <= 1e-10, -float(sym_err)))

    row_err = np.max(np.abs(a @ ones - ones))
    checks.append(CheckResult("a_row_sums_one", row_err <= 1e-10, -float(row_err)))

    dec_b = sym_eig(SymMatrix(b))
    lam_b = dec_b.eigenvalues
    checks.append(CheckResult("b_psd", lam_b[0] >= -tol, float(lam_b[0])))

    null_dim = int(np.sum(lam_b <= DEFAULT_EIG_TOL * max(lam_b[-1], 0.0)))
    checks.append(
        CheckResult(
            "b_null_space_span_ones",
            null_dim == 1,
            -float(abs(null_dim - 1)),
            note=f"null dimension {null_dim}",
        )
    )

    gap = SymMatrix(np.eye(n) - a @ a - b)
    lam_gap = sym_eig(gap).eigenvalues
    checks.append(CheckResult("contraction_psd", lam_gap[0] >= -tol, float(lam_gap[0])))

    comm_aw = np.max(np.abs(a @ w - w @ a))
    comm_bw = np.max(np.abs(b @ w - w @ b))
    comm_ab = np.max(np.abs(a @ b - b @ a))
    checks.append(CheckResult("a_commutes_with_w", comm_aw <= 1e-10, -float(comm_aw)))
    checks.append(CheckResult("b_commutes_with_w", comm_bw <= 1e-10, -float(comm_bw)))
    checks.append(CheckResult("a_commutes_with_b", comm_ab <= 1e-10, -float(comm_ab)))

    return ValidationReport(checks), dec_b


def validate(pair: CombinerPair, tol: float = 1e-9) -> ValidationReport:
    """Check every structural condition on (A, B) from scratch; never raises.

    Margins are lambda_min for PSD conditions and -max_error for equality
    conditions, so a comfortable pass is a margin well above -tol.
    """
    report, _ = _validate_matrices(pair.a.entries, pair.b.entries, pair.w.entries, tol)
    return report


def _build(
    a: np.ndarray,
    b: np.ndarray,
    w: MixingMatrix,
    variant: str,
    comm_rounds: int,
) -> CombinerPair:
    a_sym, b_sym = SymMatrix(a), SymMatrix(b)
    report, dec_b = _validate_matrices(a_sym.entries, b_sym.entries, w.w.entries, 1e-9)
    if not report.ok:
        failed = ", ".join(c.name for c in report.failures())
        raise CombinerError(f"combiner {variant!r} violates: {failed}\n{report}")
    return CombinerPair(
        a=a_sym,
        b=b_sym,
        w=w.w,
        variant=variant,
        comm_rounds=comm_rounds,
        sigma_m_b=min_nonzero_from_eigenvalues(dec_b.eigenvalues),
        sqrt_b=sqrt_from_decomposition(dec_b),
    )


def _require_psd(w: MixingMatrix, variant: str) -> None:
    if not w.psd:
        raise CombinerError(
            f"combiner {variant!r} requires a PSD mixing matrix; apply lazify first"
        )


def preset(variant: str, w: MixingMatrix) -> CombinerPair:
    """Build a named combiner pair from a config string (see module doc)."""
    name, params = parse_variant(variant)
    eye = np.eye(w.n)
    wm = w.w.entries

    if name == "nids":
        c = params.pop("c", 0.5)
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for nids")
        if not (0.0 < c <= 0.5):
            raise CombinerError(f"nids requires c in (0, 1/2], got {c}")
        lap = eye - wm
        return _build(eye - c * lap, c * lap, w, f"nids:c={c:g}", 1)

    if name == "ed":
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for ed")
        return _build(0.5 * (eye + wm), 0.5 * (eye - wm), w, "ed", 1)

    if name in ("mg_ed", "mg_sonata"):
        _require_psd(w, name)
        rounds = params.pop("N", None)
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for {name}")
        if rounds is None or rounds != int(rounds) or rounds < 1:
            raise CombinerError(f"{name} requires an integer N >= 1, got {rounds}")
        n_gossip = int(rounds)
        wn = np.linalg.matrix_power(wm, n_gossip)
        if name == "mg_ed":
            return _build(
                0.5 * (eye + wn), 0.5 * (eye - wn), w, f"mg_ed:N={n_gossip}", n_gossip
            )
        return _build(
            wn @ wn, (eye - wn) @ (eye - wn), w, f"mg_sonata:N={n_gossip}", 2 * n_gossip
        )

    if name == "atc_gt":
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for atc_gt")
        _require_psd(w, name)
        lap = eye - wm
        return _build(wm @ wm, lap @ lap, w, "atc_gt", 2)

    raise CombinerError(f"unknown combiner variant {name!r}")


def custom_pair(a, b, w: MixingMatrix, comm_rounds: int) -> CombinerPair:
    """Wrap user-provided matrices; validation always runs."""
    return _build(np.asarray(a, float), np.asarray(b, float), w, "custom", comm_rounds)


def sigma_m(pair: CombinerPair) -> float:
    """Minimum nonzero eigenvalue of B; zero means the pair is unusable."""
    if pair.sigma_m_b <= 0.0:
        raise CombinerError(f"combiner {pair.variant!r} has sigma_m(B) = 0")
    return pair.sigma_m_b
