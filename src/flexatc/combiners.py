"""Combiner pairs (A, B): polynomials in the mixing matrix that drive the
combine step of the adapt-then-combine family.

Presets (selected by config string), as maps of an eigenvalue lam of W:

    nids:c=0.5    A = 1 - c(1 - lam),   B = c(1 - lam),       1 round
    ed            A = (1 + lam)/2,      B = (1 - lam)/2,      1 round
    mg_ed:N=3     A = (1 + lam^N)/2,    B = (1 - lam^N)/2,    N rounds
    atc_gt        A = lam^2,            B = (1 - lam)^2,      2 rounds
    mg_sonata:N=2 A = lam^(2N),         B = (1 - lam^N)^2,    2N rounds

A, B and sqrt(B) are formed on W's one eigendecomposition, and the
structural assumptions (row sums, B >= 0, null(B) = span(1),
I - A^2 - B >= 0) are checked on those scalars. validate() is the
independent dense audit of a built pair.

The multi-gossip and gradient-tracking presets require a PSD mixing matrix
(lazify first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MixingMatrix
from .linalg import DEFAULT_EIG_TOL, sym_eig


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

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    variant: str
    comm_rounds: int
    sigma_m_b: float
    sqrt_b: np.ndarray


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


def validate(pair: CombinerPair, tol: float = 1e-9) -> ValidationReport:
    """Audit every structural condition on the dense (A, B) from scratch,
    independently of how the pair was built; a non-finite matrix raises LinalgError.

    Margins are lambda_min for PSD conditions and -max_error for equality
    conditions, so a comfortable pass is a margin well above -tol.
    """
    a, b, w = pair.a, pair.b, pair.w
    n = a.shape[0]
    ones = np.ones(n)
    checks = []

    sym_err = max(np.max(np.abs(a - a.T)), np.max(np.abs(b - b.T)))
    checks.append(CheckResult("symmetry", sym_err <= 1e-10, -float(sym_err)))

    row_err = np.max(np.abs(a @ ones - ones))
    checks.append(CheckResult("a_row_sums_one", row_err <= 1e-10, -float(row_err)))

    lam_b = sym_eig(b).eigenvalues
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

    lam_gap = sym_eig(np.eye(n) - a @ a - b).eigenvalues
    checks.append(CheckResult("contraction_psd", lam_gap[0] >= -tol, float(lam_gap[0])))

    comm_aw = np.max(np.abs(a @ w - w @ a))
    comm_bw = np.max(np.abs(b @ w - w @ b))
    comm_ab = np.max(np.abs(a @ b - b @ a))
    checks.append(CheckResult("a_commutes_with_w", comm_aw <= 1e-10, -float(comm_aw)))
    checks.append(CheckResult("b_commutes_with_w", comm_bw <= 1e-10, -float(comm_bw)))
    checks.append(CheckResult("a_commutes_with_b", comm_ab <= 1e-10, -float(comm_ab)))

    return ValidationReport(checks)


def _build(w: MixingMatrix, variant: str, comm_rounds: int, f, g) -> CombinerPair:
    """Pair A = f(W), B = g(W) from the scalar maps f and g on W's spectrum.

    W's top eigenvalue is simple and 1 to within 1e-10 (graph._make_mixing),
    so it is pinned to exactly 1.0: every preset then has f(1) = 1 and
    g(1) = 0 exactly. The structural conditions reduce to scalar checks;
    symmetry and commutation with W hold by construction.
    """
    dec = w.decomposition
    lam = dec.eigenvalues.copy()
    lam[-1] = 1.0
    fl, gl = f(lam), g(lam)
    checks = {
        "a_row_sums_one": fl[-1] == 1.0,
        "b_psd": np.all(gl >= 0.0),
        "b_null_space_span_ones": gl[-1] == 0.0 and np.all(gl[:-1] > 0.0),
        "contraction_psd": np.all(1.0 - fl * fl - gl >= -1e-9),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CombinerError(f"combiner {variant!r} violates: {', '.join(failed)}")
    v = dec.eigenvectors

    # v @ diag @ v.T is symmetric only up to round-off, so keep its symmetric part
    def spectral(values: np.ndarray) -> np.ndarray:
        s = v @ (values[:, None] * v.T)
        return 0.5 * (s + s.T)

    return CombinerPair(
        a=spectral(fl),
        b=spectral(gl),
        w=w.w,
        variant=variant,
        comm_rounds=comm_rounds,
        sigma_m_b=float(np.min(gl[:-1])) if w.n > 1 else 0.0,
        sqrt_b=spectral(np.sqrt(gl)),
    )


def _require_psd(w: MixingMatrix, variant: str) -> None:
    if not w.psd:
        raise CombinerError(
            f"combiner {variant!r} requires a PSD mixing matrix; apply lazify first"
        )


def preset(variant: str, w: MixingMatrix) -> CombinerPair:
    """Build a named combiner pair from a config string (see module doc)."""
    name, params = parse_variant(variant)

    if name in ("nids", "ed"):
        c = params.pop("c", 0.5) if name == "nids" else 0.5
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for {name}")
        if not (0.0 < c <= 0.5):
            raise CombinerError(f"nids requires c in (0, 1/2], got {c}")
        # ed is nids at c = 1/2, built from the same expressions so the two
        # pairs are bitwise equal
        label = f"nids:c={c:g}" if name == "nids" else "ed"
        return _build(w, label, 1, lambda lam: 1.0 - c * (1.0 - lam), lambda lam: c * (1.0 - lam))

    if name in ("mg_ed", "mg_sonata"):
        _require_psd(w, name)
        rounds = params.pop("N", None)
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for {name}")
        if rounds is None or not 1 <= rounds < np.inf or rounds != int(rounds):
            raise CombinerError(f"{name} requires an integer N >= 1, got {rounds}")
        k = int(rounds)
        if name == "mg_ed":
            return _build(w, f"mg_ed:N={k}", k,
                          lambda lam: 0.5 * (1.0 + lam**k), lambda lam: 0.5 * (1.0 - lam**k))
        return _build(w, f"mg_sonata:N={k}", 2 * k,
                      lambda lam: lam ** (2 * k), lambda lam: (1.0 - lam**k) ** 2)

    if name == "atc_gt":
        if params:
            raise CombinerError(f"unknown parameters {sorted(params)} for atc_gt")
        _require_psd(w, name)
        return _build(w, "atc_gt", 2, lambda lam: lam * lam, lambda lam: (1.0 - lam) ** 2)

    raise CombinerError(f"unknown combiner variant {name!r}")
