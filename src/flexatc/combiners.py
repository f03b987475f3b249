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
independent dense audit of a built pair: one named CheckResult per condition.

A config string is "name" or "name:key=value". preset checks the name, then
the parameter, then the PSD mixing matrix that the multi-gossip and
gradient-tracking presets require (lazify first), then the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MixingMatrix
from .linalg import DEFAULT_EIG_TOL, sym_eig

PSD_TOL = 1e-9


class CombinerError(Exception):
    """A combiner pair violates one of its structural requirements."""


@dataclass(eq=False)
class CheckResult:
    name: str
    passed: bool
    margin: float
    note: str = ""


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
    """Split a config string "name" or "name:key=value", like "nids:c=0.5",
    into the name and its parameter."""
    name, _, rest = text.strip().partition(":")
    params: dict[str, float] = {}
    if rest:
        key, _, val = rest.partition("=")
        if not val:
            raise CombinerError(f"malformed combiner parameter {rest!r} in {text!r}")
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise CombinerError(f"non-numeric combiner parameter in {text!r}") from exc
    return name.strip(), params


def validate(pair: CombinerPair) -> list[CheckResult]:
    """Audit every structural condition on the dense (A, B) from scratch,
    independently of how the pair was built, one CheckResult per condition;
    a non-finite matrix raises LinalgError.

    Margins are lambda_min for PSD conditions and -max_error for equality
    conditions, an exact zero error reading +0.0, so a comfortable pass is
    a margin well above -PSD_TOL.
    """
    a, b, w = pair.a, pair.b, pair.w
    n = a.shape[0]

    def equal(name: str, err: float) -> CheckResult:
        return CheckResult(name, err <= 1e-10, 0.0 - float(err))

    sym_err = max(np.max(np.abs(a - a.T)), np.max(np.abs(b - b.T)))
    lam_b = sym_eig(b).eigenvalues
    null_dim = int(np.sum(lam_b <= DEFAULT_EIG_TOL * max(lam_b[-1], 0.0)))
    lam_gap = sym_eig(np.eye(n) - a @ a - b).eigenvalues
    return [
        equal("symmetry", sym_err),
        equal("a_row_sums_one", np.max(np.abs(a @ np.ones(n) - 1.0))),
        CheckResult("b_psd", lam_b[0] >= -PSD_TOL, float(lam_b[0])),
        CheckResult("b_null_space_span_ones", null_dim == 1, float(-abs(null_dim - 1)),
                    note=f"null dimension {null_dim}"),
        CheckResult("contraction_psd", lam_gap[0] >= -PSD_TOL, float(lam_gap[0])),
        equal("a_commutes_with_w", np.max(np.abs(a @ w - w @ a))),
        equal("b_commutes_with_w", np.max(np.abs(b @ w - w @ b))),
        equal("a_commutes_with_b", np.max(np.abs(a @ b - b @ a))),
    ]


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
        "contraction_psd": np.all(1.0 - fl * fl - gl >= -PSD_TOL),
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


# The one parameter each preset takes, if any
_PARAMETER = {"nids": "c", "mg_ed": "N", "mg_sonata": "N", "ed": None, "atc_gt": None}
_PSD_ONLY = ("mg_ed", "atc_gt", "mg_sonata")


def preset(variant: str, w: MixingMatrix) -> CombinerPair:
    """Build a named combiner pair from a config string (see module doc)."""
    name, params = parse_variant(variant)
    if name not in _PARAMETER:
        raise CombinerError(f"unknown combiner variant {name!r}")
    if set(params) - {_PARAMETER[name]}:
        raise CombinerError(f"unknown parameters {sorted(params)} for {name}")
    if name in _PSD_ONLY and not w.psd:
        raise CombinerError(
            f"combiner {name!r} requires a PSD mixing matrix; apply lazify first"
        )

    if name in ("nids", "ed"):
        c = params.get("c", 0.5)
        if not (0.0 < c <= 0.5):
            raise CombinerError(f"nids requires c in (0, 1/2], got {c}")
        # ed is nids at c = 1/2, built from the same expressions so the two
        # pairs are bitwise equal
        label = f"nids:c={c:g}" if name == "nids" else "ed"
        return _build(w, label, 1, lambda lam: 1.0 - c * (1.0 - lam), lambda lam: c * (1.0 - lam))

    if name == "atc_gt":
        return _build(w, "atc_gt", 2, lambda lam: lam * lam, lambda lam: (1.0 - lam) ** 2)

    rounds = params.get("N")
    if rounds is None or not 1 <= rounds < np.inf or rounds != int(rounds):
        raise CombinerError(f"{name} requires an integer N >= 1, got {rounds}")
    k = int(rounds)
    if name == "mg_ed":
        return _build(w, f"mg_ed:N={k}", k,
                      lambda lam: 0.5 * (1.0 + lam**k), lambda lam: 0.5 * (1.0 - lam**k))
    return _build(w, f"mg_sonata:N={k}", 2 * k,
                  lambda lam: lam ** (2 * k), lambda lam: (1.0 - lam**k) ** 2)
