import numpy as np
import pytest

import flexatc as fa
from flexatc.combiners import (
    CombinerError,
    CombinerPair,
    _build,
    parse_variant,
    preset,
    validate,
)
from flexatc.linalg import LinalgError, sym_eig


def w_eigs_ring(n: int) -> np.ndarray:
    """Circulant eigenvalues of the n-ring Metropolis matrix."""
    return np.array([(1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0 for k in range(n)])


class TestPresets:
    def test_ed_matches_hand_built_matrices(self, ring4):
        w = ring4.w
        pair = preset("ed", ring4)
        assert np.allclose(pair.a, 0.5 * (np.eye(4) + w), atol=1e-15)
        assert np.allclose(pair.b, 0.5 * (np.eye(4) - w), atol=1e-15)
        assert pair.comm_rounds == 1

    def test_nids_half_equals_ed(self, ring4):
        nids = preset("nids:c=0.5", ring4)
        ed = preset("ed", ring4)
        assert np.array_equal(nids.a, ed.a)
        assert np.array_equal(nids.b, ed.b)

    def test_ed_sigma_m_ring4(self, ring4):
        # nonzero eigenvalues of B = (I - W)/2 are (1 - lambda)/2 over the
        # circulant spectrum; the smallest is 1/3
        lam_b = 0.5 * (1.0 - w_eigs_ring(4))
        expected = np.min(lam_b[lam_b > 1e-12])
        pair = preset("ed", ring4)
        assert pair.sigma_m_b == pytest.approx(expected, abs=1e-12)
        assert pair.sigma_m_b == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_atc_gt_contraction_factorization(self, ring4):
        lazy = fa.lazify(ring4)
        pair = preset("atc_gt", lazy)
        lam = lazy.decomposition.eigenvalues
        direct = 1.0 - lam**4 - (1.0 - lam) ** 2
        factored = lam * (1.0 - lam) * (2.0 + lam + lam**2)
        assert np.allclose(direct, factored, atol=1e-12)
        assert np.min(direct) >= -1e-12
        gap = np.eye(4) - pair.a @ pair.a - pair.b
        assert sym_eig(gap).eigenvalues[0] >= -1e-9

    def test_atc_gt_sigma_on_lazified_complete3(self, complete3):
        # lazify maps lambda_2 = 0 to 1/2, so B = (I - W)^2 has sigma_m 1/4
        pair = preset("atc_gt", fa.lazify(complete3))
        assert pair.sigma_m_b == pytest.approx(0.25, abs=1e-12)

    def test_mg_ed_sigma_monotone_in_rounds(self, ring4):
        lazy = fa.lazify(ring4)
        sigmas = [preset(f"mg_ed:N={k}", lazy).sigma_m_b for k in (1, 2, 4)]
        assert sigmas[0] <= sigmas[1] <= sigmas[2] <= 0.5 + 1e-12

    def test_comm_rounds_per_variant(self, ring10):
        lazy = fa.lazify(ring10)
        assert preset("nids:c=0.5", ring10).comm_rounds == 1
        assert preset("ed", ring10).comm_rounds == 1
        assert preset("mg_ed:N=3", lazy).comm_rounds == 3
        assert preset("atc_gt", lazy).comm_rounds == 2
        assert preset("mg_sonata:N=2", lazy).comm_rounds == 4

    def test_mg_sonata_matrices(self, ring4):
        lazy = fa.lazify(ring4)
        w = lazy.w
        pair = preset("mg_sonata:N=2", lazy)
        w2 = w @ w
        assert np.allclose(pair.a, w2 @ w2, atol=1e-14)
        assert np.allclose(pair.b, (np.eye(4) - w2) @ (np.eye(4) - w2), atol=1e-14)

    # ring(4) Metropolis has a -1/3 eigenvalue, so it is the non-PSD W, and
    # its lazified form the PSD one. preset checks the name, then the
    # parameter, then the PSD need, then the value: each row has one fault,
    # but the last, whose foreign parameter is named before the PSD need.
    @pytest.mark.parametrize("variant, lazified, message", [
        ("extra", True, "unknown combiner variant 'extra'"),
        ("ed:N=2", True, "unknown parameters ['N'] for ed"),
        ("nids:N=2", True, "unknown parameters ['N'] for nids"),
        ("atc_gt:c=0.3", True, "unknown parameters ['c'] for atc_gt"),
        ("mg_ed:c=0.3", True, "unknown parameters ['c'] for mg_ed"),
        ("mg_sonata:c=0.3", True, "unknown parameters ['c'] for mg_sonata"),
        ("mg_ed:N=2", False, "combiner 'mg_ed' requires a PSD mixing matrix; apply lazify first"),
        ("atc_gt", False, "combiner 'atc_gt' requires a PSD mixing matrix; apply lazify first"),
        ("mg_sonata:N=1", False,
         "combiner 'mg_sonata' requires a PSD mixing matrix; apply lazify first"),
        ("nids:c=0.9", True, "nids requires c in (0, 1/2], got 0.9"),
        ("nids:c=0", False, "nids requires c in (0, 1/2], got 0.0"),
        ("mg_ed:N=0.5", True, "mg_ed requires an integer N >= 1, got 0.5"),
        ("mg_ed:x=1", False, "unknown parameters ['x'] for mg_ed"),
    ])
    def test_rejects_naming_the_first_fault(self, ring4, variant, lazified, message):
        with pytest.raises(CombinerError) as exc:
            preset(variant, fa.lazify(ring4) if lazified else ring4)
        assert str(exc.value) == message


class TestValidate:
    def _raw_pair(self, a, b, w, rounds=1):
        lam, vec = np.linalg.eigh(b)
        keep = lam > 1e-9 * max(lam[-1], 0.0)
        return CombinerPair(
            a=a, b=b, w=w, variant="custom", comm_rounds=rounds,
            sigma_m_b=float(lam[keep][0]) if keep.any() else 0.0,
            sqrt_b=vec @ (np.sqrt(np.where(keep, lam, 0.0))[:, None] * vec.T),
        )

    def test_all_presets_pass_on_test_graphs(self, ring10):
        graphs = [
            ring10,
            fa.metropolis_weights(fa.gen_topology("complete", 5)),
            fa.metropolis_weights(fa.gen_topology("erdos_renyi", 12, seed=4, q=0.4)),
        ]
        for mm in graphs:
            lazy = fa.lazify(mm)
            for variant in ("nids:c=0.5", "ed", "mg_ed:N=3", "atc_gt", "mg_sonata:N=2"):
                pick = mm if variant in ("nids:c=0.5", "ed") else lazy
                checks = validate(preset(variant, pick))
                assert all(c.passed for c in checks)
                assert min(c.margin for c in checks) >= -1e-9

    def test_overshooting_nids_fails_contraction(self, ring4):
        # c = 0.9 pushes c * lambda(I - W) past 1, turning I - A^2 - B
        # indefinite: c lambda (1 - c lambda) < 0
        c = 0.9
        lap = np.eye(4) - ring4.w
        checks = validate(self._raw_pair(np.eye(4) - c * lap, c * lap, ring4.w))
        failing = {r.name for r in checks if not r.passed}
        assert failing == {"contraction_psd"}
        margin = next(r.margin for r in checks if r.name == "contraction_psd")
        lam_lap = 1.0 - w_eigs_ring(4)
        assert margin == pytest.approx(np.min(c * lam_lap * (1.0 - c * lam_lap)), abs=1e-10)

    def test_zero_b_fails_null_dimension(self, ring4):
        checks = validate(self._raw_pair(np.eye(4), np.zeros((4, 4)), ring4.w))
        assert "b_null_space_span_ones" in {r.name for r in checks if not r.passed}

    def test_asymmetric_pair_fails_symmetry(self, ring4):
        b = 0.5 * (np.eye(4) - ring4.w)
        b[0, 1] += 1e-6
        checks = validate(self._raw_pair(0.5 * (np.eye(4) + ring4.w), b, ring4.w))
        assert "symmetry" in {r.name for r in checks if not r.passed}

    def test_non_finite_pair_raises(self, ring4):
        pair = self._raw_pair(np.eye(4), np.zeros((4, 4)), ring4.w)
        pair.b = np.full((4, 4), np.nan)
        with pytest.raises(LinalgError, match="finite"):
            validate(pair)

    def test_noncommuting_pair_reported(self, ring4):
        b = np.diag([0.0, 1.0, 1.0, 1.0])  # PSD, null = e_0, not a polynomial in W
        checks = validate(self._raw_pair(np.eye(4), b, ring4.w))
        assert "b_commutes_with_w" in {r.name for r in checks if not r.passed}

    def test_commutation_of_presets(self, ring10):
        for variant in ("nids:c=0.25", "ed"):
            pair = preset(variant, ring10)
            a, b = pair.a, pair.b
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-10


def _spectral_graphs():
    ring10 = fa.metropolis_weights(fa.gen_topology("ring", 10))
    er12 = fa.metropolis_weights(fa.gen_topology("erdos_renyi", 12, seed=4, q=0.4))
    return {
        "ring10": ring10,
        "ring10_lazy": fa.lazify(ring10),
        "complete5": fa.metropolis_weights(fa.gen_topology("complete", 5)),
        "er12_lazy": fa.lazify(er12),
        "single": fa.metropolis_weights(fa.gen_topology("ring", 1)),
    }


SPECTRAL_GRAPHS = _spectral_graphs()
VARIANTS = ("nids:c=0.5", "nids:c=0.3", "ed", "mg_ed:N=3", "atc_gt", "mg_sonata:N=2")
PSD_ONLY = ("mg_ed", "atc_gt", "mg_sonata")
# (f, g) that break one scalar check each; a negative g breaks the null-space
# check as well
BAD_MAPS = {
    "a_row_sums_one": (lambda lam: 0.99 * (1.0 + lam) / 2.0, lambda lam: (1.0 - lam) / 2.0),
    "b_psd": (lambda lam: (1.0 + lam) / 2.0, lambda lam: -(1.0 - lam) / 2.0),
    "b_null_space_span_ones": (lambda lam: (1.0 + lam) / 2.0, lambda lam: 0.0 * lam),
    "contraction_psd": (lambda lam: 1.0 - 0.9 * (1.0 - lam), lambda lam: 0.9 * (1.0 - lam)),
}


def dense_pair(variant: str, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of a preset as matrix polynomials of W, built densely."""
    name, params = parse_variant(variant)
    eye = np.eye(w.shape[0])
    if name in ("nids", "ed"):
        c = params.get("c", 0.5)
        return eye - c * (eye - w), c * (eye - w)
    if name == "atc_gt":
        return w @ w, (eye - w) @ (eye - w)
    wn = np.linalg.matrix_power(w, int(params["N"]))
    if name == "mg_ed":
        return 0.5 * (eye + wn), 0.5 * (eye - wn)
    return wn @ wn, (eye - wn) @ (eye - wn)


class TestSpectralPairs:
    @pytest.mark.parametrize("graph_name, variant", [
        (g, v) for g, mm in SPECTRAL_GRAPHS.items() for v in VARIANTS
        if mm.psd or not v.startswith(PSD_ONLY)
    ])
    def test_matches_dense_polynomials(self, graph_name, variant):
        mm = SPECTRAL_GRAPHS[graph_name]
        pair = preset(variant, mm)
        a, b = dense_pair(variant, mm.w)
        assert np.max(np.abs(pair.a - a)) <= 1e-13
        assert np.max(np.abs(pair.b - b)) <= 1e-13
        root = pair.sqrt_b
        assert np.max(np.abs(root @ root - pair.b)) <= 1e-13
        assert np.max(np.abs(pair.b @ np.ones(mm.n))) <= 1e-14
        lam_b = np.linalg.eigvalsh(pair.b)
        assert abs(lam_b[0]) <= 1e-14
        if mm.n == 1:
            assert pair.sigma_m_b == 0.0
        else:
            assert lam_b[1] > 1e-6
            assert pair.sigma_m_b == pytest.approx(lam_b[1], abs=1e-12)

    @pytest.mark.parametrize("check", BAD_MAPS)
    def test_builder_names_the_failed_check(self, ring4, check):
        f, g = BAD_MAPS[check]
        with pytest.raises(CombinerError, match=f"combiner 'bad' violates: .*{check}"):
            _build(ring4, "bad", 1, f, g)


class TestParseVariant:
    def test_plain_and_parameterized(self):
        assert parse_variant("ed") == ("ed", {})
        assert parse_variant("nids:c=0.5") == ("nids", {"c": 0.5})
        assert parse_variant("mg_sonata:N=2") == ("mg_sonata", {"N": 2.0})

    def test_malformed(self):
        with pytest.raises(CombinerError, match="^malformed combiner parameter 'c' in 'nids:c'$"):
            parse_variant("nids:c")
        with pytest.raises(CombinerError, match="^non-numeric combiner parameter in 'nids:c=abc'$"):
            parse_variant("nids:c=abc")

    def test_takes_at_most_one_parameter(self):
        # the config splits variants on commas, so no variant holds a second
        # parameter; here it is part of the first one's value
        with pytest.raises(CombinerError,
                           match="^non-numeric combiner parameter in 'nids:c=0.5,c=0.3'$"):
            parse_variant("nids:c=0.5,c=0.3")
