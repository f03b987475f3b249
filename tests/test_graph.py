import numpy as np
import pytest

from flexatc.graph import (
    GraphError,
    Topology,
    _make_mixing,
    gen_topology,
    lazify,
    metropolis_weights,
    topology_to_edgelist,
)


class TestTopology:
    def test_ring4(self):
        t = gen_topology("ring", 4)
        assert set(t.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert np.array_equal(t.degrees, [2, 2, 2, 2])

    def test_complete3(self):
        t = gen_topology("complete", 3)
        assert len(t.edges) == 3
        assert np.array_equal(t.degrees, [2, 2, 2])

    def test_single_node(self):
        t = gen_topology("ring", 1)
        assert t.edges == ()

    def test_erdos_renyi_connected_and_deterministic(self):
        t1 = gen_topology("erdos_renyi", 50, seed=7, q=0.1)
        t2 = gen_topology("erdos_renyi", 50, seed=7, q=0.1)
        assert t1.edges == t2.edges
        t3 = gen_topology("erdos_renyi", 50, seed=8, q=0.1)
        assert t3.edges != t1.edges

    def test_erdos_renyi_resample_cap(self):
        with pytest.raises(GraphError, match="too small"):
            gen_topology("erdos_renyi", 30, seed=0, q=1e-7)

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError, match="not connected"):
            Topology(4, ((0, 1), (2, 3)))

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError, match="self-loop"):
            Topology(3, ((0, 0), (0, 1), (1, 2)))
        with pytest.raises(GraphError, match="duplicate"):
            Topology(3, ((0, 1), (1, 0), (1, 2)))


class TestMetropolis:
    def test_complete3_rank_one(self, complete3):
        assert np.allclose(complete3.w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
        lam = complete3.decomposition.eigenvalues
        assert np.allclose(lam, [0.0, 0.0, 1.0], atol=1e-12)
        assert complete3.rho == pytest.approx(0.0, abs=1e-12)

    def test_ring4_weights_and_gap(self, ring4):
        w = ring4.w
        assert w[0, 1] == pytest.approx(1.0 / 3.0)
        assert w[0, 0] == pytest.approx(1.0 / 3.0)
        assert w[0, 2] == 0.0
        assert ring4.rho == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_node(self):
        mm = metropolis_weights(gen_topology("ring", 1))
        assert mm.w.shape == (1, 1)
        assert mm.w[0, 0] == 1.0
        assert mm.rho == 0.0

    def test_invariants_over_random_graphs(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(2, 26))
            t = gen_topology("erdos_renyi", n, seed=trial, q=0.4)
            mm = metropolis_weights(t)
            w = mm.w
            assert np.array_equal(w, w.T)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
            edge_set = set(t.edges)
            for i in range(n):
                for j in range(i + 1, n):
                    if (i, j) in edge_set:
                        assert w[i, j] > 0.0
                    else:
                        assert w[i, j] == 0.0
            lam = mm.decomposition.eigenvalues
            assert lam[0] > -1.0
            assert lam[-1] <= 1.0 + 1e-10
            assert n == 1 or lam[-2] < 1.0 - 1e-9

    def test_determinism_bit_identical(self):
        a = metropolis_weights(gen_topology("erdos_renyi", 20, seed=5, q=0.3))
        b = metropolis_weights(gen_topology("erdos_renyi", 20, seed=5, q=0.3))
        assert np.array_equal(a.w, b.w)


class TestLazify:
    def test_affine_eigenvalue_map(self, ring4):
        lam_before = ring4.decomposition.eigenvalues
        assert lam_before[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        lam_after = lazify(ring4).decomposition.eigenvalues
        assert lam_after[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.allclose(np.sort((1.0 + lam_before) / 2.0), lam_after, atol=1e-12)

    def test_identity_fixed_point(self):
        mm = metropolis_weights(gen_topology("ring", 1))
        assert np.array_equal(lazify(mm).w, mm.w)

    def test_ring4_gap_becomes_two_thirds(self, ring4):
        assert lazify(ring4).rho == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_psd_over_random_graphs(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            t = gen_topology("erdos_renyi", n, seed=1000 + trial, q=0.5)
            mm = lazify(metropolis_weights(t))
            assert mm.psd
            assert mm.decomposition.eigenvalues[0] >= -1e-12


def test_mixing_audit_rejects_multiple_top_eigenvalues():
    block = np.array(
        [[0.5, 0.5, 0.0, 0.0],
         [0.5, 0.5, 0.0, 0.0],
         [0.0, 0.0, 0.5, 0.5],
         [0.0, 0.0, 0.5, 0.5]]
    )
    with pytest.raises(GraphError, match="not simple"):
        _make_mixing(block)


class TestEdgeList:
    def test_format(self):
        t = gen_topology("ring", 4)
        text = topology_to_edgelist(t)
        lines = text.strip().splitlines()
        assert lines[0] == "4 4"
        assert len(lines) == 5

    def test_round_trip(self):
        t = gen_topology("erdos_renyi", 15, seed=3, q=0.4)
        header, *rows = topology_to_edgelist(t).splitlines()
        assert header == f"{t.n} {len(t.edges)}"
        assert tuple(tuple(map(int, row.split())) for row in rows) == t.edges
