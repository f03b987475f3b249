import hashlib

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


# sha256 prefixes of the bytes of repr(edges), degrees, W and lazify(W):
# a rewrite of how topologies or their weights are built must keep them all
GOLDEN = [
    ("ring", 1, 0, None, "2e38e77b22c314a4 af5570f5a1810b7a 6c3c396ed6b5c36d 6c3c396ed6b5c36d"),
    ("ring", 2, 0, None, "9a96df51dc791004 814dd7b9784d57c1 5e5c794534608bdc d359bc97f9b029b2"),
    ("ring", 3, 0, None, "c3cf542160efc139 f1475481fd56adb8 0cf49605cb2bafb1 aa9361756f5a8a38"),
    ("ring", 300, 0, None, "73767f66097fb9b6 d514d593b9d340e0 a33dd83365eaa6a6 ba649e4521b63b23"),
    ("complete", 7, 0, None, "64fd19e1666a619e 7d445d445a595dd0 b4e7bea6b9dfbee0 ccaa444c425c41d3"),
    ("complete", 1000, 0, None, "3ddf42d1df96c5fa 5c0ef56cc119f2b9 98d8b4b146a9f737 340adc0b1e2dc630"),
    ("erdos_renyi", 50, 0, 0.1, "a81789e3b55e7a2e 8b92b15f2e4c6be4 d131840c11063969 402302e6090a3436"),
    ("erdos_renyi", 50, 1, 0.1, "05e183ab2a11195f 48ae6a9f60a88645 d4b5ec910a3c7d02 8d27e65a068dde5a"),
    ("erdos_renyi", 50, 2, 0.1, "05e183ab2a11195f 48ae6a9f60a88645 d4b5ec910a3c7d02 8d27e65a068dde5a"),
    ("erdos_renyi", 50, 3, 0.1, "1f31541622a28936 55afa6d95eef7fb6 0375dcb00079f5af f0ba408b9b10f858"),
    ("erdos_renyi", 50, 4, 0.1, "1f31541622a28936 55afa6d95eef7fb6 0375dcb00079f5af f0ba408b9b10f858"),
    ("erdos_renyi", 50, 5, 0.1, "76a0e38ffba1ea51 704d29095a3db712 4d30b919caaa9f19 c62ab7017059bc3f"),
    ("erdos_renyi", 50, 6, 0.1, "f2868794cb516ba1 78925015182faaef 506bc6cfea9e0ec3 edc80df8b991710f"),
    ("erdos_renyi", 50, 7, 0.1, "f2868794cb516ba1 78925015182faaef 506bc6cfea9e0ec3 edc80df8b991710f"),
    ("erdos_renyi", 50, 8, 0.1, "71c2784b7fe55076 32b2cc0d40721760 5ec5e7b9c659643f 261d5a647c8b2525"),
    ("erdos_renyi", 50, 9, 0.1, "402f384da109da4e 388d617c466820f1 5e4667015fed31b4 f2539057f5de0e14"),
    ("erdos_renyi", 1000, 0, 0.01, "c37f1e8146394d33 b703ccb014db19e5 1e3c8b2a8d38c5fb 33693fdf1db34109"),
    ("erdos_renyi", 15, 3, 0.4, "6de4d84b5a1fc0ac 83cefde84534e3fe 6c4ba7b4052fa890 a8c7efb1a36af953"),
]


@pytest.mark.parametrize("kind, n, seed, q, digests", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}-{g[2]}" for g in GOLDEN])
def test_topology_and_weights_are_byte_identical(kind, n, seed, q, digests):
    t = gen_topology(kind, n, seed=seed, q=q)
    mm = metropolis_weights(t)
    blobs = (repr(t.edges).encode(), t.degrees.tobytes(), mm.w.tobytes(), lazify(mm).w.tobytes())
    assert " ".join(hashlib.sha256(b).hexdigest()[:16] for b in blobs) == digests


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

    @pytest.mark.parametrize("n, edges, message", [
        (4, ((0, 1), (2, 3)), "graph is not connected"),
        (3, ((0, 0), (0, 1), (1, 2)), "self-loop at node 0"),
        (3, ((0, 1), (1, 0), (1, 2)), "duplicate edge (0, 1)"),
        (3, ((0, 1), (1, 0), (2, 2)), "duplicate edge (0, 1)"),
        (3, ((0, 5), (0, 0)), "edge (0,5) out of range"),
        (3, ((-1, 2), (1, 1)), "edge (-1,2) out of range"),
        (3, ((4, 4), (0, 7)), "self-loop at node 4"),
        (4, ((0, 1), (3, 2), (2, 3)), "duplicate edge (2, 3)"),
    ])
    def test_rejects_naming_the_first_fault(self, n, edges, message):
        with pytest.raises(GraphError) as exc:
            Topology(n, edges)
        assert str(exc.value) == message


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
