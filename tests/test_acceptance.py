"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 needs the real ijcnn1 LIBSVM file; point FLEXATC_IJCNN1 at it
(or drop it at data/ijcnn1). Without the file that test is skipped, since
the package never downloads datasets.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import flexatc as fa
import flexatc.cli as cli
from conftest import correlated_logistic_dataset, synthetic_logistic_dataset
from flexatc.problem import serialize_libsvm
from flexatc.analysis import (
    SLACK_TOL,
    GridCertificates,
    fixed_point,
    sweep_certificates,
    zeta_c,
    zeta_rate,
)
from flexatc.problem import ProxSpec, quadratic_instance
from flexatc.solver import (
    CoinSequence,
    GridRun,
    centralized_proxgrad,
    run_grid,
)
from reference import (IterateAverages, LogisticLoss, QuadraticLoss, averaged_iterate_bound,
                       flexatc_step, initial_state, primal_recursion_step, skip_threshold)

PRESETS = ("nids:c=0.5", "ed", "mg_ed:N=3", "atc_gt", "mg_sonata:N=2")
NEEDS_PSD = ("mg_ed:N=3", "atc_gt", "mg_sonata:N=2")


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def certified():
    """Shared strongly convex synthetic setting: 10-ring, d=5 quadratics
    with random targets spread over curvature [0.005, 1], l1 weight 0.01."""
    inst = quadratic_instance(10, 5, seed=170, curvature_min=0.005,
                              curvature_max=1.0, prox=ProxSpec("l1", 0.01))
    mm = fa.metropolis_weights(fa.gen_topology("ring", 10))
    pair = fa.preset("ed", mm)
    alpha = 1.0 / inst.L
    fp = fixed_point(inst, pair, alpha)
    return inst, pair, alpha, fp


def test_criterion_1_preset_validation():
    start = time.perf_counter()
    worst = np.inf
    ring = fa.metropolis_weights(fa.gen_topology("ring", 10))
    ring_lazy = fa.lazify(ring)
    er = fa.lazify(fa.metropolis_weights(
        fa.gen_topology("erdos_renyi", 50, seed=7, q=0.1)))
    for mm, lazy in ((ring, ring_lazy), (er, er)):
        for variant in PRESETS:
            pick = lazy if variant in NEEDS_PSD else mm
            rep = fa.validate(fa.preset(variant, pick))
            assert rep.ok, f"{variant}: {rep}"
            worst = min(worst, min(c.margin for c in rep.checks))
    elapsed = time.perf_counter() - start
    report(1, "combiner validation", worst >= -1e-9 and elapsed < 5.0,
           f"worst margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_descent_certificate(certified):
    inst, pair, alpha, fp = certified
    start = time.perf_counter()
    worst_rel = np.inf
    for p in (1.0, 0.5, 0.2):
        sweep = sweep_certificates(inst, pair, alpha, p, seed=11, iters=500, fp=fp)
        rel = np.min(sweep.lemma2_slack / (1.0 + sweep.lemma2_rhs))
        worst_rel = min(worst_rel, rel)
    elapsed = time.perf_counter() - start
    report(2, "exact descent certificate", worst_rel >= -SLACK_TOL and elapsed < 10.0,
           f"1500 two-branch expectations, worst relative slack {worst_rel:.2e}, {elapsed:.2f}s")


def test_criterion_3_linear_contraction(certified):
    inst, pair, alpha, fp = certified
    worst_rel = np.inf
    rates = {}
    for p in (1.0, 0.5, 0.2):
        sweep = sweep_certificates(inst, pair, alpha, p, seed=12, iters=500, fp=fp)
        rel = np.min(sweep.thm2_slack / (1.0 + sweep.phi))
        worst_rel = min(worst_rel, rel)
        rates[p] = zeta_rate(inst.L, inst.mu, alpha, p, pair.sigma_m_b)
    p_min = skip_threshold(zeta_c(inst.L, inst.mu, alpha), pair.sigma_m_b)
    preserved = [p for p in (1.0, 0.5, 0.2) if p >= p_min]
    assert len(preserved) >= 2, "setting must make rate invariance non-vacuous"
    invariant = all(rates[p] == rates[1.0] for p in preserved)
    report(3, "linear-rate contraction", worst_rel >= -SLACK_TOL and invariant,
           f"worst relative slack {worst_rel:.2e}; zeta identical for p >= {p_min:.3f}: "
           f"{sorted(preserved)}")


def _random_instance(rng, with_prox):
    n = int(rng.integers(3, 7))
    d = int(rng.integers(2, 5))
    prox = ProxSpec("l1", float(rng.uniform(0.005, 0.05))) if with_prox else ProxSpec()
    inst = quadratic_instance(n, d, seed=int(rng.integers(0, 2**31)),
                              curvature_min=float(rng.uniform(0.1, 0.5)),
                              curvature_max=1.0, prox=prox)
    mm = fa.metropolis_weights(fa.gen_topology("ring", n))
    return inst, mm


def test_criterion_4_equivalence_oracles():
    rng = np.random.default_rng(44)

    # (a) u-form (run) vs y-form with shared coins, 500 steps
    worst_a = 0.0
    for trial in range(20):
        inst, mm = _random_instance(rng, with_prox=trial % 2 == 0)
        pair = fa.preset("ed", mm)
        alpha = 1.0 / inst.L
        u_tr = fa.run(inst, pair, alpha, 0.5, seed=trial, iters=500, record_kkt=False)
        state = initial_state(inst, alpha, 0.5)
        for theta in CoinSequence(0.5, seed=trial).draw(500):
            state = flexatc_step(state, inst, pair, int(theta))
        worst_a = max(worst_a, float(np.max(np.abs(u_tr.x - state.x))))

    # (b) p = 1, no prox: the two-variable form equals the single-variable
    # recursion seeded with (x0, x1) from one synchronized step
    worst_b = 0.0
    for trial in range(20):
        inst, mm = _random_instance(rng, with_prox=False)
        pair = fa.preset("nids:c=0.5" if trial % 2 else "ed", mm)
        alpha = float(rng.uniform(0.5, 1.5)) / inst.L
        state = initial_state(inst, alpha, 1.0)
        xs = [state.x.copy()]
        for _ in range(201):
            state = flexatc_step(state, inst, pair, 1)
            xs.append(state.x.copy())
        x_prev, x_k = xs[0], xs[1]
        g_prev = inst.grad_stack(x_prev)
        for k in range(1, 201):
            g_k = inst.grad_stack(x_k)
            x_next = primal_recursion_step(x_k, x_prev, g_k, g_prev, pair, alpha)
            worst_b = max(worst_b, float(np.max(np.abs(x_next - xs[k + 1]))))
            x_prev, x_k, g_prev = x_k, x_next, g_k

    # (c) the gradient-tracking pair reproduces a directly coded two-variable
    # tracking loop (shared history, since the inits differ by one combine)
    worst_c = 0.0
    for trial in range(20):
        inst, mm = _random_instance(rng, with_prox=False)
        lazy = fa.lazify(mm)
        pair = fa.preset("atc_gt", lazy)
        alpha = 1.0 / inst.L
        w = lazy.w
        x = np.zeros((inst.n, inst.d))
        g_old = inst.grad_stack(x)
        tracker = g_old.copy()
        seq = [x.copy()]
        for _ in range(200):
            x_new = w @ (x - alpha * tracker)
            g_new = inst.grad_stack(x_new)
            tracker = w @ (tracker + g_new - g_old)
            x, g_old = x_new, g_new
            seq.append(x.copy())
        x_prev, x_k = seq[0], seq[1]
        g_prev = inst.grad_stack(x_prev)
        for k in range(1, 199):
            g_k = inst.grad_stack(x_k)
            x_next = primal_recursion_step(x_k, x_prev, g_k, g_prev, pair, alpha)
            worst_c = max(worst_c, float(np.max(np.abs(x_next - seq[k + 1]))))
            x_prev, x_k, g_prev = x_k, x_next, g_k

    # (d) the diffusion pair equals a directly coded averaged-difference loop
    worst_d = 0.0
    for trial in range(20):
        inst, mm = _random_instance(rng, with_prox=False)
        c = float(rng.uniform(0.2, 0.5))
        pair = fa.preset(f"nids:c={c}", mm)
        alpha = 1.0 / inst.L
        state = initial_state(inst, alpha, 1.0)
        xs = [state.x.copy()]
        for _ in range(201):
            state = flexatc_step(state, inst, pair, 1)
            xs.append(state.x.copy())
        w_tilde = np.eye(inst.n) - c * (np.eye(inst.n) - mm.w)
        x_prev, x_k = xs[0], xs[1]
        g_prev = inst.grad_stack(x_prev)
        for k in range(1, 201):
            g_k = inst.grad_stack(x_k)
            x_next = w_tilde @ (2.0 * x_k - x_prev - alpha * (g_k - g_prev))
            worst_d = max(worst_d, float(np.max(np.abs(x_next - xs[k + 1]))))
            x_prev, x_k, g_prev = x_k, x_next, g_k

    worst = max(worst_a, worst_b, worst_c, worst_d)
    report(4, "equivalence oracles", worst <= 1e-10,
           f"max deviations: forms {worst_a:.1e}, recursion {worst_b:.1e}, "
           f"tracking {worst_c:.1e}, diffusion {worst_d:.1e}")


def test_criterion_5_communication_acceleration():
    inst = quadratic_instance(20, 5, seed=42, curvature_min=1e-4, curvature_max=1.0,
                              target_offset_scale=4.0)
    mm = fa.metropolis_weights(fa.gen_topology("ring", 20))
    pair = fa.preset("ed", mm)
    kappa = inst.L / inst.mu
    assert kappa == pytest.approx(1e4)
    p_star = min(1.0, 1.0 / np.sqrt(kappa * pair.sigma_m_b))
    alpha = 1.0 / inst.L
    fp = fixed_point(inst, pair, alpha, x_opt=centralized_proxgrad(inst, alpha, tol=1e-13))

    # both paths advance as one batch; each trace is what it is alone
    iters = 250_000
    traces = run_grid(inst, [GridRun(pair, 1.0, 1), GridRun(pair, p_star, 1)], alpha, iters,
                      reference=fp.x_star, record_kkt=False)

    def to_target(p, tr):
        hit = np.nonzero(tr.rel_err <= 1e-8)[0]
        assert hit.size, f"p={p} never reached 1e-8 in {iters} iterations"
        return int(hit[0]) + 1, int(tr.comms[hit[0]])

    iters_full, comms_full = to_target(1.0, traces[0])
    iters_star, comms_star = to_target(p_star, traces[1])
    iter_ratio = iters_star / iters_full
    comm_factor = comms_full / comms_star
    report(5, "communication acceleration",
           iter_ratio <= 1.2 and comm_factor >= 3.0,
           f"p*={p_star:.4f}: iterations {iters_full} -> {iters_star} "
           f"(ratio {iter_ratio:.3f}), comms {comms_full} -> {comms_star} "
           f"(factor {comm_factor:.1f})")


def _find_ijcnn1():
    env = os.environ.get("FLEXATC_IJCNN1", "")
    candidates = [env] if env else []
    candidates.append(str(Path(__file__).resolve().parent.parent / "data" / "ijcnn1"))
    for cand in candidates:
        if cand and Path(cand).is_file():
            return cand
    return None


def test_criterion_6_paper_replica(tmp_path, capsys):
    data = _find_ijcnn1()
    if data is None:
        pytest.skip("ijcnn1 not supplied (set FLEXATC_IJCNN1 or place data/ijcnn1); "
                    "datasets are never downloaded")
    start = time.perf_counter()
    ds = fa.parse_libsvm(Path(data).read_text())
    assert ds.d == 22
    assert len(ds) >= 49950
    conf = tmp_path / "replica.ini"
    conf.write_text(f"""
[graph]
kind = erdos_renyi
n = 50
q = 0.1
seed = 7

[combiner]
variants = ed

[problem]
type = logistic
data = {data}
ridge = 0.01
max_samples = 49950
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = 1, 0.5, 0.2
iterations = 150
seeds = 1
record_kkt = false

[outputs]
csv = replica.csv
svg = replica.svg
""")
    code = cli.main(["run", str(conf), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in
            (tmp_path / "replica.csv").read_text().strip().splitlines()[1:]]
    body = [r for r in rows if r[4] != "-1"]
    errs = {}
    total_comms = {}
    for r in body:
        p, k = float(r[2]), int(r[4])
        errs.setdefault(p, {})[k] = float(r[7])
        total_comms[p] = int(r[6])
    ratios = []
    for k in range(150):
        vals = [errs[p][k] for p in (1.0, 0.5, 0.2)]
        ratios.append(max(vals) / min(vals))
    worst = max(ratios)
    ordered = total_comms[1.0] > total_comms[0.5] > total_comms[0.2]
    elapsed = time.perf_counter() - start
    report(6, "paper-replica experiment",
           worst <= 3.0 and ordered and elapsed < 600.0,
           f"worst cross-p error ratio {worst:.2f}, comms "
           f"{total_comms[1.0]}/{total_comms[0.5]}/{total_comms[0.2]}, {elapsed:.0f}s")


def test_paper_replica_pipeline_on_surrogate(tmp_path, capsys):
    """Not criterion 6 itself: the same pipeline and assertions on a
    generated stand-in dataset, so the replica path is exercised even when
    ijcnn1 has not been supplied."""
    ds = correlated_logistic_dataset(10_000, 22, seed=99)
    data = tmp_path / "surrogate.libsvm"
    data.write_text(serialize_libsvm(ds))
    conf = tmp_path / "replica.ini"
    conf.write_text(f"""
[graph]
kind = erdos_renyi
n = 50
q = 0.1
seed = 7

[combiner]
variants = ed

[problem]
type = logistic
data = {data}
ridge = 0.01
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = 1, 0.5, 0.2
iterations = 150
seeds = 1
record_kkt = false

[outputs]
csv = replica.csv
svg = replica.svg
""")
    assert cli.main(["run", str(conf), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    rows = [line.split(",") for line in
            (tmp_path / "replica.csv").read_text().strip().splitlines()[1:]]
    body = [r for r in rows if r[4] != "-1"]
    errs = {}
    total_comms = {}
    for r in body:
        p, k = float(r[2]), int(r[4])
        errs.setdefault(p, {})[k] = float(r[7])
        total_comms[p] = int(r[6])
    worst = max(
        max(errs[p][k] for p in (1.0, 0.5, 0.2)) / min(errs[p][k] for p in (1.0, 0.5, 0.2))
        for k in range(150)
    )
    assert worst <= 3.0
    assert total_comms[1.0] > total_comms[0.5] > total_comms[0.2]


def test_criterion_7_convex_regime():
    ds = synthetic_logistic_dataset(400, 5, seed=60)
    inst = fa.logistic_instance(ds, 10, partition_seed=3, ridge=0.0,
                                prox=ProxSpec("l1", 0.01))
    assert inst.mu == 0.0
    mm = fa.metropolis_weights(fa.gen_topology("ring", 10))
    pair = fa.preset("ed", mm)
    alpha = 1.0 / inst.L
    fp = fixed_point(inst, pair, alpha)
    iters = 2000
    worst_rel = np.inf
    bound_ok = True
    for seed in range(1, 11):
        # one integration per path: the observer certifies the transitions of
        # the run whose averaged iterates feed the bound
        certificates = GridCertificates(inst, [GridRun(pair, 0.5, seed)], [fp], alpha, iters)
        averages = IterateAverages()
        fa.run(inst, pair, alpha, 0.5, seed, iters, reference=fp.x_star, record_kkt=False,
               observer=lambda block: (certificates(block), averages(block)))
        sweep = certificates.sweeps[0]
        worst_rel = min(worst_rel, float(np.min(sweep.thm1_slack / (1.0 + sweep.phi))))
        measured, bound = averaged_iterate_bound(
            averages.x_avg[0], averages.u_avg[0], np.zeros((inst.n, inst.d)), iters, inst, pair,
            alpha, 0.5, fp)
        bound_ok = bound_ok and measured <= bound
    report(7, "convex-regime certificate", worst_rel >= -SLACK_TOL and bound_ok,
           f"10 paths x {iters} steps, worst relative slack {worst_rel:.2e}, "
           f"averaged bound held on all paths")


def test_criterion_8_oracle_hygiene(certified):
    rng = np.random.default_rng(88)
    # gradients against central differences, 50 points per loss variant
    quad = QuadraticLoss(rng.standard_normal(6), np.geomspace(0.2, 2.0, 6))
    logi = LogisticLoss.from_dataset(synthetic_logistic_dataset(60, 6, seed=8), ridge=0.03)
    worst_fd = 0.0
    h = 1e-6
    for loss in (quad, logi):
        for _ in range(50):
            x = rng.standard_normal(6)
            g = loss.grad(x)
            fd = np.empty(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[j] = (loss.value(x + e) - loss.value(x - e)) / (2.0 * h)
            worst_fd = max(worst_fd, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))

    prox = ProxSpec("l1", 0.07)
    expansive = 0.0
    for _ in range(100):
        u, v = rng.standard_normal((2, 9))
        gap = np.linalg.norm(prox.apply(u, 0.8) - prox.apply(v, 0.8)) - np.linalg.norm(u - v)
        expansive = max(expansive, gap)

    inst, pair, alpha, fp = certified
    residual = fp.kkt_residual
    ds = synthetic_logistic_dataset(150, 4, seed=9)
    inst2 = fa.logistic_instance(ds, 6, partition_seed=0, ridge=0.02,
                                 prox=ProxSpec("l1", 0.02))
    mm = fa.metropolis_weights(fa.gen_topology("ring", 6))
    fp2 = fixed_point(inst2, fa.preset("ed", mm), 1.0 / inst2.L)
    residual = max(residual, fp2.kkt_residual)

    report(8, "oracle hygiene",
           worst_fd <= 1e-6 and expansive <= 1e-12 and residual <= 1e-8,
           f"max FD gap {worst_fd:.2e}, prox expansiveness {expansive:.2e}, "
           f"stationarity residual {residual:.2e}")
