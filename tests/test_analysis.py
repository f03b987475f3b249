import math
from pathlib import Path

import numpy as np
import pytest

import flexatc as fa
import flexatc.cli as cli
from conftest import set_steps_per_block, synthetic_logistic_dataset
from flexatc import analysis, linalg
from flexatc.analysis import (
    SLACK_TOL,
    CertificateError,
    GridCertificates,
    complexity,
    fixed_point,
    sweep_certificates,
    varrho,
    zeta_c,
    zeta_rate,
)
from flexatc.config import load_config
from flexatc.problem import ProblemInstance, ProxSpec, quadratic_instance
from flexatc.solver import (
    GridRun,
    centralized_proxgrad,
    coin_flips,
)
from reference import (IterateAverages, SolverState, averaged_iterate_bound, branch_outcomes,
                       flexatc_step, initial_state, lemma2_check, mirror_step, skip_threshold,
                       theorem1_step_check, theorem2_check)


def ring_pair(n: int, variant: str = "ed"):
    mm = fa.metropolis_weights(fa.gen_topology("ring", n))
    return fa.preset(variant, mm)


def state_at(x, u, alpha, p):
    return SolverState(x=x, y=None, u=u, k=0, comms=0, alpha=alpha, p=p)


class TestFixedPoint:
    def test_quadratic_two_agents_mean(self):
        targets = [np.array([1.0, -2.0, 0.5]), np.array([3.0, 4.0, -0.5])]
        inst = fa.quadratic_from_targets(np.stack(targets))
        pair = ring_pair(2)
        fp = fixed_point(inst, pair, alpha=1.0)
        assert np.allclose(fp.x_opt, np.mean(targets, axis=0), atol=1e-11)
        assert fp.kkt_residual <= 1e-8

    def test_single_node_degenerate(self):
        inst = fa.quadratic_from_targets([[2.0]], prox=ProxSpec("l1", 0.1))
        pair = ring_pair(1)
        fp = fixed_point(inst, pair, alpha=1.0)
        assert np.array_equal(fp.u_star_b, np.zeros((1, 1)))
        expected_w = fp.x_star - 1.0 * inst.grad_stack(fp.x_star)
        assert np.allclose(fp.w_star, expected_w, atol=1e-15)

    def test_logistic_l1_invariants(self):
        ds = synthetic_logistic_dataset(200, 5, seed=20)
        inst = fa.logistic_instance(ds, n=10, partition_seed=1, ridge=0.01,
                                    prox=ProxSpec("l1", 0.01))
        pair = ring_pair(10)
        fp = fixed_point(inst, pair, alpha=1.0 / inst.L)
        assert fp.kkt_residual <= 1e-8
        # u* restricted to range(sqrt B): block mean vanishes
        assert np.linalg.norm(fp.u_star_b.mean(axis=0)) <= 1e-9
        resid = fa.kron_apply(pair.sqrt_b, fp.w_star - fa.kron_apply(pair.sqrt_b, fp.u_star_b))
        assert np.linalg.norm(resid) <= 1e-8


@pytest.fixture(scope="module")
def ring300_atc_gt():
    """The atc_gt pair of configs/ring300.ini, whose smallest nonzero
    eigenvalue of B is about 1e-8, with its instance and stepsize."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "ring300.ini")
    _, _, inst, alpha, pairs = cli.build(cfg)
    return inst, pairs[cfg.combiner.variants.index("atc_gt")], alpha


class TestFixedPointOnALargeRing:
    def test_all_three_residual_checks_pass(self, ring300_atc_gt):
        inst, pair, alpha = ring300_atc_gt
        assert pair.sigma_m_b < 1e-7
        fp = fixed_point(inst, pair, alpha)
        assert fp.kkt_residual <= 1e-8 * (1.0 + np.linalg.norm(fp.w_star))
        assert np.linalg.norm(fp.u_star_b.mean(axis=0)) <= 1e-12 * np.linalg.norm(fp.u_star_b)

    def test_no_eigendecomposition_and_no_range_solve(self, ring300_atc_gt, monkeypatch):
        inst, pair, alpha = ring300_atc_gt
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for module, name in ((linalg, "sym_eig"), (linalg, "range_solve"),
                             (analysis, "range_solve"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        fixed_point(inst, pair, alpha)
        assert calls == []


@pytest.fixture(scope="module")
def certified_setup():
    inst = quadratic_instance(8, 4, seed=23, curvature_min=0.02, curvature_max=1.0,
                              prox=ProxSpec("l1", 0.01))
    pair = ring_pair(8)
    alpha = 1.0 / inst.L
    fp = fixed_point(inst, pair, alpha)
    return inst, pair, alpha, fp


class TestLemma2:
    def test_zero_slack_at_fixed_point(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        state = state_at(fp.x_star.copy(), fp.u_star_b.copy(), alpha, 0.5)
        slack, rhs = lemma2_check(state, inst, pair, fp)
        assert abs(slack) <= 1e-10 * (1.0 + rhs)

    def test_degenerate_coin_along_run(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        sweep = sweep_certificates(inst, pair, alpha, p=1.0, seed=2, iters=500, fp=fp)
        assert np.all(sweep.lemma2_slack >= -SLACK_TOL * (1.0 + sweep.lemma2_rhs))

    def test_skipping_run_keeps_slack_nonnegative(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        sweep = sweep_certificates(inst, pair, alpha, p=0.3, seed=3, iters=500, fp=fp)
        assert np.all(sweep.lemma2_slack >= -SLACK_TOL * (1.0 + sweep.lemma2_rhs))
        assert sweep.violations() == []

    def test_nan_slack_is_a_violation(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        sweep = sweep_certificates(inst, pair, alpha, p=0.3, seed=3, iters=50, fp=fp)
        assert sweep.zeta is not None and sweep.violations() == []
        sweep.lemma2_slack[7] = sweep.thm1_slack[9] = np.nan
        sweep.phi[12] = np.nan  # a NaN scale fails thm1 and thm2 alike
        assert sweep.violations() == [("lemma2", 7), ("thm1", 9), ("thm2", 12)]


class TestTheorem2:
    def test_rate_formula_direct_case(self):
        # alpha = 1/L with kappa = 10: the function part is (1 - 0.1)^2
        assert zeta_rate(10.0, 1.0, 0.1, 1.0, 0.5) == pytest.approx(0.81)
        assert zeta_c(10.0, 1.0, 0.1) == pytest.approx(0.81)

    def test_rate_unchanged_down_to_threshold(self):
        big_l, mu, sigma = 1.0, 0.005, 0.2
        alpha = 1.0 / big_l
        zc = zeta_c(big_l, mu, alpha)
        p_min = skip_threshold(zc, sigma)
        assert p_min < 1.0
        base = zeta_rate(big_l, mu, alpha, 1.0, sigma)
        for p in np.linspace(p_min, 1.0, 7):
            assert zeta_rate(big_l, mu, alpha, p, sigma) == base
        below = zeta_rate(big_l, mu, alpha, 0.9 * p_min, sigma)
        assert below > base

    def test_contraction_along_trajectory(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        sweep = sweep_certificates(inst, pair, alpha, p=0.5, seed=5, iters=500, fp=fp)
        assert sweep.zeta is not None and 0.0 < sweep.zeta < 1.0
        assert np.all(sweep.thm2_slack >= -SLACK_TOL * (1.0 + sweep.phi))

    def test_requires_strong_convexity(self):
        inst = quadratic_instance(3, 2, seed=1)
        inst.mu = 0.0  # simulate a merely convex instance
        pair = ring_pair(3)
        fp = fixed_point(inst, pair, alpha=1.0)
        state = initial_state(inst, 1.0, 0.5)
        with pytest.raises(CertificateError, match="strongly convex"):
            theorem2_check(state, inst, pair, fp)


class TestTheorem1:
    def test_fixed_point_has_zero_psi(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        state = state_at(fp.x_star.copy(), fp.u_star_b.copy(), alpha, 0.5)
        slack = theorem1_step_check(state, inst, pair, fp)
        assert slack >= -1e-10

    def test_per_step_slack_with_skipping(self, certified_setup):
        inst, pair, alpha, fp = certified_setup
        sweep = sweep_certificates(inst, pair, alpha, p=0.5, seed=6, iters=500, fp=fp)
        assert np.all(sweep.thm1_slack >= -SLACK_TOL * (1.0 + sweep.phi))

    def test_averaged_bound_on_convex_paths(self):
        ds = synthetic_logistic_dataset(120, 4, seed=30)
        inst = fa.logistic_instance(ds, n=4, partition_seed=2, ridge=0.0,
                                    prox=ProxSpec("l1", 0.01))
        assert inst.mu == 0.0
        pair = ring_pair(4)
        alpha = 1.0 / inst.L
        fp = fixed_point(inst, pair, alpha, x_opt=centralized_proxgrad(inst, alpha, tol=1e-13))
        for seed in (1, 2):
            averages = IterateAverages()
            fa.run(inst, pair, alpha, p=0.5, seed=seed, iters=400,
                   reference=fp.x_star, record_kkt=False, observer=averages)
            measured, bound = averaged_iterate_bound(
                averages.x_avg[0], averages.u_avg[0], np.zeros((inst.n, inst.d)), 400, inst, pair,
                alpha, 0.5, fp
            )
            assert measured <= bound

    def test_varrho_formula(self):
        assert varrho(0.5, 1.0, 0.3) == pytest.approx(min(0.5 * 1.5, 0.3))


class TestComplexity:
    def test_p_star_plugin(self):
        est = complexity(kappa=100.0, sigma_m=0.25, rounds=1, p=1.0, eps=0.1)
        assert est.p_star == pytest.approx(0.2)

    def test_communication_improvement_ratio(self):
        kappa, sigma = 1e4, 0.1
        full = complexity(kappa, sigma, rounds=1, p=1.0, eps=0.01)
        tuned = complexity(kappa, sigma, rounds=1, p=full.p_star, eps=0.01)
        # at p* both communication terms equalize at sqrt(kappa/sigma), so the
        # formula ratio is (kappa + 1/sigma) / (2 sqrt(kappa/sigma)) ~ 15.8
        expected = (kappa + 1.0 / sigma) / (2.0 * math.sqrt(kappa / sigma))
        assert full.communications / tuned.communications == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(15.8272, abs=1e-3)
        assert tuned.iterations == pytest.approx(full.iterations, rel=1e-12)

    def test_well_conditioned_prefers_full_communication(self):
        est = complexity(kappa=2.0, sigma_m=0.1, rounds=1, p=1.0, eps=0.1)
        assert est.p_star == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            complexity(0.5, 0.1, 1, 1.0, 0.1)
        with pytest.raises(ValueError):
            complexity(10.0, 1.5, 1, 1.0, 0.1)
        with pytest.raises(ValueError):
            complexity(10.0, 0.5, 1, 0.0, 0.1)
        with pytest.raises(ValueError):
            complexity(10.0, 0.5, 1, 1.0, 1.5)


class TestSweepAcrossVariants:
    @pytest.mark.parametrize("variant,lazy,p", [
        ("nids:c=0.4", False, 0.5),
        ("mg_ed:N=2", True, 0.3),
        ("atc_gt", True, 0.7),
    ])
    def test_certificates_hold(self, variant, lazy, p):
        inst = quadratic_instance(6, 3, seed=33, curvature_min=0.05,
                                  curvature_max=1.0, prox=ProxSpec("l1", 0.02))
        mm = fa.metropolis_weights(fa.gen_topology("ring", 6))
        pair = fa.preset(variant, fa.lazify(mm) if lazy else mm)
        alpha = 1.0 / inst.L
        fp = fixed_point(inst, pair, alpha)
        sweep = sweep_certificates(inst, pair, alpha, p, seed=8, iters=250, fp=fp)
        assert sweep.violations() == []

    def test_all_inequalities_over_twenty_instances(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 5))
            inst = quadratic_instance(
                n, d, seed=int(rng.integers(0, 2**31)),
                curvature_min=float(rng.uniform(0.01, 0.2)), curvature_max=1.0,
                prox=ProxSpec("l1", 0.01) if trial % 2 else ProxSpec(),
            )
            pair = ring_pair(n)
            alpha = float(rng.uniform(0.4, 1.5)) / inst.L
            fp = fixed_point(inst, pair, alpha)
            for p in (1.0, 0.5, 0.2):
                sweep = sweep_certificates(inst, pair, alpha, p, seed=trial, iters=500, fp=fp)
                assert sweep.violations() == [], f"trial {trial}, p={p}"


def replayed_sweep(inst, pair, alpha, p, seed, iters, fp):
    """The certificates recomputed on a second integration of the run with
    the u-form single-step reference, one public check at a time; the
    reference the observer must match bitwise."""
    coins = coin_flips(p, seed, iters)
    state = initial_state(inst, alpha, p)
    grad_star = inst.grad_stack(fp.x_star)
    cols = {name: np.full(iters, np.nan) for name in
            ("lemma2_slack", "lemma2_rhs", "thm1_slack", "thm2_slack", "phi", "psi")}
    for k in range(iters):
        x_gap, u_gap = state.x - fp.x_star, state.u - fp.u_star_b
        g_gap = inst.grad_stack(state.x) - grad_star
        cols["phi"][k] = float(np.sum(x_gap * x_gap)) + float(np.sum(u_gap * u_gap)) / (p * p)
        cols["psi"][k] = float(np.sum(g_gap * g_gap)) + float(np.sum(u_gap * u_gap))
        cols["lemma2_slack"][k], cols["lemma2_rhs"][k] = lemma2_check(state, inst, pair, fp)
        cols["thm1_slack"][k] = theorem1_step_check(state, inst, pair, fp, grad_star)
        if inst.mu > 0.0:
            _, cols["thm2_slack"][k] = theorem2_check(state, inst, pair, fp)
        state = mirror_step(state, inst, pair, int(coins[k]))
    return cols


@pytest.fixture(scope="module", params=["quadratic", "logistic_mu0"])
def observed_setup(request):
    if request.param == "quadratic":
        inst = quadratic_instance(8, 4, seed=23, curvature_min=0.02, curvature_max=1.0,
                                  prox=ProxSpec("l1", 0.01))
        pair = ring_pair(8)
        fp = fixed_point(inst, pair, 1.0 / inst.L)
    else:
        # the merely convex instance of acceptance criterion 7
        ds = synthetic_logistic_dataset(400, 5, seed=60)
        inst = fa.logistic_instance(ds, 10, partition_seed=3, ridge=0.0,
                                    prox=ProxSpec("l1", 0.01))
        assert inst.mu == 0.0
        pair = ring_pair(10)
        fp = fixed_point(inst, pair, 1.0 / inst.L)
    return inst, pair, 1.0 / inst.L, fp


class TestObservedSweep:
    ITERS = 150

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.2])
    def test_observer_matches_replay_bitwise(self, observed_setup, p):
        inst, pair, alpha, fp = observed_setup
        sweep = sweep_certificates(inst, pair, alpha, p, seed=4, iters=self.ITERS, fp=fp)
        replay = replayed_sweep(inst, pair, alpha, p, 4, self.ITERS, fp)
        for name, expected in replay.items():
            assert np.array_equal(getattr(sweep, name), expected, equal_nan=True), name
        assert (sweep.zeta is None) == (inst.mu <= 0.0)
        assert sweep.violations() == []

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.2])
    def test_observer_matches_replay_bitwise_across_blocks(self, observed_setup, p, monkeypatch):
        # seven steps per block: 21 block boundaries and a three-step last block
        set_steps_per_block(monkeypatch, observed_setup[0], 1, 7)
        self.test_observer_matches_replay_bitwise(observed_setup, p)

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.2])
    def test_observer_leaves_trace_unchanged(self, observed_setup, p):
        inst, pair, alpha, fp = observed_setup
        args = (inst, pair, alpha, p, 4, self.ITERS)
        plain = fa.run(*args, reference=fp.x_star)
        observed = fa.run(*args, reference=fp.x_star,
                          observer=GridCertificates(inst, [GridRun(pair, p, 4)], [fp], alpha,
                                                    self.ITERS))
        for name in ("k", "theta", "comms", "rel_err", "consensus_err", "objective",
                     "kkt_residual"):
            assert np.array_equal(getattr(plain, name), getattr(observed, name)), name
        for name in ("x", "u"):
            assert np.array_equal(getattr(plain, name), getattr(observed, name))

    def test_comm_branch_is_the_solver_mirror_update(self, observed_setup):
        inst, pair, alpha, fp = observed_setup
        state = initial_state(inst, alpha, 0.5)
        coins = coin_flips(0.5, 2, 40)
        for k in range(40):
            out = branch_outcomes(state, inst, pair, fp)
            communicated = flexatc_step(state, inst, pair, 1)
            assert np.array_equal(out.u_comm, communicated.u)
            assert np.array_equal(out.w, state.x - alpha * inst.grad_stack(state.x))
            state = flexatc_step(state, inst, pair, int(coins[k]))

    def test_one_gradient_per_step(self, certified_setup, monkeypatch):
        inst, pair, alpha, fp = certified_setup
        calls = []
        original = ProblemInstance.grad_stack

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(ProblemInstance, "grad_stack", counted)
        iters = 120
        sweep_certificates(inst, pair, alpha, 0.5, seed=1, iters=iters, fp=fp)
        # K iterates plus grad F(x*) once
        assert len(calls) == iters + 1
        calls.clear()
        grid = cli.Grid(inst, alpha, iters, None, True, True, {"ed": fp},
                        [GridRun(pair, 0.5, 1)])
        [result] = cli._execute_grid(grid)
        assert len(calls) == iters + 1
        assert result.sweep.violations() == []
