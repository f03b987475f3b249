import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

import flexatc as fa
from conftest import synthetic_logistic_dataset
from flexatc.problem import ProxSpec, quadratic_instance
from flexatc.solver import (
    CoinSequence,
    DivergenceError,
    SolverError,
    centralized_proxgrad,
    run,
)
from reference import (IterateAverages, flexatc_step, initial_state, mirror_step,
                       primal_recursion_step)


def ring_pair(n: int, variant: str = "ed", lazy: bool = False):
    mm = fa.metropolis_weights(fa.gen_topology("ring", n))
    if lazy:
        mm = fa.lazify(mm)
    return fa.preset(variant, mm)


class TestCoinSequence:
    def test_deterministic(self):
        a = CoinSequence(0.3, seed=5).draw(200)
        b = CoinSequence(0.3, seed=5).draw(200)
        assert np.array_equal(a, b)

    def test_p_one_always_communicates(self):
        assert np.all(CoinSequence(1.0, seed=0).draw(100) == 1)

    def test_values_are_bits(self):
        draws = CoinSequence(0.6, seed=2).draw(500)
        assert set(np.unique(draws)) <= {0, 1}

    def test_random_access_matches_bulk(self):
        seq = CoinSequence(0.4, seed=9)
        assert seq.draw(1501)[1500] in (0, 1)
        assert np.array_equal(seq.draw(300), CoinSequence(0.4, seed=9).draw(300))

    def test_binomial_concentration(self):
        p, k = 0.5, 10_000
        frac = CoinSequence(p, seed=123).draw(k).mean()
        assert abs(frac - p) <= 3.0 * np.sqrt(p * (1 - p) / k)

    def test_rejects_bad_p(self):
        with pytest.raises(SolverError):
            CoinSequence(0.0, seed=1)


class TestFlexatcStep:
    def test_single_node_one_exact_step(self):
        # one agent, unit quadratic, alpha = 1/L = 1: the adapt step lands on
        # the target and the 1x1 combiner is the identity
        target = np.array([2.0, -1.0])
        inst = fa.quadratic_from_targets(target[None, :])
        pair = ring_pair(1)
        state = initial_state(inst, alpha=1.0, p=1.0)
        state = flexatc_step(state, inst, pair, theta=1)
        assert np.allclose(state.x[0], target, atol=1e-15)

    def test_skip_branch_is_local_gradient_step(self):
        inst = quadratic_instance(4, 3, seed=2)
        pair = ring_pair(4)
        state = initial_state(inst, alpha=0.5, p=0.5)
        nxt = flexatc_step(state, inst, pair, theta=0)
        expected = state.x - 0.5 * inst.grad_stack(state.x)
        assert np.allclose(nxt.x, expected, atol=1e-15)
        assert nxt.comms == 0
        assert np.array_equal(nxt.y, state.y)

    def test_two_agents_reach_target_average(self):
        b0, b1 = np.array([1.0, 3.0]), np.array([-2.0, 5.0])
        inst = fa.quadratic_from_targets(np.stack([b0, b1]))
        pair = ring_pair(2)
        state = initial_state(inst, alpha=1.0 / inst.L, p=1.0)
        for _ in range(200):
            state = flexatc_step(state, inst, pair, theta=1)
        mean = 0.5 * (b0 + b1)
        assert np.linalg.norm(state.x - mean) <= 1e-10

    def test_comm_counter_uses_pair_rounds(self):
        inst = quadratic_instance(4, 2, seed=3)
        pair = ring_pair(4, "atc_gt", lazy=True)
        state = initial_state(inst, alpha=0.9 / inst.L, p=1.0)
        state = flexatc_step(state, inst, pair, theta=1)
        assert state.comms == 2

    def test_divergence_detected(self):
        # understate L so the nominally valid stepsize explodes the iterates
        lying = replace(fa.quadratic_from_targets(np.ones((1, 2))), L=0.1, mu=0.0)
        pair = ring_pair(1)
        state = initial_state(lying, alpha=15.0, p=1.0)
        with pytest.raises(DivergenceError):
            for _ in range(100):
                state = flexatc_step(state, lying, pair, theta=1)

    def test_divergence_error_pickles(self):
        # errors from pool workers arrive pickled; the message must survive
        for err in (DivergenceError(5, "x"), DivergenceError(7)):
            back = pickle.loads(pickle.dumps(err))
            assert str(back) == str(err)
            assert (back.iteration, back.detail) == (err.iteration, err.detail)
        assert str(DivergenceError(5, "x")) == "divergence detected at iteration 5: x"

    def test_rejects_alpha_out_of_range(self):
        inst = quadratic_instance(2, 2, seed=0)
        with pytest.raises(SolverError):
            initial_state(inst, alpha=2.0 / inst.L, p=1.0)


class TestRunTrace:
    def test_p_one_comms_equal_rounds_times_k(self):
        inst = quadratic_instance(4, 2, seed=5)
        pair = ring_pair(4)
        trace = run(inst, pair, 1.0 / inst.L, p=1.0, seed=1, iters=50)
        assert np.all(trace.theta == 1)
        assert trace.comms[-1] == 50 * pair.comm_rounds

    def test_comm_accounting_exact(self):
        inst = quadratic_instance(4, 2, seed=5)
        pair = ring_pair(4, "atc_gt", lazy=True)
        trace = run(inst, pair, 1.0 / inst.L, p=0.4, seed=7, iters=300)
        assert np.array_equal(trace.comms, pair.comm_rounds * np.cumsum(trace.theta))

    def test_deterministic_trace(self):
        inst = quadratic_instance(5, 3, seed=6)
        pair = ring_pair(5)
        a = run(inst, pair, 1.0 / inst.L, p=0.5, seed=3, iters=120)
        b = run(inst, pair, 1.0 / inst.L, p=0.5, seed=3, iters=120)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.final.x, b.final.x)
        assert np.array_equal(a.objective, b.objective)

    def test_y_block_sum_and_mirror_coupling(self):
        inst = quadratic_instance(6, 3, seed=8, prox=ProxSpec("l1", 0.02))
        pair = ring_pair(6)
        state = initial_state(inst, 1.0 / inst.L, p=0.5)
        coins = CoinSequence(0.5, seed=4).draw(300)
        for k in range(300):
            state = flexatc_step(state, inst, pair, int(coins[k]))
            y_scale = 1.0 + np.linalg.norm(state.y)
            assert np.linalg.norm(state.y.sum(axis=0)) <= 1e-10 * y_scale
            mirror_gap = state.y + fa.kron_apply(pair.sqrt_b, state.u)
            assert np.linalg.norm(mirror_gap) <= 1e-9

    def test_u_form_equals_y_form(self):
        inst = quadratic_instance(5, 4, seed=9, prox=ProxSpec("l1", 0.05))
        pair = ring_pair(5)
        u_form = run(inst, pair, 1.0 / inst.L, p=0.5, seed=11, iters=500)
        state = initial_state(inst, 1.0 / inst.L, p=0.5)
        for theta in CoinSequence(0.5, seed=11).draw(500):
            state = flexatc_step(state, inst, pair, int(theta))
        assert np.linalg.norm(u_form.final.x - state.x) <= 1e-10

    def test_run_is_the_mirror_step_loop(self):
        inst = quadratic_instance(5, 4, seed=9, prox=ProxSpec("l1", 0.05))
        pair = ring_pair(5)
        trace = run(inst, pair, 1.0 / inst.L, p=0.5, seed=11, iters=300)
        state = initial_state(inst, 1.0 / inst.L, p=0.5)
        for theta in CoinSequence(0.5, seed=11).draw(300):
            state = mirror_step(state, inst, pair, int(theta))
        for name in ("x", "y", "u"):
            assert np.array_equal(getattr(trace.final, name), getattr(state, name)), name
        assert trace.final.comms == state.comms

    def test_dual_state_sums_to_zero(self):
        # the criterion-5 instance at p = 1: y = -sqrt(B) u keeps sum_i y_i
        # at round-off, where the y-form's own update drifts past 1e-13
        inst = quadratic_instance(20, 5, seed=42, curvature_min=1e-4, curvature_max=1.0,
                                  target_offset_scale=4.0)
        pair = fa.preset("ed", fa.metropolis_weights(fa.gen_topology("ring", 20)))
        final = run(inst, pair, 1.0 / inst.L, p=1.0, seed=1, iters=20_000,
                    record_kkt=False).final
        assert np.linalg.norm(final.y.sum(axis=0)) <= 1e-13 * (1.0 + np.linalg.norm(final.y))

    def test_averaged_iterates_cover_prefix(self):
        inst = quadratic_instance(3, 2, seed=10)
        pair = ring_pair(3)
        state = initial_state(inst, 1.0 / inst.L, p=1.0)
        xs = [state.x.copy()]
        for _ in range(4):
            state = flexatc_step(state, inst, pair, 1)
            xs.append(state.x.copy())
        averages = IterateAverages()
        run(inst, pair, 1.0 / inst.L, p=1.0, seed=0, iters=5, observer=averages)
        assert np.allclose(averages.x_avg[0], np.mean(xs[:5], axis=0), atol=1e-14)


class TestPrimalRecursion:
    def test_single_node_reduces_to_gradient_descent(self):
        inst = fa.quadratic_from_targets([[1.5]])
        pair = ring_pair(1)
        x_prev = np.array([[0.0]])
        x_k = x_prev - 0.5 * inst.grad_stack(x_prev)
        nxt = primal_recursion_step(
            x_k, x_prev, inst.grad_stack(x_k), inst.grad_stack(x_prev), pair, 0.5
        )
        expected = x_k - 0.5 * inst.grad_stack(x_k)
        assert np.allclose(nxt, expected, atol=1e-15)

    @pytest.mark.parametrize("variant,lazy", [("ed", False), ("nids:c=0.3", False), ("atc_gt", True)])
    def test_matches_two_variable_form(self, variant, lazy):
        inst = quadratic_instance(5, 3, seed=13)
        pair = ring_pair(5, variant, lazy=lazy)
        alpha = 0.8 / inst.L
        state = initial_state(inst, alpha, p=1.0)
        xs = [state.x.copy()]
        for _ in range(200):
            state = flexatc_step(state, inst, pair, 1)
            xs.append(state.x.copy())
        x_prev, x_k = xs[0], xs[1]
        g_prev = inst.grad_stack(x_prev)
        for k in range(1, 200):
            g_k = inst.grad_stack(x_k)
            x_next = primal_recursion_step(x_k, x_prev, g_k, g_prev, pair, alpha)
            assert np.linalg.norm(x_next - xs[k + 1]) <= 1e-10
            x_prev, x_k, g_prev = x_k, x_next, g_k


class TestCentralizedProxgrad:
    def test_quadratic_mean(self):
        targets = [np.array([1.0, 2.0]), np.array([3.0, -4.0]), np.array([-1.0, 5.0])]
        inst = fa.quadratic_from_targets(np.stack(targets))
        x = centralized_proxgrad(inst, alpha=1.0, tol=1e-14)
        assert np.allclose(x, np.mean(targets, axis=0), atol=1e-12)

    def test_l1_dominating_gradient_gives_zero(self):
        # f = x^2/2, r = 2|x|: the subgradient interval [-2, 2] at zero
        # absorbs the gradient, so the solution is exactly 0
        inst = fa.quadratic_from_targets([[1.0]], prox=ProxSpec("l1", 2.0))
        x = centralized_proxgrad(inst, alpha=1.0, tol=1e-14)
        assert x[0] == 0.0

    def test_logistic_l1_fixed_point_residual(self):
        ds = synthetic_logistic_dataset(120, 5, seed=14)
        inst = fa.logistic_instance(ds, n=4, partition_seed=0, ridge=0.01,
                                    prox=ProxSpec("l1", 0.01))
        alpha = 1.0 / inst.L
        x = centralized_proxgrad(inst, alpha, tol=1e-12)
        step = inst.prox.apply(x - alpha * inst.mean_grad(x), alpha)
        assert np.linalg.norm(x - step) <= 1e-12

    def test_non_finite_residual_stops_at_once(self):
        # understate L so the nominally valid stepsize explodes the iterates;
        # the solve ends when the residual overflows, not after max_iters
        lying = replace(fa.quadratic_from_targets(np.ones((1, 2))), L=0.1, mu=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"reference solver residual is inf") as err:
                centralized_proxgrad(lying, alpha=15.0)
        iteration = int(str(err.value).rsplit(" ", 1)[1])
        assert 0 < iteration < 1000

    def test_iteration_cap_reports_residual(self):
        inst = quadratic_instance(2, 2, seed=15, target_scale=10.0)
        with pytest.raises(SolverError, match="residual"):
            centralized_proxgrad(inst, alpha=1e-4, max_iters=10, tol=1e-12)
