"""The batched driver: solver.run_grid against itself (batch invariance) and
against a per-run loop of the single-step references."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import flexatc as fa
from conftest import set_steps_per_block, synthetic_logistic_dataset, traced_peak, write_libsvm
from flexatc.analysis import (
    SLACK_TOL,
    FixedPoint,
    GridCertificates,
    fixed_point,
)
from flexatc import solver
from flexatc.problem import ProxSpec, quadratic_from_targets, quadratic_instance
from flexatc.solver import (
    DivergenceError,
    GridBlock,
    GridRun,
    SolverError,
    block_length,
    centralized_proxgrad,
    coin_flips,
    run_grid,
)
from reference import (IterateAverages, branch_outcomes, flexatc_step, initial_state,
                       lemma2_check, mirror_step, theorem1_step_check, theorem2_check)

TRAJECTORY_RTOL = 1e-12
TRACE_COLUMNS = ("theta", "comms", "rel_err", "consensus_err", "objective", "kkt_residual")
SWEEP_COLUMNS = ("lemma2_slack", "lemma2_rhs", "thm1_slack", "thm2_slack", "phi", "psi")
ITERS = 120


@pytest.fixture(scope="module", params=["quadratic", "logistic"])
def grid_setup(request, tmp_path_factory):
    """Six runs over two combiners, three probabilities and two seeds, with
    the fixed point of each combiner."""
    n = 6
    mm = fa.metropolis_weights(fa.gen_topology("ring", n))
    if request.param == "quadratic":
        inst = quadratic_instance(n, 3, seed=5, curvature_min=0.05, curvature_max=1.0,
                                  prox=ProxSpec("l1", 0.02))
    else:
        path = write_libsvm(synthetic_logistic_dataset(150, 4, seed=12),
                            tmp_path_factory.mktemp("data") / "data.libsvm")
        inst = fa.logistic_instance(path, n, partition_seed=1, ridge=0.02,
                                    prox=ProxSpec("l1", 0.01))
    pairs = [fa.preset("ed", mm), fa.preset("atc_gt", fa.lazify(mm))]
    alpha = 1.0 / inst.L
    x_opt = centralized_proxgrad(inst)
    fps = {pair.variant: fixed_point(inst, pair, alpha, x_opt) for pair in pairs}
    runs = [GridRun(pairs[0], 1.0, 3), GridRun(pairs[1], 0.5, 3), GridRun(pairs[0], 0.2, 4),
            GridRun(pairs[1], 1.0, 4), GridRun(pairs[0], 0.5, 5), GridRun(pairs[1], 0.2, 5)]
    x0 = 0.5 * np.random.default_rng(9).standard_normal((n, inst.d))
    return inst, runs, alpha, fps, x0


def _batch(setup, runs, certify, iters=ITERS):
    inst, _, alpha, fps, x0 = setup
    run_fps = [fps[r.pair.variant] for r in runs]
    observer = GridCertificates(inst, runs, run_fps, alpha, iters) if certify else None
    traces = run_grid(inst, runs, alpha, iters, reference=np.stack([fp.x_star for fp in run_fps]),
                      x0=x0, observer=observer)
    return traces, observer.sweeps if certify else [None] * len(runs)


@pytest.fixture
def small_blocks(grid_setup, monkeypatch):
    """Seven steps per block for the six-run batch, so ITERS crosses 17 block
    boundaries and ends in a one-step block; the runs alone, and the batches
    of two and four, get 46, 23 and 11 steps, each with a partial last
    block."""
    inst = grid_setup[0]
    set_steps_per_block(monkeypatch, inst, 1, 46)
    assert [block_length(inst, count) for count in (2, 4, 6)] == [23, 11, 7]


def _assert_same_run(got, want):
    (trace, sweep), (ref_trace, ref_sweep) = got, want
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(trace, name), getattr(ref_trace, name), equal_nan=True), name
    for name in ("x", "u"):
        assert np.array_equal(getattr(trace, name), getattr(ref_trace, name)), name
    assert (trace.theta.size, trace.comms[-1]) == (ref_trace.theta.size, ref_trace.comms[-1])
    if ref_sweep is not None:
        for name in SWEEP_COLUMNS:
            assert np.array_equal(getattr(sweep, name), getattr(ref_sweep, name),
                                  equal_nan=True), name
        assert sweep.zeta == ref_sweep.zeta


@pytest.mark.parametrize("certify", [False, True])
def test_run_is_bitwise_the_same_alone_and_in_any_batch(grid_setup, certify):
    runs = grid_setup[1]
    full = list(zip(*_batch(grid_setup, runs, certify)))
    alone = [list(zip(*_batch(grid_setup, [r], certify)))[0] for r in runs]
    split = (list(zip(*_batch(grid_setup, runs[:2], certify)))
             + list(zip(*_batch(grid_setup, runs[2:], certify))))
    # the same runs in reverse order, so each sits at another position
    reverse = list(zip(*_batch(grid_setup, runs[::-1], certify)))[::-1]
    for i in range(len(runs)):
        for other in (alone, split, reverse):
            _assert_same_run(other[i], full[i])


@pytest.mark.parametrize("certify", [False, True])
def test_bitwise_alone_and_in_any_batch_across_blocks(grid_setup, small_blocks, certify):
    test_run_is_bitwise_the_same_alone_and_in_any_batch(grid_setup, certify)


@pytest.mark.parametrize("certify", [False, True])
def test_one_iteration_is_the_first_row(grid_setup, small_blocks, certify):
    inst, runs, alpha, _, x0 = grid_setup
    averages = IterateAverages()
    run_grid(inst, runs, alpha, 1, x0=x0, observer=averages)
    assert np.array_equal(averages.x_avg, np.broadcast_to(x0, averages.x_avg.shape))
    one = _batch(grid_setup, runs, certify, iters=1)
    full = _batch(grid_setup, runs, certify)
    for (trace, sweep), (ref_trace, ref_sweep) in zip(zip(*one), zip(*full)):
        for name in ("theta", "comms", "rel_err", "consensus_err", "objective", "kkt_residual"):
            assert np.array_equal(getattr(trace, name), getattr(ref_trace, name)[:1],
                                  equal_nan=True), name
        if certify:
            for name in SWEEP_COLUMNS:
                assert np.array_equal(getattr(sweep, name), getattr(ref_sweep, name)[:1],
                                      equal_nan=True), name


def test_reported_successor_is_the_certified_branch(grid_setup, small_blocks):
    inst, runs, alpha, _, x0 = grid_setup
    blocks = []

    def record(block):
        # the arrays are views of the driver's buffers, valid only during the call
        blocks.append(block._replace(**{name: getattr(block, name).copy()
                                        for name in GridBlock._fields[1:]}))

    traces = run_grid(inst, runs, alpha, ITERS, x0=x0, observer=record)
    # one call per seven-step block, the last a one-step block
    assert [block.k0 for block in blocks] == list(range(0, ITERS, 7))
    assert [len(block.x) for block in blocks] == [7] * 17 + [1]
    # every step once, in order, each array (T, S, n, d) over the block
    assert [k for block in blocks for k in range(block.k0, block.k0 + len(block.x))] == \
        list(range(ITERS))
    for block in blocks:
        for name in GridBlock._fields[1:]:
            assert getattr(block, name).shape == (len(block.x), len(runs), inst.n, inst.d), name
    steps = {name: np.concatenate([getattr(block, name) for block in blocks])
             for name in ("x", "u", "x_comm", "u_comm", "x_skip")}
    coins = np.stack([trace.theta for trace in traces]).astype(bool)[:, :, None, None]
    final = (np.stack([trace.x for trace in traces]),
             np.stack([trace.u for trace in traces]))
    for k in range(ITERS):
        theta = coins[:, k]
        x_next, u_next = (steps["x"][k + 1], steps["u"][k + 1]) if k + 1 < ITERS else final
        assert np.array_equal(x_next, np.where(theta, steps["x_comm"][k], steps["x_skip"][k])), k
        assert np.array_equal(u_next, np.where(theta, steps["u_comm"][k], steps["u"][k])), k


def _reference_run(inst, pair, alpha, p, seed, iters, fp, x0):
    """One run as a loop of flexatc_step, each state certified by
    branch_outcomes and the single-state checks."""
    coins = coin_flips(p, seed, iters)
    state = initial_state(inst, alpha, p, x0)
    grad_star = inst.grad_stack(fp.x_star)
    ref_norm = np.linalg.norm(fp.x_star)
    cols = {name: np.full(iters, np.nan) for name in
            ("rel_err", "consensus_err", "objective", "kkt_residual", *SWEEP_COLUMNS)}
    for k in range(iters):
        out = branch_outcomes(state, inst, pair, fp, grad_star)
        cols["phi"][k], cols["psi"][k] = out.phi, out.psi
        cols["lemma2_slack"][k], cols["lemma2_rhs"][k] = lemma2_check(state, inst, pair, fp)
        cols["thm1_slack"][k] = theorem1_step_check(state, inst, pair, fp, grad_star)
        if inst.mu > 0.0:
            _, cols["thm2_slack"][k] = theorem2_check(state, inst, pair, fp)
        state = flexatc_step(state, inst, pair, int(coins[k]))
        x = state.x
        mean = x.mean(axis=0)
        cols["rel_err"][k] = np.linalg.norm(x - fp.x_star) / ref_norm
        cols["consensus_err"][k] = np.linalg.norm(x - mean)
        cols["objective"][k] = inst.objective(mean)
        step = inst.prox.apply(mean - alpha * inst.mean_grad(mean), alpha)
        cols["kkt_residual"][k] = np.linalg.norm(mean - step)
    return cols, state


def test_matches_per_run_reference_loop(grid_setup):
    inst, runs, alpha, fps, x0 = grid_setup
    traces, sweeps = _batch(grid_setup, runs, certify=True)
    for r, trace, sweep in zip(runs, traces, sweeps):
        fp = fps[r.pair.variant]
        want, state = _reference_run(inst, r.pair, alpha, r.p, r.seed, ITERS, fp, x0)
        for name in ("rel_err", "consensus_err", "objective", "kkt_residual"):
            got = getattr(trace, name)
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(got - want[name])) <= TRAJECTORY_RTOL * scale, name
        for name in ("lemma2_slack", "thm1_slack", "thm2_slack"):
            if inst.mu <= 0.0 and name == "thm2_slack":
                assert np.all(np.isnan(sweep.thm2_slack))
                continue
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(getattr(sweep, name) - want[name])) <= SLACK_TOL * (1.0 + scale)
        assert np.max(np.abs(trace.x - state.x)) <= TRAJECTORY_RTOL * np.max(np.abs(state.x))
        assert trace.comms[-1] == state.comms
        assert sweep.violations() == []


def test_matches_per_run_reference_loop_across_blocks(grid_setup, small_blocks):
    test_matches_per_run_reference_loop(grid_setup)


@pytest.mark.parametrize("steps", [None, 4])
def test_divergence_inside_a_block_names_the_reference_step(monkeypatch, steps, certify=False):
    # understate L so the nominally valid stepsize explodes the iterates
    lying = replace(quadratic_from_targets(np.ones((4, 2))), L=0.1, mu=0.0)
    pair = fa.preset("ed", fa.metropolis_weights(fa.gen_topology("ring", 4)))
    alpha, iters = 15.0, 400
    x0 = np.random.default_rng(2).standard_normal((4, 2))
    runs = [GridRun(pair, 1.0, 0), GridRun(pair, 0.5, 0)]
    first = []
    for r in runs:
        coins = coin_flips(r.p, r.seed, iters)
        state = initial_state(lying, alpha, r.p, x0)
        with pytest.raises(DivergenceError) as err:
            for k in range(iters):
                state = mirror_step(state, lying, r.pair, int(coins[k]))
        first.append(err.value.iteration)
    if steps:
        set_steps_per_block(monkeypatch, lying, len(runs), steps)
    # inside its block, not at its end; with one block for the whole run the
    # later steps overflow, which must stay silent
    assert (min(first) + 1) % min(iters, block_length(lying, len(runs))) != 0
    observer, certified = None, []
    if certify:
        # any point serves as x* here: the certificates only have to run
        zeros = np.zeros((4, 2))
        certificates = GridCertificates(
            lying, runs, [FixedPoint(zeros, zeros, zeros, 0.0)] * len(runs), alpha, iters)

        def observer(block):
            certified.extend(range(block.k0, block.k0 + len(block.x)))
            certificates(block)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run_grid(lying, runs, alpha, iters, x0=x0, observer=observer)
    assert err.value.iteration == min(first)
    assert str(err.value) == (f"divergence detected at iteration {min(first)}: "
                              "an iterate is not finite or has norm above 1e+12 * max(1, ||x*||)")
    # the blocks before the diverging one, and not that one, were certified
    length = min(iters, block_length(lying, len(runs)))
    assert certified == (list(range(min(first) // length * length)) if certify else [])


@pytest.mark.parametrize("steps", [None, 4])
def test_divergence_inside_a_certified_block_names_the_reference_step(monkeypatch, steps):
    # the block is recorded before it is observed, so the error is the same
    test_divergence_inside_a_block_names_the_reference_step(monkeypatch, steps, certify=True)


def test_rejects_bad_grids():
    inst = quadratic_instance(3, 2, seed=0)
    pair = fa.preset("ed", fa.metropolis_weights(fa.gen_topology("ring", 3)))
    alpha = 1.0 / inst.L
    with pytest.raises(SolverError, match="run"):
        run_grid(inst, [], alpha, 10)
    with pytest.raises(SolverError, match="iteration"):
        run_grid(inst, [GridRun(pair, 0.5, 1)], alpha, 0)
    with pytest.raises(SolverError, match="stepsize"):
        run_grid(inst, [GridRun(pair, 0.5, 1)], 2.0 / inst.L, 10)
    with pytest.raises(SolverError, match="probability"):
        run_grid(inst, [GridRun(pair, 0.5, 1), GridRun(pair, 0.0, 1)], alpha, 10)


def _two_long_agents(tmp_path):
    """Two agents of 10,000 samples in two dimensions: tiny iterates, whose
    margin rows are 10,000 long."""
    path = write_libsvm(synthetic_logistic_dataset(20_000, 2, seed=3), tmp_path / "data.libsvm")
    inst = fa.logistic_instance(path, 2, partition_seed=0, ridge=0.01, prox=ProxSpec("l1", 0.01))
    return inst, fa.preset("ed", fa.metropolis_weights(fa.gen_topology("complete", 2)))


def test_recording_a_long_block_keeps_the_logistic_temporaries_small(tmp_path):
    # a block holds as many steps as keep the margins of its recorded
    # objective and kkt columns within the budget: here one step, whose
    # margins at one point are 160 KB, not the 16 MB of 100 points at once
    inst, pair = _two_long_agents(tmp_path)
    assert block_length(inst, 1) == 1
    trace, peak = traced_peak(lambda: run_grid(inst, [GridRun(pair, 0.5, 0)], 1.0 / inst.L, 100)[0])
    assert np.isfinite(trace.objective).all() and np.isfinite(trace.kkt_residual).all()
    assert peak < 4 * 2**17 * 8


def test_block_length_follows_the_widest_oracle_array(tmp_path):
    # width is d for quadratic agents and the longer of d and the largest
    # agent's sample count for logistic ones; counting only the iterates
    # would give the two long agents 4,096 steps per block
    inst = _two_long_agents(tmp_path)[0]
    assert (inst.width, block_length(inst, 1)) == (10_000, 1)
    budget = solver._BLOCK_BUDGET
    for n, d, count in ((6, 3, 1), (6, 3, 4), (5, 20, 15), (300, 1, 2)):
        inst = quadratic_instance(n, d, seed=0)
        assert inst.width == d
        assert block_length(inst, count) == max(1, budget // (count * n * d))
    # 103 samples over 10 agents, m_max = 11, and 20 samples in 30
    # dimensions over 10 agents, m_max = 2
    for m, d, width in ((103, 6, 11), (20, 30, 30)):
        path = write_libsvm(synthetic_logistic_dataset(m, d, seed=1), tmp_path / f"{m}.libsvm")
        inst = fa.logistic_instance(path, 10, 0, 0.01)
        assert inst.width == width
        assert [block_length(inst, count) for count in (1, 3)] == [
            budget // (count * 10 * width) for count in (1, 3)]
