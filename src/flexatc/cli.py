"""Config-driven experiment runner.

Subcommands:

    run <config>       execute the (variant, p, seed) grid, write CSV + SVG
    check <config>     certificate sweeps only; min slack per inequality
    validate <config>  dry run: parse config, build graph/combiners/problem

Exit codes: 0 success, 2 unreadable or invalid config/dataset, 3 divergence,
4 combiner-assumption or certificate falsification.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, combiners, graph, problem, solver
from .config import ConfigError, ExperimentConfig, check_seed, check_unique, load_config
from .svgplot import Series, render_convergence_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_FALSIFIED = 4

CSV_COLUMNS = (
    "run_id", "variant", "p", "seed", "k", "theta", "comms", "rel_err",
    "consensus_err", "objective", "kkt_residual", "lemma2_slack",
    "thm1_slack", "thm2_slack",
)


class DatasetError(Exception):
    pass


def build_topology(cfg: ExperimentConfig) -> graph.Topology:
    g = cfg.graph
    q = g.q if g.kind == "erdos_renyi" else None
    return graph.gen_topology(g.kind, g.n, g.seed, q)


def build_mixing(cfg: ExperimentConfig, topo: graph.Topology) -> graph.MixingMatrix:
    mixing = graph.metropolis_weights(topo)
    if cfg.mixing.lazify:
        mixing = graph.lazify(mixing)
    return mixing


def build_problem(cfg: ExperimentConfig) -> problem.ProblemInstance:
    p = cfg.problem
    prox = problem.ProxSpec(p.prox, p.prox_weight)
    if p.type == "quadratic":
        return problem.quadratic_instance(
            cfg.graph.n, p.d, p.target_seed,
            curvature_min=p.curvature_min, curvature_max=p.curvature_max,
            prox=prox, target_scale=p.target_scale,
            target_offset_scale=p.target_offset_scale,
        )
    try:
        data = Path(p.data).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {p.data}: {exc}") from exc
    ds = problem.parse_libsvm(data, map_01_labels=p.map_01_labels)
    if p.normalize:
        ds = problem.normalize_features(ds)
    if p.max_samples > 0:
        ds = ds.head(p.max_samples)
    return problem.logistic_instance(ds, cfg.graph.n, p.partition_seed, p.ridge, prox)


def build_pairs(cfg: ExperimentConfig, mixing: graph.MixingMatrix) -> list[combiners.CombinerPair]:
    pairs = [combiners.preset(v, mixing) for v in cfg.variants]
    # a variant is named as preset normalises it: "nids" is "nids:c=0.5"
    check_unique([pair.variant for pair in pairs], "combiner.variants")
    return pairs


def initial_x(cfg: ExperimentConfig, instance: problem.ProblemInstance) -> np.ndarray | None:
    if cfg.run.init == "zeros":
        return None
    rng = np.random.default_rng(cfg.run.init_seed)
    return cfg.run.init_scale * rng.standard_normal((instance.n, instance.d))


@dataclass(eq=False)
class RunResult:
    run_id: str
    variant: str
    p: float
    seed: int
    trace: solver.RunTrace
    sweep: analysis.CertificateSweep | None


def _cells(values) -> list[str]:
    """CSV cells of a float column: the repr of each value, NaN left empty."""
    return ["" if c == "nan" else c for c in map(repr, np.asarray(values, dtype=float).tolist())]


@dataclass(eq=False)
class Grid:
    """The (variant, p, seed) runs of an experiment, in task order, with
    what they share; fps maps each variant to its fixed point."""

    instance: problem.ProblemInstance
    alpha: float
    iters: int
    x0: np.ndarray | None
    record_kkt: bool
    checks: bool
    fps: dict[str, analysis.FixedPoint]
    runs: list[solver.GridRun]


def _execute_grid(grid: Grid) -> list[RunResult]:
    """Advance every run of the grid as one solver.run_grid batch."""
    fps = [grid.fps[r.pair.variant] for r in grid.runs]
    observer = (analysis.GridCertificates(grid.instance, [r.pair for r in grid.runs], fps,
                                          grid.iters) if grid.checks else None)
    traces = solver.run_grid(
        grid.instance, grid.runs, grid.alpha, grid.iters,
        reference=np.stack([fp.x_star for fp in fps]), x0=grid.x0,
        record_kkt=grid.record_kkt, observer=observer,
    )
    sweeps = observer.sweeps if observer else [None] * len(traces)
    return [RunResult(f"{r.pair.variant}|p={r.p:g}|seed={r.seed}", r.pair.variant, r.p, r.seed,
                      trace, sweep)
            for r, trace, sweep in zip(grid.runs, traces, sweeps)]


def _result_rows(res: RunResult) -> list[list[str]]:
    t, sweep, n = res.trace, res.sweep, res.trace.k.size
    blank = np.full(n, np.nan)
    slacks = (sweep.lemma2_slack, sweep.thm1_slack, sweep.thm2_slack) if sweep else (blank,) * 3
    columns = [
        [res.run_id] * n, [res.variant] * n, [repr(res.p)] * n, [str(res.seed)] * n,
        *(list(map(str, c.astype(int).tolist())) for c in (t.k, t.theta, t.comms)),
        *(_cells(c) for c in (t.rel_err, t.consensus_err, t.objective, t.kkt_residual, *slacks)),
    ]
    return [list(row) for row in zip(*columns)]


def _summary_row(res: RunResult) -> list[str]:
    """Machine-readable per-run summary; marked by k = -1."""
    t = res.trace
    mins = res.sweep.min_slacks() if res.sweep else {}
    return [
        res.run_id, res.variant, repr(res.p), str(res.seed), "-1", "", str(int(t.comms[-1])),
        *_cells([t.rel_err[-1], t.consensus_err[-1], t.objective[-1], t.kkt_residual[-1]]),
        *_cells([mins.get(name, np.nan) for name in ("lemma2", "thm1", "thm2")]),
    ]


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def iterations_to_target(trace: solver.RunTrace, target: float) -> tuple[int, int]:
    """(iterations, comms) needed to first reach the target relative error;
    (-1, -1) if the run never got there."""
    hit = np.nonzero(trace.rel_err <= target)[0]
    if hit.size == 0:
        return -1, -1
    i = int(hit[0])
    return i + 1, int(trace.comms[i])


def _resolve_out(path_str: str, out_dir: str | None) -> Path:
    path = Path(path_str)
    if out_dir and not path.is_absolute():
        return Path(out_dir) / path
    return path


def _prepare(cfg: ExperimentConfig):
    """Shared build pipeline: topology, mixing, problem, pairs, fixed points."""
    topo = build_topology(cfg)
    mixing = build_mixing(cfg, topo)
    instance = build_problem(cfg)
    pairs = build_pairs(cfg, mixing)
    alpha = cfg.resolve_alpha(instance.L)
    x_opt = solver.centralized_proxgrad(instance, alpha)
    fps = {pair.variant: analysis.fixed_point(instance, pair, alpha, x_opt=x_opt)
           for pair in pairs}
    return topo, mixing, instance, pairs, alpha, fps


def _grid(cfg: ExperimentConfig, pairs, instance, alpha, fps, x0, checks) -> Grid:
    runs = [solver.GridRun(pair, p, seed)
            for pair in pairs for p in cfg.run.p_list for seed in cfg.run.seeds]
    return Grid(instance, alpha, cfg.run.iterations, x0, cfg.run.record_kkt, checks, fps, runs)


def _run_grid(grid: Grid, threads: int) -> list[RunResult]:
    """Results in task order. With threads > 1 the runs are split into that
    many contiguous batches, one pool task each, so the problem instance is
    pickled once per worker; a run's result does not depend on its batch."""
    count = min(threads, len(grid.runs))
    if count <= 1:
        return _execute_grid(grid)
    bounds = [len(grid.runs) * i // count for i in range(count + 1)]
    batches = [replace(grid, runs=grid.runs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=count) as pool:
        return [res for batch in pool.map(_execute_grid, batches) for res in batch]


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1) -> int:
    topo, mixing, instance, pairs, alpha, fps = _prepare(cfg)
    print(f"graph: {cfg.graph.kind} n={topo.n} edges={len(topo.edges)} rho={mixing.rho:.6f}")
    print(f"problem: {cfg.problem.type} d={instance.d} L={instance.L:.6g} mu={instance.mu:.6g} "
          f"alpha={alpha:.6g}")

    x0 = initial_x(cfg, instance)
    grid = _grid(cfg, pairs, instance, alpha, fps, x0, cfg.outputs.checks)
    results = _run_grid(grid, threads)

    rows: list[list[str]] = []
    falsified: list[str] = []
    for res in results:
        rows.extend(_result_rows(res))
        rows.append(_summary_row(res))
        iters, comms = iterations_to_target(res.trace, cfg.run.target_rel_err)
        print(
            f"{res.run_id}: final rel_err={res.trace.rel_err[-1]:.3e} "
            f"comms={int(res.trace.comms[-1])} "
            f"iters_to_{cfg.run.target_rel_err:g}={iters} (comms {comms})"
        )
        if res.sweep is not None:
            for name, idx in res.sweep.violations():
                falsified.append(f"{res.run_id}: {name} violated at iteration {idx}")

    _write_csv(_resolve_out(cfg.outputs.csv, out_dir), rows)

    # One polyline per (variant, p) pair; the first seed represents the pair.
    first_seed = cfg.run.seeds[0]
    iter_series, comm_series = [], []
    for res in results:
        if res.seed != first_seed:
            continue
        label = f"{res.variant} p={res.p:g}"
        ks = (res.trace.k + 1).tolist()
        errs = res.trace.rel_err.tolist()
        iter_series.append(Series(label, ks, errs))
        comm_series.append(Series(label, res.trace.comms.tolist(), errs))
    svg_path = _resolve_out(cfg.outputs.svg, out_dir)
    svg_path.parent.mkdir(parents=True, exist_ok=True)
    svg_path.write_text(render_convergence_svg(iter_series, comm_series))

    if falsified:
        for line in falsified:
            print(f"FALSIFIED {line}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def check_suite(cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1) -> int:
    topo, mixing, instance, pairs, alpha, fps = _prepare(cfg)
    if instance.mu <= 0.0:
        print("notice: mu = 0, the linear-rate certificate is skipped")

    x0 = initial_x(cfg, instance)
    grid = _grid(cfg, pairs, instance, alpha, fps, x0, checks=True)
    results = _run_grid(grid, threads)

    rows: list[list[str]] = []
    status = EXIT_OK
    for res in results:
        rows.extend(_result_rows(res))
        rows.append(_summary_row(res))
        mins = res.sweep.min_slacks()
        summary = " ".join(f"min_{name}_slack={val:.3e}" for name, val in mins.items())
        print(f"{res.run_id}: {summary}")
        for name, idx in res.sweep.violations():
            print(f"FALSIFIED {res.run_id}: {name} violated at iteration {idx}", file=sys.stderr)
            status = EXIT_FALSIFIED
    _write_csv(_resolve_out(cfg.outputs.csv, out_dir), rows)
    return status


def validate_config(cfg: ExperimentConfig, out_dir: str | None = None,
                    export_topology: str | None = None) -> int:
    topo = build_topology(cfg)
    mixing = build_mixing(cfg, topo)
    print(f"graph: {cfg.graph.kind} n={topo.n} edges={len(topo.edges)} "
          f"rho={mixing.rho:.6f} psd={mixing.psd}")
    if export_topology:
        topo_path = _resolve_out(export_topology, out_dir)
        topo_path.parent.mkdir(parents=True, exist_ok=True)
        topo_path.write_text(graph.topology_to_edgelist(topo))
        print(f"topology written to {topo_path}")
    instance = build_problem(cfg)
    alpha = cfg.resolve_alpha(instance.L)
    print(f"problem: {cfg.problem.type} n={instance.n} d={instance.d} "
          f"L={instance.L:.6g} mu={instance.mu:.6g} alpha={alpha:.6g}")
    status = EXIT_OK
    names = []
    for variant in cfg.variants:
        try:
            pair = combiners.preset(variant, mixing)
        except combiners.CombinerError as exc:
            print(f"{variant}: INVALID\n{exc}", file=sys.stderr)
            status = EXIT_FALSIFIED
            continue
        names.append(pair.variant)
        report = combiners.validate(pair)
        if report.ok:
            print(f"{variant}: ok, comm_rounds={pair.comm_rounds} sigma_m={pair.sigma_m_b:.6g}")
        else:
            failed = ", ".join(c.name for c in report.failures())
            print(f"{variant}: FAILED audit: {failed}", file=sys.stderr)
            status = EXIT_FALSIFIED
        for line in str(report).splitlines():
            print(f"  {line}")
    check_unique(names, "combiner.variants")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flexatc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "check", "validate"):
        s = sub.add_parser(name)
        s.add_argument("config")
        s.add_argument("--out-dir", default=None)
        s.add_argument("--threads", type=int, default=1)
        s.add_argument("--seed-override", type=int, default=None)
        if name == "validate":
            s.add_argument("--export-topology", default=None)
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.seed_override is not None:
            check_seed(args.seed_override, "--seed-override")
            cfg.run.seeds = (args.seed_override,)
        if args.command == "run":
            return run_experiment(cfg, args.out_dir, args.threads)
        if args.command == "check":
            return check_suite(cfg, args.out_dir, args.threads)
        return validate_config(cfg, args.out_dir, args.export_topology)
    except (ConfigError, DatasetError, problem.ParseError, problem.ProblemError,
            graph.GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (combiners.CombinerError, analysis.CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
