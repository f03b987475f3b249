"""Config-driven experiment runner.

Subcommands:

    run <config>       execute the (variant, p, seed) grid, write CSV + SVG
    check <config>     the run pipeline with certificates on: CSV + min slacks
    validate <config>  dry run: parse config, build graph/problem/combiners

Exit codes: 0 success, 1 a --threads worker process that died, 2 unreadable
or invalid config/dataset (an invalid combiner variant, or an L that overflows
float64, too), an array numpy cannot allocate, or an unwritable output or
stdout, 3 divergence, a reference solve that does not converge or certificate
terms that overflow float64, 4 a falsified certificate, a pair that fails
validate's dense audit, or a LinalgError.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, combiners, graph, linalg, problem, solver
from .config import ConfigError, ExperimentConfig, check_unique, load_config
from .svgplot import render_convergence_svg

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_FALSIFIED = 4

CSV_COLUMNS = (
    "run_id", "variant", "p", "seed", "k", "theta", "comms", "rel_err",
    "consensus_err", "objective", "kkt_residual", "lemma2_slack",
    "thm1_slack", "thm2_slack",
)


def build(cfg: ExperimentConfig) -> tuple[graph.Topology, graph.MixingMatrix,
                                          problem.ProblemInstance, float,
                                          list[combiners.CombinerPair]]:
    """What every command builds, in one order: the network, the problem and
    the stepsize run.alpha resolves to on it, then the combiner pairs."""
    g, p = cfg.graph, cfg.problem
    topo = graph.gen_topology(g.kind, g.n, g.seed, g.q)
    mixing = graph.metropolis_weights(topo)
    if cfg.mixing.lazify:
        mixing = graph.lazify(mixing)
    prox = problem.ProxSpec(p.prox, p.prox_weight)
    if p.type == "quadratic":
        instance = problem.quadratic_instance(
            g.n, p.d, p.target_seed,
            curvature_min=p.curvature_min, curvature_max=p.curvature_max,
            prox=prox, target_scale=p.target_scale,
            target_offset_scale=p.target_offset_scale,
        )
    else:
        try:
            instance = problem.logistic_instance(p.data, g.n, p.partition_seed, p.ridge,
                                                 prox, p.max_samples or None)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {p.data}: {exc}") from exc
    alpha = cfg.resolve_alpha(instance.L)
    pairs = [combiners.preset(v, mixing) for v in cfg.combiner.variants]
    # a variant is named as preset normalises it: "nids" is "nids:c=0.5"
    check_unique([pair.variant for pair in pairs], "combiner.variants")
    return topo, mixing, instance, alpha, pairs


def _run_id(run: solver.GridRun) -> str:
    return f"{run.pair.variant}|p={run.p:g}|seed={run.seed}"


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


def _execute_grid(grid: Grid) -> list[tuple]:
    """Each run's (GridRun, RunTrace, CertificateSweep or None), as one run_grid batch."""
    fps = [grid.fps[r.pair.variant] for r in grid.runs]
    observer = (analysis.GridCertificates(grid.instance, grid.runs, fps, grid.alpha, grid.iters)
                if grid.checks else None)
    traces = solver.run_grid(
        grid.instance, grid.runs, grid.alpha, grid.iters,
        reference=np.stack([fp.x_star for fp in fps]), x0=grid.x0,
        record_kkt=grid.record_kkt, observer=observer,
    )
    return list(zip(grid.runs, traces, observer.sweeps if observer else [None] * len(traces)))


def _result_rows(res: tuple) -> list[list[str]]:
    r, t, sweep = res
    n = t.theta.size
    blank = np.full(n, np.nan)
    slacks = (sweep.lemma2_slack, sweep.thm1_slack, sweep.thm2_slack) if sweep else (blank,) * 3
    columns = [
        [_run_id(r)] * n, [r.pair.variant] * n, [repr(r.p)] * n, [str(r.seed)] * n,
        *(list(map(str, c.astype(int).tolist())) for c in (np.arange(n), t.theta, t.comms)),
        *(_cells(c) for c in (t.rel_err, t.consensus_err, t.objective, t.kkt_residual, *slacks)),
    ]
    return [list(row) for row in zip(*columns)]


def _summary_row(res: tuple) -> list[str]:
    """Machine-readable per-run summary; marked by k = -1."""
    r, t, sweep = res
    mins = sweep.min_slacks() if sweep else {}
    return [
        _run_id(r), r.pair.variant, repr(r.p), str(r.seed), "-1", "", str(int(t.comms[-1])),
        *_cells([t.rel_err[-1], t.consensus_err[-1], t.objective[-1], t.kkt_residual[-1]]),
        *_cells([mins.get(name, np.nan) for name in ("lemma2", "thm1", "thm2")]),
    ]


def _write_csv(path: Path, results: list[tuple]) -> None:
    """The header, then each run's rows and its summary row, one run's
    cells at a time."""
    with path.open("w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for res in results:
            rows = _result_rows(res)
            rows.append(_summary_row(res))
            fh.write("".join(",".join(row) + "\n" for row in rows))


def _write_svg(path: Path, results: list[tuple]) -> None:
    """One curve per (variant, p) pair, its run at the grid's first seed."""
    first_seed = results[0][0].seed
    path.write_text(render_convergence_svg([
        (f"{r.pair.variant} p={r.p:g}", trace.comms.tolist(), trace.rel_err.tolist())
        for r, trace, _ in results if r.seed == first_seed]))


def iterations_to_target(trace: solver.RunTrace, target: float) -> tuple[int, int]:
    """(iterations, comms) needed to first reach the target relative error;
    (-1, -1) if the run never got there."""
    hit = np.nonzero(trace.rel_err <= target)[0]
    if hit.size == 0:
        return -1, -1
    i = int(hit[0])
    return i + 1, int(trace.comms[i])


@contextmanager
def _output(path: Path):
    """An OSError while the block writes path is a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _output_path(path_str: str, out_dir: str | None) -> Path:
    """The output path, under out_dir unless it is absolute, with its
    directory made; one that is a directory is a ConfigError too."""
    path = Path(out_dir or "", path_str)
    with _output(path):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: Is a directory")
    return path


def _prepare(cfg: ExperimentConfig,
             checks: bool) -> tuple[graph.Topology, graph.MixingMatrix, Grid]:
    """The build, then the one reference solve, its lift to each pair's
    fixed point and the grid of runs."""
    topo, mixing, instance, alpha, pairs = build(cfg)
    x_opt = solver.centralized_proxgrad(instance)
    fps = {pair.variant: analysis.fixed_point(instance, pair, alpha, x_opt) for pair in pairs}
    x0 = None
    if cfg.run.init_scale:
        rng = np.random.default_rng(cfg.run.init_seed)
        x0 = cfg.run.init_scale * rng.standard_normal((instance.n, instance.d))
    runs = [solver.GridRun(pair, p, seed)
            for pair in pairs for p in cfg.run.p_list for seed in cfg.run.seeds]
    grid = Grid(instance, alpha, cfg.run.iterations, x0, cfg.run.record_kkt, checks, fps, runs)
    return topo, mixing, grid


def _run_grid(grid: Grid, threads: int) -> list[tuple]:
    """Results in task order. With threads > 1 the runs are split into that
    many contiguous batches, one pool task each, so the problem instance is
    pickled once per worker; a run's result does not depend on its batch."""
    count = min(threads, len(grid.runs))
    if count <= 1:
        return _execute_grid(grid)
    bounds = [len(grid.runs) * i // count for i in range(count + 1)]
    batches = [replace(grid, runs=grid.runs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    # imported here, so that a serial run does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=count) as pool:
        return [res for batch in pool.map(_execute_grid, batches) for res in batch]


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1,
                   check: bool = False) -> int:
    """The run command, or with check=True the check command: the same grid
    with the certificates forced on, min slacks in place of the
    iterations-to-target line, and no SVG. Outputs resolve before any
    compute, and the files are written before the run lines are printed."""
    csv_path = _output_path(cfg.outputs.csv, out_dir)
    svg_path = None if check else _output_path(cfg.outputs.svg, out_dir)
    topo, mixing, grid = _prepare(cfg, checks=check or cfg.outputs.checks)
    instance, target = grid.instance, cfg.run.target_rel_err
    if not check:
        print(f"graph: {cfg.graph.kind} n={topo.n} edges={len(topo.edges)} rho={mixing.rho:.6f}")
        print(f"problem: {cfg.problem.type} d={instance.d} L={instance.L:.6g} "
              f"mu={instance.mu:.6g} alpha={grid.alpha:.6g}")
    elif instance.mu <= 0.0:
        print("notice: mu = 0, the linear-rate certificate is skipped")
    results = _run_grid(grid, threads)
    with _output(csv_path):
        _write_csv(csv_path, results)
    if svg_path:
        with _output(svg_path):
            _write_svg(svg_path, results)

    falsified = [f"{_run_id(r)}: {name} violated at iteration {idx}"
                 for r, _, sweep in results if sweep is not None
                 for name, idx in sweep.violations()]
    # a closed stdout must not hide a falsified certificate
    try:
        for r, trace, sweep in results:
            if check:
                mins = sweep.min_slacks()
                print(f"{_run_id(r)}: "
                      + " ".join(f"min_{name}_slack={val:.3e}" for name, val in mins.items()))
            else:
                iters, comms = iterations_to_target(trace, target)
                print(f"{_run_id(r)}: final rel_err={trace.rel_err[-1]:.3e} "
                      f"comms={int(trace.comms[-1])} "
                      f"iters_to_{target:g}={iters} (comms {comms})")
    finally:
        for line in falsified:
            print(f"FALSIFIED {line}", file=sys.stderr)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def validate_config(cfg: ExperimentConfig, out_dir: str | None = None,
                    export_topology: str | None = None) -> int:
    """The validate command: the build of run and check, then its report and
    each pair's dense audit. The topology path resolves before the build, and
    the file is written only after it."""
    topo_path = _output_path(export_topology, out_dir) if export_topology else None
    topo, mixing, instance, alpha, pairs = build(cfg)
    print(f"graph: {cfg.graph.kind} n={topo.n} edges={len(topo.edges)} "
          f"rho={mixing.rho:.6f} psd={mixing.psd}")
    if topo_path:
        with _output(topo_path):
            topo_path.write_text(graph.topology_to_edgelist(topo))
        print(f"topology written to {topo_path}")
    kappa = instance.L / instance.mu if instance.mu > 0.0 else math.inf
    print(f"problem: {cfg.problem.type} n={instance.n} d={instance.d} "
          f"L={instance.L:.6g} mu={instance.mu:.6g} kappa={kappa:.6g} alpha={alpha:.6g}")
    status = EXIT_OK
    for pair in pairs:
        checks = combiners.validate(pair)
        failed = [c.name for c in checks if not c.passed]
        if failed:
            print(f"{pair.variant}: FAILED audit: {', '.join(failed)}", file=sys.stderr)
            status = EXIT_FALSIFIED
        else:
            print(f"{pair.variant}: ok, comm_rounds={pair.comm_rounds} "
                  f"sigma_m={pair.sigma_m_b:.6g}")
        for c in checks:
            note = f" ({c.note})" if c.note else ""
            print(f"  {c.name}: {'pass' if c.passed else 'FAIL'}, margin {c.margin:+.3e}{note}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flexatc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "check", "validate"):
        s = sub.add_parser(name)
        s.add_argument("config")
        s.add_argument("--out-dir", default=None)
        if name == "validate":
            s.add_argument("--export-topology", default=None)
        else:
            s.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            status = validate_config(load_config(args.config), args.out_dir, args.export_topology)
        elif args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        else:
            status = run_experiment(load_config(args.config), args.out_dir, args.threads,
                                    check=args.command == "check")
        sys.stdout.flush()
        return status
    except BrokenPipeError as exc:
        # The reader closed stdout. Later writes, and the interpreter's
        # flush at exit, go to os.devnull, so the error is reported once.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write <stdout>: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, problem.ParseError, problem.ProblemError, graph.GraphError,
            combiners.CombinerError, MemoryError) as exc:
        # a MemoryError is numpy refusing an array the config asks for
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (solver.DivergenceError, solver.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (analysis.CertificateError, linalg.LinalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except Exception as exc:
        # imported here, like the pool, so that a serial run does not load it
        from concurrent.futures.process import BrokenProcessPool
        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
