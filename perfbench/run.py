"""Benchmark of the flexatc CLI on two generated workloads.

    python3 perfbench/run.py --workload replica_run --seed 0 --seconds 60 --trace 0

Each repetition spawns one CLI process (`run` or `check`) on inputs
generated from --seed, times it from spawn to exit, and gates its
outputs.  Repetitions continue until --seconds have been spent.  Inputs are
generated, and cached under `.perfbench/`, before any clock starts.

--trace 0 reports the end-to-end metrics: wall_s, setup_s (spawn to the
grid boundary) and peak_rss_mb, each the median over the repetitions.
Every repetition runs the CLI serially (`--threads 1`): on a machine of a
few shared cores a process pool times the scheduler as much as the program.
--trace 1 runs the workload once untraced (and once through the process
pool, for `check`), then alternates untraced serial repetitions with traced
ones (serial and in one process, see shim.py), and reports per-module
metrics.

The last line of stdout is one JSON object: correct, attempted and failed
count (variant, p, seed) runs, and metrics maps each metric name to its
value and unit.  The line before it holds the
machine, the repetitions and the gate's notes.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench"
REF = HERE / "ref"

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REP_TIMEOUT_S = 150.0
DEFAULT_SEED = 0
REF_STRIDE = 25

# The CSV schema and the certificate tolerance are fixed by the project.
CSV_COLUMNS = (
    "run_id", "variant", "p", "seed", "k", "theta", "comms", "rel_err",
    "consensus_err", "objective", "kkt_residual", "lemma2_slack",
    "thm1_slack", "thm2_slack",
)
TRAJECTORY = ("rel_err", "consensus_err", "objective", "kkt_residual")
SLACKS = ("lemma2_slack", "thm1_slack", "thm2_slack")
SLACK_TOL = 1e-9
TRAJECTORY_RTOL = 1e-12
REPLICA_MAX_ERR_RATIO = 3.0

PRESETS = "ed, nids:c=0.3, mg_ed:N=3, atc_gt, mg_sonata:N=2"
# The stand-in replaces one fixed dataset (ijcnn1), so it does not vary with
# --seed; the seed varies what the paper's experiment randomises: the graph,
# the partition and the coins.  A seeded dataset would move the reference
# solve's iteration count by up to 50% between seeds (926 to 1416 over seeds
# 0 to 5), drowning any change in the code.
REPLICA_DATA_SEED = 0
P_LIST = (1.0, 0.5, 0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    variants: int
    iterations: int
    # Workers for the traced pass's one pooled run (cli.pool_speedup); the
    # end-to-end repetitions are always serial.
    pool_threads: int = 1

    @property
    def runs(self) -> int:
        return self.variants * len(P_LIST)


WORKLOADS = {
    w.name: w for w in (
        Workload("replica_run", "run", 1, 150),
        Workload("certify_grid", "check", 5, 1500, pool_threads=2),
    )
}


def _config(workload: Workload, seed: int, data: Path | None) -> str:
    p_list = ", ".join(f"{p:g}" for p in P_LIST)
    if workload.name == "replica_run":
        # The paper's ijcnn1 experiment at full size, on a generated stand-in.
        return f"""
[graph]
kind = erdos_renyi
n = 50
q = 0.1
seed = {seed}

[combiner]
variants = ed

[problem]
type = logistic
data = {data}
ridge = 0.01
max_samples = 49950
partition_seed = {seed}
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = {p_list}
iterations = {workload.iterations}
seeds = {seed}
record_kkt = false

[outputs]
csv = {workload.name}.csv
svg = {workload.name}.svg
"""
    # configs/synthetic_check.ini, lazified so every preset applies.
    return f"""
[graph]
kind = ring
n = 10

[mixing]
lazify = true

[combiner]
variants = {PRESETS}

[problem]
type = quadratic
d = 5
target_seed = {seed}
curvature_min = 0.005
curvature_max = 1.0
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = {p_list}
iterations = {workload.iterations}
seeds = {seed}

[outputs]
csv = {workload.name}.csv
svg = {workload.name}.svg
checks = true
"""


def _generators():
    """The test suite's dataset generators, imported from the checkout."""
    for path in (SRC, TESTS):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import conftest
    from flexatc import problem

    return conftest, problem


def prepare_inputs(workload: Workload, seed: int) -> Path:
    """Write the config (and the LIBSVM stand-in, cached); untimed."""
    case = WORK / f"{workload.name}-seed{seed}"
    case.mkdir(parents=True, exist_ok=True)
    data = None
    if workload.name == "replica_run":
        data = WORK / "data" / f"replica-stand-in-{REPLICA_DATA_SEED}.libsvm"
        if not data.exists():
            conftest, problem = _generators()
            ds = conftest.correlated_logistic_dataset(49_950, 22, REPLICA_DATA_SEED)
            data.parent.mkdir(parents=True, exist_ok=True)
            tmp = data.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(problem.serialize_libsvm(ds))
            tmp.replace(data)
        data.read_bytes()  # warm the page cache so no repetition pays for it
    config = case / "bench.ini"
    config.write_text(_config(workload, seed, data))
    return config


@dataclass
class Rep:
    code: int
    wall_s: float
    setup_s: float
    rss_mb: float
    out_dir: Path
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env.pop("FLEXATC_THREADS", None)
    return env


def run_cli(workload: Workload, config: Path, threads: int, tag: str,
            trace: Path | None = None) -> Rep:
    """Spawn one CLI process and time it from spawn to exit."""
    out_dir = config.parent / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    mark = out_dir / "grid.mark"
    argv = [sys.executable, str(HERE / "shim.py"), "--mark", str(mark)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    argv += ["--", workload.command, str(config), "--out-dir", str(out_dir),
             "--threads", str(threads)]
    with open(out_dir / "stdout", "w") as out, open(out_dir / "stderr", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(),
                                cwd=ROOT, start_new_session=True)
        # A timer kills the whole session (CLI plus pool workers) if it hangs,
        # so the wait below needs no polling and adds no latency.
        timer = threading.Timer(REP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    # Reaped by wait4 above; tell Popen, so it does not wait or warn again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = [float(x) for x in mark.read_text().split()] if mark.exists() else []
    wall = end - start
    # Linux reports ru_maxrss in KiB, over the process and its reaped children.
    return Rep(proc.returncode, wall, (min(marks) - start) if marks else wall,
               usage.ru_maxrss / 1024.0, out_dir,
               (out_dir / "stdout").read_text(), (out_dir / "stderr").read_text())


# ---------------------------------------------------------------- gate ----

def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


def _read_runs(path: Path) -> dict[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"{path.name}: header is not the flexatc CSV schema")
    runs: dict[str, list[list[str]]] = {}
    for line in lines[1:]:
        row = line.split(",")
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"{path.name}: row with {len(row)} cells")
        runs.setdefault(row[0], []).append(row)
    return runs


def _col(name: str) -> int:
    return CSV_COLUMNS.index(name)


def _reference_rows(runs: dict[str, list[list[str]]], iterations: int) -> list[list[str]]:
    """The trajectory cells kept in a reference file: every REF_STRIDE-th
    iteration, the last one, and the summary row of each run."""
    keep = []
    for run_id, rows in runs.items():
        for row in rows:
            k = int(row[_col("k")])
            if k % REF_STRIDE == 0 or k in (iterations - 1, -1):
                keep.append([run_id, row[_col("k")]] + [row[_col(c)] for c in TRAJECTORY])
    return keep


def _close(a: str, b: str, scale: float) -> bool:
    if not a or not b:
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= TRAJECTORY_RTOL * max(abs(y), scale)


def _compare_reference(runs, reference) -> set[str]:
    """Run ids whose trajectory columns leave the reference by more than
    TRAJECTORY_RTOL, relative to the cell or to its column's largest
    magnitude in that run."""
    scale: dict[tuple[str, int], float] = {}
    for ref in reference:
        for j, cell in enumerate(ref[2:]):
            if cell:
                key = (ref[0], j)
                scale[key] = max(scale.get(key, 0.0), abs(float(cell)))
    current = {(row[0], row[_col("k")]): row for rows in runs.values() for row in rows}
    bad = set()
    for ref in reference:
        row = current.get((ref[0], ref[1]))
        if row is None:
            bad.add(ref[0])
            continue
        for j, name in enumerate(TRAJECTORY):
            if not _close(row[_col(name)], ref[2 + j], scale.get((ref[0], j), 0.0)):
                bad.add(ref[0])
    return bad


def _replica_ok(runs) -> bool:
    """The assertions of test_paper_replica_pipeline_on_surrogate: the
    relative-error curves of all p stay within a factor 3 of each other at
    every iteration, and total communication falls strictly with p."""
    errs: dict[float, dict[int, float]] = {}
    comms: dict[float, int] = {}
    for rows in runs.values():
        for row in rows:
            p, k = float(row[_col("p")]), int(row[_col("k")])
            if k >= 0:
                errs.setdefault(p, {})[k] = float(row[_col("rel_err")])
                comms[p] = int(row[_col("comms")])
    if set(errs) != set(P_LIST):
        return False
    steps = set.intersection(*(set(e) for e in errs.values()))
    worst = max(max(errs[p][k] for p in P_LIST) / min(errs[p][k] for p in P_LIST)
                for k in steps)
    ordered = all(comms[a] > comms[b] for a, b in zip(P_LIST, P_LIST[1:]))
    return worst <= REPLICA_MAX_ERR_RATIO and ordered


def gate(workload: Workload, rep: Rep, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) for the runs of one `run` or `check`."""
    attempted = workload.runs
    if rep.code != 0:
        return attempted, attempted, [f"exit code {rep.code}: {rep.stderr.strip()[-300:]}"]
    try:
        runs = _read_runs(rep.out_dir / f"{workload.name}.csv")
    except (OSError, ValueError) as exc:
        return attempted, attempted, [str(exc)]
    notes = []
    bad: set[str] = set()
    expected_k = list(range(workload.iterations)) + [-1]
    for run_id, rows in runs.items():
        if [int(r[_col("k")]) for r in rows] != expected_k:
            bad.add(run_id)
            notes.append(f"{run_id}: {len(rows)} rows, expected {len(expected_k)}")
            continue
        if workload.command != "check":
            continue
        for name in SLACKS:
            cells = [_float(r[_col(name)]) for r in rows[:-1]]
            scale = max((abs(c) for c in cells if not math.isnan(c)), default=0.0)
            least = _float(rows[-1][_col(name)])
            if not (least >= -SLACK_TOL * (1.0 + scale)):
                bad.add(run_id)
                notes.append(f"{run_id}: min {name} {least!r} below -{SLACK_TOL:g} x (1 + {scale:.3g})")
    if workload.name == "replica_run" and not _replica_ok(runs):
        bad.update(runs)
        notes.append("replica assertions failed (error ratio across p, or comms order)")
    if reference is not None:
        drift = _compare_reference(runs, reference)
        bad |= drift
        notes.extend(f"{r}: trajectory differs from the reference" for r in sorted(drift))
    failed = len(bad) + max(0, attempted - len(runs))
    if len(runs) != attempted:
        notes.append(f"{len(runs)} runs in the CSV, expected {attempted}")
    return attempted, min(failed, attempted), notes


def reference_for(workload: Workload, seed: int):
    if seed != DEFAULT_SEED:
        return None
    path = REF / f"{workload.name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def record_reference(workload: Workload, rep: Rep) -> Path:
    """Store the default seed's outputs as the reference for later commits."""
    rows = _reference_rows(_read_runs(rep.out_dir / f"{workload.name}.csv"),
                           workload.iterations)
    text = "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
    REF.mkdir(exist_ok=True)
    path = REF / f"{workload.name}.json"
    path.write_text(text + "\n")
    return path


# ------------------------------------------------------------- metrics ----

def _grid_s(rep: Rep) -> float:
    return rep.wall_s - rep.setup_s


def trace_metrics(workload: Workload, trace: dict, traced: Rep, serial: list[Rep],
                  pooled: Rep) -> dict[str, tuple[float, str]]:
    """Per-module metrics from one traced repetition.  Inclusive times are
    summed over a boundary's calls; self times exclude traced children.
    `serial` holds the untraced serial repetitions, `pooled` the untraced
    one at the workload's pool size (the first serial one if that is 1)."""
    stats, under = trace["stats"], trace["under"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def caused(cause, name):
        return under.get(f"{cause}>{name}", 0)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    run_iters = workload.runs * workload.iterations
    sweeps = calls("analysis.sweep_certificates")
    sweep_steps = run_iters if sweeps else 0
    parse_s = total("problem.parse_libsvm")
    layers: dict[str, float] = {}
    for name, (_, _, self_s) in stats.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    self_sum = sum(layers.values())
    csv = traced.out_dir / f"{workload.name}.csv"
    serial_grid_s = statistics.median(map(_grid_s, serial))

    m = {
        "linalg.sym_eig_calls": (calls("linalg.sym_eig"), "count"),
        "linalg.sym_eig_s": (total("linalg.sym_eig"), "s"),
        "linalg.kron_apply_calls": (calls("linalg.kron_apply"), "count"),
        "graph.build_s": (total("graph.gen_topology", "graph.metropolis_weights",
                                "graph.lazify"), "s"),
        "combiners.build_s": (total("combiners.preset"), "s"),
        "problem.parse_s": (parse_s, "s"),
        "problem.parse_mb_per_s": (ratio(trace["sizes"].get("problem.parse_libsvm", 0) / 1e6,
                                         parse_s), "MB/s"),
        "problem.instance_s": (total("problem.logistic_instance",
                                     "problem.quadratic_instance"), "s"),
        "problem.grad_stack_calls": (calls("problem.grad_stack"), "count"),
        "problem.grad_stack_us": (1e6 * ratio(total("problem.grad_stack"),
                                              calls("problem.grad_stack")), "us"),
        "problem.mean_grad_calls": (calls("problem.mean_grad"), "count"),
        "solver.reference_s": (total("solver.centralized_proxgrad"), "s"),
        "solver.reference_iters": (caused("solver.centralized_proxgrad", "problem.mean_grad"),
                                   "count"),
        "solver.run_s": (total("solver.run"), "s"),
        "solver.run_us_per_iter": (1e6 * ratio(total("solver.run"), run_iters), "us"),
        "analysis.fixed_point_s": (total("analysis.fixed_point"), "s"),
        "analysis.sweep_s": (total("analysis.sweep_certificates"), "s"),
        "analysis.sweep_us_per_iter": (1e6 * ratio(total("analysis.sweep_certificates"),
                                                   sweep_steps), "us"),
        "analysis.grad_calls_per_step": (ratio(caused("analysis.sweep_certificates",
                                                      "problem.grad_stack"), sweep_steps),
                                         "count"),
        "cli.output_s": (total("cli._result_rows", "cli._summary_row", "cli._write_csv",
                               "cli.render_convergence_svg"), "s"),
        "cli.csv_bytes": (csv.stat().st_size if csv.exists() else 0, "bytes"),
        "cli.iters_per_s": (ratio(run_iters, serial_grid_s), "1/s"),
        "cli.pool_speedup": (ratio(serial_grid_s, _grid_s(pooled)), "ratio"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead": (ratio(traced.wall_s, statistics.median(r.wall_s for r in serial)),
                           "ratio"),
        "trace.startup_s": (trace["startup_s"], "s"),
        "trace.coverage": (ratio(self_sum + trace["startup_s"], traced.wall_s), "ratio"),
    }
    for layer in ("linalg", "graph", "combiners", "problem", "solver", "analysis", "cli"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    return m


def _median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def machine() -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "shim.py"), "--probe"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import flexatc from {SRC}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store one repetition's outputs as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "flexatc" / "cli.py").is_file() or not (TESTS / "conftest.py").is_file():
        print(f"error: run from a flexatc checkout; {SRC / 'flexatc'} or "
              f"{TESTS / 'conftest.py'} is missing", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)
    host = machine()
    config = prepare_inputs(workload, args.seed)

    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            parser.error(f"references are recorded for seed {DEFAULT_SEED}")
        rep = run_cli(workload, config, 1, "reference")
        if rep.code != 0:
            print(rep.stderr, file=sys.stderr)
            return 1
        print(f"reference written to {record_reference(workload, rep)}")
        return 0

    reference = reference_for(workload, args.seed)
    attempted = failed = 0
    notes: list[str] = []
    reps: list[Rep] = []

    def measure(tag: str, threads: int, trace: Path | None = None) -> Rep:
        nonlocal attempted, failed
        rep = run_cli(workload, config, threads, tag, trace)
        a, f, n = gate(workload, rep, reference)
        attempted, failed = attempted + a, failed + f
        notes.extend(f"{tag}: {line}" for line in n)
        reps.append(rep)
        return rep

    started = time.monotonic()

    def time_left_for(rep: Rep) -> bool:
        return time.monotonic() - started + rep.wall_s <= args.seconds

    absent: list[str] = []
    # Repetitions of one kind share an output directory, emptied before each
    # one, so a run leaves one set of outputs per kind on disk.
    if args.trace == 0:
        rep = measure("rep", 1)
        while time_left_for(rep):
            rep = measure("rep", 1)
        samples = [{"wall_s": (r.wall_s, "s"), "setup_s": (r.setup_s, "s"),
                    "peak_rss_mb": (r.rss_mb, "MB")} for r in reps]
    else:
        # Untraced serial and traced repetitions alternate, so the tracing
        # overhead compares runs made under the same machine load.
        serial = [measure("serial", 1)]
        pooled = (measure("pooled", workload.pool_threads) if workload.pool_threads > 1
                  else serial[0])
        trace_file = config.parent / "traced.trace.json"
        traced = []
        while True:
            rep = measure("traced", 1, trace_file)
            traced.append((rep, json.loads(trace_file.read_text())))
            if time.monotonic() - started + serial[-1].wall_s + rep.wall_s > args.seconds:
                break
            serial.append(measure("serial", 1))
        absent = traced[-1][1]["absent"]
        samples = [trace_metrics(workload, trace, rep, serial, pooled) for rep, trace in traced]

    metrics = _median_metrics(samples)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(samples)} measured "
          f"repetition(s), {len(reps)} CLI process(es), {time.monotonic() - started:.1f} s")
    for name, metric in metrics.items():
        values = [s[name][0] for s in samples]
        q1, q3 = _quartiles(values)
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"(quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'failed_runs':28s} {failed:>7d} / {attempted} runs")
    for line in notes:
        print(f"  FAILED {line}")
    if absent:
        print(f"  absent boundaries (reported as 0): {', '.join(absent)}")
    print(json.dumps({
        "machine": host,
        "reference_checked": reference is not None,
        "absent": absent,
        "repetitions": [{"kind": r.out_dir.name, "code": r.code, "wall_s": r.wall_s,
                         "setup_s": r.setup_s, "peak_rss_mb": r.rss_mb} for r in reps],
        "notes": notes,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
