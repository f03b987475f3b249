import concurrent.futures
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import flexatc as fa
import flexatc.cli as cli
from conftest import write_libsvm
from flexatc import combiners
from flexatc.analysis import SLACK_TOL, GridCertificates, fixed_point
from flexatc.config import ConfigError, load_config, parse_config
from flexatc.graph import topology_to_edgelist
from flexatc.linalg import LinalgError
from flexatc.solver import DivergenceError, SolverError, centralized_proxgrad
from reference import LogisticLoss, partition

SMOKE = """
[graph]
kind = ring
n = 1

[combiner]
variants = ed

[problem]
type = quadratic
d = 2
target_seed = 3

[run]
alpha = 1/L
p_list = 1
iterations = 6
seeds = 1

[outputs]
csv = smoke.csv
svg = smoke.svg
"""

GRID = """
[graph]
kind = ring
n = 6

[combiner]
variants = ed, nids:c=0.4

[problem]
type = quadratic
d = 3
target_seed = 1
curvature_min = 0.1
curvature_max = 1.0
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = 1, 0.5
iterations = 40
seeds = 1, 2

[outputs]
csv = grid.csv
svg = grid.svg
checks = true
"""


# The l1 weight exceeds every target, so x* = 0 exactly, and the random start
# is far enough from it that ||x|| / 1e-300 overflows.
ZERO_OPTIMUM = """
[graph]
kind = ring
n = 4

[problem]
type = quadratic
d = 2
prox = l1
prox_weight = 100

[run]
p_list = 1
alpha = 0.01
iterations = 5
init = random
init_scale = 1e9

[outputs]
csv = z.csv
svg = z.svg
"""


# A 5-ring quadratic that validate passes; the numerical-failure rows of
# test_faults.py each add one setting to it.
FIVE_RING = """
[graph]
kind = ring
n = 5

[problem]
type = quadratic
d = 2

[run]
iterations = 50

[outputs]
csv = five.csv
svg = five.svg
"""


# Quadratics that validate passes at any stepsize in (0, 2/L); the stepsize
# tests append run.alpha. The 4-ring has L = 1 and mu = 0.1, the 3-ring
# L = 1 and mu = 0.5.
FOUR_RING = """
[graph]
kind = ring
n = 4

[problem]
type = quadratic
d = 3
target_seed = 1
curvature_min = 0.1

[run]
iterations = 50
"""
THREE_RING = "[graph]\nkind = ring\nn = 3\n[problem]\ncurvature_min = 0.5\n[run]\niterations = 50\n"


ROOT = Path(__file__).resolve().parent.parent
# every shipped config but paper_replica.ini, whose ijcnn1 file is never shipped
RUNNABLE = sorted(path.name for path in (ROOT / "configs").glob("*.ini")
                  if path.name != "paper_replica.ini")


def write_config(tmp_path, text, name="conf.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _die_in_worker(grid):
    """A grid batch whose worker process dies at once; a pool task is
    pickled by name, so it lives at module level."""
    os._exit(9)


class TestConfigParsing:
    def test_full_round(self):
        cfg = parse_config(GRID)
        assert cfg.graph.n == 6
        assert cfg.combiner.variants == ("ed", "nids:c=0.4")
        assert cfg.run.p_list == (1.0, 0.5)
        assert cfg.problem.prox_weight == 0.01
        assert cfg.outputs.checks is True

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.graph.kind == "ring"
        assert cfg.run.alpha == "1/L"

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[grpah]\nkind = ring\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config("[graph]\nknd = ring\n")

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[graph]\nn = many\n")
        with pytest.raises(ConfigError, match="^mixing.lazify: expected a boolean, got 'maybe'$"):
            parse_config("[mixing]\nlazify = maybe\n")
        with pytest.raises(ConfigError, match="p_list"):
            parse_config("[run]\np_list = 0, 1\n")

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("yes", True), ("on", True), ("1", True),
        ("False", False), (" NO ", False), ("off", False), ("0", False),
    ])
    def test_boolean_spellings(self, raw, value):
        assert parse_config(f"[mixing]\nlazify = {raw}\n").mixing.lazify is value
        assert parse_config(f"[outputs]\nchecks = {raw}\n").outputs.checks is value

    def test_alpha_resolution(self):
        cfg = parse_config("[run]\nalpha = 0.25\n")
        assert cfg.resolve_alpha(2.0) == 0.25
        cfg = parse_config("[run]\nalpha = 1/L\n")
        assert cfg.resolve_alpha(4.0) == 0.25
        with pytest.raises(ConfigError):
            parse_config("[run]\nalpha = fast\n").resolve_alpha(1.0)

    def test_empty_combiner_variants_rejected(self):
        with pytest.raises(ConfigError, match="^combiner.variants: list must not be empty$"):
            parse_config("[combiner]\nvariants =\n")

    def test_dimension_must_be_positive(self):
        with pytest.raises(ConfigError, match="problem.d must be >= 1, got 0"):
            parse_config("[problem]\nd = 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_init_scale_must_be_finite(self, value):
        with pytest.raises(ConfigError, match=f"run.init_scale must be finite, got {value}"):
            parse_config(f"[run]\ninit = random\ninit_scale = {value}\n")
        # large but finite stays valid: the run itself reports the divergence
        assert parse_config("[run]\ninit_scale = 1e13\n").run.init_scale == 1e13

    def test_logistic_requires_data(self):
        with pytest.raises(ConfigError, match="problem.data"):
            parse_config("[problem]\ntype = logistic\n")

    @pytest.mark.parametrize("csv, svg", [("out.txt", "out.txt"), ("out/a", "./out/b/../a")])
    def test_csv_and_svg_must_differ(self, csv, svg):
        with pytest.raises(ConfigError, match="outputs.csv and outputs.svg name the same file"):
            parse_config(f"[outputs]\ncsv = {csv}\nsvg = {svg}\n")
        assert parse_config(f"[outputs]\ncsv = {csv}\nsvg = {svg}.svg\n").outputs.svg

    def test_every_shipped_config_parses(self):
        paths = sorted((ROOT / "configs").glob("*.ini"))
        assert paths
        for path in paths:
            load_config(path)


@pytest.mark.parametrize("name", RUNNABLE)
def test_shipped_config(tmp_path, capsys, monkeypatch, name):
    """validate, run and check exit 0 with every warning an error (at
    --threads 2, the suite's filterwarnings) and print nothing to stderr.
    Each CSV is byte-identical at --threads 1 and 2, a certified run writes
    check's CSV, and check's summary rows hold every run's three min slacks,
    none below -SLACK_TOL (ring300's atc_gt has sigma_m(B) near 1e-8)."""
    monkeypatch.chdir(ROOT)  # logistic_small.ini names its dataset from here
    conf = f"configs/{name}"
    cfg = load_config(conf)
    csv = {}
    for command, threads in [("validate", None), ("run", "1"), ("run", "2"), ("check", "1"),
                             ("check", "2")]:
        argv = [command, conf]
        if threads:
            out = tmp_path / command / threads
            argv += ["--out-dir", str(out), "--threads", threads]
        with warnings.catch_warnings():
            # forking the pool from a threaded process warns on Python 3.12+
            if threads != "2":
                warnings.simplefilter("error")
            assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        if threads:
            csv[command, threads] = (out / cfg.outputs.csv).read_bytes()
    for command in ("run", "check"):
        assert csv[command, "1"] == csv[command, "2"]
    if cfg.outputs.checks:
        assert csv["run", "1"] == csv["check", "1"]
    rows = [line.split(",") for line in csv["check", "1"].decode().splitlines()[1:]]
    mins = [float(cell) for row in rows if row[4] == "-1" for cell in row[-3:]]
    runs = len(cfg.combiner.variants) * len(cfg.run.p_list) * len(cfg.run.seeds)
    assert len(mins) == 3 * runs and min(mins) >= -SLACK_TOL


@pytest.mark.parametrize("command", ["run", "check"])
def test_one_reference_solve_lifted_per_variant(tmp_path, capsys, monkeypatch, command):
    # a solve per pair would cost each variant a full reference solve
    solve = mock.Mock(wraps=cli.solver.centralized_proxgrad)
    lift = mock.Mock(wraps=cli.analysis.fixed_point)
    monkeypatch.setattr(cli.solver, "centralized_proxgrad", solve)
    monkeypatch.setattr(cli.analysis, "fixed_point", lift)
    monkeypatch.chdir(ROOT)
    argv = [command, "configs/logistic_small.ini", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert solve.call_count == 1
    assert lift.call_count == len(load_config(argv[1]).combiner.variants) == 2
    assert len({id(call.args[3]) for call in lift.call_args_list}) == 1


BROKEN_PIPE = "error: cannot write <stdout>: Broken pipe\n"


def _cli_process(argv, stdout, unbuffered):
    """The CLI in a child process run from the repository root, with stdout
    as given and stderr piped."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "flexatc.cli", *argv], cwd=ROOT, env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_stdout_closed_after_the_header_keeps_the_csv(tmp_path, capsys):
    # the reader takes run's graph and problem lines and goes; the grid's
    # files are written before the run lines meet the closed pipe. The
    # longer grid keeps the pipe closing well before the first run line.
    text = (ROOT / "configs" / "synthetic_check.ini").read_text()
    conf = write_config(tmp_path, text.replace("iterations = 500", "iterations = 3000"))
    argv = ["run", conf, "--out-dir"]
    proc = _cli_process(argv + [str(tmp_path / "piped")], subprocess.PIPE, unbuffered=True)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == cli.EXIT_CONFIG
    assert head[0].startswith("graph: ") and head[1].startswith("problem: ")
    assert err == BROKEN_PIPE
    assert cli.main(argv + [str(tmp_path / "normal")]) == cli.EXIT_OK
    for name in ("synthetic_check.csv", "synthetic_check.svg"):
        assert (tmp_path / "piped" / "out" / name).read_bytes() == (
            tmp_path / "normal" / "out" / name).read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["validate", "run", "check"])
def test_stdout_closed_before_any_write_exits_2_once(tmp_path, command, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process([command, "configs/synthetic_check.ini", "--out-dir", str(tmp_path)],
                            write, unbuffered)
    finally:
        os.close(write)
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == cli.EXIT_CONFIG
    assert err == BROKEN_PIPE


class TestRunCommand:
    def test_shipped_logistic_config_reads_its_file(self, monkeypatch):
        # test_shipped_config runs the config; this checks the instance it reads
        monkeypatch.chdir(ROOT)
        cfg = load_config("configs/logistic_small.ini")
        inst = cli.build(cfg)[2]
        losses = [LogisticLoss.from_dataset(part, cfg.problem.ridge) for part in partition(
            fa.parse_libsvm(Path(cfg.problem.data).read_bytes()), cfg.graph.n,
            cfg.problem.partition_seed)]
        for i, loss in enumerate(losses):
            signed = inst.stack.signed[i]
            assert np.array_equal(signed[:, :loss.m], (loss.labels[:, None] * loss.features).T)
            assert not signed[:, loss.m:].any()
        pairs = [loss.constants() for loss in losses]
        assert (inst.L, inst.mu) == (max(p[0] for p in pairs), min(p[1] for p in pairs))

    def test_single_node_smoke_converges_fast(self, tmp_path, capsys):
        conf = write_config(tmp_path, SMOKE)
        code = cli.main(["run", conf, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "smoke.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        first = lines[1].split(",")
        k, rel_err = int(first[4]), float(first[7])
        # alpha = 1/L on a single unit-curvature agent solves in one step
        assert k == 0 and rel_err <= 1e-12
        assert "iters_to_" in capsys.readouterr().out

    def test_serial_import_loads_no_process_pool(self):
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys, flexatc.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')"
                 " or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}, check=True).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_identical_agents_exit_0_with_every_certificate_holding(self, tmp_path, capsys,
                                                                     command):
        # every agent has the same targets, so w* is consensus and sqrt(B) w*
        # is round-off: its null-space part is no inconsistency
        conf = write_config(tmp_path, GRID.replace(
            "target_seed = 1", "target_seed = 1\ntarget_scale = 0\ntarget_offset_scale = 1"))
        assert cli.main([command, conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == (8 if command == "check" else 10)
        rows = [line.split(",") for line in (tmp_path / "grid.csv").read_text().splitlines()[1:]]
        slacks = [float(cell) for row in rows if row[4] == "-1" for cell in row[-3:]]
        assert len(slacks) == 24 and min(slacks) >= -SLACK_TOL

    def test_linalg_error_exits_4_with_its_message(self, tmp_path, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise LinalgError("rhs lies outside range(b): null-space residual 1.000e-03")

        monkeypatch.setattr(cli.analysis, "fixed_point", inconsistent)
        conf = write_config(tmp_path, SMOKE)
        assert cli.main(["run", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_FALSIFIED
        assert capsys.readouterr().err == (
            "error: rhs lies outside range(b): null-space residual 1.000e-03\n")

    @pytest.mark.parametrize("command,output", [("run", "csv"), ("run", "svg"), ("run", "parent"),
                                                ("check", "csv"), ("check", "parent")])
    def test_unwritable_output_fails_before_any_compute(self, tmp_path, capsys, monkeypatch,
                                                        command, output):
        def unreached(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(cli.solver, "centralized_proxgrad", unreached)
        if output == "parent":
            (tmp_path / "sub").write_text("")
            conf = write_config(tmp_path, GRID.replace("csv = grid.csv", "csv = sub/grid.csv"))
        else:
            (tmp_path / f"grid.{output}").mkdir()
            conf = write_config(tmp_path, GRID)
        assert cli.main([command, conf, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")

    def test_csv_bit_identical_and_svg_polylines(self, tmp_path, capsys):
        conf = write_config(tmp_path, GRID)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", conf, "--out-dir", str(out1)]) == cli.EXIT_OK
        assert cli.main(["run", conf, "--out-dir", str(out2)]) == cli.EXIT_OK
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
        svg = (out1 / "grid.svg").read_text()
        assert svg.startswith("<svg")
        # 2 variants x 2 p values, one polyline per pair per panel
        assert svg.count("<polyline") == 2 * 4

    def test_summary_rows_and_slack_columns(self, tmp_path, capsys):
        conf = write_config(tmp_path, GRID)
        assert cli.main(["run", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "grid.csv").read_text().strip().splitlines()[1:]]
        summaries = [r for r in rows if r[4] == "-1"]
        assert len(summaries) == 8  # one per (variant, p, seed)
        body = [r for r in rows if r[4] != "-1"]
        assert all(r[11] != "" for r in body)  # lemma2 slack populated
        assert len(body) == 8 * 40

    @pytest.mark.parametrize("config, rel_err", [
        # a reference solve stepping at run.alpha stopped at once on x* = 0,
        # or did not converge within its 500,000 steps
        (FOUR_RING + "alpha = 1e-320\n", "1.000e+00"),
        (FOUR_RING + "alpha = 1e-9\n", "1.000e+00"),
        # just below 2/L, where proximal gradient at run.alpha does not contract
        (THREE_RING + "alpha = 1.9999999\n", "5.584e-01"),
    ], ids=["1e-320", "1e-9", "1.9999999"])
    def test_reference_steps_at_one_over_l_whatever_alpha(self, tmp_path, capsys, config,
                                                          rel_err):
        conf = write_config(tmp_path, config)
        for command in ("validate", "run", "check"):
            assert cli.main([command, conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            if command == "run":
                assert f"final rel_err={rel_err} comms=50 iters_to_1e-06=-1 " in captured.out

    def test_combiner_section_without_variants_runs_ed(self, tmp_path, capsys):
        # a key left out keeps its default, in [combiner] as in every section
        conf = write_config(tmp_path, FIVE_RING + "\n[combiner]\n")
        assert cli.main(["run", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert "\ned|p=1|seed=1: final rel_err=" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys):
        conf = write_config(tmp_path, GRID)
        assert cli.main(["run", conf, "--out-dir", str(tmp_path),
                         "--seed-override", "9"]) == cli.EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "grid.csv").read_text().strip().splitlines()[1:]]
        assert {r[3] for r in rows} == {"9"}

    def test_threads_match_serial(self, tmp_path, capsys):
        # each pool worker evaluates its own unpickled copy of the stacked oracle
        conf = write_config(tmp_path, GRID)
        for command in ("run", "check"):
            out1, out2 = tmp_path / command / "serial", tmp_path / command / "pool"
            for out, threads in ((out1, "1"), (out2, "2")):
                code = cli.main([command, conf, "--out-dir", str(out), "--threads", threads])
                assert code == cli.EXIT_OK
            assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()

    def test_pool_gets_one_contiguous_batch_per_worker(self, tmp_path, capsys, monkeypatch):
        # the pool is replaced by one that runs its tasks here and records them
        batches = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, grids):
                grids = list(grids)
                assert len(grids) <= self.max_workers
                batches.append([[(r.pair.variant, r.p, r.seed) for r in g.runs] for g in grids])
                return map(fn, grids)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        conf = write_config(tmp_path, GRID)
        serial = tmp_path / "serial"
        assert cli.main(["check", conf, "--out-dir", str(serial), "--threads", "1"]) == cli.EXIT_OK
        assert batches == []
        tasks = [(v, p, s) for v in ("ed", "nids:c=0.4") for p in (1.0, 0.5) for s in (1, 2)]
        for threads in (2, 3, 20):
            out = tmp_path / f"threads{threads}"
            code = cli.main(["check", conf, "--out-dir", str(out), "--threads", str(threads)])
            assert code == cli.EXIT_OK
            assert len(batches[-1]) == min(threads, len(tasks))
            assert [t for batch in batches[-1] for t in batch] == tasks
            assert (out / "grid.csv").read_bytes() == (serial / "grid.csv").read_bytes()

    def test_dead_pool_worker_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_execute_grid", _die_in_worker)
        conf = write_config(tmp_path, GRID)
        code = cli.main(["run", conf, "--out-dir", str(tmp_path), "--threads", "2"])
        assert code == cli.EXIT_WORKER == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a worker process died: ")
        assert "Traceback" not in err
        assert not (tmp_path / "grid.csv").exists()

    def test_reference_solve_not_converging_exits_3(self, tmp_path, capsys, monkeypatch):
        def stuck(*args, **kwargs):
            raise SolverError("reference solver hit 500000 iterations with residual 1.0e-09 > 1e-12")

        monkeypatch.setattr(cli.solver, "centralized_proxgrad", stuck)
        conf = write_config(tmp_path, SMOKE)
        assert cli.main(["run", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: reference solver hit 500000 iterations with residual "
                                    "1.0e-09 > 1e-12"]

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_zero_optimum_exits_0_with_infinite_errors(self, tmp_path, capsys, command):
        # every relative error is inf; the CSV says so, and the SVG plots
        # no point but still draws both panels
        conf = write_config(tmp_path, ZERO_OPTIMUM)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([command, conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "z.csv").read_text().splitlines()
        rel_err = cli.CSV_COLUMNS.index("rel_err")
        assert [line.split(",")[rel_err] for line in lines[1:]] == ["inf"] * 6
        if command == "run":
            svg = (tmp_path / "z.svg").read_text()
            assert svg.count('points=""') == 2 and svg.count("<rect") == 3

    # finite data whose sums of squares overflow float64, which every command
    # runs with no warning: features of 1e80 on two agents, whose Gram's top
    # eigenvalue is 2.5e159, and one agent's targets and l1 weight of 1e300,
    # whose fixed point has norms near 1e300; and targets of 1e13 on a 1-ring
    # and a 3-ring, whose x* has a norm above 1e12, so the divergence bound
    # scales with it
    @pytest.mark.parametrize("command", ["validate", "run", "check"])
    @pytest.mark.parametrize("case", ["features", "targets", "optimum-n1", "optimum-n3"])
    def test_large_finite_data_runs_without_a_warning(self, tmp_path, capsys, command, case):
        if case == "features":
            data = tmp_path / "data.svm"
            data.write_text("+1 1:1e80 2:1\n-1 1:1 2:1e80\n")
            text = SMOKE.replace("kind = ring\nn = 1", "kind = complete\nn = 2").replace(
                "type = quadratic\nd = 2\ntarget_seed = 3",
                f"type = logistic\ndata = {data}\nridge = 0")
        elif case.startswith("optimum"):
            text = SMOKE.replace("kind = ring\nn = 1", f"kind = ring\nn = {case[-1]}").replace(
                "target_seed = 3", "target_seed = 3\ntarget_scale = 1e13").replace(
                "p_list = 1", "p_list = 1, 0.5") + "checks = true\n"
        else:
            text = SMOKE.replace("d = 2", "d = 3\ntarget_scale = 1e300\nprox = l1\n"
                                          "prox_weight = 1e300")
        conf = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        if case == "features" and command != "check":
            assert " L=2.5e+159 " in out

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise DivergenceError(17)

        monkeypatch.setattr(cli.solver, "run_grid", boom)
        conf = write_config(tmp_path, SMOKE)
        assert cli.main(["run", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        assert "iteration 17" in capsys.readouterr().err


class TestCheckCommand:
    def test_certified_run_writes_the_check_csv(self, tmp_path, capsys):
        # GRID sets outputs.checks = true, so run certifies the same grid as check
        conf = write_config(tmp_path, GRID)
        for command in ("run", "check"):
            assert cli.main([command, conf, "--out-dir", str(tmp_path / command)]) == cli.EXIT_OK
        assert (tmp_path / "run" / "grid.csv").read_bytes() == (
            tmp_path / "check" / "grid.csv").read_bytes()
        assert not (tmp_path / "check" / "grid.svg").exists()

    def test_nan_slacks_are_falsified(self, tmp_path, capsys, monkeypatch):
        # an observer whose slacks are NaN, which no inequality holds for
        class NanCertificates(GridCertificates):
            def __call__(self, block):
                super().__call__(block)
                cols = slice(block.k0, block.k0 + len(block.x))
                for slack in (self.lemma2_slack, self.thm1_slack, self.thm2_slack):
                    slack[:, cols] = np.nan

        monkeypatch.setattr(cli.analysis, "GridCertificates", NanCertificates)
        conf = write_config(tmp_path, GRID.replace("p_list = 1, 0.5", "p_list = 0.5").replace(
            "seeds = 1, 2", "seeds = 1").replace("variants = ed, nids:c=0.4", "variants = ed"))
        assert cli.main(["check", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_FALSIFIED
        captured = capsys.readouterr()
        assert "min_lemma2_slack=nan" in captured.out
        assert captured.err.splitlines() == [
            f"FALSIFIED ed|p=0.5|seed=1: {name} violated at iteration 0"
            for name in ("lemma2", "thm1", "thm2")]

    def test_min_slacks_reported(self, tmp_path, capsys):
        conf = write_config(tmp_path, GRID)
        assert cli.main(["check", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "min_lemma2_slack" in out
        assert "min_thm2_slack" in out

    def test_convex_instance_skips_linear_rate(self, tmp_path, capsys):
        # quadratic curvature is always positive; use a logistic ridge-free
        # problem to get mu = 0
        data = tmp_path / "tiny.libsvm"
        rng = np.random.default_rng(0)
        lines = []
        for i in range(24):
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(f"{label} 1:{rng.standard_normal():.4f} 2:{rng.standard_normal():.4f}")
        data.write_text("\n".join(lines) + "\n")
        conf = write_config(tmp_path, f"""
[graph]
kind = ring
n = 4

[combiner]
variants = ed

[problem]
type = logistic
data = {data}
ridge = 0.0
prox = l1
prox_weight = 0.01

[run]
alpha = 1/L
p_list = 0.5
iterations = 30
seeds = 1

[outputs]
csv = c.csv
svg = c.svg
""", name="convex.ini")
        assert cli.main(["check", conf, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "mu = 0" in out
        assert "min_lemma2_slack" in out


def _format_cell(v) -> str:
    """The per-cell CSV formatting the column-wise writer must reproduce."""
    if v is None:
        return ""
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return str(v)


def _rows_cell_by_cell(res: tuple, run_id: str) -> list[list[str]]:
    """The rows of a (GridRun, RunTrace, CertificateSweep | None) result."""
    r, t, sweep = res
    rows = []
    for i in range(t.theta.size):
        rows.append([
            run_id, r.pair.variant, _format_cell(r.p), str(r.seed),
            str(i), str(int(t.theta[i])), str(int(t.comms[i])),
            _format_cell(float(t.rel_err[i])), _format_cell(float(t.consensus_err[i])),
            _format_cell(float(t.objective[i])), _format_cell(float(t.kkt_residual[i])),
            _format_cell(float(sweep.lemma2_slack[i])) if sweep else "",
            _format_cell(float(sweep.thm1_slack[i])) if sweep else "",
            _format_cell(float(sweep.thm2_slack[i])) if sweep else "",
        ])
    mins = sweep.min_slacks() if sweep else {}
    rows.append([
        run_id, r.pair.variant, _format_cell(r.p), str(r.seed), "-1", "",
        str(int(t.comms[-1])), _format_cell(float(t.rel_err[-1])),
        _format_cell(float(t.consensus_err[-1])), _format_cell(float(t.objective[-1])),
        _format_cell(float(t.kkt_residual[-1])), _format_cell(mins.get("lemma2")),
        _format_cell(mins.get("thm1")), _format_cell(mins.get("thm2")),
    ])
    return rows


class TestCsvCells:
    @pytest.mark.parametrize("ridge", [0.0, 0.05])
    def test_columnwise_rows_match_cell_by_cell(self, tmp_path, ridge):
        # ridge 0 gives mu = 0, so thm2_slack is all NaN and has no minimum;
        # without a reference rel_err is NaN, and record_kkt=False leaves the
        # kkt column NaN
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3))
        ds = fa.Dataset(3, np.where(x[:, 0] > 0.2, 1.0, -1.0), np.arange(0, 121, 3),
                        np.tile(np.arange(3), 40), x.reshape(-1).copy())
        inst = fa.logistic_instance(write_libsvm(ds, tmp_path / "data.libsvm"), 4, 0, ridge,
                                    fa.ProxSpec("l1", 0.01))
        pair = fa.preset("ed", fa.metropolis_weights(fa.gen_topology("ring", 4)))
        alpha = 1.0 / inst.L
        fp = fixed_point(inst, pair, alpha, centralized_proxgrad(inst))
        run = fa.GridRun(pair, 0.5, 3)
        for reference, checks in ((None, False), (fp.x_star, True)):
            observer = GridCertificates(inst, [run], [fp], alpha, 25) if checks else None
            trace = fa.run(inst, pair, alpha, 0.5, 3, 25, reference=reference,
                           record_kkt=False, observer=observer)
            res = (run, trace, observer.sweeps[0] if checks else None)
            rows = cli._result_rows(res) + [cli._summary_row(res)]
            assert any(cell == "" for row in rows for cell in row[7:])
            assert rows == _rows_cell_by_cell(res, "ed|p=0.5|seed=3")


class TestValidateCommand:
    def test_report_and_export(self, tmp_path, capsys):
        conf = write_config(tmp_path, GRID)
        topo_path = tmp_path / "topo.txt"
        code = cli.main(["validate", conf, "--export-topology", str(topo_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "contraction_psd: pass" in out
        topo = fa.gen_topology("ring", 6)
        text = topo_path.read_text()
        assert text == topology_to_edgelist(topo)
        header, *rows = text.splitlines()
        assert header == "6 6"
        assert [tuple(map(int, row.split())) for row in rows] == list(topo.edges)

    def test_problem_line_reports_kappa(self, tmp_path, capsys):
        # GRID's curvatures span [0.1, 1]; a logistic problem without ridge
        # has mu = 0 and an infinite condition number
        assert cli.main(["validate", write_config(tmp_path, GRID)]) == cli.EXIT_OK
        assert " mu=0.1 kappa=10 alpha=" in capsys.readouterr().out
        data = tmp_path / "data.libsvm"
        data.write_text(fa.serialize_libsvm(fa.parse_libsvm("+1 1:0.5 2:1\n-1 1:-1\n")))
        conf = write_config(tmp_path, SMOKE.replace(
            "type = quadratic\nd = 2\ntarget_seed = 3",
            f"type = logistic\ndata = {data}\nridge = 0",
        ))
        assert cli.main(["validate", conf]) == cli.EXIT_OK
        assert " mu=0 kappa=inf alpha=" in capsys.readouterr().out

    def test_pairs_are_named_as_their_run_ids(self, tmp_path, capsys):
        # each pair's line carries the normalised name that its run ids use
        conf = write_config(tmp_path, GRID.replace("variants = ed, nids:c=0.4",
                                                   "variants = nids, mg_ed:N=3.0")
                            + "\n[mixing]\nlazify = true\n")
        assert cli.main(["validate", conf]) == cli.EXIT_OK
        heads = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()
                 if ": ok," in line]
        assert heads == ["nids:c=0.5: ok", "mg_ed:N=3: ok"]

    def test_export_resolves_under_out_dir(self, tmp_path, monkeypatch):
        conf = write_config(tmp_path, GRID)
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "od"
        code = cli.main(["validate", conf, "--out-dir", str(out_dir),
                         "--export-topology", "topo.txt"])
        assert code == cli.EXIT_OK
        assert not (tmp_path / "topo.txt").exists()
        assert (out_dir / "topo.txt").read_text() == topology_to_edgelist(fa.gen_topology("ring", 6))

    def test_exact_zero_margins_print_positive(self, capsys, monkeypatch):
        # symmetry and the null space hold exactly on a built pair; their
        # zero margins must not read as negative
        monkeypatch.chdir(ROOT)
        assert cli.main(["validate", "configs/synthetic_check.ini"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "-0.000e+00" not in out
        assert "  symmetry: pass, margin +0.000e+00\n" in out

    def test_failed_audit_exits_falsified(self, tmp_path, capsys, monkeypatch):
        failing = [
            combiners.CheckResult("symmetry", True, 0.0),
            combiners.CheckResult("contraction_psd", False, -0.5),
        ]
        monkeypatch.setattr(combiners, "validate", lambda pair: failing)
        conf = write_config(tmp_path, GRID)
        assert cli.main(["validate", conf]) == cli.EXIT_FALSIFIED
        captured = capsys.readouterr()
        assert "contraction_psd" in captured.err
        assert "symmetry" not in captured.err
        assert ": ok" not in captured.out

