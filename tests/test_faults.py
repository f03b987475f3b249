"""The CLI's failure contract as one table: each row is a fault a config,
a dataset or the filesystem can cause, with the exit code and the exact
stderr of each command it applies to. Every row runs in its own directory
as the working directory, with the config at conf.ini, and the driver
asserts for each run:

- the exit code and the exact stderr, with no Traceback anywhere;
- that no file is written;
- that a command that fails prints nothing to stdout, except that run
  prints its graph and problem lines before a fault of the grid.

All three commands make one build, so validate, like run and check,
prints nothing before a fault of the build. A fault that only running can
show has validate exit 0 in its row. A fault raised inside the grid runs
at --threads 1 and 2, where a row's `pooled` gives a command's own
(code, stderr) at --threads 2. Every warning is an error, except at
--threads 2, where the suite's filterwarnings still make RuntimeWarnings
errors. A fault that needs a monkeypatch is tested in test_cli.py.
"""

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import flexatc.cli as cli
from test_cli import FIVE_RING, GRID, SMOKE

COMMANDS = ("validate", "run", "check")
USAGE = "usage: flexatc [-h] {run,check,validate} ...\n"


@dataclass(frozen=True)
class Fault:
    id: str
    config: str | None  # conf.ini's text; None leaves it missing
    expect: dict  # command -> (exit code, exact stderr)
    files: dict = field(default_factory=dict)  # relative path -> text
    dirs: tuple = ()  # directories made where a file would go
    argv: tuple = ()
    grid: bool = False  # raised inside the grid
    pooled: dict = field(default_factory=dict)  # command -> (code, stderr) at --threads 2


def fault(id, config, message, code=cli.EXIT_CONFIG, commands=COMMANDS, validate=None,
          **layout):
    """A row whose commands all exit `code` with `error: message`; validate,
    when given, is validate's own (code, stderr)."""
    expect = {c: (code, f"error: {message}\n") for c in commands}
    if validate is not None:
        expect["validate"] = validate
    return Fault(id, config, expect, **layout)


def grid(old, new):
    return GRID.replace(old, new)


def logistic(n=1, extra=""):
    """SMOKE on an n-ring of logistic agents that read data.svm."""
    return SMOKE.replace("n = 1", f"n = {n}").replace(
        "type = quadratic\nd = 2\ntarget_seed = 3",
        f"type = logistic\ndata = data.svm\nridge = 0.1{extra}")


def dataset(id, data, message, n=1, extra=""):
    return fault(id, logistic(n, extra), message, files={"data.svm": data})


def unholdable(token, what):
    return dataset(f"token-{token}", f"+1 1:0.5\n-1 2:0.25\n+1 {token}\n",
                   f"line 3: feature token '{token}' {what}")


def variant(name, config=SMOKE):
    return config.replace("variants = ed", f"variants = {name}")


def refused(size, shape, dtype="float64"):
    return f"Unable to allocate {size} for an array with shape ({shape}) and data type {dtype}"


def seed(key, old, new):
    return fault(key, grid(old, new), f"{key} must be >= 0, got -1")


def duplicate(id, what, old, new, values):
    return fault(id, grid(old, new), f"{what} lists a value twice: {values}")


def unwritable(id, config, path, reason="Is a directory", commands=("run", "check"), **layout):
    return fault(id, config, f"cannot write {path}: {reason}", commands=commands, **layout)


RUNTIME = (cli.EXIT_OK, "")
MISSING = "[Errno 2] No such file or directory"
P6 = "run.p_list (to 6 significant digits)"
OVERFLOW = "certificate terms overflow float64 at iteration 0"
STEPS = "iterations = 10000000000000\nseeds = 1, 2"
TOPOLOGY = ("--export-topology", "topo.txt")
MG_ED_RING4 = variant("mg_ed:N=2", SMOKE.replace("n = 1", "n = 4"))
MG_ED_PSD = "combiner 'mg_ed' requires a PSD mixing matrix; apply lazify first"
PAPER = (Path(__file__).resolve().parent.parent / "configs" / "paper_replica.ini").read_text()

FAULTS = [
    # invalid values of the config
    *(fault(f"target_scale-{value}",
            grid("curvature_max = 1.0", f"curvature_max = 1.0\ntarget_scale = {value}"),
            "target entries must be finite") for value in ("nan", "inf")),
    fault("curvature_max-inf", grid("curvature_max = 1.0", "curvature_max = inf"),
          "need 0 < curvature_min <= curvature_max < inf"),
    fault("init_scale-nan", grid("seeds = 1, 2", "seeds = 1, 2\ninit = random\ninit_scale = nan"),
          "run.init_scale must be finite, got nan"),
    *(fault(f"target_rel_err-{value}",
            grid("seeds = 1, 2", f"seeds = 1, 2\ntarget_rel_err = {value}"),
            f"run.target_rel_err must be finite and > 0, got {float(value)}")
      for value in ("nan", "-1", "0", "inf")),
    *(fault(key, grid("target_seed = 1", f"target_seed = 1\n{key} = true"),
            f"unknown keys in [problem]: ['{key}']") for key in ("normalize", "map_01_labels")),
    seed("run.seeds", "seeds = 1, 2", "seeds = 1, -1"),
    seed("problem.target_seed", "target_seed = 1", "target_seed = -1"),
    seed("problem.partition_seed", "target_seed = 1", "target_seed = 1\npartition_seed = -1"),
    seed("graph.seed", "n = 6", "n = 6\nseed = -1"),
    seed("run.init_seed", "seeds = 1, 2", "seeds = 1, 2\ninit_seed = -1"),
    fault("seed-override", GRID, "--seed-override must be >= 0, got -5",
          commands=("run", "check"), argv=("--seed-override", "-5")),
    # validate runs nothing, so it has neither --seed-override nor --threads
    Fault("seed-override-validate", GRID, {"validate": (
        2, f"{USAGE}flexatc: error: unrecognized arguments: --seed-override 3\n")},
        argv=("--seed-override", "3")),
    *(fault(f"threads{n}", GRID, f"--threads must be >= 1, got {n}", argv=("--threads", n),
            validate=(2, f"{USAGE}flexatc: error: unrecognized arguments: --threads {n}\n"))
      for n in ("0", "-3")),
    duplicate("twice-p", P6, "p_list = 1, 0.5", "p_list = 1, 1", "1, 1"),
    duplicate("twice-p-6-digits", P6, "p_list = 1, 0.5", "p_list = 0.1234567, 0.1234568",
              "0.123457, 0.123457"),
    duplicate("twice-seed", "run.seeds", "seeds = 1, 2", "seeds = 1, 1", "1, 1"),
    # "nids" is "nids:c=0.5" once normalised, so both runs would share a run_id
    duplicate("twice-nids", "combiner.variants", "variants = ed, nids:c=0.4",
              "variants = nids, nids:c=0.5", "nids:c=0.5, nids:c=0.5"),
    # unit curvatures by default, so L = 1 and 2/L = 2; every command
    # resolves the stepsize before it builds the combiner pairs
    fault("alpha", "[graph]\nn = 4\n[problem]\nd = 2\n[run]\nalpha = 5\n",
          "alpha=5 outside (0, 2/L) with L=1"),
    fault("alpha-and-combiner", "[graph]\nn = 4\n[combiner]\nvariants = nids:c=0.9\n"
          "[problem]\nd = 2\n[run]\nalpha = 5\n", "alpha=5 outside (0, 2/L) with L=1"),
    # the certificates divide by p^2, which must not be subnormal
    *(fault(f"p-{p}", grid("p_list = 1, 0.5", f"p_list = 1, {p}"),
            f"run.p_list values must lie in [2^-511, 1]: (1.0, {p})")
      for p in ("1e-154", "1e-170")),
    fault("missing-config", None, f"cannot read config conf.ini: {MISSING}: 'conf.ini'"),
    # the SVG would overwrite the CSV
    fault("csv-is-svg", SMOKE.replace("csv = smoke.csv\nsvg = smoke.svg",
                                      "csv = out.txt\nsvg = ./out.txt"),
          "outputs.csv and outputs.svg name the same file 'out.txt'"),
    # outputs that cannot be written: a directory where the output goes, or
    # a file where its directory goes
    unwritable("csv", SMOKE, "smoke.csv", dirs=("smoke.csv",)),
    unwritable("svg", SMOKE, "smoke.svg", commands=("run",), dirs=("smoke.svg",)),
    unwritable("parent", SMOKE.replace("csv = smoke.csv", "csv = sub/smoke.csv"),
               "sub/smoke.csv", "File exists", files={"sub": ""}),
    unwritable("topology", SMOKE, "topo.txt", commands=("validate",), dirs=("topo.txt",),
               argv=TOPOLOGY),
    # datasets that cannot be read or held
    fault("dataset-missing", logistic(), f"cannot read dataset data.svm: {MISSING}: 'data.svm'"),
    fault("dataset-directory", logistic(), "cannot read dataset data.svm: "
          "[Errno 21] Is a directory: 'data.svm'", dirs=("data.svm",)),
    # the ijcnn1 file is never shipped, so the paper's config names it
    fault("paper_replica", PAPER, f"cannot read dataset data/ijcnn1: {MISSING}: 'data/ijcnn1'"),
    dataset("max_samples", "1 1:0.5\n-1 1:-0.5\n", "problem.max_samples must be >= 0, got -1",
            extra="\nmax_samples = -1"),
    # one agent could take the first two samples, four agents cannot, and the
    # malformed third line is still what each command reports
    dataset("malformed", "+1 1:0.5\n-1 2:0.25\n+1 1:x\n", "line 3: malformed feature token '1:x'",
            n=4),
    dataset("split", "+1 1:0.5\n-1 2:0.25\n", "cannot split 2 samples across 4 agents", n=4),
    unholdable("1:nan", "has a non-finite value"),
    unholdable("1:inf", "has a non-finite value"),
    unholdable("1:1e999", "has a non-finite value"),
    unholdable("9007199254740993:1", "has an index of 2^53 or more"),
    dataset("repeated-index", "+1 1:0.5\n-1 2:0.25\n+1 1:2 1:3\n",
            "line 3: feature token '1:3' repeats index 1 of its line"),
    dataset("no-features", "+1\n-1\n+1\n-1\n", "need at least one feature", n=2),
    # a valid index whose dense (n, d, m_max) stack no address space holds
    dataset("maximal-index", "+1 9007199254740991:1\n-1 1:1\n+1 2:1\n",
            "cannot allocate the feature stack of shape (3, 9007199254740991, 1) "
            "and its Gram matrices", n=3),
    # arrays numpy refuses at once, each hundreds of GiB or more: the
    # targets, the adjacency, and inside the grid each run's coins under
    # run and its batch's slacks under check, one run per worker at --threads 2
    fault("d", SMOKE.replace("d = 2", "d = 100000000000"), refused("745. GiB", "100000000000,")),
    fault("complete", SMOKE.replace("kind = ring\nn = 1", "kind = complete\nn = 1000000"),
          refused("931. GiB", "1000000, 1000000", "bool")),
    Fault("iterations", SMOKE.replace("iterations = 6\nseeds = 1", STEPS),
          {"validate": RUNTIME,
           "run": (2, f"error: {refused('72.8 TiB', '10000000000000,')}\n"),
           "check": (2, f"error: {refused('146. TiB', '2, 10000000000000')}\n")},
          grid=True, pooled={"check": (2, f"error: {refused('72.8 TiB', '1, 10000000000000')}\n")}),
    # combiners that fail their assumptions
    fault("nids:c=0.9", variant("nids:c=0.9"), "nids requires c in (0, 1/2], got 0.9"),
    fault("mg_ed:N=2", MG_ED_RING4, MG_ED_PSD),
    fault("mg_sonata:N=2", grid("ed, nids:c=0.4", "mg_sonata:N=2"),
          "combiner 'mg_sonata' requires a PSD mixing matrix; apply lazify first"),
    *(fault(f"{name}:N={rounds}", variant(f"{name}:N={rounds}"),
            f"{name} requires an integer N >= 1, got {rounds}")
      for name in ("mg_ed", "mg_sonata") for rounds in ("inf", "-inf", "nan")),
    # validate writes its topology only once the problem and the pairs build
    fault("topology-dataset-missing", logistic(), f"cannot read dataset data.svm: {MISSING}: "
          "'data.svm'", commands=("validate",), argv=TOPOLOGY),
    fault("topology-mg_ed:N=2", MG_ED_RING4, MG_ED_PSD, commands=("validate",), argv=TOPOLOGY),
    # faults that only running shows: validate passes each. sqrt(B)
    # underflows to zero next to 11^T/n, so the fixed point's solve is singular
    fault("singular", FIVE_RING + "\n[combiner]\nvariants = nids:c=1e-300\n",
          "fixed point solve failed: Singular matrix", cli.EXIT_FALSIFIED, validate=RUNTIME),
    # Phi overflows float64 at step 0: ||x0 - x*||^2 near 1e400, or
    # ||u - u*||^2 / p^2 with p^2 near 2e-308; no slack can be read
    fault("huge-start", FIVE_RING.replace("[run]\n", "[run]\ninit = random\ninit_scale = 1e200\n"
                                          "p_list = 1, 0.5\n"), OVERFLOW, cli.EXIT_DIVERGENCE,
          commands=("check",), validate=RUNTIME, grid=True),
    fault("tiny-p", FIVE_RING.replace("[run]\n", "[run]\np_list = 1.5e-154, 1\n"), OVERFLOW,
          cli.EXIT_DIVERGENCE, commands=("check",), validate=RUNTIME, grid=True),
    # every run's iterates pass the divergence norm, each in its own worker
    # at --threads 2, and the error is reported once
    fault("divergence", grid("seeds = 1, 2", "seeds = 1, 2\ninit = random\ninit_scale = 1e13"),
          "divergence detected at iteration 0: stepsize likely out of range",
          cli.EXIT_DIVERGENCE, validate=RUNTIME, grid=True),
]


def _cases():
    for row in FAULTS:
        for command in row.expect:
            threads = (1, 2) if row.grid and command != "validate" else (None,)
            for n in threads:
                suffix = "" if n is None else f"-threads{n}"
                yield pytest.param(row, command, n, id=f"{row.id}-{command}{suffix}")


def _files(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("row, command, threads", list(_cases()))
def test_fault(tmp_path, capsys, monkeypatch, row, command, threads):
    monkeypatch.chdir(tmp_path)
    if row.config is not None:
        (tmp_path / "conf.ini").write_text(row.config)
    for name, text in row.files.items():
        (tmp_path / name).write_text(text)
    for name in row.dirs:
        (tmp_path / name).mkdir()
    before = _files(tmp_path)
    argv = [command, "conf.ini", *row.argv]
    if threads is not None:
        argv += ["--threads", str(threads)]
    with warnings.catch_warnings():
        # a warning of any kind fails the row, except at --threads 2, where
        # forking the pool from a threaded process warns on Python 3.12+
        if threads != 2:
            warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    out, err = capsys.readouterr()
    assert (code, err) == (row.pooled if threads == 2 else {}).get(command, row.expect[command])
    assert "Traceback" not in out + err
    assert _files(tmp_path) == before
    if code != cli.EXIT_OK:
        heads = [line.split(":")[0] for line in out.splitlines()]
        assert heads == (["graph", "problem"] if row.grid and command == "run" else [])
