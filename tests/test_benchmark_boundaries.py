"""The functions the benchmark times and marks (perfbench/shim.py) still
exist, so renaming one cannot silently move what a metric measures: a lost
grid boundary would turn setup_s into wall_s."""

import importlib.util
import sys
from pathlib import Path

import pytest

import flexatc.cli as cli
from flexatc import problem

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"

TINY = """
[graph]
kind = ring
n = 3

[problem]
type = quadratic
d = 2

[run]
p_list = 1, 0.5
iterations = 5

[outputs]
csv = tiny.csv
svg = tiny.svg
"""


def _load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_to_a_callable():
    boundaries = _load_shim().BOUNDARIES
    assert boundaries
    for _layer, module_name, qualname, _hot in boundaries:
        owner = sys.modules.get(module_name)
        assert owner is not None, f"{module_name} is not imported by flexatc.cli"
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{qualname}"


def _count_calls(monkeypatch, owner, name) -> list:
    """A list that gains one entry per call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("command", ["run", "check"])
def test_command_enters_the_grid_boundary_once(tmp_path, capsys, monkeypatch, command):
    calls = _count_calls(monkeypatch, cli, "_run_grid")
    conf = tmp_path / "tiny.ini"
    conf.write_text(TINY)
    assert cli.main([command, str(conf), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_command_builds_the_logistic_problem_under_its_traced_name(tmp_path, capsys,
                                                                   monkeypatch, command):
    # problem.instance_s times problem.logistic_instance: the CLI's build
    # must enter it, or a traced replica_run reads 0
    calls = _count_calls(monkeypatch, problem, "logistic_instance")
    monkeypatch.chdir(ROOT)
    argv = [command, "configs/logistic_small.ini", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
