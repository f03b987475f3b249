"""The functions the benchmark times and marks (perfbench/shim.py) still
exist, so renaming one cannot silently move what a metric measures: a lost
grid boundary would turn setup_s into wall_s."""

import importlib.util
import sys
from pathlib import Path

import pytest

import flexatc.cli as cli

SHIM = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"

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


@pytest.mark.parametrize("command", ["run", "check"])
def test_command_enters_the_grid_boundary_once(tmp_path, capsys, monkeypatch, command):
    calls = []
    original = cli._run_grid

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "_run_grid", spy)
    conf = tmp_path / "tiny.ini"
    conf.write_text(TINY)
    assert cli.main([command, str(conf), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 1
