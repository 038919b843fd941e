"""Smoke tests for the example scripts: every script under ``examples/``
runs its ``main()`` to completion in-process, from an empty working
directory that it must leave empty."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(path.stem for path in EXAMPLES.glob("*.py"))


def run_example(name, tmp_path, monkeypatch, capsys):
    """Run example *name*'s ``main()`` from the empty *tmp_path*;
    returns what it printed."""
    monkeypatch.chdir(tmp_path)
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    module.main()
    assert list(tmp_path.iterdir()) == [], f"{name} left files in the cwd"
    return capsys.readouterr().out


@pytest.mark.parametrize("name", SCRIPTS)
def test_example_runs(name, tmp_path, monkeypatch, capsys):
    out = run_example(name, tmp_path, monkeypatch, capsys)
    assert out.strip(), f"{name} printed nothing"


def test_every_example_has_main_and_docstring():
    assert SCRIPTS
    for path in sorted(EXAMPLES.glob("*.py")):
        text = path.read_text()
        assert '"""' in text.split("\n", 2)[-1] or text.startswith('#!'), \
            f"{path.name}: missing docstring"
        assert "def main()" in text, f"{path.name}: missing main()"
        assert '__name__ == "__main__"' in text, \
            f"{path.name}: not directly runnable"


def test_walkthrough_all_nodes_agree(tmp_path, monkeypatch, capsys):
    out = run_example("ordered_network_walkthrough", tmp_path, monkeypatch,
                      capsys)
    assert "all 16 nodes processed the requests in the same order" in out
