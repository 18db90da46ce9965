"""The package namespace and the README's library examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drgkit

SRC = Path(drgkit.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


def _loaded_after(statement: str) -> set:
    """The drgkit modules loaded in a fresh interpreter after one import statement."""
    code = f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'drgkit'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_the_set_up_import_loads_only_what_families_needs():
    assert _loaded_after("import drgkit") == {"drgkit"}
    assert _loaded_after("import drgkit.families") == {
        "drgkit", "drgkit.families", "drgkit.graph_core"}


def _readme_examples() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_library_examples():
    assert len(_readme_examples()) >= 2


@pytest.mark.parametrize("index", range(len(_readme_examples())))
def test_readme_example_runs(index):
    exec(compile(_readme_examples()[index], f"README.md example {index}", "exec"), {})
