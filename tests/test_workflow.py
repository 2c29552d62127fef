"""The CI workflow names tests and helpers that must still exist.

.github/workflows/tests.yml runs only where it is pushed, so a renamed test
or helper would break it unseen. These checks read the file as text.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def test_each_node_id_names_a_test_in_its_file():
    node_ids = re.findall(r"\btests/(\w+\.py)::(\w+)", WORKFLOW)
    assert node_ids
    for file, name in node_ids:
        text = (ROOT / "tests" / file).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", text, re.MULTILINE), f"tests/{file}::{name}"


def test_each_import_resolves():
    """With src and tests on the path, as under pytest and in the workflow."""
    imports = re.findall(r"^\s*from (\w+) import (\w+)", WORKFLOW, re.MULTILINE)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_each_script_and_file_it_runs_exists():
    paths = set(re.findall(r"\b((?:instances|perfbench|scripts|tests)/[\w/]+\.\w+)",
                           WORKFLOW))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []
