"""The package's public names: where they come from and who uses them."""

import ast
import re
import types
from pathlib import Path

import pytest

import crmlab
import crmlab.cli  # noqa: F401  (binds crmlab.cli as a module in any test order)
from crmlab import bounds, datasets, estimators, learning, policies, seeding, synthetic

ROOT = Path(__file__).resolve().parents[1]
MODULES = (bounds, datasets, estimators, learning, policies, seeding, synthetic)


# Programs outside the package that use it; no test runs them.
CALLERS = [
    *sorted(f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py")),
    "demos/cli_pipeline.sh",
    "perfbench/workloads.py",
]


def _python_source(caller):
    text = (ROOT / caller).read_text(encoding="utf-8")
    if not caller.endswith(".sh"):
        return text
    heredocs = re.findall(r"<<'PY'\n(.*?)\nPY\n", text, re.S)
    assert heredocs, f"{caller} has no Python heredoc"
    return "\n".join(heredocs)


def _names_taken(source):
    """Names taken by ``from crmlab import ...`` and ``crmlab.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "crmlab":
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "crmlab"
              and not isinstance(getattr(crmlab, node.attr, None),
                                 types.ModuleType)):
            names.add(node.attr)
    return names


def test_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert crmlab.__all__ == joined
    assert len(set(joined)) == len(joined)
    for name in joined:
        assert hasattr(crmlab, name), name


@pytest.mark.parametrize("caller", CALLERS)
def test_callers_use_only_public_names(caller):
    names = _names_taken(_python_source(caller))
    assert names, f"{caller} takes nothing from crmlab"
    assert sorted(names - set(crmlab.__all__)) == []
