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


def _names_read(source):
    """Identifiers a source reads, by name or as an attribute.  Definitions
    (``def``, ``class``, assignment targets) are not reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    # Public API that nothing but the tests uses is deleted, not kept.
    read = set()
    for path in sorted((ROOT / "src" / "crmlab").glob("*.py")):
        read |= _names_read(path.read_text(encoding="utf-8"))
    for caller in CALLERS:
        read |= _names_read(_python_source(caller))
    assert sorted(set(crmlab.__all__) - read) == []


def test_cli_imports_no_private_name():
    # The CLI is a thin layer over the public API of the other modules.
    tree = ast.parse((ROOT / "src" / "crmlab" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "crmlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
