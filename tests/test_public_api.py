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


def test_forward_pass_is_written_once():
    # x·Wᵀ + b lives in SoftmaxPolicy.logits and, stored action-major, in
    # policies._action_logits; every other forward pass calls one of them.
    # The in-place matmul of the training step spells W.T and is not
    # counted.
    uses = [
        path.name
        for path in sorted((ROOT / "src" / "crmlab").glob("*.py"))
        for _ in range(path.read_text(encoding="utf-8").count("weights.T"))
    ]
    assert uses == ["policies.py", "policies.py"]


def _in_place_exps(tree):
    """Line numbers of the ``np.exp`` calls in ``tree`` that write into an
    output array, by ``out=`` or a second positional argument."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "exp"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and (len(node.args) > 1 or any(kw.arg == "out" for kw in node.keywords))
    }


def test_softmax_is_written_once():
    # The in-place exp of a softmax lives in policies._softmax_rows, once;
    # an inlined per-action softmax elsewhere would be a second one.
    found, inside = set(), set()
    for path in sorted((ROOT / "src" / "crmlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, line) for line in _in_place_exps(tree)}
        if path.name == "policies.py":
            softmax = next(node for node in ast.walk(tree)
                           if isinstance(node, ast.FunctionDef)
                           and node.name == "_softmax_rows")
            inside = {(path.name, line) for line in _in_place_exps(softmax)}
    assert len(inside) == 1
    assert found == inside


def _concurrency_uses(tree, modules, names):
    """Line numbers in ``tree`` that import one of ``modules`` (or a
    submodule) or name one of ``names``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [node.module or ""]
        else:
            imported = []
        if any(m.split(".")[0] in modules for m in imported):
            lines.add(node.lineno)
        if ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in names)):
            lines.add(node.lineno)
    return lines


def _check_only_helper_uses(helper_name, modules, names):
    """Every use of ``modules`` or ``names`` in the package sits inside
    ``_jobs.<helper_name>``, which has at least one."""
    found, inside = set(), set()
    for path in sorted((ROOT / "src" / "crmlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, line)
                  for line in _concurrency_uses(tree, modules, names)}
        if path.name == "_jobs.py":
            helper = next(node for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)
                          and node.name == helper_name)
            inside = {(path.name, line)
                      for line in _concurrency_uses(helper, modules, names)}
    assert inside
    assert found == inside


def test_worker_processes_start_in_one_place():
    # Cross-validation forks its workers through _jobs.map_jobs; a second
    # pool elsewhere would be a second set of rules for worker counts,
    # daemonic callers and shutdown.
    _check_only_helper_uses("map_jobs", ("multiprocessing", "concurrent"),
                            ("ProcessPoolExecutor",))


def test_threads_start_in_one_place():
    # The Monte Carlo draws ahead on the thread of _jobs.prefetched; a
    # thread started elsewhere could outlive its call or be alive when
    # map_jobs forks.
    _check_only_helper_uses("prefetched", ("threading", "queue", "_thread"),
                            ("Thread", "ThreadPoolExecutor"))
