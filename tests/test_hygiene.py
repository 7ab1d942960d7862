"""Source hygiene checks that need no linter."""

import ast
import inspect
from pathlib import Path

import pytest

from l2approx import verdicts
from l2approx.jsonio import VERDICTS

SRC = Path(__file__).resolve().parents[1] / "src" / "l2approx"
WORKFLOWS = sorted((SRC.parents[1] / ".github" / "workflows").glob("*.yml"))
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_exports_have_a_library_caller():
    """Every public module-level function or class of every library module
    is named in some library module, so no public name is reached by tests
    alone.  A verdict is named by its row of ``VERDICTS``: cmd_approx runs
    it as ``getattr(verdicts, name)``."""
    public = set()
    named = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    named |= set(VERDICTS)
    uncalled = public - named
    assert uncalled == set(), f"public names with no library caller: {sorted(uncalled)}"


def test_cmd_approx_picks_its_verdicts_from_the_table():
    """cmd_approx names no check but whitehead, which picks the operator and
    where the oracle is reported: every check is validated and run through
    ``VERDICTS``, whose every name is a function of ``verdicts``, so a new
    verdict is one function and one table row."""
    tree = ast.parse((SRC / "cli.py").read_text())
    cmd = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_approx")
    named = {n.value for n in ast.walk(cmd) if isinstance(n, ast.Constant) and n.value in VERDICTS}
    assert named == {"whitehead"}
    assert all(inspect.isfunction(getattr(verdicts, name, None)) for name in VERDICTS)


def _import_time_nodes(tree):
    """The nodes that run when the module is imported: everything but the
    bodies of functions and lambdas."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "_lazy.py"], ids=lambda p: p.name
)
def test_numpy_and_scipy_are_imported_only_lazily(path):
    """Only ``_lazy`` imports numpy or scipy at module level, so importing
    l2approx, set-up and input errors never load them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    eager = []
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        eager += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in ("numpy", "scipy")]
    assert not eager, f"{path.name} imports at module level: {eager}"


def test_groups_never_touches_numpy():
    """groups.py neither imports from ``_lazy`` nor names ``np``, so building
    any group, a finite table included, never loads numpy."""
    tree = ast.parse((SRC / "groups.py").read_text())
    lazy = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "_lazy"]
    named = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "np"]
    assert not lazy and not named, f"groups.py imports _lazy at {lazy}, names np at {named}"


NUMERICS = {"spectral", "schemes", "oracles", "verdicts", "cw", "verify"}


def _imported_modules(node):
    """The dotted modules an import statement may load; a relative import
    resolves inside l2approx, and ``from . import x`` may load l2approx.x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.level:
        return [node.module]
    base = ".".join(filter(None, ["l2approx", node.module]))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


@pytest.mark.parametrize("name", ["errors", "groups", "groupring", "matrices", "jsonio"])
def test_description_layer_never_imports_the_numerics(name):
    """Reading and validating a problem needs only groups, ring elements and
    matrices: no description module imports a numerics module at module
    level, so ``import l2approx`` and set-up never load one."""
    path = SRC / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    eager = [
        f"{module} (line {node.lineno})"
        for node in _import_time_nodes(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in _imported_modules(node)
        if module.startswith("l2approx.") and module.split(".")[1] in NUMERICS
    ]
    assert not eager, f"{name}.py imports at module level: {eager}"


def _run_blocks(text):
    """Each ``run:`` of a workflow as its list of command lines: the rest
    of its line, or the non-blank lines of its block scalar (``run: |``),
    which are indented past the key."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key = line.lstrip(" -")
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if not value.startswith(("|", ">")):
            yield [value]
            continue
        column = len(line) - len(key)
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= column:
                break
            if body.strip():
                block.append(body)
        yield block


def test_workflow_steps_are_short_commands():
    """A check belongs in tier-1, where every run sees it: no ``run:`` of a
    CI workflow holds a heredoc or spans more than 15 lines."""
    assert WORKFLOWS
    long = [
        f"{path.name}: {block[0].strip()}"
        for path in WORKFLOWS
        for block in _run_blocks(path.read_text())
        if len(block) > 15 or any("<<" in line for line in block)
    ]
    assert not long, f"steps with a heredoc or over 15 lines: {long}"
