"""Every module of the package parses under the oldest Python it declares,
uses each name it imports and reads each parameter it takes, and says of
each cache which benchmark workload it pays on; every public name has a
reader in what runs the package, and ``@`` multiplies only chi's tables."""

import ast
import re
from pathlib import Path

import pytest

import ottospin
from conftest import _package_caches, _tracing_module

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for path in (ROOT / "src" / "ottospin").glob("*.py") if path.name != "__init__.py"
)
#: (major, minor) of pyproject.toml's requires-python = ">=X.Y"
OLDEST_PYTHON = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ottospin").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_under_the_oldest_declared_python(path):
    # the suite runs on a newer Python only; ast checks the grammar of the
    # oldest one (best effort: syntax only, not the standard library)
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name,
              feature_version=OLDEST_PYTHON)


def test_syntax_newer_than_the_oldest_declared_python_is_found():
    assert OLDEST_PYTHON == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST_PYTHON)


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, skipping ``from __future__``
    and any name whose line carries ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os  # noqa: F401\nfrom typing import Any, List\nx: Any = 1\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: List"]


def _kept_unused_imports(source: str) -> list[str]:
    """Names bound by an import whose line carries ``# noqa: F401``."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa: F401" in lines[alias.lineno - 1]]


def test_the_only_kept_unused_imports_are_the_tracers_one_tau_boundaries():
    # cycle.py imports these only for the benchmark tracer to wrap under
    # ottospin.cycle; no other import may be kept unused
    kept = sorted((f"ottospin.{path.stem}", name)
                  for path in sorted((ROOT / "src" / "ottospin").glob("*.py"))
                  for name in _kept_unused_imports(path.read_text(encoding="utf-8")))
    assert kept == [("ottospin.cycle", name) for name in
                    ("evolve_unitary", "propagate_state", "transition_probability")]
    assert set(kept) <= set(_tracing_module().BOUNDARIES)


def test_a_kept_unused_import_is_found():
    source = "import math\nimport os  # noqa: F401\nfrom a import (\n    b,  # noqa: F401\n    c,\n)\n"
    assert _kept_unused_imports(source) == ["os", "b"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (functions, classes, constants; not
    dunders) of each ``{module: source}`` entry that no source reads outside
    the name's own definition.  A read is a loaded ``Name`` or
    ``Attribute``, matched by identifier alone, as in ``_unused_imports``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def reads(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr

    everywhere = [name for tree in trees.values() for name in reads(tree)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = list(reads(node))
            unread += [f"{module}.{name}" for name in bound
                       if name.startswith("_") and not name.startswith("__")
                       and everywhere.count(name) == own.count(name)]
    return unread


def test_every_private_name_of_the_package_has_a_reader():
    # a private name nothing in the package reads is dead code
    paths = (Path(__file__).resolve().parents[1] / "src" / "ottospin").glob("*.py")
    assert _unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in paths}) == []


def test_an_unread_private_name_is_found():
    source = (
        "_USED = 1\n_UNUSED = 2\n_A, _B = 3, 4\n__version__ = '1'\n"
        "def _helper():\n    return _USED + _A\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Kept:\n    pass\n"
    )
    other = "import m\ndef public():\n    return m._helper(), m._Kept\n"
    assert _unread_private_names({"m": source, "n": other}) == ["m._UNUSED", "m._B", "m._recursive"]


def _unread_public_names(public, package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Names of ``public`` that nothing reads outside their own definition.

    ``package`` maps each module of the package (``__init__`` left out) to
    its source, ``readers`` the other code that runs it to its source.  A
    read is a loaded ``Name``; an ``Attribute`` of ``o``, ``ottospin`` or a
    module of the package (``report.efficiency_lag`` reads a report field,
    not the function); or a name a ``from`` import binds, which
    ``test_module_has_no_unused_import`` holds to a read or to a benchmark
    tracer boundary.  What the definition of an unread public name reads
    does not count, so a chain of such definitions is found whole.
    """
    spellings = {"o", "ottospin", *package}

    def reads(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id
            elif (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                  and isinstance(child.value, ast.Name) and child.value.id in spellings):
                yield child.attr
            elif isinstance(child, ast.ImportFrom):
                yield from (alias.name for alias in child.names)

    # (the public name a top-level statement defines, or None; what it reads)
    blocks = [(getattr(node, "name", None) if label in package else None, list(reads(node)))
              for label, source in {**package, **readers}.items()
              for node in ast.parse(source).body]
    unread: set[str] = set()
    while True:
        read = {name for owner, names in blocks if owner not in unread
                for name in names if name != owner}
        found = set(public) - read
        if found == unread:
            return sorted(unread)
        unread = found


def test_every_public_name_of_the_package_has_a_reader():
    # a public name that only its own tests call is not what the package
    # runs; the readers are the package, the benchmark, README's example and
    # the acceptance criteria, not the other tests
    package = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readers = {f"perfbench/{path.name}": path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    readers["README.md"] = readme.split("```python\n", 1)[1].split("```", 1)[0]
    readers["tests/test_acceptance.py"] = (ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")
    assert _unread_public_names(ottospin.__all__, package, readers) == []


def test_an_unread_public_name_is_found():
    source = (
        "import numpy as np\n"
        "from .n import shared\n"
        "def run(report):\n    return report.lag, shared, np.pi\n"
        "def lag(x):\n    return entropy(x) + lag(x)\n"
        "def entropy(x):\n    return x\n"
        "def bound(x):\n    return x\n"
        "LIMIT = 1.0\n"
    )
    other = "def shared():\n    return m.bound(1), LIMIT\n"
    runner = "import ottospin as o\nreport = o.run(None)\nreport.entropy\n"
    public = ("run", "lag", "entropy", "bound", "LIMIT", "shared", "unused")
    assert _unread_public_names(public, {"m": source, "n": other}, {"runner": runner}) == [
        "entropy", "lag", "unused"]


def _matmuls(sources: dict[str, str]) -> list[str]:
    """Every ``@`` of each ``{module: source}`` entry, as ``module.function``
    of the innermost ``def`` around it (``module`` outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.MatMult):
                found.append(owner)
            visit(child, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_the_only_matmuls_are_the_characteristic_functions_two_gemvs():
    # the qubit algebra is Python floats and spin._product's einsum stacks;
    # chi's two table-by-weights products stay matmuls, which are faster
    # there than einsum (0.91 against 2.05 us at 46 points and 9 atoms)
    paths = sorted((ROOT / "src" / "ottospin").glob("*.py"))
    assert _matmuls({path.stem: path.read_text(encoding="utf-8") for path in paths}) == [
        "tpm.characteristic_function", "tpm.characteristic_function"]


def test_a_matmul_is_found():
    source = (
        "import numpy as np\nA = np.eye(2) @ np.eye(2)\n"
        "def f(x, y):\n    def g(z):\n        return z @ z\n    return x @ y, g(x)\n"
        "class K:\n    def m(self, x):\n        x @= x\n        return x * x\n"
    )
    assert _matmuls({"m": source}) == ["m", "m.g", "m.f", "m.m"]


def _unread_parameters(source: str) -> list[str]:
    """Parameters (``self`` excepted) of every ``def`` that its body never
    reads, as a loaded ``Name``; a parameter only assigned to is unread."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            child.id for statement in node.body for child in ast.walk(statement)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        unread += [f"line {node.lineno}: {node.name}({param.arg})" for param in params
                   if param is not None and param.arg != "self" and param.arg not in read]
    return unread


def test_every_parameter_of_the_package_is_read():
    # a parameter no body reads is a dead knob, such as an ignored flag
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "ottospin").glob("*.py"))
    assert [f"{p.name} {u}" for p in paths for u in _unread_parameters(p.read_text("utf-8"))] == []


def test_an_unread_parameter_is_found():
    source = (
        "class K:\n    def method(self, used, flag=False):\n        return used\n"
        "def outer(a, b, *rest, c, **extra):\n"
        "    def inner(d):\n        return a + d\n"
        "    b = 1\n    return inner(c), rest\n"
    )
    assert sorted(_unread_parameters(source)) == [
        "line 2: method(flag)", "line 4: outer(b)", "line 4: outer(extra)"
    ]


def test_every_package_cache_is_cleared_between_tests():
    # the autouse fixture in conftest.py clears what _package_caches finds;
    # a cache it missed could answer a later test from an earlier one
    decorated = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d).split("(")[0].endswith("cache") for d in node.decorator_list)
    )
    found = sorted(f"{c.__module__.rpartition('.')[2]}.{c.__name__}" for c in _package_caches())
    assert decorated and found == decorated


WORKLOAD_HITS = re.compile(r"\b(mc_cycle|tau_scan|sweep_cli)\b\W+\d+ hits / \d+ misses")


def _caches_without_a_workload(source: str) -> list[str]:
    """Module-level ``lru_cache`` functions whose comment block right above
    the decorators does not name a benchmark workload with its hits and
    misses, as in "pays on tau_scan: 600 hits / 10 misses"."""
    lines = source.splitlines()
    missing = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or not any(
            "lru_cache" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        above = node.decorator_list[0].lineno - 2
        comment = []
        while above >= 0 and lines[above].lstrip().startswith("#"):
            comment.insert(0, lines[above].lstrip("# "))
            above -= 1
        if not WORKLOAD_HITS.search(" ".join(comment)):
            missing.append(node.name)
    return missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_cache_names_the_workload_it_pays_on(path):
    # a cache is kept only where a workload shows it paying
    assert _caches_without_a_workload(path.read_text(encoding="utf-8")) == []


def test_a_cache_without_its_workload_is_found():
    source = (
        "import functools\n\n"
        "# pays on tau_scan: 600 hits / 10 misses\n"
        "@functools.lru_cache(maxsize=2)\ndef kept(x):\n    return x\n\n"
        "# pays on tau_scan\n"
        "@functools.lru_cache(maxsize=2)\ndef uncounted(x):\n    return x\n\n"
        "# pays on mc_cycle: 40 hits / 10 misses\n\n"
        "@functools.lru_cache\ndef detached(x):\n    return x\n"
    )
    assert _caches_without_a_workload(source) == ["uncounted", "detached"]
