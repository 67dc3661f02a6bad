"""Every name a module of the package imports is referenced in that module,
every name the package exports is defined where its export table says and
has a caller in the package or a mention in README.md, and README.md's
Python example runs."""

import ast
import re
from pathlib import Path

import pytest

import ringgpe

PACKAGE = Path(ringgpe.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def unused_imports(source: str) -> list[str]:
    """Imported names never loaded in the module.

    Names listed in a literal __all__ count as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b" bind the alias.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) \
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def defined_names(node: ast.stmt) -> set[str]:
    """The function, class or assigned names that one top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def top_level_names(source: str) -> set[str]:
    """Functions, classes and assigned names at the top level of a module."""
    return set().union(*map(defined_names, ast.parse(source).body))


def referenced_names(source: str) -> set[str]:
    """Names and attributes that a module's code loads, outside the
    top-level definition of each. Docstrings and comments do not count."""
    def loaded(top):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}

    return set().union(*(loaded(top) - defined_names(top) for top in ast.parse(source).body))


def unreferenced_exports(exports: dict, sources: list[str], readme: str) -> list[str]:
    """Exported names that no module refers to and README does not mention."""
    used = set().union(*map(referenced_names, sources))
    return sorted(name for names in exports.values() for name in names
                  if name not in used and not re.search(rf"\b{name}\b", readme))


def test_every_public_name_resolves():
    missing = [name for name in ringgpe.__all__ if not hasattr(ringgpe, name)]
    assert missing == []


def test_exports_are_defined_in_their_module():
    # A name deleted from its module must leave the lazy export table too,
    # and a name that a module merely imports must be exported from its home.
    stray = [f"{module}.{name}" for module, names in ringgpe._EXPORTS.items()
             for name in names
             if name not in top_level_names((PACKAGE / f"{module}.py").read_text())]
    assert stray == []


def test_every_export_has_a_caller_in_the_package_or_readme():
    # A public name that only tests call belongs in the tests that use it.
    # The export table in __init__ names every export and calls none.
    sources = [path.read_text() for path in MODULES if path.name != "__init__.py"]
    assert unreferenced_exports(ringgpe._EXPORTS, sources, README.read_text()) == []


SOLVE_CONTRACT = {"SOLVER_RESIDUAL_TOL", "CERTIFICATE_MARGIN", "checked_solve",
                  "refinement_certificate", "ResidualBounds", "residual_bounds"}


def test_solve_contract_is_defined_in_layout_only():
    # One module owns how a solve is certified against the residual
    # contract; any other module imports it from there.
    owners = {name: sorted(path.stem for path in MODULES
                           if name in top_level_names(path.read_text()))
              for name in SOLVE_CONTRACT}
    assert owners == {name: ["layout"] for name in SOLVE_CONTRACT}


def _factors(node) -> list:
    """The factors of a product, or [node] for anything else."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _halves(node) -> bool:
    """Whether node is 2 or a multiple 2*x of it; 2*pi, a period, is not."""
    factors = _factors(node)
    names = {f.id if isinstance(f, ast.Name) else f.attr for f in factors
             if isinstance(f, (ast.Name, ast.Attribute))}
    return any(isinstance(f, ast.Constant) and f.value == 2 for f in factors) \
        and "pi" not in names


def index_decodings(source: str) -> list[int]:
    """Lines that split an index into (band, slot, kind) by the index formula
    2*(band*N_p + slot) + kind: np.unravel_index, or //, % or divmod by 2 or
    by a multiple of 2. Halving the slot count n_points decodes no index."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            dividend, divisor = node.left, node.right
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if name == "unravel_index":
                lines.add(node.lineno)
            if name != "divmod" or len(node.args) != 2:
                continue
            dividend, divisor = node.args
        else:
            continue
        slot_count = isinstance(dividend, ast.Attribute) and dividend.attr == "n_points"
        if _halves(divisor) and not slot_count:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_layout_decodes_a_triangle_index():
    # The index formula is known to layout alone: slot_view reshapes by it
    # and slot_labels inverts it. The mesh stores no band, slot or kind.
    tree = ast.parse((PACKAGE / "mesh.py").read_text())
    ring_mesh = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "RingMesh")
    assert {"band", "slot", "kind"}.isdisjoint(set().union(*map(defined_names, ring_mesh.body)))
    decodings = {path.stem: index_decodings(path.read_text()) for path in MODULES
                 if path.stem != "layout"}
    assert {stem: lines for stem, lines in decodings.items() if lines} == {}


def test_decoding_check_sees_index_arithmetic():
    source = (
        "band = t // (2 * n_p)\n"
        "slot = (t // 2) % n_p\n"
        "kind = t % 2\n"
        "b, k = divmod(key, 2)\n"
        "labels = np.unravel_index(t, shape)\n"
        "half = mesh.n_points // 2 if mesh.n_points % 2 == 0 else 0\n"
        "j, k = np.divmod(ids, n_p)\n"
        "digits = np.divmod(x, 10000)\n"
        "angle = theta % (2 * np.pi)\n"
    )
    assert index_decodings(source) == [1, 2, 3, 4, 5]


def test_reference_check_skips_own_definition():
    # A call from its own definition and a mention in a docstring or a
    # comment are not callers.
    exports = {"m": ("helper", "fact", "called", "attr_only", "described", "commented",
                     "documented")}
    source = (
        "def helper(n):\n"
        "    return helper(n - 1)\n"
        "fact = 1\n"
        "def called():\n"
        "    \"\"\"Unlike described, ...\"\"\"\n"
        "    return fact  # not commented\n"
        "def attr_only():\n"
        "    pass\n"
        "x = called() + obj.attr_only\n"
    )
    assert unreferenced_exports(exports, [source], "use `documented`") == [
        "commented", "described", "helper"]


def test_readme_python_example_runs(capsys):
    # The first python block of README.md, the API walk-through, as written:
    # a mesh, its ground state, a 5 000-step stirred evolve and the density
    # detector, which finds no vortex in it yet.
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "[]\n"


def test_finds_modules():
    assert {"vortex.py", "fv.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field as dataclass_field\n"
        "from .mesh import RingMesh, triangle_shells\n"
        "__all__ = ['triangle_shells']\n"
        "x: np.ndarray = os.sep\n"
        "@dataclass\n"
        "class A:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["RingMesh (line 5)", "dataclass_field (line 4)"]
