import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import paper
from delpezzo.errors import InputError
from delpezzo.picard import PicardLattice
from delpezzo.surface import catalog_load


def _loads(module: str, others: list[str]) -> list[str]:
    """Which of `others` a fresh interpreter has loaded after importing
    `module`."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        f"import json, sys, {module}; "
        f"print(json.dumps([m for m in {others!r} if m in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_census_does_not_import_paper():
    # The census engine stands alone: importing it loads none of the
    # paper's tables or suites.
    assert _loads("delpezzo.census", ["delpezzo.paper"]) == []


def test_weyl_does_not_import_toric_or_surface():
    # The group code is lattice code: it knows no toric system or surface.
    assert _loads("delpezzo.weyl", ["delpezzo.toric", "delpezzo.surface"]) == []


def _unused_imports(path: Path) -> list[str]:
    """The names bound by the module-level imports of the source file
    `path` that the module never reads, as "file:line name"."""
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read
    ]


def test_no_unused_module_imports(tmp_path):
    # A module-level import that the module never reads is dead code, such
    # as a decider left imported after its last call is gone.
    src = Path(__file__).parent.parent / "src" / "delpezzo"
    assert [u for path in sorted(src.glob("*.py")) for u in _unused_imports(path)] == []
    stray = tmp_path / "stray.py"
    stray.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "d()\n"
    )
    assert _unused_imports(stray) == ["stray.py:2 os", "stray.py:3 b"]


def _read_names(trees) -> set[str]:
    """The names the syntax trees read, bare or as attributes."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unused_private_names(src: Path) -> list[str]:
    """The module-level private names (`_x`, not dunder) defined in the
    source files of the directory `src` that none of them reads, as
    "file:line name"."""
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    read = _read_names(trees.values())
    unused = []
    for file, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            unused += [
                f"{file}:{node.lineno} {name}"
                for name in names
                if name[:1] == "_" and name[:2] != "__" and name not in read
            ]
    return unused


def test_no_unused_private_names(tmp_path):
    # A private helper, constant or class that no module of the package
    # reads is dead code, such as a helper orphaned when its caller goes.
    src = Path(__file__).parent.parent / "src" / "delpezzo"
    assert _unused_private_names(src) == []
    (tmp_path / "a.py").write_text(
        "__all__ = []\n"
        "_USED, _SPARE = 1, 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Orphan:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\na._helper()\n")
    assert _unused_private_names(tmp_path) == ["a.py:2 _SPARE", "a.py:5 _Orphan"]


def _foreign_private_reads(src: Path) -> list[str]:
    """The reads of another module's private name (`_x`, not dunder) in the
    source files of the directory `src`, as `mod._x` on a module that the
    file imports or as `from .mod import _x`, as "file:line mod._x"."""
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, reads = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module is None
            ):
                imported |= {a.asname or a.name for a in node.names if a.name in modules}
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                reads += [(node.lineno, node.module, a.name, True) for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.append((node.lineno, node.value.id, node.attr, False))
        found += [
            f"{path.name}:{line} {module}.{name}"
            for line, module, name, from_import in sorted(reads)
            if name[:1] == "_" and name[:2] != "__"
            and module != path.stem
            and (from_import or module in imported)
        ]
    return found


def test_no_module_reads_another_modules_private_names(tmp_path):
    # A private name is its module's own: a module that needs another's
    # helper should call a public function that owns the decision.
    src = Path(__file__).parent.parent / "src" / "delpezzo"
    assert _foreign_private_reads(src) == []
    (tmp_path / "a.py").write_text("_X = 1\n__all__ = []\ndef _own():\n    return _X\n")
    (tmp_path / "b.py").write_text(
        "import a\nfrom . import a as alias\nfrom .a import _X, __all__\n"
        "a._own()\nalias._X\na.__all__\n"
    )
    (tmp_path / "c.py").write_text("a = object()\na._X\n")
    assert _foreign_private_reads(tmp_path) == [
        "b.py:3 a._X", "b.py:4 a._own", "b.py:5 alias._X",
    ]


def _unread_public_names(src: Path, readers: list[Path]) -> list[str]:
    """The public module-level functions and classes of the source files
    of the directory `src` that no source file of `src` or of the
    directories `readers` reads, and no module docstring of `src` names
    in backticks as part of its interface, as "file:line name"."""
    files = [path for d in [src, *readers] for path in d.glob("*.py")]
    read = _read_names(ast.parse(path.read_text()) for path in files)
    for path in src.glob("*.py"):
        read.update(re.findall(r"`(\w+)`", ast.get_docstring(ast.parse(path.read_text())) or ""))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name[:1] != "_"
        and node.name not in read
    ]


def test_no_public_names_that_only_tests_read(tmp_path):
    # A public function or class that neither the package nor the
    # benchmark reads serves the tests alone, such as a helper left
    # behind when its library caller goes.
    root = Path(__file__).parent.parent
    assert _unread_public_names(root / "src" / "delpezzo", [root / "bench"]) == []
    lib, bench = tmp_path / "lib", tmp_path / "bench"
    lib.mkdir()
    bench.mkdir()
    (lib / "a.py").write_text(
        "def used():\n"
        "    pass\n"
        "def benched():\n"
        "    pass\n"
        "def spare():\n"
        "    pass\n"
        "class Spare:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "def documented():\n"
        "    pass\n"
    )
    (lib / "b.py").write_text(
        '"""Uses `used`; `documented` is the interface."""\n'
        "from a import used, spare\n"
        "used()\n"
    )
    (bench / "c.py").write_text("import a\na.benched()\n")
    assert _unread_public_names(lib, [bench]) == ["a.py:5 spare", "a.py:7 Spare"]


def test_irr_lines_suite():
    report = paper.verify_irr_lines()
    assert report.passed
    # One line per catalog row of degrees 7-3 that prints its I^irr.
    assert len(report.lines) == len(paper._EXPECTED_IRR) == 46
    labels = {line.label for line in paper.verify_good_classes().lines}
    assert {line.label for line in report.lines} <= labels


def test_type_label():
    assert paper._type_label("X_{2,A1+2A3}") == "A1+2A3"
    assert paper._type_label("X_{2}") == "dP"


def test_fast_suites_pass():
    assert paper.verify_table1().passed
    assert paper.verify_table3().passed
    assert paper.verify_ixa_counts().passed
    assert paper.verify_section13().passed


def test_good_class_suites():
    assert paper.verify_good_class_tables().passed
    with pytest.raises(InputError):
        paper.verify_good_class_propositions(6)


def test_good_sets():
    s = catalog_load(6).get("A2")
    lat = PicardLattice.standard(6)
    l3 = (1, 0, 0, -1)
    assert paper.good_zero_classes(s) == frozenset({l3})
    assert paper.is_good_set(s, (l3,))
    dp5 = catalog_load(5).get("dP")
    assert paper.good_zero_classes(dp5) == frozenset()
    e6 = catalog_load(3).get("E6")
    assert len(paper.good_zero_classes(e6)) == 17
