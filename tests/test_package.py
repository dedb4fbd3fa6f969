from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import usigns


def test_all_names_resolve_and_hold_no_module():
    assert usigns.__all__ == sorted(set(usigns.__all__))
    for name in usigns.__all__:
        assert not isinstance(getattr(usigns, name), ModuleType), name
    namespace: dict = {}
    exec("from usigns import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(usigns.__all__)
    assert "points_from_u" in namespace and "relations" not in namespace


def test_sign_word_layout_only_in_patterns():
    # SignPattern is the one codec between a pattern's bits and its chord
    # signs: no other module reverses a digit string, parses base 2, builds
    # a translation table or spells the sign characters
    found = []
    for path in sorted(Path(usigns.__file__).parent.glob("*.py")):
        if path.name == "patterns.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Slice) and ast.unparse(node) == "::-1":
                found.append((path.name, node.lineno, "[::-1]"))
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == "int" and len(node.args) + len(node.keywords) == 2:
                    found.append((path.name, node.lineno, "int(..., base)"))
                elif called == "maketrans":
                    found.append((path.name, node.lineno, "maketrans"))
            elif isinstance(node, ast.Constant) and node.value in ("+-", b"+-"):
                found.append((path.name, node.lineno, repr(node.value)))
    assert found == []


def test_place_reader_in_signs_and_map_rows_in_monomial():
    # one module turns places into chord signs and one reads a map's rows:
    # only signs defines _places, _odd and _interlacing, only monomial names
    # _row_list and _row_prefixes, and neither signs nor solver imports monomial
    defined, named, imported = {}, {}, {}
    for path in Path(usigns.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defined[path.name] = {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
        named[path.name] = defined[path.name] | {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in nodes
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }
        imported[path.name] = {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    for name in ("_places", "_odd", "_interlacing"):
        assert [f for f in sorted(defined) if name in defined[f]] == ["signs.py"], name
    for name in ("_row_list", "_row_prefixes"):
        assert [f for f in sorted(named) if name in named[f]] == ["monomial.py"], name
    assert "monomial" not in imported["signs.py"] | imported["solver.py"]
