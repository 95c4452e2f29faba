"""Guards on the package source.  It computes in exact arithmetic only: no
true division, no float literal and no ``float(...)`` call.  And the engine
states its size rule once, in ``records.require_sizes``."""

import ast
from pathlib import Path

import pluckerpush

PACKAGE = Path(pluckerpush.__file__).parent


def floating_point_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "'/' operator"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "float(...) call"


def test_package_source_has_no_floating_point():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in floating_point_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_each_kind():
    planted = "a = b / c\nb /= 2\nc = 0.5\nd = float(a)\ne = b // c\n"
    assert sorted(floating_point_sites(ast.parse(planted))) == [
        (1, "'/' operator"),
        (2, "'/' operator"),
        (3, "literal 0.5"),
        (4, "float(...) call"),
    ]


#: The messages of the size rule; the CLI words its own, naming flags.
SIZE_RULE_TEXTS = ("need 1 <= d <= r", "power must be nonnegative", "model has rank")


def test_the_size_rule_is_stated_once_in_records():
    counts = {
        path.name: [path.read_text().count(text) for text in SIZE_RULE_TEXTS]
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
    }
    assert {name: c for name, c in counts.items() if any(c)} == {"records.py": [1, 1, 1]}
