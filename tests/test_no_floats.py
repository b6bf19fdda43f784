"""The north star "no floats anywhere", checked statically: no module of the
package holds a float or complex literal or uses the name float or
complex."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "gaugeknot"
SOURCES = sorted(PACKAGE.glob("*.py"))


def offences(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                                   complex):
            yield f"{path.name}:{node.lineno}: literal {node.value!r}"
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ("float", "complex"):
            yield f"{path.name}:{node.lineno}: name {name}"


def test_sources_have_no_float_or_complex():
    assert len(SOURCES) >= 9
    assert [o for path in SOURCES for o in offences(path)] == []


def test_the_scan_sees_floats(tmp_path):
    f = tmp_path / "bad.py"
    f.write_text("x = 1.5\ny = 2j\nz = float(x)\nimport builtins\n"
                 "w = builtins.complex\nfrom builtins import float as f\n")
    assert sorted(offences(f)) == [
        "bad.py:1: literal 1.5", "bad.py:2: literal 2j",
        "bad.py:3: name float", "bad.py:5: name complex",
        "bad.py:6: name float"]
