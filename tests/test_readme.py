"""The README's Library example runs, and each of its comments shows what its
line gives: a printed line its output, any other expression line the repr of
its value, followed by nothing or by a note after a comma or a colon."""

import ast
import contextlib
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    start = text.index("## Library\n\n```python\n") + len("## Library\n\n```python\n")
    return text[start : text.index("```", start)]


def test_the_library_example_shows_what_each_line_gives():
    source = library_block()
    comments = {
        token.start[0]: token.string.removeprefix("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    printed = []
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        shown = out.getvalue().rstrip("\n") or repr(value)
        printed.append(out.getvalue())
        comment = comments.get(statement.lineno)
        if comment is not None:
            assert comment == shown or comment.startswith((shown + ",", shown + ":")), statement.lineno
            checked += 1
    assert "".join(printed) == "s2 + 2*s1^2\n"
    assert checked == 7
