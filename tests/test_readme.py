"""The README's examples print what the README shows: the `$ eigensplit
...` lines and the Python block under "Library use"."""

import ast
import os
import shlex
from fractions import Fraction

import pytest

from eigensplit import cli

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _examples():
    """(command, shown output lines) for each `$ eigensplit` line; the
    output runs to the next blank line or code fence."""
    examples, current = [], None
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("$ eigensplit "):
                current = (line[2:], [])
                examples.append(current)
            elif not line.strip() or line.startswith("```"):
                current = None
            elif current is not None:
                current[1].append(line)
    return examples


def test_readme_has_examples():
    assert len(_examples()) == 5


@pytest.mark.parametrize("command, shown", _examples(),
                         ids=[c for c, _ in _examples()])
def test_readme_example(capsys, command, shown):
    command, _, pipe = command.partition(" | ")
    rc = cli.main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    if pipe:
        assert pipe == "tail -2"
        assert out[-2:] == shown
        return
    assert len(out) == len(shown) == 1
    head, elided, tail = shown[0].partition("...")
    if elided:
        assert out[0].startswith(head) and out[0].endswith(tail)
    else:
        assert out == shown


def _library_block():
    """The source of the ```python block under "## Library use"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_block():
    # each expression's value, as repr, starts the comment on its line or
    # the comment line right after it
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            code = ast.Module(body=[node], type_ignores=[])
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        line = lines[node.end_lineno - 1]
        after = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
        comments = [line.partition("#")[2].strip()]
        if after.startswith("#"):
            comments.append(after[1:].strip())
        assert any(c.startswith(repr(value)) for c in comments), \
            (line, value)
        shown.append(value)
    assert shown == [[6, 6, 5, 1, 4], Fraction(1, 3), 417, True]
