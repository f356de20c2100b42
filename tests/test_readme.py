"""The README's `$ eigensplit ...` examples print what the README shows."""

import os
import shlex

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
