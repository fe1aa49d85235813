"""The README's examples run against the current public surface: the
library quick tour gives the values its comments state, and each bundled
figure command exits 0 and prints what the comment beside it says."""

import re
import shlex
from pathlib import Path

import pytest

from wfg.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(heading, language):
    """The first fenced ``language`` block under the ``## heading``."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```{language}\n(.*?)^```",
                      README, re.M | re.S)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def commented_lines(text):
    """(code, comment) for each unindented line that carries a comment."""
    pairs = []
    for line in text.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip() and not code[0].isspace():
            pairs.append((code.strip(), comment.strip()))
    return pairs


def test_quick_tour_values():
    source = block("Library quick tour", "python")
    namespace = {}
    exec(source, namespace)
    values = {code: (eval(code, namespace), comment)
              for code, comment in commented_lines(source)}
    assert sorted(values) == sorted([
        "classify(K)", "abelianization(K)", "weighted_homology_graph(K)",
        "lcs_free_ranks(classify(K), max_n=4)"])
    factors, comment = values["classify(K)"]
    assert str(factors) == comment == "Z * Z/2 * Z/4"
    group, comment = values["abelianization(K)"]
    assert str(group) == comment == "Z ⊕ Z/2 ⊕ Z/4"
    homology, comment = values["weighted_homology_graph(K)"]
    assert f"H1 = {homology.h1}, H0 = {homology.h0}" == comment == "H1 = Z, H0 = Z ⊕ Z/2"
    ranks, comment = values["lcs_free_ranks(classify(K), max_n=4)"]
    assert ranks == (1, 0, 0, 0) and comment.startswith(f"{ranks}:")


def figure_commands():
    """(argv, the stdout its comment states or None) for each command of
    the bundled-figures block."""
    commands = []
    for line in block("Bundled figures", "sh").splitlines():
        code, _, comment = line.partition("#")
        commands.append((shlex.split(code), comment.strip() + "\n" if comment else None))
    return commands


FIGURE_COMMANDS = figure_commands()


def test_figure_comments_are_the_documented_ones():
    assert [(" ".join(argv), out) for argv, out in FIGURE_COMMANDS if out] == [
        ("wfg classify figures/figure1.json", "Z * Z/2 * Z/4\n"),
        ("wfg lcs --max-n 2 figures/figure1-w0-2.json", "R1=2 R2=1\n"),
    ]


@pytest.mark.parametrize(("argv", "out"), [
    pytest.param(argv, out, id=argv[1]) for argv, out in FIGURE_COMMANDS])
def test_figure_command(argv, out, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert argv[0] == "wfg" and main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if out is not None:
        assert captured.out == out
