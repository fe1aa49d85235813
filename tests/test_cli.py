import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wfg import cli
from wfg.cli import main, parse_input
from wfg.complexes import WeightedComplex, complex_to_json
from wfg.errors import ParseError, SchemaError, TooLarge
from wfg.invariants import witt_rank
from wfg.vankampen import CoverSpec
from wfg.analysis import Filtration, discriminate_trees, enumerate_hamiltonian_trees

from helpers import (FIGURES, VERBS, documents, hub_graphs, load_figure,
                     random_connected_graph, raw_complexes, raw_document)


def fig(name):
    return str(FIGURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseInput:
    def test_detects_document_kinds(self):
        assert isinstance(parse_input(fig("figure1.json")), WeightedComplex)
        assert isinstance(parse_input(fig("figure4-cover.json")), CoverSpec)
        assert isinstance(parse_input(fig("figure5-filtration.json")), Filtration)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_input(fig("no-such-figure.json"))

    def test_path_with_nul_byte(self):
        # open raises ValueError, not OSError, for an embedded NUL.
        with pytest.raises(ParseError, match=r"^cannot read a\x00b: embedded null byte$"):
            parse_input("a\0b")

    def test_unreadable_path_is_quoted_as_given(self, capsys):
        code, out, err = run(capsys, "validate", "./no-such-figure.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read ./no-such-figure.json: ")
        assert err.endswith(": './no-such-figure.json'\n")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_input(str(bad))


class TestUnparseableInput:
    @pytest.mark.parametrize("text", ["[" * 100000, "[" + "7" * 5000 + "]"],
                             ids=["deep-nesting", "huge-integer"])
    def test_is_input_error_without_traceback(self, capsys, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_undecodable_bytes_are_input_error(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error:")


class TestExitCodes:
    def test_classify_success(self, capsys):
        code, out, _ = run(capsys, "classify", fig("figure1.json"))
        assert code == 0
        assert out.strip() == "Z * Z/2 * Z/4"

    def test_classify_condition_failure(self, capsys):
        code, _, err = run(capsys, "classify", fig("figure3.json"))
        assert code == 2
        assert "exactly-two condition fails at triangle (v1,v3,v4)" in err

    def test_schema_error_is_input_error(self, capsys, tmp_path):
        doc = {"vertices": ["v0", "v1"], "edges": [{"a": 1, "b": 0, "w": 1}]}
        path = tmp_path / "bad-edge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "(1,0)" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify", fig("missing.json"))
        assert code == 1
        assert "error:" in err

    def test_invalid_complex_rejected_before_dispatch(self, capsys, tmp_path):
        doc = {
            "vertices": ["v0", "v1", "v2"],
            "edges": [{"a": 0, "b": 1, "w": 1}],
        }
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "connected" in err

    def test_homology_on_triangles_is_precondition_failure(self, capsys):
        code, _, err = run(capsys, "homology", fig("figure2.json"))
        assert code == 2
        assert "graphs" in err

    @pytest.mark.parametrize("verb", ["lcs", "hamiltonian", "hamiltonian --json"])
    def test_closed_stdout_exits_1_silently(self, tmp_path, verb):
        # Each output is far past a pipe buffer (about 1.3 MB, 0.36 MB and
        # 0.87 MB), so the write after the reader closes the pipe fails.
        if verb == "lcs":
            argv = ["lcs", fig("figure1-w0-2.json"), "--max-n", "3000"]
        else:
            n = 7
            k7 = {"vertices": [f"v{i}" for i in range(n)],
                  "edges": [{"a": a, "b": b, "w": a * n + b}
                            for a in range(n) for b in range(a + 1, n)]}
            path = tmp_path / "k7.json"
            path.write_text(json.dumps(k7), encoding="utf-8")
            argv = [*verb.split(), str(path)]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen([sys.executable, "-m", "wfg.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")


class TestVerbs:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", fig("figure1.json"))
        assert code == 0 and out.strip() == "ok"

    def test_validate_reports_failures(self, capsys, tmp_path):
        doc = {
            "vertices": ["v0", "v1", "v2"],
            "edges": [{"a": 0, "b": 1, "w": 1}],
        }
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "connected" in out

    def test_tree_strategies(self, capsys):
        code, out, _ = run(capsys, "tree", fig("figure1.json"))
        assert code == 0
        assert out.startswith("bfs:")
        code, out, _ = run(capsys, "tree", fig("figure1.json"), "--tree", "kruskal-min")
        assert code == 0
        assert out.startswith("kruskal-min:")

    def test_present(self, capsys):
        code, out, _ = run(capsys, "present", fig("figure1.json"))
        assert code == 0
        assert out.strip() == "⟨ g01, g02, g12 | g01^2, g12^4 ⟩"

    def test_abelianize(self, capsys):
        code, out, _ = run(capsys, "abelianize", fig("figure1.json"))
        assert code == 0
        assert out.strip() == "Z ⊕ Z/2 ⊕ Z/4"

    def test_homology(self, capsys):
        code, out, _ = run(capsys, "homology", fig("figure1.json"))
        assert code == 0
        assert out.splitlines() == ["H1 = Z", "H0 = Z ⊕ Z/2"]

    def test_lcs(self, capsys):
        code, out, _ = run(capsys, "lcs", "--max-n", "2", fig("figure1-w0-2.json"))
        assert code == 0
        assert out.strip() == "R1=2 R2=1"

    def test_vankampen_pass_and_fail(self, capsys, tmp_path):
        code, out, _ = run(capsys, "vankampen", fig("figure4-cover.json"))
        assert code == 0
        assert "abelianizations equal: True" in out

        doc = load_figure("figure4-cover.json")
        doc["K0"]["edges"][0]["w"] = 99  # weight no longer restricts L's
        path = tmp_path / "broken-cover.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "vankampen", str(path))
        assert code == 2
        assert "hypotheses: FAIL" in out

    def test_filtration(self, capsys):
        code, out, _ = run(capsys, "filtration", fig("figure5-filtration.json"))
        assert code == 0
        assert "stage 1: birth Z/3 (right)" in out
        assert "stage 2: death Z (unknown)" in out
        assert out.splitlines()[0].startswith("events are multiset differences")

    def test_filtration_fallback_flag(self, capsys, tmp_path):
        stage = load_figure("figure3.json")
        doc = {"stages": [stage, stage], "regions": {}}
        path = tmp_path / "unclassifiable.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        code, _, err = run(capsys, "filtration", str(path))
        assert code == 2
        assert "stage 0" in err

        code, out, _ = run(capsys, "filtration", str(path), "--fallback-abelian")
        assert code == 0
        assert "warning: abelianization fallback at stages 0, 1" in out

    # Each key int() reads as a weight, but not as its canonical text: with
    # "3" beside it, two keys would name one weight.
    @pytest.mark.parametrize("key", ["\u0663", "03", " 3", "3 ", "+3", "3_0", "-0"])
    def test_filtration_region_key_must_be_canonical(self, capsys, tmp_path, key):
        doc = load_figure("figure5-filtration.json")
        doc["regions"] = {"3": "left", key: "other"}
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert run(capsys, "filtration", str(path)) == (
            1, "", f'error: region key "{key}" is not an integer weight\n')

    def test_filtration_negative_region_key(self, capsys, tmp_path):
        doc = load_figure("figure5-filtration.json")
        doc["regions"] = {"-3": "other", "3": "left"}
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "filtration", str(path))
        assert code == 0
        assert "stage 1: birth Z/3 (left)" in out

    def test_hamiltonian(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", fig("figure6-hexagon.json"))
        assert code == 0
        assert "6 Hamiltonian tree(s)" in out
        assert "distinguishable: True" in out


class TestTreeFlag:
    # Connected, with a stored tree that is a cycle.
    CYCLIC_TREE = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"a": 0, "b": 1, "w": 2}, {"a": 0, "b": 2, "w": 1},
                  {"a": 1, "b": 2, "w": 3}, {"a": 2, "b": 3, "w": 4}],
        "tree": [[0, 1], [1, 2], [0, 2]],
    }

    def test_tree_flag_replaces_an_invalid_stored_tree(self, capsys, tmp_path):
        path = tmp_path / "cyclic-tree.json"
        path.write_text(json.dumps(self.CYCLIC_TREE), encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "[tree-cycle]" in err
        code, out, _ = run(capsys, "classify", str(path), "--tree", "bfs")
        assert code == 0
        assert out.strip() == "Z * Z/2 * Z/4"

    @pytest.mark.parametrize("verb", ["tree", "homology", "hamiltonian"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_unused_stored_tree_is_not_validated(self, capsys, tmp_path, verb, flags):
        """A verb that never reads the stored tree gives the same output
        with the invalid tree as without any tree."""
        bare = {k: v for k, v in self.CYCLIC_TREE.items() if k != "tree"}
        runs = []
        for name, doc in (("cyclic", self.CYCLIC_TREE), ("bare", bare)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append(run(capsys, verb, str(path), *flags))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


class TestFailureOutput:
    """The exact bytes of each validation and document-kind failure."""

    # Disconnected (d is isolated), with a stored tree that is a cycle.
    CYCLIC_TREE = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"a": 0, "b": 1, "w": 2}, {"a": 0, "b": 2, "w": 1},
                  {"a": 1, "b": 2, "w": 3}],
        "tree": [[0, 1], [1, 2], [0, 2]],
    }
    VIOLATIONS = [("connected", "the 1-skeleton is not path-connected"),
                  ("tree-cycle", "tree edges contain a cycle"),
                  ("tree-not-spanning", "tree does not span every vertex")]

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("verb", ["classify", "hamiltonian"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_invalid_complex_goes_to_stderr(self, capsys, tmp_path, verb, flags):
        path = self.write(tmp_path, self.CYCLIC_TREE)
        # hamiltonian drops the stored tree, which it does not use, before
        # validation, so only the disconnection is reported.
        violations = self.VIOLATIONS if verb == "classify" else self.VIOLATIONS[:1]
        err = "".join(f"invalid complex [{r}]: {m}\n" for r, m in violations)
        assert run(capsys, verb, path, *flags) == (1, "", err)

    def test_validate_reports_on_stdout(self, capsys, tmp_path):
        path = self.write(tmp_path, self.CYCLIC_TREE)
        out = "".join(f"[{r}] {m}\n" for r, m in self.VIOLATIONS)
        assert run(capsys, "validate", path) == (1, out, "")
        payload = {"ok": False,
                   "violations": [{"rule": r, "message": m} for r, m in self.VIOLATIONS]}
        assert run(capsys, "validate", path, "--json") == (
            1, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--fallback-abelian"]])
    def test_invalid_filtration_stage_goes_to_stderr(self, capsys, tmp_path, flags):
        doc = {"stages": [{"vertices": ["a"], "edges": []},
                          {"vertices": ["a", "b"], "edges": []}]}
        path = self.write(tmp_path, doc)
        assert run(capsys, "filtration", path, *flags) == (
            1, "", "stage 1 invalid [connected]: the 1-skeleton is not path-connected\n")

    @pytest.mark.parametrize("verb, name, message", [
        ("classify", "figure4-cover.json", "classify expects a weighted complex document"),
        ("vankampen", "figure1.json", "vankampen expects a cover document with L, K1, K2, K0"),
        ("filtration", "figure1.json", 'filtration expects a document with "stages"'),
    ])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_wrong_document_kind(self, capsys, verb, name, message, flags):
        assert run(capsys, verb, fig(name), *flags) == (1, "", f"error: {message}\n")


class TestHelp:
    """argparse formats a help string only when --help runs, so each one is
    run here; each lists exactly its own option strings."""

    BASE = {"-h", "--help", "--json"}
    OPTIONS = {
        "validate": BASE,
        "tree": BASE | {"--tree"},
        "present": BASE | {"--tree"},
        "classify": BASE | {"--tree"},
        "abelianize": BASE | {"--tree"},
        "homology": BASE,
        "lcs": BASE | {"--tree", "--max-n"},
        "vankampen": BASE,
        "filtration": BASE | {"--fallback-abelian"},
        "hamiltonian": BASE,
    }

    @staticmethod
    def help_text(capsys, *argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    @staticmethod
    def option_strings(text):
        return set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text))

    def test_top_level(self, capsys):
        text = self.help_text(capsys)
        assert self.option_strings(text) == {"-h", "--help"}
        assert all(verb in text for verb in VERBS)
        assert sorted(self.OPTIONS) == sorted(VERBS)

    def test_validate_line_names_its_checks(self, capsys):
        # argparse wraps help lines to the terminal width, so compare words.
        words = " ".join(self.help_text(capsys).split())
        assert ("validate check face closure, connectivity and the stored tree "
                "of a complex tree compute a maximal tree") in words
        assert "structural" not in words

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb(self, capsys, verb):
        assert self.option_strings(self.help_text(capsys, verb)) == self.OPTIONS[verb]


class TestLcsRankBound:
    def test_ranks_too_long_to_print_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "lcs", "--max-n", "14500", fig("figure1-w0-2.json"))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_small_requests_unchanged(self, capsys):
        code, out, _ = run(capsys, "lcs", "--max-n", "8", fig("figure1-w0-2.json"))
        assert code == 0
        assert out == "R1=2 R2=1 R3=2 R4=3 R5=6 R6=9 R7=18 R8=30\n"

    def test_max_n_past_sixteen_needs_no_other_flag(self, capsys):
        # The ranks are a closed form, so no truncation order caps --max-n.
        code, out, err = run(capsys, "lcs", fig("figure1-w0-2.json"), "--max-n", "20")
        assert (code, err) == (0, "")
        assert out == " ".join(f"R{n}={witt_rank(2, n)}" for n in range(1, 21)) + "\n"

    # m = 0, 1 and 2 infinite factors.
    @pytest.mark.parametrize("name", ["figure2.json", "figure1.json", "figure1-w0-2.json"])
    def test_max_n_capped_for_every_factorization(self, capsys, name):
        start = time.perf_counter()
        code, out, err = run(capsys, "lcs", "--max-n", "320000", fig(name))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_max_n_cap_boundary(self, capsys):
        code, out, _ = run(capsys, "lcs", "--max-n", str(cli.MAX_N_LIMIT), fig("figure1.json"))
        assert code == 0 and out.endswith(f"R{cli.MAX_N_LIMIT}=0\n")
        code, out, err = run(capsys, "lcs", "--max-n", str(cli.MAX_N_LIMIT + 1),
                             fig("figure1.json"))
        assert code == 2 and out == ""
        assert err == f"error: --max-n {cli.MAX_N_LIMIT + 1} is past the limit of " \
                      f"{cli.MAX_N_LIMIT}; lower --max-n\n"

    def test_bound_is_m_to_the_max_n(self):
        cli._check_rank_digits(2, 14284)  # 2^14284 has 4300 digits
        with pytest.raises(TooLarge):
            cli._check_rank_digits(2, 14285)
        with pytest.raises(TooLarge):
            cli._check_rank_digits(10, 4300)
        cli._check_rank_digits(10, 4299)
        cli._check_rank_digits(1, 10 ** 9)
        cli._check_rank_digits(0, 10 ** 9)


class TestFactorDigitBound:
    """Coprime weights 10^2999 and 10^2999 + 1 on two edges meeting at a
    vertex give a factor of their product, 5,999 digits: past what Python
    writes as text."""

    BIG = (10 ** 2999, 10 ** 2999 + 1)

    @classmethod
    def documents(cls):
        a, b = cls.BIG

        def complex_doc(labels, edges, tree=None, triangles=()):
            doc = {"vertices": labels, "edges": [{"a": x, "b": y, "w": w} for x, y, w in edges],
                   "triangles": [list(t) for t in triangles]}
            if tree is not None:
                doc["tree"] = [list(e) for e in tree]
            return doc

        star = complex_doc(["c", "x", "y"], [(0, 1, a), (0, 2, b)])
        path = complex_doc(["x", "c", "y"], [(0, 1, a), (1, 2, b)], [(0, 1), (1, 2)])
        cover = {"L": path,
                 "K1": complex_doc(["x", "c"], [(0, 1, a)], [(0, 1)]),
                 "K2": complex_doc(["c", "y"], [(0, 1, b)], [(0, 1)]),
                 "K0": complex_doc(["c"], [], [])}
        # The star again, beside a triangle with one tree edge, so that the
        # stage fails the exactly-two condition and is abelianized.
        stage = complex_doc(list("cxyuvw"),
                            [(0, 1, a), (0, 2, b), (0, 3, 1), (2, 5, 1), (3, 4, 1), (3, 5, 1),
                             (4, 5, 1)],
                            [(0, 1), (0, 2), (0, 3), (2, 5), (3, 4)], [(3, 4, 5)])
        return {
            "abelianize-star": ("abelianize", star, []),
            "homology-path": ("homology", path, []),
            "homology-star": ("homology", star, []),
            "vankampen": ("vankampen", cover, []),
            "filtration": ("filtration", {"stages": [stage]}, ["--fallback-abelian"]),
        }

    @pytest.mark.parametrize("case", ["abelianize-star", "homology-path", "homology-star",
                                      "vankampen", "filtration"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_exits_2_before_any_output(self, capsys, tmp_path, case, as_json):
        verb, doc, flags = self.documents()[case]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, verb, str(path), *flags, *(["--json"] if as_json else []))
        assert (code, out) == (2, "")
        assert err == ("error: a group factor has more than 4300 decimal digits "
                       "and cannot be printed\n")

    def test_bound_is_10_to_the_digit_limit(self):
        cli._check_factor_digits([10 ** 4300 - 1, -(10 ** 4300 - 1), 0])
        for factor in (10 ** 4300, -(10 ** 4300)):
            with pytest.raises(TooLarge):
                cli._check_factor_digits([2, factor])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer string conversion limit")
class TestInterpreterDigitLimit:
    """The digit bound follows a lowered interpreter limit: with
    PYTHONINTMAXSTRDIGITS=640 each run exits 2 with one line naming 640,
    where a fixed bound of 4300 let Python's own ValueError through."""

    W = 10 ** 399  # W and W + 1 are coprime: a factor of 799 digits

    @pytest.mark.parametrize("case", ["abelianize", "homology", "lcs"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_lowered_limit_exits_2(self, tmp_path, case, as_json):
        if case == "lcs":
            argv = ["lcs", fig("figure1-w0-2.json"), "--max-n", "3000"]
        else:
            star = {"vertices": ["c", "x", "y"],
                    "edges": [{"a": 0, "b": 1, "w": self.W}, {"a": 0, "b": 2, "w": self.W + 1}]}
            path = tmp_path / "star.json"
            path.write_text(json.dumps(star), encoding="utf-8")
            argv = [case, str(path)]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "wfg.cli", *argv,
                               *(["--json"] if as_json else [])],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error:") and " 640 " in done.stderr


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=40)
@given(doc=documents(), tree=st.sampled_from([None, "bfs", "kruskal-min", "kruskal-max"]))
def test_any_small_document_exits_cleanly(verb, doc, tree, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{verb}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [verb, str(path)]
    if tree is not None and verb in ("tree", "present", "classify", "abelianize", "lcs"):
        argv += ["--tree", tree]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=60)
@given(values=raw_complexes())
def test_malformed_document_exits_cleanly(verb, values, tmp_path_factory):
    """A document the constructor refuses exits 1 with one error line and
    no output, whatever the verb; as a cover member or a filtration stage
    it carries the member's or the stage's prefix."""
    doc = raw_document(*values)
    prefix = {"vankampen": "L: ", "filtration": "stage 0: "}.get(verb, "")
    if verb == "vankampen":
        doc = {key: doc for key in ("L", "K1", "K2", "K0")}
    elif verb == "filtration":
        doc = {"stages": [doc]}
    path = tmp_path_factory.getbasetemp() / f"malformed-{verb}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    try:
        WeightedComplex(*values)
    except ValueError as refusal:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == f"error: {prefix}{refusal}\n"


class TestJsonOutput:
    EXPECTED_KEYS = {
        "validate": {"ok", "violations"},
        "tree": {"strategy", "edges"},
        "present": {"generators", "relators"},
        "classify": {"factors", "text"},
        "abelianize": {"free_rank", "invariant_factors", "text"},
        "homology": {"h0", "h1"},
        "lcs": {"factors", "ranks", "text"},
    }

    @pytest.mark.parametrize("verb", sorted(EXPECTED_KEYS))
    def test_reports_reparse(self, capsys, verb):
        code, out, _ = run(capsys, verb, fig("figure1.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == self.EXPECTED_KEYS[verb]

    def test_cover_and_filtration_reports_reparse(self, capsys):
        code, out, _ = run(capsys, "vankampen", fig("figure4-cover.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["hypotheses_ok"] is True
        assert doc["factorizations"]["direct"] == [0, 0, 2, 3, 4, 5, 6, 7, 8]

        code, out, _ = run(capsys, "filtration", fig("figure5-filtration.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["stages"] == [[0, 2, 2], [0, 0, 2, 2, 3, 3], [0, 2, 2, 2, 3, 3]]
        assert {"stage": 2, "kind": "birth", "factor": 2, "region": "left"} in doc["events"]

    @pytest.mark.parametrize("verb", VERBS)
    def test_stream_is_one_indented_document(self, capsys, verb):
        # On the figures every exit 1 or 2 is an error line on stderr.
        for path in sorted(FIGURES.glob("*.json")):
            code, out, err = run(capsys, verb, str(path), "--json")
            if code == 0:
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
            else:
                assert code in (1, 2) and out == ""
                assert err.startswith("error: ") and err.count("\n") == 1

    def test_text_and_json_numeric_agreement(self, capsys):
        for verb, render in (
            ("classify", lambda d: d["text"]),
            ("abelianize", lambda d: d["text"]),
            ("lcs", lambda d: d["text"]),
        ):
            _, text_out, _ = run(capsys, verb, fig("figure1.json"))
            _, json_out, _ = run(capsys, verb, fig("figure1.json"), "--json")
            assert text_out.strip() == render(json.loads(json_out))

        _, json_out, _ = run(capsys, "classify", fig("figure1.json"), "--json")
        doc = json.loads(json_out)
        assert doc["factors"] == [0, 2, 4]


class TestHamiltonianReport:
    """``hamiltonian`` writes its report by hand; both forms must match the
    payload and lines built from the library calls."""

    @staticmethod
    def check(capsys, tmp_path, K):
        trees = enumerate_hamiltonian_trees(K)
        report = discriminate_trees(K, trees)
        payload = {
            "count": len(trees),
            "trees": trees,
            "invariants": [str(inv) for inv in report.invariants],
            "used_abelianization": report.used_abelianization,
            "distinguishable": report.distinguishable,
        }
        lines = [f"{len(trees)} Hamiltonian tree(s)"]
        for tree, inv in zip(trees, report.invariants):
            edges = ", ".join("{}-{}".format(*K.edge_labels(e)) for e in tree)
            lines.append(f"  [{edges}] -> {inv}")
        lines.append(f"distinguishable: {report.distinguishable}")

        path = tmp_path / "graph.json"
        path.write_text(json.dumps(complex_to_json(K)), encoding="utf-8")
        code, out, err = run(capsys, "hamiltonian", str(path), "--json")
        assert (code, err) == (0, "") and out == json.dumps(payload, indent=2) + "\n"
        code, text, err = run(capsys, "hamiltonian", str(path))
        assert (code, err) == (0, "") and text == "\n".join(lines) + "\n"
        return out

    def test_one_vertex_tree_is_empty(self, capsys, tmp_path):
        out = self.check(capsys, tmp_path, WeightedComplex(("a",), ()))
        assert '"trees": [\n    []\n  ]' in out
        assert json.loads(out)["invariants"] == ["1"]

    def test_star_has_no_path(self, capsys, tmp_path):
        star = WeightedComplex(("c", "x", "y", "z"), ((0, 1, 2), (0, 2, 3), (0, 3, -1)))
        out = self.check(capsys, tmp_path, star)
        assert '"count": 0,\n  "trees": [],\n  "invariants": [],' in out

    # The writer reads each tree's edge mask a byte at a time, so the edge
    # counts sit on both sides of every byte boundary.  check overwrites its
    # file and drains capsys, so the fixtures may be shared by examples.
    @pytest.mark.parametrize("edges", [0, 1, 8, 9, 16, 17, 24, 25, 32, 33, 40, 41])
    @settings(max_examples=6, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edge_counts_around_byte_boundaries(self, capsys, tmp_path, edges, data):
        self.check(capsys, tmp_path, data.draw(hub_graphs(edges)))

    def test_random_graphs(self, capsys, tmp_path):
        # Weights in -2..2: zero, unit and repeated |w| factors.
        rng = random.Random(6)
        for _ in range(50):
            self.check(capsys, tmp_path, random_connected_graph(rng, 2, 8, (-2, 2)))
