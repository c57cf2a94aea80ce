"""Command-line conformance: exit codes, verdict lines, file round trips."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from shrubkit import Graph, are_isomorphic, make_clique, make_path, realize
from shrubkit import constructions, depth, mso, solver, tree_model
from shrubkit.cli import _CAP_NAMES, main
from shrubkit.graph import graph_from_text, graph_to_text
from shrubkit.sc_model import evaluate_sc, sc_from_text
from shrubkit.rooted_tree import RootedTree
from shrubkit.tree_model import TreeModel, model_from_text, model_to_text, verify


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_path_to_stdout(self):
        code, out, err = run(["generate", "path", "--length", "2"])
        assert code == 0 and err == ""
        assert graph_from_text(out) == make_path(2)

    def test_graph_files_round_trip_bit_exact(self, tmp_path):
        target = tmp_path / "g.txt"
        code, _, _ = run(["generate", "biclique", "--a", "2", "--b", "3",
                          "-o", str(target)])
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert graph_to_text(graph_from_text(text)) == text

    def test_path_model_then_verify(self, tmp_path):
        model = tmp_path / "model.tm"
        p8 = tmp_path / "p8.g"
        assert run(["generate", "path-model", "--m", "2", "-o", str(model)])[0] == 0
        assert run(["generate", "path", "--length", "8", "-o", str(p8)])[0] == 0
        code, out, _ = run(["verify", "tm", "--model", str(model),
                            "--graph", str(p8)])
        assert code == 0
        assert out.splitlines()[0] == "OK"

    def test_subdivided_k33_with_model(self, tmp_path):
        g_file = tmp_path / "g.txt"
        m_file = tmp_path / "m.tm"
        code, _, _ = run(["generate", "subdivided-k33", "-o", str(g_file),
                          "--model-out", str(m_file)])
        assert code == 0
        g = graph_from_text(g_file.read_text(encoding="utf-8"))
        model = model_from_text(m_file.read_text(encoding="utf-8"))
        assert g.n == 9 and len(g.edges) == 12
        assert verify(model, g)

    def test_a_failed_model_write_leaves_stdout_empty(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["generate", "subdivided-k33",
                              "--model-out", "nodir/m.tm"])
        assert (code, out) == (2, "")
        assert "No such file or directory" in err

    def test_bad_parameter_is_an_error(self):
        code, out, err = run(["generate", "path", "--length", "-1"])
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestConvert:
    def test_tm_to_sc_then_eval_reproduces_graph(self, tmp_path):
        model = tmp_path / "model.tm"
        sc = tmp_path / "t.sc"
        got = tmp_path / "got.g"
        want = tmp_path / "want.g"
        assert run(["generate", "clique-model", "--n", "4", "-o", str(model)])[0] == 0
        assert run(["convert", "tm-to-sc", "--in", str(model), "-o", str(sc)])[0] == 0
        assert run(["convert", "sc-eval", "--in", str(sc), "-o", str(got)])[0] == 0
        assert run(["convert", "tm-eval", "--in", str(model), "-o", str(want)])[0] == 0
        assert got.read_text(encoding="utf-8") == want.read_text(encoding="utf-8")
        assert graph_from_text(got.read_text(encoding="utf-8")) == make_clique(4)

    @pytest.mark.parametrize("depth", [400, 450])
    def test_tm_to_sc_on_a_deep_one_color_model(self, tmp_path, depth):
        # a chain of inner nodes over two leaves, which the model reader takes
        parent = [-1] + list(range(depth - 1)) + [depth - 1, depth - 1]
        model = TreeModel(RootedTree(parent), depth, 1, {depth: 0, depth + 1: 1},
                          {depth: 1, depth + 1: 1}, set())
        m_file = write(tmp_path / "deep.tm", model_to_text(model))
        sc = tmp_path / "t.sc"
        code, _, err = run(["convert", "tm-to-sc", "--in", m_file, "-o", str(sc)])
        assert (code, err) == (0, "")
        t = sc_from_text(sc.read_text(encoding="utf-8"))
        assert evaluate_sc(t) == realize(model)

    def test_sc_to_tm(self, tmp_path):
        model = tmp_path / "model.tm"
        sc = tmp_path / "t.sc"
        back = tmp_path / "back.tm"
        assert run(["generate", "biclique-model", "--a", "2", "--b", "2",
                    "-o", str(model)])[0] == 0
        assert run(["convert", "tm-to-sc", "--in", str(model), "-o", str(sc)])[0] == 0
        assert run(["convert", "sc-to-tm", "--in", str(sc), "-o", str(back)])[0] == 0
        m = model_from_text(back.read_text(encoding="utf-8"))
        t = sc_from_text(sc.read_text(encoding="utf-8"))
        assert realize(m) == evaluate_sc(t)

    def test_tm_to_lincw_eval(self, tmp_path):
        model = tmp_path / "model.tm"
        expr = tmp_path / "e.lcw"
        got = tmp_path / "got.g"
        assert run(["generate", "clique-model", "--n", "3", "-o", str(model)])[0] == 0
        assert run(["convert", "tm-to-lincw", "--in", str(model),
                    "-o", str(expr)])[0] == 0
        assert run(["convert", "lincw-eval", "--in", str(expr), "-o", str(got)])[0] == 0
        assert graph_from_text(got.read_text(encoding="utf-8")) == make_clique(3)

    def test_td_to_tm(self, tmp_path):
        g_file = write(tmp_path / "g.txt", graph_to_text(make_path(2)))
        f_file = write(tmp_path / "f.txt", "0 1\n1 -1\n2 1\n")
        model = tmp_path / "m.tm"
        assert run(["convert", "td-to-tm", "--graph", g_file, "--forest", f_file,
                    "-o", str(model)])[0] == 0
        m = model_from_text(model.read_text(encoding="utf-8"))
        assert realize(m) == make_path(2)

    def test_unreadable_file(self, tmp_path):
        code, _, err = run(["convert", "tm-eval", "--in",
                            str(tmp_path / "missing.tm")])
        assert code == 2 and "error:" in err

    def test_malformed_input(self, tmp_path):
        bad = write(tmp_path / "bad.tm", "not json at all")
        code, _, err = run(["convert", "tm-eval", "--in", bad])
        assert code == 2 and "error:" in err

    def test_crash_is_an_error_not_a_no(self, tmp_path, monkeypatch):
        # an unexpected exception must not exit 1, which would read as a
        # failed verification
        def crash(*args):
            raise RuntimeError("boom")

        model = tmp_path / "m.tm"
        assert run(["generate", "clique-model", "--n", "2", "-o", str(model)])[0] == 0
        g_file = write(tmp_path / "k2.g", graph_to_text(make_clique(2)))
        monkeypatch.setattr(tree_model, "verify", crash)
        code, out, err = run(["verify", "tm", "--model", str(model), "--graph", g_file])
        assert code == 2 and out == ""
        assert err.startswith("error: internal error: RuntimeError: boom")


class TestSolve:
    def test_tm_yes(self, tmp_path):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        witness = tmp_path / "w.tm"
        code, out, _ = run(["solve", "tm", "--graph", g_file, "--d", "1",
                            "--m", "1", "-o", str(witness)])
        assert code == 0
        assert out.splitlines()[0] == "YES"
        m = model_from_text(witness.read_text(encoding="utf-8"))
        assert verify(m, make_clique(3))

    def test_tm_no_names_the_cap(self, tmp_path):
        g_file = write(tmp_path / "p3.g", graph_to_text(make_path(3)))
        code, out, _ = run(["solve", "tm", "--graph", g_file, "--d", "4",
                            "--m", "1"])
        assert code == 1
        assert out.splitlines()[0] == "NO (verified for all depths <= 4)"

    def test_tmc(self, tmp_path):
        matching = Graph(6, [(0, 3), (1, 4), (2, 5)])
        g_file = write(tmp_path / "m6.g", graph_to_text(matching))
        witness = tmp_path / "w.tm"
        code, out, _ = run(["solve", "tmc", "--graph", g_file, "--d", "1",
                            "--m", "2", "--k", "2", "-o", str(witness)])
        assert code == 0 and out.splitlines()[0] == "YES"
        code, out, _ = run(["solve", "tmc", "--graph", g_file, "--d", "0",
                            "--m", "1", "--k", "1"])
        assert code == 1 and out.splitlines()[0] == "NO"

    def test_sc(self, tmp_path):
        g_file = write(tmp_path / "p2.g", graph_to_text(make_path(2)))
        witness = tmp_path / "t.sc"
        code, out, _ = run(["solve", "sc", "--graph", g_file, "--n", "2",
                            "-o", str(witness)])
        assert code == 0 and out.splitlines()[0] == "YES"
        t = sc_from_text(witness.read_text(encoding="utf-8"))
        assert evaluate_sc(t) == make_path(2)
        code, out, _ = run(["solve", "sc", "--graph", g_file, "--n", "0"])
        assert code == 1 and out.splitlines()[0].startswith("NO")

    @pytest.mark.parametrize("what", [["tm", "--d", "1", "--m", "1"],
                                      ["tmc", "--d", "1", "--m", "1", "--k", "1"],
                                      ["sc", "--n", "2"]])
    def test_the_empty_graph_is_an_error_not_a_no(self, tmp_path, what):
        g_file = write(tmp_path / "empty.g", graph_to_text(Graph(0)))
        code, out, err = run(["solve", *what, "--graph", g_file])
        assert (code, out) == (2, "")
        assert err == "error: the empty graph has no model\n"

    def test_td_and_nd(self, tmp_path):
        g_file = write(tmp_path / "p6.g", graph_to_text(make_path(6)))
        forest = tmp_path / "f.txt"
        code, out, _ = run(["solve", "td", "--graph", g_file, "-o", str(forest)])
        assert code == 0 and out.splitlines()[0] == "TREE-DEPTH 3"
        code2, _, _ = run(["verify", "td", "--forest", str(forest),
                           "--graph", g_file])
        assert code2 == 0
        code, out, _ = run(["solve", "nd", "--graph", g_file])
        assert code == 0 and out.splitlines()[0] == "ND 7"

    def test_obstructions(self, tmp_path):
        blocks_file = tmp_path / "obs.txt"
        code, out, _ = run(["solve", "obstructions", "--d", "1", "--m", "1",
                            "--max-n", "4", "-o", str(blocks_file)])
        assert code == 0
        assert out.splitlines()[0] == "OBSTRUCTIONS 2"
        blocks = blocks_file.read_text(encoding="utf-8").split("\n\n")
        found = [graph_from_text(b if b.endswith("\n") else b + "\n")
                 for b in blocks if b.strip()]
        assert len(found) == 2
        assert any(are_isomorphic(g, make_path(2)) for g in found)

    def test_structured_obstructions_write_the_text_file(self, tmp_path):
        argv = ["solve", "obstructions", "--d", "1", "--m", "1", "--max-n", "3"]
        text_file, json_file = tmp_path / "text.txt", tmp_path / "json.txt"
        assert run(argv + ["-o", str(text_file)])[0] == 0
        code, out, _ = run(["--format", "structured", *argv, "-o", str(json_file)])
        assert code == 0
        assert json_file.read_bytes() == text_file.read_bytes()
        assert out == run(["--format", "structured", *argv])[1]


class TestVerify:
    def test_tm_mismatch(self, tmp_path):
        model = tmp_path / "m.tm"
        assert run(["generate", "clique-model", "--n", "3", "-o", str(model)])[0] == 0
        wrong = write(tmp_path / "p2.g", graph_to_text(make_path(2)))
        code, out, _ = run(["verify", "tm", "--model", str(model),
                            "--graph", wrong])
        assert code == 1 and out.splitlines()[0] == "MISMATCH"

    def test_sc(self, tmp_path):
        model = tmp_path / "m.tm"
        sc = tmp_path / "t.sc"
        g_file = tmp_path / "g.txt"
        assert run(["generate", "clique-model", "--n", "3", "-o", str(model)])[0] == 0
        assert run(["convert", "tm-to-sc", "--in", str(model), "-o", str(sc)])[0] == 0
        assert run(["convert", "tm-eval", "--in", str(model), "-o", str(g_file)])[0] == 0
        code, out, _ = run(["verify", "sc", "--sc", str(sc), "--graph", str(g_file)])
        assert code == 0 and out.splitlines()[0] == "OK"

    def test_td_invalid(self, tmp_path):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        f_file = write(tmp_path / "f.txt", "0 -1\n1 -1\n2 -1\n")
        code, out, _ = run(["verify", "td", "--forest", f_file, "--graph", g_file])
        assert code == 1 and out.splitlines()[0] == "INVALID"

    def test_kcopied(self, tmp_path):
        matching = Graph(6, [(0, 3), (1, 4), (2, 5)])
        g_file = write(tmp_path / "m6.g", graph_to_text(matching))
        witness = tmp_path / "w.tm"
        assert run(["solve", "tmc", "--graph", g_file, "--d", "1", "--m", "2",
                    "--k", "2", "-o", str(witness)])[0] == 0
        code, out, _ = run(["verify", "kcopied", "--model", str(witness),
                            "--d", "1", "--m", "2", "--k", "2",
                            "--graph", g_file])
        assert code == 0 and out.splitlines()[0] == "OK"
        code, out, _ = run(["verify", "kcopied", "--model", str(witness),
                            "--d", "1", "--m", "2", "--k", "1"])
        assert code == 1 and out.splitlines()[0] == "INVALID"


@pytest.mark.parametrize("solve, verify_as", [
    (["sc", "--n", "2"], ["sc", "--sc"]),
    (["tm", "--d", "1", "--m", "2"], ["tm", "--model"]),
    (["td"], ["td", "--forest"]),
])
def test_a_witness_for_a_labelled_graph_verifies(tmp_path, solve, verify_as):
    # labels are not part of what a witness denotes
    g_file = write(tmp_path / "g.txt", "3\n0 1\n1 2\nlabel 0 a\n")
    witness = str(tmp_path / "w")
    assert run(["solve", *solve, "--graph", g_file, "-o", witness])[0] == 0
    code, out, _ = run(["verify", *verify_as, witness, "--graph", g_file])
    assert (code, out.splitlines()[0]) == (0, "OK")


class TestDeepWitnessFiles:
    """A witness file the CLI writes, it reads back; one nested past
    MAX_JSON_NESTING (2h + 2 levels for a tree-model of depth h, 2h + 1 for
    an SC-tree of height h) is refused by the writer."""

    @pytest.mark.parametrize("height", [400, 600, 1249])
    def test_tm_and_sc_witnesses_round_trip(self, tmp_path, height):
        k3 = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        k2 = write(tmp_path / "k2.g", graph_to_text(make_clique(2)))
        tm, sc = str(tmp_path / "k3.tm"), str(tmp_path / "k2.sc")
        assert run(["solve", "tm", "--graph", k3, "--d", str(height), "--m", "1",
                    "-o", tm])[0] == 0
        assert run(["verify", "tm", "--model", tm, "--graph", k3]) == (0, "OK\n", "")
        assert run(["solve", "sc", "--graph", k2, "--n", str(height), "-o", sc])[0] == 0
        assert run(["verify", "sc", "--sc", sc, "--graph", k2]) == (0, "OK\n", "")

    def test_writer_refuses_past_the_bound(self, tmp_path):
        k3 = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        k2 = write(tmp_path / "k2.g", graph_to_text(make_clique(2)))
        # the witness is serialized before the verdict, so a refusal leaves
        # stdout empty, in either format
        for argv in (["solve", "tm", "--graph", k3, "--d", "1250", "--m", "1"],
                     ["solve", "tmc", "--graph", k3, "--d", "1249", "--m", "1",
                      "--k", "3"],
                     ["solve", "sc", "--graph", k2, "--n", "1250"]):
            for fmt in ("text", "structured"):
                out = tmp_path / "w.json"
                code, stdout, err = run(["--format", fmt, *argv, "-o", str(out)])
                assert code == 2 and "nests deeper than 2500 levels" in err
                assert stdout == ""
                assert not out.exists()

    def test_reader_refuses_past_the_bound(self, tmp_path):
        k2 = write(tmp_path / "k2.g", graph_to_text(make_clique(2)))
        record = '{"vertex": 0}'
        for _ in range(1250):
            record = '{"X": [], "children": [%s]}' % record
        sc = write(tmp_path / "deep.sc", record)
        code, _, err = run(["verify", "sc", "--sc", sc, "--graph", k2])
        assert code == 2 and "SC-tree JSON nests deeper than 2500 levels" in err


# each command that writes a witness or an image with -o, on inputs where it
# succeeds; the file names are relative to the test's directory
WRITERS = {
    "solve tm": ["solve", "tm", "--graph", "k3.g", "--d", "1", "--m", "1"],
    "solve tmc": ["solve", "tmc", "--graph", "k3.g", "--d", "1", "--m", "1",
                  "--k", "3"],
    "solve sc": ["solve", "sc", "--graph", "k3.g", "--n", "1"],
    "solve td": ["solve", "td", "--graph", "k3.g"],
    "solve obstructions": ["solve", "obstructions", "--d", "1", "--m", "1",
                           "--max-n", "3"],
    "mso transduce": ["mso", "transduce", "--graph", "k3.g", "--mu", "edge(x, y)"],
}


class TestOutFiles:
    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "k3.g", graph_to_text(make_clique(3)))

    @pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS)
    def test_a_failed_write_leaves_stdout_empty(self, argv):
        # no caller may read a verdict whose witness was never written
        code, out, err = run([*argv, "-o", "nodir/x.out"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file or directory" in err

    @pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS)
    def test_stdout_is_the_verdict_then_the_file(self, tmp_path, argv):
        code, verdict, err = run([*argv, "-o", "w.out"])
        assert (code, err) == (0, "")
        written = (tmp_path / "w.out").read_text(encoding="utf-8")
        assert written and run(argv) == (0, verdict + written, "")


# each flag that names an input file, in a command that reads it after any
# valid input it also needs
READERS = {
    "--graph": ["solve", "nd", "--graph", "bad"],
    "--model": ["verify", "tm", "--model", "bad", "--graph", "k3.g"],
    "--sc": ["verify", "sc", "--sc", "bad", "--graph", "k3.g"],
    "--forest": ["verify", "td", "--forest", "bad", "--graph", "k3.g"],
    "--formula": ["mso", "parse", "--formula", "bad"],
    "--in": ["convert", "tm-eval", "--in", "bad"],
}


@pytest.mark.parametrize("argv", READERS.values(), ids=READERS)
def test_a_file_that_is_not_utf8_is_an_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
    (tmp_path / "bad").write_bytes(b"\xff\xfe\n")
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", "error: bad is not UTF-8 text\n")


class TestMso:
    def test_parse(self, tmp_path):
        f = write(tmp_path / "phi.mso", "ex1 x. ex1 y. edge(x, y)")
        code, out, _ = run(["mso", "parse", "--formula", f])
        assert code == 0 and out.splitlines()[0] == "OK"
        code, _, err = run(["mso", "parse", "--formula",
                            write(tmp_path / "bad.mso", "ex1 x edge(x, x)")])
        assert code == 2 and "error:" in err

    def test_check_true_false_error(self, tmp_path):
        g = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        f = write(tmp_path / "phi.mso", "all1 x. ex1 y. edge(x, y)")
        code, out, _ = run(["mso", "check", "--graph", g, "--formula", f])
        assert code == 0 and out.splitlines()[0] == "TRUE"
        g2 = write(tmp_path / "e2.g", graph_to_text(Graph(2)))
        code, out, _ = run(["mso", "check", "--graph", g2, "--formula", f])
        assert code == 1 and out.splitlines()[0] == "FALSE"
        open_f = write(tmp_path / "open.mso", "edge(x, y)")
        code, _, err = run(["mso", "check", "--graph", g, "--formula", open_f])
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("text", [
        "(" * 170 + "true" + ")" * 170,
        "!" * 1000 + "true",
        "ex1 x. " * 500 + "true",
        " & ".join(["true"] * 2000),
    ], ids=["parens-170", "not-1000", "ex1-500", "and-2000"])
    def test_check_refuses_deep_formulas(self, tmp_path, text):
        g = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        f = write(tmp_path / "deep.mso", text)
        code, out, err = run(["mso", "check", "--graph", g, "--formula", f])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "internal error" not in err
        assert "nests deeper" in err

    def test_interpret_complement(self, tmp_path):
        g = write(tmp_path / "p2.g", graph_to_text(make_path(2)))
        out_file = tmp_path / "c.g"
        code, _, _ = run(["mso", "interpret", "--graph", g,
                          "--mu", "!edge(x, y)", "-o", str(out_file)])
        assert code == 0
        got = graph_from_text(out_file.read_text(encoding="utf-8"))
        assert got == Graph(3, [(0, 2)])

    def test_transduce_matching(self, tmp_path):
        g = write(tmp_path / "e3.g", graph_to_text(Graph(3)))
        out_file = tmp_path / "m.g"
        code, out, _ = run(["mso", "transduce", "--graph", g,
                            "--mu", "rel_sim(x, y) & !(x = y)",
                            "--copies", "2", "-o", str(out_file)])
        assert code == 0 and out.splitlines()[0] == "DEFINED"
        got = graph_from_text(out_file.read_text(encoding="utf-8"))
        assert got == Graph(6, [(0, 3), (1, 4), (2, 5)])

    def test_transduce_undefined(self, tmp_path):
        g = write(tmp_path / "e2.g", graph_to_text(Graph(2)))
        code, out, _ = run(["mso", "transduce", "--graph", g,
                            "--mu", "edge(x, y)", "--chi", "false"])
        assert code == 1 and out.splitlines()[0] == "UNDEFINED"

    def test_transduce_labels(self, tmp_path):
        g = write(tmp_path / "p2.g", graph_to_text(make_path(2)))
        out_file = tmp_path / "h.g"
        code, out, _ = run(["mso", "transduce", "--graph", g,
                            "--nu", "label_A(x)", "--mu", "edge(x, y)",
                            "--label", "A=0,1", "-o", str(out_file)])
        assert code == 0 and out.splitlines()[0] == "DEFINED"
        assert graph_from_text(out_file.read_text(encoding="utf-8")) == make_path(1)


class TestReduceTree:
    def test_round_trip(self, tmp_path):
        from shrubkit.tree_model import (
            ColoredTree,
            RootedTree,
            colored_tree_from_text,
            colored_tree_to_text,
        )
        ct = ColoredTree(RootedTree([-1, 0, 0, 0, 0, 0]), [1, 2, 2, 2, 2, 2])
        src = write(tmp_path / "t.ct", colored_tree_to_text(ct))
        out_file = tmp_path / "r.ct"
        code, _, _ = run(["reduce-tree", "--in", src, "--thresholds", "2",
                          "--modulus", "1", "-o", str(out_file)])
        assert code == 0
        reduced = colored_tree_from_text(out_file.read_text(encoding="utf-8"))
        assert reduced.tree.n == 3

    def test_bad_thresholds(self, tmp_path):
        from shrubkit.tree_model import ColoredTree, RootedTree, colored_tree_to_text
        src = write(tmp_path / "t.ct",
                    colored_tree_to_text(ColoredTree(RootedTree([-1]), [1])))
        code, _, err = run(["reduce-tree", "--in", src, "--thresholds", "x,y",
                            "--modulus", "1"])
        assert code == 2 and "error:" in err


class TestStructuredOutput:
    def test_verdicts_are_single_line_json(self, tmp_path):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        code, out, _ = run(["--format", "structured", "solve", "tm",
                            "--graph", g_file, "--d", "1", "--m", "1",
                            "-o", str(tmp_path / "w.tm")])
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["verdict"] == "YES"
        assert record["depth"] == 1 and record["colors"] == 1

    def test_structured_nd(self, tmp_path):
        g_file = write(tmp_path / "p2.g", graph_to_text(make_path(2)))
        code, out, _ = run(["--format", "structured", "solve", "nd",
                            "--graph", g_file])
        assert code == 0
        assert json.loads(out.splitlines()[0])["verdict"] == "ND 2"

    def test_structured_mso_parse(self, tmp_path):
        f = write(tmp_path / "phi.mso", "ex2 X. mod(0, 2, X)")
        code, out, _ = run(["--format", "structured", "mso", "parse",
                            "--formula", f])
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["verdict"] == "OK"
        assert record["quantifiers"] == 1 and record["mod_lcm"] == 2


class TestCapsEnv:
    def test_defaults_are_the_module_constants(self):
        assert _CAP_NAMES == {
            "tm": solver.DEFAULT_TM_CAP,
            "sc": solver.DEFAULT_SC_CAP,
            "td": depth.DEFAULT_TD_CAP,
            "path-model": constructions.DEFAULT_PATH_MODEL_CAP,
            "mso-vertices": mso.DEFAULT_VERTEX_CAP,
            "mso-set-quantifiers": mso.DEFAULT_SET_QUANTIFIER_CAP,
        }

    def test_tm_cap_override(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        monkeypatch.setenv("SHRUBKIT_CAPS", "tm=2")
        code, _, err = run(["solve", "tm", "--graph", g_file, "--d", "1",
                            "--m", "1"])
        assert code == 2 and "error:" in err

    def test_tm_past_the_recursion_limit(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "e1100.g", graph_to_text(Graph(1100)))
        monkeypatch.setenv("SHRUBKIT_CAPS", "tm=2000")
        code, out, err = run(["solve", "tm", "--graph", g_file, "--d", "1",
                              "--m", "1"])
        assert (code, err) == (0, "") and out.startswith("YES")

    def test_mso_cap_override(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        f = write(tmp_path / "phi.mso", "true")
        monkeypatch.setenv("SHRUBKIT_CAPS", "mso-vertices=2")
        code, _, err = run(["mso", "check", "--graph", g_file, "--formula", f])
        assert code == 2 and "error:" in err
        monkeypatch.setenv("SHRUBKIT_CAPS", "mso-vertices=3")
        code, out, _ = run(["mso", "check", "--graph", g_file, "--formula", f])
        assert code == 0 and out.splitlines()[0] == "TRUE"

    def test_unknown_name_rejected(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k1.g", graph_to_text(Graph(1)))
        monkeypatch.setenv("SHRUBKIT_CAPS", "bogus=1")
        code, _, err = run(["solve", "nd", "--graph", g_file])
        assert code == 2 and "SHRUBKIT_CAPS" in err

    def test_non_integer_rejected(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k1.g", graph_to_text(Graph(1)))
        monkeypatch.setenv("SHRUBKIT_CAPS", "tm=big")
        code, _, err = run(["solve", "nd", "--graph", g_file])
        assert code == 2 and "integer" in err

    def test_negative_rejected(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        monkeypatch.setenv("SHRUBKIT_CAPS", "tm=-3")
        code, out, err = run(["solve", "tm", "--graph", g_file, "--d", "1",
                              "--m", "1"])
        assert (code, out) == (2, "")
        assert err == "error: SHRUBKIT_CAPS value for tm must be at least 0, got -3\n"

    def test_zero_set_quantifiers_means_first_order(self, tmp_path, monkeypatch):
        g_file = write(tmp_path / "k3.g", graph_to_text(make_clique(3)))
        first_order = write(tmp_path / "fo.mso", "all1 x. ex1 y. edge(x, y)")
        monadic = write(tmp_path / "mso.mso", "ex2 X. true")
        monkeypatch.setenv("SHRUBKIT_CAPS", "mso-set-quantifiers=0")
        assert run(["mso", "check", "--graph", g_file, "--formula", first_order]) \
            == (0, "TRUE\n", "")
        code, out, err = run(["mso", "check", "--graph", g_file, "--formula", monadic])
        assert (code, out) == (2, "")
        assert err == "error: set quantifier nesting cap is 0, got 1\n"
