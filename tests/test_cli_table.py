"""The command table: help bytes, repeat calls, the README and an argv fuzz."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from shrubkit import cli, constructions, lincw, make_path, sc_model, tree_model
from shrubkit.graph import graph_to_text

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    """(exit code, stdout, stderr) of one call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMAND_NAMES = [f"{group} {name}".strip() for group, name, *_ in cli._COMMANDS]


# argv -> first 16 hex digits of the SHA-256 of json.dumps([code, stdout,
# stderr]) for `argv --help` and for bare `argv`, taken before the parser
# was built from the command table, at COLUMNS=80
HELP_DIGESTS = {
    "": ("4398c3e27fa5e322", "ba818b216260eb90"),
    "generate": ("9babc894edccf3b8", "7706a4111b719f94"),
    "generate path": ("103dc1ebfd8c96a1", "8b78075f3043ef62"),
    "generate clique": ("7e02197883a1177f", "d1353348a45ea28f"),
    "generate biclique": ("a686e7ce88f200cf", "e1e906ee89af5861"),
    "generate subdivided-k33": ("105a786ee3255f94", "43d95c7f70db1559"),
    "generate path-model": ("0560adb6820acc32", "62aec7c6601749d0"),
    "generate clique-model": ("315412ce17a9442f", "79d0320227c9fc38"),
    "generate biclique-model": ("13197934caf4067c", "1acb6463e3eb071e"),
    "convert": ("a9c545f6032b4622", "02307ffe922c09c8"),
    "convert tm-to-sc": ("90060ecdd13edccd", "ed46efa54955f5ed"),
    "convert sc-to-tm": ("f6aa699929a909c1", "800fb5cde5c7c45c"),
    "convert tm-to-lincw": ("ca45fb89fdc5be88", "350adb8021ed737f"),
    "convert sc-eval": ("f486c71a67cd54c7", "62b6d3c942e7e06c"),
    "convert tm-eval": ("272a74992cf28574", "af6ffbe72683479f"),
    "convert lincw-eval": ("6aeaf4726caed1b9", "d4d1b757d2f01983"),
    "convert td-to-tm": ("045c54c7a3375f63", "ef8c53eb121f1f58"),
    "solve": ("77ed5f47c8fd2416", "4734f94df34640f7"),
    "solve tm": ("1c30130a84f6cbf8", "4df9d171fede7a94"),
    "solve tmc": ("c606ff6e7df3fd2c", "b5a1fc5a13e79d6d"),
    "solve sc": ("01672a4145c71a1d", "bbd555a86ee8da6d"),
    "solve td": ("44ce78db89dfae1d", "554bcf636d35aefc"),
    "solve nd": ("9c221070fa702554", "a948a6a9c285c19e"),
    "solve obstructions": ("7a0d88764287f8a0", "e88ac665ca061544"),
    "verify": ("38a7429ab770f748", "7264574254209750"),
    "verify tm": ("41806b596ca968e9", "e7ee131ce414ea8a"),
    "verify sc": ("aed2702843b89dbb", "32be1efadc26ceb5"),
    "verify td": ("e147026ed37b6924", "093b8dcbb859ea3f"),
    "verify kcopied": ("c74ac87cbb18a3b0", "4f9ad645de018bd1"),
    "mso": ("5ee2ea61c31ef58e", "7c0afa1ab5607301"),
    "mso parse": ("514aed816f40334c", "808bb4ebfe9db7bc"),
    "mso check": ("b94b8cc1c88a0cc5", "c63a5f41eec110b8"),
    "mso interpret": ("522ddabce412d509", "5bbb0c2d1fe0d8af"),
    "mso transduce": ("03c32566ea355daa", "13a63d058371653f"),
    "reduce-tree": ("3b73f40129130c1c", "ae51c5414408ae25"),
}


def _digest(argv):
    blob = json.dumps(run(argv)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# argparse lays out help differently in other CPython minor versions
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests pin the argparse layout of CPython 3.11")
def test_help_and_usage_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SHRUBKIT_CAPS", raising=False)
    assert len(HELP_DIGESTS) == 35
    assert set(COMMAND_NAMES) <= set(HELP_DIGESTS)
    got = {key: (_digest(key.split() + ["--help"]), _digest(key.split()))
           for key in HELP_DIGESTS}
    assert got == HELP_DIGESTS


# the reverse order asks for each command's help before its group's, so a
# group whose listing grew a line when a command's parser was built fails it
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests pin the argparse layout of CPython 3.11")
def test_help_bytes_hold_when_commands_are_built_first(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SHRUBKIT_CAPS", raising=False)
    cli._build_parser.cache_clear()
    for key in reversed(HELP_DIGESTS):
        got = (_digest(key.split() + ["--help"]), _digest(key.split()))
        assert got == HELP_DIGESTS[key], key


def test_help_lists_commands_in_table_order():
    assert "{generate,convert,solve,verify,mso,reduce-tree}" in run(["--help"])[1]
    assert ("{tm-to-sc,sc-to-tm,tm-to-lincw,sc-eval,tm-eval,lincw-eval,td-to-tm}"
            in run(["convert", "--help"])[1])


def test_usage_errors_name_the_group_dest():
    assert run(["convert"])[2].endswith("required: how\n")
    for group in ("generate", "solve", "verify", "mso"):
        code, out, err = run([group])
        assert code == 2 and out == "" and err.endswith("required: what\n")


def test_repeat_calls_give_the_same_bytes(tmp_path):
    """Two calls in one process share no parser state."""
    g = tmp_path / "p2.g"
    g.write_text(graph_to_text(make_path(2)), encoding="utf-8")
    transduce = ["mso", "transduce", "--graph", str(g), "--copies", "2",
                 "--mu", "label_p(x) & !(x = y)"]
    labelled = transduce + ["--label", "p=0,2"]
    nd = ["solve", "nd", "--graph", str(g)]
    for first, second in ((labelled, transduce),
                          (["--format", "text"] + nd, ["--format", "structured"] + nd)):
        runs = [run(argv) for argv in (first, second, first, second)]
        assert runs[0] == runs[2] and runs[1] == runs[3]
        assert runs[0] != runs[1]
        assert all(code in (0, 1) for code, _, _ in runs)


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_a_call_builds_only_the_parsers_on_its_path(tmp_path, monkeypatch):
    """A valid call is read from the command table and builds no parser;
    help builds the whole table's parser, 35 in all, and prints its pinned
    bytes."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    g = tmp_path / "p3.g"
    g.write_text(graph_to_text(make_path(3)), encoding="utf-8")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    assert run(["solve", "nd", "--graph", str(g)])[0] == 0
    assert run(["solve", "tm", "--graph", str(g), "--d", "2", "--m", "2"])[0] == 0
    assert built == []
    help_digest = _digest(["reduce-tree", "--help"])
    assert len(built) == 35 and "shrubkit reduce-tree" in built
    if sys.version_info[:2] == (3, 11):
        assert help_digest == HELP_DIGESTS["reduce-tree"][0]
    assert run(["solve", "nd", "--graph", str(g)])[0] == 0
    assert len(built) == 35


def test_a_valid_call_does_not_import_argparse(tmp_path):
    g = tmp_path / "p3.g"
    g.write_text(graph_to_text(make_path(3)), encoding="utf-8")
    code = ("import sys; from shrubkit import cli; "
            "cli.main(['solve', 'nd', '--graph', sys.argv[1]]); "
            "print('argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(g)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "ND 4\nFalse\n"


FRESH_MAIN = "import sys; from shrubkit import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_refusals_and_help_leave_the_parser_as_built(tmp_path, monkeypatch):
    """After argparse refuses a call and after --help, a valid call prints
    what it prints in a fresh process."""
    monkeypatch.delenv("SHRUBKIT_CAPS", raising=False)
    g = tmp_path / "p3.g"
    g.write_text(graph_to_text(make_path(3)), encoding="utf-8")
    transduce = ["mso", "transduce", "--graph", str(g), "--copies", "2",
                 "--mu", "label_p(x) & !(x = y)"]
    valid = [transduce, ["--format", "structured", "solve", "td", "--graph", str(g)]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = []
    for argv in valid:
        done = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], env=env,
                              capture_output=True, text=True, check=False)
        fresh.append((done.returncode, done.stdout, done.stderr))
    # the refused call has already appended to --label when --copies fails
    refused = run(transduce[:-4] + ["--label", "p=0,2", "--copies", "two"])
    assert refused[0] == 2 and "invalid int value" in refused[2]
    assert run(["mso", "transduce", "--help"])[0] == 0
    assert [run(argv) for argv in valid] == fresh


def test_malformed_label_is_an_error(tmp_path):
    g = tmp_path / "p2.g"
    g.write_text(graph_to_text(make_path(2)), encoding="utf-8")
    for label, message in (("p=x", "bad vertex list"), ("=1", "want NAME=")):
        code, out, err = run(["mso", "transduce", "--graph", str(g), "--mu", "true",
                              "--label", label])
        assert code == 2 and out == "" and message in err


def test_readme_lists_exactly_the_registered_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("Subcommands:", 1)[1].split("\n\n")[1]
    listed = set()
    for row in table.splitlines()[2:]:
        group, _, leaves = row.split("`")[1].partition(" {")
        if leaves:
            listed |= {f"{group} {leaf}" for leaf in leaves.rstrip("}").split(",")}
        else:
            listed.add(group)
    assert listed == set(COMMAND_NAMES)


# ---------------------------------------------------------------------------
# argv fuzz: every command the table registers, its options present, missing,
# repeated or malformed, over small valid and malformed input files


def _valid_inputs():
    model = constructions.clique_model(2)
    return {
        "graph": {
            "p3.g": graph_to_text(make_path(3)),
            "k3.g": graph_to_text(constructions.make_clique(3)),
            "one.g": "1\n",
            "empty.g": "0\n",
            "labelled.g": "2\n0 1\nlabel 0 p\n",
        },
        "model": {
            "k2.tm": tree_model.model_to_text(model),
            "path.tm": tree_model.model_to_text(constructions.path_model(1)),
        },
        "sc": {"k2.sc": sc_model.sc_to_text(sc_model.tm_to_sc(model))},
        "forest": {"p2.f": "0 1\n1 -1\n2 1\n"},
        "lincw": {"k2.lcw": lincw.lincw_to_text(lincw.tm_to_lincw(model))},
        "ctree": {
            "bush.ct": '{"color": 1, "children": [{"color": 2}, {"color": 2}]}',
        },
        "formula": {
            "edge.mso": "ex1 x. ex1 y. edge(x, y)",
            "even.mso": "all2 X. (mod(0, 2, X) | mod(1, 2, X))",
            "label.mso": "ex1 x. label_p(x)",
        },
    }


VALID = _valid_inputs()
MALFORMED = {
    "bad-edge.g": "2\n0 5\n",
    "negative.g": "-1\n",
    "shallow.tm": '{"depth": 1}',
    "gap.sc": '{"X": [0, 2], "children": [{"vertex": 0}, {"vertex": 2}]}',
    "loop.f": "0 0\n",
    "bad.lcw": "E 1 1\nQ\n",
    "free.mso": "edge(x, y)",
    "open.mso": "((",
    "blank": "",
    "text": "not an input\n",
    "binary.bin": b"\x00\xff",  # not UTF-8, so written as bytes
}
FILES = {**MALFORMED, **{name: text for kind in VALID.values()
                         for name, text in kind.items()}}


_any_file = sorted(FILES)
_formulas = ["(", "", "edge(x)", "rel_(x, y)", "x in X", "mod(1, 2, X)",
             "ex1 x. edge(x, y)"]
# option dest -> (valid values, malformed values)
VALUES = {
    **{kind: (sorted(files), _any_file) for kind, files in VALID.items()},
    "out": (["out.txt"], [".", "missing/out.txt", ""]),
    "model_out": (["model.tm"], ["."]),
    "nu": (["true", "ex1 z. edge(x, z)", "!label_p(x)"], _formulas),
    "mu": (["edge(x, y)", "!(x = y)", "label_p(x) & label_p(y)", "true"], _formulas),
    "chi": (["true", "ex1 x. true", "all1 x. false"], _formulas),
    "label": (["p=0,1", "p=", "q=2"], ["=1", "p", "p=x", "p=0,9", "p=-1"]),
    "thresholds": (["1", "1,2", "0,0,0"], ["", "a", "-1", "1,,2"]),
}
# --in reads the kind of file its command's name says
IN_KINDS = {"tm-to-sc": "model", "sc-to-tm": "sc", "tm-to-lincw": "model",
            "sc-eval": "sc", "tm-eval": "model", "lincw-eval": "lincw",
            "reduce-tree": "ctree"}
INTS = (["1", "2", "0", "3", "4", "-1"], ["", "x", "1.5", "-", "2e3"])
JUNK = ["", "x", "-1", "0", "--", *_any_file]
EXTRA_FLAGS = sorted({flag for *_, arguments, _, _ in cli._COMMANDS
                      for flags, _ in arguments for flag in flags}
                     | {"--bogus", "--format"})


def _dest(flags, options):
    return options.get("dest") or flags[-1].lstrip("-").replace("-", "_")


def _percent(draw, chance):
    return draw(st.integers(0, 99)) < chance


@st.composite
def argvs(draw, command):
    """An argv for `command` with at most one option malformed, so that the
    fault reaches the code that reads it; now and then an option is missing
    or repeated, or a stray token is added."""
    group, name, arguments, _, _ = command
    argv = []
    if _percent(draw, 20):
        argv += ["--format", draw(st.sampled_from(["text", "structured", "json"]))]
    argv += [group, name] if group else [name]
    faulty = draw(st.integers(0, len(arguments)))  # len(arguments): none
    for i, (flags, options) in enumerate(arguments):
        if options.get("type") is int:
            valid, malformed = INTS
        elif flags == ("--in",):
            valid, malformed = VALUES[IN_KINDS[name]]
        else:
            valid, malformed = VALUES[_dest(flags, options)]
        times = 0 if _percent(draw, 5) else 2 if _percent(draw, 5) else 1
        for _ in range(times):
            value = draw(st.sampled_from(malformed if i == faulty else valid))
            argv += [draw(st.sampled_from(flags)), value]
    if _percent(draw, 10):
        argv += [draw(st.sampled_from(EXTRA_FLAGS)), draw(st.sampled_from(JUNK))]
    if _percent(draw, 5):
        argv.append(draw(st.sampled_from(JUNK)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    where = tmp_path_factory.mktemp("argv-fuzz")
    for name, text in FILES.items():
        if isinstance(text, bytes):
            (where / name).write_bytes(text)
        else:
            (where / name).write_text(text, encoding="utf-8")
    return where


# seven examples for each of the 29 commands, about 200 in all
@pytest.mark.parametrize("command", cli._COMMANDS, ids=COMMAND_NAMES)
@settings(max_examples=7, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz_keeps_the_exit_code_contract(workdir, monkeypatch, command, data):
    argv = data.draw(argvs(command), label="argv")
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("SHRUBKIT_CAPS", raising=False)
    code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "internal error:" not in err, (argv, err)


# ---------------------------------------------------------------------------
# the table path against argparse: a namespace it returns must be argparse's


def _argparse_fields(argv):
    """vars() of argparse's namespace for argv, or None if argparse refuses it."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_the_table_path_reads_an_argv_as_argparse_does():
    counts = {"read": 0, "accepted": 0}

    # four argvs for each of the 29 commands in each example; the failing
    # argv is in the message, and shrinking 116 draws would take minutes
    @settings(max_examples=10, deadline=None, database=None, derandomize=True,
              phases=[Phase.generate])
    @given(data=st.data())
    def compare(data):
        for command in cli._COMMANDS:
            for _ in range(4):
                argv = data.draw(argvs(command), label="argv")
                table = cli._table_args(argv)
                fields = _argparse_fields(argv)
                counts["accepted"] += fields is not None
                if table is not None:
                    counts["read"] += 1
                    assert vars(table) == fields, argv

    compare()
    # argparse also accepts a value starting with "-" or an empty one, which
    # the table path leaves to it
    assert counts["read"] >= 0.75 * counts["accepted"], counts


# spellings argparse reads or refuses that the table path must leave to it
LEFT_TO_ARGPARSE = [
    ["solve", "nd", "--gra", "p3.g"],
    ["solve", "nd", "--graph=p3.g"],
    ["generate", "path", "--length", "3", "-oout.txt"],
    ["solve", "nd", "--", "--graph", "p3.g"],
    ["solve", "nd", "--graph", "p3.g", "--"],
    ["solve", "tm", "--graph", "p3.g", "--d", "-1", "--m", "2"],
    ["solve", "nd", "--graph", "-"],
    ["solve", "nd", "--graph", ""],
    ["solve", "nd", "--graph", "p3.g", "--format", "text"],
    ["--format", "text", "--format", "structured", "solve", "nd", "--graph", "p3.g"],
    ["solve", "nd", "--graph", "p3.g", "--help"],
    ["solve", "tm", "--graph", "p3.g", "--d", "2"],
    ["solve", "tm", "--graph", "p3.g", "--d", "two", "--m", "2"],
    ["solve", "nd"],
    ["solve"],
    [],
]


def test_other_spellings_are_left_to_argparse():
    for argv in LEFT_TO_ARGPARSE:
        assert cli._table_args(argv) is None, argv
    # a repeated append option is read, each time from an unshared default
    labelled = ["mso", "transduce", "--graph", "p3.g", "--mu", "true",
                "--label", "p=0", "--label", "q=1"]
    for _ in range(2):
        assert vars(cli._table_args(labelled)) == _argparse_fields(labelled)
    assert cli._table_args(labelled).label == ["p=0", "q=1"]
