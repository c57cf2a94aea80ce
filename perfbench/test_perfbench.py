"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Not part of the tier-1 suite (pyproject's testpaths names only tests/).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT)]

import workloads  # noqa: E402
from shrubkit import cli  # noqa: E402
from shrubkit.graph import graph_from_text  # noqa: E402
from shrubkit.mso import parse_formula  # noqa: E402
from tests.helpers import (  # noqa: E402
    naive_sc_member_2,
    naive_tm_membership,
    reference_evaluate,
)


def _python(code, env=None):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_wraps_every_binding_and_counts_canonical_forms():
    out = _python(f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(BENCH)!r}]
import shrubkit.cli
from shrubkit import mso, solver
from tracer import Tracer
t = Tracer().install()
wrapped = [f.__wrapped__ is not None for f in
           (solver.canonical_form, shrubkit.cli.evaluate, mso.interpret.evaluate,
            mso.transduce.apply_interpretation, shrubkit.canonical_form, mso.evaluate)]
solver.enumerate_graphs(5)
cold = t.calls["graph.canonical_form"]
solver.enumerate_graphs(5)
print(json.dumps([t.unwrapped_bindings(), wrapped, cold,
                  t.calls["graph.canonical_form"] - cold]))
""")
    unwrapped, wrapped, cold, warm = json.loads(out)
    assert unwrapped == []
    assert all(wrapped)
    assert cold == 1 + 2 + 8 + 32 + 176
    assert warm == 0


def _write(files, where):
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")


def _cli_rc(argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def test_pinned_verdicts_match_oracles(tmp_path, monkeypatch):
    """Verdicts small enough for the naive oracles of tests/helpers.py."""
    monkeypatch.chdir(tmp_path)
    checked = 0
    for name in workloads.WORKLOADS:
        files, cmds = workloads.build(name, 0)
        _write(files, tmp_path)
        for cmd in cmds:
            argv = cmd.argv
            opts = dict(zip(argv[2::2], argv[3::2]))
            if argv[:2] == ("mso", "check"):
                g = graph_from_text(files[opts["--graph"]])
                truth = reference_evaluate(g, parse_formula(files[opts["--formula"]]))
                assert cmd.rc == (0 if truth else 1), argv
            elif argv[:2] == ("solve", "sc") and opts["--n"] == "2":
                g = graph_from_text(files[opts["--graph"]])
                rc = cmd.rc if cmd.rc is not None else _cli_rc(argv)
                assert rc == (0 if naive_sc_member_2(g, 2) else 1), argv
            elif argv[:2] == ("solve", "tm") and opts["--d"] == "2":
                g = graph_from_text(files[opts["--graph"]])
                truth = naive_tm_membership(g, 2, int(opts["--m"]))
                assert _cli_rc(argv) == (0 if truth else 1), argv
            else:
                continue
            checked += 1
    assert checked >= 30


def _traced_pass(workload, hash_seed, workdir):
    workdir.mkdir()
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    env.pop("SHRUBKIT_CAPS", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src"), str(workdir),
         workload, "0", "1", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
        capture_output=True, text=True, env=env, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_across_hash_seeds(workload, tmp_path):
    first = _traced_pass(workload, 1, tmp_path / "a")
    second = _traced_pass(workload, 2, tmp_path / "b")
    for result in (first, second):
        assert [c["problem"] for c in result["commands"] if c["problem"]] == []
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("self_s")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(first["commands"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tm-search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
