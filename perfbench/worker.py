"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SRC WORKDIR WORKLOAD SEED TRACE SPAWNED_AT

SRC is the checkout's `src` directory and WORKDIR an empty directory the
pass may write to.  SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just
before it started this interpreter, so set-up time covers interpreter start,
`import shrubkit` and writing the input files.  The commands then run one
after another through `shrubkit.cli.main`, each timed on its own; `pass_s` is
the sum.  Between commands, outside those timings, `reference_work()` is
timed every PROBE_EVERY_S seconds of command time and once at each end;
`ref_s` is the mean.  Output checks, digests and the result line come
afterwards.  The result is one JSON object on the last line of standard
output.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _command_key(argv):
    """Names the command and every file it reads, so equal keys mean equal input.

    Read after the pass: no command overwrites a file, so the inputs are
    still as the command saw them."""
    out = _out_file(argv)
    h = hashlib.sha256(json.dumps(argv).encode())
    for token in argv:
        if token != out and os.path.isfile(token):
            with open(token, "rb") as fh:
                h.update(token.encode() + b"\0" + fh.read())
    return h.hexdigest()


# How often the reference computation is timed during a pass, in seconds of
# command time.
PROBE_EVERY_S = 0.1


def reference_work():
    """A fixed pure-Python computation that never touches shrubkit.

    Timed between commands, it tracks how fast this machine runs Python at
    that moment: dict and set traffic on small tuples, sorting, short lists
    and calls, the mix the solvers spend their time in.  About 30 ms.
    """
    table = {}
    acc = 0
    for i in range(14000):
        key = (i % 61, i % 7, i & 31)
        table[key] = table.get(key, 0) + 1
        cell = sorted({i % 11, i % 13, i % 17, i % 19})
        acc += cell[0] + len(cell) + max(divmod(i, 9))
    return acc + len(table)


def _time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _out_file(argv):
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def main():
    src, workdir, workload, seed, trace, spawned_at = sys.argv[1:]
    sys.path.insert(0, src)
    from shrubkit import cli  # import time belongs to set-up

    import workloads

    files, cmds = workloads.build(workload, int(seed))
    os.chdir(workdir)
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer().install()
    main_fn = cli.main  # read after install, which rebinds it

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned_at)

    runs = []
    clock = time.perf_counter
    probes = [_time_reference()]
    since_probe = 0.0
    for cmd in cmds:
        if since_probe >= PROBE_EVERY_S:
            probes.append(_time_reference())
            since_probe = 0.0
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main_fn(list(cmd.argv))
            raised = None
        except SystemExit as exc:
            rc, raised = exc.code, None
        except Exception as exc:  # the run goes on; the command counts as failed
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        took = clock() - start
        since_probe += took
        runs.append((took, rc, raised, out.getvalue(), err.getvalue()))
    probes.append(_time_reference())
    pass_s = sum(run[0] for run in runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else None

    results = []
    for cmd, (took, rc, raised, stdout, stderr) in zip(cmds, runs):
        problem = raised
        if problem is None and rc == 2:
            problem = f"exit 2: {stderr.strip()}"
        elif problem is None and rc not in ((0, 1) if cmd.rc is None else (cmd.rc,)):
            problem = f"exit {rc}, pinned {cmd.rc}"
        elif problem is None and cmd.check is not None:
            try:
                problem = cmd.check(rc, stdout)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        out_file = _out_file(cmd.argv)
        results.append({
            "key": _command_key(cmd.argv),
            "argv": " ".join(cmd.argv),
            "s": took,
            "problem": problem,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "out": _digest(out_file) if out_file else None,
        })

    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ref_s": statistics.mean(probes),
        "peak_rss_mb": peak_rss_mb,
        "commands": results,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
