"""Benchmark of the shrubkit CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn
    python3 perfbench/run.py --write-golden          # rebuild golden.json

Run from anywhere; it finds the checkout as the parent of this directory and
imports shrubkit from its `src`.  The load is a closed loop with one caller:
passes over the workload's command list run one after another, each in a
fresh interpreter (so module caches start cold, as for a user's command),
with `SHRUBKIT_CAPS` removed and its own scratch directory.  Passes start
until the next one would end after S seconds, with at least MIN_PASSES.

With --trace 0 the last line of output reports the end-to-end metrics of
BENCHMARK.json, each the median over the passes.  Times in `ref` units are
divided by the time of a fixed reference computation probed in the same
process (see worker.py), which cancels the drift in machine speed.  With --trace 1 untraced and
traced passes alternate; it reports the per-layer metrics of the traced
passes and the tracing overhead.  Either way every command's exit code,
witness and output digest is checked after the timed region: `failed` counts
commands that raised, exited 2, missed their pinned verdict or failed their
check, and `correct` is false if any did or any output differs from
golden.json (or, for commands not in it, between passes of this run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
# Every invocation must end within 180 s; stop starting passes well before.
HARD_LIMIT_S = 150

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload, seed, traced, workdir, timeout):
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "SHRUBKIT_CAPS"}
    spawned = _now()
    argv = [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src"), str(workdir),
            workload, str(seed), "1" if traced else "0", repr(spawned)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace, scratch):
    """Passes of one workload: {traced: [pass result, ...]}."""
    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    walls = []
    start = _now()
    while True:
        traced = kinds[len(walls) % len(kinds)]
        began = _now()
        timeout = HARD_LIMIT_S - (began - start)
        if timeout <= 0:
            raise BenchError(f"{workload}: fewer than {MIN_PASSES} passes fit in {HARD_LIMIT_S} s")
        passes[traced].append(
            run_pass(workload, seed, traced, scratch / f"pass-{len(walls)}", timeout))
        walls.append(_now() - began)
        elapsed = _now() - start
        if all(len(p) >= MIN_PASSES for p in passes.values()) and (
            elapsed + statistics.median(walls) > seconds
            or elapsed + max(walls) > HARD_LIMIT_S
        ):
            return passes


def load_golden():
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def check_outputs(all_passes, golden):
    """(attempted, failures, keys whose output differs from the reference)."""
    reference = dict(golden)
    attempted, failures, mismatched = 0, [], set()
    for result in all_passes:
        for cmd in result["commands"]:
            attempted += 1
            if cmd["problem"]:
                failures.append(f"{cmd['argv']}: {cmd['problem']}")
            seen = [cmd["stdout"], cmd["out"]]
            if reference.setdefault(cmd["key"], seen) != seen:
                mismatched.add(cmd["argv"])
    return attempted, failures, mismatched


def end_to_end(untraced):
    def max_cmd(p):
        return max(c["s"] for c in p["commands"])

    return {
        "setup_s": statistics.median([p["setup_s"] for p in untraced]),
        "pass_s": statistics.median([p["pass_s"] for p in untraced]),
        "max_cmd_s": statistics.median([max_cmd(p) for p in untraced]),
        "pass_ref": statistics.median([p["pass_s"] / p["ref_s"] for p in untraced]),
        "max_cmd_ref": statistics.median([max_cmd(p) / p["ref_s"] for p in untraced]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
    }


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    out = {name: statistics.median_low([p["layers"][name] for p in traced]) for name in names}
    out["trace.overhead_frac"] = (
        end_to_end(traced)["pass_ref"] / end_to_end(untraced)["pass_ref"] - 1)
    return out


def run_workload(workload, seed, seconds, trace, spec):
    scratch = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    try:
        passes = measure(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    untraced = passes[False]
    attempted, failures, mismatched = check_outputs(
        untraced + passes.get(True, []), load_golden())
    e2e = end_to_end(untraced)
    if trace:
        measured, declared = per_layer(untraced, passes[True]), spec["per_layer"]
    else:
        measured, declared = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    times = sorted(p["pass_s"] for p in untraced)
    print(f"# {workload} seed={seed}: {len(untraced)} untraced passes"
          + (f", {len(passes[True])} traced" if trace else "")
          + f", pass_s {times[0]:.3f}..{times[-1]:.3f} s"
          + " (no tail percentile: fewer than 20 passes leave none with 10 samples beyond)")
    print(f"# {workload}: setup_s={e2e['setup_s']:.4f} s  pass_s={e2e['pass_s']:.4f} s  "
          f"pass_ref={e2e['pass_ref']:.3f} ref  max_cmd_s={e2e['max_cmd_s']:.4f} s  "
          f"max_cmd_ref={e2e['max_cmd_ref']:.3f} ref  peak_rss_mb={e2e['peak_rss_mb']:.1f} MB  "
          f"fail_frac={len(failures) / attempted:.4f} ({len(failures)}/{attempted} commands)  "
          f"golden_mismatch={len(mismatched)} commands")
    for line in failures[:20] + [f"output differs: {argv}" for argv in sorted(mismatched)[:20]]:
        print(f"# {workload}: {line}")
    return {
        "correct": not failures and not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def write_golden():
    """Digest every command of every workload under the golden seeds."""
    digests = {}
    scratch = ROOT / ".perfbench_work" / f"golden-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            for seed in workloads.GOLDEN_SEEDS:
                result = run_pass(workload, seed, False, scratch / f"{workload}-{seed}",
                                  HARD_LIMIT_S)
                for cmd in result["commands"]:
                    if cmd["problem"]:
                        raise BenchError(f"{cmd['argv']}: {cmd['problem']}")
                    seen = [cmd["stdout"], cmd["out"]]
                    if digests.setdefault(cmd["key"], seen) != seen:
                        raise BenchError(f"{cmd['argv']}: output differs between seeds")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(BENCH / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(workloads.GOLDEN_SEEDS), "digests": digests}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} command digests")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    try:
        if not (ROOT / "src" / "shrubkit" / "__init__.py").is_file():
            raise BenchError(f"no shrubkit sources under {ROOT / 'src'}")
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
            print(json.dumps(result))
            return 0
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec)
                   for w in workloads.WORKLOADS}
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
