"""Benchmark of the quatperiods CLI: cold processes, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is a fresh
`python -m quatperiods.cli ...` process started from an empty temporary
directory with QUATPERIODS_CACHE unset, one at a time, because CLI users pay
the cold lru_caches on every call.  A pass runs the workload's jobs back to
back; whole passes repeat until S seconds have gone, and there is always at
least one.  Every output goes through the correctness gate in checks.py.

--trace 0 prints the end-to-end metrics: wall_s (median pass time), setup_s
(median cold start: interpreter, `import quatperiods.cli` and ingest of the
shipped newforms, over several fresh processes) and peak_rss_mb (largest
max-RSS of any job process).  --trace 1 runs one untraced and one traced
pass and prints the per-layer metrics; the traced jobs run through
trace_child.py, which records spans from outside the package.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from pathlib import Path

from checks import failure, load_references
from spans import layer_totals
from workloads import LAYERS, WORKLOADS, jobs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
# No job runs past this many seconds after the run starts, so that the run
# ends within 180 s even if the program hangs.
RUN_LIMIT_S = 160.0
SETUP_CODE = ("import quatperiods.cli, quatperiods.lseries as l, "
              "quatperiods.newformdata as d; l.ingest(d.default_data_path())")

Child = namedtuple("Child", "code stdout stderr wall_s rss_mb trace")
JobResult = namedtuple("JobResult", "argv wall_s rss_mb failure trace")


def child_env():
    """The parent's environment without Python settings or the class-set cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "QUATPERIODS_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, deadline):
    """Run argv in a fresh empty directory; kill it at the monotonic deadline."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as cwd:
        out_path, err_path = Path(cwd, "stdout"), Path(cwd, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        trace_path = Path(cwd, "spans.json")
        trace = json.loads(trace_path.read_text()) \
            if trace_path.exists() else None
        return Child(proc.returncode, out_path.read_bytes(),
                     err_path.read_text(errors="replace"), wall,
                     usage.ru_maxrss / 1024, trace)


def run_pass(jobs, deadline, references, traced=False):
    """Run each job once, back to back, and check its output."""
    results = []
    for job in jobs:
        if time.monotonic() >= deadline:
            results.append(JobResult(job, 0.0, 0.0,
                                     "not started: run time limit", None))
            continue
        head = [str(BENCH / "trace_child.py")] if traced \
            else ["-m", "quatperiods.cli"]
        child = run_child([sys.executable, *head, *job], deadline)
        why = failure(job, child.code, child.stdout, references)
        if why and child.stderr:
            why += ": " + child.stderr.strip().splitlines()[-1]
        if traced and child.trace is None and why is None:
            why = "traced job wrote no spans"
        results.append(JobResult(job, child.wall_s, child.rss_mb, why,
                                 child.trace))
    return results


def tail_note(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}: no percentile has ten samples beyond it"
    pct = int(100 * (1 - 10 / n))
    return f"p{pct}={statistics.quantiles(samples, n=100)[pct - 1]:.4f} s (n={n})"


def end_to_end_metrics(setup_walls, passes):
    """wall_s, setup_s and peak_rss_mb of one run."""
    pass_walls = [sum(r.wall_s for r in results) for results in passes]
    return {
        "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "peak_rss_mb": {"value": max(r.rss_mb for results in passes
                                     for r in results), "unit": "MB"},
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics of a traced pass, with the untraced pass for overhead."""
    traced_ok = [r for r in traced if r.trace is not None]
    totals = {}
    hits = {}
    for result in traced_ok:
        for name, t in layer_totals(result.trace["spans"]).items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
        for name, count in result.trace["cache_hits"].items():
            hits[name] = hits.get(name, 0) + count
    empty = {"calls": 0, "self_s": 0.0, "count": 0, "distinct": 0}
    metrics = {}
    for layer in LAYERS:
        t = totals.get(layer.function, empty)
        for field in layer.fields:
            if field == "self_s":
                metric = {"value": t["self_s"], "unit": "s"}
            elif field == "cache_hits":
                metric = {"value": hits.get(layer.function, 0),
                          "unit": "count"}
            elif field in ("calls", "distinct"):
                metric = {"value": t[field], "unit": "count"}
            else:
                metric = {"value": t["count"], "unit": "count"}
            metrics[f"{layer.function}.{field}"] = metric
    traced_wall = sum(r.wall_s for r in traced)
    spanned = sum(end - start for result in traced_ok
                  for _, start, end, parent, _, _ in result.trace["spans"]
                  if parent < 0)
    metrics["trace.overhead_s"] = {
        "value": traced_wall - sum(r.wall_s for r in untraced), "unit": "s"}
    metrics["trace.unspanned_s"] = {"value": traced_wall - spanned,
                                    "unit": "s"}
    return metrics


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quatperiods" / "cli.py").is_file():
        print(f"error: no quatperiods sources under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    references = load_references()
    jobs = jobs_for(args.workload, args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, "
          f"git {git_sha()}")
    for job in jobs:
        print("#   quatperiods " + " ".join(job))

    setup_walls, setup_failed = [], 0
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_child([sys.executable, "-c", SETUP_CODE], deadline)
            setup_walls.append(probe.wall_s)
            setup_failed += probe.code != 0
    passes = []
    measure_start = time.monotonic()
    while True:
        passes.append(run_pass(jobs, deadline, references))
        now = time.monotonic()
        if args.trace or now - measure_start >= args.seconds \
                or now >= deadline:
            break
    if args.trace:
        passes.append(run_pass(jobs, deadline, references, traced=True))

    results = [r for results in passes for r in results]
    for r in results:
        status = "ok" if r.failure is None else f"FAILED ({r.failure})"
        print(f"#   {r.wall_s:9.4f} s {r.rss_mb:7.1f} MB  {status}  "
              + " ".join(r.argv))
    jobs_failed = sum(r.failure is not None for r in results)
    if args.trace:
        metrics = layer_metrics(passes[1], passes[0])
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [{"job": i, "argv": list(r.argv), **(r.trace or {})}
             for i, r in enumerate(passes[1])]))
        print(f"# spans written to {spans_path}")
    else:
        metrics = end_to_end_metrics(setup_walls, passes)
        pass_walls = [sum(r.wall_s for r in results) for results in passes]
        print(f"# wall_s median {metrics['wall_s']['value']:.4f} s over "
              f"{len(pass_walls)} passes; {tail_note(pass_walls)}")
        print(f"# setup_s median {metrics['setup_s']['value']:.4f} s over "
              f"{len(setup_walls)} cold starts")
        print(f"# peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"# jobs_failed {jobs_failed} of {len(results)} jobs; "
          f"{setup_failed} of {len(setup_walls)} cold starts failed")
    failed = jobs_failed + setup_failed
    attempted = len(results) + len(setup_walls)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
