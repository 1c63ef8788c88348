"""Closed-loop benchmark of the bsdkit CLI, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one job at a time through ``bsdkit.cli.main(argv)``, with
stdout captured, in whole rounds of the workload's job list for at most S
seconds (at least one round).  No thread or subprocess runs while jobs are timed.
Every output is then checked (checks.py) and one JSON object is printed as
the last line of stdout.  With --trace 0 it holds the end-to-end metrics,
times in reference seconds (hostclock.py); with --trace 1 the jobs run
under the outside-in tracer (tracing.py) and it holds the per-layer
metrics, each per round.  Metric names and units come from BENCHMARK.json
at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks      # noqa: E402
import hostclock   # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_SAMPLES = 5
SETUP_REF_BURST = 20


def require_sources():
    """Exit with an error unless the bsdkit sources and fixtures are here."""
    needed = [os.path.join(ROOT, "src", "bsdkit", "cli.py"),
              os.path.join(ROOT, workloads.G2_MODEL),
              os.path.join(ROOT, workloads.G2_MATRIX),
              os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(missing)}; run from a "
                 "checkout of the repository")


def import_cli():
    """bsdkit.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bsdkit.cli
    if not os.path.abspath(bsdkit.cli.__file__).startswith(ROOT):
        sys.exit(f"perfbench: imported bsdkit from {bsdkit.cli.__file__}, "
                 "not from this checkout")
    return bsdkit.cli


def setup(workload, seed, work):
    """What a fresh process does before its first job: import the CLI and
    write the generated inputs."""
    cli = import_cli()
    jobs = workloads.make_jobs(workload, seed, ROOT)
    workloads.write_inputs(jobs, work)
    return cli, jobs


def measure_setup(workload, seed, samples=SETUP_SAMPLES):
    """Median wall time of `samples` fresh interpreters doing setup(), and
    the host's scale (reference seconds per wall second) from bursts of
    the reference loop before, between and after them."""
    times = []
    scales = [hostclock.burst(SETUP_REF_BURST)]
    for i in range(samples):
        work = os.path.join(RUNS_DIR, f"setup-{os.getpid()}-{i}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
                work, "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode:
            sys.exit(f"perfbench: setup failed:\n{proc.stderr}")
        scales.append(hostclock.burst(SETUP_REF_BURST))
    return statistics.median(times), statistics.fmean(scales)


def run_job(cli, argv, clock=None):
    """One CLI call: (exit code, stdout, stderr, wall seconds, start, end).

    The heap is collected first, outside the timed interval: a CLI call
    normally starts in a fresh process, not after another job's garbage.
    With a host clock, the time its samples take during the call is not
    counted in the wall seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    spent = clock.spent if clock else 0.0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:        # argparse refuses the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                # a crash is a failed job
            traceback.print_exc()
            code = -1
    t1 = time.perf_counter()
    dt = t1 - t0 - (clock.spent - spent if clock else 0.0)
    return code, out.getvalue(), err.getvalue(), dt, t0, t1


def timed_rounds(cli, jobs, seconds, clock=None):
    """Whole rounds of the job list for at most `seconds` (at least one).

    A new round starts only if a round of the mean length so far would end
    within `seconds`.  With a host clock, each result ends with the job's
    time in reference seconds, from the samples around it once the rounds
    are done, so that those after it count too; without one, None.
    """
    raw = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            for _ in range(job.repeat):
                raw.append((i,) + run_job(cli, job.argv, clock))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > seconds:
            break
    return [r[:5] + ((r[4] * clock.scale(r[5], r[6]) if clock else None),)
            for r in raw], rounds


def reference_cp(job):
    """c_p under a non-trivial Frobenius, by coset enumeration (the
    program's brute-force oracle), with the group order checked against
    the spanning-tree count."""
    from bsdkit.compgroup import (Component, SpecialFibre,
                                  brute_force_component_group)
    (name, doc), = job.files.items()
    blk = doc["special_fibre"]
    F = SpecialFibre(doc["p"],
                     [Component(c["id"], c["multiplicity"])
                      for c in blk["components"]],
                     blk["intersections"], blk["frobenius"])
    table = brute_force_component_group(F)
    order, factors = checks.spanning_tree_group(job.expect)
    if table.order != order or table.invariant_factors != factors:
        raise AssertionError(f"{job.cls}: oracle group {table.order} "
                             f"{table.invariant_factors} disagrees with "
                             f"the spanning-tree count {order} {factors}")
    return table.fixed_point_count


def check_results(jobs, results):
    """(failed count, problems): every output against its reference."""
    for job in jobs:
        if job.kind == "tamagawa" and job.expect["frob"] != "trivial":
            job.expect["c_p"] = reference_cp(job)
    base_matrix = None
    if any(job.kind == "period" for job in jobs):
        with open(os.path.join(ROOT, workloads.G2_MATRIX)) as fh:
            base_matrix = json.load(fh)
    failed = 0
    problems = []
    verdicts = {}
    for i, code, out, err, *_ in results:
        job = jobs[i]
        if code != 0:
            failed += 1
            key = (i, "failed")
            if key not in verdicts:
                verdicts[key] = True
                print(f"perfbench: failed (exit {code}): {job.describe()}\n"
                      f"  {err.strip()}", file=sys.stderr)
            continue
        key = (i, out)
        if key not in verdicts:
            verdicts[key] = checks.check_output(job.kind, out, job.expect,
                                                base_matrix)
            for msg in verdicts[key]:
                problems.append(f"{job.describe()}: {msg}")
    return failed, problems


def job_medians(jobs, results, col):
    """Each job's median across the rounds of result column `col`: one slow
    round of a short job does not move it."""
    values = [[] for _ in jobs]
    for r in results:
        values[r[0]].append(r[col])
    return [statistics.median(v) for v in values]


def geomean(values):
    """Every job weighs the same."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(values, units):
    if set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(values) ^ set(units))} "
                             "differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def write_trace(args, tracer, jobs, results, rounds, jobs_per_s, metrics):
    """Per-job spans and every counter, kept in memory until now."""
    spans = []
    for i, code, _, _, dt, _ in results:
        spans.append({"job": jobs[i].cls, "exit": code, "s": dt})
    doc = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "traced_jobs_per_s": jobs_per_s,
        "per_layer": {k: v["value"] for k, v in metrics.items()},
        "calls": dict(tracer.calls),
        "inclusive_s": dict(tracer.incl),
        "self_s": dict(tracer.self_s),
        "jobs": spans,
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"perfbench: trace written to {path}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    require_sources()
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        return 0

    e2e_units, layer_units = declared_metrics()
    if not args.trace:
        setup_wall, setup_scale = measure_setup(args.workload, args.seed)
    work = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-"
                                  f"{os.getpid()}")
    try:
        cli, jobs = setup(args.workload, args.seed, work)
        # the host clock and the tracer would each count the other's time
        tracer = tracing.Tracer() if args.trace else None
        clock = None if args.trace else hostclock.HostClock()
        if tracer:
            tracer.install()
        else:
            clock.start()
        try:
            results, rounds = timed_rounds(cli, jobs, args.seconds, clock)
        finally:
            if tracer:
                tracer.uninstall()
            else:
                clock.stop()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = check_results(jobs, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in problems[:20]:
        print(f"perfbench: wrong output: {msg}", file=sys.stderr)

    attempted = len(results)
    job_s = sum(r[4] for r in results)
    wall = job_medians(jobs, results, 4)
    print(f"perfbench: {rounds} rounds, wall time: "
          f"{attempted / job_s:.4f} jobs/s, job geomean {geomean(wall):.4f} s"
          + (f", set-up {setup_wall:.4f} s" if clock else ""),
          file=sys.stderr)
    if tracer:
        metrics = with_units(
            tracing.layer_metrics(tracer, rounds, layer_units), layer_units)
        write_trace(args, tracer, jobs, results, rounds, attempted / job_s,
                    metrics)
    else:
        ref_s = sum(r[5] for r in results)
        print(f"perfbench: {len(clock.samples)} reference samples, "
              f"reference seconds per wall second {ref_s / job_s:.4f} in "
              f"jobs, {setup_scale:.4f} in set-up", file=sys.stderr)
        metrics = with_units({
            "jobs_per_s": attempted / ref_s,
            "job_geomean_s": geomean(job_medians(jobs, results, 5)),
            "setup_s": setup_wall * setup_scale,
            "peak_rss_mb": peak_rss_mb}, e2e_units)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
