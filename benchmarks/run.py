"""rdwaves benchmark: closed-loop, single-client workloads through the public API.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30
    python3 benchmarks/run.py --workload front-velocity --seed 1 --profile 30

Run from the root of a checkout: rdwaves is imported from its ``src``
directory, never from an installed copy.  One process runs one workload:
whole passes over the seeded operation list, each operation timed on its
own and checked outside the timed region, for ``--seconds`` of wall time
and at least the workload's minimum number of passes.  Timings are brought
to a reference host speed measured between the operations (``hostref.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run that alternates untraced and traced passes and
reports its own overhead; metric names and units come from BENCHMARK.json.
``--profile N`` prints the cProfile top N of one pass instead.  The last line
on standard output is the result as JSON; the run record, per-operation
details and spans go to ``benchmarks/_out``.  See ``benchmarks/DESIGN.md``.
"""

import os

# single-threaded numerics: pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
# op_tail_ms percentile per workload, fixed so that a speed change cannot
# change which percentile is reported; the minimum passes leave at least 10
# ops beyond it (145, 8 and 18 ops a pass).  front-velocity uses p70: with 8
# ops a pass p75 falls exactly between the simulate run and the slower bell
# and generalized-fisher runs, and jumps between them from run to run
TAIL_PCT = {"verify-sweep": 95.0, "front-velocity": 70.0, "figures-emit": 90.0}
MIN_PASSES = {"verify-sweep": 4, "front-velocity": 6, "figures-emit": 6}
# how far op times follow the host-speed reference (hostref): the slope of
# pass time on reference time, measured over 150 s of alternating passes and
# references (1.03, 0.63, 1.02); a full correction overshoots on verify-sweep
ELASTICITY = {"verify-sweep": 0.6, "front-velocity": 1.0, "figures-emit": 1.0}
# fresh-process set-up probes; setup_s is the fastest, host-speed corrected,
# because a busy host only ever makes a probe slower
SETUP_PROBES = 8
WALL_CAP_S = 120.0  # no new pass starts after this much wall time


class BenchError(RuntimeError):
    pass


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def import_rdwaves():
    """Import the checkout's own rdwaves; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "rdwaves" / "__init__.py").is_file():
        raise BenchError(f"no rdwaves sources under {src}; run from a checkout of the repo")
    sys.path.insert(0, str(src))
    import rdwaves
    import rdwaves.cli  # noqa: F401  (the whole package, as a CLI user loads it)

    if Path(rdwaves.__file__).resolve().parent != (src / "rdwaves").resolve():
        raise BenchError(f"rdwaves imported from {rdwaves.__file__}, not from {src}")


def parse_args(workloads, argv=None):
    p = argparse.ArgumentParser(description="rdwaves benchmark")
    p.add_argument("--workload", required=True, choices=list(workloads) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="print the cProfile top N of one pass instead of measuring")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- measurement

def run_pass(ops, tracer=None, profiler=None, host=None):
    """One timed pass: [(latency_s, Outcome)] in op order.  With ``host``, the
    host-speed reference runs after each op, outside its timed region."""
    from workloads import Outcome

    results = []
    gc.collect()  # no collection of an earlier pass's garbage inside a timed op
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        error = ""
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            value = op.run()
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        if error:
            outcome = Outcome(False, error)
        else:
            try:
                if tracer is not None:
                    with tracer.pause():
                        outcome = op.check(value)
                else:
                    outcome = op.check(value)
            except Exception as exc:  # a check that cannot run is a failed op
                outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
        results.append((latency, outcome))
        if host is not None:
            host.sample(latency)
    return results


def pass_seconds(res):
    return sum(lat for lat, _ in res)


def probe_setup(args, count, host):
    """Process start to ready-for-first-op, in fresh processes; seconds each.
    The host-speed reference runs after each probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
        host.sample(elapsed)
    return times


def run_record(args):
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    commit = None  # a checkout that is not a git repository has none
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "kernel_rates": "computed points per second of self time; no bandwidth figures",
    }


def tail(latencies, pct):
    """(nearest-rank value at pct, number of ops beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def e2e_metrics(passes, hosts, setup_times, setup_host, tail_pct):
    """End-to-end metrics over every timed op, each pass's op times brought to
    the reference host speed by that pass's reference (``hostref``); the
    record keeps the raw figures."""
    scales = [host.correction for host in hosts]
    latencies = [c * lat for c, res in zip(scales, passes) for lat, _ in res]
    tail_s, beyond = tail(latencies, tail_pct)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup_host.correction * min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"op_tail_percentile": tail_pct, "op_count": len(latencies), "ops_beyond_tail": beyond,
        "host_corrections": scales, "setup_host_correction": setup_host.correction,
        "raw_ops_per_s": len(latencies) / sum(map(pass_seconds, passes)),
        "pass_s": [pass_seconds(res) for res in passes], "setup_probe_s": setup_times}


def trace_metrics(workload, tracer, setup_range, traced_ranges, ops, passes, traced):
    """Per-layer metrics of the traced set-up plus each traced pass, median over passes."""
    from tracing import layer_metrics, median_metrics

    n_figures = sum(op.kind == "figures" for op in ops)
    metrics = median_metrics([layer_metrics(tracer.spans, [setup_range, r], n_figures)
                              for r in traced_ranges])
    metrics["verify.disagreements"] = sum(bool(out.known) for _, out in traced[0])
    plain = statistics.median(map(pass_seconds, passes))
    with_spans = statistics.median(map(pass_seconds, traced))
    metrics["trace.untraced_pass_s"] = plain
    metrics["trace.traced_pass_s"] = with_spans
    metrics["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    tracer.write(OUT_DIR / f"spans-{workload}.json")
    return metrics, {"span_count": len(tracer.spans)}


def profile(workload, ops, top):
    profiler = cProfile.Profile()
    run_pass(ops, profiler=profiler)
    buf = io.StringIO()
    for order in ("cumulative", "tottime"):
        pstats.Stats(profiler, stream=buf).sort_stats(order).print_stats(top)
    (OUT_DIR / f"profile-{workload}.txt").write_text(buf.getvalue())
    print(buf.getvalue())


def measure(args, spec, record):
    """Set up, run the passes and return the result dict; None in profile mode."""
    import workloads
    from hostref import HostReference
    from tracing import Tracer

    workdir = BENCH_DIR.relative_to(ROOT) / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wall0 = time.perf_counter()
    probing = not (args.trace or args.profile)
    setup_host = HostReference() if probing else None
    setup_times = probe_setup(args, SETUP_PROBES, setup_host) if probing else []

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            ops = workloads.build(args.workload, args.seed, workdir)
        setup_range = (0, len(tracer.spans))
    else:
        ops = workloads.build(args.workload, args.seed, workdir)
    if args.profile:
        profile(args.workload, ops, args.profile)
        return None

    run_pass(ops[:1])  # warm-up, untimed
    passes, hosts, traced, traced_ranges = [], [], [], []
    start = time.perf_counter()
    min_passes = 1 if tracer is not None else MIN_PASSES[args.workload]
    while True:
        begun = time.perf_counter()
        hosts.append(None if tracer is not None else HostReference(ELASTICITY[args.workload]))
        passes.append(run_pass(ops, host=hosts[-1]))
        if tracer is not None:
            lo = len(tracer.spans)
            with tracer.installed():
                traced.append(run_pass(ops, tracer))
            traced_ranges.append((lo, len(tracer.spans)))
        now = time.perf_counter()
        if now - wall0 >= WALL_CAP_S:
            break
        # the next pass starts only if one as long as this one ends within --seconds
        if len(passes) >= min_passes and (now - start) + (now - begun) > args.seconds:
            break

    if tracer is None:
        metrics, extra = e2e_metrics(passes, hosts, setup_times, setup_host,
                                     TAIL_PCT[args.workload])
        declared = spec["end_to_end"]
    else:
        metrics, extra = trace_metrics(args.workload, tracer, setup_range, traced_ranges, ops,
                                       passes, traced)
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    everything = passes + traced
    outcomes = [out for res in everything for _, out in res]
    failed = sum(not out.ok for out in outcomes)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record.update(extra, passes=len(passes), traced_passes=len(traced),
                  known_disagreements_per_pass=sum(bool(out.known) for _, out in passes[0]))
    details = [{"pass": k, "op": op.label, "latency_ms": 1e3 * lat, "ok": out.ok,
                "note": out.note, "known": out.known, "value": out.value}
               for k, res in enumerate(everything) for op, (lat, out) in zip(ops, res)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result, "ops": details}, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)
    return result


# ---------------------------------------------------------------- entry points

def run_all(args, spec):
    """Every workload in its own process; prints a table and the results."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {w['name']} exited {proc.returncode}")
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    try:
        spec = load_spec()
        args = parse_args([w["name"] for w in spec["workloads"]], argv)
        os.chdir(ROOT)  # relative output paths keep written bytes independent of the checkout
        import_rdwaves()
        sys.path.insert(0, str(BENCH_DIR))
        if args.setup_probe:
            import workloads

            workloads.build(args.workload, args.seed, BENCH_DIR / "_work" / "probe")
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args, spec)
        OUT_DIR.mkdir(exist_ok=True)
        record = run_record(args)
        result = measure(args, spec, record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps({"record": {k: record[k] for k in (
            "workload", "seed", "commit", "python", "numpy", "nproc", "passes",
            "raw_ops_per_s",
            "op_tail_percentile", "op_count", "ops_beyond_tail",
            "known_disagreements_per_pass") if k in record}}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
