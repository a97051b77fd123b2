"""Benchmark command: time to a certified trajectory, on three workloads.

    python3 perfbench/run.py --workload osc_stepping --seed 1 --seconds 30 --trace 0

One client runs operations back to back (a closed loop, no worker pool) for
``--seconds`` and checks each operation's certificates.  It prints every
metric by name and unit, writes the full record (environment, operations,
spans) to ``.perfbench_out/``, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates pairs of untraced and traced operations, then calls
the layers the operations bypass once, runs the defect probes, and
reports the per-layer metrics.  ``--smoke`` runs the same code at tiny sizes.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program under test is missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One BLAS thread: at most nproc, and steadier figures on a shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
        for lib in libs:
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    lines = packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []
    return next((sha for sha, _, name in (l.partition(" ") for l in lines) if name == ref), None)


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_setup(workload, tracer):
    """Set up at least 3 times (more while cheap); the last set-up is the one kept."""
    times = []
    while len(times) < 3 or (sum(times) < 0.5 and len(times) < 50):
        t0 = time.perf_counter()
        workload.setup(tracer)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(workload, seconds, tracer, traced_run):
    """Closed loop with one client.  A traced run alternates untraced and traced blocks."""
    from tracing import Tracer

    untraced = Tracer(False)
    block = workload.cycle * (2 if traced_run else 1)
    ops = []
    start = time.perf_counter()
    while len(ops) % block or not ops or time.perf_counter() - start < seconds:
        i = len(ops)
        traced = traced_run and (i // workload.cycle) % 2 == 1
        tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workload.op(i, tracer if traced else untraced, traced)
            failures, extra = result.failures, result.extra_s
        except Exception as exc:  # a raising operation is a failed one; the loop goes on
            traceback.print_exc()
            result, failures, extra = None, [f"raised {exc!r}"], 0.0
        wall = time.perf_counter() - t0
        for failure in failures:
            print(f"op {i}: {failure}", file=sys.stderr)
        ops.append({
            "i": i, "traced": traced, "wall_s": wall, "extra_s": extra, "failures": failures,
            "steps": result.steps if result else 0,
            "sim_s": (result.sim_s if result.sim_s is not None else wall) if result else wall,
        })
    return ops


def tail(times):
    """Highest percentile with at least 10 operations beyond it.

    Below 20 operations no percentile above the median has 10 beyond it;
    the upper quartile stands in, as the maximum of a few operations moves
    with every pause of a shared machine.  Returns (value, percentile,
    operations beyond it).
    """
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < len(ordered) / 2:
        if len(ordered) < 2:
            return ordered[0], 100.0, 0
        upper = statistics.quantiles(ordered, n=4, method="inclusive")[2]
        return upper, 75.0, sum(t > upper for t in ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), 10


def end_to_end(setup_times, ops):
    walls = [op["wall_s"] for op in ops]
    value, percentile, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "steps_per_s": sum(op["steps"] for op in ops) / sum(op["sim_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"op_tail_s is p{percentile:.1f} of {len(walls)} operations, {beyond} beyond it"
    return metrics, note


def per_layer(tracer, ops):
    figures = tracer.figures()
    plain = statistics.median(op["wall_s"] for op in ops if not op["traced"])
    traced = statistics.median(op["wall_s"] - op["extra_s"] for op in ops if op["traced"])
    figures["trace.overhead_frac"] = (traced - plain) / plain
    return figures, f"trace.overhead_frac compares the median traced operation with the untraced {plain:.6g} s"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "phs_kit" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({SRC / 'phs_kit'})", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import SETUP, SWEEP, Tracer

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        tracer = Tracer(False)
        setup_times = run_setup(workload, tracer)
        if args.trace:
            tracer.enabled, tracer.op = True, SETUP  # trace one more set-up, outside setup_s
            workload.setup(tracer)
        ops = run_ops(workload, args.seconds, tracer, bool(args.trace))
        failures = [f for op in ops for f in op["failures"]]
        if args.trace:
            tracer.op = SWEEP
            failures += workload.sweep(tracer)
            workloads.probe_discrete_gradient(tracer)
            workloads.probe_inconsistent_start(tracer)
            figures, note = per_layer(tracer, ops)
            wanted = spec["per_layer"]
        else:
            figures, note = end_to_end(setup_times, ops)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    failures += [f"metric {name} was not measured" for name in missing]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in figures}
    failed_ops = sum(1 for op in ops if op["failures"])
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  {'ops_total':36s} {len(ops)}")
    print(f"  {'ops_failed':36s} {failed_ops}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  ({note})")
    for failure in failures:
        print(f"  FAILED: {failure}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "env": env, "metrics": metrics, "figures": figures,
        "note": note, "setup_times_s": setup_times, "ops": ops, "failures": failures,
        "spans": tracer.spans, "values": tracer.values,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed_ops,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
