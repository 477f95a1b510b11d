#!/usr/bin/env python3
"""vkstab benchmark: one closed-loop client, oracle-checked outputs.

    python3 perfbench/run.py --workload certify_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; vkstab is imported from ./src.

With --trace 0 the script sets up the workload (and twice more in child
processes, to report the median set-up time), then runs whole passes over
the workload's ops, one op at a time, and reports the end-to-end metrics.
The number of passes is fixed by --seconds and the workload's nominal pass
time, so every run of a workload does the same ops.  With --trace 1 it
runs one untraced pass and two traced passes and reports the per-layer
metrics of the traced passes; the exact counts must repeat between the two.
The last line of standard output is the result as one JSON object.  See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("certify_grid", "slope_scan", "dynamics")
SETUP_PROBES = 2          # extra set-ups in child processes, for the median
BLAS_THREADS_MAX = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="timed work, as a number of whole passes of nominal length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time in seconds and exit")
    return ap.parse_args(argv)


def pin_threads() -> dict:
    """Pin BLAS threads before numpy loads; leave VKSTAB_THREADS at its default."""
    nproc = len(os.sched_getaffinity(0))
    blas = str(min(BLAS_THREADS_MAX, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas
    os.environ.pop("VKSTAB_THREADS", None)
    return {"nproc": nproc, "blas_threads": int(blas), "VKSTAB_THREADS": "unset (default 2)"}


def import_program():
    if not os.path.isfile(os.path.join(SRC, "vkstab", "__init__.py")):
        raise SystemExit(f"run.py: no vkstab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file) as fh:
            return fh.read().strip()
    return None


def environment(args, threads: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": threads,
        "git_commit": git_commit(),
        "load": "closed loop, one client, one op in flight",
    }


def probe_setup(args) -> float:
    """Set-up time of a fresh process, import included."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed(op) -> tuple:
    start = time.perf_counter()
    status, reason = op.run()
    return op, status, reason, time.perf_counter() - start


def run_pass(ops, tracer=None, pass_no=0) -> list:
    """One closed-loop pass: the next op starts when the previous returns."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = (pass_no, i)
        records.append(timed(op))
    if tracer is not None:
        tracer.op = None
    return records


def run_passes(ops, passes) -> tuple:
    start = time.perf_counter()
    records = []
    for _ in range(passes):
        records += run_pass(ops)
    return records, time.perf_counter() - start


def case_table(records) -> list:
    rows = {}
    for op, status, reason, secs in records:
        row = rows.setdefault(op.name, {"case": op.name, "attempted": 0, "ok": 0,
                                        "seconds": [], "outcomes": set()})
        row["attempted"] += 1
        row["ok"] += status == "ok"
        row["seconds"].append(secs)
        if status != "ok":
            row["outcomes"].add(f"{status}: {reason}")
    lines = []
    for row in rows.values():
        outcome = "; ".join(sorted(row["outcomes"])) or "ok"
        lines.append(f"case {row['case']:<34} ok {row['ok']}/{row['attempted']}  "
                     f"median {statistics.median(row['seconds']):.4f} s  {outcome[:160]}")
    return lines


def p80(values) -> float:
    return statistics.quantiles(values, n=10)[7]


# (alias, metric, unit): the key figures under the names they have on a workload.
ALIASES = {
    "certify_grid": [("certify_n512_s", "key_op_s", "s")],
    "slope_scan": [("slope_p50_ms", "op_p50_ms", "ms"), ("slope_p80_ms", "op_p80_ms", "ms")],
    "dynamics": [("so3_run_s", "key_op_s", "s")],
}


def end_to_end(args, ops, records, wall, setups) -> dict:
    """End-to-end metrics of a run, robust to a slow stretch of the machine.

    Each case (ops of one name) is summarized by its median latency and its
    share of ok outcomes; a pass is the ops of one pass at those medians.
    """
    per_pass = {}
    for op in ops:
        per_pass[op.name] = per_pass.get(op.name, 0) + 1
    lat, ok = {}, {}
    for op, status, _, secs in records:
        lat.setdefault(op.name, []).append(secs)
        ok[op.name] = ok.get(op.name, 0) + (status == "ok")
    profile, ok_ops = [], 0.0
    for name, mult in per_pass.items():
        profile += [statistics.median(lat[name])] * mult
        ok_ops += mult * ok[name] / len(lat[name])
    key = [r[3] for r in records if r[0].key]
    values = {
        "setup_s": statistics.median(setups),
        "goodput_per_min": 60.0 * ok_ops / sum(profile),
        "ok_share": ok_ops / len(profile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(profile),
        "op_p80_ms": 1e3 * p80(profile),
        "key_op_s": statistics.median(key),
    }
    samples = {"key_op_s": len(key), "op_p50_ms": len(profile), "op_p80_ms": len(profile)}
    for alias, metric, unit in ALIASES[args.workload]:
        print(f"metric {alias} = {values[metric]:.6g} {unit} ({samples[metric]} samples)")
    print(f"timed wall {wall:.3f} s for {len(records)} ops; "
          f"set-up samples {[round(s, 4) for s in setups]}")
    return values


def traced_run(ops, tracer_mod, setup_spans):
    """One untraced pass, then two traced passes; per-layer metrics."""
    start = time.perf_counter()
    records = run_pass(ops)
    untraced_wall = time.perf_counter() - start

    tracer = tracer_mod.Tracer()
    per_pass, walls = [], []
    for pass_no in (1, 2):
        tracer.spans = []
        tracer.install()
        start = time.perf_counter()
        records += run_pass(ops, tracer, pass_no)
        walls.append(time.perf_counter() - start)
        tracer.uninstall()
        base_n = {(pass_no, i): op.base_n for i, op in enumerate(ops)}
        per_pass.append(tracer_mod.layer_metrics(tracer.spans, setup_spans, base_n))

    repeat = {k: (per_pass[0][k], per_pass[1][k]) for k in tracer_mod.EXACT}
    mismatched = {k: v for k, v in repeat.items() if v[0] != v[1]}
    for k, v in mismatched.items():
        print(f"count {k} differs between traced passes: {v[0]} vs {v[1]}", file=sys.stderr)
    layers = {k: 0.5 * (per_pass[0][k] + per_pass[1][k]) for k in per_pass[0]}
    for k in tracer_mod.EXACT:
        layers[k] = per_pass[0][k]
    layers["trace.overhead_s"] = statistics.mean(walls) - untraced_wall
    print(f"untraced pass {untraced_wall:.3f} s; traced passes "
          f"{[round(w, 3) for w in walls]} s; exact counts repeat: {not mismatched}")
    return records, layers, not mismatched


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    import_program()
    import tracer as tracer_mod
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    ops = setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    env = environment(args, threads)
    if tracer is None:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        passes = max(1, round(args.seconds / workloads.PASS_S[args.workload]))
        records, wall = run_passes(ops, passes)
        values = end_to_end(args, ops, records, wall, setups)
        counts_ok = True
    else:
        tracer.uninstall()
        records, values, counts_ok = traced_run(ops, tracer_mod, tracer.spans)

    for line in case_table(records):
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    units = declared_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    wrong = [r for r in records if r[1] == "wrong"]
    result = {
        "correct": not wrong and counts_ok,
        "attempted": len(records),
        "failed": sum(r[1] != "ok" for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
