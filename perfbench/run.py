"""rhoperp benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload small-pairs --seed 1 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one child each

A run does its workload's fixed, seeded request list once, with one
closed-loop caller (a traced run: once untraced, once traced, once
untraced).  A fixed probe kernel is timed between requests, and every
end-to-end time is reported at the reference speed of that kernel (see
speed.py); the wall times go to the report.  The outputs are then checked
against computations made apart from the program.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A report with the environment and the figures
behind each metric goes to .perfbench/ in the checkout.
"""

import os
import sys
import time

_START_NS = time.perf_counter_ns()

# One BLAS/OpenMP thread, set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, speed, tracer as tracing, workloads  # noqa: E402

# Fresh processes that repeat the set-up after the timed requests, so that
# setup_s is a median of several process starts.
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="run one workload in this process (default: all, one child each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="accepted and not used: a run always does its fixed list once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print the seconds since start, and exit")
    return p.parse_args(argv)


def import_program():
    """Import rhoperp from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "rhoperp" / "__init__.py").is_file():
        raise SystemExit(f"rhoperp sources not found under {src}")
    sys.path.insert(0, str(src))
    import rhoperp
    if Path(rhoperp.__file__).resolve().parent != (src / "rhoperp").resolve():
        raise SystemExit(f"imported rhoperp from {rhoperp.__file__}, not from {src}")
    return rhoperp


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((ROOT / "src").rglob("*.py"))),
    }


def call(req):
    return getattr(sys.modules[req.module], req.func)(*req.args, **req.kwargs)


def run_round(requests, meter, tracer=None):
    """Run every request once, ticking ``meter`` before each; returns
    (outputs, start and wall time in ns of each request, failures)."""
    outputs, starts, durations, failures = [], [], [], []
    for req in requests:
        meter.tick()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter_ns()
        try:
            out = call(req)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
            failures.append(f"{req.kind}: {type(exc).__name__}: {exc}")
        ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
        starts.append(start)
        durations.append(ns)
        outputs.append(out)
    meter.sample()
    return outputs, starts, durations, failures


def check_round(workload, outputs, truths) -> list[str]:
    """Problems in one round's outputs (failed requests are skipped)."""
    problems = []
    verdicts: dict[int, dict] = {}
    for req, out in zip(workload.requests, outputs):
        if isinstance(out, Exception):
            continue
        case = workload.cases[req.case]
        truth = None
        if hasattr(case, "x"):
            truth = truths.get(req.case)
            if truth is None:
                truth = truths[req.case] = checks.PairTruth(case.x, case.y)
            if hasattr(out, "holds"):
                verdicts.setdefault(req.case, {})[req.kind] = bool(out.holds)
        problems += [f"{req.kind} on case {req.case}: {p}"
                     for p in checks.check_request(req.kind, out, case, truth)]
    for index, v in verdicts.items():
        problems += [f"case {index}: {p}"
                     for p in checks.check_pair_verdicts(v, workload.cases[index].kind)]
    return problems


# Probes before the import of the program and after the warm-up, which set
# the speed of the set-up.
SETUP_SAMPLES = 4


def set_up(args):
    """Import, build the inputs and run one warm-up pass (one small instance
    of each request kind), with SETUP_SAMPLES probes before and after;
    returns (property names, workload, meter, set-up seconds at the
    reference speed, wall seconds since start)."""
    meter = speed.SpeedMeter()
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    rhoperp = import_program()
    props = rhoperp.property_names()
    workload = workloads.build(args.workload, args.seed, props)
    warm = workloads.build(args.workload, args.seed, props, warm=True)
    run_round(warm.requests, meter)
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    wall_ns = time.perf_counter_ns() - _START_NS
    scaled_ns = meter.scale([_START_NS], [wall_ns])[0]
    return props, workload, meter, scaled_ns / 1e9, wall_ns / 1e9


def setup_probes(args) -> list[tuple[float, float]]:
    """Time the set-up in fresh processes, one after the other; returns
    (seconds at the reference speed, wall seconds) for each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        words = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.split()
        out.append((float(words[-2]), float(words[-1])))
    return out


def run_workload(args) -> dict:
    props, workload, meter, setup_scaled, setup_wall = set_up(args)
    reqs = workload.requests
    truths: dict = {}
    problems, failures = [], []
    tracer = None
    untraced = []

    def timed_round(tracer=None):
        """Run and check one round; returns (wall ns, ns at the reference
        speed) of each request."""
        outputs, starts, durations, fails = run_round(reqs, meter, tracer)
        failures.extend(fails)
        problems.extend(check_round(workload, outputs, truths))
        return durations, meter.scale(starts, durations)

    if args.trace:
        # The traced round sits between two untraced ones, so a steady
        # drift of the machine's speed cancels out of the overhead.
        untraced.append(sum(timed_round()[1]) / 1e9)
        tracer = tracing.Tracer()
        tracer.install()
    try:
        durations, scaled = timed_round(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.trace:
        untraced.append(sum(timed_round()[1]) / 1e9)

    kind_ns: dict = {}
    for req, ns in zip(reqs, durations):
        kind_ns.setdefault(req.kind, []).append(ns)
    attempted = (1 + len(untraced)) * len(reqs)
    ordered = sorted(scaled)
    beyond = workloads.TAIL_BEYOND[args.workload]
    percentile = 100.0 * (1.0 - beyond / len(ordered))
    probes = [] if args.trace else setup_probes(args)
    setup_s = statistics.median([setup_scaled] + [p[0] for p in probes])
    wall_ordered = sorted(durations)
    report = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "environment": environment(),
        "requests": len(reqs),
        "tail_percentile": percentile,
        "beyond_tail": beyond,
        "setup": {"first_request_s": setup_scaled, "first_request_wall_s": setup_wall,
                  "probes_s": probes},
        "speed": {"reference_probe_ms": speed.REFERENCE_NS / 1e6,
                  "probes": len(meter.ns),
                  "probe_ms_quartiles": [q / 1e6 for q in statistics.quantiles(meter.ns, n=4)],
                  "wall_over_scaled": sum(durations) / sum(scaled)},
        "wall": {"requests_per_s": len(reqs) / (sum(durations) / 1e9),
                 "request_p50_ms": statistics.median(durations) / 1e6,
                 "request_tail_ms": wall_ordered[-beyond - 1] / 1e6,
                 "setup_s": statistics.median([setup_wall] + [p[1] for p in probes])},
        "kinds": {k: {"count": len(v), "p50_ms": statistics.median(v) / 1e6,
                      "max_ms": max(v) / 1e6} for k, v in sorted(kind_ns.items())},
        "failures": failures[:20], "problems": problems[:50],
    }
    if args.trace:
        traced_round_s = sum(scaled) / 1e9
        report["trace_overhead"] = traced_round_s / statistics.mean(untraced) - 1.0
        report["traced_round_s"] = traced_round_s
        report["untraced_round_s"] = untraced
        report["functions"] = {
            k: {"calls": s.calls, "incl_ms": s.incl_ns / 1e6, "self_ms": s.self_ns / 1e6,
                "matrices": s.matrices, "flops_computed": s.flops}
            for k, s in tracer.stats.items()}
        metrics = tracing.per_layer_metrics(tracer.stats, len(reqs), kind_ns, props)
    else:
        metrics = {
            "requests_per_s": {"value": len(reqs) / (sum(scaled) / 1e9), "unit": "req/s"},
            "request_p50_ms": {"value": statistics.median(scaled) / 1e6, "unit": "ms"},
            "request_tail_ms": {"value": ordered[-beyond - 1] / 1e6, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    report["metrics"] = metrics
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str))

    env = report["environment"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reqs)} requests, tail p{percentile:.4g} with {beyond} beyond")
    print(f"# nproc {env['nproc']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas']} threads {env['threads']['OPENBLAS_NUM_THREADS']}"
          f" src lines {env['src_lines']}")
    if args.trace:
        print(f"# tracing overhead {report['trace_overhead'] * 100:.1f}% "
              f"({traced_round_s:.3f} s per traced round, untraced rounds before and "
              f"after {untraced[0]:.3f} s and {untraced[1]:.3f} s, at the reference speed)")
    else:
        print("# wall " + " ".join(f"{k} {v:.6g}" for k, v in report["wall"].items())
              + f"; wall/reference {report['speed']['wall_over_scaled']:.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"# attempted {attempted} failed {len(failures)} correct {not problems}")
    for line in failures[:5] + problems[:10]:
        print(f"# FAIL {line}")
    print(f"# report {path.relative_to(ROOT)}")
    return result


def run_all(args) -> int:
    """Each workload in its own child process, then one summary line."""
    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            summary[name], ok = None, False
            continue
        print("\n".join(lines[:-1]))
        summary[name] = result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"# {name}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}\n")
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(*set_up(args)[3:])
        return 0
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
