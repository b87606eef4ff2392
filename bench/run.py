"""Benchmark of apolar: four seeded workloads, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all four
    python3 bench/run.py --smoke [--workload NAME]                 # quick check

A run of one workload imports apolar from ``src/`` beside this directory,
builds its inputs from the seed, runs one untimed operation, then runs whole
rounds of the same operations until ``--seconds`` of operation time have
passed.  Every output is checked outside the timed intervals.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (spans around apolar's public functions) with
``--trace 1``.  Without ``--workload`` every workload runs in its own
process and a summary is printed.  Results and traces go to ``bench/out/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, child_env, make_inputs  # noqa: E402

#: Fresh processes whose set-up is timed, some before the timed phase and the
#: rest after it, so that they sample the host's speed over the whole run;
#: setup_s is their median.
SETUP_PROBES = 7
#: Fresh interpreters importing apolar.cli in a traced cli run.
IMPORT_PROBES = 3
#: Operations on each side whose reference times set the local speed.
REFERENCE_WINDOW = 3
END_TO_END_UNITS = {
    "throughput_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Figures printed and kept in the result file but not gated.
RAW_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "reference_s": "s",
    **END_TO_END_UNITS,
}


def import_apolar():
    """Import apolar from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "apolar" / "__init__.py").is_file():
        raise SystemExit(f"no apolar package under {src}")
    sys.path.insert(0, str(src))
    import apolar
    import apolar.cli  # noqa: F401

    if Path(apolar.__file__).resolve().parent != (src / "apolar").resolve():
        raise SystemExit(f"imported apolar from {apolar.__file__}, not from {src}")
    return apolar


def set_up(workload, seed, count, tracer=None):
    """Import, build the inputs and run one untimed operation."""
    ap = import_apolar()
    inputs = make_inputs(workload, ap, seed, count)
    operate = workload.operate
    if tracer is not None:
        tracer.install()
        operate = workload.operate_in_process
    operate(ap, inputs[0])
    if tracer is not None:
        tracer.reset()
    return ap, inputs, operate


def probe_setup(name, seed):
    """Seconds from starting a fresh process to its first timed operation."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--probe"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT,
        timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["ready"] - start


def probe_import():
    """Seconds a fresh interpreter takes to import apolar.cli."""
    code = ("import time; t = time.perf_counter(); import apolar.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run(
        [sys.executable, "-c", code], stdin=subprocess.DEVNULL, capture_output=True,
        text=True, cwd=ROOT, env=child_env(), timeout=60, check=True,
    )
    return float(done.stdout)


def measure(workload, seed, seconds, trace, smoke):
    """One run of one workload; returns the result object."""
    import_apolar()
    tracer = Tracer() if trace else None
    probing = not (trace or smoke)
    probes = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES // 2 + 1)] \
        if probing else []
    start = time.perf_counter()
    ap, inputs, operate = set_up(workload, seed, 1 if smoke else None, tracer)
    if not probing:
        probes = [time.perf_counter() - start]

    reference = workload.reference()
    completed, references, problems, digests = [], [], [], {}
    attempted = failed = rounds = 0
    child_rss_kib = 0
    timed = 0.0
    while rounds == 0 or (timed < seconds and not smoke):
        for k, item in enumerate(inputs):
            t0 = time.perf_counter()
            out = operate(ap, item)
            t1 = time.perf_counter()
            timed += t1 - t0
            attempted += 1
            if tracer is not None:
                tracer.next_op()
            references.append([time_call(reference) for _ in range(workload.reference_reps)])
            if workload.failed(out):
                failed += 1
                if not workload.known_failure(item):
                    problems.append(f"input {k}: the operation failed")
                continue
            completed.append((attempted - 1, t1 - t0))
            child_rss_kib = max(child_rss_kib, workload.child_rss_kib(out))
            digest = workload.digest(out)
            if k not in digests:
                digests[k] = digest
                problem = workload.check(item, out)
                if problem:
                    problems.append(problem)
            elif digest != digests[k]:
                problems.append(f"input {k}: output changed when run again")
        rounds += 1
    if probing:
        probes += [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES - len(probes))]

    normalized = [t / local_reference(references, i) for i, t in completed]
    raw = {
        "throughput_per_s": len(completed) / timed,
        "latency_p50_s": statistics.median(t for _, t in completed),
        "reference_s": statistics.median(s for reps in references for s in reps),
    }
    values = {
        "throughput_per_ref": len(normalized) / sum(normalized),
        "latency_p50_ref": statistics.median(normalized),
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if tracer is not None:
        tracer.uninstall()
        import_s = statistics.median(probe_import() for _ in range(IMPORT_PROBES)) \
            if workload.name == "cli" else 0.0
        result["metrics"] = tracer.layer_metrics(attempted, import_s)
        raw.update(values)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json.gz")
    else:
        rss_kib = child_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["setup_s"] = statistics.median(probes)
        values["peak_rss_mb"] = rss_kib * 1024 / 1e6
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["raw"] = raw
    result["samples"] = {"latency_s": completed, "reference_s": references}
    if problems:
        result["problems"] = problems[:5]
    return result


def time_call(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def local_reference(references, i):
    """Median reference time over the operations within REFERENCE_WINDOW of
    operation i: the machine's speed while operation i ran."""
    lo, hi = max(0, i - REFERENCE_WINDOW), i + REFERENCE_WINDOW + 1
    return statistics.median(s for reps in references[lo:hi] for s in reps)


def summary_lines(name, result):
    yield f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}"
    for metric, m in result["metrics"].items():
        yield f"{name}: {metric} = {m['value']:.6g} {m['unit']}"
    for metric, value in result.get("raw", {}).items():
        yield f"{name}: (raw) {metric} = {value:.6g} {RAW_UNITS[metric]}"
    for problem in result.get("problems", ()):
        yield f"{name}: problem: {problem}"


def run_all(args):
    """Every workload, each in its own process."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited {done.returncode}")
        results[name] = json.loads(done.stdout.splitlines()[-1])
        for line in summary_lines(name, results[name]):
            print(line, flush=True)
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation (one cycle for cli) with the checks on")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        set_up(WORKLOADS[args.workload], args.seed, None)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if args.workload is None:
        return run_all(args)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, args.smoke)
    OUT.mkdir(exist_ok=True)
    tag = "smoke" if args.smoke else f"trace{args.trace}"
    (OUT / f"result-{args.workload}-seed{args.seed}-{tag}.json").write_text(json.dumps(result) + "\n")
    for line in summary_lines(args.workload, result):
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
