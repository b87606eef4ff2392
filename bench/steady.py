"""Steadiness record: two sets of ten runs of every workload, written to
``bench/STEADINESS.md``.

    python3 bench/steady.py

Each set runs every workload once per seed 101-110, one run at a time, for
the ``run_seconds`` that ``BENCHMARK.json`` names.  For every end-to-end
metric the record gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median; the same for the raw seconds, which
are not gated; and, per metric, how far the second set's median moved from
the first's against the metric's bound.  The file is rewritten after every
set.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT, RAW_UNITS  # noqa: E402

SEEDS = range(101, 111)
SETS = 2
RECORD = BENCH / "STEADINESS.md"


def one_run(name, seed, seconds):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT,
        timeout=600, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    result["raw"] = json.loads((OUT / f"result-{name}-seed{seed}-trace0.json").read_text())["raw"]
    return result


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def set_table(name, results):
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
    lines = [f"### {name}", "",
             f"all correct: {all(r['correct'] for r in results)}; failed/attempted: "
             + ", ".join(shares), "",
             "| metric | unit | median | Q1 | Q3 | spread | min | max |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    rows = [(m, results[0]["metrics"][m]["unit"], [r["metrics"][m]["value"] for r in results])
            for m in results[0]["metrics"]]
    rows += [(f"(raw) {m}", RAW_UNITS[m], [r["raw"][m] for r in results])
             for m in ("latency_p50_s", "throughput_per_s", "reference_s")]
    rows.append(("wall_s, the whole run", "s", [r["wall_s"] for r in results]))
    for metric, unit, values in rows:
        med, q1, q3, spread = stats(values)
        lines.append(f"| {metric} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                     f"{spread:.3f} | {min(values):.4g} | {max(values):.4g} |")
    return lines + [""]


def agreement(sets, bench):
    lines = ["## Agreement between the sets", "",
             "Worse is the second median's change in the metric's worse direction, "
             "as a share of the first median.", "",
             "| workload | metric | bound | spread, set 1 | spread, set 2 | worse | within bound |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for name in sets[0]:
        first, second = sets[0][name], sets[1][name]
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first)
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spreads = [stats([r["metrics"][m["name"]]["value"] for r in s])[3]
                       for s in (first, second)]
            lines.append(f"| {name} | {m['name']} | {m['bound']} | {spreads[0]:.3f} | "
                         f"{spreads[1]:.3f} | {worse:+.3f} | {worse <= m['bound']} |")
        same = ({r["failed"] / r["attempted"] for r in first}
                == {r["failed"] / r["attempted"] for r in second})
        lines.append(f"| {name} | failed share | exact | | | | {same} |")
    return lines + [""]


def write(sets, bench, started):
    lines = ["# Steadiness record", "",
             f"Written by `python3 bench/steady.py`, started {started}, on "
             f"{platform.machine()} Linux with {os.cpu_count()} CPUs: sets of ten "
             f"runs of each workload on unchanged program code, seeds "
             f"{SEEDS[0]}-{SEEDS[-1]}, `--seconds {bench['run_seconds']}`, one run at a "
             "time.  Spread is (Q3 - Q1) / median, with the quartiles of "
             "`statistics.quantiles(values, n=4)`.  `(raw)` figures are in seconds "
             "and not gated; `wall_s` is the whole run, set-up probes and checks "
             "included.", ""]
    for k, results in enumerate(sets, 1):
        lines += [f"## Set {k}", ""]
        for name, runs in results.items():
            lines += set_table(name, runs)
    if len(sets) == SETS:
        lines += agreement(sets, bench)
    RECORD.write_text("\n".join(lines))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    sets = []
    for _ in range(SETS):
        results = {}
        for w in bench["workloads"]:
            results[w["name"]] = []
            for seed in SEEDS:
                result = one_run(w["name"], seed, bench["run_seconds"])
                results[w["name"]].append(result)
                print(w["name"], seed, json.dumps(result), flush=True)
        sets.append(results)
        write(sets, bench, started)
    print(RECORD.read_text())


if __name__ == "__main__":
    main()
