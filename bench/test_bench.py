"""Tests of the benchmark itself: its checks reject corrupted answers, its
smoke mode runs every workload, and traced counts repeat exactly.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

ap = run.import_apolar()


def first_output(name, seed=3):
    workload = WORKLOADS[name]
    item = make_inputs(workload, ap, seed, 1)[0]
    return workload, item, workload.operate(ap, item)


@pytest.fixture(scope="module")
def gorenstein():
    return first_output("gorenstein-qq")


@pytest.fixture(scope="module")
def filtered():
    return first_output("filtered-gfp")


@pytest.fixture(scope="module")
def tangents():
    return first_output("tangents-gfp")


class TestChecksRejectCorruption:
    def test_gorenstein_passes(self, gorenstein):
        workload, item, out = gorenstein
        assert workload.check(item, out) is None

    def test_hilbert_off_by_one(self, gorenstein):
        workload, item, (h, gens) = gorenstein
        values = list(h.values)
        values[2] += 1
        assert "hilbert" in workload.check(item, (ap.IntSeq(values, h.offset), gens))

    def test_dropped_generator(self, gorenstein):
        workload, item, (h, gens) = gorenstein
        assert "span" in workload.check(item, (h, gens[:-1]))

    def test_extra_generator_is_not_minimal(self, gorenstein):
        workload, item, (h, gens) = gorenstein
        d, g = gens[0]
        doubled = (d, g + g)
        assert "minimal" in workload.check(item, (h, gens + [doubled]))

    def test_generator_not_annihilating(self, gorenstein):
        workload, item, (h, gens) = gorenstein
        d, g = gens[0]
        m = next(iter(g.terms))
        bent = g + ap.Polynomial.monomial(g.ring, m)
        assert "annihilate" in workload.check(item, (h, [(d, bent)] + gens[1:]))

    def test_filtered_passes(self, filtered):
        workload, item, out = filtered
        assert workload.check(item, out) is None

    def test_filtered_dropped_generator(self, filtered):
        workload, item, (ideal, GI, GD, gens) = filtered
        assert "span" in workload.check(item, (ideal, GI, GD, gens[:-1]))

    def test_filtered_wrong_graded_dual(self, filtered):
        workload, item, (ideal, GI, GD, gens) = filtered
        pieces = dict(GD.pieces)
        n = max(k for k, s in pieces.items() if s.dim)
        pieces[n] = ap.Subspace.zero(pieces[n].field, pieces[n].ncols)
        wrong = ap.InverseSystem(GD.ring, pieces)
        assert "gr D" in workload.check(item, (ideal, GI, wrong, gens))

    def test_tangents_passes(self, tangents):
        workload, item, out = tangents
        assert workload.check(item, out) is None

    def test_changed_tangent_dimension(self, tangents):
        workload, item, (ideal, prof) = tangents
        dims = dict(prof.dims)
        dims[1] += 1
        changed = dataclasses.replace(prof, dims=dims)
        assert "T_1" in workload.check(item, (ideal, changed))

    def test_negative_tangents_below_r(self, tangents):
        workload, item, (ideal, prof) = tangents
        changed = dataclasses.replace(prof, negative_total=2)
        assert "negative" in workload.check(item, (ideal, changed))


class TestCliChecks:
    @pytest.fixture(scope="class")
    def hilbert_call(self):
        workload = WORKLOADS["cli"]
        calls = make_inputs(workload, ap, 3)
        call = next(c for c in calls if c.argv[0] == "hilbert")
        return workload, call, workload.operate(ap, call)

    def test_passes(self, hilbert_call):
        workload, call, out = hilbert_call
        assert workload.check(call, out) is None

    def test_changed_byte_in_the_answer(self, hilbert_call):
        workload, call, (code, stdout, err, rss) = hilbert_call
        doc = json.loads(stdout)
        values = doc["result"]["hilbert"]["values"]
        values[1] += 1
        corrupt = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert "content" in workload.check(call, (code, corrupt, err, rss))

    def test_changed_byte_on_a_repeat(self, hilbert_call):
        workload, call, out = hilbert_call
        stdout = bytearray(out[1])
        stdout[-3] ^= 1
        assert workload.digest((out[0], bytes(stdout), out[2], out[3])) != workload.digest(out)

    def test_schema_violation(self, hilbert_call):
        workload, call, (code, stdout, err, rss) = hilbert_call
        doc = json.loads(stdout)
        doc["extra"] = 1
        corrupt = (json.dumps(doc) + "\n").encode()
        assert "schema" in workload.check(call, (code, corrupt, err, rss))

    def test_undocumented_exit_code_fails(self, hilbert_call):
        workload, call, (code, stdout, err, rss) = hilbert_call
        assert workload.failed((1, stdout, b"Traceback (most recent call last):", rss))


class TestOracle:
    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(5)
        for trial in range(20):
            n, m, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 5)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                     for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            dm = DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in r] for r in rows],
                              (n, m), sympy.QQ)
            assert oracle.rank(rows) == dm.rank()
            dp = DomainMatrix([[sympy.GF(7)(oracle.mod_p(x, 7)) for x in r] for r in rows],
                              (n, m), sympy.GF(7))
            assert oracle.rank(rows, 7) == dp.rank()

    def test_compressed_hilbert(self):
        assert oracle.compressed_hilbert(3, 5) == [1, 3, 6, 6, 3, 1]
        assert oracle.compressed_level_hilbert(3, {3: 1, 4: 2}) == [1, 3, 6, 7, 2]

    def test_monomial_counts(self):
        gens = [(2, 0), (0, 3), (1, 1)]
        assert oracle.standard_monomial_counts(gens, 2, 3) == [1, 2, 1, 0]
        assert oracle.monomial_socle_counts(gens, 2, 3) == [0, 1, 1, 0]


def run_bench(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_smoke_runs_every_workload_correctly():
    results = run_bench("--smoke")
    assert set(results) == set(WORKLOADS)
    for name, result in results.items():
        assert result["correct"], name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(results[n]["failed"] == 0 for n in results if n != "cli")
    # The one call of the cycle that fails today is `dims --r 0`; any other
    # failing call would have made the run incorrect.
    cycle = make_inputs(WORKLOADS["cli"], ap, 1)
    assert [c.argv[:3] for c in cycle if c.known_failure] == [["dims", "--socle=2:1", "--r=0"]]
    assert results["cli"]["failed"] == results["cli"]["attempted"] // len(cycle)


def test_traced_counts_repeat_exactly():
    runs = [run_bench("--workload", "tangents-gfp", "--smoke", "--trace", "1") for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if k.endswith((".calls", ".cells", ".distinct_calls"))} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["tangents.syzygies_at_degree.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_an_unknown_failure_makes_the_run_incorrect(monkeypatch):
    workload = WORKLOADS["cli"]
    monkeypatch.setattr(type(workload), "known_failure", lambda self, item: False)
    result = run.measure(workload, 1, 1, trace=0, smoke=True)
    assert result["failed"] == 1
    assert not result["correct"]
