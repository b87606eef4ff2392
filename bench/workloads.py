"""The benchmark's four workloads: inputs, one operation, and its checks.

Each workload draws a fixed number of same-shaped inputs from its own
seeded generator (``random.Random(seed)``, never ``apolar.constructions``),
so a change to the program cannot change what it is fed.  ``operate`` calls
apolar's public API (or its command line) on one input; ``check`` compares
the output with a computation made apart from apolar (``oracle``) or with a
property the method must have, and returns a message when it fails.
``digest`` gives a value that must repeat exactly when the same input is
run again.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
GFP = 32003
XYZ = ("x", "y", "z")


def child_env():
    """The environment for a child interpreter that imports apolar from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _exponents_key(terms):
    return tuple(sorted(terms.items()))


def rank_reference(p):
    """A fixed exact elimination, apart from apolar, that the host's speed of
    the moment is read from: the rank of a seeded 14x14 integer matrix over
    QQ or of a 40x40 matrix over GF(p), each a few milliseconds."""
    rng = random.Random("reference")
    n = 14 if p is None else 40
    matrix = [[rng.randint(-9, 9) if p is None else rng.randrange(p) for _ in range(n)]
              for _ in range(n)]
    return lambda: oracle.rank(matrix, p)


class Workload:
    """Defaults for a workload whose operations run in this process."""

    #: Reference computations timed after each operation.
    reference_reps = 2

    def operate_in_process(self, ap, item):
        return self.operate(ap, item)

    def failed(self, out) -> bool:
        return False

    def known_failure(self, item) -> bool:
        """Whether the operation on this input fails today because of a known
        fault in the program; any other failure makes the run incorrect."""
        return False

    def child_rss_kib(self, out) -> int:
        return 0


# ---------------------------------------------------------------------------
# gorenstein-qq


class GorensteinQQ(Workload):
    """A general Gorenstein dual form over QQ: its inverse system, the
    annihilator, minimal generators and Hilbert function."""

    name = "gorenstein-qq"
    r, q, count, coeffs = 3, 6, 8, (-9, 9)

    def reference(self):
        return rank_reference(None)

    def inputs(self, ap, rng, count):
        ring = ap.GradedRing.standard(ap.QQ, XYZ)
        out = []
        while len(out) < count:
            F = {m: rng.randint(*self.coeffs) for m in oracle.monomials(self.r, self.q)}
            if oracle.is_compressed(F, self.r, self.q, oracle.BIG_PRIME):
                out.append((F, ap.InverseElement(ring, F)))
        return out

    def operate(self, ap, item):
        D = ap.generated_submodule([item[1]])
        ideal = ap.annihilator_of_submodule(D)
        gens = ap.minimal_generators(ideal)
        return ap.hilbert_function(ideal), gens

    def digest(self, out):
        h, gens = out
        return h.offset, h.values, tuple((d, _exponents_key(g.terms)) for d, g in gens)

    def check(self, item, out):
        F, r, q = item[0], self.r, self.q
        h, gens = out
        want = oracle.compressed_hilbert(r, q) + [0]
        got = [h[i] for i in range(q + 2)]
        if got != want or h.first() != 0 or h.last() != q:
            return f"hilbert function {got} != compressed {want}"
        polys = [(d, dict(g.terms)) for d, g in gens]
        for d, g in polys:
            if any(sum(m) != d for m in g) or not g:
                return f"generator of degree {d} is not a nonzero form of that degree"
            if oracle.contract(g, F):
                return f"a degree-{d} generator does not annihilate F"
        # The generators lie in Ann(F), whose degree-d part has dimension
        # dim R_d - h_d; a rank mod p bounds the rank over QQ from below, so
        # equality there proves they generate Ann(F) in every degree.
        for d in range(q + 2):
            expect = oracle.ring_dim(r, d) - want[d]
            got_rank = _rank_qq_lower_bound(polys, r, d)
            if got_rank != expect:
                return f"generators span {got_rank} of the {expect} dimensions of Ann(F) in degree {d}"
        # Minimal: in each degree the new generators are independent modulo
        # the multiples of the lower ones (exact rank over QQ).
        for d in sorted({d for d, _ in polys}):
            lower = [(e, g) for e, g in polys if e < d]
            fresh = sum(1 for e, _ in polys if e == d)
            covered = oracle.multiples_rank(lower, r, d) if lower else 0
            if covered + fresh != oracle.ring_dim(r, d) - want[d]:
                return f"generators of degree {d} are not minimal"
        return None


def _rank_qq_lower_bound(polys, r, d):
    try:
        return oracle.multiples_rank(polys, r, d, oracle.BIG_PRIME)
    except ZeroDivisionError:
        return oracle.multiples_rank(polys, r, d)


# ---------------------------------------------------------------------------
# filtered-gfp


class FilteredGFp(Workload):
    """An inhomogeneous dual generator F = F_q + F_{q-2} over GF(32003): the
    filtered dual, both associated graded objects and minimal generators of
    the graded ideal."""

    name = "filtered-gfp"
    r, q, low, count = 3, 6, 4, 6

    def reference(self):
        return rank_reference(GFP)

    def inputs(self, ap, rng, count):
        ring = ap.GradedRing.standard(ap.GF(GFP), XYZ)
        out = []
        for _ in range(count):
            F = {}
            for d in (self.q, self.low):
                for m in oracle.monomials(self.r, d):
                    F[m] = rng.randrange(GFP)
            out.append((F, ap.InverseElement(ring, F)))
        return out

    def operate(self, ap, item):
        D, ideal = ap.filtered_dual(item[1])
        GI = ap.associated_graded_ideal(ideal)
        GD = ap.associated_graded_submodule(D)
        return ideal, GI, GD, ap.minimal_generators(GI)

    def digest(self, out):
        ideal, GI, GD, gens = out
        return (
            ideal.space.rows,
            tuple(GI.piece(d).rows for d in range(GI.bound)),
            tuple(sorted((n, s.rows) for n, s in GD.pieces.items())),
            tuple((d, _exponents_key(g.terms)) for d, g in gens),
        )

    def check(self, item, out):
        F, r, p = item[0], self.r, GFP
        ideal, GI, GD, gens = out
        ring = GI.ring
        length = oracle.contraction_rank(F, r, p)
        if ideal.quotient_total_dim() != length:
            return f"quotient length {ideal.quotient_total_dim()} != rank of contractions {length}"
        h_gr_ideal = [ring.dim(d) - GI.piece(d).dim for d in range(GI.bound)]
        h_gr_dual = [GD.piece(-d).dim for d in range(GI.bound)]
        if sum(h_gr_ideal) != length or sum(h_gr_dual) != length:
            return f"sum h(gr I) {sum(h_gr_ideal)}, sum h(gr D) {sum(h_gr_dual)} != {length}"
        if h_gr_ideal != h_gr_dual:
            return f"h(gr I) {h_gr_ideal} != h(gr D) {h_gr_dual}"
        # Initial forms of Ann(F) annihilate the top form F_q, so every
        # generator of gr I must; and the generators span gr I degreewise.
        top = {m: c for m, c in F.items() if sum(m) == self.q}
        polys = [(d, dict(g.terms)) for d, g in gens]
        for d, g in polys:
            if oracle.contract(g, top, p):
                return f"a degree-{d} generator of gr I does not annihilate F_q"
        for d in range(GI.bound):
            piece = GI.piece(d)
            multiples = oracle.multiples_rows(polys, r, d, ring.monomials(d))
            spanned = oracle.rank(multiples, p)
            together = oracle.rank([list(row) for row in piece.rows] + multiples, p)
            if spanned != piece.dim or together != piece.dim:
                return f"generators do not span gr I in degree {d}"
        return None


# ---------------------------------------------------------------------------
# tangents-gfp


class TangentsGFp(Workload):
    """A general Gorenstein form of one shape over GF(32003): the annihilator
    and the tangent profile Hom(I, A/I)."""

    name = "tangents-gfp"
    r, q, count = 3, 5, 4

    def reference(self):
        return rank_reference(GFP)

    def inputs(self, ap, rng, count):
        ring = ap.GradedRing.standard(ap.GF(GFP), XYZ)
        out = []
        while len(out) < count:
            F = {m: rng.randrange(GFP) for m in oracle.monomials(self.r, self.q)}
            if oracle.is_compressed(F, self.r, self.q, GFP):
                out.append((F, ap.InverseElement(ring, F)))
        return out

    def operate(self, ap, item):
        ideal = ap.annihilator_of_submodule(ap.generated_submodule([item[1]]))
        return ideal, ap.hom_dims(ideal)

    def digest(self, out):
        ideal, prof = out
        dims = tuple(ideal.piece(d).dim for d in range(ideal.bound))
        return dims, tuple(sorted(prof.dims.items())), prof.negative_total, prof.generator_degrees

    def check(self, item, out):
        r, q = self.r, self.q
        ideal, prof = out
        want = oracle.compressed_hilbert(r, q) + [0]
        got = [ideal.ring.dim(d) - ideal.piece(d).dim for d in range(ideal.bound)]
        if got != want:
            return f"hilbert function {got} != compressed {want}"
        d_min = min(d for d in range(q + 2) if want[d] < oracle.ring_dim(r, d))
        # T_v = (I/I^2)^dual_{q-v} for a Gorenstein quotient, and I^2 has no
        # terms below degree 2*d_min.
        checked = 0
        for v in range(q - 2 * d_min + 1, q - d_min + 1):
            expect = oracle.ring_dim(r, q - v) - want[q - v]
            if prof.dims.get(v) != expect:
                return f"dim T_{v} = {prof.dims.get(v)}, expected {expect}"
            checked += 1
        if not checked:
            return "no tangent degree in the checked window"
        if prof.negative_total < r:
            return f"negative tangents {prof.negative_total} < r = {r}"
        return None


# ---------------------------------------------------------------------------
# cli


def _form_text(terms, names, inverse):
    """A polynomial or dual element in the command line's syntax."""
    sign = "-" if inverse else ""
    parts = []
    for m, c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        factors = [f"{n}^{sign}{e}" for n, e in zip(names, m) if e]
        mono = "*".join(factors) if factors else "1"
        parts.append((c, mono))
    text = ""
    for c, mono in parts:
        if not text:
            text = f"{c}*{mono}"
        else:
            text += f" - {-c}*{mono}" if c < 0 else f" + {c}*{mono}"
    return text


def _monomial_text(m, names):
    return "*".join(f"{n}^{e}" for n, e in zip(names, m) if e)


def _intseq(values, offset=0):
    """The CLI's {offset, values} form of a sequence, zeros trimmed."""
    values = list(values)
    while values and values[0] == 0:
        values.pop(0)
        offset += 1
    while values and values[-1] == 0:
        values.pop()
    return {"offset": offset if values else 0, "values": values}


class CliCall:
    """One command line: its arguments, the exit code the documentation
    promises, an optional content check on the parsed result, and whether it
    fails today because of a known fault."""

    def __init__(self, argv, expect_code=0, content=None, known_failure=False):
        self.argv = argv
        self.expect_code = expect_code
        self.content = content
        self.known_failure = known_failure


class Cli(Workload):
    """A fixed cycle of small command-line calls covering every subcommand."""

    name = "cli"
    count = 1
    reference_reps = 1
    DOCUMENTED = (0, 2, 3, 4)

    def __init__(self):
        self._validator = None

    def inputs(self, ap, rng, count):
        return self.cycle(rng)

    def reference(self):
        """A fresh interpreter importing two standard modules."""
        argv = [sys.executable, "-c", "import fractions, json"]
        return lambda: subprocess.run(argv, stdin=subprocess.DEVNULL, check=True, cwd=ROOT)

    def cycle(self, rng):
        calls = []

        # an Artinian monomial ideal in three variables
        pure = [rng.randint(2, 3) for _ in range(3)]
        gens3 = [tuple(e if k == i else 0 for k in range(3)) for i, e in enumerate(pure)]
        while len(gens3) < 5:
            m = tuple(rng.randint(0, e - 1) for e in pure)
            if sum(m) >= 2 and m not in gens3:
                gens3.append(m)
        ideal3 = ",".join(_monomial_text(m, XYZ) for m in gens3)
        bound3 = sum(pure) - 1
        top3 = bound3 - 1
        hilb3 = _intseq(oracle.standard_monomial_counts(gens3, 3, top3))
        socle3 = _intseq(oracle.monomial_socle_counts(gens3, 3, top3))
        ring3 = "--ring=GF(101)[x,y,z]"
        calls.append(CliCall(
            ["hilbert", ring3, f"--ideal={ideal3}", f"--bound={bound3}"],
            content=lambda res, want=hilb3: res["hilbert"] == want or "hilbert"))
        calls.append(CliCall(
            ["socle", ring3, f"--ideal={ideal3}", f"--bound={bound3}"],
            content=lambda res, want=socle3: res["socle"] == want or "socle"))

        # a general binary quartic over QQ: compressed, a complete intersection
        while True:
            F2 = {m: rng.randint(-5, 5) for m in oracle.monomials(2, 4)}
            if F2[(4, 0)] and oracle.is_compressed(F2, 2, 4, oracle.BIG_PRIME):
                break
        inv2 = _form_text(F2, ("x", "y"), inverse=True)
        ring2 = "--ring=QQ[x,y]"
        quartic_h = _intseq(oracle.compressed_hilbert(2, 4))
        calls.append(CliCall(
            ["annihilate", ring2, f"--inverse={inv2}"],
            content=lambda res, want=quartic_h: (
                res["hilbert"] == want and sorted(res["generator_degrees"]) == [3, 3]
            ) or "annihilate --inverse"))
        calls.append(CliCall(
            ["socle", ring2, f"--inverse={inv2}"],
            content=lambda res: (res["gorenstein"] and res["level"]) or "socle --inverse"))
        calls.append(CliCall(["profile", ring2, f"--inverse={inv2}"]))

        # a monomial complete intersection, from the ideal side
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        ci_h = _intseq(oracle.standard_monomial_counts([(a, 0), (0, b)], 2, a + b - 1))
        calls.append(CliCall(
            ["annihilate", ring2, f"--ideal=x^{a},y^{b}", f"--bound={a + b}"],
            content=lambda res, want=ci_h: res["hilbert"] == want or "annihilate --ideal"))

        # tangents of a monomial ideal in two variables
        c, d = rng.randint(2, 3), rng.randint(3, 4)
        gens2 = [(c, 0), (0, d), (1, rng.randint(1, d - 1))]
        ideal2 = ",".join(_monomial_text(m, ("x", "y")) for m in gens2)
        min_degs = sorted(sum(m) for m in gens2 if not any(
            o != m and oracle.divides(o, m) for o in gens2))
        calls.append(CliCall(
            ["tangents", ring2, f"--ideal={ideal2}", f"--bound={c + d + 1}"],
            content=lambda res, want=min_degs: (
                sorted(res["generator_degrees"]) == want and res["negative_total"] >= 2
            ) or "tangents"))

        # an inhomogeneous dual generator over GF(101)
        Ff = {m: rng.randrange(1, 101) for k in (4, 2) for m in oracle.monomials(2, k)}
        length = oracle.contraction_rank(Ff, 2, 101)
        calls.append(CliCall(
            ["assoc-graded", "--ring=GF(101)[x,y]", f"--inverse={_form_text(Ff, ('x', 'y'), True)}"],
            content=lambda res, want=length: (
                sum(res["quotient_hilbert"]["values"]) == want
            ) or "assoc-graded"))

        socle_type = "3:1,4:2"
        type_h = _intseq(oracle.compressed_level_hilbert(3, {3: 1, 4: 2}))
        calls.append(CliCall(["iset", "--ring=GF(101)[x,y,z]", f"--socle={socle_type}"]))
        calls.append(CliCall(
            ["construct", "random", "--ring=GF(101)[x,y,z]", f"--socle={socle_type}",
             f"--seed={rng.randrange(1000)}"],
            content=lambda res, want=type_h: (
                res["hilbert"] == want and res["compressed"]
                and res["type"] == {"offset": 3, "values": [1, 2]}
            ) or "construct random"))
        length5 = sum(oracle.compressed_level_hilbert(5, {2: 1, 3: 1}))
        calls.append(CliCall(
            ["dims", "--socle=2:1,3:1", "--r=5"],
            content=lambda res, n=length5: (
                res["length"] == n and res["principal"] == n * 5
                and res["elementary"] == res["F"] + 5
            ) or "dims"))
        calls.append(CliCall(
            ["linkage", ring2, "--ideal=x,y^3", "--ambient=x^3,y^3", "--bound=6"]))
        calls.append(CliCall(
            ["construct", "power-sum", ring2, "--points=1,0;0,1;1,1",
             "--scalars=1,1,1", "--a=4", "--s=4"]))
        calls.append(CliCall(
            ["construct", "gorenstein-ambient", "--r=3", "--e=2",
             "--forms=X1+X2+X3,X2+2*X3"]))
        calls.append(CliCall(
            ["construct", "prnonempty", "--r=2", "--e=3", "--socle=3:1,5:1", "--n=-2"]))
        calls.append(CliCall(
            ["series", "wstar", "--ambient-h=1,3,6,7,6,3,1", "--a=6", "--socle=3:1"]))
        calls.append(CliCall(
            ["series", "froberg", "--base-h=1,3,6,10,15,21", "--ci=2,2", "--forms=3", "--n=6"]))
        calls.append(CliCall(
            ["series", "koszul", "--h=1,2,2,1", "--hq=1,2,1", "--degrees=2", "--n=4"]))
        # No variables: a usage error.  It ends in a ValueError traceback
        # (exit 1) from math.comb, so it counts as failed until the command
        # maps it to exit 2.
        calls.append(CliCall(["dims", "--socle=2:1", "--r=0"], expect_code=2,
                             known_failure=True))
        for call in calls:
            call.argv = call.argv + ["--json"]
        return calls

    def operate(self, ap, item):
        """Run the command in a fresh interpreter; returns (exit code,
        stdout, stderr, peak RSS in KiB of that process)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "apolar.cli", *item.argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=ROOT, env=child_env(),
        )
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss

    def operate_in_process(self, ap, item):
        """Run ``apolar.cli.main`` in this process, for the traced run."""
        import contextlib
        import io
        import traceback

        buf, errbuf = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(errbuf):
            try:
                code = ap.cli.main(list(item.argv))
            except Exception:  # an uncaught error: the interpreter would exit 1
                code = 1
                errbuf.write(traceback.format_exc())
        return code, buf.getvalue().encode(), errbuf.getvalue().encode(), 0

    def failed(self, out):
        code, _, err, _ = out
        return code not in self.DOCUMENTED or b"Traceback" in err

    def known_failure(self, item):
        return item.known_failure

    def child_rss_kib(self, out):
        return out[3]

    def digest(self, out):
        return out[0], out[1]

    def check(self, item, out):
        code, stdout, _, _ = out
        if code != item.expect_code:
            return f"{item.argv[0]}: exit {code}, documented {item.expect_code}"
        text = stdout.decode()
        if not text.endswith("\n") or text.count("\n") != 1:
            return f"{item.argv[0]}: stdout is not one line"
        try:
            doc = json.loads(text)
        except ValueError:
            return f"{item.argv[0]}: stdout is not JSON"
        problems = [e.message for e in self.validator().iter_errors(doc)]
        if problems:
            return f"{item.argv[0]}: not valid against the schema: {problems[0]}"
        if code == 0 and item.content is not None:
            verdict = item.content(doc["result"])
            if verdict is not True:
                return f"{' '.join(item.argv[:2])}: content check failed ({verdict})"
        return None

    def validator(self):
        if self._validator is None:
            from jsonschema import Draft7Validator

            schema = json.loads((ROOT / "docs" / "cli_schema.json").read_text())
            self._validator = Draft7Validator(schema)
        return self._validator


WORKLOADS = {w.name: w for w in (GorensteinQQ(), FilteredGFp(), TangentsGFp(), Cli())}


def make_inputs(workload, ap, seed, count=None):
    """The workload's inputs for a seed; ``count`` overrides its round size."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.inputs(ap, rng, workload.count if count is None else count)
