"""Batch command line over the duality toolkit.

Every invocation is a pure function of (argv, stdin): seeded commands take
``--seed``, truncation is explicit via ``--bound`` (default: 2 plus the
largest degree among ideal generators, or for dual generators, graded or
not, their socle degree plus 1 plus the largest weight), and the emitted
bytes are identical across runs.  ``--json`` wraps results as {"ring",
"result", "provenance"}; integer sequences appear as {"offset", "values"},
integer-keyed tables as sorted [key, value] pairs.

Exit codes: 0 success, 2 usage, 3 math-domain failure (non-Artinian input,
truncation too small, impermissible type, exhausted retries), 4 parse error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .compressed import i_set, is_I_compressed, is_permissible
from .constructions import (
    derived_seed,
    gorenstein_ambient_quotient,
    monomial_ci_ambient,
    power_sum_system,
    prnonempty_construct,
    random_dual_generators,
)
from .duality import (
    FilteredIdeal,
    GradedIdeal,
    InverseElement,
    Polynomial,
    annihilator_of_submodule,
    apolar_annihilator,
    associated_graded_ideal,
    associated_graded_submodule,
    dual_minimal_generators,
    filtered_dual,
    filtered_dual_generators,
    filtered_minimal_generators,
    generated_submodule,
    truncate_algebra,
)
from .invariants import (
    IntSeq,
    generator_type,
    hilbert_function,
    is_gorenstein,
    is_level,
    linkage,
    multilevel_profile,
    socle,
    socle_report,
)
from .parsing import (
    ParseError,
    RingSpec,
    parse_expression,
    parse_expressions,
    parse_int_list,
    parse_point_list,
    parse_ring_spec,
    parse_socle_type,
)
from .rings import QQ, MathDomainError
from .series import TruncatedSeries, dual_series, froeberg_expected, koszul_series_verdict, wstar_window
from .tangents import elementary_report, hom_dims, minimal_generators

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_PARSE = 4


class UsageError(Exception):
    """A flag combination the schema cannot express."""


class DomainNote(MathDomainError):
    """A math-domain error carrying extra fields for the error object."""

    def __init__(self, message, **extras):
        super().__init__(message)
        self.extras = extras


# ---------------------------------------------------------------------------
# Emission.


def _jsonable(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, IntSeq):
        return {"offset": x.offset, "values": list(x.values)}
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (Polynomial, InverseElement)):
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, dict):
        return [[k, _jsonable(v)] for k, v in sorted(x.items())]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _render(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "none"
    if isinstance(x, IntSeq):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in x) + "]"
    return str(x)


def _ring_json(spec):
    if spec is None:
        return None
    return {
        "field": "QQ" if spec.p is None else f"GF({spec.p})",
        "variables": list(spec.names),
        "weights": list(spec.weights),
    }


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(out, json_mode: bool, spec, result: dict, seed, bound, bound_limited):
    if json_mode:
        payload = {
            "ring": _ring_json(spec),
            "result": {k: _jsonable(v) for k, v in result.items()},
            "provenance": {
                "seed": seed,
                "bound": bound,
                "bound_limited": bool(bound_limited),
            },
        }
        out.write(_dump(payload))
        return
    rows = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            for k in sorted(value):
                rows.append((f"{key}[{k}]", _render(value[k])))
        else:
            rows.append((key, _render(value)))
    rows.append(("provenance.bound", _render(bound)))
    rows.append(("provenance.bound_limited", _render(bool(bound_limited))))
    rows.append(("provenance.seed", _render(seed)))
    if spec is not None:
        rows.append(("ring", str(spec)))
    width = max(len(k) for k, _ in rows)
    for k, v in sorted(rows):
        out.write(f"{k.ljust(width)} = {v}\n")


def _emit_error(out, json_mode: bool, code: int, message: str, **extras):
    if json_mode:
        body = {"code": code, "message": message}
        body.update({k: _jsonable(v) for k, v in extras.items()})
        out.write(_dump({"error": body}))
    else:
        tail = "".join(f" ({k} = {_render(v)})" for k, v in sorted(extras.items()))
        print(f"error: {message}{tail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared argument plumbing.


def _read_arg(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _need_ring(args) -> RingSpec:
    if not args.ring:
        raise UsageError("this command needs --ring")
    return parse_ring_spec(args.ring)


def _parse_field(token):
    if token is None:
        return QQ
    spec = parse_ring_spec(f"{token}[x]")
    return spec.field()


def _one_side(args):
    """Exactly one of --ideal / --inverse, parsed in the declared ring."""
    spec = _need_ring(args)
    ring = spec.ring()
    if (args.ideal is None) == (args.inverse is None):
        raise UsageError("give exactly one of --ideal or --inverse")
    if args.inverse is not None:
        gens = parse_expressions(_read_arg(args.inverse), ring, "inverse")
        if all(g.is_zero() for g in gens):
            raise DomainNote("all dual generators are zero")
        return spec, ring, "inverse", gens
    gens = parse_expressions(_read_arg(args.ideal), ring, "polynomial")
    if all(g.is_zero() for g in gens):
        raise DomainNote("all ideal generators are zero")
    return spec, ring, "ideal", gens


def _ideal_bound(args, gens) -> int:
    if args.bound is not None:
        return args.bound
    return 2 + max(g.degree() for g in gens if not g.is_zero())


def _ideal_from(args, ring, gens) -> GradedIdeal:
    return GradedIdeal.from_generators(ring, gens, _ideal_bound(args, gens))


def _socle_arg(args) -> IntSeq:
    t = parse_socle_type(args.socle)
    if not t:
        raise DomainNote("socle type is empty", values=[])
    return t


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (ring spec or None, result dict,
# bound used or None, bound_limited).


def _cmd_annihilate(args):
    spec, ring, side, gens = _one_side(args)
    if side == "inverse":
        if all(g.is_homogeneous() for g in gens):
            D = generated_submodule(gens)
            ideal = annihilator_of_submodule(D, bound=args.bound)
            mingens = minimal_generators(ideal)
            result = {
                "generators": [g for _, g in mingens],
                "generator_degrees": [d for d, _ in mingens],
                "hilbert": hilbert_function(ideal),
            }
            return spec, result, ideal.bound, False
        if len(gens) != 1:
            raise DomainNote("inhomogeneous annihilators take a single generator")
        _, ideal = filtered_dual(gens[0], bound=args.bound)
        result = {
            "generators": filtered_minimal_generators(ideal),
            "quotient_dim": ideal.quotient_total_dim(),
        }
        return spec, result, ideal.algebra.bound, False
    if all(g.is_homogeneous() for g in gens):
        ideal = _ideal_from(args, ring, gens)
        D = apolar_annihilator(ideal)
        dual_gens = dual_minimal_generators(D)
        result = {
            "generators": list(dual_gens),
            "generator_degrees": [g.degree() for g in dual_gens],
            "hilbert": hilbert_function(D),
        }
        return spec, result, ideal.bound, False
    bound = args.bound
    if bound is None:
        bound = 2 + max(ring.wdeg(m) for g in gens for m in g.terms)
    ideal = FilteredIdeal.from_generators(truncate_algebra(ring, bound), gens)
    if not ideal.contains_top_degree():
        raise DomainNote("quotient not visibly Artinian within the bound; raise --bound")
    result = {
        "generators": filtered_dual_generators(ideal),
        "quotient_dim": ideal.quotient_total_dim(),
    }
    return spec, result, bound, False


def _cmd_hilbert(args):
    spec, ring, side, gens = _one_side(args)
    if side == "inverse":
        D = generated_submodule(gens)
        return spec, {"hilbert": hilbert_function(D)}, None, False
    ideal = _ideal_from(args, ring, gens)
    return spec, {"hilbert": hilbert_function(ideal)}, ideal.bound, False


def _cmd_socle(args):
    spec, ring, side, gens = _one_side(args)
    if side == "inverse":
        D = generated_submodule(gens)
        t = generator_type(D)
        result = {
            "socle": t,
            "level": is_level(D),
            "gorenstein": is_gorenstein(D),
        }
        return spec, result, None, False
    ideal = _ideal_from(args, ring, gens)
    rep = socle_report(ideal)
    result = {
        "socle": rep.dims,
        "socle_degree": rep.socle_degree,
        "level": rep.is_level,
        "gorenstein": rep.is_gorenstein,
    }
    return spec, result, ideal.bound, False


def _cmd_profile(args):
    spec, ring, side, gens = _one_side(args)
    if side != "inverse":
        raise UsageError("profile reads a dual submodule; give --inverse")
    D = generated_submodule(gens)
    prof = multilevel_profile(D)
    result = {
        "socle_degree": prof.socle_degree,
        "rows": {m: row for m, row in enumerate(prof.rows)},
        "type_from_profile": prof.type_from_profile,
    }
    return spec, result, None, False


def _cmd_iset(args):
    spec = _need_ring(args)
    ring = spec.ring()
    t = _socle_arg(args)
    rep = i_set(t, ring)
    verdict = is_permissible(rep)
    result = {
        "hI": {m: rep.hI_m(m) for m in range(rep.s_bar, rep.s + 1)},
        "betaI": {m: rep.betaI_m(m) for m in range(rep.s_bar, rep.s + 1)},
        "permissible": verdict.permissible,
        "v": verdict.v,
        "b1": rep.b1,
        "failing_clause": verdict.failing_clause,
    }
    return spec, result, None, False


def _cmd_dims(args):
    t = _socle_arg(args)
    rep = elementary_report(t, args.r)
    result = {
        "H": rep.H,
        "R": rep.R,
        "F": rep.F,
        "length": rep.length,
        "elementary": rep.elementary,
        "principal": rep.principal,
        "small_component": rep.small_component,
        "generic_nonsmoothable": rep.generic_nonsmoothable,
        "E": rep.E,
    }
    return None, result, None, False


def _cmd_linkage(args):
    spec = _need_ring(args)
    ring = spec.ring()
    ambient_gens = parse_expressions(_read_arg(args.ambient), ring, "polynomial")
    ideal_gens = parse_expressions(_read_arg(args.ideal), ring, "polynomial")
    if all(g.is_zero() for g in ambient_gens):
        raise DomainNote("all ambient generators are zero")
    bound = _ideal_bound(args, ambient_gens + ideal_gens)
    ambient = GradedIdeal.from_generators(ring, ambient_gens, bound)
    ideal = GradedIdeal.from_generators(ring, ideal_gens, bound)
    rep = linkage(ambient, ideal)
    back = linkage(ambient, rep.link)
    saturated = GradedIdeal.from_generators(ring, ideal_gens + ambient_gens, bound)
    result = {
        "link_generators": [g for _, g in minimal_generators(rep.link)],
        "quotient_hilbert": rep.quotient_hilbert,
        "generator_degrees": list(rep.generator_degrees),
        "is_cyclic": rep.is_cyclic,
        "double_link_returns_input": back.link == saturated,
    }
    return spec, result, bound, False


def _cmd_assoc_graded(args):
    spec = _need_ring(args)
    ring = spec.ring()
    if args.inverse is None:
        raise UsageError("assoc-graded reads a dual generator; give --inverse")
    gens = parse_expressions(_read_arg(args.inverse), ring, "inverse")
    if len(gens) != 1 or gens[0].is_zero():
        raise DomainNote("assoc-graded expects one nonzero dual generator")
    D, ideal = filtered_dual(gens[0], bound=args.bound)
    GI = associated_graded_ideal(ideal)
    GD = associated_graded_submodule(D)
    result = {
        "graded_ideal_generators": [g for _, g in minimal_generators(GI)],
        "dual_generator_count": len(dual_minimal_generators(GD)),
        "quotient_hilbert": hilbert_function(GI),
        "socle": socle(GI),
        "level": is_level(GD),
        "gorenstein": is_gorenstein(GI),
    }
    return spec, result, D.algebra.bound, False


def _cmd_tangents(args):
    spec, ring, side, gens = _one_side(args)
    if side == "inverse":
        D = generated_submodule(gens)
        ideal = annihilator_of_submodule(D, bound=args.bound)
    else:
        ideal = _ideal_from(args, ring, gens)
    prof = hom_dims(ideal)
    result = {
        "dims": dict(prof.dims),
        "negative_total": prof.negative_total,
        "tnt": prof.tnt,
        "socle_degree": prof.socle_degree,
        "generator_degrees": list(prof.generator_degrees),
    }
    return spec, result, ideal.bound, False


def _cmd_construct(args):
    kind = args.kind
    if kind == "random":
        if args.seed is None:
            args.seed = 0  # an unseeded draw uses seed 0, and provenance says so
        spec = _need_ring(args)
        ring = spec.ring()
        t = _socle_arg(args)
        for attempt in range(5):
            gens = random_dual_generators(ring, t, derived_seed(args.seed, attempt))
            D = generated_submodule(gens)
            if is_I_compressed(D):
                result = {
                    "generators": list(gens),
                    "hilbert": hilbert_function(D),
                    "type": generator_type(D),
                    "compressed": True,
                    "attempt": attempt,
                }
                return spec, result, None, False
        raise DomainNote("no compressed instance in 5 attempts")
    if kind == "power-sum":
        spec = _need_ring(args)
        ring = spec.ring()
        if args.points is None or args.scalars is None or args.a is None or args.s is None:
            raise UsageError("power-sum needs --points, --scalars, --a, --s")
        points = parse_point_list(args.points)
        scalars = [ring.field.of(c) for c in parse_int_list(args.scalars)]
        g = None
        if args.g is not None:
            g = parse_expression(_read_arg(args.g), ring, "polynomial")
        rep = power_sum_system(ring, points, scalars, args.a, args.s, g)
        result = {
            "f": rep.f,
            "gf": rep.gf,
            "h": rep.h,
            "ambient_h": rep.ambient_h,
            "general": rep.general,
            "clause_a_ok": rep.clause_a_ok,
            "clause_b_ok": rep.clause_b_ok,
            "min_pattern_ok": rep.min_pattern_ok,
            "iset_ok": rep.iset_ok,
        }
        return spec, result, None, False
    # the two ambient-quotient constructions share the monomial complete
    # intersection x_i^(e+1) with socle degree r*e and variables X1..Xr
    if args.r is None or args.e is None:
        raise UsageError(f"{kind} needs --r and --e")
    amb = monomial_ci_ambient(args.r, args.e, _parse_field(args.field))
    if kind == "gorenstein-ambient":
        if args.forms is None:
            raise UsageError("gorenstein-ambient needs --forms")
        forms = parse_expressions(_read_arg(args.forms), amb.ring, "polynomial")
        rep = gorenstein_ambient_quotient(amb.ideal, amb.f, forms)
        if rep.zero:
            raise DomainNote("the forms all annihilate the dual generator")
        result = {
            "h": rep.h,
            "type": rep.t,
            "ambient_h": rep.ambient_h,
            "wstar": rep.wstar,
            "n": rep.n,
            "predicted_h": rep.predicted_h,
            "matches_prediction": rep.matches_prediction,
            "map_shapes": {d: list(shape) for d, shape in rep.map_shapes.items()},
        }
        return None, result, None, rep.bound_limited
    if kind == "prnonempty":
        t = _socle_arg(args)
        if args.n is None:
            raise UsageError("prnonempty needs --n")
        rep = prnonempty_construct(amb.ideal, amb.f, t, args.n)
        result = {
            "forms": list(rep.forms),
            "h": rep.h,
            "predicted_h": rep.predicted_h,
            "type": rep.t,
            "requested_type": rep.requested_t,
            "realized": rep.realized,
            "series_identity_ok": rep.series_identity_ok,
            "violations": list(rep.violations),
        }
        return None, result, None, False
    raise UsageError(f"unknown construction {kind!r}")


def _cmd_series(args):
    mode = args.mode
    if mode == "wstar":
        if args.ambient_h is None or args.a is None:
            raise UsageError("wstar needs --ambient-h and --a")
        t = _socle_arg(args)
        Hd = dual_series(IntSeq(parse_int_list(args.ambient_h)), bound=1)
        wstar, n, limited = wstar_window(Hd, t, args.a)
        return None, {"wstar": wstar, "n": n}, None, limited
    if mode == "froberg":
        if args.base_h is None or args.n is None:
            raise UsageError("froberg needs --base-h and --n")
        base = TruncatedSeries(parse_int_list(args.base_h), 0, args.n)
        ci = parse_int_list(args.ci) if args.ci else []
        forms = parse_int_list(args.forms) if args.forms else []
        expected = froeberg_expected(base, ci, forms, args.n)
        return None, {"series": expected.as_intseq()}, args.n, False
    if mode == "koszul":
        if args.h is None or args.hq is None or args.degrees is None or args.n is None:
            raise UsageError("koszul needs --h, --hq, --degrees, --n")
        HM = TruncatedSeries(parse_int_list(args.h), 0, args.n)
        HMq = TruncatedSeries(parse_int_list(args.hq), 0, args.n)
        verdict = koszul_series_verdict(HM, HMq, parse_int_list(args.degrees), args.n)
        return None, {"verdict": verdict}, args.n, False
    raise UsageError(f"unknown series mode {mode!r}")


# ---------------------------------------------------------------------------
# Argument schema.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")
    common.add_argument("--ring", help='ring spec, e.g. "QQ[x,y]" or "GF(7)[x:3,y:2]"')
    common.add_argument("--seed", type=int, help="seed for randomized commands")
    common.add_argument("--bound", type=int, help="truncation bound override")

    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Exact Macaulay duality over QQ and GF(p): annihilators, "
        "Hilbert data, compressed-algebra bounds, tangents, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, helptext, **extra_flags):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.set_defaults(handler=handler)
        for flag, kwargs in extra_flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    side = {
        "ideal": {"help": "comma-separated polynomial generators ('-' reads stdin)"},
        "inverse": {"help": "comma-separated dual generators ('-' reads stdin)"},
    }
    cmd("annihilate", _cmd_annihilate, "annihilator in either direction", **side)
    cmd("hilbert", _cmd_hilbert, "Hilbert function of a quotient or dual", **side)
    cmd("socle", _cmd_socle, "socle type and level/Gorenstein verdicts", **side)
    cmd("profile", _cmd_profile, "multilevel filtration profile of a dual", **side)
    cmd(
        "iset",
        _cmd_iset,
        "I-set vectors, rank bounds, and permissibility of a socle type",
        socle={"help": 'socle type as "p:t(p),..."', "required": True},
    )
    cmd(
        "dims",
        _cmd_dims,
        "parameter/dimension comparison for an elementary component candidate",
        socle={"help": 'socle type as "p:t(p),..."', "required": True},
        r={"type": int, "required": True, "help": "number of variables"},
    )
    cmd(
        "linkage",
        _cmd_linkage,
        "link of an ideal inside a Gorenstein ambient",
        ambient={"help": "ambient complete-intersection generators", "required": True},
        ideal={"help": "generators of the ideal to link", "required": True},
    )
    cmd(
        "assoc-graded",
        _cmd_assoc_graded,
        "associated graded ideal and dual of a filtered (inhomogeneous) instance",
        inverse={"help": "one inhomogeneous dual generator"},
    )
    cmd("tangents", _cmd_tangents, "graded tangent dimensions and the tnt verdict", **side)

    construct = sub.add_parser(
        "construct", parents=[common], help="seeded and deterministic constructions"
    )
    construct.set_defaults(handler=_cmd_construct)
    construct.add_argument(
        "kind", choices=["power-sum", "random", "gorenstein-ambient", "prnonempty"]
    )
    construct.add_argument("--socle", help='socle type as "p:t(p),..."')
    construct.add_argument("--points", help='semicolon-separated points, e.g. "1,0;0,1"')
    construct.add_argument("--scalars", help="comma-separated nonzero scalars")
    construct.add_argument("--a", type=int, help="ambient socle degree")
    construct.add_argument("--s", type=int, help="target socle degree")
    construct.add_argument("--g", help="lowering form (power-sum)")
    construct.add_argument("--r", type=int, help="number of variables")
    construct.add_argument("--e", type=int, help="ambient power: ideal (x_i^(e+1))")
    construct.add_argument("--field", help='"QQ" (default) or "GF(p)"')
    construct.add_argument("--forms", help="comma-separated forms in X1..Xr")
    construct.add_argument("--n", type=int, help="window degree (prnonempty)")

    series = sub.add_parser(
        "series", parents=[common], help="w* window, expected series, Koszul verdict"
    )
    series.set_defaults(handler=_cmd_series)
    series.add_argument("mode", choices=["wstar", "froberg", "koszul"])
    series.add_argument("--socle", help='socle type as "p:t(p),..."')
    series.add_argument("--ambient-h", help="ambient Hilbert function, comma-separated")
    series.add_argument("--a", type=int, help="ambient socle degree")
    series.add_argument("--base-h", help="base Hilbert function, comma-separated")
    series.add_argument("--ci", help="complete-intersection degrees")
    series.add_argument("--forms", help="further generic form degrees")
    series.add_argument("--h", help="module series coefficients")
    series.add_argument("--hq", help="quotient series coefficients")
    series.add_argument("--degrees", help="form degrees, comma-separated")
    series.add_argument("--n", type=int, help="truncation exponent")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    out = sys.stdout
    json_mode = args.json
    try:
        spec, result, bound, limited = args.handler(args)
    except UsageError as err:
        _emit_error(out, json_mode, EXIT_USAGE, str(err))
        return EXIT_USAGE
    except ParseError as err:
        _emit_error(out, json_mode, EXIT_PARSE, err.message, offset=err.offset)
        return EXIT_PARSE
    except DomainNote as err:
        _emit_error(out, json_mode, EXIT_MATH, str(err), **err.extras)
        return EXIT_MATH
    except MathDomainError as err:
        _emit_error(out, json_mode, EXIT_MATH, str(err))
        return EXIT_MATH
    _emit(out, json_mode, spec, result, args.seed, bound, limited)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
