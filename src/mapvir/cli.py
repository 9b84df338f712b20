"""Command-line front end.

Subcommands: bracket, pbw, verma, check, split, module, classify, selftest.
Each handler builds its report as a payload dict, plus a plain rendering
where it has one, and hands both to ``_emit``, the one place that prints a
report: the plain form unless --format is json, else the payload with the
algebra, basis-order and convention metadata as JSON with sorted keys.
bracket, pbw and verma default to text; module --weights renders TSV for
--format tsv; check, split, module and classify are JSON in every format.
Exit status 0 on success, 1 on validation errors (bad files, bad
expressions), 2 on computational errors (window overflow, mode range).
``main`` loads the -A algebra (default Q) once and hands it to the
handler.  Each handler imports the modules it uses, so one process compiles
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Algebra, algebra_from_spec, algebra_to_spec, basis_order_note
from .errors import AlgebraMismatch, MapVirError, MissingWindow, UnsupportedKind
from .liealg import CONVENTION_NOTE, bracket, format_lie_element, mode_max

VALIDATION_ERRORS = (ValueError, TypeError, KeyError, OSError,
                     json.JSONDecodeError, UnsupportedKind, MissingWindow,
                     AlgebraMismatch)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_algebra(path: str | None) -> Algebra:
    if path is None:
        return Algebra.rationals()
    return algebra_from_spec(_load_json(path))


def _metadata(algebra: Algebra) -> dict:
    return {"algebra": algebra_to_spec(algebra),
            "basis_order": basis_order_note(algebra),
            "convention": CONVENTION_NOTE,
            "mode_max": mode_max()}


def _emit(args, alg: Algebra, payload: dict, text: str | None = None):
    """Print one report: ``text`` when the handler has a plain rendering and
    --format is not json, else ``payload`` with the metadata as sorted JSON."""
    if text is not None and args.format != "json":
        print(text)
    else:
        print(json.dumps({**payload, "metadata": _metadata(alg)}, indent=2, sort_keys=True))


def _witness_str(ideal) -> str | None:
    return None if ideal is None else str(ideal)


def _parse_offsets(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


# -- subcommand handlers ------------------------------------------------------


def _cmd_bracket(args, alg: Algebra) -> int:
    from .exprs import parse_lie_element

    result = format_lie_element(bracket(parse_lie_element(args.x, alg),
                                        parse_lie_element(args.y, alg)))
    _emit(args, alg, {"result": result}, result)
    return 0


def _cmd_pbw(args, alg: Algebra) -> int:
    from .pbw import format_env, format_monomial, height_hm, pbw_basis, straighten

    if args.basis:
        if args.n is None:
            raise ValueError("pbw --basis needs -n N")
        monomials = [format_monomial(m, alg) for m in pbw_basis(args.n, alg)]
        _emit(args, alg, {"weight": args.n, "count": len(monomials), "monomials": monomials},
              "\n".join([str(len(monomials)), *monomials]))
        return 0
    if args.straighten is not None:
        from .exprs import parse_word

        env = straighten(parse_word(args.straighten, alg))
        height, hm = height_hm(env)
        normal_form, highest = format_env(env), format_env(hm)
        _emit(args, alg, {"normal_form": normal_form, "height": height, "highest_term": highest},
              f"{normal_form}\nheight {height}; hm {highest}")
        return 0
    raise ValueError("pbw needs --basis N or --straighten WORD")


def _cmd_verma(args, alg: Algebra) -> int:
    from .pbw import format_env
    from .verma import (functional_from_spec, functional_to_spec, module_dims, quotient_dims,
                        singular_vectors)

    if args.n is None:
        raise ValueError("verma queries need a depth: -n N")
    if args.dims:
        dims = list(module_dims(alg, args.n))
        _emit(args, alg, {"module_dims": dims}, " ".join(map(str, dims)))
        return 0
    if args.phi is None:
        raise ValueError("this verma query needs -phi FILE")
    phi = functional_from_spec(alg, _load_json(args.phi))
    if args.quotient_dims:
        dims = list(quotient_dims(phi, args.n))
        _emit(args, alg, {"quotient_dims": dims, "functional": functional_to_spec(phi)},
              " ".join(map(str, dims)))
        return 0
    if args.singular:
        vectors = [f"({format_env(v.env)}) v" for v in singular_vectors(phi, args.n)]
        _emit(args, alg, {"depth": args.n, "dimension": len(vectors), "vectors": vectors},
              "\n".join([str(len(vectors)), *vectors]))
        return 0
    raise ValueError("verma needs one of --dims, --quotient-dims, --singular")


def _cmd_check(args, alg: Algebra) -> int:
    from .pbw import format_env
    from .verma import check_quasifinite, check_verma_reducible, functional_from_spec

    phi = functional_from_spec(alg, _load_json(args.phi))
    if not (args.reducible or args.quasifinite):
        raise ValueError("check needs --quasifinite or --reducible")
    check = check_verma_reducible if args.reducible else check_quasifinite
    verdict = check(phi, bound=args.bound, assume_exact=args.assume_exact)
    payload = {"status": verdict.status, "note": verdict.note}
    if args.reducible:
        vec = verdict.singular_vector
        payload["witness"] = _witness_str(verdict.witness_ideal)
        payload["singular_vector"] = None if vec is None else f"({format_env(vec.env)}) v"
    else:
        payload["witness"] = _witness_str(verdict.witness)
    if verdict.candidate is not None:
        payload["candidate"] = _witness_str(verdict.candidate)
    _emit(args, alg, payload)
    return 0


def _cmd_split(args, alg: Algebra) -> int:
    from .scalars import format_scalar
    from .verma import functional_from_spec, functional_to_spec, split_phi

    pieces = split_phi(functional_from_spec(alg, _load_json(args.phi)))
    _emit(args, alg, {"components": [{"point": format_scalar(p),
                                      "functional": functional_to_spec(piece)}
                                     for (p, _), piece in zip(alg.factors, pieces)]})
    return 0


def _cmd_module(args, alg: Algebra) -> int:
    from .classify import trichotomy_profile
    from .evalmod import annihilator_support, module_from_spec, weight_multiplicities

    handle = module_from_spec(alg, _load_json(args.module))
    if args.weights:
        if args.offsets is None:
            raise ValueError("--weights needs --offsets LO:HI")
        table = weight_multiplicities(handle, _parse_offsets(args.offsets))
        _emit(args, alg, {"weights": table.to_json_dict()},
              table.to_tsv() if args.format == "tsv" else None)
        return 0
    if args.annihilator:
        _emit(args, alg, {"annihilator": annihilator_support(handle).to_json_dict()})
        return 0
    if args.trichotomy:
        offsets = _parse_offsets(args.offsets) if args.offsets else (-8, 8)
        _emit(args, alg, {"trichotomy": trichotomy_profile(handle, offsets).to_json_dict()})
        return 0
    raise ValueError("module needs one of --weights, --annihilator, --trichotomy")


def _cmd_classify(args, alg: Algebra) -> int:
    from .classify import classify_module
    from .evalmod import IntSeriesEvalHandle, module_from_spec
    from .verma import functional_from_spec

    if args.phi is not None:
        phi = functional_from_spec(alg, _load_json(args.phi))
        record = classify_module(phi, lowest=args.lowest, bound=args.bound,
                                 assume_exact=args.assume_exact)
    elif args.module is not None:
        handle = module_from_spec(alg, _load_json(args.module))
        if not isinstance(handle, IntSeriesEvalHandle):
            raise ValueError("classify -M expects an int_series_eval module spec")
        record = classify_module(handle.spec, point=handle.point)
    else:
        raise ValueError("classify needs -phi FILE or -M FILE")
    _emit(args, alg, record.to_json_dict(explain=args.explain))
    return 0


def _cmd_selftest(args, _alg) -> int:
    from .selftest import run_selftest

    results = run_selftest(args.seed)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    print(f"seed {args.seed}: {sum(1 for _, ok, _ in results if ok)}"
          f"/{len(results)} suites passed")
    return 0 if all_ok else 2


# -- argument wiring ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapvir",
        description="Exact computations for map Virasoro algebras Vir (x) A")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default="text"):
        p.add_argument("-A", "--algebra", metavar="FILE",
                       help="algebra spec JSON (default: the rationals)")
        p.add_argument("--format", choices=("text", "json", "tsv"),
                       default=fmt_default)

    p = sub.add_parser("bracket", help="evaluate a Lie bracket")
    p.add_argument("x")
    p.add_argument("y")
    add_common(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("pbw", help="PBW basis and straightening")
    p.add_argument("--basis", action="store_true",
                   help="list the weight -n PBW basis")
    p.add_argument("-n", type=int, metavar="N", default=None)
    p.add_argument("--straighten", metavar="WORD",
                   help="normal-order a ';'-separated word of lowering elements")
    add_common(p)
    p.set_defaults(fn=_cmd_pbw)

    p = sub.add_parser("verma", help="Verma module queries")
    p.add_argument("--dims", action="store_true",
                   help="graded dims of the Verma module through depth N")
    p.add_argument("--quotient-dims", action="store_true",
                   help="graded dims of the irreducible quotient through depth N")
    p.add_argument("--singular", action="store_true",
                   help="singular vectors at depth N")
    p.add_argument("-n", type=int, metavar="N", default=None)
    p.add_argument("-phi", "--functional", dest="phi", metavar="FILE")
    add_common(p)
    p.set_defaults(fn=_cmd_verma)

    bound_help = ("detect the recurrence of a sampled functional on its values "
                  "up to t^BOUND; an exact one always reports its minimal recurrence")
    p = sub.add_parser("check", help="quasifiniteness / reducibility checks")
    p.add_argument("--quasifinite", action="store_true")
    p.add_argument("--reducible", action="store_true")
    p.add_argument("-phi", "--functional", dest="phi", metavar="FILE",
                   required=True)
    p.add_argument("--bound", type=int, default=None, help=bound_help)
    p.add_argument("--assume-exact", action="store_true")
    add_common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("split", help="CRT factorization of a functional")
    p.add_argument("-phi", "--functional", dest="phi", metavar="FILE",
                   required=True)
    add_common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("module", help="weight tables, annihilators, profiles")
    p.add_argument("-M", "--module", metavar="FILE", required=True)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--annihilator", action="store_true")
    p.add_argument("--trichotomy", action="store_true")
    p.add_argument("--offsets", metavar="LO:HI",
                   help="offset interval; write --offsets=-4:2 for negative lows")
    add_common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_module)

    p = sub.add_parser("classify", help="canonical classification record")
    p.add_argument("-phi", "--functional", dest="phi", metavar="FILE")
    p.add_argument("-M", "--module", metavar="FILE")
    p.add_argument("--lowest", action="store_true")
    p.add_argument("--bound", type=int, default=None, help=bound_help)
    p.add_argument("--assume-exact", action="store_true")
    p.add_argument("--explain", action="store_true")
    add_common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("selftest", help="run the randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _load_algebra(getattr(args, "algebra", None)))
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MapVirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
