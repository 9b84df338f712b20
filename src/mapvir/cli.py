"""Command-line front end.

Subcommands: bracket, pbw, verma, check, split, module, classify, selftest.
Reports are JSON (machine-readable, stable key order) or text/TSV; every JSON
report carries algebra, basis-order and convention metadata.  Exit status 0
on success, 1 on validation errors (bad files, bad expressions), 2 on
computational errors (window overflow, mode range).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    Algebra,
    algebra_from_spec,
    algebra_to_spec,
    local_decomposition,
)
from .classify import CONVENTION_NOTE, classify_module, trichotomy_profile
from .errors import AlgebraMismatch, MapVirError, MissingWindow, UnsupportedKind
from .evalmod import (
    annihilator_support,
    module_from_spec,
    weight_multiplicities,
)
from .exprs import parse_lie_element, parse_word
from .liealg import bracket, format_lie_element, mode_max
from .pbw import basis_order_note, format_env, format_monomial, height_hm, pbw_basis, straighten
from .scalars import format_scalar
from .selftest import run_selftest
from .verma import (
    check_quasifinite,
    check_verma_reducible,
    functional_from_spec,
    functional_to_spec,
    module_dims,
    quotient_dims,
    singular_vectors,
    split_phi,
)

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


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _witness_str(ideal) -> str | None:
    return None if ideal is None else str(ideal)


def _parse_offsets(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


# -- subcommand handlers ------------------------------------------------------


def _cmd_bracket(args) -> int:
    alg = _load_algebra(args.algebra)
    x = parse_lie_element(args.x, alg)
    y = parse_lie_element(args.y, alg)
    result = bracket(x, y)
    if args.format == "json":
        _emit_json({"result": format_lie_element(result),
                    "metadata": _metadata(alg)})
    else:
        print(format_lie_element(result))
    return 0


def _cmd_pbw(args) -> int:
    alg = _load_algebra(args.algebra)
    if args.basis:
        if args.n is None:
            raise ValueError("pbw --basis needs -n N")
        monomials = pbw_basis(args.n, alg)
        if args.format == "json":
            _emit_json({"weight": args.n,
                        "count": len(monomials),
                        "monomials": [format_monomial(m, alg) for m in monomials],
                        "metadata": _metadata(alg)})
        else:
            print(len(monomials))
            for m in monomials:
                print(format_monomial(m, alg))
        return 0
    if args.straighten is not None:
        word = parse_word(args.straighten, alg)
        env = straighten(word)
        height, hm = height_hm(env)
        if args.format == "json":
            _emit_json({"normal_form": format_env(env),
                        "height": height,
                        "highest_term": format_env(hm),
                        "metadata": _metadata(alg)})
        else:
            print(format_env(env))
            print(f"height {height}; hm {format_env(hm)}")
        return 0
    raise ValueError("pbw needs --basis N or --straighten WORD")


def _cmd_verma(args) -> int:
    alg = _load_algebra(args.algebra)
    if args.n is None:
        raise ValueError("verma queries need a depth: -n N")
    if args.dims:
        dims = list(module_dims(alg, args.n))
        if args.format == "json":
            _emit_json({"module_dims": dims, "metadata": _metadata(alg)})
        else:
            print(" ".join(str(d) for d in dims))
        return 0
    if args.phi is None:
        raise ValueError("this verma query needs -phi FILE")
    phi = functional_from_spec(alg, _load_json(args.phi))
    if args.quotient_dims:
        dims = list(quotient_dims(phi, args.n))
        if args.format == "json":
            _emit_json({"quotient_dims": dims,
                        "functional": functional_to_spec(phi),
                        "metadata": _metadata(alg)})
        else:
            print(" ".join(str(d) for d in dims))
        return 0
    if args.singular:
        vectors = singular_vectors(phi, args.n)
        payload = {"depth": args.n,
                   "dimension": len(vectors),
                   "vectors": [f"({format_env(v.env)}) v" for v in vectors],
                   "metadata": _metadata(alg)}
        if args.format == "json":
            _emit_json(payload)
        else:
            print(payload["dimension"])
            for s in payload["vectors"]:
                print(s)
        return 0
    raise ValueError("verma needs one of --dims, --quotient-dims, --singular")


def _cmd_check(args) -> int:
    alg = _load_algebra(args.algebra)
    phi = functional_from_spec(alg, _load_json(args.phi))
    if not (args.reducible or args.quasifinite):
        raise ValueError("check needs --quasifinite or --reducible")
    check = check_verma_reducible if args.reducible else check_quasifinite
    verdict = check(phi, bound=args.bound, assume_exact=args.assume_exact)
    payload = {"status": verdict.status, "note": verdict.note, "metadata": _metadata(alg)}
    if args.reducible:
        vec = verdict.singular_vector
        payload["witness"] = _witness_str(verdict.witness_ideal)
        payload["singular_vector"] = None if vec is None else f"({format_env(vec.env)}) v"
    else:
        payload["witness"] = _witness_str(verdict.witness)
    if verdict.candidate is not None:
        payload["candidate"] = _witness_str(verdict.candidate)
    _emit_json(payload)  # emitted with sorted keys
    return 0


def _cmd_split(args) -> int:
    alg = _load_algebra(args.algebra)
    phi = functional_from_spec(alg, _load_json(args.phi))
    pieces = split_phi(phi)
    points = [f.point for f in local_decomposition(alg)]
    _emit_json({"components": [{"point": format_scalar(p),
                                "functional": functional_to_spec(piece)}
                               for p, piece in zip(points, pieces)],
                "metadata": _metadata(alg)})
    return 0


def _cmd_module(args) -> int:
    alg = _load_algebra(args.algebra)
    handle = module_from_spec(alg, _load_json(args.module))
    if args.weights:
        if args.offsets is None:
            raise ValueError("--weights needs --offsets LO:HI")
        table = weight_multiplicities(handle, _parse_offsets(args.offsets))
        if args.format == "tsv":
            print(table.to_tsv())
        else:
            _emit_json({"weights": table.to_json_dict(),
                        "metadata": _metadata(alg)})
        return 0
    if args.annihilator:
        report = annihilator_support(handle)
        _emit_json({"annihilator": report.to_json_dict(),
                    "metadata": _metadata(alg)})
        return 0
    if args.trichotomy:
        offsets = _parse_offsets(args.offsets) if args.offsets else (-8, 8)
        profile = trichotomy_profile(handle, offsets)
        _emit_json({"trichotomy": profile.to_json_dict(),
                    "metadata": _metadata(alg)})
        return 0
    raise ValueError("module needs one of --weights, --annihilator, --trichotomy")


def _cmd_classify(args) -> int:
    alg = _load_algebra(args.algebra)
    if args.phi is not None:
        phi = functional_from_spec(alg, _load_json(args.phi))
        record = classify_module(phi, lowest=args.lowest, bound=args.bound,
                                 assume_exact=args.assume_exact)
    elif args.module is not None:
        spec = _load_json(args.module)
        if spec.get("variant") != "int_series_eval":
            raise ValueError("classify -M expects an int_series_eval module spec")
        handle = module_from_spec(alg, spec)
        record = classify_module(handle.spec, point=handle.point)
    else:
        raise ValueError("classify needs -phi FILE or -M FILE")
    payload = record.to_json_dict(explain=args.explain)
    payload["metadata"] = _metadata(alg)
    _emit_json(payload)
    return 0


def _cmd_selftest(args) -> int:
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

    p = sub.add_parser("check", help="quasifiniteness / reducibility checks")
    p.add_argument("--quasifinite", action="store_true")
    p.add_argument("--reducible", action="store_true")
    p.add_argument("-phi", "--functional", dest="phi", metavar="FILE",
                   required=True)
    p.add_argument("--bound", type=int, default=None)
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
    p.add_argument("--bound", type=int, default=None)
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
        return args.fn(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MapVirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
