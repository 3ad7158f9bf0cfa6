"""Command-line front end.

Subcommands:

    slope D G                      exact slope bound a/b
    class {maroni|ce|x} D [--at G] divisor-class coefficients
    invariants --d --g --ch2e --ch2f --c1sq     family invariants
    pencil KIND [--gr N] [--g G] [--dv D]       pencil intersection record
    chow eval RING EXPR            evaluate a class expression in a ring
    graphs enum --d --g            two-vertex boundary graphs
    yeff certify --d --g [--emit FILE]          effectivity certificate
    selftest                       run the built-in identity suite

All numeric output is exact-rational; `--json` switches any subcommand to a
machine-readable form.  Exit codes: 0 success, 1 usage error, 2 domain
error, 3 certification failure.  Each subcommand imports only the engine
modules it uses, when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import EngineError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _rational(text: str) -> Fraction:
    """An exact rational option value such as "3", "-1/2", "0.25" or "3e2".
    The text's length plus its decimal exponent bounds the digits of the
    numerator and of the denominator, so a value that would pass the
    interpreter's int/str limit is refused before any of it is built."""
    from .symkernel import max_digits
    bound = max_digits()
    size = len(text)
    if size <= bound:
        _, _, exponent = text.lower().partition("e")
        try:
            size += abs(int(exponent or 0))
        except ValueError:
            pass                        # malformed: Fraction refuses it below
    if size > bound:
        raise argparse.ArgumentTypeError(
            f"rational number past the int/str limit of {bound} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _cmd_slope(args) -> int:
    from .divisor_classes import slope_bound
    value = slope_bound(args.d, args.g)
    if args.json:
        print(json.dumps({"d": args.d, "g": args.g, "slope": str(value)}))
    else:
        print(value)
    return 0


def _cmd_class(args) -> int:
    from .divisor_classes import ce_class, class_x, maroni_class
    if args.which == "maroni":
        cls = maroni_class(args.d)
        extra = {}
    elif args.which == "ce":
        cls = ce_class(args.d)
        extra = {}
    else:
        data = class_x(args.d)
        cls = data["X"]
        extra = {"a": str(data["a"]), "b": str(data["b"]),
                 "weightM": str(data["weightM"]), "weightCE": str(data["weightCE"])}
    if args.at is not None:
        values = cls.eval_at(args.at)
        payload = {k: str(v) for k, v in values.items()}
    else:
        payload = cls.to_json()
    payload.update(extra)
    if args.json:
        print(json.dumps(payload))
    else:
        print(_table(sorted((k, str(v)) for k, v in payload.items()
                            if k != "boundary")))
    return 0


def _cmd_invariants(args) -> int:
    from .family_calc import ChernData, invariants_from_chern
    chern = ChernData(args.d, args.g, args.ch2e, args.ch2f, args.c1sq)
    inv = invariants_from_chern(chern)
    rows = [(name, str(value.eval({}))) for name, value in inv.as_dict().items()]
    if args.json:
        print(json.dumps(dict(rows)))
    else:
        print(_table(rows))
    return 0


class _PencilKinds:
    """`family_calc.PENCIL_KINDS` as the choices of `pencil`, read only when
    a kind is checked or the help is printed, so that building the parser
    does not import `family_calc`."""

    def __iter__(self):
        from .family_calc import PENCIL_KINDS
        return iter(PENCIL_KINDS)

    def __contains__(self, kind) -> bool:
        return kind in iter(self)


def _cmd_pencil(args) -> int:
    from .family_calc import PENCIL_TABLE, partial_pencil_record
    # a flag given to a kind whose row does not take it is a usage error,
    # not a value to drop; the vertex genus defaults to 0
    inputs = PENCIL_TABLE[args.kind].inputs
    given = {name: getattr(args, name) for name in ("gr", "g", "dv")
             if getattr(args, name) is not None}
    unused = [f"--{name}" for name in given if name not in inputs]
    if unused:
        print(f"error: pencil {args.kind} takes no {', '.join(unused)}", file=sys.stderr)
        return 1
    defaults = {"gr": 0} if "gr" in inputs else {}
    record = partial_pencil_record(args.kind, **{**defaults, **given})
    if args.json:
        print(json.dumps(record.to_json()))
        return 0
    rows = [("kind", record.kind)]
    rows += [(k, str(v)) for k, v in sorted(record.params.items())]
    rows += [("lambda", str(record.lam)), ("delta", str(record.delta))]
    rows += [(k, str(v)) for k, v in sorted(record.boundary_hits.items())]
    rows += [("X", str(record.x_hit)), ("M", str(record.maroni_hit)),
             ("CE", str(record.ce_hit))]
    print(_table(rows))
    for note in record.notes:
        print(f"note: {note}")
    return 0


def _cmd_chow(args) -> int:
    from .chow import parse_class, ring_from_spec
    ring = ring_from_spec(args.ring)
    cls = parse_class(ring, args.expr)
    result = {"ring": ring.spec, "normalForm": str(cls)}
    if ring.top_degree is not None and (cls.is_zero()
                                        or cls.degrees() == {ring.top_degree}):
        result["integral"] = str(cls.integrate())
    if args.json:
        print(json.dumps(result))
    else:
        print(_table(sorted(result.items())))
    return 0


def _cmd_graphs(args) -> int:
    from .graphs import labelled_two_vertex
    graphs = labelled_two_vertex(args.d, args.g)
    if args.json:
        print(json.dumps([{"label": label, **gr.to_json()}
                          for label, gr in graphs.items()]))
    else:
        for label in graphs:
            print(label)
        print(f"total: {len(graphs)} graphs")
    return 0


def _cmd_certify(args) -> int:
    from .yeff import certify
    cert = certify(args.d, args.g)
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as handle:
                json.dump(cert.to_json(), handle, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc.strerror}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(cert.to_json()))
    else:
        print(f"(d, g) = ({cert.d}, {cert.g}); a = {cert.a}, b = {cert.b}")
        for label, res in sorted(cert.per_graph.items()):
            print(f"  c >= {str(res.lower_bound).rjust(8)}   {label}")
        for note in cert.notes:
            print(f"note: {note}")
        if cert.certified:
            print(f"certified ({len(cert.per_graph)} graphs)")
        else:
            print(f"certification FAILED: {cert.status}")
    return 0 if cert.certified else 3


def _cmd_selftest(args) -> int:
    from .selftest import run
    ok = run(verbose=not args.json)
    if args.json:
        print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitzcalc",
                     description="exact divisor calculus for low-degree covers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slope", help="exact slope bound")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("class", help="divisor-class coefficients")
    p.add_argument("which", choices=("maroni", "ce", "x"))
    p.add_argument("d", type=int)
    p.add_argument("--at", type=int, default=None, metavar="G")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("invariants", help="family invariants from Chern data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--ch2e", type=_rational, required=True)
    p.add_argument("--ch2f", type=_rational, required=True)
    p.add_argument("--c1sq", type=_rational, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("pencil", help="pencil intersection record")
    p.add_argument("kind", choices=_PencilKinds(), metavar="kind",
                   help="one of: %(choices)s")
    p.add_argument("--gr", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--dv", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pencil)

    p = sub.add_parser("chow", help="Chow-ring evaluation")
    chow_sub = p.add_subparsers(dest="chow_command", required=True)
    pe = chow_sub.add_parser("eval")
    pe.add_argument("ring", help="ring spec, e.g. p1xp1 or projbundle:3:u+v")
    pe.add_argument("expr")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=_cmd_chow)

    p = sub.add_parser("graphs", help="boundary-graph enumeration")
    graphs_sub = p.add_subparsers(dest="graphs_command", required=True)
    pg = graphs_sub.add_parser("enum")
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--g", type=int, required=True)
    pg.add_argument("--json", action="store_true")
    pg.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("yeff", help="boundary-effectivity certification")
    yeff_sub = p.add_subparsers(dest="yeff_command", required=True)
    pc = yeff_sub.add_parser("certify")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--g", type=int, required=True)
    pc.add_argument("--emit", default=None, metavar="FILE")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_certify)

    p = sub.add_parser("selftest", help="run the built-in identity suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
