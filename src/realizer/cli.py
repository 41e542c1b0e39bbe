"""Command-line front end.

    realizer check FILE
    realizer extract FILE --deriv NAME --monad {id,exc,ir}
    realizer run FILE --term NAME [--state KEY=V ...] [--learn] [--fuel N] [--trace]
    realizer normalize FILE --deriv NAME [--fuel N] [--trace]
    realizer extract-witness FILE --deriv NAME [--fuel N]
    realizer demo least-element --values 5,7/2,3 --precision K
    realizer demo convex-angle --points "0,0;1,0;1/2,2"

Results go to stdout; with --format sexpr the result is a single form and
any trace lines become ';' comments.  Exit status is 0 on success, 1 on a
user error (bad syntax, failed check, module errors), 2 on an internal
invariant violation.  REALIZER_FUEL overrides the default fuel.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import arith
from . import deduction as dd
from . import extraction
from . import learning
from . import monads
from . import normalizer as nm
from . import reals
from . import sexpr
from . import terms as tm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-3" for a value but "-3,5" for an option; no option
        # here starts with a digit, so read every "-<digit>" word as a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


_USER_ERRORS = (
    UsageError,
    sexpr.ParseError,
    arith.ArithError,
    tm.TermError,
    dd.DeductionError,
    nm.NormalizationError,
    extraction.ExtractionError,
    learning.LearningError,
    reals.RealError,
    OSError,
    ValueError,
)


def _build_parser() -> _Parser:
    p = _Parser(prog="realizer", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("human", "sexpr"), default="human")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common])
    c.add_argument("file")

    e = sub.add_parser("extract", parents=[common])
    e.add_argument("file")
    e.add_argument("--deriv", required=True)
    e.add_argument("--monad", choices=sorted(monads.BUILTIN_MONADS), default="ir")

    r = sub.add_parser("run", parents=[common])
    r.add_argument("file")
    r.add_argument("--term", required=True)
    r.add_argument("--state", action="append", default=[], metavar="REL(ARGS)=W")
    r.add_argument("--learn", action="store_true")
    r.add_argument("--fuel", type=int, default=None)
    r.add_argument("--trace", action="store_true")

    n = sub.add_parser("normalize", parents=[common])
    n.add_argument("file")
    n.add_argument("--deriv", required=True)
    n.add_argument("--fuel", type=int, default=None)
    n.add_argument("--trace", action="store_true")

    w = sub.add_parser("extract-witness", parents=[common])
    w.add_argument("file")
    w.add_argument("--deriv", required=True)
    w.add_argument("--fuel", type=int, default=None)

    demo = sub.add_parser("demo").add_subparsers(dest="demo", required=True)
    le = demo.add_parser("least-element", parents=[common])
    le.add_argument("--values", required=True, metavar="p/q,...")
    le.add_argument("--precision", type=int, required=True)
    ca = demo.add_parser("convex-angle", parents=[common])
    ca.add_argument("--points", required=True, metavar="p/q,p/q;...")
    ca.add_argument("--precision", type=int, default=reals.DEFAULT_MAX_PRECISION)
    return p


def _fuel(flag, fallback: int) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("REALIZER_FUEL")
    return int(env) if env else fallback


def _load(path: str) -> sexpr.ProofFile:
    with open(path) as fh:
        return sexpr.parse_file(fh.read())


def _named(table: dict, name: str, what: str):
    if name not in table:
        raise UsageError(f"no {what} named {name!r}; have {', '.join(sorted(table)) or 'none'}")
    return table[name]


def _say(line: str, machine: bool):
    print(f"; {line}" if machine else line)


def _state_entries(specs: list[str], rels) -> learning.State:
    entries = {}
    for raw in specs:
        head, eq, wit = raw.partition("=")
        if not eq or not head.endswith(")") or "(" not in head:
            raise UsageError(f"state entries look like rel(1,2)=3, got {raw!r}")
        rel, _, inner = head[:-1].partition("(")
        try:
            args = tuple(int(a) for a in inner.split(",")) if inner else ()
            entries[(rel, args)] = int(wit)
        except ValueError:
            raise UsageError(f"non-numeric state entry {raw!r}") from None
    return learning.State.of(entries, rels)


def _print_state(s: learning.State, machine: bool) -> str:
    if machine:
        forms = " ".join(
            f"({rel} ({' '.join(map(str, args))}) {w})" for (rel, args), w in s.entries)
        return f"(state {forms})"
    return " ".join(f"{rel}({','.join(map(str, args))})={w}" for (rel, args), w in s.entries)


def cmd_check(args) -> int:
    pf = _load(args.file)
    for kind, name in pf.order:
        if kind == "defterm":
            ty = tm.typecheck(pf.terms[name])
            _say(f"term {name} : {sexpr.print_type(ty)}", args.format == "sexpr")
        elif kind == "defder":
            root = dd.check_derivation(pf.derivs[name], pf.rels, pf.fns)
            _say(f"der {name} proves {sexpr.print_formula(root.goal)}",
                 args.format == "sexpr")
        else:
            _say(f"{kind[3:]} {name}", args.format == "sexpr")
    if args.format == "sexpr":
        print(f"(checked {len(pf.order)})")
    else:
        print(f"ok: {len(pf.order)} definitions")
    return 0


def cmd_extract(args) -> int:
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    t = extraction.extract(d, monads.BUILTIN_MONADS[args.monad], pf.rels, pf.fns)
    if args.format == "sexpr":
        print(sexpr.print_term(t))
    else:
        print(f"type: {sexpr.print_type(tm.typecheck(t))}")
        print(sexpr.print_term(t))
    return 0


def cmd_run(args) -> int:
    pf = _load(args.file)
    t = _named(pf.terms, args.term, "term")
    s = _state_entries(args.state, pf.rels)
    fuel = _fuel(args.fuel, tm.DEFAULT_FUEL)
    machine = args.format == "sexpr"
    if args.learn:
        s2, value, trace = learning.learn(t, s, pf.rels, fuel)
        if args.trace:
            for line in trace.lines:
                _say(line, machine)
        if machine:
            print(f"(learned {_print_state(s2, True)} {sexpr.print_term(value)})")
        else:
            print(f"state: {_print_state(s2, False) or '-'}")
            print(f"value: {sexpr.print_term(value)}")
        return 0
    out = learning.run_realizer(t, s, pf.rels, fuel)
    if isinstance(out, learning.Regular):
        if machine:
            print(f"(regular {sexpr.print_term(out.value)})")
        else:
            print("outcome: regular")
            print(f"value: {sexpr.print_term(out.value)}")
    else:
        e = out.exc
        if machine:
            print(f"(exceptional (exc {e.rel} ({' '.join(map(str, e.args))}) {e.witness}))")
        else:
            print("outcome: exceptional")
            print(f"exception: {e.rel}({','.join(map(str, e.args))})={e.witness}")
    return 0


def cmd_normalize(args) -> int:
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    dd.check_derivation(d, pf.rels, pf.fns)
    trace: list[str] = []
    nf = nm.normalize_derivation(d, _fuel(args.fuel, nm.DEFAULT_FUEL),
                                 rels=pf.rels, fns=pf.fns, trace=trace)
    machine = args.format == "sexpr"
    if args.trace:
        for line in trace:
            _say(line, machine)
    print(sexpr.print_derivation(nf))
    return 0


def cmd_extract_witness(args) -> int:
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    dd.check_derivation(d, pf.rels, pf.fns)
    value, _ = nm.extract_witness(d, _fuel(args.fuel, nm.DEFAULT_FUEL),
                                  rels=pf.rels, fns=pf.fns)
    if args.format == "sexpr":
        print(value)
    else:
        print(f"witness: {value}")
    return 0


def cmd_least_element(args) -> int:
    try:
        values = [Fraction(v) for v in args.values.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --values: {e}") from None
    machine = args.format == "sexpr"
    index, s, trace = reals.least_element(
        [reals.constant(v) for v in values], args.precision)
    for line in trace:
        _say(line, machine)
    if machine:
        print(f"(result (index {index}) {_print_state(s, True)})")
    else:
        print(f"index: {index}")
        print(f"state: {_print_state(s, False) or '-'}")
    return 0


def cmd_convex_angle(args) -> int:
    try:
        points = [
            reals.point(*(Fraction(c) for c in chunk.split(",")))
            for chunk in args.points.split(";")
        ]
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --points: {e}") from None
    machine = args.format == "sexpr"
    a, b, c, s, trace = reals.convex_angle(points, max_precision=args.precision)
    for line in trace:
        _say(line, machine)
    if machine:
        print(f"(result (angle {a} {b} {c}) {_print_state(s, True)})")
    else:
        print(f"angle: {a} {b} {c}")
        print(f"state: {_print_state(s, False) or '-'}")
    return 0


_COMMANDS = {
    "check": cmd_check,
    "extract": cmd_extract,
    "run": cmd_run,
    "normalize": cmd_normalize,
    "extract-witness": cmd_extract_witness,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "demo":
            fn = cmd_least_element if args.demo == "least-element" else cmd_convex_angle
        else:
            fn = _COMMANDS[args.command]
        return fn(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - anything else is our bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
