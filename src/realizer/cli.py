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

A command runs with Python's cyclic garbage collector paused, from parsing
its arguments to printing its result, and the collector is left as it was
found on every way out.  Formulas, derivations, terms, realizers and reals
are immutable trees that reference counting frees, and a command leaves no
reference cycles behind, so the collector's passes would free nothing: they
only rescan the live heap, which took about 8% of a demo request and made
extraction from a deep derivation grow faster than its size.  The library
functions do not pause it, since a program that calls them owns its
collector policy.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import sys
from fractions import Fraction

from . import arith


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


# each command imports its modules when it runs, so the user errors are
# looked up among the modules loaded: the error class of each module by name
_USER_ERRORS = {
    "sexpr": "ParseError",
    "arith": "ArithError",
    "terms": "TermError",
    "deduction": "DeductionError",
    "normalizer": "NormalizationError",
    "extraction": "ExtractionError",
    "learning": "LearningError",
    "reals": "RealError",
}
# the keys of monads.BUILTIN_MONADS, sorted, named without importing monads
_MONADS = ("exc", "id", "ir")


def _is_user_error(e: Exception) -> bool:
    return isinstance(e, (UsageError, OSError)) or any(
        isinstance(e, getattr(m, cls)) for name, cls in _USER_ERRORS.items()
        if (m := sys.modules.get(f"{__package__}.{name}")) is not None)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
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
    e.add_argument("--monad", choices=_MONADS, default="ir")

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
    ca.add_argument("--precision", type=int, default=None)  # reals.DEFAULT_MAX_PRECISION
    return p


def _fuel(flag, fallback: int) -> int:
    if flag is not None:
        if flag < 0:
            raise UsageError(f"--fuel must be a non-negative integer, got {flag}")
        return flag
    env = os.environ.get("REALIZER_FUEL")
    if not env:
        return fallback
    try:
        fuel = int(env)
    except ValueError:
        fuel = -1  # reported with the negative values below
    if fuel < 0:
        raise UsageError(f"REALIZER_FUEL must be a non-negative integer, got {env!r}")
    return fuel


def _load(path: str) -> sexpr.ProofFile:
    from . import sexpr
    with open(path, encoding="utf-8") as fh:
        try:
            return sexpr.parse_file(fh.read())  # read decodes all, so e.start is the offset
        except UnicodeDecodeError as e:
            raise UsageError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def _named(table: dict, name: str, what: str):
    if name not in table:
        raise UsageError(f"no {what} named {name!r}; have {', '.join(sorted(table)) or 'none'}")
    return table[name]


def _say(note: str, machine: bool):
    print("; " + note.replace("\n", "\n; ") if machine else note)


def _state_entries(specs: list[str], rels) -> learning.State:
    from . import learning
    entries = {}
    for raw in specs:
        head, eq, wit = raw.partition("=")
        if not eq or not head.endswith(")") or "(" not in head:
            raise UsageError(f"state entries look like rel(1,2)=3, got {raw!r}")
        rel, _, inner = head[:-1].partition("(")
        try:
            args = tuple(int(a) for a in inner.split(",")) if inner else ()
            witness = int(wit)
        except ValueError:
            raise UsageError(f"non-numeric state entry {raw!r}") from None
        key = (rel, args)
        if entries.setdefault(key, witness) != witness:  # a state is a partial map
            raise UsageError(f"two witnesses for {learning._key_text(key)}: "
                             f"{entries[key]} and {witness}")
    return learning.State.of(entries, rels)


def _print_state(s: learning.State, machine: bool) -> str:
    from . import learning
    if machine:
        forms = " ".join(
            f"({rel} ({' '.join(map(str, args))}) {w})" for (rel, args), w in s.entries)
        return f"(state {forms})"
    return " ".join(f"{learning._key_text(key)}={w}" for key, w in s.entries)


def cmd_check(args) -> int:
    from . import deduction as dd, sexpr, terms as tm
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
    n = len(pf.order)
    print(f"(checked {n})" if args.format == "sexpr" else f"ok: {n} definitions")
    return 0


def cmd_extract(args) -> int:
    from . import extraction, monads, sexpr, terms as tm
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    t = extraction.extract(d, monads.BUILTIN_MONADS[args.monad], pf.rels, pf.fns)
    if args.format != "sexpr":
        print(f"type: {sexpr.print_type(tm.typecheck(t))}")
    print(sexpr.print_term(t))
    return 0


def cmd_run(args) -> int:
    from . import learning, sexpr, terms as tm
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
        value = sexpr.print_term(value)
        print(f"(learned {_print_state(s2, True)} {value})" if machine
              else f"state: {_print_state(s2, False) or '-'}\nvalue: {value}")
        return 0
    out = learning.run_realizer(t, s, pf.rels, fuel)
    if isinstance(out, learning.Regular):
        value = sexpr.print_term(out.value)
        print(f"(regular {value})" if machine else f"outcome: regular\nvalue: {value}")
    else:
        e = out.exc
        exc = sexpr.print_term(tm.exc_const(e.rel, e.args, e.witness))
        print(f"(exceptional {exc})" if machine
              else f"outcome: exceptional\nexception: {learning._key_text(e.key)}={e.witness}")
    return 0


def cmd_normalize(args) -> int:
    from . import normalizer as nm, sexpr
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    trace = [] if args.trace else None
    nf = nm.normalize_derivation(d, _fuel(args.fuel, nm.DEFAULT_FUEL),
                                 rels=pf.rels, fns=pf.fns, trace=trace)
    for line in trace or ():
        _say(line, args.format == "sexpr")
    print(sexpr.print_derivation(nf))
    return 0


def cmd_extract_witness(args) -> int:
    from . import normalizer as nm
    pf = _load(args.file)
    d = _named(pf.derivs, args.deriv, "derivation")
    value, _ = nm.extract_witness(d, _fuel(args.fuel, nm.DEFAULT_FUEL),
                                  rels=pf.rels, fns=pf.fns)
    print(value if args.format == "sexpr" else f"witness: {value}")
    return 0


def _precision(value: int) -> int:
    if value < 0:
        raise UsageError(f"--precision must be a non-negative integer, got {value}")
    return value


def _point(chunk: str) -> tuple[Fraction, Fraction]:
    coords = chunk.split(",")
    if len(coords) != 2:
        raise UsageError(f"bad --points: each point needs two coordinates, got {chunk!r}")
    try:
        return Fraction(coords[0]), Fraction(coords[1])
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --points: {e}") from None


def cmd_least_element(args) -> int:
    from . import reals
    try:
        values = [Fraction(v) for v in args.values.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --values: {e}") from None
    precision = _precision(args.precision)
    machine = args.format == "sexpr"
    index, s, trace = reals.least_element(
        [reals.constant(v) for v in values], precision)
    for line in trace:
        _say(line, machine)
    print(f"(result (index {index}) {_print_state(s, True)})" if machine
          else f"index: {index}\nstate: {_print_state(s, False) or '-'}")
    return 0


def cmd_convex_angle(args) -> int:
    from . import reals
    points = [reals.point(*_point(chunk)) for chunk in args.points.split(";")]
    if len(points) < 3:
        raise UsageError(f"--points needs at least three points, got {len(points)}")
    precision = reals.DEFAULT_MAX_PRECISION if args.precision is None else _precision(args.precision)
    machine = args.format == "sexpr"
    a, b, c, s, trace = reals.convex_angle(points, max_precision=precision)
    for line in trace:
        _say(line, machine)
    print(f"(result (angle {a} {b} {c}) {_print_state(s, True)})" if machine
          else f"angle: {a} {b} {c}\nstate: {_print_state(s, False) or '-'}")
    return 0


_COMMANDS = {
    "check": cmd_check,
    "extract": cmd_extract,
    "run": cmd_run,
    "normalize": cmd_normalize,
    "extract-witness": cmd_extract_witness,
}


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


@arith.interned  # reading and running share one table
def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "demo":
            fn = cmd_least_element if args.demo == "least-element" else cmd_convex_angle
        else:
            fn = _COMMANDS[args.command]
        return fn(args)
    except Exception as e:  # noqa: BLE001 - what is not a user error is our bug
        if _is_user_error(e):
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
