"""Simply typed terms with primitive recursion, sums, and effect constants.

The object language is a lambda calculus over the ground types Unit, Nat,
State and Ex, closed under arrows, products and sums.  Binders use de Bruijn
indices.  Constants carry their type parameters explicitly; nothing is
inferred.  Reduction is weak (never under a binder) and leftmost-innermost,
with guarded recursion: ``rec`` unfolds only while its numeral argument stays
below the guard, and otherwise collapses to a type-directed dummy value.

Types and terms have no text form of their own: :mod:`sexpr` is the only
printer, and the messages here that show a type or a term print through it.

``query``/``eval``/``exc`` constants are inert here unless an oracle is
supplied to :func:`step`/:func:`normalize`; the learning module provides the
oracle that interprets them against an ambient knowledge state.

:func:`normalize` runs a call-by-value environment machine: closures pair a
lambda with its environment, naturals are Python ints, beta costs O(1), and
an explicit stack replaces Python recursion, so deep terms need no stack.
The value is read back to a term at the end (a closure's body gets its
environment substituted; nothing under a binder is reduced).  Fuel counts
contractions -- beta, a constant rule, an oracle answer -- which are exactly
the steps of the substitution stepper :func:`step`, so a fuel bound means the
same for both.  :func:`step` and :func:`subst` stay as the reference
semantics the tests compare against.

A natural is built as one literal, ``Num``, which is a value: ``rec``'s
counter, ``prim``'s result and the read-back.  ``succ`` of a literal is a
value the stepper leaves and the machine holds as the next int, so the two
normal forms agree once each succ chain is folded into one literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .arith import printable, structural

DEFAULT_FUEL = 10**6

INFINITY = None  # rec guard for unbounded unfolding


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TBase:
    """A ground type, named as files spell it: Unit, Nat, State or Ex."""

    name: str


@structural
@dataclass(frozen=True)
class TArrow:
    dom: "Ty"
    cod: "Ty"


@structural
@dataclass(frozen=True)
class TProd:
    left: "Ty"
    right: "Ty"


@structural
@dataclass(frozen=True)
class TSum:
    left: "Ty"
    right: "Ty"


Ty = TBase | TArrow | TProd | TSum

UNIT = TBase("Unit")
NAT = TBase("Nat")
STATE = TBase("State")
EX = TBase("Ex")


def arrows(*tys: Ty) -> Ty:
    """Right-nested arrow type from a list ``A1 ... An B``."""
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = TArrow(ty, out)
    return out


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    index: int


@structural
@dataclass(frozen=True)
class Lam:
    param: Ty
    body: "Term"


@structural
@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Num:
    """A natural number literal: a value, as ``zero`` is."""

    value: int


@dataclass(frozen=True)
class Const:
    kind: str
    tys: tuple[Ty, ...] = ()
    # extra payload: rec guard (int | None), relation id for query/eval,
    # function symbol for prim, (rel, args, witness) for exc
    tag: object = None


Term = Var | Lam | App | Num | Const

# constant kinds
K_UNIT = "unit"
K_ZERO = "zero"
K_SUCC = "succ"
K_PAIR = "pair"
K_PRL = "prl"
K_PRR = "prr"
K_INL = "inl"
K_INR = "inr"
K_CASE = "case"
K_REC = "rec"
K_EXMERGE = "exmerge"
K_QUERY = "query"
K_EVAL = "eval"
K_PRIM = "prim"
K_EXC = "exc"
K_STATEREP = "staterep"

unit_const = Const(K_UNIT)
zero = Const(K_ZERO)
succ = Const(K_SUCC)
staterep = Const(K_STATEREP)


def pair_c(a: Ty, b: Ty) -> Const:
    return Const(K_PAIR, (a, b))


def prl_c(a: Ty, b: Ty) -> Const:
    return Const(K_PRL, (a, b))


def prr_c(a: Ty, b: Ty) -> Const:
    return Const(K_PRR, (a, b))


def inl_c(a: Ty, b: Ty) -> Const:
    return Const(K_INL, (a, b))


def inr_c(a: Ty, b: Ty) -> Const:
    return Const(K_INR, (a, b))


def case_c(a: Ty, b: Ty, c: Ty) -> Const:
    return Const(K_CASE, (a, b, c))


def rec_c(result: Ty, guard: Optional[int] = INFINITY) -> Const:
    """Guarded recursor; ``guard=None`` is the unbounded form."""
    return Const(K_REC, (result,), guard)


exmerge_const = Const(K_EXMERGE)


def query_c(rel: str, arity: int) -> Const:
    return Const(K_QUERY, (), (rel, arity))


def eval_c(rel: str, arity: int) -> Const:
    return Const(K_EVAL, (), (rel, arity))


def prim_c(symbol: str, fn) -> Const:
    """Opaque constant for a primitive recursive function symbol.

    fn is an arith.PrimFn; it rides along in the tag so saturated
    applications can be evaluated without a symbol registry.
    """
    return Const(K_PRIM, (), (symbol, fn))


def exc_const(rel: str, args: tuple[int, ...], witness: int) -> Const:
    return Const(K_EXC, (), (rel, args, witness))


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def as_numeral(t: Term) -> Optional[int]:
    """The natural n when t is succ^n(zero) (or a literal), else None."""
    n = 0
    while True:
        match t:
            case Const(kind="zero"):
                return n
            case Num(value):
                return printable(n + value)
            case App(Const(kind="succ"), inner):
                n += 1
                t = inner
            case _:
                return None


# ---------------------------------------------------------------------------
# errors


class TermError(Exception):
    pass


class UnboundVariable(TermError):
    def __init__(self, index: int, depth: int):
        super().__init__(f"unbound variable {index} at binder depth {depth}")
        self.index = index
        self.depth = depth


class TypeMismatch(TermError):
    """expected (a type, or a description of one) where the subterm term,
    found where it stands, has type found."""

    def __init__(self, expected: "Ty | str", found: "Ty", where: str, term: "Term"):
        from .sexpr import print_term, print_type  # sexpr imports this module

        want = expected if type(expected) is str else print_type(expected, brief=True)
        super().__init__(f"expected {want}, found {print_type(found, brief=True)}"
                         f" in {where} {print_term(term, brief=True)}")
        self.expected = expected
        self.found = found
        self.where = where


class IllTyped(TermError):
    pass


class FuelExhausted(TermError):
    def __init__(self, steps: int, term: Term):
        super().__init__(f"no normal form within {steps} steps")
        self.steps = steps
        self.term = term


# ---------------------------------------------------------------------------
# typing

# TyCtx: index 0 is the innermost binder
TyCtx = tuple[Ty, ...]


def const_type(c: Const) -> Ty:
    match c.kind:
        case "unit":
            return UNIT
        case "zero":
            return NAT
        case "succ":
            return TArrow(NAT, NAT)
        case "pair":
            a, b = c.tys
            return arrows(a, b, TProd(a, b))
        case "prl":
            a, b = c.tys
            return TArrow(TProd(a, b), a)
        case "prr":
            a, b = c.tys
            return TArrow(TProd(a, b), b)
        case "inl":
            a, b = c.tys
            return TArrow(a, TSum(a, b))
        case "inr":
            a, b = c.tys
            return TArrow(b, TSum(a, b))
        case "case":
            a, b, z = c.tys
            return arrows(TSum(a, b), TArrow(a, z), TArrow(b, z), z)
        case "rec":
            (res,) = c.tys
            return arrows(arrows(NAT, TArrow(NAT, res), res), NAT, res)
        case "exmerge":
            return arrows(EX, EX, EX)
        case "query":
            _, arity = c.tag
            return arrows(STATE, *([NAT] * arity), TSum(UNIT, NAT))
        case "eval":
            _, arity = c.tag
            return arrows(*([NAT] * (arity + 1)), TSum(UNIT, EX))
        case "prim":
            _, fn = c.tag
            return arrows(*([NAT] * fn.arity), NAT)
        case "exc":
            return EX
        case "staterep":
            return STATE
    raise IllTyped(f"unknown constant kind {c.kind!r}")


_CLOSE_LAM, _CHECK_APP = object(), object()


def typecheck(t: Term, ctx: TyCtx = ()) -> Ty:
    """Type of t in ctx.  Raises UnboundVariable or TypeMismatch.

    The walk keeps an explicit stack, so deep terms need no Python recursion,
    and one list of binder types, so each binder costs the same at any depth.
    """
    types: list[Ty] = []
    scope = list(reversed(ctx))  # the innermost binder last
    # terms push their type; (_CLOSE_LAM, param) leaves a binder and wraps the
    # body's type in an arrow; (_CHECK_APP, app) pops argument and head
    work: list = [t]
    while work:
        x = work.pop()
        if type(x) is tuple:
            job, y = x
            if job is _CLOSE_LAM:
                scope.pop()
                types.append(TArrow(y, types.pop()))
                continue
            aty = types.pop()
            fty = types.pop()
            if not isinstance(fty, TArrow):
                raise TypeMismatch("a function type", fty, "application head", y.fn)
            if fty.dom != aty:
                raise TypeMismatch(fty.dom, aty, "argument", y.arg)
            types.append(fty.cod)
            continue
        match x:
            case Var(index):
                if not 0 <= index < len(scope):
                    raise UnboundVariable(index, len(scope))
                types.append(scope[-1 - index])
            case Lam(param, body):
                scope.append(param)
                work.append((_CLOSE_LAM, param))
                work.append(body)
            case App(fn, arg):
                work.append((_CHECK_APP, x))
                work.append(arg)
                work.append(fn)
            case Num(value):
                if value < 0:
                    raise IllTyped("negative literal")
                types.append(NAT)
            case Const():
                types.append(const_type(x))
            case _:
                raise IllTyped(f"not a term: {x!r}")
    return types[0]


# ---------------------------------------------------------------------------
# de Bruijn machinery


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    match t:
        case Var(index):
            return Var(index + by) if index >= cutoff else t
        case Lam(param, body):
            return Lam(param, shift(body, by, cutoff + 1))
        case App(fn, arg):
            return App(shift(fn, by, cutoff), shift(arg, by, cutoff))
        case _:
            return t


def subst(t: Term, replacement: Term, index: int = 0) -> Term:
    """Substitute replacement for Var(index), adjusting indices."""
    match t:
        case Var(i):
            if i == index:
                return replacement
            return Var(i - 1) if i > index else t
        case Lam(param, body):
            return Lam(param, subst(body, shift(replacement, 1), index + 1))
        case App(fn, arg):
            return App(subst(fn, replacement, index), subst(arg, replacement, index))
        case _:
            return t


# ---------------------------------------------------------------------------
# dummy values (rec guard exhaustion)


def dummy(ty: Ty) -> Term:
    """A closed value of type ty, built on an explicit stack."""
    out: list[Term] = []
    work: list = [ty]  # types to build, and (ty,) to build ty from its parts' values
    while work:
        x = work.pop()
        match x:
            case TBase("Unit"):
                out.append(unit_const)
            case TBase("Nat"):
                out.append(zero)
            case TArrow(_, part) | TSum(part, _):
                work += ((x,), part)
            case TProd(a, b):
                work += ((x,), b, a)
            case (TArrow(dom, _),):
                out[-1] = Lam(dom, out[-1])
            case (TProd(a, b),):
                out[-2:] = [app(pair_c(a, b), *out[-2:])]
            case (TSum(a, b),):
                out[-1] = App(inl_c(a, b), out[-1])
            case _:
                from .sexpr import print_type  # sexpr imports this module

                raise IllTyped(f"no dummy value at type {print_type(x, brief=True)}")
    return out[0]


# ---------------------------------------------------------------------------
# reduction

# An oracle decides query/eval applications; see learning.StateOracle.
Oracle = Callable[[Const, list[Term]], Optional[Term]]


def spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _delta(head: Term, args: list[Term], oracle: Optional[Oracle]) -> Optional[Term]:
    """Contract a head redex (beta or constant rule) at the root, if any."""
    if isinstance(head, Lam) and args:
        return app(subst(head.body, args[0]), *args[1:])
    if not isinstance(head, Const):
        return None
    k = head.kind
    if k == "prl" and len(args) >= 1:
        h, a = spine(args[0])
        if isinstance(h, Const) and h.kind == "pair" and len(a) == 2:
            return app(a[0], *args[1:])
    elif k == "prr" and len(args) >= 1:
        h, a = spine(args[0])
        if isinstance(h, Const) and h.kind == "pair" and len(a) == 2:
            return app(a[1], *args[1:])
    elif k == "case" and len(args) >= 3:
        h, a = spine(args[0])
        if isinstance(h, Const) and h.kind in ("inl", "inr") and len(a) == 1:
            branch = args[1] if h.kind == "inl" else args[2]
            return app(branch, a[0], *args[3:])
    elif k == "rec" and len(args) >= 2:
        m = as_numeral(args[1])
        if m is not None:
            guard = head.tag
            (res,) = head.tys
            if guard is INFINITY or m < guard:
                return app(args[0], Num(m), App(rec_c(res, m), args[0]), *args[2:])
            return app(dummy(res), *args[2:])
    elif k == "exmerge" and len(args) >= 2:
        if _is_ex_value(args[0]) and _is_ex_value(args[1]):
            return app(args[0], *args[2:])
    elif k == "prim":
        _, fn = head.tag
        arity = fn.arity
        if len(args) >= arity:
            vals = [as_numeral(a) for a in args[:arity]]
            if None not in vals:
                from . import arith

                out = arith.eval_prim(fn, vals)
                return app(Num(out), *args[arity:])
    elif k in ("query", "eval") and oracle is not None:
        return oracle(head, args)
    return None


def _step(t: Term, oracle: Optional[Oracle], rightmost: bool) -> Optional[Term]:
    if type(t) is not App:
        return None
    head, args = spine(t)
    order = range(len(args) - 1, -1, -1) if rightmost else range(len(args))
    # arguments first (innermost); the head of a spine is never an App
    for i in order:
        r = _step(args[i], oracle, rightmost)
        if r is not None:
            return app(head, *args[:i], r, *args[i + 1 :])
    return _delta(head, args, oracle)


def step(t: Term, oracle: Optional[Oracle] = None, strategy: str = "left") -> Optional[Term]:
    """One innermost reduction step, or None when t is (weak) normal.

    The reference semantics :func:`normalize` is tested against.  strategy
    picks which argument of a spine to reduce first; "left" is the order
    normalize follows, "right" exists for confluence sampling.
    """
    if strategy not in ("left", "right"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return _step(t, oracle, strategy == "right")


def _is_ex_value(t: Term) -> bool:
    return isinstance(t, Const) and t.kind == "exc"


# ---------------------------------------------------------------------------
# the reduction machine
#
# Machine values are Python ints (literals), a Const or a free Var standing
# alone, _Spine (a Const, free-Var or int head applied to values) and
# _Closure (a Lam with its environment).  An environment is a chain of cells
# (value, rest) ending in None, innermost binder first; an index past its end
# names a free variable of the input, kept as Var(index - length).  Every
# value lives at binder depth 0, because reduction never enters a Lam, and
# no list held by a value is ever mutated.


class _Closure:
    __slots__ = ("lam", "env")

    def __init__(self, lam: Lam, env):
        self.lam = lam
        self.env = env


class _Spine:
    __slots__ = ("head", "args")

    def __init__(self, head: Const | Var, args: list):
        self.head = head
        self.args = args


def _head_value(h: Term, env):
    """The value of a spine head (Var, Lam, Num or Const) in env."""
    th = type(h)
    if th is Var:
        i = h.index
        if i < 0:
            return h
        e = env
        while e is not None:
            if not i:
                return e[0]
            e = e[1]
            i -= 1
        return h if i == h.index else Var(i)
    if th is Lam:
        return _Closure(h, env)
    if th is Num:
        if h.value < 0:
            raise IllTyped("negative literal")
        return h.value
    return 0 if h.kind == K_ZERO else h


def _contract(c: Const, args: list, oracle: Optional[Oracle]):
    """Rule for constant c applied to values args (at least one), as in _delta.

    Returns (fn, rest, is_term): the contractum is fn applied to the values
    rest, where fn is a value, or a closed term when is_term.  None when no
    rule applies.
    """
    k = c.kind
    if k == K_PRL or k == K_PRR:
        p = args[0]
        if type(p) is _Spine and type(p.head) is Const and p.head.kind == K_PAIR \
                and len(p.args) == 2:
            return p.args[0 if k == K_PRL else 1], args[1:], False
    elif k == K_CASE:
        s = args[0]
        if len(args) >= 3 and type(s) is _Spine and type(s.head) is Const \
                and s.head.kind in (K_INL, K_INR) and len(s.args) == 1:
            return args[1 if s.head.kind == K_INL else 2], s.args + args[3:], False
    elif k == K_REC:
        if len(args) >= 2 and type(args[1]) is int:
            m = args[1]
            (res,) = c.tys
            if c.tag is INFINITY or m < c.tag:
                return args[0], [m, _Spine(rec_c(res, m), [args[0]])] + args[2:], False
            return dummy(res), args[2:], True
    elif k == K_EXMERGE:
        if len(args) >= 2 and _is_ex_value(args[0]) and _is_ex_value(args[1]):
            return args[0], args[2:], False
    elif k == K_PRIM:
        _, fn = c.tag
        arity = fn.arity
        vals = args[:arity]
        if len(vals) == arity and all(type(a) is int for a in vals):
            from . import arith

            return arith.eval_prim(fn, vals), args[arity:], False
    elif (k == K_QUERY or k == K_EVAL) and oracle is not None:
        r = oracle(c, [_readback(a) for a in args])
        if r is not None:
            return r, [], True
    return None


def normalize(t: Term, fuel: int = DEFAULT_FUEL, oracle: Optional[Oracle] = None) -> Term:
    """Reduce to weak normal form: the normal form :func:`step` reaches.

    A call-by-value environment machine with an explicit stack.  It
    evaluates the arguments of a spine left to right, then applies the head
    to all of them at once, as the stepper contracts at a spine's head.
    Fuel counts contractions (beta, a constant rule, an oracle answer),
    which are exactly the stepper's steps: fuel k succeeds when the stepper
    needs fewer than k steps, and otherwise FuelExhausted(fuel, t) is
    raised.  The oracle is handed read-back terms.
    """
    if fuel <= 0:
        raise FuelExhausted(fuel, t)
    left = fuel
    # one frame per spine whose arguments are being evaluated:
    # (head term, env, argument terms, their values so far, extra arguments)
    frames: list[tuple] = []
    term, env, extra = t, None, []
    while True:
        # evaluate term in env, then apply its value to extra
        if type(term) is App:
            args = []
            while type(term) is App:
                args.append(term.arg)
                term = term.fn
            args.reverse()
            frames.append((term, env, args, [], extra))
            term, extra = args[0], []
            continue
        fn, args = _head_value(term, env), extra
        while True:
            # apply the value fn to the values args, then evaluate the next
            # term in the outer loop: a contractum, the next argument of the
            # innermost pending spine, or its head once the arguments are in
            if args:
                tf = type(fn)
                if tf is _Closure:
                    left -= 1
                    if left <= 0:
                        raise FuelExhausted(fuel, t)
                    term, env, extra = fn.lam.body, (args[0], fn.env), args[1:]
                    break
                if tf is _Spine:
                    fn, args = fn.head, fn.args + args
                    continue
                if tf is not Const:  # an int or a free Var
                    value = _Spine(fn, args)
                elif fn.kind == K_SUCC and type(args[0]) is int:
                    fn, args = printable(args[0] + 1), args[1:]
                    continue
                elif (r := _contract(fn, args, oracle)) is None:
                    value = _Spine(fn, args)
                else:
                    left -= 1
                    if left <= 0:
                        raise FuelExhausted(fuel, t)
                    fn, args, is_term = r
                    if is_term:
                        term, env, extra = fn, None, args
                        break
                    continue
            else:
                value = fn
            # hand value to the innermost pending spine
            if not frames:
                return _readback(value)
            head, env, terms, vals, extra = frames[-1]
            vals.append(value)
            if len(vals) < len(terms):
                term, extra = terms[len(vals)], []
            else:
                frames.pop()
                term, extra = head, vals + extra if extra else vals
            break


# read-back jobs: a value at a binder depth, a closure body under binders,
# and the two constructors that assemble their results
_QUOTE, _BODY, _BUILD_APP, _BUILD_LAM = range(4)


def _readback(value) -> Term:
    """The term a machine value stands for, at binder depth 0.

    A closure's body gets the read-back of its environment substituted under
    the binder, each value shifted past the binders it lands under; literals
    and redexes in the body stay as they are.
    """
    out: list[Term] = []
    work: list[tuple] = [(_QUOTE, value, 0)]
    while work:
        job = work.pop()
        op = job[0]
        if op == _QUOTE:
            _, v, d = job
            tv = type(v)
            if tv is int:
                out.append(Num(v))
            elif tv is _Spine:
                work.append((_BUILD_APP, len(v.args)))
                work.extend((_QUOTE, a, d) for a in reversed(v.args))
                work.append((_QUOTE, v.head, d))
            elif tv is _Closure:
                if v.env is None and d == 0:
                    out.append(v.lam)
                else:
                    work.append((_BUILD_LAM, v.lam.param))
                    work.append((_BODY, v.lam.body, v.env, 1, d))
            elif tv is Var and d and v.index >= 0:
                out.append(Var(v.index + d))
            else:
                out.append(v)
        elif op == _BODY:
            # t sits under b binders inside a closure over env read at depth d
            _, t, env, b, d = job
            tt = type(t)
            if env is None and d == 0:
                out.append(t)
            elif tt is Var:
                i = t.index - b
                if i < 0:
                    out.append(t)
                    continue
                e = env
                while e is not None and i:
                    e = e[1]
                    i -= 1
                if e is not None:
                    work.append((_QUOTE, e[0], d + b))
                else:
                    out.append(Var(i + d + b))
            elif tt is Lam:
                work.append((_BUILD_LAM, t.param))
                work.append((_BODY, t.body, env, b + 1, d))
            elif tt is App:
                work.append((_BUILD_APP, 1))
                work.append((_BODY, t.arg, env, b, d))
                work.append((_BODY, t.fn, env, b, d))
            else:
                out.append(t)
        elif op == _BUILD_APP:
            n = job[1]
            args = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(app(out.pop(), *args))
        else:
            out.append(Lam(job[1], out.pop()))
    return out[0]
