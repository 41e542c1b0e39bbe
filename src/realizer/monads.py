"""Syntactic monads over the term calculus.

A monad here is a type operator T together with closed terms
unit : A -> TA, star : (A -> TB) -> TA -> TB and merge : TA -> TB -> T(AxB),
subject to three laws that hold up to reduction:

  M1  star unit x       = x
  M2  star f (unit x)   = f x
  M3  merge (unit x) (unit y) = unit (pair x y)

Three instances are provided: the identity monad, the exception monad
(TA = A + Ex) and the interactive monad (TA = State -> A + Ex).  Laws are
checked extensionally at ground types: both sides are applied to sampled
arguments (and, for the interactive monad, to a state under a sampled
knowledge state) and compared as normal forms.

Each monad's unit, star and merge are meta-level combinators: Python
functions that take the terms they combine and build the applied result,
with the function arguments of star given as Python functions from terms to
terms.  They build with named variables (Name, NVar, NLam) and contract as
they go, so no administrative redex is ever built (Danvy & Filinski,
"Representing Control", 1992; Danvy & Nielsen, "A first-order one-pass CPS
transformation", 2003).  beta contracts a call-by-value redex when its
argument is a variable, or a value the body uses at most once; an argument
that is not a value stays bound by a redex in the place where it is
evaluated, so evaluation order and cost never change.  close turns a named
term into de Bruijn form in one pass, and a closed subterm goes in as it is,
so nothing is shifted.  The meta-level combinators define a monad; the closed
ones (MonadSpec.unit_of, star_of and merge_of, star_n, raise_n) are their
eta-expansions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import terms as tm
from .sexpr import print_term, print_type
from .terms import (
    App,
    Const,
    Lam,
    Term,
    Ty,
    TArrow,
    TProd,
    TSum,
    Var,
    app,
    case_c,
    exmerge_const,
    inl_c,
    inr_c,
    pair_c,
    prl_c,
    prr_c,
)


# ---------------------------------------------------------------------------
# named construction


class Name:
    """The identity of one binder while a term is built.

    uses counts the variables made for it, bound is the term a contracted
    redex put in its place, and level is its binder depth while close runs.
    """

    __slots__ = ("uses", "bound", "level")

    def __init__(self):
        self.uses = 0
        self.bound: Optional[Term] = None
        self.level: Optional[int] = None


class NVar:
    """An occurrence of a named variable."""

    __slots__ = ("name",)

    def __init__(self, name: Name):
        self.name = name


class NLam:
    """An abstraction binding a name."""

    __slots__ = ("name", "param", "body")

    def __init__(self, name: Name, param: Ty, body):
        self.name = name
        self.param = param
        self.body = body


def var(n: Name) -> NVar:
    """A fresh occurrence of n; make one per place the variable is used."""
    n.uses += 1
    return NVar(n)


def lam(ty: Ty, body: Callable[[Name], object]) -> NLam:
    """lam x:ty. body(x), with x a fresh name."""
    n = Name()
    return NLam(n, ty, body(n))


# constructors the machine leaves unevaluated, with the most arguments they take
_INERT = {tm.K_PAIR: 2, tm.K_INL: 1, tm.K_INR: 1, tm.K_SUCC: 1, tm.K_REC: 1}


def is_value(t) -> bool:
    """A call-by-value value: a variable, an abstraction, a constant, a
    literal, or a constructor (or a recursor short of its numeral) applied
    to values -- what evaluates without a contraction."""
    todo = [t]
    while todo:
        t = todo.pop()
        n = 0
        while type(t) is App:
            todo.append(t.arg)
            t = t.fn
            n += 1
        if n and (type(t) is not Const or n > _INERT.get(t.kind, 0)):
            return False
    return True


def beta(fn, *args):
    """fn applied to args, one at a time, each redex contracted when it can be.

    A redex (lam x. b) a becomes b with a for x when a is a variable, or a
    value and x is used at most once; the substitution is recorded on x's
    name and made by close.  A redex kept in head position, ((lam x. b) e) a,
    becomes (lam x. b a) e, which evaluates e and a in the same order, so
    that the inner abstraction can meet a.
    """
    for a in args:
        fn = _beta1(fn, a)
    return fn


def _beta1(fn, a):
    h = fn
    while type(h) is NVar and h.name.bound is not None:
        h = h.name.bound
    if type(h) is NLam:
        n = h.name
        if type(a) is NVar:
            _resolve(a.name).uses += n.uses - 1
            n.bound = a
            return h.body
        if n.uses <= 1 and is_value(a):
            n.bound = a
            return h.body
        fn = h
    elif type(fn) is App and type(fn.fn) is NLam:
        kept = fn.fn
        return App(NLam(kept.name, kept.param, _beta1(kept.body, a)), fn.arg)
    return App(fn, a)


def let(arg, ty: Ty, body: Callable[[object], object], uses: int = 1):
    """body(x) for x standing for arg, where body uses x `uses` times.

    arg goes in place when it is a variable, or a value used at most once;
    otherwise the result is (lam x. body(x)) arg, so arg is evaluated once,
    where it stood.
    """
    if type(arg) is NVar:
        _resolve(arg.name).uses += uses - 1
        return body(arg)
    if uses <= 1 and is_value(arg):
        return body(arg)
    n = Name()
    n.uses = uses
    return App(NLam(n, ty, body(NVar(n))), arg)


def _lams(tys, body: Callable[..., object]):
    """lam x1. ... lam xk. body(x1, ..., xk) over the types tys."""
    def under(i: int, xs: tuple):
        if i == len(tys):
            return body(*xs)
        return lam(tys[i], lambda n: under(i + 1, xs + (var(n),)))
    return under(0, ())


_APPLY = object()  # close's marker: apply the last two results


def _resolve(n: Name) -> Name:
    """The last name of the chain of variables n was bound to.

    Each name on the way is bound straight to the last one, so that a chain
    is walked once however often its names are met.
    """
    last = n
    while type(last.bound) is NVar:
        last = last.bound.name
    while n is not last:
        n.bound, n = NVar(last), n.bound.name
    return last


def close(t, free: tuple[Name, ...] = ()) -> Term:
    """The de Bruijn term of the named term t, in one pass.

    free lists the names t may use without binding them, outermost first;
    they become its free variables, the last one Var 0.  A name bound by a
    contracted redex is replaced by its term.  Plain Lam and Var nodes pass
    through unchanged: they come from a de Bruijn subterm whose variables all
    refer to binders inside it.
    """
    for i, n in enumerate(free):
        n.level = i - len(free)
    out: list = []
    # terms to translate, _APPLY, and (param,) closing an abstraction; the
    # binder depth d is that of the next term on the stack
    work: list = [t]
    d = 0
    while work:
        x = work.pop()
        tx = type(x)
        if tx is App:
            work += (_APPLY, x.arg, x.fn)
        elif x is _APPLY:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif tx is tuple:
            d -= 1
            out[-1] = Lam(x[0], out[-1])
        elif tx is NVar:
            n = _resolve(x.name)
            if n.bound is not None:
                work.append(n.bound)
            elif n.level is None:
                raise ValueError("a variable outside the scope of its binder")
            else:
                out.append(Var(d - n.level - 1))
        elif tx is NLam:
            x.name.level = d
            d += 1
            work += ((x.param,), x.body)
        elif tx is Lam:
            d += 1
            work += ((x.param,), x.body)
        else:
            out.append(x)
    return out[0]


# ---------------------------------------------------------------------------
# monads


@dataclass(frozen=True)
class MonadSpec:
    """A monad: its type operator and its meta-level combinators, unit(v, a),
    star(f, x, a, b) and merge(x, y, a, b), with f a Python function from a
    term of type a to one of type T b."""

    name: str
    type_op: Callable[[Ty], Ty]
    unit: Callable
    star: Callable
    merge: Callable

    def unit_of(self, a: Ty) -> Term:
        return close(lam(a, lambda x: self.unit(var(x), a)))

    def star_of(self, a: Ty, b: Ty) -> Term:
        return close(_lams((TArrow(a, self.type_op(b)), self.type_op(a)),
                           lambda f, x: self.star(lambda v: beta(f, v), x, a, b)))

    def merge_of(self, a: Ty, b: Ty) -> Term:
        return close(_lams((self.type_op(a), self.type_op(b)),
                           lambda x, y: self.merge(x, y, a, b)))


def _merge_branches(a: Ty, b: Ty, right: Callable[[], object]) -> tuple[NLam, NLam]:
    """merge's branches on the left outcome, (on a value, on an exception).

    Each cases on the right outcome, which right() builds inside the
    branch; both monads merge into A x B + Ex.
    """
    prod = TProd(a, b)
    out = TSum(prod, tm.EX)
    on_left = lam(a, lambda x: app(
        case_c(b, tm.EX, out),
        right(),
        lam(b, lambda y: App(inl_c(prod, tm.EX), app(pair_c(a, b), var(x), var(y)))),
        lam(tm.EX, lambda e: App(inr_c(prod, tm.EX), var(e))),
    ))
    on_ex = lam(tm.EX, lambda e: app(
        case_c(b, tm.EX, out),
        right(),
        lam(b, lambda y: App(inr_c(prod, tm.EX), var(e))),
        lam(tm.EX, lambda e2: App(inr_c(prod, tm.EX), app(exmerge_const, var(e), var(e2)))),
    ))
    return on_left, on_ex


# identity monad: TA = A

IDENTITY = MonadSpec(
    "id",
    lambda a: a,
    lambda v, a: v,
    lambda f, x, a, b: let(x, a, f),
    lambda x, y, a, b: app(pair_c(a, b), x, y),
)


# exception monad: TA = A + Ex


def _exc_t(a: Ty) -> Ty:
    return TSum(a, tm.EX)


def _exc_star(f, x, a: Ty, b: Ty):
    # case x (lam v. f v) inr
    return let(x, _exc_t(a), lambda x: app(
        case_c(a, tm.EX, _exc_t(b)), x, lam(a, lambda v: f(var(v))), inr_c(b, tm.EX)))


def _exc_pair(x, y, a: Ty, b: Ty):
    # case x (lam v. case y ...) (lam e. case y ...)
    out = _exc_t(TProd(a, b))
    return let(x, _exc_t(a), lambda x: let(y, _exc_t(b), lambda y: app(
        case_c(a, tm.EX, out), x, *_merge_branches(a, b, lambda: y)), uses=2))


EXCEPTION = MonadSpec("exc", _exc_t, lambda v, a: App(inl_c(a, tm.EX), v), _exc_star, _exc_pair)


# interactive monad: TA = State -> A + Ex


def _ir_t(a: Ty) -> Ty:
    return TArrow(tm.STATE, TSum(a, tm.EX))


def _ir_unit(v, a: Ty):
    # lam s. inl v
    return let(v, a, lambda v: lam(tm.STATE, lambda s: App(inl_c(a, tm.EX), v)))


def _ir_star(f, x, a: Ty, b: Ty):
    # lam s. case (x s) (lam v. f v s) inr
    return let(x, _ir_t(a), lambda x: lam(tm.STATE, lambda s: app(
        case_c(a, tm.EX, TSum(b, tm.EX)),
        beta(x, var(s)),
        lam(a, lambda v: beta(f(var(v)), var(s))),
        inr_c(b, tm.EX),
    )))


def _ir_merge(x, y, a: Ty, b: Ty):
    # lam s. case (x s) (lam v. case (y s) ...) (lam e. case (y s) ...); a y
    # that is a value is bound under the state binder, so the merge stays a value
    ta, tb = _ir_t(a), _ir_t(b)
    out = TSum(TProd(a, b), tm.EX)

    def run(x, y, s: Name):
        return app(case_c(a, tm.EX, out), beta(x, var(s)),
                   *_merge_branches(a, b, lambda: beta(y, var(s))))

    if is_value(y):
        return let(x, ta, lambda x: lam(tm.STATE, lambda s: let(
            y, tb, lambda y: run(x, y, s), uses=2)))
    return let(x, ta, lambda x: let(y, tb, lambda y: lam(
        tm.STATE, lambda s: run(x, y, s)), uses=2))


INTERACTIVE = MonadSpec("ir", _ir_t, _ir_unit, _ir_star, _ir_merge)

BUILTIN_MONADS: dict[str, MonadSpec] = {
    "id": IDENTITY,
    "exc": EXCEPTION,
    "ir": INTERACTIVE,
}


# ---------------------------------------------------------------------------
# n-ary lifts


def star_k(m: MonadSpec, f: Callable, xs: tuple, arg_tys: tuple[Ty, ...], result: Ty):
    """star^k f x1 ... xk, built contracted, for k = len(xs).

    f is a Python function of k terms returning a TB term; xs are the
    computations.  star^0 f is f(), star^1 is star, and star^(k+2) pairs the
    first two computations with merge and splits the pair for f.
    """
    k = len(xs)
    if k == 0:
        return f()
    if k == 1:
        return m.star(f, xs[0], arg_tys[0], result)
    a1, a2, rest = arg_tys[0], arg_tys[1], arg_tys[2:]
    prod = TProd(a1, a2)

    def split(z, *more):
        # lam z. f (prl z) (prr z) more...
        return let(z, prod, lambda z: let(
            App(prl_c(a1, a2), z), a1, lambda x: let(
                App(prr_c(a1, a2), z), a2, lambda y: f(x, y, *more))), uses=2)

    return star_k(m, split, (m.merge(xs[0], xs[1], a1, a2),) + tuple(xs[2:]),
                  (prod,) + tuple(rest), result)


def raise_k(m: MonadSpec, g: Callable, xs: tuple, arg_tys: tuple[Ty, ...], result: Ty):
    """raise^k g x1 ... xk = star^k (lam y1 ... yk. unit (g y1 ... yk)) x1 ... xk.

    g is a Python function of k terms returning a B term.
    """
    return star_k(m, lambda *ys: m.unit(g(*ys), result), xs, arg_tys, result)


def star_n(m: MonadSpec, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """star^k : (A1 -> ... -> Ak -> TB) -> TA1 -> ... -> TAk -> TB, closed.

    The eta-expansion of star_k: lam f. lam x1 ... xk. star^k f x1 ... xk,
    built contracted.  star^0 is the identity on TB.
    """
    if len(arg_tys) != k:
        raise ValueError(f"star_{k} over {len(arg_tys)} argument types")
    return _eta(star_k, m, tm.arrows(*arg_tys, m.type_op(result)), arg_tys, result)


def raise_n(m: MonadSpec, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """raise^k : (A1 -> ... -> Ak -> B) -> TA1 -> ... -> TAk -> TB, closed.

    The eta-expansion of raise_k, built contracted.
    """
    if len(arg_tys) != k:
        raise ValueError(f"raise_{k} over {len(arg_tys)} argument types")
    return _eta(raise_k, m, tm.arrows(*arg_tys, result), arg_tys, result)


def _eta(lift: Callable, m: MonadSpec, fty: Ty, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """lam f:fty. lam x1 ... xk. lift f x1 ... xk, closed."""
    return close(_lams((fty,) + tuple(m.type_op(a) for a in arg_tys), lambda f, *xs: lift(
        m, lambda *ys: beta(f, *ys), xs, arg_tys, result)))


# ---------------------------------------------------------------------------
# law checking


@dataclass
class LawViolation:
    law: str
    monad: str
    detail: str


@dataclass
class LawReport:
    monad: str
    samples: int
    checked: int = 0
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_value(rng: random.Random, ty: Ty) -> Term:
    """A closed normal inhabitant of a ground type."""
    match ty:
        case tm.TBase("Unit"):
            return tm.unit_const
        case tm.TBase("Nat"):
            return tm.Num(rng.randrange(0, 6))
        case TProd(a, b):
            return app(pair_c(a, b), _sample_value(rng, a), _sample_value(rng, b))
        case TSum(a, b):
            if rng.random() < 0.5:
                return App(inl_c(a, b), _sample_value(rng, a))
            return App(inr_c(a, b), _sample_value(rng, b))
    raise ValueError(f"cannot sample a value of type {print_type(ty, brief=True)}")


def _sample_exc(rng: random.Random) -> Term:
    # an opaque Ex token; learning gives these real meaning
    return tm.exc_const("=", (rng.randrange(4), rng.randrange(4)), rng.randrange(4) + 1)


def _sample_computation(rng: random.Random, m: MonadSpec, a: Ty) -> Term:
    """A closed term of type TA (regular or, where the monad has them, failing)."""
    v = _sample_value(rng, a)
    if m.name == "id":
        return v
    if rng.random() < 0.3:
        e = _sample_exc(rng)
        if m.name == "exc":
            return App(inr_c(a, tm.EX), e)
        return Lam(tm.STATE, App(inr_c(a, tm.EX), e))
    return tm.normalize(App(m.unit_of(a), v))


def _sample_fn(rng: random.Random, m: MonadSpec, a: Ty, b: Ty) -> Term:
    """A closed term of type a -> T b."""
    roll = rng.random()
    if a == b == tm.NAT and roll < 0.4:
        # lam x. unit (S x)
        return Lam(a, App(m.unit_of(b), App(tm.succ, Var(0))))
    if roll < 0.7:
        return Lam(a, _sample_computation(rng, m, b))
    return Lam(a, App(m.unit_of(b), _sample_value(rng, b)))


def _observe(t: Term, m: MonadSpec, states: list[Term]) -> tuple[Term, ...]:
    """Ground observations of a computation: its normal forms, one per probe."""
    if m.name == "ir":
        return tuple(tm.normalize(App(t, s)) for s in states)
    return (tm.normalize(t),)


_GROUND_TYPES: tuple[Ty, ...] = (
    tm.NAT,
    tm.UNIT,
    TProd(tm.NAT, tm.UNIT),
    TSum(tm.NAT, tm.NAT),
)


def check_laws(m: MonadSpec, samples: int = 1000, seed: int = 0) -> LawReport:
    """Check M1 through M3 on sampled arguments; see the module docstring."""
    rng = random.Random(seed)
    report = LawReport(monad=m.name, samples=samples)
    # the interactive monad is observed under a state; the token stands for
    # any ambient state since no sampled computation queries it
    states = [tm.staterep]
    for i in range(samples):
        a = rng.choice(_GROUND_TYPES)
        b = rng.choice(_GROUND_TYPES)
        x = _sample_value(rng, a)
        y = _sample_value(rng, b)
        xc = _sample_computation(rng, m, a)
        f = _sample_fn(rng, m, a, b)
        unit_a, star_ab, merge_ab = m.unit_of(a), m.star_of(a, b), m.merge_of(a, b)
        star_aa = m.star_of(a, a)

        # M1: star unit x = x
        lhs = _observe(app(star_aa, unit_a, xc), m, states)
        rhs = _observe(xc, m, states)
        if lhs != rhs:
            report.violations.append(LawViolation("M1", m.name,
                                                  f"sample {i}: {print_term(xc)}"))
        # M2: star f (unit x) = f x
        lhs = _observe(app(star_ab, f, App(unit_a, x)), m, states)
        rhs = _observe(App(f, x), m, states)
        if lhs != rhs:
            report.violations.append(LawViolation(
                "M2", m.name, f"sample {i}: f={print_term(f)} x={print_term(x)}"))
        # M3: merge (unit x) (unit y) = unit (pair x y)
        lhs = _observe(app(merge_ab, App(unit_a, x), App(m.unit_of(b), y)), m, states)
        rhs = _observe(
            App(m.unit_of(TProd(a, b)), app(pair_c(a, b), x, y)), m, states
        )
        if lhs != rhs:
            report.violations.append(LawViolation(
                "M3", m.name, f"sample {i}: x={print_term(x)} y={print_term(y)}"))
        report.checked += 3
    return report
