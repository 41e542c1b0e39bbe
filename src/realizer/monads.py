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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import terms as tm
from .terms import (
    App,
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


@dataclass(frozen=True)
class MonadSpec:
    name: str
    type_op: Callable[[Ty], Ty]
    unit_of: Callable[[Ty], Term]
    star_of: Callable[[Ty, Ty], Term]
    merge_of: Callable[[Ty, Ty], Term]


# ---------------------------------------------------------------------------
# identity monad


def _id_unit(a: Ty) -> Term:
    return Lam(a, Var(0))


def _id_star(a: Ty, b: Ty) -> Term:
    return Lam(TArrow(a, b), Var(0))


IDENTITY = MonadSpec(
    name="id",
    type_op=lambda a: a,
    unit_of=_id_unit,
    star_of=_id_star,
    merge_of=lambda a, b: pair_c(a, b),
)


# ---------------------------------------------------------------------------
# exception monad: TA = A + Ex


def _exc_t(a: Ty) -> Ty:
    return TSum(a, tm.EX)


def _exc_unit(a: Ty) -> Term:
    return Lam(a, App(inl_c(a, tm.EX), Var(0)))


def _exc_star(a: Ty, b: Ty) -> Term:
    tb = _exc_t(b)
    # lam f. lam x. case x f inr
    return Lam(
        TArrow(a, tb),
        Lam(_exc_t(a), app(case_c(a, tm.EX, tb), Var(0), Var(1), inr_c(b, tm.EX))),
    )


def _exc_merge(a: Ty, b: Ty) -> Term:
    prod = TProd(a, b)
    tout = _exc_t(prod)
    # outer case on the left computation, inner case on the right one
    on_left = Lam(
        a,
        app(
            case_c(b, tm.EX, tout),
            Var(1),  # the right computation
            Lam(b, App(inl_c(prod, tm.EX), app(pair_c(a, b), Var(1), Var(0)))),
            Lam(tm.EX, App(inr_c(prod, tm.EX), Var(0))),
        ),
    )
    on_ex = Lam(
        tm.EX,
        app(
            case_c(b, tm.EX, tout),
            Var(1),
            Lam(b, App(inr_c(prod, tm.EX), Var(1))),
            Lam(tm.EX, App(inr_c(prod, tm.EX), app(exmerge_const, Var(1), Var(0)))),
        ),
    )
    return Lam(_exc_t(a), Lam(_exc_t(b), app(case_c(a, tm.EX, tout), Var(1), on_left, on_ex)))


EXCEPTION = MonadSpec(
    name="exc",
    type_op=_exc_t,
    unit_of=_exc_unit,
    star_of=_exc_star,
    merge_of=_exc_merge,
)


# ---------------------------------------------------------------------------
# interactive monad: TA = State -> A + Ex


def _ir_t(a: Ty) -> Ty:
    return TArrow(tm.STATE, TSum(a, tm.EX))


def _ir_unit(a: Ty) -> Term:
    return Lam(a, Lam(tm.STATE, App(inl_c(a, tm.EX), Var(1))))


def _ir_star(a: Ty, b: Ty) -> Term:
    ta, tb = _ir_t(a), _ir_t(b)
    sum_b = TSum(b, tm.EX)
    # lam f. lam x. lam s. case (x s) (lam v. f v s) inr
    return Lam(
        TArrow(a, tb),
        Lam(
            ta,
            Lam(
                tm.STATE,
                app(
                    case_c(a, tm.EX, sum_b),
                    App(Var(1), Var(0)),
                    Lam(a, app(Var(3), Var(0), Var(1))),
                    inr_c(b, tm.EX),
                ),
            ),
        ),
    )


def _ir_merge(a: Ty, b: Ty) -> Term:
    prod = TProd(a, b)
    sum_out = TSum(prod, tm.EX)
    # under lam x. lam y. lam s:  x = Var 2, y = Var 1, s = Var 0
    on_left = Lam(
        a,
        app(
            case_c(b, tm.EX, sum_out),
            App(Var(2), Var(1)),  # y s
            Lam(b, App(inl_c(prod, tm.EX), app(pair_c(a, b), Var(1), Var(0)))),
            Lam(tm.EX, App(inr_c(prod, tm.EX), Var(0))),
        ),
    )
    on_ex = Lam(
        tm.EX,
        app(
            case_c(b, tm.EX, sum_out),
            App(Var(2), Var(1)),
            Lam(b, App(inr_c(prod, tm.EX), Var(1))),
            Lam(tm.EX, App(inr_c(prod, tm.EX), app(exmerge_const, Var(1), Var(0)))),
        ),
    )
    return Lam(
        _ir_t(a),
        Lam(
            _ir_t(b),
            Lam(
                tm.STATE,
                app(case_c(a, tm.EX, sum_out), App(Var(2), Var(0)), on_left, on_ex),
            ),
        ),
    )


INTERACTIVE = MonadSpec(
    name="ir",
    type_op=_ir_t,
    unit_of=_ir_unit,
    star_of=_ir_star,
    merge_of=_ir_merge,
)

BUILTIN_MONADS: dict[str, MonadSpec] = {
    "id": IDENTITY,
    "exc": EXCEPTION,
    "ir": INTERACTIVE,
}


# ---------------------------------------------------------------------------
# n-ary lifts


def star_n(m: MonadSpec, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """star^k : (A1 -> ... -> Ak -> TB) -> TA1 -> ... -> TAk -> TB.

    star^0 is the identity on TB, star^1 is star, and star^(k+2) pairs the
    first two computations with merge and reassociates the function.
    """
    if len(arg_tys) != k:
        raise ValueError(f"star_{k} over {len(arg_tys)} argument types")
    if k == 0:
        return Lam(m.type_op(result), Var(0))
    if k == 1:
        return m.star_of(arg_tys[0], result)
    a1, a2, rest = arg_tys[0], arg_tys[1], arg_tys[2:]
    prod = TProd(a1, a2)
    fty = tm.arrows(*arg_tys, m.type_op(result))
    inner = star_n(m, k - 1, (prod,) + rest, result)
    # lam f. lam x. lam y. star^(k-1) (lam z. f (prl z) (prr z)) (merge x y)
    split = Lam(prod, app(Var(3), App(prl_c(a1, a2), Var(0)), App(prr_c(a1, a2), Var(0))))
    return Lam(
        fty,
        Lam(
            m.type_op(a1),
            Lam(
                m.type_op(a2),
                app(inner, split, app(m.merge_of(a1, a2), Var(1), Var(0))),
            ),
        ),
    )


def raise_n(m: MonadSpec, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """raise^k : (A1 -> ... -> Ak -> B) -> TA1 -> ... -> TAk -> TB.

    Defined as star^k composed with unit under k abstractions.
    """
    if len(arg_tys) != k:
        raise ValueError(f"raise_{k} over {len(arg_tys)} argument types")
    fty = tm.arrows(*arg_tys, result)
    body: Term = App(m.unit_of(result), app(Var(k), *(Var(k - 1 - i) for i in range(k))))
    for ty in reversed(arg_tys):
        body = Lam(ty, body)
    return Lam(fty, app(star_n(m, k, arg_tys, result), body))


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
        case tm.TUnit():
            return tm.unit_const
        case tm.TNat():
            return tm.numeral(rng.randrange(0, 6))
        case TProd(a, b):
            return app(pair_c(a, b), _sample_value(rng, a), _sample_value(rng, b))
        case TSum(a, b):
            if rng.random() < 0.5:
                return App(inl_c(a, b), _sample_value(rng, a))
            return App(inr_c(a, b), _sample_value(rng, b))
    raise ValueError(f"cannot sample a value of type {ty}")


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
        body = _sample_computation(rng, m, b)
        return Lam(a, tm.shift(body, 1))
    return Lam(a, App(m.unit_of(b), tm.shift(_sample_value(rng, b), 1)))


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
            report.violations.append(LawViolation("M1", m.name, f"sample {i}: {xc}"))
        # M2: star f (unit x) = f x
        lhs = _observe(app(star_ab, f, App(unit_a, x)), m, states)
        rhs = _observe(App(f, x), m, states)
        if lhs != rhs:
            report.violations.append(LawViolation("M2", m.name, f"sample {i}: f={f} x={x}"))
        # M3: merge (unit x) (unit y) = unit (pair x y)
        lhs = _observe(app(merge_ab, App(unit_a, x), App(m.unit_of(b), y)), m, states)
        rhs = _observe(
            App(m.unit_of(TProd(a, b)), app(pair_c(a, b), x, y)), m, states
        )
        if lhs != rhs:
            report.violations.append(LawViolation("M3", m.name, f"sample {i}: x={x} y={y}"))
        report.checked += 3
    return report
