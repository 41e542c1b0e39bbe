"""Monad instances, n-ary lifts and the law checker."""

import random

import pytest

from realizer import arith, sexpr
from realizer import monads as mn
from realizer import terms as tm
from realizer.monads import BUILTIN_MONADS, EXCEPTION, IDENTITY, INTERACTIVE
from realizer.terms import (
    App, Lam, Num, Var, EX, NAT, UNIT, TArrow, TProd, TSum, app, arrows,
    normalize, typecheck,
)

import reference_extraction as ref
from conftest import numeral

ALL = (IDENTITY, EXCEPTION, INTERACTIVE)
SAMPLE_TYPES = (NAT, UNIT, TProd(NAT, UNIT), TSum(NAT, NAT))


def test_builtin_table():
    assert set(BUILTIN_MONADS) == {"id", "exc", "ir"}
    assert [m.name for m in ALL] == ["id", "exc", "ir"]


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
@pytest.mark.parametrize("a", SAMPLE_TYPES, ids=["nat", "unit", "(* nat unit)", "(+ nat nat)"])
def test_unit_star_merge_types(m, a):
    b = TProd(NAT, UNIT)
    ta, tb = m.type_op(a), m.type_op(b)
    assert typecheck(m.unit_of(a)) == TArrow(a, ta)
    assert typecheck(m.star_of(a, b)) == arrows(TArrow(a, tb), ta, tb)
    assert typecheck(m.merge_of(a, b)) == arrows(ta, tb, m.type_op(TProd(a, b)))


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_laws_on_sampled_arguments(m):
    report = mn.check_laws(m, samples=150, seed=3)
    assert report.ok, report.violations[:3]
    assert report.checked == 450
    again = mn.check_laws(m, samples=150, seed=3)
    assert again.checked == report.checked and again.ok


def test_law_checker_catches_a_broken_star():
    # star that ignores its computation argument cannot satisfy M1
    def bad_star(f, x, a, b):
        return f(tm.dummy(a))

    broken = mn.MonadSpec(
        name="exc",
        type_op=mn._exc_t,
        unit=EXCEPTION.unit,
        star=bad_star,
        merge=EXCEPTION.merge,
    )
    assert broken.star_of(NAT, UNIT) == Lam(
        TArrow(NAT, mn._exc_t(UNIT)), Lam(mn._exc_t(NAT), App(Var(1), tm.zero)))
    report = mn.check_laws(broken, samples=60, seed=0)
    assert not report.ok
    assert any(v.law == "M1" for v in report.violations)
    # the sample prints in file syntax
    for v in (v for v in report.violations if v.law == "M1"):
        text = v.detail.split(": ", 1)[1]
        assert sexpr.print_term(sexpr.read_term(text)) == text


def test_an_unsampleable_type_is_named_in_file_syntax():
    with pytest.raises(ValueError, match=r"^cannot sample a value of type \(arrow Nat Nat\)$"):
        mn._sample_value(random.Random(0), TArrow(NAT, NAT))


# ---------------------------------------------------------------------------
# computation behaviour at ground observations


def _unit(m, ty, v):
    return normalize(App(m.unit_of(ty), v))


def test_exception_propagates_through_star():
    e = tm.exc_const("<", (1, 2), 9)
    failing = App(tm.inr_c(NAT, EX), e)
    f = Lam(NAT, App(EXCEPTION.unit_of(NAT), App(tm.succ, Var(0))))
    got = normalize(app(EXCEPTION.star_of(NAT, NAT), f, failing))
    assert got == failing
    ok = normalize(app(EXCEPTION.star_of(NAT, NAT), f, _unit(EXCEPTION, NAT, numeral(4))))
    assert ok == App(tm.inl_c(NAT, EX), Num(5))


def test_merge_is_left_biased_on_exceptions():
    e1 = tm.exc_const("<", (0, 0), 1)
    e2 = tm.exc_const("=", (3, 3), 2)
    merge = EXCEPTION.merge_of(NAT, NAT)
    both = normalize(app(merge, App(tm.inr_c(NAT, EX), e1), App(tm.inr_c(NAT, EX), e2)))
    assert both == App(tm.inr_c(TProd(NAT, NAT), EX), e1)
    mixed = normalize(app(merge, _unit(EXCEPTION, NAT, numeral(1)),
                          App(tm.inr_c(NAT, EX), e2)))
    assert mixed == App(tm.inr_c(TProd(NAT, NAT), EX), e2)


def test_interactive_observed_under_state():
    c = app(INTERACTIVE.star_of(NAT, NAT),
            Lam(NAT, App(INTERACTIVE.unit_of(NAT), App(tm.succ, Var(0)))),
            App(INTERACTIVE.unit_of(NAT), numeral(6)))
    assert typecheck(c) == TArrow(tm.STATE, TSum(NAT, EX))
    assert normalize(App(c, tm.staterep)) == App(tm.inl_c(NAT, EX), Num(7))


# ---------------------------------------------------------------------------
# n-ary lifts


PLUS = tm.prim_c("+", arith.FUNCTIONS["+"])


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
@pytest.mark.parametrize("k", range(4))
def test_star_n_types(m, k):
    arg_tys = (NAT, UNIT, TProd(NAT, UNIT))[:k]
    fty = arrows(*arg_tys, m.type_op(NAT)) if k else m.type_op(NAT)
    want = arrows(fty, *(m.type_op(t) for t in arg_tys), m.type_op(NAT))
    if k == 0:
        want = TArrow(m.type_op(NAT), m.type_op(NAT))
        got = typecheck(mn.star_n(m, 0, (), NAT))
    else:
        got = typecheck(mn.star_n(m, k, arg_tys, NAT))
    assert got == want


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_raise_n_types_and_computes(m):
    lift2 = mn.raise_n(m, 2, (NAT, NAT), NAT)
    assert typecheck(lift2) == arrows(
        arrows(NAT, NAT, NAT), m.type_op(NAT), m.type_op(NAT), m.type_op(NAT))
    args = (_unit(m, NAT, numeral(3)), _unit(m, NAT, numeral(4)))
    out = app(lift2, PLUS, *args)
    if m.name == "ir":
        assert normalize(App(out, tm.staterep)) == App(tm.inl_c(NAT, EX), Num(7))
    elif m.name == "exc":
        assert normalize(out) == App(tm.inl_c(NAT, EX), Num(7))
    else:
        assert normalize(out) == Num(7)


def test_star_n_arity_validation():
    with pytest.raises(ValueError):
        mn.star_n(IDENTITY, 2, (NAT,), NAT)
    with pytest.raises(ValueError):
        mn.raise_n(IDENTITY, 1, (NAT, NAT), NAT)


# ---------------------------------------------------------------------------
# the closed lifts against the combinators applied with tm.app


def _observed(m, t):
    return normalize(App(t, tm.staterep)) if m.name == "ir" else normalize(t)


def _lams(tys, body):
    for ty in reversed(tys):
        body = Lam(ty, body)
    return body


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
@pytest.mark.parametrize("k", range(4))
def test_lifts_agree_with_the_applied_combinators(m, k):
    old = ref.OLD_MONADS[m.name]
    rng = random.Random(k)
    arg_tys = (NAT, UNIT, TProd(NAT, UNIT))[:k]
    body = App(tm.succ, Var(k - 1)) if k else numeral(2)  # S x1, or 2 for k = 0
    pure, monadic = _lams(arg_tys, body), _lams(arg_tys, App(m.unit_of(NAT), body))
    for _ in range(20):
        xs = [mn._sample_computation(rng, m, a) for a in arg_tys]
        for lift, ref_lift, f in ((mn.raise_n, ref.raise_n, pure),
                                  (mn.star_n, ref.star_n, monadic)):
            got = app(lift(m, k, arg_tys, NAT), f, *xs)
            want = app(ref_lift(old, k, arg_tys, NAT), f, *xs)
            assert _observed(m, got) == _observed(m, want)


# ---------------------------------------------------------------------------
# building with named variables


PAIR = tm.pair_c(NAT, NAT)


def _twice():
    return mn.lam(NAT, lambda x: app(PAIR, mn.var(x), mn.var(x)))  # lam x. pair x x


def _once():
    return mn.lam(NAT, lambda x: App(tm.succ, mn.var(x)))  # lam x. S x


def _under_y(body):
    """lam y. body(y), closed."""
    return mn.close(mn.lam(NAT, body))


def test_beta_contracts_exactly_the_administrative_redexes():
    # a variable goes in place however often it is used
    assert _under_y(lambda y: mn.beta(_twice(), mn.var(y))) == Lam(NAT, app(PAIR, Var(0), Var(0)))
    # a value goes in place when it is used once, and stays bound when used twice
    assert _under_y(lambda y: mn.beta(_once(), numeral(2))) == Lam(NAT, App(tm.succ, numeral(2)))
    assert _under_y(lambda y: mn.beta(_twice(), numeral(2))) == Lam(
        NAT, App(Lam(NAT, app(PAIR, Var(0), Var(0))), numeral(2)))
    # an argument that still has to be evaluated stays bound, even when used once
    step = Lam(NAT, Lam(TArrow(NAT, NAT), Var(1)))
    assert _under_y(lambda y: mn.beta(_once(), app(tm.rec_c(NAT), step, mn.var(y)))) == Lam(
        NAT, App(Lam(NAT, App(tm.succ, Var(0))), app(tm.rec_c(NAT), step, Var(0))))
    # a redex kept in head position takes the next argument inside:
    # ((lam x. lam z. pair x z) e) y = (lam x. pair x y) e
    e = App(tm.prl_c(NAT, NAT), app(PAIR, numeral(1), numeral(2)))
    kept = mn.beta(mn.lam(NAT, lambda x: mn.lam(NAT, lambda z: app(PAIR, mn.var(x), mn.var(z)))), e)
    assert _under_y(lambda y: mn.beta(kept, mn.var(y))) == Lam(
        NAT, App(Lam(NAT, app(PAIR, Var(0), Var(1))), e))
