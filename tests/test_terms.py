"""Typing and reduction of the term calculus."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, corpus, extraction, learning, monads
from realizer import terms as tm
from realizer.terms import (
    App, Const, Lam, Num, Var,
    NAT, UNIT, EX, STATE, TArrow, TProd, TSum,
    app, arrows, as_numeral, normalize, spine, step, typecheck,
)

import conftest as gen
from conftest import numeral
import reference_arith

PLUS = tm.prim_c("+", arith.FUNCTIONS["+"])
PRED = tm.prim_c("pred", arith.FUNCTIONS["pred"])


# ---------------------------------------------------------------------------
# typing


def test_numeral_types_and_roundtrip():
    for n in (0, 1, 7, 40):
        t = numeral(n)
        assert typecheck(t) == NAT
        assert as_numeral(t) == n
    assert as_numeral(Num(9)) == 9
    assert as_numeral(App(tm.succ, Num(3))) == 4
    assert as_numeral(tm.unit_const) is None


def test_constant_types():
    assert typecheck(tm.pair_c(NAT, UNIT)) == arrows(NAT, UNIT, TProd(NAT, UNIT))
    assert typecheck(tm.case_c(NAT, UNIT, NAT)) == arrows(
        TSum(NAT, UNIT), TArrow(NAT, NAT), TArrow(UNIT, NAT), NAT)
    assert typecheck(tm.rec_c(NAT)) == arrows(
        arrows(NAT, TArrow(NAT, NAT), NAT), NAT, NAT)
    assert typecheck(tm.query_c("<", 2)) == arrows(STATE, NAT, NAT, TSum(UNIT, NAT))
    assert typecheck(tm.eval_c("<", 2)) == arrows(NAT, NAT, NAT, TSum(UNIT, EX))
    assert typecheck(PLUS) == arrows(NAT, NAT, NAT)
    assert typecheck(tm.exc_const("<", (1, 2), 3)) == EX
    assert typecheck(tm.staterep) == STATE
    assert typecheck(tm.exmerge_const) == arrows(EX, EX, EX)


def test_lambda_and_application_typing():
    ident = Lam(NAT, Var(0))
    assert typecheck(ident) == TArrow(NAT, NAT)
    assert typecheck(App(ident, numeral(3))) == NAT
    const_fn = Lam(NAT, Lam(UNIT, Var(1)))
    assert typecheck(const_fn) == TArrow(NAT, TArrow(UNIT, NAT))


def test_typing_failures():
    with pytest.raises(tm.UnboundVariable):
        typecheck(Var(0))
    with pytest.raises(tm.UnboundVariable):
        typecheck(Lam(NAT, Var(2)))
    with pytest.raises(tm.TypeMismatch):
        typecheck(App(Lam(NAT, Var(0)), tm.unit_const))
    with pytest.raises(tm.TypeMismatch):
        typecheck(App(numeral(1), numeral(2)))
    with pytest.raises(tm.IllTyped):
        typecheck(Num(-1))


def test_ground_types_are_one_class_and_no_type_prints_itself():
    assert [(type(ty), ty.name) for ty in (UNIT, NAT, STATE, EX)] == [
        (tm.TBase, "Unit"), (tm.TBase, "Nat"), (tm.TBase, "State"), (tm.TBase, "Ex")]
    assert tm.TBase("Nat") == NAT
    for cls in (tm.TBase, TArrow, TProd, TSum, Var, Lam, App, Num, Const):
        assert "__str__" not in vars(cls), cls


@pytest.mark.parametrize("term, message", [
    (App(tm.succ, Lam(NAT, Var(0))),
     "expected Nat, found (arrow Nat Nat) in argument (lam Nat (var 0))"),
    (App(numeral(1), numeral(2)),
     "expected a function type, found Nat in application head (app succ zero)"),
    (App(Lam(TProd(NAT, STATE), tm.unit_const), App(tm.inl_c(UNIT, EX), tm.unit_const)),
     "expected (prod Nat State), found (sum Unit Ex) in argument (app (inl Unit Ex) unit)"),
])
def test_type_mismatch_prints_file_syntax(term, message):
    with pytest.raises(tm.TypeMismatch) as e:
        typecheck(term)
    assert str(e.value) == message


def test_type_mismatch_on_a_deep_argument_names_its_head():
    # the argument prints over 10^4 lines; the message names its head only
    with pytest.raises(tm.TypeMismatch) as e:
        typecheck(App(Lam(UNIT, tm.unit_const), numeral(10**4)))
    assert str(e.value) == "expected Unit, found Nat in argument (app ...)"


def _arrows_to(inner, n=1500):
    """(arrow Nat ... (arrow Nat inner)), n arrows deep, and (lam Nat ... unit) as deep."""
    ty, t = inner, tm.unit_const
    for _ in range(n):
        ty, t = TArrow(NAT, ty), Lam(NAT, t)
    return ty, t


def test_a_deep_argument_type_is_compared_without_recursion():
    # the argument's type is built apart from the parameter's, so the two are
    # compared level by level
    ty, arg = _arrows_to(UNIT)
    assert typecheck(App(Lam(ty, tm.unit_const), arg)) == UNIT
    other, _ = _arrows_to(NAT)
    with pytest.raises(tm.TypeMismatch) as e:
        typecheck(App(Lam(other, tm.unit_const), arg))
    assert str(e.value) == "expected (arrow ...), found (arrow ...) in argument (lam ...)"


_TYPES = st.recursive(
    st.sampled_from(["Unit", "Nat", "State", "Ex"]).map(tm.TBase),
    lambda sub: st.tuples(st.sampled_from([TArrow, TProd, TSum]), sub, sub)
    .map(lambda p: p[0](p[1], p[2])),
    max_leaves=8)


def _rebuilt(ty):
    """An equal copy of ty sharing no part with it."""
    if type(ty) is tm.TBase:
        return tm.TBase(ty.name)
    return type(ty)(*(_rebuilt(part) for part in vars(ty).values()))


@settings(max_examples=300, deadline=None)
@given(_TYPES, _TYPES, st.booleans())
def test_type_comparison_agrees_with_equality(a, b, copy):
    # against the generated == of the same types, which recurses
    if copy:
        b = _rebuilt(a)
    ga, gb = reference_arith.generated(a), reference_arith.generated(b)
    assert (a == b) is (ga == gb) and (b == a) is (ga == gb) and (a != b) is (ga != gb)
    assert a == a and hash(a) == hash(ga)


def test_dummy_refusal_prints_file_syntax():
    with pytest.raises(tm.IllTyped, match=r"^no dummy value at type State$"):
        tm.dummy(STATE)
    with pytest.raises(tm.IllTyped, match=r"^no dummy value at type Ex$"):
        tm.dummy(TArrow(NAT, EX))


def test_dummy_values_typecheck():
    for ty in (NAT, UNIT, TArrow(NAT, UNIT), TProd(NAT, NAT),
               TSum(UNIT, TArrow(NAT, NAT))):
        assert typecheck(tm.dummy(ty)) == ty


# ---------------------------------------------------------------------------
# reduction


def test_beta_and_literals():
    t = App(Lam(NAT, App(tm.succ, Var(0))), Num(4))
    assert normalize(t) == Num(5)
    # a literal is a value, as a succ chain is, and costs no fuel
    assert step(Num(2)) is None and normalize(Num(2), fuel=1) == Num(2)
    assert step(numeral(2)) is None and normalize(numeral(2), fuel=1) == Num(2)
    # a literal applied (ill-typed) reads back as the stepper leaves it
    stuck = app(Num(2), Var(0), tm.unit_const)
    assert step(stuck) is None and normalize(stuck) == stuck
    assert normalize(app(tm.succ, Num(1), Var(0))) == App(Num(2), Var(0))


def test_projections_and_case():
    p = app(tm.pair_c(NAT, UNIT), numeral(3), tm.unit_const)
    assert normalize(App(tm.prl_c(NAT, UNIT), p)) == Num(3)
    assert normalize(App(tm.prr_c(NAT, UNIT), p)) == tm.unit_const
    scrut = App(tm.inr_c(NAT, NAT), numeral(8))
    t = app(tm.case_c(NAT, NAT, NAT), scrut,
            Lam(NAT, numeral(0)), Lam(NAT, App(tm.succ, Var(0))))
    assert normalize(t) == Num(9)


def test_prim_saturated_only():
    assert normalize(app(PLUS, numeral(3), numeral(4))) == Num(7)
    half = App(PLUS, numeral(3))
    assert step(half) is None


def test_rec_unfolds_below_guard():
    # f m r = m + r(pred m); unbounded rec computes the triangular numbers
    f = Lam(NAT, Lam(TArrow(NAT, NAT),
                     app(PLUS, Var(1), App(Var(0), App(PRED, Var(1))))))
    assert typecheck(f) == arrows(NAT, TArrow(NAT, NAT), NAT)
    got = normalize(app(tm.rec_c(NAT), f, numeral(5)))
    assert got == Num(15)


def test_rec_guard_collapses_to_dummy():
    f = Lam(NAT, Lam(TArrow(NAT, NAT), numeral(99)))
    assert normalize(app(tm.rec_c(NAT, 2), f, numeral(5))) == Num(0)
    assert normalize(app(tm.rec_c(NAT, 6), f, numeral(5))) == Num(99)


def test_rec_single_step_shape():
    f = Lam(NAT, Lam(TArrow(NAT, NAT), Var(1)))
    t = app(tm.rec_c(NAT, 3), f, numeral(2))
    got = step(t)
    assert got == app(f, Num(2), App(tm.rec_c(NAT, 2), f))


def test_exmerge_takes_left_exception():
    e1 = tm.exc_const("<", (0, 1), 5)
    e2 = tm.exc_const("=", (2,), 0)
    assert normalize(app(tm.exmerge_const, e1, e2)) == e1
    # inert until both sides are exception values
    assert step(app(tm.exmerge_const, App(Lam(EX, Var(0)), e1), e2)) is not None


def test_query_inert_without_oracle():
    t = app(tm.query_c("<", 2), tm.staterep, numeral(1), numeral(2))
    assert step(t) is None


def test_fuel_exhaustion():
    omega = Lam(NAT, App(Var(0), Var(0)))
    loop = App(omega, omega)
    with pytest.raises(tm.FuelExhausted):
        normalize(loop, fuel=50)
    with pytest.raises(ValueError):
        step(numeral(0), strategy="middle")


def test_spine_roundtrip():
    t = app(PLUS, numeral(1), numeral(2))
    head, args = spine(t)
    assert head == PLUS and args == [numeral(1), numeral(2)]
    assert app(head, *args) == t


# ---------------------------------------------------------------------------
# random closed well-typed terms: reduction preserves types


_GROUND = (NAT, UNIT, TProd(NAT, NAT), TSum(NAT, UNIT))


def _gen(rng: random.Random, ty, ctx: tuple, depth: int) -> tm.Term:
    hits = [i for i, t in enumerate(ctx) if t == ty]
    if depth == 0 or (hits and rng.random() < 0.25):
        if hits:
            return Var(rng.choice(hits))
        return tm.dummy(ty) if ty != NAT else numeral(rng.randrange(5))
    roll = rng.randrange(6)
    if roll == 0 and isinstance(ty, TArrow):
        return Lam(ty.dom, _gen(rng, ty.cod, (ty.dom,) + ctx, depth - 1))
    if roll == 1:
        dom = rng.choice(_GROUND)
        fn = Lam(dom, _gen(rng, ty, (dom,) + ctx, depth - 1))
        return App(fn, _gen(rng, dom, ctx, depth - 1))
    if roll == 2:
        other = rng.choice(_GROUND)
        p = app(tm.pair_c(ty, other), _gen(rng, ty, ctx, depth - 1),
                _gen(rng, other, ctx, depth - 1))
        return App(tm.prl_c(ty, other), p)
    if roll == 3:
        a, b = rng.choice(_GROUND), rng.choice(_GROUND)
        side = rng.random() < 0.5
        inj = App(tm.inl_c(a, b) if side else tm.inr_c(a, b),
                  _gen(rng, a if side else b, ctx, depth - 1))
        return app(tm.case_c(a, b, ty), inj,
                   Lam(a, _gen(rng, ty, (a,) + ctx, depth - 1)),
                   Lam(b, _gen(rng, ty, (b,) + ctx, depth - 1)))
    if roll == 4 and ty == NAT:
        return app(PLUS, _gen(rng, NAT, ctx, depth - 1),
                   _gen(rng, NAT, ctx, depth - 1))
    if ty == NAT:
        return App(tm.succ, _gen(rng, NAT, ctx, depth - 1))
    return _gen(rng, ty, ctx, depth - 1)


@pytest.mark.parametrize("seed", range(60))
def test_reduction_preserves_types(seed):
    rng = random.Random(seed)
    ty = rng.choice(_GROUND)
    t = _gen(rng, ty, (), 4)
    assert typecheck(t) == ty
    for _ in range(400):
        r = step(t)
        if r is None:
            break
        t = r
        assert typecheck(t) == ty
    else:
        pytest.fail("term did not normalize in 400 steps")


@pytest.mark.parametrize("seed", range(150))
def test_strategies_agree_on_normal_forms(seed):
    rng = random.Random(1000 + seed)
    ty = rng.choice(_GROUND)
    t = _gen(rng, ty, (), 4 + seed // 50)
    left, n_left = _stepper(t, strategy="left")
    right, n_right = _stepper(t, strategy="right")
    assert left == right and n_left == n_right
    assert _agrees(t) == gen.fold_numerals(left)


# ---------------------------------------------------------------------------
# the machine against the substitution stepper


def _stepper(t, fuel=tm.DEFAULT_FUEL, oracle=None, strategy="left"):
    """The reference semantics: step until normal; (normal form, steps)."""
    for n in range(fuel):
        r = step(t, oracle, strategy)
        if r is None:
            return t, n
        t = r
    raise tm.FuelExhausted(fuel, t)


def _agrees(t, oracle=None, fuel=tm.DEFAULT_FUEL):
    """normalize reaches the stepper's normal form with the same minimal
    fuel (steps + 1 succeeds, steps raises), or both run out of fuel.

    The normal forms are compared, and the stepper's returned, with each
    succ chain folded into one literal: the machine holds a natural as an
    int and reads it back as a literal."""
    try:
        want, n = _stepper(t, fuel, oracle)
    except tm.FuelExhausted:
        with pytest.raises(tm.FuelExhausted):
            normalize(t, fuel, oracle)
        return None
    want = gen.fold_numerals(want)
    assert gen.fold_numerals(normalize(t, n + 1, oracle)) == want
    with pytest.raises(tm.FuelExhausted):
        normalize(t, n, oracle)
    return want


_CONSTS = [tm.succ, tm.zero, tm.unit_const, tm.staterep, tm.exmerge_const,
           tm.pair_c(NAT, NAT), tm.prl_c(NAT, NAT), tm.prr_c(NAT, NAT),
           tm.inl_c(NAT, NAT), tm.inr_c(NAT, NAT), tm.case_c(NAT, NAT, NAT),
           tm.rec_c(NAT), tm.rec_c(NAT, 2), tm.rec_c(TArrow(NAT, NAT), 1), PLUS, PRED,
           tm.prim_c("0", arith.FUNCTIONS["0"]), tm.exc_const("<", (1,), 0),
           tm.query_c("<", 1), tm.eval_c("<", 1)]

_open_terms = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=4).map(Var),
    st.integers(min_value=0, max_value=4).map(Num),
    st.sampled_from(_CONSTS),
    st.tuples(_open_terms, _open_terms).map(lambda p: App(*p)),
    st.tuples(_open_terms, _open_terms, _open_terms).map(lambda p: app(*p)),
    _open_terms.map(lambda b: Lam(NAT, b)),
))


def _toy_oracle(head, args):
    """query answers from a fixed table, eval compares; extra args ride along."""
    if len(args) < 2 or as_numeral(args[1]) is None:
        return None
    n = as_numeral(args[1])
    if head.kind == "query":
        out = App(tm.inr_c(UNIT, NAT), Num(n + 1)) if n % 2 else App(
            tm.inl_c(UNIT, NAT), tm.unit_const)
    elif as_numeral(args[0]) is None:
        return None
    else:
        out = App(tm.inl_c(UNIT, EX), tm.unit_const)
    return app(out, *args[2:])


@settings(max_examples=400, deadline=None)
@given(t=_open_terms, with_oracle=st.booleans())
def test_machine_agrees_on_open_and_ill_typed_terms(t, with_oracle):
    # free variables, stuck constants, partial applications, literals under
    # binders and divergence all have to come out as the stepper has them
    _agrees(t, _toy_oracle if with_oracle else None, fuel=200)


def test_readback_shifts_values_under_binders():
    # (lam x. lam y. x) applied to a free variable and to a closure over one
    k = Lam(NAT, Lam(NAT, Var(1)))
    assert normalize(App(k, Var(3))) == Lam(NAT, Var(4))
    # inner is lam b. (free 0) b (free 0), a closure whose environment holds
    # a free variable; under one more binder both occurrences read Var(2)
    inner = App(Lam(NAT, Lam(NAT, app(Var(1), Var(0), Var(2)))), Var(0))
    assert _agrees(App(k, inner)) == Lam(NAT, Lam(NAT, app(Var(2), Var(0), Var(2))))
    # a closure made at the top, with an empty environment, still shifts
    assert _agrees(App(k, Lam(NAT, Var(5)))) == Lam(NAT, Lam(NAT, Var(6)))


def test_ill_shaped_rule_arguments_stay_stuck():
    pair = tm.pair_c(NAT, NAT)
    for t in (App(tm.prl_c(NAT, NAT), app(pair, numeral(1), numeral(2), numeral(3))),
              App(tm.prr_c(NAT, NAT), App(pair, numeral(1))),
              app(tm.case_c(NAT, NAT, NAT), app(tm.inl_c(NAT, NAT), numeral(1), numeral(2)),
                  Lam(NAT, Var(0)), Lam(NAT, Var(0))),
              App(PLUS, numeral(3)),
              app(tm.exmerge_const, tm.exc_const("<", (1,), 0), tm.unit_const),
              app(tm.rec_c(NAT), Lam(NAT, Lam(TArrow(NAT, NAT), Var(1))), Var(0))):
        assert _agrees(t) == gen.fold_numerals(t)


def test_deep_terms_need_no_stack():
    assert typecheck(numeral(10**4)) == NAT
    assert as_numeral(normalize(App(tm.succ, Num(10**4)))) == 10**4 + 1
    # f m r = succ (r (pred m)) unfolds n times and counts back up
    f = Lam(NAT, Lam(TArrow(NAT, NAT), App(tm.succ, App(Var(0), App(PRED, Var(1))))))
    assert as_numeral(normalize(app(tm.rec_c(NAT), f, numeral(1000)))) == 1001


def _nested_pairs(tys):
    """A pair nested in its left component once per type of tys, the type of
    that component, with unit at every leaf; the terms are built anew each
    call, the type objects shared."""
    t = tm.unit_const
    for ty in tys:
        t = app(tm.pair_c(ty, UNIT), t, tm.unit_const)
    return t


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_deep_terms_compare_without_recursion(depth):
    tys = [UNIT]
    while len(tys) < depth:
        tys.append(TProd(tys[-1], UNIT))
    a, b = _nested_pairs(tys), _nested_pairs(tys)
    assert a is not b and a == b and not a != b
    assert a != _nested_pairs(tys[:-1]) and Lam(NAT, a) == Lam(NAT, b)


def test_divergence_runs_out_of_the_default_fuel():
    omega = Lam(NAT, App(Var(0), Var(0)))
    with pytest.raises(tm.FuelExhausted, match=f"within {tm.DEFAULT_FUEL} steps"):
        normalize(App(omega, omega))


@pytest.fixture
def checked_normalize(monkeypatch):
    """Route every library call of terms.normalize through _agrees."""
    seen = []

    def checking(t, fuel=tm.DEFAULT_FUEL, oracle=None):
        seen.append(_agrees(t, oracle, fuel))
        return normalize(t, fuel, oracle)

    monkeypatch.setattr(tm, "normalize", checking)
    return seen


@pytest.mark.parametrize("monad", [monads.IDENTITY, monads.EXCEPTION, monads.INTERACTIVE],
                         ids=lambda m: m.name)
def test_machine_agrees_on_monad_law_samples(checked_normalize, monad):
    assert monads.check_laws(monad, samples=100, seed=5).ok
    assert len(checked_normalize) >= 300


def _learned_everywhere(d, rels=arith.RELATIONS, fns=arith.FUNCTIONS):
    """Learn with the realizer of d: every state of the run goes through
    terms.normalize."""
    r = extraction.extract(d, monads.INTERACTIVE, rels, fns)
    learning.learn(r, learning.State.empty(), rels)


def test_machine_agrees_on_every_corpus_learning_run(checked_normalize):
    pf = corpus.corpus_file()
    ran = 0
    for name, d in pf.derivs.items():
        try:
            _learned_everywhere(d, pf.rels, pf.fns)
        except extraction.ExtractionError:
            continue
        ran += 1
    assert ran == 11 and len(checked_normalize) > ran


@pytest.mark.parametrize("family", ["ha_em", "sigma01", "em_cuts"])
def test_machine_agrees_on_generated_learning_runs(checked_normalize, family):
    rng = random.Random(77)
    ran = 0
    while ran < 12:
        if family == "ha_em":
            d = gen.decoratable_derivation(rng)
        elif family == "sigma01":
            d = gen.sigma01_derivation(rng, cuts=3)[0]
        else:
            d = gen.with_random_cuts(rng, gen.em_derivation(rng), 2)
        if d.conclusion.context:
            continue
        _learned_everywhere(d)
        ran += 1
    assert len(checked_normalize) >= ran


# ---------------------------------------------------------------------------
# de Bruijn lemmas


_pure_terms = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=3).map(Var),
    st.integers(min_value=0, max_value=6).map(numeral),
    st.tuples(_pure_terms, _pure_terms).map(lambda p: App(*p)),
    _pure_terms.map(lambda b: Lam(NAT, b)),
))


@settings(max_examples=200)
@given(t=_pure_terms, n=st.integers(min_value=0, max_value=5))
def test_subst_cancels_shift(t, n):
    assert tm.subst(tm.shift(t, 1), numeral(n)) == t


@settings(max_examples=200)
@given(t=_pure_terms, a=st.integers(min_value=1, max_value=3),
       b=st.integers(min_value=1, max_value=3))
def test_shift_composes(t, a, b):
    assert tm.shift(tm.shift(t, a), b) == tm.shift(t, a + b)
