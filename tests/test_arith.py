"""Primitive recursion, first-order terms, formulas and the hierarchy."""

import copy as copy_module
import dataclasses
import itertools
import random
import sys
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, corpus, extraction, monads, sexpr, terms
from realizer import deduction as dd
from realizer.arith import (
    ADD, MUL, And, ArityMismatch, Atom, BOT, Comp, Exists, Forall, FUNCTIONS,
    Imply, Or, PRec, Proj, RELATIONS, Relation, Succ, TApp, TVar, Zero,
    atomic_truth, eval_prim, formulas_equal, free_vars,
    neg, norm_aterm, norm_formula, reduce_aterm, subst_formula, tnum,
)

import conftest as gen
import reference_arith as ref
from reference_arith import classify, dual
import reference_sexpr


# ---------------------------------------------------------------------------
# primitive recursive evaluation


def test_eval_prim_constructors():
    assert eval_prim(Zero(3), (4, 5, 6)) == 0
    assert eval_prim(Succ(), (9,)) == 10
    assert eval_prim(Proj(3, 2), (4, 5, 6)) == 5
    plus_one_each = Comp(ADD, (Comp(Succ(), (Proj(2, 1),)),
                               Comp(Succ(), (Proj(2, 2),))))
    assert eval_prim(plus_one_each, (3, 4)) == 9
    assert eval_prim(PRec(Proj(1, 1), Comp(Succ(), (Proj(3, 2),))), (3, 10)) == 13


def test_eval_prim_is_iterative():
    # a deep recursion must not hit the interpreter stack
    assert eval_prim(ADD, (50_000, 1)) == 50_001


def test_arity_validation():
    with pytest.raises(ArityMismatch):
        Proj(2, 3)
    with pytest.raises(ArityMismatch):
        Proj(2, 0)
    with pytest.raises(ArityMismatch):
        Comp(Succ(), (Proj(2, 1), Proj(2, 2)))
    with pytest.raises(ArityMismatch):
        Comp(ADD, (Proj(2, 1), Proj(3, 1)))
    with pytest.raises(ArityMismatch):
        PRec(Zero(1), Zero(1))
    with pytest.raises(ArityMismatch):
        eval_prim(ADD, (1, 2, 3))
    with pytest.raises(ArityMismatch):
        Relation("odd", 2, Succ())


@pytest.mark.parametrize("seed", range(10))
def test_standard_functions_against_python(seed):
    rng = random.Random(seed)
    for _ in range(15):
        x, y = rng.randrange(35), rng.randrange(35)
        assert eval_prim(FUNCTIONS["+"], (x, y)) == x + y
        assert eval_prim(FUNCTIONS["*"], (x, y)) == x * y
        assert eval_prim(FUNCTIONS["monus"], (x, y)) == max(0, x - y)
        assert eval_prim(FUNCTIONS["pred"], (x,)) == max(0, x - 1)
    assert eval_prim(FUNCTIONS["0"], ()) == 0
    assert eval_prim(FUNCTIONS["S"], (7,)) == 8


@pytest.mark.parametrize("seed", range(20))
def test_standard_relations_against_python(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        x, y = rng.randrange(30), rng.randrange(30)
        assert RELATIONS["="].holds((x, y)) == (x == y)
        assert RELATIONS["<"].holds((x, y)) == (x < y)
        assert RELATIONS["<="].holds((x, y)) == (x <= y)
    assert RELATIONS["top"].holds(())
    assert not RELATIONS["bot"].holds(())


# ---------------------------------------------------------------------------
# first-order terms


def test_reduce_aterm():
    t = TApp("+", (TApp("*", (tnum(3), TVar("x"))), tnum(1)))
    assert reduce_aterm(t, {"x": 5}) == 16
    with pytest.raises(arith.UnboundTermVariable):
        reduce_aterm(TVar("x"))
    with pytest.raises(arith.ArithError):
        reduce_aterm(TApp("exp", (tnum(2), tnum(3))))


def test_norm_aterm_collapses_closed_subterms():
    assert norm_aterm(TApp("+", (tnum(2), tnum(2)))) == tnum(4)
    open_t = TApp("+", (TVar("x"), TApp("*", (tnum(2), tnum(3)))))
    assert norm_aterm(open_t) == TApp("+", (TVar("x"), tnum(6)))
    assert norm_aterm(TVar("x")) == TVar("x")


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_tnum_reduces_to_itself(a, b):
    t = TApp("+", (tnum(a), tnum(b)))
    assert reduce_aterm(t) == a + b
    assert norm_aterm(t) == tnum(a + b)


# ---------------------------------------------------------------------------
# native built-ins against structural evaluation


def _structural(f):
    """An equal copy of f sharing no object with the tables, so eval_prim
    evaluates it (and everything inside it) by structural recursion."""
    copy = sexpr.read_primfn(sexpr.print_primfn(f), {})
    assert copy == f and copy is not f
    return copy


def _one_level(f):
    """An equal copy of f's top node only: eval_prim unfolds f's own
    definition structurally and runs the built-ins it is made of natively."""
    copy = copy_module.copy(f)
    assert copy == f and copy is not f
    return copy


_NATIVES = {
    "one": arith._one, "pred": arith._pred, "msub": arith._msub,
    "monus": arith._monus, "is_zero": arith._is_zero, "+": ADD, "*": MUL,
    "<=": arith._le_char, "<": arith._lt_char, "=": arith._eq_char,
}


def _grid(arity, top):
    return list(itertools.product(range(top + 1), repeat=arity))


def test_native_table_is_the_listed_builtins():
    assert set(arith._NATIVE) == {id(f) for f in _NATIVES.values()}
    assert FUNCTIONS["+"] is ADD and FUNCTIONS["*"] is MUL
    assert FUNCTIONS["pred"] is arith._pred and FUNCTIONS["monus"] is arith._monus
    assert [RELATIONS[r].char for r in ("=", "<", "<=", "top")] == \
        [arith._eq_char, arith._lt_char, arith._le_char, arith._one]


@pytest.mark.parametrize("name", sorted(set(_NATIVES) - {"*"}))
def test_native_agrees_with_structural_on_all_small_arguments(name):
    f = _NATIVES[name]
    ref = _structural(f)
    for args in _grid(f.arity, 40):
        assert eval_prim(f, args) == eval_prim(ref, args), args


def test_native_multiplication_agrees_with_structural_on_all_small_arguments():
    # structural * is cubic in its recursion argument (38 s for the whole
    # grid), so the whole grid unfolds * over the native + (checked above)
    # and a fully structural copy covers recursion arguments up to 12
    ref, deep = _one_level(MUL), _structural(MUL)
    for x, y in _grid(2, 40):
        assert eval_prim(MUL, (x, y)) == eval_prim(ref, (x, y)) == x * y, (x, y)
        if x <= 12:
            assert eval_prim(deep, (x, y)) == x * y, (x, y)


@pytest.mark.parametrize("name", sorted(n for n, f in _NATIVES.items() if f.arity))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_native_agrees_with_structural_up_to_300(name, data):
    f = _NATIVES[name]
    args = tuple(data.draw(st.integers(0, 300)) for _ in range(f.arity))
    got = eval_prim(f, args)
    assert type(got) is int
    ref = _one_level(f) if f is MUL else _structural(f)
    assert got == eval_prim(ref, args)


def test_non_natural_arguments_take_the_structural_path():
    # outside the naturals the natives would disagree (+ ignores a negative
    # recursion argument), so eval_prim evaluates structurally there
    assert eval_prim(ADD, (-3, 4)) == eval_prim(_structural(ADD), (-3, 4)) == 4
    assert eval_prim(MUL, (2, -5)) == eval_prim(_structural(MUL), (2, -5)) == -5
    assert eval_prim(arith._eq_char, (True, 1)) == eval_prim(_structural(arith._eq_char), (True, 1))


def test_user_definitions_reach_the_natives():
    sq = sexpr.read_primfn("(comp * (proj 1 1) (proj 1 1))", FUNCTIONS)
    assert sq.outer is MUL
    assert eval_prim(sq, (1000,)) == 1_000_000


def test_structural_eval_is_iterative():
    assert eval_prim(_structural(ADD), (50_000, 1)) == 50_001


def test_builtin_multiplication_is_fast():
    assert min(timeit.repeat(lambda: eval_prim(MUL, (200, 200)), number=1, repeat=5)) < 1e-3


# ---------------------------------------------------------------------------
# one-pass normalization against the per-level reference


def _old_aterm_vars(t):
    match t:
        case TVar(name):
            return frozenset((name,))
        case arith.TNum():
            return frozenset()
        case TApp(_, args):
            return frozenset().union(*(_old_aterm_vars(a) for a in args))


def _old_reduce_aterm(t, fns):
    match t:
        case arith.TNum(value):
            return value
        case TApp(fn, args):
            if fn not in fns:
                raise arith.ArithError(f"unknown function symbol {fn!r}")
            return eval_prim(fns[fn], [_old_reduce_aterm(a, fns) for a in args])
    raise arith.UnboundTermVariable(t.name)


def _old_norm_aterm(t, fns=FUNCTIONS):
    """norm_aterm as it was: normalize the arguments, then rebuild or re-read
    and re-evaluate every level."""
    match t:
        case TVar() | arith.TNum():
            return t
        case TApp(fn, args):
            nargs = tuple(_old_norm_aterm(a, fns) for a in args)
            if all(not _old_aterm_vars(a) for a in nargs):
                return tnum(_old_reduce_aterm(TApp(fn, nargs), fns))
            return TApp(fn, nargs)


_FNS = dict(FUNCTIONS)
_FNS["sq"] = sexpr.read_primfn("(comp * (proj 1 1) (proj 1 1))", _FNS)
_FNS["dbl"] = sexpr.read_primfn("(comp + (proj 1 1) (proj 1 1))", _FNS)


def _terms(closed: bool):
    # a numeral is built as tnum does, as 0 and as S of a numeral
    leaves = (st.integers(0, 8).map(tnum) | st.just(TApp("0"))
              | st.integers(0, 8).map(lambda n: TApp("S", (tnum(n),))))
    if not closed:
        leaves = leaves | st.sampled_from([TVar("x"), TVar("y")])

    def grow(sub):
        return (st.tuples(st.sampled_from(["+", "*", "monus"]), sub, sub)
                .map(lambda p: TApp(p[0], p[1:]))
                | st.tuples(st.sampled_from(["S", "pred", "sq", "dbl"]), sub)
                .map(lambda p: TApp(p[0], p[1:]))
                | st.tuples(st.integers(1, 20), sub)
                .map(lambda p: TApp("+", (tnum(p[0]), p[1])) if p[0] % 2 else _succs(p[0], p[1])))
    return st.recursive(leaves, grow, max_leaves=6).filter(_small)


def _small(t):
    """Every closed subterm of t is below 300: the reference recurses along
    numerals, and so does == on them."""
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, TApp):
            if not arith.aterm_vars(u) and reduce_aterm(u, {}, _FNS) >= 300:
                return False
            todo.extend(u.args)
    return True


def _succs(k, t):
    for _ in range(k):
        t = TApp("S", (t,))
    return t


@settings(max_examples=300, deadline=None)
@given(_terms(closed=False) | _terms(closed=True))
def test_norm_aterm_matches_the_reference(t):
    assert norm_aterm(t, _FNS) == _old_norm_aterm(t, _FNS)


@settings(max_examples=150, deadline=None)
@given(st.lists(_terms(closed=False), min_size=2, max_size=4))
def test_norm_formula_matches_the_reference(ts):
    f = Forall("x", Imply(Atom("=", (ts[0], ts[1])),
                          Exists("y", And(Atom("<", tuple(ts[1:3])) if len(ts) > 2 else Atom("top"),
                                          Atom("<=", (ts[-1], ts[0]))))))
    assert norm_formula(f, _FNS) == ref.norm_formula(f, _FNS)


def _rebuilt(t):
    """t built again node by node: equal to t, and sharing no application with it."""
    return arith.fold_aterm(t, lambda u: u, lambda u, parts: TApp(u.fn, tuple(parts)))


_RENAMED = {"+": "*", "*": "monus", "monus": "+", "S": "pred", "pred": "sq", "sq": "dbl",
            "dbl": "S"}


def _renamed(t):
    """t built again with each function symbol replaced by another of its arity."""
    return arith.fold_aterm(t, lambda u: u, lambda u, parts: TApp(_RENAMED[u.fn], tuple(parts)))


@settings(max_examples=300, deadline=None)
@given(_terms(closed=False), _terms(closed=False),
       st.sampled_from(["same", "copy", "other", "inside", "renamed", "shorter"]))
def test_term_equality_agrees_with_the_generated_one(t, u, how):
    a, b = {"same": (t, t), "copy": (t, _rebuilt(t)), "other": (t, u),
            "inside": (TApp("+", (t, u)), TApp("+", (_rebuilt(t), u))),
            "renamed": (TApp("+", (t, u)), TApp("+", (_renamed(t), u))),
            "shorter": (TApp("+", (t, u)), TApp("+", (_rebuilt(t),)))}[how]
    ga, gb = ref.generated(a), ref.generated(b)
    assert (a == b) is (ga == gb) and (a != b) is (ga != gb)
    # the generated hash, which agrees with ==
    assert hash(a) == hash(ga) and hash(b) == hash(gb)


def test_deep_terms_compare_without_recursion():
    a, b, c = tnum(1), tnum(1), tnum(2)
    for _ in range(5000):
        a, b, c = (TApp("+", (t, tnum(1))) for t in (a, b, c))
    assert a == b and not a != b
    assert a != c and not a == c
    assert Atom("=", (a, tnum(5001))) == Atom("=", (b, tnum(5001)))


def test_norm_aterm_errors_match_the_reference():
    for t in (TApp("exp", (tnum(2), tnum(3))),
              TApp("+", (TVar("x"), TApp("exp", ()))),
              TApp("S", (tnum(1), tnum(2))),
              TApp("+", (tnum(1),))):
        with pytest.raises(arith.ArithError) as new:
            norm_aterm(t)
        with pytest.raises(arith.ArithError) as old:
            _old_norm_aterm(t)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
    unknown_open = TApp("exp", (TVar("x"),))
    assert norm_aterm(unknown_open) == _old_norm_aterm(unknown_open) == unknown_open


def test_norm_aterm_returns_numerals_and_unchanged_terms_as_they_are():
    seven = tnum(7)
    assert norm_aterm(seven) is seven
    open_t = TApp("+", (TVar("x"), TApp("S", (TApp("S", (TVar("y"),)),))))
    assert norm_aterm(open_t) is open_t


def test_deep_numerals_need_no_stack():
    n = 5000
    assert ref.numeral_value(norm_aterm(TApp("+", (tnum(n), tnum(n))))) == 2 * n
    assert reduce_aterm(tnum(n)) == n
    deep_open = _succs(n, TVar("x"))
    assert arith.aterm_vars(deep_open) == {"x"}
    assert reduce_aterm(deep_open, {"x": 1}) == n + 1
    assert norm_aterm(TApp("+", (deep_open, TApp("*", (tnum(2), tnum(3)))))) == \
        TApp("+", (deep_open, tnum(6)))
    assert sexpr.print_aterm(tnum(n)) == str(n)


def _old_subst_aterm(t, var, rep):
    """subst_aterm as it was: rebuild every node."""
    match t:
        case TVar(name):
            return rep if name == var else t
        case arith.TNum():
            return t
        case TApp(fn, args):
            return TApp(fn, tuple(_old_subst_aterm(a, var, rep) for a in args))


@settings(max_examples=300, deadline=None)
@given(_terms(closed=False), st.sampled_from(["x", "y", "z"]), _terms(closed=False))
def test_subst_aterm_matches_the_reference(t, var, rep):
    got = arith.subst_aterm(t, var, rep)
    assert got == _old_subst_aterm(t, var, rep)
    if var not in arith.aterm_vars(t):
        assert got is t


def test_subst_aterm_needs_no_stack():
    n = 5000
    t = TApp("+", (_succs(n, TVar("x")), tnum(n)))
    got = arith.subst_aterm(t, "x", tnum(2))
    assert got.args[1] is t.args[1]
    assert reduce_aterm(got) == 2 * n + 2
    assert arith.subst_aterm(t, "y", tnum(2)) is t


def test_numerals_are_one_leaf():
    assert type(tnum(300)) is arith.TNum and tnum(300) == TApp("S", (tnum(299),))
    assert tnum(0) == TApp("0") and TApp("S", (TApp("0"),)) == tnum(1)
    assert type(TApp("S", (TVar("x"),))) is TApp
    assert arith.view(tnum(300)) == ("S", (tnum(299),)) and arith.view(tnum(0)) == ("0", ())
    assert arith.view(TApp("S", (TVar("x"),))) == ("S", (TVar("x"),))
    assert arith.view(TVar("x")) == (None, ())
    # equal numerals built apart compare by value, not along their chains
    assert arith.formulas_equal(Atom("=", (tnum(3000), tnum(3000))),
                                Atom("=", (tnum(3000), TApp("+", (tnum(2999), tnum(1))))))


def _spelled(t):
    """The one-line sexpr text of a short term, spelled by recursion."""
    if type(t) is TVar:
        return t.name
    if type(t) is arith.TNum:
        return str(t.value)
    return "(" + " ".join((t.fn, *map(_spelled, t.args))) + ")"


@pytest.mark.parametrize("t", [
    *(tnum(n) for n in range(41)),
    TApp("S", (TVar("x"),)), _succs(7, TVar("x")), TApp("0"),
    TApp("S", (tnum(1), tnum(2))), TApp("S", ()),
    TApp("+", (_succs(3, TVar("y")), TApp("*", (tnum(2), TApp("pred", (tnum(4),)))))),
])
def test_tapp_repr_is_the_generated_one(t):
    # the repr is the sexpr text, which _spelled spells apart
    assert repr(t) == str(t) == sexpr.print_aterm(t) == _spelled(t)


def test_repr_of_a_deep_numeral_needs_no_stack():
    # a numeral prints in decimal, and S 10^4 deep over a variable prints
    # on the explicit stack of sexpr's printer
    assert repr(tnum(5000)) == "5000" and repr(tnum(10**100)) == str(10**100)
    t = _succs(10_000, TVar("x"))
    assert repr(t) == sexpr.print_aterm(t) and repr(t).count("(S") == 10_000
    assert sexpr.read_aterm(repr(t), FUNCTIONS) == t


def _tower(base, n=10_000):
    """(+ ... (+ base 1) ... 1), n levels deep."""
    for _ in range(n):
        base = TApp("+", (base, tnum(1)))
    return base


@pytest.mark.parametrize("base", [TVar("x"), tnum(1)], ids=["open", "closed"])
def test_every_term_walk_takes_a_deep_term(base):
    # each walk is the one fold, so depth costs no Python stack
    t = _tower(base)
    env = {"x": 1}
    assert reduce_aterm(t, env) == 10_001
    if type(base) is TVar:
        assert norm_aterm(t) is t
        assert arith.subst_aterm(t, "y", tnum(2)) is t
        assert reduce_aterm(arith.subst_aterm(t, "x", tnum(1))) == 10_001
        nat_env = (("tvar", "x"), monads.Name(), ())
    else:
        assert norm_aterm(t) == tnum(10_001)
        assert arith.subst_aterm(t, "x", tnum(2)) is t
        nat_env = ()
    printed = sexpr.print_aterm(t)
    assert repr(t) == printed and printed.count("(+") == 10_000
    assert reduce_aterm(sexpr.read_aterm(printed, FUNCTIONS), env) == 10_001
    nat = extraction.term_to_nat(t, nat_env, FUNCTIONS)
    if type(base) is arith.TNum:
        assert terms.normalize(nat) == terms.Num(10_001)


def test_numeral_value():
    assert ref.numeral_value(tnum(0)) == 0
    assert ref.numeral_value(tnum(12)) == 12
    assert ref.numeral_value(TApp("S", (TVar("x"),))) is None
    assert ref.numeral_value(TApp("+", (tnum(1), tnum(1)))) is None
    assert ref.numeral_value(TApp("S", (tnum(1), tnum(1)))) is None
    assert ref.numeral_value(TVar("x")) is None


# ---------------------------------------------------------------------------
# formulas


def test_free_vars_and_neg():
    f = Forall("x", Imply(Atom("<", (TVar("x"), TVar("y"))),
                          Exists("y", Atom("=", (TVar("y"), TVar("z"))))))
    assert free_vars(f) == {"y", "z"}
    assert neg(Atom("top")) == Imply(Atom("top"), BOT)


def test_subst_formula_shadowing_and_capture():
    body = Atom("=", (TVar("x"), TVar("y")))
    shadowed = Forall("x", body)
    assert subst_formula(shadowed, "x", tnum(3)) == shadowed

    f = Exists("y", body)
    got = subst_formula(f, "x", TVar("y"))
    assert isinstance(got, Exists)
    assert got.var != "y"  # binder renamed away from the substituted variable
    assert free_vars(got) == {"y"}
    assert got.body == Atom("=", (TVar("y"), TVar(got.var)))


def test_formulas_equal_up_to_term_reduction():
    a = Atom("=", (TApp("+", (tnum(2), tnum(2))), TApp("*", (tnum(2), tnum(2)))))
    b = Atom("=", (tnum(4), tnum(4)))
    assert formulas_equal(a, b)
    assert not formulas_equal(a, Atom("=", (tnum(4), tnum(5))))
    nested = Forall("x", And(a, Atom("<", (TVar("x"), tnum(9)))))
    assert norm_formula(nested) == Forall("x", And(b, Atom("<", (TVar("x"), tnum(9)))))


# ---------------------------------------------------------------------------
# normal formulas are kept as they are; formulas_equal skips normalizing
# syntactically equal sides


def _formulas():
    terms = _terms(closed=False)
    atoms = (st.tuples(st.sampled_from(["=", "<", "<="]), terms, terms)
             .map(lambda p: Atom(p[0], p[1:]))
             | st.sampled_from([Atom("top"), BOT]))

    def grow(sub):
        return (st.tuples(st.sampled_from([And, Or, Imply]), sub, sub)
                .map(lambda p: p[0](p[1], p[2]))
                | st.tuples(st.sampled_from([Forall, Exists]), st.sampled_from(["x", "y"]), sub)
                .map(lambda p: p[0](p[1], p[2])))
    return st.recursive(atoms, grow, max_leaves=4)


def _disguise_term(t):
    """t with every maximal closed subterm written as a sum with zero."""
    if not arith.aterm_vars(t):
        return TApp("+", (t, tnum(0)))
    if isinstance(t, TApp):
        return TApp(t.fn, tuple(_disguise_term(a) for a in t.args))
    return t


def _disguise(f):
    """A formula equal to f after normalization that differs in syntax
    wherever f has a closed term."""
    match f:
        case Atom(rel, args):
            return Atom(rel, tuple(_disguise_term(t) for t in args))
        case And(a, b) | Or(a, b) | Imply(a, b):
            return type(f)(_disguise(a), _disguise(b))
        case Forall(v, body) | Exists(v, body):
            return type(f)(v, _disguise(body))


def test_norm_formula_returns_a_normal_formula_itself():
    f = Forall("x", Imply(Atom("<", (TApp("+", (TVar("x"), tnum(3))), tnum(5))),
                          Exists("y", Atom("=", (TVar("y"), TApp("S", (TVar("x"),)))))))
    assert norm_formula(f) is f
    g = And(f, Atom("=", (TApp("+", (tnum(1), tnum(1))), tnum(2))))
    ng = norm_formula(g)
    assert ng is not g and ng.left is f
    assert ng == And(f, Atom("=", (tnum(2), tnum(2))))


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_norm_formula_keeps_normal_formulas_and_matches_the_reference(f):
    g, want = norm_formula(f, _FNS), ref.norm_formula(f, _FNS)
    assert g == want and (g is f) is (want is f)
    assert norm_formula(g, _FNS) is g


@settings(max_examples=300, deadline=None)
@given(_formulas(), st.sampled_from(["x", "y", "z"]), _terms(closed=False))
def test_subst_formula_matches_the_reference_and_keeps_untouched_formulas(f, var, rep):
    got, want = arith.subst_formula(f, var, rep), ref.subst_formula(f, var, rep)
    assert got == want and (got is f) is (want is f)
    if var not in arith.free_vars(f):
        assert got is f
    elif rep != TVar(var):
        assert got is not f


def _binders(names, body):
    for v in reversed(names):
        body = Forall(v, body)
    return body


_Y0 = Atom("=", (TVar("y"), tnum(0)))
_XS = [f"x{i}" if i else "x" for i in range(30)]  # x, x1 ... x29: the names _fresh picks
_CAPTURES = {
    # every binder captures x and is renamed to x1
    "same-name": (_binders(["x"] * 30, _Y0), TVar("x")),
    # every binder captures, and each fresh name is one a binder below holds
    "fresh-names-bound-below": (_binders(_XS, Atom("=", (TVar("y"), TVar("x")))),
                                TApp("+", tuple(map(TVar, _XS)))),
    # every binder captures x, and x1 is free below, so the fresh name is x2
    "fresh-name-free-below": (_binders(["x"] * 30, Atom("=", (TVar("y"), TVar("x1")))), TVar("x")),
    # binders that capture and binders that rename nothing, alternating
    "alternating": (_binders([v for x in _XS for v in (x, "z")], Or(_Y0, Exists("y", _Y0))),
                    TApp("*", (TVar("x"), TVar("x3"), TVar("x17")))),
}


@pytest.mark.parametrize("case", _CAPTURES)
def test_subst_formula_decides_capture_before_walking_a_body(case):
    # a bottom-up walk that substituted each body before it saw its binder
    # capture, then threw that away, took time 2^30 on these
    f, rep = _CAPTURES[case]
    start = timeit.default_timer()
    got = subst_formula(f, "y", rep)
    assert timeit.default_timer() - start < 5
    assert got == ref.subst_formula(f, "y", rep)
    assert free_vars(got) == (free_vars(f) - {"y"}) | arith.aterm_vars(rep)
    if case == "same-name":
        assert got == _binders(["x1"] * 30, Atom("=", (TVar("x"), tnum(0))))
    if case == "fresh-name-free-below":
        assert got == _binders(["x2"] * 30, Atom("=", (TVar("x"), TVar("x1"))))


@settings(max_examples=200, deadline=None)
@given(_formulas(), _formulas(), st.booleans())
def test_formulas_equal_agrees_with_normalizing_both_sides(a, b, disguised):
    if disguised:
        b = _disguise(a)
    expected = norm_formula(a, _FNS) == norm_formula(b, _FNS)
    assert formulas_equal(a, b, _FNS) == expected
    assert formulas_equal(b, a, _FNS) == expected
    assert expected or not disguised


def test_formulas_equal_on_an_unknown_function_symbol():
    odd = Atom("=", (TApp("exp", (tnum(2),)), tnum(1)))
    with pytest.raises(arith.ArithError, match="unknown function symbol 'exp'"):
        norm_formula(odd)
    # syntactically equal sides are equal without being normalized, so the
    # unknown symbol is reported only when the sides differ
    assert formulas_equal(odd, odd)
    with pytest.raises(arith.ArithError, match="unknown function symbol 'exp'"):
        formulas_equal(odd, Atom("=", (tnum(2), tnum(1))))


# ---------------------------------------------------------------------------
# a formula stores its free variables and its normality once asked


def _subformulas(f):
    """f's subformulas, f last."""
    return arith.fold_formula(f, lambda u: [u], lambda u, parts: [*sum(parts, []), u])


def _ask(f, var, rep):
    return (free_vars(f), arith.is_normal(f), norm_formula(f, _FNS),
            subst_formula(f, var, rep))


@settings(max_examples=300, deadline=None)
@given(_formulas(), st.sampled_from(["x", "y", "z"]), _terms(closed=False),
       st.sampled_from(["once", "again", "inside"]))
def test_stored_facts_agree_with_the_references(f, var, rep, how):
    if how == "again":
        _ask(f, var, rep)
    if how == "inside":
        for g in _subformulas(f)[:-1]:
            _ask(g, var, rep)
    fv, normal, n, s = _ask(f, var, rep)
    assert fv == ref.free_vars(f)
    assert normal is ref.is_normal(f)
    want = ref.norm_formula(f, _FNS)
    assert n == want and (n is f) is (want is f) is normal
    assert arith.is_normal(n) and ref.is_normal(n)
    want = ref.subst_formula(f, var, rep)
    assert s == want and (s is f) is (want is f)
    assert free_vars(s) == ref.free_vars(s) and arith.is_normal(s) is ref.is_normal(s)


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.booleans())
def test_stored_facts_take_no_part_in_equality_or_printing(f, normal_first):
    fresh, held, other = _rebuilt_formula(f), _rebuilt_formula(f), _rebuilt_formula(f)
    for g in _subformulas(held):
        norm_formula(g, _FNS), subst_formula(g, "x", TVar("y"))
    # other holds stored results in the other order, or only one of them
    if normal_first:
        norm_formula(other, _FNS)
    subst_formula(other, "y", tnum(2))
    # the facts live in slots, and the stored results in one of them
    assert not hasattr(held, "__dict__") and not hasattr(fresh, "__dict__")
    for a in (held, other):
        assert a == fresh and fresh == a and not a != fresh and arith.same(a, fresh)
        assert And(a, fresh) == And(fresh, a)
        assert hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert sexpr.print_formula(a) == sexpr.print_formula(fresh)
        assert sexpr.print_formula(a, brief=True) == sexpr.print_formula(fresh, brief=True)
        assert dataclasses.replace(a) == dataclasses.replace(fresh) == fresh
        assert repr(dataclasses.replace(a)) == repr(fresh)
    assert held == other


# ---------------------------------------------------------------------------
# one object per value inside an interning table, the same values outside


def _made_again(x):
    """x, a term or formula, built again node by node, its leaves too."""
    if type(x) is TVar or type(x) is arith.TNum:
        return type(x)(*dataclasses.astuple(x))
    if type(x) is TApp:
        return arith.fold_aterm(x, _made_again, lambda u, parts: TApp(u.fn, tuple(parts)))
    return arith.fold_formula(
        x, lambda u: Atom(u.rel, tuple(map(_made_again, u.args))),
        lambda u, parts: type(u)(u.var, *parts) if len(parts) == 1 else type(u)(*parts))


def _asked(g, var, rep, fns):
    return free_vars(g), arith.is_normal(g), norm_formula(g, fns), subst_formula(g, var, rep)


def _interned_and_apart_agree(f, var, rep, fns=_FNS):
    def inside():
        g, r = _made_again(f), _made_again(rep)
        assert _made_again(f) is g and _made_again(rep) is r  # one object per value
        return g, r, _asked(g, var, r, fns)

    g, r, (fv, normal, n, s) = arith.interned(inside)()
    h, rh = _made_again(f), _made_again(rep)  # outside any table
    assert _made_again(f) is not h and not hasattr(g, "__dict__")
    hfv, hnormal, hn, hs = _asked(h, var, rh, fns)
    for a, b in ((g, h), (r, rh), (n, hn), (s, hs)):
        assert a == b and b == a and not a != b and hash(a) == hash(b) and repr(a) == repr(b)
    for a, b in ((g, h), (n, hn), (s, hs)):
        assert sexpr.print_formula(a) == sexpr.print_formula(b)
    # and both agree with the references
    assert fv == hfv == ref.free_vars(f) and normal is hnormal is ref.is_normal(f)
    assert n == ref.norm_formula(f, fns) and (n is g) is (hn is h) is normal
    want = ref.subst_formula(f, var, rep)
    assert s == want and (hs is h) is (want is f)
    assert (s is g) is (s == g)  # inside the table, an equal result is the same object


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.sampled_from(["x", "y", "z"]), _terms(closed=False))
def test_interned_formulas_agree_with_formulas_built_apart(f, var, rep):
    _interned_and_apart_agree(f, var, rep)


def test_interned_corpus_and_generated_formulas_agree_with_those_built_apart():
    pf = reference_sexpr.parse_file(corpus.corpus_text())  # the reference reader interns nothing
    forms = [(f, pf.fns) for d in pf.derivs.values() for node in dd.walk(d)
             for f in (node.conclusion.goal, *(g for _, g in node.conclusion.context))]
    rng = random.Random(21)
    for make in (gen.closed_true_derivation, gen.em_derivation, gen.ind_derivation,
                 gen.cind_derivation, gen.open_derivation, gen.ha_em_derivation):
        for _ in range(4):
            forms += [(node.conclusion.goal, _FNS) for node in dd.walk(make(rng))]
    reps = [TVar("x"), tnum(2), TApp("+", (TVar("y"), tnum(1)))]
    for i, (f, fns) in enumerate(forms):
        _interned_and_apart_agree(f, "xyz"[i % 3], reps[i % 3], fns)


def test_an_unknown_function_in_a_closed_application():
    f = Forall("x", Atom("=", (TApp("exp", (tnum(2),)), TVar("x"))))
    for _ in range(2):
        assert arith.is_normal(f) is False
        with pytest.raises(arith.ArithError, match="unknown function symbol 'exp'"):
            norm_formula(f)
    # under a variable the application is not closed, so f is normal whatever exp is
    g = Forall("x", Atom("=", (TApp("exp", (TVar("x"),)), tnum(1))))
    assert arith.is_normal(g) and norm_formula(g) is g and norm_formula(g, {}) is g


def test_a_formula_is_walked_once(monkeypatch):
    # its facts are made with it from its parts', so no ask walks it
    walks = []
    fold = arith.fold_formula
    monkeypatch.setattr(arith, "fold_formula", lambda f, *fs: walks.append(f) or fold(f, *fs))
    x, y = TVar("x"), TVar("y")
    f = Forall("x", Imply(Atom("<", (x, TApp("+", (y, tnum(1))))), Exists("y", Atom("=", (x, y)))))
    assert free_vars(f) == {"y"} and norm_formula(f) is f and walks == []
    for _ in range(3):
        assert free_vars(f) == {"y"} and arith.is_normal(f) and norm_formula(f) is f
        assert subst_formula(f, "x", tnum(3)) is f and subst_formula(f, "z", y) is f
    assert walks == []
    # a formula that is not normal is normalized once, and a substitution made
    # once for each replacement: the results are stored on it
    g = And(f, Atom("=", (TApp("*", (tnum(2), tnum(3))), y)))
    n, two = norm_formula(g), tnum(2)
    assert n == And(f, Atom("=", (tnum(6), y))) and norm_formula(g) is n
    assert norm_formula(n) is n and norm_formula(n) is n
    s = subst_formula(g, "y", two)
    assert s == ref.subst_formula(g, "y", two) and subst_formula(g, "y", two) is s
    assert walks == []


# ---------------------------------------------------------------------------
# every formula walk is one fold, and syntax compares by `same`


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_free_vars_and_realizer_types_agree_with_their_references(f):
    assert free_vars(f) == ref.free_vars(f)
    for m in monads.BUILTIN_MONADS.values():
        assert extraction.realizer_type(f, m) == ref.realizer_type(f, m)


def _rebuilt_formula(f):
    """f built again node by node: equal to f, and sharing no node with it."""
    return arith.fold_formula(
        f, lambda u: Atom(u.rel, tuple(map(_rebuilt, u.args))),
        lambda u, parts: type(u)(u.var, *parts) if len(parts) == 1 else type(u)(*parts))


_SWAPPED = {And: Or, Or: Imply, Imply: And, Forall: Exists, Exists: Forall}


def _swapped(f):
    """f built again with each connective and quantifier replaced by another."""
    return arith.fold_formula(
        f, lambda u: u, lambda u, parts: _SWAPPED[type(u)](u.var, *parts)
        if len(parts) == 1 else _SWAPPED[type(u)](*parts))


@settings(max_examples=300, deadline=None)
@given(_formulas(), _formulas(), st.sampled_from(["same", "copy", "other", "inside", "swapped"]))
def test_formula_equality_agrees_with_the_generated_one(f, g, how):
    a, b = {"same": (f, f), "copy": (f, _rebuilt_formula(f)), "other": (f, g),
            "inside": (And(g, f), And(g, _rebuilt_formula(f))),
            "swapped": (Imply(g, f), Imply(g, _swapped(f)))}[how]
    ga, gb = ref.generated(a), ref.generated(b)
    assert (a == b) is (ga == gb) and (a != b) is (ga != gb)
    assert arith.same(a, b) is (ga == gb)
    # the generated hash, and the sexpr text as repr
    assert hash(a) == hash(ga) and repr(a) == sexpr.print_formula(a)


_X1 = Atom("=", (TVar("x"), tnum(1)))
_NEST = {"and": lambda f: And(f, _X1), "or": lambda f: Or(_X1, f),
         "imply": lambda f: Imply(f, _X1), "forall": lambda f: Forall("y", f),
         "exists": lambda f: Exists("y", f)}


def _nested(kind, n=10_000):
    f = _X1
    for _ in range(n):
        f = _NEST[kind](f)
    return f


@pytest.mark.parametrize("kind", _NEST)
def test_every_formula_walk_takes_a_deep_formula(kind):
    f, copy, one = _nested(kind), _nested(kind), _nested(kind, 9_999)
    assert free_vars(f) == {"x"}
    assert norm_formula(f) is f and subst_formula(f, "z", tnum(2)) is f
    closed = subst_formula(f, "x", tnum(1))
    assert free_vars(closed) == frozenset() and norm_formula(closed) is closed
    assert norm_formula(subst_formula(f, "x", TApp("+", (tnum(0), tnum(1))))) == closed
    assert f == copy and not f != copy and f != one and formulas_equal(f, copy)
    assert repr(f).count(f"({kind}") == 10_000
    assert repr(f) == repr(copy) == sexpr.print_formula(f)
    assert extraction.realizer_type(f) == extraction.realizer_type(copy)
    level = classify(f)
    if kind in ("forall", "exists"):
        assert (level.cls, level.level) == ({"forall": "pi", "exists": "sigma"}[kind], 1)
        assert classify(dual(f)).cls != level.cls
    else:
        assert (level.cls, level.level) == ("sigma", 0)


@pytest.mark.parametrize("kind", _NEST)
def test_hash_of_a_deep_formula_returns(kind):
    # a formula's hash is made from its parts' when it is made, so it never recurses
    f, copy = _nested(kind), _nested(kind)
    assert hash(f) == hash(copy) and hash(And(f, copy)) == hash(And(copy, f))


def test_deep_compositions_need_no_stack():
    # the arity is stored at construction, so building costs O(1) a level
    f = Succ()
    for _ in range(10_000):
        f = Comp(Succ(), (f,))
    assert f.arity == 1 and eval_prim(f, (1,)) == 10_002
    # the natives serve every level: x + (n + 1) * y through n compositions of +
    g = ADD
    for _ in range(10_000):
        g = Comp(ADD, (g, Proj(2, 2)))
    assert g.arity == 2 and eval_prim(g, (1, 2)) == 1 + 2 * 10_001
    assert PRec(Zero(1), Proj(3, 2)).arity == 2


def test_numerals_past_a_million_read_and_normalize():
    n = 10**100
    assert type(tnum(n)) is arith.TNum and tnum(n).value == n
    assert norm_aterm(TApp("*", (tnum(1001), tnum(1000)))) == tnum(1001000)
    square = TApp("*", (tnum(n), tnum(n)))
    assert sexpr.read_aterm(f"(* {n} {n})", FUNCTIONS) == square
    assert norm_aterm(square) == tnum(n * n) and reduce_aterm(square) == n * n
    assert atomic_truth(Atom("<", (tnum(n), square)))
    # but a computed value has no more digits than the interpreter prints
    limit = sys.get_int_max_str_digits()
    big = tnum(10**limit - 1)
    for make in (lambda: norm_aterm(TApp("*", (big, big))), lambda: TApp("S", (big,)),
                 lambda: reduce_aterm(TApp("+", (big, tnum(1))))):
        with pytest.raises(arith.ArithError, match=f"^a value of more than {limit} digits$"):
            make()


def test_atomic_truth():
    assert atomic_truth(Atom("<", (tnum(2), tnum(3))))
    assert not atomic_truth(Atom("<", (tnum(3), tnum(3))))
    assert atomic_truth(Atom("=", (TApp("+", (tnum(1), tnum(1))), tnum(2))))
    assert atomic_truth(Atom("top"))
    assert not atomic_truth(Atom("bot"))
    with pytest.raises(arith.NotClosed):
        atomic_truth(Atom("=", (TVar("x"), tnum(1))))
    with pytest.raises(arith.NotClosed):
        atomic_truth(And(Atom("top"), Atom("top")))
    with pytest.raises(ArityMismatch):
        atomic_truth(Atom("<", (tnum(1),)))
    with pytest.raises(arith.ArithError):
        atomic_truth(Atom("prime", (tnum(7),)))


# ---------------------------------------------------------------------------
# hierarchy classification


_matrix = Atom("=", (TVar("x"), TVar("y")))


@pytest.mark.parametrize("f,cls,level", [
    (Atom("top"), "sigma", 0),
    (And(Atom("top"), Imply(Atom("bot"), Atom("top"))), "sigma", 0),
    (Exists("x", _matrix), "sigma", 1),
    (Forall("x", _matrix), "pi", 1),
    (Forall("x", Forall("y", _matrix)), "pi", 1),
    (Exists("x", Exists("y", _matrix)), "sigma", 1),
    (Exists("x", Forall("y", _matrix)), "sigma", 2),
    (Forall("x", Exists("y", Forall("z", _matrix))), "pi", 3),
])
def test_classify_examples(f, cls, level):
    got = classify(f)
    assert (got.cls, got.level) == (cls, level)


def test_classify_rejects_non_prenex():
    assert classify(And(Exists("x", _matrix), Atom("top"))) is None
    assert classify(Forall("x", And(Exists("y", _matrix), Atom("top")))) is None


def test_dual():
    assert dual(Atom("top")) == neg(Atom("top"))
    assert dual(Exists("x", _matrix)) == Forall("x", neg(_matrix))
    assert dual(Forall("x", Exists("y", _matrix))) == \
        Exists("x", Forall("y", neg(_matrix)))
    with pytest.raises(ref.NotPrenex):
        dual(And(Exists("x", _matrix), Atom("top")))


@settings(max_examples=150)
@given(st.lists(st.sampled_from(["forall", "exists"]), max_size=5))
def test_dual_flips_class_preserves_level(kinds):
    f = _matrix
    for i, kind in enumerate(kinds):
        var = f"v{i}"
        f = Forall(var, f) if kind == "forall" else Exists(var, f)
    lv, dlv = classify(f), classify(dual(f))
    assert lv.level == dlv.level
    if lv.level > 0:
        assert {lv.cls, dlv.cls} == {"sigma", "pi"}


def test_fresh_names():
    assert arith._fresh("x", frozenset()) == "x"
    assert arith._fresh("x", frozenset({"x"})) == "x1"
    assert arith._fresh("x", frozenset({"x", "x1"})) == "x2"
