"""Natural deduction checking: rule shapes, hygiene, helpers."""

import dataclasses
import random
import time

import pytest

from realizer import arith, corpus, sexpr
from realizer import deduction as dd
from realizer.arith import And, Atom, BOT, Exists, Forall, Imply, Or, TApp, TVar, tnum
from realizer.deduction import (
    Derivation, DischargeMismatch, EigenvariableViolation, RuleShapeError,
    Sequent, check_derivation, seq,
)

import conftest as gen


def _atom_eq(a, b):
    return Atom("=", (a, b))


def _d(rule, ctx, goal, *prems):
    return Derivation(rule, Sequent(tuple(ctx), goal), tuple(prems))


# ---------------------------------------------------------------------------
# the bundled corpus and the generators


def test_corpus_checks():
    pf = corpus.corpus_file()
    assert len(pf.derivs) >= 10
    for name in pf.derivs:
        got = check_derivation(pf.derivs[name], pf.rels, pf.fns)
        assert got == pf.derivs[name].conclusion, name


@pytest.mark.parametrize("seed", range(40))
def test_generated_derivations_check(seed):
    rng = random.Random(seed)
    check_derivation(gen.ha_em_derivation(rng))


@pytest.mark.parametrize("seed", range(25))
def test_cut_wrappers_preserve_the_sequent(seed):
    rng = random.Random(500 + seed)
    d = gen.closed_true_derivation(rng, (), 2)
    wrapped = gen.with_random_cuts(rng, d, 3)
    assert wrapped.conclusion == d.conclusion
    assert wrapped is not d


def test_every_rule_kind_has_one_shape():
    kinds = dd.RuleKind.__args__
    assert len(set(kinds)) == len(kinds)
    assert set(dd.RULE_SHAPES) == set(kinds)
    for kind, shape in dd.RULE_SHAPES.items():
        fields = {f.name for f in dataclasses.fields(kind)}
        assert ("label" in fields) >= bool(shape.discharges), kind
        assert ("var" in fields) == (shape.binds is not None), kind
        assert shape.binds is None or shape.arity > shape.binds, kind
        assert all(i < shape.arity for i in shape.discharges), kind


# ---------------------------------------------------------------------------
# axioms


def test_id_och_lookup():
    ctx = (("u", Atom("top")),)
    check_derivation(dd.assume(ctx, "u"))
    with pytest.raises(DischargeMismatch):
        check_derivation(_d(dd.Id("v"), ctx, Atom("top")))
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.Id("u"), ctx, Atom("bot")))


def test_duplicate_labels_rejected():
    ctx = (("u", Atom("top")), ("u", Atom("bot")))
    with pytest.raises(DischargeMismatch):
        check_derivation(_d(dd.Id("u"), ctx, Atom("top")))


def test_atom_axioms():
    check_derivation(_d(dd.AtomI(), (), _atom_eq(tnum(2), TApp("+", (tnum(1), tnum(1))))))
    for bad in (
        _d(dd.AtomI(), (), _atom_eq(tnum(2), tnum(3))),             # false
        _d(dd.AtomI(), (), _atom_eq(TVar("x"), TVar("x"))),         # open
        _d(dd.AtomI(), (), And(Atom("top"), Atom("top"))),          # not atomic
    ):
        with pytest.raises(dd.DeductionError):
            check_derivation(bad)


def test_atom_elim():
    false = _d(dd.AtomI(), (("u", _atom_eq(tnum(0), tnum(1))),), Atom("top"))
    # premiss must be false: a true premiss is rejected
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.AtomE(), (), BOT, _d(dd.AtomI(), (), Atom("top"))))
    ctx = (("u", _atom_eq(tnum(0), tnum(1))),)
    ok = _d(dd.AtomE(), ctx, BOT, dd.assume(ctx, "u"))
    check_derivation(ok)
    del false


# ---------------------------------------------------------------------------
# posited atomic rules


def test_atom_post_accepts_each_shape():
    eq, plus, times = _atom_eq, lambda a, b: TApp("+", (a, b)), lambda a, b: TApp("*", (a, b))
    x, y = TVar("x"), TVar("y")
    ctx = (("u", eq(x, y)), ("v", Atom("<", (x, tnum(3)))))
    u = dd.assume(ctx, "u")
    v = dd.assume(ctx, "v")
    cases = [
        _d(dd.AtomPost("refl"), ctx, eq(plus(x, tnum(0)), plus(x, tnum(0)))),
        _d(dd.AtomPost("sym"), ctx, eq(y, x), u),
        _d(dd.AtomPost("trans"), ctx, eq(x, x),
           u, _d(dd.AtomPost("sym"), ctx, eq(y, x), u)),
        _d(dd.AtomPost("sub-fn"), ctx, eq(TApp("S", (x,)), TApp("S", (y,))), u),
        _d(dd.AtomPost("sub-rel"), ctx, Atom("<", (y, tnum(3))), u, v),
        _d(dd.AtomPost("succ"), ctx, eq(x, y),
           _d(dd.AtomPost("sub-fn"), ctx, eq(TApp("S", (x,)), TApp("S", (y,))), u)),
        _d(dd.AtomPost("add-zero"), ctx, eq(plus(x, TApp("0")), x)),
        _d(dd.AtomPost("add-succ"), ctx,
           eq(plus(x, TApp("S", (y,))), plus(TApp("S", (x,)), y))),
        _d(dd.AtomPost("mul-zero"), ctx, eq(times(x, TApp("0")), TApp("0"))),
        _d(dd.AtomPost("mul-succ"), ctx,
           eq(times(x, TApp("S", (y,))), plus(times(x, y), x))),
    ]
    for d in cases:
        check_derivation(d)
    zero_ctx = (("u", eq(TApp("S", (x,)), TApp("0"))),)
    check_derivation(_d(dd.AtomPost("zero"), zero_ctx, BOT, dd.assume(zero_ctx, "u")))


def test_atom_post_rejects_wrong_shapes():
    eq = _atom_eq
    x, y = TVar("x"), TVar("y")
    ctx = (("u", eq(x, y)),)
    u = dd.assume(ctx, "u")
    bad = [
        _d(dd.AtomPost("refl"), ctx, eq(x, y)),
        _d(dd.AtomPost("sym"), ctx, eq(x, y), u),
        _d(dd.AtomPost("sub-fn"), ctx, eq(TApp("S", (x,)), TApp("S", (TApp("S", (y,)),))), u),
        _d(dd.AtomPost("add-zero"), ctx, eq(TApp("+", (TApp("0"), x)), x)),
        _d(dd.AtomPost("mul-zero"), ctx, eq(TApp("*", (x, TApp("0"))), x)),
        _d(dd.AtomPost("nonsense"), ctx, eq(x, x)),
        _d(dd.AtomPost("refl"), ctx, And(eq(x, x), eq(x, x))),
    ]
    for d in bad:
        with pytest.raises(dd.DeductionError):
            check_derivation(d)


# ---------------------------------------------------------------------------
# connectives


def test_connective_shape_mismatches():
    t = _d(dd.AtomI(), (), Atom("top"))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.AndI(), (), And(Atom("top"), Atom("bot")), t, t))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.AndEL(), (), Atom("top"), t))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.OrIL(), (), Or(Atom("bot"), Atom("top")), t))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.ImplyE(), (), Atom("top"), t, t))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.AndI(), (), And(Atom("top"), Atom("top")), t))


def test_imply_discharge_context():
    ante = Atom("top")
    goal = Imply(ante, Atom("top"))
    inner_ok = _d(dd.AtomI(), (("h", ante),), Atom("top"))
    check_derivation(_d(dd.ImplyI("h"), (), goal, inner_ok))
    inner_bad = _d(dd.AtomI(), (), Atom("top"))  # nothing discharged
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.ImplyI("h"), (), goal, inner_bad))


def test_or_elim_branch_contexts():
    ctx = ()
    major = _d(dd.OrIL(), ctx, Or(Atom("top"), Atom("bot")),
               _d(dd.AtomI(), ctx, Atom("top")))
    bl = _d(dd.AtomI(), (("c", Atom("top")),), Atom("top"))
    br = _d(dd.AtomI(), (("c", Atom("bot")),), Atom("top"))
    check_derivation(_d(dd.OrE("c"), ctx, Atom("top"), major, bl, br))
    swapped = _d(dd.OrE("c"), ctx, Atom("top"), major, br, bl)
    with pytest.raises(RuleShapeError):
        check_derivation(swapped)


# ---------------------------------------------------------------------------
# quantifiers and hygiene


def test_forall_intro_eigenvariable():
    body = _atom_eq(TVar("x"), TVar("x"))
    prem = _d(dd.AtomPost("refl"), (), body)
    check_derivation(_d(dd.ForallI("x"), (), Forall("x", body), prem))

    leaky_ctx = (("u", Atom("<", (TVar("x"), tnum(3)))),)
    leaky_prem = _d(dd.AtomPost("refl"), leaky_ctx, body)
    with pytest.raises(EigenvariableViolation):
        check_derivation(_d(dd.ForallI("x"), leaky_ctx, Forall("x", body), leaky_prem))


def test_forall_elim_instance():
    body = _atom_eq(TVar("x"), TVar("x"))
    alls = _d(dd.ForallI("x"), (), Forall("x", body),
              _d(dd.AtomPost("refl"), (), body))
    check_derivation(_d(dd.ForallE(tnum(4)), (), _atom_eq(tnum(4), tnum(4)), alls))
    with pytest.raises(RuleShapeError):
        check_derivation(_d(dd.ForallE(tnum(4)), (), _atom_eq(tnum(4), tnum(5)), alls))


def test_exists_elim_eigenvariable_in_goal():
    ex = Exists("x", _atom_eq(TVar("x"), tnum(2)))
    major = _d(dd.ExistsI(tnum(2)), (), ex, _d(dd.AtomI(), (), _atom_eq(tnum(2), tnum(2))))
    # the split variable escapes into the conclusion
    bad_goal = _atom_eq(TVar("w"), tnum(2))
    minor = dd.assume((("h", bad_goal),), "h")
    with pytest.raises(EigenvariableViolation):
        check_derivation(_d(dd.ExistsE("h", "w"), (), bad_goal, major, minor))


def test_em_branch_shapes():
    rng = random.Random(11)
    d = gen.em_derivation(rng)
    check_derivation(d)
    # left branch must assume a universal atomic formula
    goal = d.conclusion.goal
    eq_hyp = (("u", Atom("top")),)
    left = _d(dd.ExistsI(tnum(0)), eq_hyp, goal,
              _d(dd.AtomI(), eq_hyp, _atom_eq(tnum(0), tnum(0))))
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.EM("u", "y"), (), goal, left, left))


def test_em_eigenvariable_in_conclusion():
    univ = Forall("y", Atom("<=", (tnum(0), TVar("y"))))
    goal = Atom("<=", (tnum(0), TVar("y")))  # mentions the witness variable
    cl = (("u", univ),)
    left = _d(dd.ForallE(TVar("y")), cl, goal, dd.assume(cl, "u"))
    cr = (("u", arith.neg(goal)),)
    right = _d(dd.AtomE(), cr, goal)  # shape is irrelevant, hygiene fires first
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.EM("u", "y"), (), goal, left, right))


def test_induction_premiss_shapes():
    rng = random.Random(3)
    check_derivation(gen.ind_derivation(rng))
    check_derivation(gen.cind_derivation(rng))
    template = Exists("w", _atom_eq(TVar("w"), TVar("v")))
    base_wrong = _d(dd.ExistsI(tnum(1)), (), Exists("w", _atom_eq(TVar("w"), tnum(1))),
                    _d(dd.AtomI(), (), _atom_eq(tnum(1), tnum(1))))
    step = dd.assume((("ih", template),), "ih")
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.Ind("ih", "v", template, tnum(2)),
                            (), Exists("w", _atom_eq(TVar("w"), tnum(2))),
                            base_wrong, step))


def test_cind_hypothesis_shape():
    v = TVar("v")
    body = _atom_eq(TApp("+", (v, TApp("0"))), v)
    wrong_guard = Forall("z", Imply(Atom("<=", (TVar("z"), v)),
                                    _atom_eq(TApp("+", (TVar("z"), TApp("0"))), TVar("z"))))
    cs = (("ch", wrong_guard),)
    prem = _d(dd.AtomPost("add-zero"), cs, body)
    with pytest.raises(dd.DeductionError):
        check_derivation(_d(dd.CInd("ch", "v"), (), Forall("v", body), prem))


# ---------------------------------------------------------------------------
# substitution and structural helpers


def test_subst_derivation_preserves_checking():
    x = TVar("x")
    ctx = (("u", Atom("<", (x, tnum(5)))),)
    d = _d(dd.AtomPost("refl"), ctx, _atom_eq(x, x))
    got = dd._rename(d, {}, (("x", tnum(3)),))
    check_derivation(got)
    assert got.conclusion.goal == _atom_eq(tnum(3), tnum(3))
    assert got.conclusion.context[0][1] == Atom("<", (tnum(3), tnum(5)))


def test_weaken_inserts_at_position():
    d = _d(dd.AtomI(), (("a", Atom("top")),), Atom("top"))
    front = dd.weaken(d, (("z", Atom("bot")),), at=0)
    back = dd.weaken(d, (("z", Atom("bot")),), at=1)
    assert [l for l, _ in front.conclusion.context] == ["z", "a"]
    assert [l for l, _ in back.conclusion.context] == ["a", "z"]
    check_derivation(front)
    check_derivation(back)


def test_ex_falso_elaborates_every_shape():
    ctx = (("u", _atom_eq(tnum(0), tnum(1))),)
    bottom = _d(dd.AtomE(), ctx, BOT, dd.assume(ctx, "u"))
    for goal in (
        Atom("top"),
        _atom_eq(tnum(3), tnum(9)),
        And(Atom("top"), Atom("bot")),
        Or(Atom("bot"), Atom("top")),
        Imply(Atom("top"), Atom("bot")),
        Exists("x", _atom_eq(TVar("x"), tnum(1))),
        Forall("x", _atom_eq(TVar("x"), TVar("x"))),
        Forall("x", Exists("y", Or(Atom("top"), _atom_eq(TVar("x"), TVar("y"))))),
    ):
        d = dd.ex_falso(bottom, goal)
        assert d.conclusion == Sequent(ctx, goal)
        check_derivation(d)


def test_ex_falso_builds_a_deep_goal():
    # 10^4 levels cycling through and, or, forall and exists, with an
    # implication every thousandth level
    ctx = (("u", _atom_eq(tnum(0), tnum(1))),)
    bottom = _d(dd.AtomE(), ctx, BOT, dd.assume(ctx, "u"))
    goal = Atom("top")
    for i in range(10**4):
        goal = (Imply(Atom("bot"), goal) if i % 1000 == 999 else
                (And(Atom("top"), goal), Or(goal, Atom("bot")), Forall("x", goal),
                 Exists("y", goal))[i % 4])
    d = dd.ex_falso(bottom, goal)
    assert d.conclusion == Sequent(ctx, goal)
    check_derivation(d)


def test_uses_label_and_walk():
    ctx = (("u", Atom("top")), ("v", Atom("top")))
    d = _d(dd.AndI(), ctx, And(Atom("top"), Atom("top")),
           dd.assume(ctx, "u"), _d(dd.AtomI(), ctx, Atom("top")))
    assert dd.uses_label(d, "u")
    assert not dd.uses_label(d, "v")
    assert list(map(id, dd.walk(d))) == [id(d), *map(id, d.premisses)]


def test_seq_and_lookup():
    s = seq([("u", Atom("top"))], Atom("bot"))
    assert s.lookup("u") == Atom("top")
    assert s.lookup("w") is None
    assert s.labels() == {"u"}


def _tower(levels: int, leaf_rule) -> Derivation:
    """levels of and-el over and-i above a leaf of 1 = 1 by leaf_rule, built
    anew each time, so no two towers share a node or a formula."""
    one, two = _atom_eq(tnum(1), tnum(1)), _atom_eq(tnum(2), tnum(2))
    d = _d(leaf_rule, (), one)
    for _ in range(levels // 2):
        both = _d(dd.AndI(), (), And(one, two), d, _d(dd.AtomI(), (), two))
        d = _d(dd.AndEL(), (), one, both)
    return d


def test_deep_derivations_compare_and_hash_without_recursion():
    a, b = _tower(10**4, dd.AtomI()), _tower(10**4, dd.AtomI())
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    # the same conclusion at the root, and a difference at the bottom
    for other in (_tower(10**4 - 2, dd.AtomI()), _tower(10**4, dd.AtomPost("refl"))):
        assert other.conclusion == a.conclusion and hash(other) == hash(a) and other != a
    # equality agrees with the field-by-field comparison on shallow trees
    for seed in range(20):
        rng = random.Random(seed)
        d, e = gen.closed_true_derivation(rng, (), 2), gen.closed_true_derivation(rng, (), 2)
        fields = lambda x: (x.rule, x.conclusion, x.premisses)
        assert (d == e) == (fields(d) == fields(e)) and d == dataclasses.replace(d)


def test_deep_derivation_repr_is_its_text():
    d = _tower(10**4, dd.AtomI())
    assert repr(d) == sexpr.print_derivation(d)


def _growing_tower(levels: int) -> Derivation:
    """levels of and-i, each proving And(the level below's goal, 1 = 1), built
    anew each time: the goals grow with depth, and no two towers share one."""
    one = _atom_eq(tnum(1), tnum(1))
    d = _d(dd.AtomI(), (), one)
    for _ in range(levels):
        d = _d(dd.AndI(), (), And(d.conclusion.goal, one), d, _d(dd.AtomI(), (), one))
    return d


def test_towers_of_growing_goals_built_apart_compare_in_linear_time():
    # each level's goal holds every goal below it, so comparing them afresh
    # at every level is quadratic; each pair is expanded once instead
    a, b, c = _growing_tower(10**4), _growing_tower(10**4), _growing_tower(10**4 - 1)
    start = time.perf_counter()
    assert a == b and hash(a) == hash(b)
    assert a != c and a.premisses[0] == c
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# what the check keeps on a node


def _counting_checks(monkeypatch) -> list:
    calls = []
    check_node = dd._check_node
    monkeypatch.setattr(dd, "_check_node", lambda node, *a: calls.append(node) or check_node(node, *a))
    return calls


def test_a_failed_check_marks_nothing_above_the_error(monkeypatch):
    # 600 levels of and-er over and-i, whose left premiss is one valid tower
    # and whose right one leads down to a leaf with a premiss missing
    d = _tower(1200, dd.AtomI())
    one = d.conclusion.goal
    bad = _d(dd.AtomE(), (), one)
    for _ in range(600):
        bad = _d(dd.AndER(), (), one, _d(dd.AndI(), (), And(one, one), d, bad))
    calls = _counting_checks(monkeypatch)
    errors = []
    for _ in range(2):
        with pytest.raises(RuleShapeError) as e:
            check_derivation(bad)
        errors.append((str(e.value), e.value.path))
        assert bad._checked is None and d._checked is not None
    assert errors[0] == errors[1] == (f"at {'.'.join('01' * 600)}: AtomE expects 1 premisses",
                                      (0, 1) * 600)
    # the tower passed whole the first time; after that only the path to
    # the error is walked
    path = 2 * 600 + 1
    assert len(calls) == (path + sum(1 for _ in dd.walk(d))) + path


def test_a_check_is_kept_for_its_table_objects(monkeypatch):
    pf = corpus.corpus_file()
    d = sexpr.read_derivation(sexpr.print_derivation(pf.derivs["em-refuted"]), pf.fns, pf.rels)
    nodes = len({id(n) for n in dd.walk(d)})
    calls = _counting_checks(monkeypatch)
    check_derivation(d, pf.rels, pf.fns)
    assert len(calls) == nodes
    check_derivation(d, pf.rels, pf.fns)
    assert len(calls) == nodes
    # equal tables that are other objects: every node is walked again
    check_derivation(d, dict(pf.rels), dict(pf.fns))
    assert len(calls) == 2 * nodes
