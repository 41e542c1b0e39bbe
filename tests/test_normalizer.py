"""Head cuts, permutations, witness extraction and normal shapes."""

import json
import pathlib
import random
import re

import pytest

from realizer import arith, corpus
from realizer import deduction as dd
from realizer import normalizer as nz
from realizer.arith import And, Atom, BOT, Exists, Forall, Imply, Or, TVar, tnum
from realizer.deduction import Derivation, Sequent
from realizer.normalizer import (
    EM_PERMUTE, EM_WITNESS, IMMEDIATE_SIMPL, IND, OR_EXISTS_PERMUTE, PROPER,
    HeadCut, apply_head_reduction, check_open_normal, extract_witness,
    find_head_cut, normalize_derivation, norm_terms,
)

import conftest as gen

KNOWN_WITNESSES = gen.CORPUS_WITNESSES


def _s(ctx, goal):
    return Sequent(tuple(ctx), goal)


def _seq_eq(a, b):
    return nz._sequent_eq(a, b, arith.FUNCTIONS)


# ---------------------------------------------------------------------------
# finding and firing individual cuts


def test_proper_cut_and_elimination():
    left = Derivation(dd.AtomI(), _s((), Atom("top")))
    right = Derivation(dd.AtomI(), _s((), Atom("=", (tnum(1), tnum(1)))))
    both = Derivation(dd.AndI(), _s((), And(left.conclusion.goal, right.conclusion.goal)),
                      (left, right))
    d = Derivation(dd.AndEL(), _s((), Atom("top")), (both,))
    cut = find_head_cut(d)
    assert cut == HeadCut((), PROPER, "and")
    nd = apply_head_reduction(d, cut)
    assert nd == left
    assert find_head_cut(nd) is None


def test_proper_cut_detail_names():
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        base = gen.closed_true_derivation(rng, (), 1)
        d = gen._one_cut(rng, base)
        cut = find_head_cut(d)
        if cut is not None and cut.kind == PROPER:
            seen.add(cut.detail)
    assert {"and", "imply", "or", "forall", "exists"} <= seen


def test_stale_cut_rejected():
    d = Derivation(dd.AtomI(), _s((), Atom("top")))
    with pytest.raises(nz.InvalidCut):
        apply_head_reduction(d, HeadCut((), PROPER, "and"))
    with pytest.raises(nz.InvalidCut):
        apply_head_reduction(d, HeadCut((3,), IND))


def test_induction_unfolds_to_numeral_depth():
    d = gen.ind_derivation(random.Random(8))
    assert find_head_cut(d).kind == IND
    nd = normalize_derivation(d)
    assert all(not isinstance(n.rule, dd.Ind) for n in dd.walk(nd))
    assert _seq_eq(nd.conclusion, d.conclusion)


def test_em_witness_refuted_instance():
    pf = corpus.corpus_file()
    d = pf.derivs["em-refuted"]
    trace: list[str] = []
    nd = normalize_derivation(d, trace=trace)
    assert all(not isinstance(n.rule, dd.EM) for n in dd.walk(nd))
    assert any(line.startswith(f"{EM_WITNESS} at") for line in trace)
    assert isinstance(nd.rule, dd.ExistsI)


def test_em_witness_granted_instances():
    pf = corpus.corpus_file()
    nd = normalize_derivation(pf.derivs["em-granted"])
    assert all(not isinstance(n.rule, dd.EM) for n in dd.walk(nd))
    assert isinstance(nd.rule, dd.ExistsI)
    assert arith.reduce_aterm(nd.rule.term, {}) == KNOWN_WITNESSES["em-granted"]


def _refuting_em(root, eta) -> Derivation:
    """em u y under the assumptions root, refuted at 0 on the left; the
    right branch uses u as a conjunct, through imply-i eta unless eta is
    None."""
    y, goal = TVar("y"), Exists("x", Atom("<=", (TVar("x"), tnum(3))))
    univ, neg = Forall("y", Atom("<", (tnum(5), y))), arith.neg(Atom("<", (tnum(5), y)))
    cl, cr = root + (("u", univ),), root + (("u", neg),)
    query = Derivation(dd.ForallE(tnum(0)), _s(cl, Atom("<", (tnum(5), tnum(0)))),
                       (dd.assume(cl, "u"),))
    left = dd.ex_falso(Derivation(dd.AtomE(), _s(cl, BOT), (query,)), goal)
    use = dd.assume(cr, "u")
    if eta is not None:
        cru = cr + ((eta, neg.left),)
        applied = Derivation(dd.ImplyE(), _s(cru, BOT), (dd.assume(cru, "u"), dd.assume(cru, eta)))
        use = Derivation(dd.ImplyI(eta), _s(cr, neg), (applied,))
    g = Derivation(dd.ExistsI(tnum(3)), _s(cr, goal),
                   (Derivation(dd.AtomI(), _s(cr, Atom("<=", (tnum(3), tnum(3))))),))
    both = Derivation(dd.AndI(), _s(cr, And(goal, neg)), (g, use))
    d = Derivation(dd.EM("u", "y"), _s(root, goal),
                   (left, Derivation(dd.AndEL(), _s(cr, goal), (both,))))
    dd.check_derivation(d)
    return d


@pytest.mark.parametrize("root, eta, label", [
    ((), None, "r"),
    ((("r", Atom("top")),), None, "r1"),
    ((("r", Atom("top")), ("r1", Atom("top"))), None, "r2"),
    ((), "r", "r1"),
    ((("r1", Atom("top")),), "r", "r2"),
    ((("r", Atom("top")),), "r1", "r2"),
])
def test_em_witness_refutation_label_is_fresh_for_the_context(root, eta, label):
    # the refutation's label is the first of r, r1, ... that neither the
    # context nor the right branch holds
    d = _refuting_em(root, eta)
    cut = find_head_cut(d)
    assert cut.kind == EM_WITNESS
    nd = apply_head_reduction(d, cut)
    dd.check_derivation(nd)
    inst = Atom("<", (tnum(5), tnum(0)))
    ctx = root + ((eta, inst),) if eta is not None else root
    refutation = next(n for n in dd.walk(nd) if n.rule == dd.ImplyI(label))
    assert refutation.conclusion == _s(ctx, Imply(inst, BOT))
    hyp = ctx + ((label, inst),)
    assert refutation.premisses == (
        Derivation(dd.AtomE(), _s(hyp, BOT), (dd.assume(hyp, label),)),)
    assert normalize_derivation(d).rule == dd.ExistsI(tnum(3))


def test_em_permutation_under_elimination():
    pf = corpus.corpus_file()
    d = pf.derivs["em-under-elim"]
    cut = find_head_cut(d)
    assert cut.kind == EM_PERMUTE and cut.detail == "and-left"
    trace: list[str] = []
    value, nd = extract_witness(d, trace=trace)
    assert value == KNOWN_WITNESSES["em-under-elim"]
    assert trace[0].startswith(f"{EM_PERMUTE}/and-left at root")
    assert any(EM_WITNESS in line for line in trace)


def test_or_exists_permutation():
    # AndEL over an OrE major: the elimination permutes into the branches
    live, dead = Atom("top"), Atom("bot")
    packed = And(Atom("=", (tnum(2), tnum(2))), Atom("top"))
    major = Derivation(dd.OrIL(), _s((), Or(live, dead)),
                       (Derivation(dd.AtomI(), _s((), live)),))
    cl = (("c", live),)
    crd = (("c", dead),)
    mk = lambda ctx: Derivation(
        dd.AndI(), _s(ctx, packed),
        (Derivation(dd.AtomI(), _s(ctx, packed.left)),
         Derivation(dd.AtomI(), _s(ctx, packed.right))))
    bottom = Derivation(dd.AtomE(), _s(crd, BOT), (dd.assume(crd, "c"),))
    ore = Derivation(dd.OrE("c"), _s((), packed), (major, mk(cl), dd.ex_falso(bottom, packed)))
    d = Derivation(dd.AndEL(), _s((), packed.left), (ore,))
    dd.check_derivation(d)

    cut = find_head_cut(d)
    assert cut.kind in (OR_EXISTS_PERMUTE, IMMEDIATE_SIMPL)
    nd = normalize_derivation(d)
    assert _seq_eq(nd.conclusion, d.conclusion)
    assert check_open_normal(nd)


def test_immediate_simplification_drops_dead_splits():
    rng = random.Random(21)
    base = Derivation(dd.AtomI(), _s((), Atom("top")))
    # kind 3 wraps in an or-elimination whose right branch kills a dead atom
    d = gen._one_cut(rng, base)
    while not isinstance(d.rule, (dd.OrE, dd.ExistsE)):
        d = gen._one_cut(rng, base)
    nd = normalize_derivation(d)
    assert all(not isinstance(n.rule, (dd.OrE, dd.ExistsE))
               for n in dd.walk(nd))
    assert nd == base


@pytest.mark.parametrize("shape", ["or", "exists"])
def test_immediate_simplification_of_an_opaque_major(shape):
    # the major premiss is a hypothesis, so no proper cut or permutation
    # applies; the minor branches ignore their hypothesis
    if shape == "or":
        ctx = (("u", Or(Atom("top"), Atom("bot"))),)
        branches = tuple(_s(ctx + (("c", f),), Atom("top"))
                         for f in (Atom("top"), Atom("bot")))
        d = Derivation(dd.OrE("c"), _s(ctx, Atom("top")),
                       (dd.assume(ctx, "u"), *(Derivation(dd.AtomI(), b) for b in branches)))
    else:
        # a hypothesis mentioning w would count as a use of w
        ctx = (("u", Exists("x", Atom("=", (tnum(2), tnum(2))))),)
        minor = Derivation(dd.AtomI(), _s(ctx + (("c", Atom("=", (tnum(2), tnum(2)))),),
                                          Atom("top")))
        d = Derivation(dd.ExistsE("c", "w"), _s(ctx, Atom("top")),
                       (dd.assume(ctx, "u"), minor))
    dd.check_derivation(d)
    cut = find_head_cut(d)
    assert cut == HeadCut((), IMMEDIATE_SIMPL, shape)
    new = apply_head_reduction(d, cut)
    assert new == Derivation(dd.AtomI(), _s(ctx, Atom("top")))
    trace: list[str] = []
    assert normalize_derivation(d, trace=trace) == new
    assert trace[0].startswith(f"{IMMEDIATE_SIMPL}/{shape} at root")


def test_dead_split_over_a_non_vacuous_existential_collapses():
    # the witness hypothesis mentions w, but only through the context the
    # split itself adds, so the split is dead and collapses
    ctx = (("u", Exists("x", Atom("=", (TVar("x"), tnum(2))))),)
    inner = ctx + (("c", Atom("=", (TVar("w"), tnum(2)))),)
    minor = Derivation(dd.AndI(), _s(inner, And(Atom("top"), Atom("=", (tnum(1), tnum(1))))),
                       (Derivation(dd.AtomI(), _s(inner, Atom("top"))),
                        Derivation(dd.AtomI(), _s(inner, Atom("=", (tnum(1), tnum(1)))))))
    d = Derivation(dd.ExistsE("c", "w"), _s(ctx, minor.conclusion.goal),
                   (dd.assume(ctx, "u"), minor))
    dd.check_derivation(d)
    cut = find_head_cut(d)
    assert cut == HeadCut((), IMMEDIATE_SIMPL, "exists")
    new = apply_head_reduction(d, cut)
    dd.check_derivation(new)
    assert new.conclusion == d.conclusion
    assert new == nz._strengthen(minor, "c")
    # a minor that uses w below its root keeps the split
    w_eq_w = Atom("=", (TVar("w"), TVar("w")))
    lemma = Derivation(dd.ImplyI("v"), _s(inner, Imply(w_eq_w, Atom("top"))),
                       (Derivation(dd.AtomI(), _s(inner + (("v", w_eq_w),), Atom("top"))),))
    uses_w = Derivation(dd.ImplyE(), _s(inner, Atom("top")),
                        (lemma, Derivation(dd.AtomPost("refl"), _s(inner, w_eq_w))))
    live = Derivation(dd.ExistsE("c", "w"), _s(ctx, Atom("top")),
                      (dd.assume(ctx, "u"), uses_w))
    dd.check_derivation(live)
    assert find_head_cut(live) is None


# ---------------------------------------------------------------------------
# every elimination over every discharging split

_A = Atom("=", (tnum(1), tnum(1)))
_B = Atom("<", (tnum(0), tnum(1)))
_DEAD = Atom("<", (tnum(1), tnum(0)))


def _atom(ctx, goal):
    return Derivation(dd.AtomI(), _s(ctx, goal))


def _major_proof(elim: str):
    """prove(ctx): a proof of the formula the elimination takes apart."""
    v = TVar("v")
    shapes = {
        "and": lambda ctx: Derivation(dd.AndI(), _s(ctx, And(_A, _B)),
                                      (_atom(ctx, _A), _atom(ctx, _B))),
        "or": lambda ctx: Derivation(dd.OrIL(), _s(ctx, Or(_A, _DEAD)), (_atom(ctx, _A),)),
        "imply": lambda ctx: Derivation(dd.ImplyI("k"), _s(ctx, Imply(_A, _B)),
                                        (_atom(ctx + (("k", _A),), _B),)),
        "forall": lambda ctx: Derivation(
            dd.ForallI("v"), _s(ctx, Forall("v", Atom("=", (v, v)))),
            (Derivation(dd.AtomPost("refl"), _s(ctx, Atom("=", (v, v)))),)),
        "exists": lambda ctx: Derivation(
            dd.ExistsI(tnum(2)), _s(ctx, Exists("x", Atom("=", (TVar("x"), tnum(2))))),
            (_atom(ctx, Atom("=", (tnum(2), tnum(2)))),)),
        # the body ignores the bound variable, so the split variable may be anything
        "vacuous-exists": lambda ctx: Derivation(
            dd.ExistsI(tnum(0)), _s(ctx, Exists("x", _A)), (_atom(ctx, _A),)),
    }
    return shapes[elim.split("/")[0].removesuffix("-left").removesuffix("-right")]


def _eliminate(elim: str, major: Derivation) -> Derivation:
    """The elimination named elim on top of major; "/relabel" variants reuse
    the split's label "c", "/clash" variants reuse its variable "y"."""
    goal = major.conclusion.goal
    label = "c" if elim.endswith("/relabel") else "h"
    if elim == "and-left":
        return Derivation(dd.AndEL(), _s((), goal.left), (major,))
    if elim == "and-right":
        return Derivation(dd.AndER(), _s((), goal.right), (major,))
    if elim.startswith("or"):
        left = dd.assume(((label, goal.left),), label)
        right = _atom(((label, goal.right),), goal.left)
        return Derivation(dd.OrE(label), _s((), goal.left), (major, left, right))
    if elim == "imply":
        return Derivation(dd.ImplyE(), _s((), goal.right), (major, _atom((), goal.left)))
    if elim.startswith("forall"):
        term = TVar("y") if elim.endswith("/clash") else tnum(3)
        inst = arith.subst_formula(goal.body, goal.var, term)
        return Derivation(dd.ForallE(term), _s((), inst), (major,))
    var = "y" if elim.endswith("/clash") else "w"
    hyp = arith.subst_formula(goal.body, goal.var, TVar(var))
    return Derivation(dd.ExistsE(label, var), _s((), _A), (major, _atom(((label, hyp),), _A)))


def _split(kind: str, prove) -> Derivation:
    """A closed derivation ending with the discharging rule kind (label "c",
    variable "y") whose branches each conclude with prove(ctx)."""
    if kind == "em":
        univ = Forall("y", Atom("<=", (tnum(0), TVar("y"))))
        left, right = prove((("c", univ),)), prove((("c", arith.neg(univ.body)),))
        return Derivation(dd.EM("c", "y"), _s((), left.conclusion.goal), (left, right))
    if kind == "or":
        major = Derivation(dd.OrIL(), _s((), Or(_A, _DEAD)), (_atom((), _A),))
        b1, b2 = prove((("c", _A),)), prove((("c", _DEAD),))
        return Derivation(dd.OrE("c"), _s((), b1.conclusion.goal), (major, b1, b2))
    packed = Exists("z", Atom("=", (TVar("z"), tnum(2))))
    major = Derivation(dd.ExistsI(tnum(2)), _s((), packed),
                       (_atom((), Atom("=", (tnum(2), tnum(2)))),))
    branch = prove((("c", Atom("=", (TVar("y"), tnum(2)))),))
    return Derivation(dd.ExistsE("c", "y"), _s((), branch.conclusion.goal), (major, branch))


_ELIMS = ("and-left", "and-right", "or", "or/relabel", "imply", "forall", "forall/clash",
          "exists", "exists/relabel", "vacuous-exists/clash")
_BRANCHES = {"em": (0, 1), "or": (1, 2), "exists": (1,)}


@pytest.mark.parametrize("elim", _ELIMS)
@pytest.mark.parametrize("split", sorted(_BRANCHES))
def test_permutation_pushes_the_elimination_into_every_branch(split, elim):
    d = _eliminate(elim, _split(split, _major_proof(elim)))
    dd.check_derivation(d)
    cut = find_head_cut(d)
    if split == "em":
        assert cut == HeadCut((), EM_PERMUTE, nz._ELIMINATIONS[type(d.rule)][0])
    else:
        assert cut == HeadCut((), OR_EXISTS_PERMUTE, split)
    new = apply_head_reduction(d, cut)
    dd.check_derivation(new)
    assert new.conclusion == d.conclusion
    assert type(new.rule) is type(d.premisses[0].rule)
    for i in _BRANCHES[split]:
        assert type(new.premisses[i].rule) is type(d.rule)
    nd = normalize_derivation(d)
    assert _seq_eq(nd.conclusion, d.conclusion)
    assert find_head_cut(nd) is None


def _stuck_em() -> Derivation:
    """The universal hypothesis is only ever queried at an open point, so
    the excluded-middle node survives normalization."""
    univ = Forall("y", Atom("=", (TVar("y"), TVar("y"))))
    goal = Exists("x", Atom("=", (TVar("x"), tnum(0))))
    cl = (("u", univ),)
    ch = Forall("z", Imply(Atom("<", (TVar("z"), TVar("v"))),
                           Atom("=", (TVar("z"), TVar("z")))))
    cm = cl + (("ch", ch),)
    use = Derivation(dd.ForallE(TVar("v")), _s(cm, Atom("=", (TVar("v"), TVar("v")))),
                     (dd.assume(cm, "u"),))
    cind = Derivation(dd.CInd("ch", "v"),
                      _s(cl, Forall("v", Atom("=", (TVar("v"), TVar("v"))))), (use,))
    picked = Derivation(dd.ForallE(tnum(0)), _s(cl, Atom("=", (tnum(0), tnum(0)))), (cind,))
    left = Derivation(dd.ExistsI(tnum(0)), _s(cl, goal), (picked,))
    cr = (("u", arith.neg(Atom("=", (TVar("y"), TVar("y"))))),)
    right = Derivation(dd.ExistsI(tnum(0)), _s(cr, goal),
                       (Derivation(dd.AtomI(), _s(cr, Atom("=", (tnum(0), tnum(0))))),))
    return Derivation(dd.EM("u", "y"), _s((), goal), (left, right))


# a node of each kind's rule shape that lacks the kind's pattern
_NEAR_MISSES = {
    PROPER: lambda: _eliminate("and-left", _split("em", _major_proof("and"))),
    EM_PERMUTE: lambda: _eliminate("and-left", _major_proof("and")(())),
    OR_EXISTS_PERMUTE: lambda: _eliminate("and-left", _split("em", _major_proof("and"))),
    IND: lambda: Derivation(
        dd.Ind("ih", "v", Atom("=", (TVar("v"), TVar("v"))), TVar("n")),
        _s((), Atom("=", (TVar("n"), TVar("n")))),
        (Derivation(dd.AtomPost("refl"), _s((), Atom("=", (tnum(0), tnum(0))))),
         Derivation(dd.AtomPost("refl"),
                    _s((("ih", Atom("=", (TVar("v"), TVar("v")))),),
                       Atom("=", (arith.TApp("S", (TVar("v"),)),) * 2))))),
    EM_WITNESS: _stuck_em,
    IMMEDIATE_SIMPL: lambda: Derivation(
        dd.OrE("c"), _s((), _A),
        (Derivation(dd.OrIL(), _s((), Or(_A, _A)), (_atom((), _A),)),
         dd.assume((("c", _A),), "c"), dd.assume((("c", _A),), "c"))),
}


@pytest.mark.parametrize("kind", list(_NEAR_MISSES))
def test_stale_cut_of_each_kind_rejected(kind):
    d = _NEAR_MISSES[kind]()
    dd.check_derivation(d)
    assert find_head_cut(d) is None or find_head_cut(d).kind != kind
    with pytest.raises(nz.InvalidCut):
        apply_head_reduction(d, HeadCut((), kind))
    with pytest.raises(nz.InvalidCut):
        apply_head_reduction(_atom((), _A), HeadCut((), kind))


# ---------------------------------------------------------------------------
# rewrites that rebuild a deep subtree

_LEVELS = 3000  # well past the interpreter's recursion limit


def _chain(ctx, leaf, right=None):
    """_LEVELS levels of and-el over and-i above leaf, all in ctx (one
    proper cut per two levels); right, when given, is the innermost
    and-i's right premiss."""
    d = leaf
    for i in range(_LEVELS // 2):
        r = right if right is not None and i == 0 else _atom(ctx, _B)
        both = Derivation(dd.AndI(), _s(ctx, And(leaf.conclusion.goal, r.conclusion.goal)), (d, r))
        d = Derivation(dd.AndEL(), _s(ctx, leaf.conclusion.goal), (both,))
    return d


def _apply(body, label, arg):
    """imply-e over imply-i label with body, applied to arg."""
    hyp, goal = body.conclusion.context[-1][1], body.conclusion.goal
    ctx = arg.conclusion.context
    lam = Derivation(dd.ImplyI(label), _s(ctx, Imply(hyp, goal)), (body,))
    return Derivation(dd.ImplyE(), _s(ctx, goal), (lam, arg))


def _deep_imply():
    ctx = (("u", _A),)
    return _apply(_chain(ctx, dd.assume(ctx, "u")), "u", _atom((), _A)), _atom((), _A)


def _deep_or():
    major = Derivation(dd.OrIL(), _s((), Or(_A, _DEAD)), (_atom((), _A),))
    cl = (("c", _A),)
    d = Derivation(dd.OrE("c"), _s((), _A),
                   (major, _chain(cl, dd.assume(cl, "c")), _atom((("c", _DEAD),), _A)))
    return d, _atom((), _A)


def _deep_exists():
    two = Atom("=", (tnum(2), tnum(2)))
    major = Derivation(dd.ExistsI(tnum(2)), _s((), Exists("z", Atom("=", (TVar("z"), tnum(2))))),
                       (_atom((), two),))
    cw = (("c", Atom("=", (TVar("w"), tnum(2)))),)
    minor = _chain(cw, _atom(cw, _A), right=dd.assume(cw, "c"))
    return Derivation(dd.ExistsE("c", "w"), _s((), _A), (major, minor)), _atom((), _A)


def _deep_forall():
    xx = Atom("=", (TVar("x"), TVar("x")))
    body = _chain((), Derivation(dd.AtomPost("refl"), _s((), xx)))
    alls = Derivation(dd.ForallI("x"), _s((), Forall("x", xx)), (body,))
    three = Atom("=", (tnum(3), tnum(3)))
    d = Derivation(dd.ForallE(tnum(3)), _s((), three), (alls,))
    return d, Derivation(dd.AtomPost("refl"), _s((), three))


def _deep_ind():
    v = TVar("v")
    template, sv = Atom("=", (v, v)), arith.TApp("S", (v,))
    base = Derivation(dd.AtomPost("refl"), _s((), Atom("=", (tnum(0), tnum(0)))))
    cs = (("ih", template),)
    leaf = Derivation(dd.AtomPost("sub-fn"), _s(cs, Atom("=", (sv, sv))), (dd.assume(cs, "ih"),))
    d = Derivation(dd.Ind("ih", "v", template, tnum(2)), _s((), Atom("=", (tnum(2), tnum(2)))),
                   (base, _chain(cs, leaf)))
    # sub-fn from 1 = 1, from 0 = 0
    expected = base
    for k in (1, 2):
        expected = Derivation(dd.AtomPost("sub-fn"), _s((), Atom("=", (tnum(k), tnum(k)))),
                              (expected,))
    return d, expected


def _deep_em_permute():
    # the minor premiss is weakened into both branches of the split
    d = Derivation(dd.ImplyE(), _s((), _B),
                   (_split("em", _major_proof("imply")), _chain((), _atom((), _A))))
    return d, _atom((), _B)


def _deep_strengthen():
    ctx = (("u", Or(_A, _DEAD)),)
    cl = ctx + (("c", _A),)
    d = Derivation(dd.OrE("c"), _s(ctx, _A),
                   (dd.assume(ctx, "u"), _chain(cl, _atom(cl, _A)),
                    _atom(ctx + (("c", _DEAD),), _A)))
    return d, _atom(ctx, _A)


def _deep_freshen():
    # the body discharges k, and so does the deep replacement at its bottom
    ctx = (("u", _A),)
    body = _apply(dd.assume(ctx + (("k", _B),), "u"), "k", _atom(ctx, _B))
    repl = _chain((), _apply(_atom((("k", _B),), _A), "k", _atom((), _B)))
    return _apply(body, "u", repl), _atom((), _A)


_DEEP = {
    "proper/imply": _deep_imply,
    "proper/or": _deep_or,
    "proper/exists": _deep_exists,
    "proper/forall": _deep_forall,
    IND: _deep_ind,
    "em-permute/imply": _deep_em_permute,
    "immediate-simpl/or": _deep_strengthen,
    "proper/imply at root, freshening": _deep_freshen,
}


@pytest.mark.parametrize("case", list(_DEEP))
def test_rewrites_rebuild_deep_subtrees(case):
    d, expected = _DEEP[case]()
    dd.check_derivation(d)
    trace: list[str] = []
    assert normalize_derivation(d, trace=trace) == expected
    assert trace[0].startswith(case.partition(",")[0])


# ---------------------------------------------------------------------------
# the loop: preservation, tracing, fuel


@pytest.mark.parametrize("seed", range(30))
def test_normalization_preserves_the_root_sequent(seed):
    rng = random.Random(seed)
    d = gen.ha_em_derivation(rng)
    nd = normalize_derivation(d)
    assert _seq_eq(nd.conclusion, nz.norm_terms(d).conclusion)
    assert find_head_cut(nd) is None


_TRACE_LINE = re.compile(
    r"^[a-z-]+(/[a-z-]+)? at (root|\d+(\.\d+)*) -> [0-9a-f]{12}$")


def test_trace_lines_are_stamped_and_deterministic():
    rng = random.Random(42)
    d = gen.with_random_cuts(rng, gen.closed_true_derivation(rng, (), 2), 3)
    t1: list[str] = []
    t2: list[str] = []
    normalize_derivation(d, trace=t1)
    normalize_derivation(d, trace=t2)
    assert t1 == t2 and t1
    for line in t1:
        assert _TRACE_LINE.match(line), line


def test_fuel_exhaustion_carries_the_partial_result():
    rng = random.Random(9)
    d = gen.with_random_cuts(rng, gen.closed_true_derivation(rng, (), 2), 4)
    assert find_head_cut(d) is not None
    with pytest.raises(nz.FuelExhausted) as info:
        normalize_derivation(d, fuel=1)
    partial = info.value.derivation
    assert info.value.steps == 1
    assert isinstance(partial, Derivation)
    assert _seq_eq(partial.conclusion, nz.norm_terms(d).conclusion)


def test_norm_terms_keeps_posited_islands():
    # sub-fn constrains its shapes syntactically: terms inside stay put
    x = TVar("x")
    ctx = (("u", Atom("=", (x, tnum(2)))),)
    plus = arith.TApp("+", (tnum(1), tnum(1)))
    d = Derivation(dd.AtomPost("sub-fn"),
                   _s(ctx, Atom("=", (arith.TApp("S", (x,)), arith.TApp("S", (tnum(2),))))),
                   (dd.assume(ctx, "u"),))
    dd.check_derivation(d)
    nd = norm_terms(d)
    dd.check_derivation(nd)
    # while ordinary goals reduce
    open_goal = Derivation(dd.AtomI(), _s((), Atom("=", (plus, tnum(2)))))
    assert norm_terms(open_goal).conclusion.goal == Atom("=", (tnum(2), tnum(2)))


# ---------------------------------------------------------------------------
# witness extraction


def test_corpus_witnesses():
    pf = corpus.corpus_file()
    for name, d in pf.derivs.items():
        value, nd = extract_witness(d, rels=pf.rels, fns=pf.fns)
        assert value == KNOWN_WITNESSES[name], name
        assert isinstance(nd.rule, dd.ExistsI)
        body = d.conclusion.goal.body
        inst = arith.subst_formula(body, d.conclusion.goal.var, tnum(value))
        assert arith.atomic_truth(inst, pf.rels, pf.fns), name


def test_extract_witness_input_validation():
    open_ctx = Derivation(dd.Id("u"), _s((("u", Atom("top")),), Atom("top")))
    with pytest.raises(nz.NotClosed):
        extract_witness(open_ctx)
    free_var = Derivation(dd.AtomPost("refl"), _s((), Atom("=", (TVar("x"), TVar("x")))))
    with pytest.raises(nz.NotClosed):
        extract_witness(free_var)
    not_ex = Derivation(dd.AtomI(), _s((), Atom("top")))
    with pytest.raises(nz.NotSimplyExistential):
        extract_witness(not_ex)
    nested = Derivation(dd.ExistsI(tnum(0)),
                        _s((), Exists("x", Exists("y", Atom("top")))),
                        (Derivation(dd.ExistsI(tnum(0)),
                                    _s((), Exists("y", Atom("top"))),
                                    (Derivation(dd.AtomI(), _s((), Atom("top"))),)),))
    with pytest.raises(nz.NotSimplyExistential):
        extract_witness(nested)


def test_extract_witness_messages_print_file_syntax(monkeypatch):
    # a goal of 2000-deep numerals: its repr used to recurse past the stack
    big = Atom("=", (tnum(2000), tnum(2000)))
    with pytest.raises(nz.NotSimplyExistential) as e:
        extract_witness(Derivation(dd.AtomI(), _s((), big)))
    assert str(e.value) == "goal is not an existential atom: (atom = 2000 2000)"
    # a normal form that names no correct witness is a soundness bug
    goal = Exists("x", Atom("=", (TVar("x"), tnum(2))))
    d = Derivation(dd.ExistsI(tnum(2)), _s((), goal),
                   (Derivation(dd.AtomI(), _s((), Atom("=", (tnum(2), tnum(2))))),))
    for term, message in [(tnum(3), "witness 3 does not satisfy (atom = 3 2)"),
                          (TVar("y"), "the witness term y is open")]:
        wrong = Derivation(dd.ExistsI(term), d.conclusion, d.premisses)
        monkeypatch.setattr(nz, "normalize_derivation", lambda *a, **k: wrong)
        with pytest.raises(nz.ShapeViolation) as e:
            extract_witness(d)
        assert str(e.value) == message


def test_an_invalid_input_is_refused_without_a_cut():
    bad = Derivation(dd.AtomI(), _s((), Atom("=", (tnum(1), tnum(2)))))
    assert find_head_cut(bad) is None
    with pytest.raises(dd.DeductionError):
        normalize_derivation(bad)
    with pytest.raises(dd.DeductionError):
        extract_witness(Derivation(dd.ExistsI(tnum(2)),
                                   _s((), Exists("x", Atom("=", (TVar("x"), tnum(1))))), (bad,)))


def test_extract_witness_checks_each_node_once(monkeypatch):
    # the input is checked whole before its closedness and goal are tested,
    # and the normalization carries that check on
    d = corpus.corpus_file().derivs["cut-and"]
    calls = []
    check_node = dd._check_node
    monkeypatch.setattr(dd, "_check_node", lambda node, *a: calls.append(node) or check_node(node, *a))
    assert extract_witness(d)[0] == KNOWN_WITNESSES["cut-and"]
    assert len(calls) == len({id(n) for n in calls})
    assert {id(n) for n in dd.walk(d)} <= {id(n) for n in calls}


def test_stuck_em_reports_its_shape():
    d = _stuck_em()
    dd.check_derivation(d)
    nd = normalize_derivation(d)
    assert isinstance(nd.rule, dd.EM)
    with pytest.raises(nz.ShapeViolation):
        extract_witness(d)


# ---------------------------------------------------------------------------
# shape of normal forms


@pytest.mark.parametrize("seed", range(20))
def test_normal_forms_pass_the_structural_test(seed):
    rng = random.Random(300 + seed)
    d, _ = gen.sigma01_derivation(rng, cuts=2)
    nd = normalize_derivation(d)
    assert check_open_normal(nd)


def test_check_open_normal_rejects_cuts_and_unnormalized_terms():
    rng = random.Random(2)
    base = gen.closed_true_derivation(rng, (), 1)
    cut = gen._one_cut(rng, base)
    assert not check_open_normal(cut)
    plus = arith.TApp("+", (tnum(1), tnum(1)))
    stale = Derivation(dd.AtomI(), _s((), Atom("=", (plus, tnum(2)))))
    assert not check_open_normal(stale)


def _principal_paths_by_recursion(d, path=()):
    """The paths of the principal nodes of d, in preorder (the reference)."""
    out = [path]
    for i, p in enumerate(nz._principal_premisses(d)):
        out += _principal_paths_by_recursion(p, path + (i,))
    return out


def _is_head_cut(d, path):
    node = nz._at(d, path)
    return any(pattern(node, arith.FUNCTIONS) is not None for pattern, _ in nz._KINDS.values())


def _assert_breadth_first(d):
    paths = [dd._path(trail) for _, trail in nz._principal(d)]
    # outermost first, left to right among equals, each principal node once
    assert paths == sorted(_principal_paths_by_recursion(d), key=lambda p: (len(p), p))
    # every premiss of an introduction is on a principal branch
    for node, trail in nz._principal(d):
        assert nz._at(d, dd._path(trail)) is node
        if isinstance(node.rule, dd.INTRO_RULES):
            assert all(dd._path(trail) + (i,) in paths for i in range(len(node.premisses)))
    # the head cut found is at the first principal node that is one
    cut = find_head_cut(d)
    assert (cut.path if cut else None) == next((p for p in paths if _is_head_cut(d, p)), None)


@pytest.mark.parametrize("seed", range(12))
def test_cuts_off_the_root_are_found_breadth_first(seed):
    # cuts on parallel branches, below other cuts and off the principal branches
    rng = random.Random(seed)
    base = gen.closed_true_derivation(rng, (), 2) if seed % 3 else gen.em_derivation(rng)
    _assert_breadth_first(gen.with_inner_cuts(rng, base, 3))


def test_principal_branches_cover_intro_premisses():
    _assert_breadth_first(gen.closed_true_derivation(random.Random(77), (), 2))
    # a deep normal form: one branch through 1200 posited rules
    xx = Atom("=", (TVar("x"), TVar("x")))
    deep = Derivation(dd.AtomPost("refl"), _s((), xx))
    for _ in range(1200):
        deep = Derivation(dd.AtomPost("sym"), _s((), xx), (deep,))
    assert [dd._path(trail) for _, trail in nz._principal(deep)] == [(0,) * k for k in range(1201)]
    assert check_open_normal(deep)


# ---------------------------------------------------------------------------
# walkers in linear time


def _and_tower(n: int) -> Derivation:
    """n and-i nodes, each over the one below and an atom-i leaf, all with
    one goal: the walkers read no formula, so the tower need not check."""
    top = Atom("top")
    d = Derivation(dd.AtomI(), _s((), top))
    for _ in range(n):
        d = Derivation(dd.AndI(), _s((), top), (d, Derivation(dd.AtomI(), _s((), top))))
    return d


def _sym_chain(n: int) -> Derivation:
    xx = Atom("=", (TVar("x"), TVar("x")))
    d = Derivation(dd.AtomPost("refl"), _s((), xx))
    for _ in range(n):
        d = Derivation(dd.AtomPost("sym"), _s((), xx), (d,))
    return d


_WALKERS = {
    "walk": lambda d: sum(1 for _ in dd.walk(d)),
    "labels_inside": dd._labels_inside,
    "find_head_cut": find_head_cut,
    "check_open_normal": check_open_normal,
}


@pytest.mark.parametrize("tower", [_and_tower, _sym_chain], ids=["and-i", "sym"])
@pytest.mark.parametrize("walker", list(_WALKERS))
def test_walkers_take_time_linear_in_depth(walker, tower):
    def best(n: int) -> float:
        d = tower(n)
        return gen.best_cpu_time(lambda: _WALKERS[walker](d))

    # ten times the depth; copying a path per node made it about a hundred
    assert best(10_000) <= 25 * best(1_000)


# ---------------------------------------------------------------------------
# regression pin


_TRACES = pathlib.Path(__file__).parent / "data" / "normalizer_traces.json"


def test_corpus_traces_are_pinned():
    expected = json.loads(_TRACES.read_text())
    pf = corpus.corpus_file()
    assert set(expected) == set(pf.derivs)
    for name, d in pf.derivs.items():
        trace: list[str] = []
        normalize_derivation(d, rels=pf.rels, fns=pf.fns, trace=trace)
        assert trace == expected[name], name
