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
        cut = find_head_cut(d, simplify=False)
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
    assert all(not isinstance(n.rule, dd.Ind) for _, n in dd.walk(nd))
    assert _seq_eq(nd.conclusion, d.conclusion)


def test_em_witness_refuted_instance():
    pf = corpus.corpus_file()
    d = pf.derivs["em-refuted"]
    trace: list[str] = []
    nd = normalize_derivation(d, trace=trace)
    assert all(not isinstance(n.rule, dd.EM) for _, n in dd.walk(nd))
    assert any(line.startswith(f"{EM_WITNESS} at") for line in trace)
    assert isinstance(nd.rule, dd.ExistsI)


def test_em_witness_granted_instances():
    pf = corpus.corpus_file()
    nd = normalize_derivation(pf.derivs["em-granted"])
    assert all(not isinstance(n.rule, dd.EM) for _, n in dd.walk(nd))
    assert isinstance(nd.rule, dd.ExistsI)
    assert arith.reduce_aterm(nd.rule.term, {}) == KNOWN_WITNESSES["em-granted"]


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

    cut = find_head_cut(d, simplify=True)
    assert cut.kind in (OR_EXISTS_PERMUTE, IMMEDIATE_SIMPL)
    nd = normalize_derivation(d)
    assert _seq_eq(nd.conclusion, d.conclusion)
    assert check_open_normal(nd)

    # without simplification the or-elimination may stay, but the root
    # sequent is still preserved and no proper cut remains
    plain = normalize_derivation(d, simplify=False)
    assert _seq_eq(plain.conclusion, d.conclusion)
    assert find_head_cut(plain, simplify=False) is None


def test_immediate_simplification_drops_dead_splits():
    rng = random.Random(21)
    base = Derivation(dd.AtomI(), _s((), Atom("top")))
    # kind 3 wraps in an or-elimination whose right branch kills a dead atom
    d = gen._one_cut(rng, base)
    while not isinstance(d.rule, (dd.OrE, dd.ExistsE)):
        d = gen._one_cut(rng, base)
    nd = normalize_derivation(d)
    assert all(not isinstance(n.rule, (dd.OrE, dd.ExistsE))
               for _, n in dd.walk(nd))
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
    assert find_head_cut(d, simplify=False) is None
    new = apply_head_reduction(d, cut)
    assert new == Derivation(dd.AtomI(), _s(ctx, Atom("top")))
    trace: list[str] = []
    assert normalize_derivation(d, trace=trace) == new
    assert trace[0].startswith(f"{IMMEDIATE_SIMPL}/{shape} at root")


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
        assert cut == HeadCut((), EM_PERMUTE, nz._ELIM_NAME[type(d.rule)])
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


def test_principal_branches_cover_intro_premisses():
    rng = random.Random(77)
    d = gen.closed_true_derivation(rng, (), 2)
    branches = list(nz.principal_branches(d))
    assert all(b[0] == () for b in branches)
    leaves = {b[-1] for b in branches}
    assert len(leaves) == len(branches)


# ---------------------------------------------------------------------------
# regression pin


_TRACES = pathlib.Path(__file__).parent / "data" / "normalizer_traces.json"


@pytest.mark.parametrize("simplify", [True, False])
def test_corpus_traces_are_pinned(simplify):
    expected = json.loads(_TRACES.read_text())[f"simplify={simplify}"]
    pf = corpus.corpus_file()
    assert set(expected) == set(pf.derivs)
    for name, d in pf.derivs.items():
        trace: list[str] = []
        normalize_derivation(d, simplify=simplify, rels=pf.rels, fns=pf.fns, trace=trace)
        assert trace == expected[name], name
