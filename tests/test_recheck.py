"""The normalizer loop against the whole-tree loop it replaced.

normalize_derivation term-normalizes, checks and scans each derivation node
once per call, remembering nodes by identity.  The reference here is the
loop as it was: after every rewrite it runs a full norm_terms, a full
check_derivation and a full free-variable scan over the whole tree.  Both
must reach the same normal form with the same trace, and raise the same
error when a reducer is broken.
"""

import functools
import hashlib
import random

import pytest

from realizer import arith, corpus, sexpr
from realizer import deduction as dd
from realizer import normalizer as nz
from realizer.arith import And, Atom, BOT, Exists, Or, TVar
from realizer.deduction import Derivation, Sequent

import conftest as gen
import reference_rebuild as ref


# ---------------------------------------------------------------------------
# the whole-tree reference


def _reference_norm_terms(d, fns):
    """norm_terms as it was: rebuild every node, recursively."""

    def nrule(rule):
        match rule:
            case dd.ForallE(term):
                return dd.ForallE(arith.norm_aterm(term, fns))
            case dd.ExistsI(term):
                return dd.ExistsI(arith.norm_aterm(term, fns))
            case dd.Ind(label, var, template, main):
                return dd.Ind(label, var, arith.norm_formula(template, fns),
                              arith.norm_aterm(main, fns))
            case _:
                return rule

    def go(n, keep_goal):
        post = isinstance(n.rule, dd.AtomPost)
        goal = n.conclusion.goal if keep_goal or post else arith.norm_formula(n.conclusion.goal, fns)
        ctx = tuple((l, arith.norm_formula(f, fns)) for l, f in n.conclusion.context)
        return Derivation(nrule(n.rule), Sequent(ctx, goal),
                          tuple(go(p, post) for p in n.premisses))

    return go(d, False)


def _reference_free_term_vars(d):
    """free_term_vars as it was: top down, with the variables bound above."""
    out = set()
    stack = [(d, frozenset())]
    while stack:
        node, bound = stack.pop()
        out |= (dd._formula_vars_of_node(node) | dd._rule_term_vars(node.rule)) - bound
        binds = dd.RULE_SHAPES[type(node.rule)].binds
        for i, p in enumerate(node.premisses):
            stack.append((p, bound | {node.rule.var} if i == binds else bound))
    return frozenset(out)


def whole_tree_normalize(d, fuel=nz.DEFAULT_FUEL, *,
                         rels=arith.RELATIONS, fns=arith.FUNCTIONS, trace=None):
    """normalize_derivation with every pass over the whole tree."""
    d = _reference_norm_terms(d, fns)
    root = d.conclusion
    base_vars = _reference_free_term_vars(d)
    steps = 0
    while True:
        cut = nz.find_head_cut(d, fns=fns)
        if cut is None:
            return d
        if steps >= fuel:
            raise nz.FuelExhausted(steps, d)
        d = _reference_norm_terms(nz.apply_head_reduction(d, cut, rels, fns), fns)
        steps += 1
        try:
            dd.check_derivation(d, rels, fns)
        except dd.DeductionError as e:
            raise nz.HygieneError(
                f"{cut.kind} rewrite at {cut.path} broke the derivation: {e}") from e
        if not nz._sequent_eq(d.conclusion, root, fns):
            raise nz.NormalizationError(
                f"internal: {cut.kind} rewrite changed the root sequent")
        if not _reference_free_term_vars(d) <= base_vars:
            raise nz.HygieneError(
                f"{cut.kind} rewrite at {cut.path} freed a term variable")
        if trace is not None:
            where = ".".join(map(str, cut.path)) or "root"
            text = sexpr.print_sequent(nz._at(d, cut.path).conclusion)
            stamp = hashlib.sha1(text.encode()).hexdigest()[:12]
            kind = f"{cut.kind}/{cut.detail}" if cut.detail else cut.kind
            trace.append(f"{kind} at {where} -> {stamp}")


def _outcome(normalize, d, **kw):
    trace = []
    try:
        return "normal", normalize(d, trace=trace, **kw), trace
    except nz.FuelExhausted as e:
        return "fuel", (e.steps, e.derivation), trace
    except (nz.NormalizationError, dd.DeductionError, arith.ArithError) as e:
        return type(e), str(e), trace


# ---------------------------------------------------------------------------
# inputs: the corpus, the benchmark generators and the test generators


@functools.cache
def _inputs():
    """(name, derivation, keyword arguments) triples."""
    out = []
    pf = corpus.corpus_file()
    for name, d in pf.derivs.items():
        out.append((f"corpus/{name}", d, dict(rels=pf.rels, fns=pf.fns)))
    bench = gen.bench_gen()
    for seed in range(3):
        rng = bench.Stratified(f"recheck/{seed}")
        for depth in range(1, 5):
            out.append((f"em/{seed}/{depth}", bench.em_chain(rng, depth), {}))
            out.append((f"em-wrapped/{seed}/{depth}", bench.em_chain(rng, depth, True), {}))
        counts = list(range(1, 9))
        for c, kinds in zip(counts, bench.cut_kinds(rng, counts)):
            out.append((f"cuts/{seed}/{c}", bench.sigma01_cuts(rng, kinds), {}))
    out += [(f"ind/{n}", bench.ind_n(n), {}) for n in range(2, 7)]
    out += [(f"square/{n}", bench.square(n), {}) for n in range(4, 9)]
    for seed in range(30):
        out.append((f"ha-em/{seed}", gen.ha_em_derivation(random.Random(seed)), {}))
    for seed in range(10):
        rng = random.Random(seed)
        d = gen.with_random_cuts(rng, gen.closed_true_derivation(rng, (), 2), 3)
        out.append((f"cuts3/{seed}", d, {}))
        out.append((f"em-cut/{seed}", gen.with_random_cuts(rng, gen.em_derivation(rng), 2), {}))
        for i, d in enumerate(_dead_splits()):
            out.append((f"dead-split/{i}/{seed}", gen.with_random_cuts(rng, d, seed % 3), {}))
    return out


def _dead_splits():
    """Splits of an opaque hypothesis whose minors ignore what they assume:
    only immediate simplification removes them."""
    top, two = Atom("top"), Atom("=", (arith.tnum(2), arith.tnum(2)))
    ctx = (("u", Or(top, BOT)),)
    yield Derivation(dd.OrE("c"), Sequent(ctx, top),
                     (dd.assume(ctx, "u"), *(Derivation(dd.AtomI(), Sequent(ctx + (("c", f),), top))
                                             for f in (top, BOT))))
    ctx = (("u", Exists("x", Atom("=", (TVar("x"), arith.tnum(2))))),)
    inner = ctx + (("c", Atom("=", (TVar("w"), arith.tnum(2)))),)
    minor = Derivation(dd.AndI(), Sequent(inner, And(top, two)),
                       (Derivation(dd.AtomI(), Sequent(inner, top)),
                        Derivation(dd.AtomI(), Sequent(inner, two))))
    yield Derivation(dd.ExistsE("c", "w"), Sequent(ctx, minor.conclusion.goal),
                     (dd.assume(ctx, "u"), minor))


@functools.cache
def _kinds_fired():
    """name -> the head-cut kinds its normalization rewrites."""
    out = {}
    for name, d, kw in _inputs():
        trace = []
        nz.normalize_derivation(d, trace=trace, **kw)
        out[name] = {line.split(" ")[0].split("/")[0] for line in trace}
    return out


def test_the_inputs_fire_every_kind():
    assert set().union(*_kinds_fired().values()) == set(nz._KINDS)


def test_each_pass_matches_its_whole_tree_reference():
    for name, d, kw in _inputs():
        fns = kw.get("fns", arith.FUNCTIONS)
        normed = nz.norm_terms(d, fns)
        assert normed == _reference_norm_terms(d, fns), name
        assert nz.norm_terms(normed, fns) is normed, name
        assert dd.free_term_vars(d) == _reference_free_term_vars(d), name


def test_one_norm_terms_memo_across_a_normalization_run():
    for name, d, kw in _inputs():
        fns = kw.get("fns", arith.FUNCTIONS)
        memo = {}
        for _ in range(nz.DEFAULT_FUEL):
            normed = nz.norm_terms(d, fns, memo)
            assert normed == _reference_norm_terms(d, fns), name
            cut = nz.find_head_cut(normed, fns)
            if cut is None:
                break
            d = nz.apply_head_reduction(normed, cut, kw.get("rels", arith.RELATIONS), fns)
        else:
            raise AssertionError(f"{name} did not normalize")


def test_same_normal_form_and_trace_as_the_whole_tree_loop():
    for name, d, kw in _inputs():
        got = _outcome(nz.normalize_derivation, d, **kw)
        assert got[0] == "normal", (name, got)
        assert got == _outcome(whole_tree_normalize, d, **kw), name


@pytest.mark.parametrize("fuel", [0, 1, 3])
def test_same_partial_result_when_fuel_runs_out(fuel):
    for name, d, kw in _inputs():
        assert (_outcome(nz.normalize_derivation, d, fuel=fuel, **kw)
                == _outcome(whole_tree_normalize, d, fuel=fuel, **kw)), name


# ---------------------------------------------------------------------------
# broken reducers


_ZZ = Atom("=", (TVar("zz"), TVar("zz")))


def _drop_context_entry(r: Derivation) -> Derivation:
    """Drop the last context entry of the first node below the root that
    has one; r itself when none does."""
    for path, node in ref.walk(r):
        if path and node.conclusion.context:
            break
    else:
        return r
    s = node.conclusion
    return nz._replace(r, path, Derivation(node.rule, Sequent(s.context[:-1], s.goal),
                                           node.premisses))


def _free_a_term_variable(r: Derivation) -> Derivation:
    """A valid detour that concludes r's sequent and mentions a new variable."""
    ctx, goal = r.conclusion.context, r.conclusion.goal
    refl = Derivation(dd.AtomPost("refl"), Sequent(ctx, _ZZ))
    both = Derivation(dd.AndI(), Sequent(ctx, And(goal, _ZZ)), (r, refl))
    return Derivation(dd.AndEL(), r.conclusion, (both,))


def _change_the_sequent(r: Derivation) -> Derivation:
    s = r.conclusion
    return Derivation(r.rule, Sequent(s.context, And(s.goal, arith.TOP)), r.premisses)


_BREAKS = {
    "drop-context": (_drop_context_entry, (nz.HygieneError,)),
    "free-variable": (_free_a_term_variable, (nz.HygieneError,)),
    "change-sequent": (_change_the_sequent, (nz.NormalizationError,)),
}


@pytest.mark.parametrize("kind", list(nz._KINDS))
@pytest.mark.parametrize("breakage", list(_BREAKS))
def test_same_error_from_a_broken_reducer(monkeypatch, kind, breakage):
    pattern, reduce = nz._KINDS[kind]
    wreck, expected = _BREAKS[breakage]
    monkeypatch.setitem(nz._KINDS, kind, (pattern, lambda *a: wreck(reduce(*a))))
    fired = _kinds_fired()
    raised = 0
    for name, d, kw in _inputs():
        if kind not in fired[name]:
            continue
        got = _outcome(nz.normalize_derivation, d, **kw)
        assert got == _outcome(whole_tree_normalize, d, **kw), name
        if got[0] != "normal":
            assert issubclass(got[0], expected), (name, got)
            raised += 1
    assert raised


def test_each_node_of_a_deep_chain_is_checked_once(monkeypatch):
    a, b = Atom("=", (arith.tnum(1),) * 2), Atom("=", (arith.tnum(2),) * 2)
    d = Derivation(dd.AtomI(), Sequent((), a))
    for _ in range(300):
        both = Derivation(dd.AndI(), Sequent((), And(a, b)),
                          (d, Derivation(dd.AtomI(), Sequent((), b))))
        d = Derivation(dd.AndEL(), Sequent((), a), (both,))
    calls = []
    check_node = dd._check_node
    monkeypatch.setattr(dd, "_check_node", lambda node, *a: calls.append(node) or check_node(node, *a))
    assert nz.normalize_derivation(d) == Derivation(dd.AtomI(), Sequent((), a))
    # the input is checked whole before the first rewrite; the 300 rewrites
    # return subtrees that check covered
    assert len(calls) == len({id(n) for n in calls}) == sum(1 for _ in dd.walk(d))


def test_norm_terms_memo_keeps_the_goal_rule_apart():
    # below a posited rule a node keeps its goal; the same node elsewhere
    # has it normalized, although the memo has seen it
    two = arith.TApp("+", (arith.tnum(1), arith.tnum(1)))
    fact = Derivation(dd.AtomI(), Sequent((), Atom("=", (two, arith.tnum(2)))))
    flipped = Derivation(dd.AtomPost("sym"), Sequent((), Atom("=", (arith.tnum(2), two))),
                         (fact,))
    memo = {}
    assert nz.norm_terms(flipped, memo=memo) is flipped
    assert nz.norm_terms(fact, memo=memo) == Derivation(
        dd.AtomI(), Sequent((), Atom("=", (arith.tnum(2), arith.tnum(2)))))
