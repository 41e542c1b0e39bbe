"""The one derivation rebuilder and the two walkers against the code they
replaced.

Every rewrite in deduction and the normalizer is a per-node edit through
deduction.rebuild.  reference_rebuild keeps the seven recursive rebuilders
that did that work before.  With the references monkeypatched in,
normalize_derivation must reach the same normal form with the same trace,
or raise the same error; weaken and substitution (deduction._rename with no
picks) must agree with their references directly, errors included.  The
normalizer's graft substitutes into its body, renames and grafts in one
rebuild where the references substitute first and graft after: generated
bodies and replacements whose labels, binders and substituted terms clash
must give the same result, names and errors both ways, and its one walk
before the rebuild must find the names the substituted body has.

deduction.walk and the normalizer's principal walk replaced loops that
copied a premiss path for every node.  On every derivation a normalization
passes through, and on every subtree of the inputs, walk, uses_label,
find_head_cut and check_open_normal must answer as those loops did.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, corpus
from realizer import deduction as dd
from realizer import normalizer as nz
from realizer.arith import And, Atom, Forall, Imply, TApp, TVar, tnum
from realizer.deduction import Derivation, Sequent

import conftest as gen
import reference_rebuild as ref
from test_normalizer import _BRANCHES, _ELIMS, _eliminate, _major_proof, _split, _stuck_em
from test_recheck import _dead_splits


def _root_rename(d, picks, subs=()):
    """dd._rename as the permutation reducer calls it, through the references."""
    if subs or set(picks) != {0}:
        raise ValueError(f"not a rename of the root: {picks!r}, {subs!r}")
    label, var = picks[0]
    if label is not None:
        d = ref._relabel(d, label)
    if var is not None:
        d = ref._rename_binder(d, var)
    return d


def _subst_then_graft(body, label, repl, sub=None):
    """nz._graft as the two passes it fuses, through the references."""
    return ref._graft(ref._subst_hygienic(body, *sub) if sub else body, label, repl)


def _use_references(m, calls):
    """Patch the references in through m, counting the calls in calls."""

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapper

    m.setattr(dd, "_weaken", counted("_weaken", ref.weaken))
    m.setattr(dd, "_rename", counted("_rename", _root_rename))
    m.setattr(nz, "_graft", counted("_graft", _subst_then_graft))
    for name in ("_strengthen", "_subst_hygienic"):
        m.setattr(nz, name, counted(name, getattr(ref, name)))


def _capture() -> Derivation:
    """forall-e y over forall-i x over forall-i y: substituting y for x
    under the binder y, which cannot be renamed, is a hygiene error."""
    xx = Atom("=", (TVar("x"), TVar("x")))
    inner = Derivation(dd.ForallI("y"), Sequent((), Forall("y", xx)),
                       (Derivation(dd.AtomPost("refl"), Sequent((), xx)),))
    outer = Derivation(dd.ForallI("x"), Sequent((), Forall("x", inner.conclusion.goal)), (inner,))
    goal = arith.subst_formula(inner.conclusion.goal, "x", TVar("y"))
    return Derivation(dd.ForallE(TVar("y")), Sequent((), goal), (outer,))


def _graft_into(body: Derivation, repl: Derivation) -> Derivation:
    """imply-e over imply-i u with body, applied to repl."""
    hyp, goal = body.conclusion.context[0][1], body.conclusion.goal
    lam = Derivation(dd.ImplyI("u"), Sequent((), Imply(hyp, goal)), (body,))
    return Derivation(dd.ImplyE(), Sequent((), goal), (lam, repl))


def _pair(ctx, left: Derivation, right: Derivation) -> Derivation:
    goal = And(left.conclusion.goal, right.conclusion.goal)
    return Derivation(dd.AndI(), Sequent(ctx, goal), (left, right))


def _clashing_labels() -> Derivation:
    """A graft whose replacement discharges k twice, and so does its body:
    both of repl's k are renamed, apart, and stay in the normal form."""
    a, b = Atom("=", (tnum(1), tnum(1))), Atom("=", (tnum(2), tnum(2)))

    def lam(ctx):
        leaf = Derivation(dd.AtomI(), Sequent(ctx + (("k", b),), a))
        return Derivation(dd.ImplyI("k"), Sequent(ctx, Imply(b, a)), (leaf,))

    repl = _pair((), lam(()), lam(()))
    ctx = (("u", repl.conclusion.goal),)
    return _graft_into(_pair(ctx, dd.assume(ctx, "u"), lam(ctx)), repl)


def _clashing_binders() -> Derivation:
    """A graft whose replacement binds v in two inductions over an open
    main term, and whose body binds v too: both inductions are renamed."""
    v, n = TVar("v"), TVar("n")

    def ind():
        sv = TApp("S", (v,))
        step = Derivation(dd.AtomPost("refl"),
                          Sequent((("ih", Atom("=", (v, v))),), Atom("=", (sv, sv))))
        base = Derivation(dd.AtomPost("refl"), Sequent((), Atom("=", (tnum(0), tnum(0)))))
        return Derivation(dd.Ind("ih", "v", Atom("=", (v, v)), n),
                          Sequent((), Atom("=", (n, n))), (base, step))

    repl = _pair((), ind(), ind())
    ctx = (("u", repl.conclusion.goal),)
    refl = Derivation(dd.AtomPost("refl"), Sequent(ctx, Atom("=", (v, v))))
    alls = Derivation(dd.ForallI("v"), Sequent(ctx, Forall("v", refl.conclusion.goal)), (refl,))
    return _graft_into(_pair(ctx, dd.assume(ctx, "u"), alls), repl)


@functools.cache
def _inputs():
    """(name, derivation, keyword arguments) triples."""
    pf = corpus.corpus_file()
    out = [(f"corpus/{name}", d, dict(rels=pf.rels, fns=pf.fns)) for name, d in pf.derivs.items()]
    bench = gen.bench_gen()
    for seed in range(3):
        rng = bench.Stratified(f"rebuild/{seed}")
        for depth in range(1, 5):
            out.append((f"em/{seed}/{depth}", bench.em_chain(rng, depth), {}))
            out.append((f"em-wrapped/{seed}/{depth}", bench.em_chain(rng, depth, True), {}))
        counts = list(range(1, 9))
        for c, kinds in zip(counts, bench.cut_kinds(rng, counts)):
            out.append((f"cuts/{seed}/{c}", bench.sigma01_cuts(rng, kinds), {}))
    out += [(f"ind/{n}", bench.ind_n(n), {}) for n in range(2, 7)]
    out += [(f"square/{n}", bench.square(n), {}) for n in range(4, 9)]
    for seed in range(20):
        rng = random.Random(seed)
        out += [
            (f"cuts3/{seed}", gen.with_random_cuts(rng, gen.closed_true_derivation(rng, (), 2), 3), {}),
            (f"sigma01/{seed}", gen.sigma01_derivation(rng, cuts=2)[0], {}),
            (f"em-cut/{seed}", gen.with_random_cuts(rng, gen.em_derivation(rng), 2), {}),
            (f"ind-cut/{seed}", gen.with_random_cuts(rng, gen.ind_derivation(rng), 1), {}),
            (f"cind/{seed}", gen.cind_derivation(rng), {}),
        ]
    for split in sorted(_BRANCHES):
        for elim in _ELIMS:
            out.append((f"permute/{split}/{elim}", _eliminate(elim, _split(split, _major_proof(elim))), {}))
    out += [("capture", _capture(), {}), ("clashing-labels", _clashing_labels(), {}),
            ("clashing-binders", _clashing_binders(), {})]
    for name, d, kw in out:
        dd.check_derivation(d, kw.get("rels", arith.RELATIONS), kw.get("fns", arith.FUNCTIONS))
    return out


def _outcome(d, **kw):
    trace = []
    try:
        return "normal", nz.normalize_derivation(d, trace=trace, **kw), trace
    except nz.FuelExhausted as e:
        return "fuel", (e.steps, e.derivation), trace
    except (nz.NormalizationError, dd.DeductionError, arith.ArithError) as e:
        return type(e), str(e), trace


def test_normalization_matches_the_recursive_rebuilders(monkeypatch):
    new = {name: _outcome(d, **kw) for name, d, kw in _inputs()}
    calls = {}
    with monkeypatch.context() as m:
        _use_references(m, calls)
        old = {name: _outcome(d, **kw) for name, d, kw in _inputs()}
    for name in new:
        assert new[name] == old[name], name
    assert new["capture"][0] is nz.HygieneError
    # every reference took part
    assert set(calls) == {"_weaken", "_rename", "_strengthen", "_graft", "_subst_hygienic"}, calls


def _result(fn, *args):
    try:
        return "ok", fn(*args)
    except (nz.NormalizationError, dd.DeductionError, arith.ArithError) as e:
        return type(e), str(e)


@functools.cache
def _subtrees():
    """The distinct subtrees of the inputs that are proper derivations."""
    seen = {}
    for _, d, _ in _inputs():
        for node in dd.walk(d):
            seen.setdefault(id(node), node)
    return list(seen.values())


def _binders(d):
    return sorted({n.rule.var for n in dd.walk(d)
                   if dd.RULE_SHAPES[type(n.rule)].binds is not None})


def test_subst_derivation_matches_the_recursive_one():
    errors = set()
    for node in _subtrees():
        names = sorted(dd.free_term_vars(node)) + _binders(node)
        terms = [tnum(2), TApp("+", (TVar("n"), tnum(1)))] + [TVar(v) for v in names]
        for var in names:
            for t in terms:
                got = _result(dd._rename, node, {}, ((var, t),))
                assert got == _result(ref.subst_derivation, node, var, t), (node, var, t)
                errors.add(got[0])
    assert dd.CaptureRisk in errors and "ok" in errors


def test_weaken_matches_the_recursive_one():
    errors = set()
    fact = Atom("=", (tnum(1), tnum(1)))
    for node in _subtrees():
        n = len(node.conclusion.context)
        for label in ["fresh"] + sorted(dd._labels_inside(node)):
            for at in (0, n, n + 1):
                got = _result(dd.weaken, node, ((label, fact),), at)
                assert got == _result(ref.weaken, node, ((label, fact),), at), (node, label, at)
                errors.add(got[0])
    assert {dd.DischargeMismatch, dd.DeductionError, "ok"} <= errors


def test_rebuild_rejects_a_wrong_number_of_premiss_states():
    leaf = Derivation(dd.AtomI(), Sequent((), Atom("top")))
    d = Derivation(dd.AndEL(), Sequent((), Atom("top")), (leaf,))
    with pytest.raises(dd.DeductionError, match="states for"):
        dd.rebuild(d, lambda node, _: (node.rule, node.conclusion, ()))
    same = dd.rebuild(d, lambda node, _: (node.rule, node.conclusion, (True,) * len(node.premisses)))
    assert same is d


def _side_by_side():
    """Cuts on parallel branches: both premisses of an and-i, one of them
    deeper, and the right branch of an excluded middle, which is on no
    principal branch."""
    out = []
    for seed in range(10):
        rng = random.Random(seed)
        a, b, c = (gen.closed_true_derivation(rng, (), 1) for _ in range(3))
        cut_a, cut_b = gen._one_cut(rng, a), gen._one_cut(rng, b)
        out += [_pair((), cut_a, cut_b), _pair((), _pair((), cut_a, c), cut_b),
                _pair((), cut_b, _pair((), c, cut_a))]
        em = _stuck_em()
        left, right = em.premisses
        out.append(Derivation(em.rule, em.conclusion, (left, gen.with_random_cuts(rng, right))))
    return [(f"side-by-side/{i}", d, {}) for i, d in enumerate(out)]


def _inner_cuts():
    """Generated cuts on inner nodes: under both premisses of an and-i, on
    parallel branches at different depths, below other cuts and off the
    principal branches."""
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        a, b = (gen.closed_true_derivation(rng, (), 2) for _ in range(2))
        base = _pair((), a, b) if seed % 4 else gen.em_derivation(rng)
        out.append((f"inner-cuts/{seed}", gen.with_inner_cuts(rng, base, 3), {}))
    return out


@functools.cache
def _walked():
    """(derivation, fns): every derivation the normalization of an input, a
    dead split, side-by-side cuts or inner cuts passes through, and every
    subtree of those."""
    inputs = [*_inputs(), *((f"dead-split/{i}", d, {}) for i, d in enumerate(_dead_splits())),
              *_side_by_side(), *_inner_cuts()]
    out = []
    find = nz.find_head_cut

    def record(d, fns=arith.FUNCTIONS):
        out.append((d, fns))
        return find(d, fns)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nz, "find_head_cut", record)
        for _, d, kw in inputs:
            _outcome(d, **kw)
    seen = {}
    for _, d, kw in inputs:
        for node in dd.walk(d):
            seen.setdefault(id(node), (node, kw.get("fns", arith.FUNCTIONS)))
    out += seen.values()
    return out


def test_walkers_match_the_path_copying_ones():
    kinds, verdicts, answers = set(), set(), set()
    for d, fns in _walked():
        assert list(map(id, dd.walk(d))) == [id(n) for _, n in ref.walk(d)]
        cut = nz.find_head_cut(d, fns)
        assert cut == ref.find_head_cut(d, fns), d
        normal = nz.check_open_normal(d, fns=fns)
        assert normal == ref.check_open_normal(d, fns=fns), d
        for label in dd._labels_inside(d) | {"fresh"}:
            used = dd.uses_label(d, label)
            assert used == ref.uses_label(d, label), (d, label)
            answers.add(used)
        kinds.add(cut.kind if cut else None)
        verdicts.add(normal)
    assert kinds == {None, *nz._KINDS}
    assert verdicts == answers == {True, False}


# ---------------------------------------------------------------------------
# the fused substitute-and-graft pass against the two passes it replaced

_VARS = ("x", "v", "v1", "w", "y")
_LABELS = ("k", "k1", "h", "a")  # "a" is also the grafted hypothesis


def _term(pick, depth: int = 2):
    kind = pick(("var", "num", "succ", "plus") if depth else ("var", "num"))
    if kind == "var":
        return TVar(pick(_VARS))
    if kind == "num":
        return tnum(pick((0, 1, 2)))
    if kind == "succ":
        return TApp("S", (_term(pick, depth - 1),))
    return TApp("+", (_term(pick, depth - 1), _term(pick, depth - 1)))


def _refl(ctx, t) -> Derivation:
    return Derivation(dd.AtomPost("refl"), Sequent(ctx, Atom("=", (t, t))))


def _unbound(names, *formulas):
    """The names free in none of formulas."""
    bound = set().union(*(arith.free_vars(f) for f in formulas))
    return tuple(n for n in names if n not in bound)


def _any(pick, ctx, depth: int) -> Derivation:
    """A checked derivation in ctx of some goal: binders and discharges
    are drawn from small pools, so their names clash."""
    labels = [l for l, _ in ctx]
    free = _unbound(_VARS, *(f for _, f in ctx))
    kinds = ["refl"] + ["id"] * bool(labels)
    if depth:
        kinds += ["and", "imply", "prove"] + ["forall", "ind"] * bool(free)
    kind = pick(tuple(kinds))
    if kind == "refl":
        return _refl(ctx, _term(pick))
    if kind == "id":
        return dd.assume(ctx, pick(tuple(labels)))
    if kind == "and":
        left, right = _any(pick, ctx, depth - 1), _any(pick, ctx, depth - 1)
        goal = And(left.conclusion.goal, right.conclusion.goal)
        return Derivation(dd.AndI(), Sequent(ctx, goal), (left, right))
    if kind == "imply":
        k = pick(tuple(l for l in _LABELS if l not in labels))
        a = Atom("=", (_term(pick, 1),) * 2)
        inner = _any(pick, ctx + ((k, a),), depth - 1)
        return Derivation(dd.ImplyI(k), Sequent(ctx, Imply(a, inner.conclusion.goal)), (inner,))
    if kind == "forall":
        y = pick(free)
        inner = _any(pick, ctx, depth - 1)
        return Derivation(dd.ForallI(y), Sequent(ctx, Forall(y, inner.conclusion.goal)), (inner,))
    if kind == "ind":
        v = pick(free)
        k = pick(tuple(l for l in _LABELS if l not in labels))
        tv = _term(pick, 1)
        template = Atom("=", (tv, tv))
        at = lambda t: arith.subst_formula(template, v, t)
        step = _prove(pick, ctx + ((k, template),), at(TApp("S", (TVar(v),))), depth - 1)
        main = _term(pick, 1)
        return Derivation(dd.Ind(k, v, template, main), Sequent(ctx, at(main)),
                          (_refl(ctx, arith.subst_aterm(tv, v, tnum(0))), step))
    return _prove(pick, ctx, Atom("=", (_term(pick),) * 2), depth - 1)


def _prove(pick, ctx, goal, depth: int) -> Derivation:
    """A checked derivation of goal in ctx; goal is t = t or assumed in ctx."""
    labels = [l for l, _ in ctx]
    free = _unbound(_VARS, goal, *(f for _, f in ctx))
    kinds = ["id"] * 2 * sum(f == goal for _, f in ctx)
    if goal.rel == "=" and goal.args[0] == goal.args[1]:
        kinds.append("refl")
    if depth:
        kinds += ["and-el", "imply-e"] + ["exists-e", "em", "forall-e"] * bool(free)
    kind = pick(tuple(kinds))
    if kind == "id":
        return dd.assume(ctx, pick(tuple(l for l, f in ctx if f == goal)))
    if kind == "refl":
        return _refl(ctx, goal.args[0])
    fresh = tuple(l for l in _LABELS if l not in labels)
    if kind == "and-el":
        other = _any(pick, ctx, depth - 1)
        both = (_prove(pick, ctx, goal, depth - 1), other)
        pair = Derivation(dd.AndI(), Sequent(ctx, And(goal, other.conclusion.goal)), both)
        return Derivation(dd.AndEL(), Sequent(ctx, goal), (pair,))
    if kind == "imply-e":
        k = pick(fresh)
        arg = _prove(pick, ctx, Atom("=", (_term(pick, 1),) * 2), depth - 1)
        a = arg.conclusion.goal
        fn = Derivation(dd.ImplyI(k), Sequent(ctx, Imply(a, goal)),
                        (_prove(pick, ctx + ((k, a),), goal, depth - 1),))
        return Derivation(dd.ImplyE(), Sequent(ctx, goal), (fn, arg))
    y = pick(free)
    if kind == "forall-e":
        body = _prove(pick, ctx, goal, depth - 1)
        alls = Derivation(dd.ForallI(y), Sequent(ctx, Forall(y, goal)), (body,))
        return Derivation(dd.ForallE(_term(pick, 1)), Sequent(ctx, goal), (alls,))
    k = pick(fresh)
    if kind == "exists-e":
        t = _term(pick, 1)
        zz = Atom("=", (TVar("z"), TVar("z")))
        major = Derivation(dd.ExistsI(t), Sequent(ctx, arith.Exists("z", zz)), (_refl(ctx, t),))
        hyp = Atom("=", (TVar(y), TVar(y)))
        minor = _prove(pick, ctx + ((k, hyp),), goal, depth - 1)
        return Derivation(dd.ExistsE(k, y), Sequent(ctx, goal), (major, minor))
    u = pick(_VARS)
    univ = Forall(u, Atom("=", (TVar(u), TVar(u))))
    left = _prove(pick, ctx + ((k, univ),), goal, depth - 1)
    right = _prove(pick, ctx + ((k, arith.neg(Atom("=", (TVar(y), TVar(y))))),), goal, depth - 1)
    return Derivation(dd.EM(k, y), Sequent(ctx, goal), (left, right))


def _graft_case(pick):
    """(body, repl, var, t): body proves a goal under a last hypothesis a
    that, like the goal, may mention var, and repl is in body's context
    without a; neither that context nor t's variables keep out of body's
    binders, and var may be a name that renaming picks."""
    var = pick(("x", "v1"))
    ctx = pick(((), (("c", Atom("=", (tnum(1), TVar("w")))),)))
    hyp = Atom("=", (_term(pick, 1),) * 2)
    hyp = arith.subst_formula(hyp, "w", TVar(var))  # var may be free, w may not
    goal = pick((hyp, Atom("=", (_term(pick, 1),) * 2)))
    body = _prove(pick, ctx + (("a", hyp),), goal, 3)
    repl = _any(pick, ctx, 2)
    for d in (body, repl):
        dd.check_derivation(d)
    return body, repl, var, _term(pick, 1)


def _fused_and_two_pass(body, repl, var, t):
    """(what the fused pass gives, what the references give) for the
    graft with and without the substitution and for the substitution alone."""
    cases = [
        (lambda: nz._graft(body, "a", repl, (var, t)),
         lambda: ref._graft(ref._subst_hygienic(body, var, t), "a", repl)),
        (lambda: nz._graft(body, "a", repl), lambda: ref._graft(body, "a", repl)),
        (lambda: nz._subst_hygienic(body, var, t), lambda: ref._subst_hygienic(body, var, t)),
    ]
    return [(_result(new), _result(old)) for new, old in cases]


def _scan_matches(body, var, t) -> None:
    """The pre-scan's names are those of the substituted body itself."""
    picks = nz._clear_of(body, t)
    outcome = _result(ref._subst_hygienic, body, var, t)
    if outcome[0] == "ok":
        names = dd._labels_inside(outcome[1]), ref._all_term_vars(outcome[1])
        assert nz._scan(body, (var, t), picks) == names


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_fused_graft_matches_substituting_then_grafting(data):
    body, repl, var, t = _graft_case(lambda options: data.draw(st.sampled_from(options)))
    for new, old in _fused_and_two_pass(body, repl, var, t):
        assert new == old
    _scan_matches(body, var, t)


def test_the_fused_graft_meets_every_clash():
    """Over seeded cases of the same generator, the comparison meets
    captures, body binders renamed away from t, and replacements whose
    labels and binders are renamed apart."""
    seen = set()
    for seed in range(300):
        body, repl, var, t = _graft_case(random.Random(seed).choice)
        outcomes = _fused_and_two_pass(body, repl, var, t)
        for new, old in outcomes:
            assert new == old, seed
        _scan_matches(body, var, t)
        if outcomes[0][0][0] is nz.HygieneError:
            seen.add("capture")
        body_picks = nz._clear_of(body, t)
        if body_picks:
            seen.add("body binder")
        picks = nz._picks(repl, lambda _: nz._scan(body, (var, t), body_picks)).values()
        if any(label for label, _ in picks):
            seen.add("repl label")
        if any(v for _, v in picks):
            seen.add("repl binder")
    assert seen == {"capture", "body binder", "repl label", "repl binder"}
