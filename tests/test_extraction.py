"""Realizer types, decoration, and extraction of closed realizers."""

import random
import sys

import pytest

from realizer import arith, corpus, sexpr
from realizer import deduction as dd
from realizer import extraction as ex
from realizer import monads as mn
from realizer import terms as tm
from realizer.arith import And, Atom, Exists, Forall, Imply, Or, TVar, tnum
from realizer.deduction import Derivation, Sequent
from realizer.extraction import computation_type, decorate, em_realizer, extract, realizer_type
from realizer.learning import (
    Exceptional, Regular, State, learn, run_realizer, spot_check_realizes,
)
from realizer.terms import EX, NAT, STATE, UNIT, TArrow, TProd, TSum, typecheck

import conftest as gen
import reference_extraction as ref

ALL = (mn.IDENTITY, mn.EXCEPTION, mn.INTERACTIVE)
RELS = arith.RELATIONS


# ---------------------------------------------------------------------------
# the type translation


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_realizer_type_table(m):
    atom = Atom("top")
    assert realizer_type(atom, m) == UNIT
    assert realizer_type(And(atom, atom), m) == TProd(UNIT, UNIT)
    assert realizer_type(Or(atom, atom), m) == TSum(UNIT, UNIT)
    assert realizer_type(Imply(atom, atom), m) == TArrow(UNIT, m.type_op(UNIT))
    assert realizer_type(Forall("x", atom), m) == TArrow(NAT, m.type_op(UNIT))
    assert realizer_type(Exists("x", atom), m) == TProd(NAT, UNIT)
    assert computation_type(atom, m) == m.type_op(UNIT)


def test_realizer_type_nests_through_connectives():
    f = Imply(Exists("x", Atom("top")), Forall("y", And(Atom("top"), Atom("bot"))))
    m = mn.INTERACTIVE
    inner = TProd(UNIT, UNIT)
    want = TArrow(TProd(NAT, UNIT), m.type_op(TArrow(NAT, m.type_op(inner))))
    assert realizer_type(f, m) == want


# ---------------------------------------------------------------------------
# decoration of open derivations


@pytest.mark.parametrize("seed", range(30))
def test_decorations_typecheck_in_context(seed):
    rng = random.Random(seed)
    d = gen.decoratable_derivation(rng)
    has_em = any(isinstance(n.rule, dd.EM) for n in dd.walk(d))
    for m in (mn.INTERACTIVE,) if has_em else ALL:
        body = decorate(d, m)
        ctx = tuple(realizer_type(f, m) for _, f in reversed(d.conclusion.context))
        assert typecheck(body, ctx) == computation_type(d.conclusion.goal, m)


def test_extract_closes_over_the_context():
    rng = random.Random(5)
    d = gen.open_derivation(rng)
    m = mn.EXCEPTION
    t = extract(d, m)
    want = computation_type(d.conclusion.goal, m)
    for _, f in reversed(d.conclusion.context):
        want = TArrow(realizer_type(f, m), want)
    assert typecheck(t) == want


def test_extract_rejects_free_term_variables():
    x = TVar("x")
    d = Derivation(dd.AtomPost("refl"), Sequent((), Atom("=", (x, x))))
    with pytest.raises(ex.OpenDerivation):
        extract(d)


def test_extract_checks_first():
    bogus = Derivation(dd.AtomI(), Sequent((), Atom("=", (tnum(0), tnum(1)))))
    with pytest.raises(dd.DeductionError):
        extract(bogus)


def test_induction_has_no_direct_decoration():
    d = gen.ind_derivation(random.Random(0))
    with pytest.raises(ex.UnsupportedRule):
        decorate(d, mn.INTERACTIVE)


# ---------------------------------------------------------------------------
# running extracted realizers (no classical rules)


@pytest.mark.parametrize("seed", range(25))
def test_ha_realizers_run_regular_and_realize(seed):
    rng = random.Random(200 + seed)
    d, witness = gen.sigma01_derivation(rng, cuts=2)
    t = extract(d, mn.INTERACTIVE)
    out = run_realizer(t, State.empty(), RELS)
    assert isinstance(out, Regular)
    verdict = spot_check_realizes(out.value, d.conclusion.goal, State.empty(), RELS)
    assert verdict.ok, verdict
    if witness is not None:
        head, args = tm.spine(out.value)
        assert tm.as_numeral(args[0]) == witness


def _guessable(d):
    """Every EM matrix has the quantified variable as its own last argument."""
    for node in dd.walk(d):
        if isinstance(node.rule, dd.EM):
            univ = node.premisses[0].conclusion.lookup(node.rule.label)
            args = univ.body.args
            if not args or args[-1] != TVar(univ.var):
                return False
    return True


def test_corpus_realizers_run_regular():
    from realizer import normalizer

    pf = corpus.corpus_file()
    extracted = 0
    for name, d in pf.derivs.items():
        if not _guessable(d):
            with pytest.raises(ex.UnsupportedRule):
                extract(d, mn.INTERACTIVE, pf.rels, pf.fns)
            continue
        if any(isinstance(n.rule, dd.Ind) for n in dd.walk(d)):
            d = normalizer.normalize_derivation(d, rels=pf.rels, fns=pf.fns)
        t = extract(d, mn.INTERACTIVE, pf.rels, pf.fns)
        out = run_realizer(t, State.empty(), pf.rels)
        assert isinstance(out, (Regular, Exceptional)), name
        extracted += 1
        if isinstance(d.conclusion.goal, Exists) and isinstance(out, Regular):
            assert spot_check_realizes(out.value, d.conclusion.goal, State.empty(),
                                       pf.rels, fns=pf.fns).ok, name
    assert extracted >= 10


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_realizer_files_with_unary_numerals_still_run(m):
    # a realizer printed before realizers carried literals spells each
    # natural as its succ chain; read back, it runs to the same outcome
    from realizer import normalizer

    pf = corpus.corpus_file()
    ran = 0
    for name, d in pf.derivs.items():
        if any(isinstance(n.rule, dd.Ind) for n in dd.walk(d)):
            d = normalizer.normalize_derivation(d, rels=pf.rels, fns=pf.fns)
        try:
            t = extract(d, m, pf.rels, pf.fns)
        except ex.UnsupportedRule:
            continue
        text = sexpr.print_term(gen.unary_literals(t))
        assert "(num" not in text
        old = sexpr.parse_file(f"(defterm r {text})").terms["r"]
        if m is not mn.INTERACTIVE:
            assert gen.fold_numerals(tm.normalize(old)) == tm.normalize(t), name
        else:
            got, want = (run_realizer(r, State.empty(), pf.rels) for r in (old, t))
            if isinstance(want, Regular):
                assert gen.fold_numerals(got.value) == want.value, name
            else:
                assert got == want, name
            (s, v, trace), (s_new, v_new, trace_new) = (
                learn(r, State.empty(), pf.rels) for r in (old, t))
            assert (s, trace.lines) == (s_new, trace_new.lines), name
            assert gen.fold_numerals(v) == v_new, name
        ran += 1
    assert ran == (12 if m is mn.INTERACTIVE else 9)


# ---------------------------------------------------------------------------
# the excluded-middle guess


def test_em_realizer_type():
    t = em_realizer("<", (tm.Num(2),))
    left = TArrow(NAT, mn.INTERACTIVE.type_op(UNIT))
    right = TProd(NAT, TArrow(UNIT, mn.INTERACTIVE.type_op(UNIT)))
    assert typecheck(t) == TArrow(STATE, TSum(TSum(left, right), EX))


def test_em_decoration_rejects_other_monads():
    d = gen.em_derivation(random.Random(4))
    for m in (mn.IDENTITY, mn.EXCEPTION):
        with pytest.raises(ex.UnsupportedRule):
            decorate(d, m)


def test_em_needs_the_variable_last():
    univ = Forall("y", Atom("<=", (TVar("y"), tnum(3))))
    goal = Exists("x", Atom("=", (TVar("x"), tnum(0))))
    inst = Atom("=", (tnum(0), tnum(0)))
    cl = (("u", univ),)
    cr = (("u", arith.neg(Atom("<=", (TVar("y"), tnum(3))))),)
    left = Derivation(dd.ExistsI(tnum(0)), Sequent(cl, goal),
                      (Derivation(dd.AtomI(), Sequent(cl, inst)),))
    right = Derivation(dd.ExistsI(tnum(0)), Sequent(cr, goal),
                       (Derivation(dd.AtomI(), Sequent(cr, inst)),))
    d = Derivation(dd.EM("u", "y"), Sequent((), goal), (left, right))
    dd.check_derivation(d)
    with pytest.raises(ex.UnsupportedRule):
        decorate(d, mn.INTERACTIVE)


def test_term_to_nat():
    t = ex.term_to_nat(arith.TApp("+", (tnum(1), tnum(2))), (), arith.FUNCTIONS)
    assert tm.normalize(t) == tm.Num(3)
    with pytest.raises(ex.ExtractionError):
        ex.term_to_nat(TVar("x"), (), arith.FUNCTIONS)
    with pytest.raises(ex.ExtractionError):
        ex.term_to_nat(arith.TApp("exp", (tnum(1),)), (), arith.FUNCTIONS)


def test_decoration_shifts_no_decorated_premiss(monkeypatch):
    # each premiss is decorated under its final binders, and the
    # excluded-middle guess places its closed parameters by name, so
    # extraction never shifts
    bench = gen.bench_gen()
    d = bench.em_chain(bench.Stratified(6), 6)
    callers = []

    def spy(t, by, cutoff=0):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(t, by, cutoff)

    real = tm.shift
    monkeypatch.setattr(tm, "shift", spy)
    t = extract(d, mn.INTERACTIVE)
    guess = em_realizer("<", (tm.App(tm.succ, tm.Num(2)),))
    assert callers == []
    assert typecheck(t) == computation_type(d.conclusion.goal)
    assert typecheck(guess) == typecheck(em_realizer("<", (tm.Num(3),)))


# each derivation reaches an outer hypothesis h, and where the rule binds
# one its variable, from under the administrative binders of its last rule
_UNDER_BINDERS = """
(defder or-e
  (der (or-e l) (seq (ctx (h {imp})) {imp})
    (der or-il (seq (ctx (h {imp})) (or (atom top) (atom top)))
      (der atom-i (seq (ctx (h {imp})) (atom top))))
    (der (id h) (seq (ctx (h {imp}) (l (atom top))) {imp}))
    (der (id h) (seq (ctx (h {imp}) (l (atom top))) {imp}))))
(defder exists-e
  (der (exists-e l w) (seq (ctx (h {imp})) {imp})
    (der (exists-i 0) (seq (ctx (h {imp})) (exists x (atom = x x)))
      (der atom-i (seq (ctx (h {imp})) (atom = 0 0))))
    (der (id h) (seq (ctx (h {imp}) (l (atom = w w))) {imp}))))
(defder cind
  (der (cind c v) (seq (ctx (h {all})) (forall v (atom = v v)))
    (der (forall-e v) (seq (ctx (h {all}) (c {below})) (atom = v v))
      (der (id h) (seq (ctx (h {all}) (c {below})) {all})))))
(defder em
  (der (em u y) (seq (ctx (h {all})) (exists x (atom = x x)))
    (der (exists-i 0) (seq (ctx (h {all}) (u {guess})) (exists x (atom = x x)))
      (der (forall-e 0) (seq (ctx (h {all}) (u {guess})) (atom = 0 0))
        (der (id h) (seq (ctx (h {all}) (u {guess})) {all}))))
    (der (exists-i y) (seq (ctx (h {all}) (u {refuted})) (exists x (atom = x x)))
      (der (forall-e y) (seq (ctx (h {all}) (u {refuted})) (atom = y y))
        (der (id h) (seq (ctx (h {all}) (u {refuted})) {all}))))))
(defder forall-e
  (der (forall-i x) (seq (ctx (h {all})) (forall x (atom = x x)))
    (der (forall-e x) (seq (ctx (h {all})) (atom = x x))
      (der (id h) (seq (ctx (h {all})) {all})))))
(defder exists-i
  (der (forall-i x) (seq (ctx (h {all})) (forall x (exists y (atom = y x))))
    (der (exists-i x) (seq (ctx (h {all})) (exists y (atom = y x)))
      (der (forall-e x) (seq (ctx (h {all})) (atom = x x))
        (der (id h) (seq (ctx (h {all})) {all}))))))
""".format(imp="(imply (atom top) (atom top))", all="(forall q (atom = q q))",
           below="(forall z (imply (atom < z v) (atom = z z)))",
           guess="(forall y (atom <= 0 y))", refuted="(imply (atom <= 0 y) (atom bot))")


@pytest.mark.parametrize("name", ["or-e", "exists-e", "cind", "em", "forall-e", "exists-i"])
@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_decoration_reaches_past_administrative_binders(name, m):
    d = sexpr.parse_file(_UNDER_BINDERS).derivs[name]
    if name == "em" and m is not mn.INTERACTIVE:
        with pytest.raises(ex.UnsupportedRule):
            extract(d, m)
        return
    t = extract(d, m)
    hyp = d.conclusion.context[0][1]
    assert typecheck(t) == TArrow(realizer_type(hyp, m), computation_type(d.conclusion.goal, m))


# ---------------------------------------------------------------------------
# deep derivations


def _and_chain(levels: int) -> Derivation:
    """levels levels of and-el over and-i around an atom."""
    a, b = Atom("=", (tnum(1), tnum(1))), Atom("=", (tnum(2), tnum(2)))
    d = Derivation(dd.AtomI(), Sequent((), a))
    side = Derivation(dd.AtomI(), Sequent((), b))
    for _ in range(levels // 2):
        both = Derivation(dd.AndI(), Sequent((), And(a, b)), (d, side))
        d = Derivation(dd.AndEL(), Sequent((), a), (both,))
    return d


@pytest.mark.parametrize("levels", [1200, 10**4])
def test_deep_derivations_extract_without_recursion(levels):
    limit = sys.getrecursionlimit()
    t = extract(_and_chain(levels))
    assert sys.getrecursionlimit() == limit
    assert typecheck(t) == computation_type(Atom("=", (tnum(1), tnum(1))))


# ---------------------------------------------------------------------------
# differential test against the closed combinators applied with tm.app


def _nodes(t) -> int:
    n, todo = 0, [t]
    while todo:
        x = todo.pop()
        n += 1
        if type(x) is tm.Lam:
            todo.append(x.body)
        elif type(x) is tm.App:
            todo += (x.fn, x.arg)
    return n


# constructors the machine leaves alone, with the most arguments they take
_INERT = {"pair": 2, "inl": 1, "inr": 1, "succ": 1, "rec": 1}


def _value(t) -> bool:
    head, args = tm.spine(t)
    if not args:
        return True
    return (type(head) is tm.Const and len(args) <= _INERT.get(head.kind, 0)
            and all(_value(a) for a in args))


def _uses_of_the_binder(body) -> int:
    """How often body, under one binder, uses that binder's variable."""
    n, todo = 0, [(body, 0)]
    while todo:
        x, depth = todo.pop()
        if type(x) is tm.Var:
            n += x.index == depth
        elif type(x) is tm.Lam:
            todo.append((x.body, depth + 1))
        elif type(x) is tm.App:
            todo += ((x.fn, depth), (x.arg, depth))
    return n


def _contractible_redexes(t) -> list:
    """Every (lam x. b) a in t with a a variable, or a value b uses at most once."""
    found, todo = [], [t]
    while todo:
        x = todo.pop()
        if type(x) is tm.App:
            if type(x.fn) is tm.Lam and (type(x.arg) is tm.Var or (
                    _value(x.arg) and _uses_of_the_binder(x.fn.body) <= 1)):
                found.append(x)
            todo += (x.fn, x.arg)
        elif type(x) is tm.Lam:
            todo.append(x.body)
    return found


def _same_behaviour(v, w, f, s, rels, depth=2) -> bool:
    """v and w realize f alike under s: equal first-order data, and functions
    that give the same outcomes on sampled arguments."""
    if v == w:
        return True
    match f:
        case And(left, right) | Or(left, right):
            (hv, av), (hw, aw) = tm.spine(v), tm.spine(w)
            if hv != hw or len(av) != len(aw):
                return False
            if isinstance(f, And):
                parts = (left, right)
            else:
                parts = (left,) if hv.kind == "inl" else (right,)
            return all(_same_behaviour(x, y, g, s, rels, depth)
                       for x, y, g in zip(av, aw, parts))
        case Exists(var, body):
            (_, av), (_, aw) = tm.spine(v), tm.spine(w)
            if av[0] != aw[0]:
                return False
            inst = arith.subst_formula(body, var, tnum(tm.as_numeral(av[0])))
            return _same_behaviour(av[1], aw[1], inst, s, rels, depth)
        case Forall() | Imply() if depth:
            if isinstance(f, Forall):
                samples = [(tm.Num(n), arith.subst_formula(f.body, f.var, tnum(n)))
                           for n in range(3)]
            else:
                samples = [(tm.unit_const, f.right)] if isinstance(f.left, Atom) else []
            for x, g in samples:
                a = run_realizer(tm.App(v, x), s, rels)
                b = run_realizer(tm.App(w, x), s, rels)
                if type(a) is not type(b):
                    return False
                if isinstance(a, Exceptional) and a != b:
                    return False
                if isinstance(a, Regular) and not _same_behaviour(a.value, b.value, g, s, rels,
                                                                  depth - 1):
                    return False
            return True
    return False


def _least_fuel(r, rels) -> int:
    """The least fuel with which learning on r comes to a regular run."""
    def enough(fuel):
        try:
            learn(r, State.empty(), rels, fuel)
        except tm.FuelExhausted:
            return False
        return True

    lo, hi = 0, 16  # no run succeeds with fuel 0
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def _agrees_with_reference(d, m=mn.INTERACTIVE, rels=RELS, fns=arith.FUNCTIONS):
    new = extract(d, m, rels, fns)
    old = ref.reference_extract(d, m, rels, fns)
    assert typecheck(new) == typecheck(old)
    assert _nodes(new) <= _nodes(old)
    assert _contractible_redexes(new) == []
    if m is not mn.INTERACTIVE or d.conclusion.context:
        return
    (s, v, trace), (s_old, v_old, trace_old) = (learn(t, State.empty(), rels) for t in (new, old))
    assert (s, trace.lines) == (s_old, trace_old.lines)
    assert _same_behaviour(v, v_old, d.conclusion.goal, s, rels)
    assert _least_fuel(new, rels) <= _least_fuel(old, rels)


def test_corpus_agrees_with_the_reference_construction():
    from realizer import normalizer

    pf = corpus.corpus_file()
    ran = 0
    for name, d in pf.derivs.items():
        if not _guessable(d):
            continue
        if any(isinstance(n.rule, dd.Ind) for n in dd.walk(d)):
            d = normalizer.normalize_derivation(d, rels=pf.rels, fns=pf.fns)
        _agrees_with_reference(d, mn.INTERACTIVE, pf.rels, pf.fns)
        ran += 1
    assert ran == 12


@pytest.mark.parametrize("wrapped", [False, True])
@pytest.mark.parametrize("depth", range(1, 7))
def test_bench_em_chains_agree_with_the_reference_construction(depth, wrapped):
    bench = gen.bench_gen()
    _agrees_with_reference(bench.em_chain(bench.Stratified(depth), depth, wrapped))


def test_bench_cut_chains_agree_with_the_reference_construction():
    bench = gen.bench_gen()
    rng = bench.Stratified(3)
    for kinds in bench.cut_kinds(rng, list(range(1, 9))):
        _agrees_with_reference(bench.sigma01_cuts(rng, kinds))


@pytest.mark.parametrize("seed", range(40))
def test_generated_derivations_agree_with_the_reference_construction(seed):
    rng = random.Random(900 + seed)
    ds = [gen.decoratable_derivation(rng), gen.sigma01_derivation(rng, cuts=3)[0],
          gen.with_random_cuts(rng, gen.em_derivation(rng), 2), gen.open_derivation(rng),
          gen.cind_derivation(rng)]
    for d in ds:
        has_em = any(isinstance(n.rule, dd.EM) for n in dd.walk(d))
        for m in (mn.INTERACTIVE,) if has_em else ALL:
            _agrees_with_reference(d, m)
