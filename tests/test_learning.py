"""Knowledge states, the state oracle, and the learning loop."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, extraction, sexpr
from realizer import learning as ln
from realizer import terms as tm
from realizer.arith import And, Atom, Exists, Forall, Imply, Or, TVar, tnum
from realizer.learning import (
    ConflictingExtension, Exc, Exceptional, IterationLimit, Regular,
    StalledLearning, State, UnsoundEntry, extend, learn, make_exc,
    run_realizer, spot_check_realizes,
)
from realizer.terms import App, Lam, Num, Var, EX, NAT, STATE, UNIT, TProd, TSum, app

from conftest import numeral

RELS = arith.RELATIONS


# ---------------------------------------------------------------------------
# states


def test_state_primitives():
    s = State.empty()
    assert len(s) == 0
    assert s.get(("<", (3,))) is None
    s1 = s.with_entry(("<", (3,)), 0)
    assert s1.get(("<", (3,))) == 0
    assert s.leq(s1) and not s1.leq(s)
    s2 = s1.with_entry(("=", (7,)), 2)
    assert s1.leq(s2) and s2.leq(s2)
    assert s2.mapping() == {("<", (3,)): 0, ("=", (7,)): 2}


def test_state_entries_sorted_canonically():
    a = State.of({("=", (7,)): 2, ("<", (3,)): 0}, RELS)
    b = State.of({("<", (3,)): 0, ("=", (7,)): 2}, RELS)
    assert a == b
    assert a.entries == tuple(sorted(a.entries))


@dataclass(frozen=True)
class _SortedState:
    """State as it was: a sorted tuple of entries that get scans and every
    extension re-sorts."""

    entries: tuple = ()

    @staticmethod
    def of(entries, rels):
        for (rel, args), witness in entries.items():
            make_exc(rel, args, witness, rels)
        return _SortedState(tuple(sorted(((rel, tuple(args)), w) for (rel, args), w in entries.items())))

    def get(self, key):
        for k, w in self.entries:
            if k == key:
                return w
        return None

    def leq(self, other):
        theirs = dict(other.entries)
        return all(theirs.get(k) == w for k, w in self.entries)

    def with_entry(self, key, witness):
        items = dict(self.entries)
        items[key] = witness
        return _SortedState(tuple(sorted(items.items())))

    def __len__(self):
        return len(self.entries)


class _Refuted:
    """A relation that never holds, so every entry is sound."""

    def __init__(self, name, arity):
        self.name, self.arity = name, arity

    def holds(self, args):
        return False


_REFUTED = {"p": _Refuted("p", 2), "q": _Refuted("q", 3)}
_KEYS = [("p", (a,)) for a in range(3)] + [("q", (a, b)) for a in range(2) for b in range(2)]
_ENTRIES = st.dictionaries(st.sampled_from(_KEYS), st.integers(0, 3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, _ENTRIES, st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(0, 3)),
                                    max_size=4))
def test_state_matches_the_sorted_tuple_state(first, second, extensions):
    def build(cls):
        a, b = cls.of(first, _REFUTED), cls.of(second, _REFUTED)
        for key, w in extensions:
            a = a.with_entry(key, w)
        return a, b

    (a, b), (ra, rb) = build(State), build(_SortedState)
    for s, r in ((a, ra), (b, rb)):
        assert s.entries == r.entries
        assert len(s) == len(r)
        assert all(s.get(k) == r.get(k) for k in _KEYS)
        # the same entries in another order make an equal state
        assert State.of(dict(reversed(r.entries)), _REFUTED) == s
    assert (a == b) == (ra == rb)
    assert (a.leq(b), b.leq(a)) == (ra.leq(rb), rb.leq(ra))


def test_state_of_validates_soundness():
    # entry means: rel(args..., witness) is false
    State.of({("<", (5,)): 2}, RELS)
    with pytest.raises(UnsoundEntry):
        State.of({("<", (2,)): 5}, RELS)  # 2 < 5 holds, refutes nothing
    with pytest.raises(UnsoundEntry):
        State.of({("<", (1, 2)): 3}, RELS)  # arity
    with pytest.raises(ln.LearningError):
        State.of({("prime", ()): 4}, RELS)


def test_make_exc_and_extend():
    e = make_exc("<", (3,), 1, RELS)
    assert e.key == ("<", (3,))
    with pytest.raises(UnsoundEntry):
        make_exc("<", (1,), 5, RELS)
    s = State.empty()
    s1 = extend(s, e)
    assert s1 is not None and s1.get(e.key) == 1
    assert extend(s1, e) == s1                      # same witness: no-op
    assert extend(s1, Exc("<", (3,), 2)) is None    # conflict: undefined


@pytest.mark.parametrize("rel, args, witness", [
    ("<", (1,), 5),      # 1 < 5 holds, refutes nothing
    ("<", (), 5),        # a key of the wrong length
    ("<", (1, 2), 0),
    ("<", (1,), -5),     # negative numbers
    ("<", (-1,), 0),
    ("nosuch", (1,), 5),
])
def test_every_door_for_a_counterexample_checks_it(rel, args, witness):
    # make_exc, a state's entry and an exc constant a realizer returns
    # refuse the same counterexamples
    raiser = Lam(STATE, App(tm.inr_c(UNIT, EX), tm.exc_const(rel, args, witness)))
    for make in (lambda: make_exc(rel, args, witness, RELS),
                 lambda: State.of({(rel, args): witness}, RELS),
                 lambda: run_realizer(raiser, State.empty(), RELS),
                 lambda: learn(raiser, State.empty(), RELS)):
        with pytest.raises(ln.LearningError):
            make()


def test_query_and_eval_pred():
    s = State.of({("<", (4,)): 1}, RELS)
    assert ln.query(s, "<", (4,)) == 1
    assert ln.query(s, "<", (9,)) is None
    # a query checks its relation and arity as an eval does
    oracle = ln.StateOracle(s, RELS)
    with pytest.raises(arith.ArityMismatch):
        oracle(tm.query_c("<", 2), [tm.staterep, Num(4), Num(7)])
    with pytest.raises(ln.LearningError):
        oracle(tm.query_c("prime", 0), [tm.staterep])

    assert isinstance(ln.eval_pred("<", (2,), 5, RELS), Regular)
    out = ln.eval_pred("<", (5,), 2, RELS)
    assert out == Exceptional(Exc("<", (5,), 2))
    with pytest.raises(arith.ArityMismatch):
        ln.eval_pred("<", (1, 2, 3), 4, RELS)
    with pytest.raises(ln.LearningError):
        ln.eval_pred("prime", (), 4, RELS)


# ---------------------------------------------------------------------------
# running realizers against the oracle


def _inl(v):
    return App(tm.inl_c(NAT, EX), v)


def _query_realizer():
    """Returns 0 while the state is silent on key <(3), else 1 + witness."""
    q = app(tm.query_c("<", 1), Var(0), numeral(3))
    body = app(tm.case_c(UNIT, NAT, TSum(NAT, EX)), q,
               Lam(UNIT, _inl(numeral(0))),
               Lam(NAT, _inl(App(tm.succ, Var(0)))))
    return Lam(STATE, body)


def test_run_realizer_reads_the_state():
    r = _query_realizer()
    assert run_realizer(r, State.empty(), RELS) == Regular(Num(0))
    seeded = State.of({("<", (3,)): 2}, RELS)
    assert run_realizer(r, seeded, RELS) == Regular(Num(3))


def test_run_realizer_eval_raises_counterexamples():
    def check(a, b):
        ev = app(tm.eval_c("<", 1), numeral(a), numeral(b))
        body = app(tm.case_c(UNIT, EX, TSum(NAT, EX)), ev,
                   Lam(UNIT, _inl(numeral(1))),
                   Lam(EX, App(tm.inr_c(NAT, EX), Var(0))))
        return run_realizer(Lam(STATE, body), State.empty(), RELS)

    assert check(2, 5) == Regular(Num(1))
    assert check(5, 2) == Exceptional(Exc("<", (5,), 2))


def test_run_realizer_rejects_non_outcomes():
    with pytest.raises(tm.IllTyped):
        run_realizer(Lam(STATE, numeral(3)), State.empty(), RELS)


# ---------------------------------------------------------------------------
# the learning loop


def _late_bloomer():
    """Exceptional until the state knows <(3), then returns the witness."""
    q = app(tm.query_c("<", 1), Var(0), numeral(3))
    body = app(tm.case_c(UNIT, NAT, TSum(NAT, EX)), q,
               Lam(UNIT, App(tm.inr_c(NAT, EX), tm.exc_const("<", (3,), 0))),
               Lam(NAT, _inl(Var(0))))
    return Lam(STATE, body)


def test_learn_converges_and_traces():
    s, v, trace = learn(_late_bloomer(), State.empty(), RELS)
    assert s.mapping() == {("<", (3,)): 0}
    assert v == Num(0)
    assert trace.lines == [
        "iter=1 key=<(3) witness=0 outcome=exceptional",
        "iter=2 key=- witness=- outcome=regular",
    ]


def test_learn_from_seeded_state_skips_the_exception():
    seeded = State.of({("<", (3,)): 2}, RELS)
    s, v, trace = learn(_late_bloomer(), seeded, RELS)
    assert s == seeded and v == Num(2)
    assert trace.lines == ["iter=1 key=- witness=- outcome=regular"]


def test_learn_detects_stalls():
    always = Lam(STATE, App(tm.inr_c(NAT, EX), tm.exc_const("<", (3,), 0)))
    with pytest.raises(StalledLearning):
        learn(always, State.empty(), RELS)


def test_learn_detects_conflicts():
    always = Lam(STATE, App(tm.inr_c(NAT, EX), tm.exc_const("<", (3,), 1)))
    seeded = State.of({("<", (3,)): 0}, RELS)
    with pytest.raises(ConflictingExtension):
        learn(always, seeded, RELS)


def test_learn_iteration_limit():
    with pytest.raises(IterationLimit):
        learn(_late_bloomer(), State.empty(), RELS, max_iters=1)


# ---------------------------------------------------------------------------
# spot checking


def _pair(n, inner):
    return app(tm.pair_c(NAT, UNIT), numeral(n), inner)


def test_spot_check_existential():
    goal = Exists("x", Atom("=", (TVar("x"), tnum(3))))
    good = spot_check_realizes(_pair(3, tm.unit_const), goal, State.empty(), RELS)
    assert good.kind == "holds" and good.ok
    bad = spot_check_realizes(_pair(4, tm.unit_const), goal, State.empty(), RELS)
    assert bad.kind == "fails" and not bad.ok
    shapeless = spot_check_realizes(numeral(3), goal, State.empty(), RELS)
    assert not shapeless.ok


def test_spot_check_universal_samples():
    goal = Forall("x", Atom("<=", (tnum(0), TVar("x"))))
    v = Lam(NAT, Lam(STATE, App(tm.inl_c(UNIT, EX), tm.unit_const)))
    got = spot_check_realizes(v, goal, State.empty(), RELS)
    assert got.kind == "sampled-ok" and got.ok

    lying = Forall("x", Atom("<=", (tnum(4), TVar("x"))))
    got = spot_check_realizes(v, lying, State.empty(), RELS)
    assert got.kind == "fails" and "inst(" in got.detail


@pytest.mark.parametrize("exc, detail", [
    ("(exc < (0) 5)", "<(0, 5) holds, so 5 refutes nothing"),
    ("(exc nosuch (0) 5)", "unknown relation 'nosuch'"),
])
def test_spot_check_refuses_an_exception_that_is_no_counterexample(exc, detail):
    # a realizer of the false forall x. 0 < x that raises an exception no
    # state may learn from realizes nothing
    goal = Forall("x", Atom("<", (tnum(0), TVar("x"))))
    lying = sexpr.read_term(f"(lam Nat (lam State (app (inr Unit Ex) {exc})))",
                            arith.FUNCTIONS, RELS)
    got = spot_check_realizes(lying, goal, State.empty(), RELS)
    assert got == ln.Verdict("fails", f"top.inst(0): {detail}")


def test_spot_check_implication_samples():
    v = Lam(UNIT, Lam(STATE, App(tm.inl_c(UNIT, EX), Var(1))))
    got = spot_check_realizes(v, Imply(Atom("top"), Atom("top")), State.empty(), RELS)
    assert got.kind == "sampled-ok" and got.ok
    # the checker probes atomic antecedents with their canonical realizer
    bad = spot_check_realizes(v, Imply(Atom("top"), Atom("bot")), State.empty(), RELS)
    assert bad.kind == "fails" and ".app" in bad.detail


def test_spot_check_conjunction_and_disjunction():
    goal = And(Atom("top"), Or(Atom("bot"), Atom("top")))
    v = app(tm.pair_c(UNIT, TSum(UNIT, UNIT)), tm.unit_const,
            App(tm.inr_c(UNIT, UNIT), tm.unit_const))
    assert spot_check_realizes(v, goal, State.empty(), RELS).kind == "holds"
    wrong_side = app(tm.pair_c(UNIT, TSum(UNIT, UNIT)), tm.unit_const,
                     App(tm.inl_c(UNIT, UNIT), tm.unit_const))
    assert not spot_check_realizes(wrong_side, goal, State.empty(), RELS).ok


_X_IS_2 = Exists("x", Atom("=", (TVar("x"), tnum(2))))
_Y_IS_2 = Exists("y", Atom("=", (TVar("y"), tnum(2))))


@pytest.mark.parametrize("f", [
    Atom("top"), _X_IS_2, And(_X_IS_2, Atom("top")), Or(_X_IS_2, Atom("bot")),
    Exists("x", And(Atom("<", (TVar("x"), tnum(3))), _Y_IS_2)),
    Imply(Atom("top"), Atom("top")), And(Forall("x", Atom("top")), Atom("top")),
])
def test_spot_check_samples_typecheck_at_the_realizer_type(f):
    ty = extraction.realizer_type(f)
    samples = ln._inner_samples(ty, 8)
    assert all(tm.typecheck(v) == ty for v in samples)
    # an arrow anywhere in the type leaves nothing to sample
    assert bool(samples) == ("arrow" not in sexpr.print_type(ty))


def _witness_map(bump: bool):
    """lam p. lam s. inl (pair W unit), W the witness of p, or its successor."""
    ex, inner = TProd(NAT, UNIT), TSum(TProd(NAT, UNIT), EX)
    w = App(tm.prl_c(NAT, UNIT), Var(1))
    w = App(tm.succ, w) if bump else w
    return Lam(ex, Lam(STATE, App(tm.inl_c(ex, EX), app(tm.pair_c(NAT, UNIT), w, tm.unit_const))))


def test_spot_check_applies_implications_to_true_antecedents_only():
    goal = Imply(_X_IS_2, _Y_IS_2)
    assert tm.typecheck(_witness_map(False)) == extraction.realizer_type(goal)
    got = spot_check_realizes(_witness_map(False), goal, State.empty(), RELS)
    assert got.kind == "sampled-ok"
    wrong = spot_check_realizes(_witness_map(True), goal, State.empty(), RELS)
    assert wrong.kind == "fails"
    assert wrong.detail == "top.app.wit(3): atom (atom = 3 2) is false"
    # a false antecedent has no realizer to apply the map to
    vacuous = Imply(Exists("x", Atom("<", (TVar("x"), tnum(0)))), _Y_IS_2)
    assert spot_check_realizes(_witness_map(True), vacuous, State.empty(), RELS).ok


def _nested_conjunction(depth):
    """(and ... (and 1 = 1 1 = 1) ... 1 = 1), depth levels, with its nested
    pair realizer and that realizer's type."""
    one = Atom("=", (tnum(1), tnum(1)))
    f, v, ty = one, tm.unit_const, UNIT
    for _ in range(depth):
        f, v, ty = And(f, one), app(tm.pair_c(ty, UNIT), v, tm.unit_const), TProd(ty, UNIT)
    return f, v, ty


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_spot_check_takes_a_deep_conjunction(depth):
    f, v, _ = _nested_conjunction(depth)
    assert spot_check_realizes(v, f, State.empty(), RELS).kind == "holds"
    # a wrong leaf at the bottom fails with its whole path
    wrong = Num(0)
    for _ in range(depth):
        wrong = app(tm.pair_c(UNIT, UNIT), wrong, tm.unit_const)
    got = spot_check_realizes(wrong, f, State.empty(), RELS)
    assert got.detail == "top" + ".l" * depth + ": atomic realizer is not unit"


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_spot_check_takes_an_implication_over_a_deep_conjunction(depth):
    # the antecedent's one sample is the nested pair of units
    f, _, ty = _nested_conjunction(depth)
    (sample,) = ln._inner_samples(ty, 8)
    assert spot_check_realizes(sample, f, State.empty(), RELS).kind == "holds"
    one = Atom("=", (tnum(1), tnum(1)))
    ok = Lam(ty, Lam(STATE, App(tm.inl_c(UNIT, EX), tm.unit_const)))
    assert spot_check_realizes(ok, Imply(f, one), State.empty(), RELS).kind == "sampled-ok"
    got = spot_check_realizes(ok, Imply(f, Atom("bot")), State.empty(), RELS)
    assert got.detail == "top.app: atom (atom bot) is false"


def test_custom_relation_protocol():
    class Parity:
        name = "even-sum"
        arity = 2

        def holds(self, args):
            a, b = args
            return (a + b) % 2 == 0

    rels = {"even-sum": Parity()}
    e = make_exc("even-sum", (1,), 2, rels)  # 1 + 2 is odd
    assert e.witness == 2
    with pytest.raises(UnsoundEntry):
        make_exc("even-sum", (1,), 3, rels)
    s = State.of({("even-sum", (1,)): 2}, rels)
    assert ln.query(s, "even-sum", (1,)) == 2
