"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line each.
Every budget below (sample counts, corpus sizes, wall-clock limits) is a
contract; shrinking one to make the suite pass is never the right fix.
"""

import random
import time

from realizer import arith, corpus, extraction, learning, reals
from realizer import deduction as dd
from realizer import monads as mn
from realizer import normalizer as nz
from realizer import terms as tm
from realizer.arith import Comp, PRec, Proj, Relation, Succ, Zero

import conftest as gen
import reference_arith

# even(0)=1, even(n+1)=1-even(n); a decidable predicate outside the built-ins
EVEN = Relation("even", 1, PRec(
    Comp(Succ(), (Zero(0),)),
    Comp(arith.FUNCTIONS["monus"], (Comp(Succ(), (Zero(2),)), Proj(2, 2)))))


def test_c1_monad_laws():
    """M1-M3 for all three monads over 1000 seeded samples each, < 10 s."""
    start = time.monotonic()
    for i, monad in enumerate((mn.IDENTITY, mn.EXCEPTION, mn.INTERACTIVE)):
        report = mn.check_laws(monad, samples=1000, seed=17 + i)
        assert report.checked == 3000
        assert report.ok, report.violations
    assert time.monotonic() - start < 10.0


def test_c2_decoration_typing():
    """200 checked derivations decorate to terms of the computation type."""
    start = time.monotonic()
    rng = random.Random(2026)
    done = 0
    for _ in range(200):
        d = gen.decoratable_derivation(rng)
        has_em = any(isinstance(n.rule, dd.EM) for n in dd.walk(d))
        monads = (mn.INTERACTIVE,) if has_em else (mn.IDENTITY, mn.EXCEPTION, mn.INTERACTIVE)
        for m in monads:
            body = extraction.decorate(d, m)
            ctx = tuple(extraction.realizer_type(f, m)
                        for _, f in reversed(d.conclusion.context))
            assert tm.typecheck(body, ctx) == extraction.computation_type(
                d.conclusion.goal, m)
        done += 1
    assert done >= 200
    assert time.monotonic() - start < 30.0


def test_c3_ha_soundness():
    """50 closed low-complexity derivations run to checked regular values."""
    start = time.monotonic()
    rng = random.Random(31)
    done = with_witness = 0
    while done < 55:
        d, witness = gen.sigma01_derivation(rng, cuts=2)
        if reference_arith.classify(d.conclusion.goal) is None:
            continue
        r = extraction.extract(d, mn.INTERACTIVE)
        out = learning.run_realizer(r, learning.State.empty(), arith.RELATIONS)
        assert isinstance(out, learning.Regular)
        verdict = learning.spot_check_realizes(
            out.value, d.conclusion.goal, learning.State.empty(), arith.RELATIONS)
        assert verdict.ok, verdict.detail
        if witness is not None:
            _, args = tm.spine(out.value)
            assert tm.as_numeral(args[0]) == witness
            with_witness += 1
        done += 1
    assert done >= 50 and with_witness > 0
    assert time.monotonic() - start < 30.0


def test_c4_em_soundness():
    """500 excluded-middle queries: sound universal or stored-witness branch."""
    rng = random.Random(4)
    rels = dict(arith.RELATIONS) | {"even": EVEN}
    empty = learning.State.empty()
    cases = 0
    while cases < 500:
        relname = rng.choice(("=", "<", "<=", "even"))
        params = tuple(rng.randrange(10) for _ in range(rels[relname].arity - 1))
        r = extraction.em_realizer(relname, tuple(tm.Num(p) for p in params))

        # empty state: the universal branch, instances check or raise soundly
        out = learning.run_realizer(r, empty, rels)
        assert isinstance(out, learning.Regular)
        head, args = tm.spine(out.value)
        assert head.kind == "inl"
        n = rng.randrange(8)
        got = learning.run_realizer(tm.App(args[0], tm.Num(n)), empty, rels)
        if rels[relname].holds(params + (n,)):
            assert isinstance(got, learning.Regular)
            assert got.value == tm.unit_const
        else:
            assert isinstance(got, learning.Exceptional)
            assert got.exc.key == (relname, params) and got.exc.witness == n
            assert learning.extend(empty, got.exc) is not None
        cases += 1

        # seeded state: the existential branch carries the stored witness
        w = next((v for v in range(12) if not rels[relname].holds(params + (v,))), None)
        if w is None:
            continue
        seeded = learning.State.of({(relname, params): w}, rels)
        out = learning.run_realizer(r, seeded, rels)
        assert isinstance(out, learning.Regular)
        head, args = tm.spine(out.value)
        assert head.kind == "inr"
        pair_head, parts = tm.spine(args[0])
        assert pair_head.kind == "pair"
        assert tm.as_numeral(parts[0]) == w
        assert not rels[relname].holds(params + (w,))
        cases += 1
    assert cases >= 500


def test_c5_witness_extraction():
    """Whole corpus normalizes within fuel 10^5 to a satisfying witness."""
    start = time.monotonic()
    pf = corpus.corpus_file()
    assert len(pf.derivs) >= 10
    for name, d in pf.derivs.items():
        value, nd = nz.extract_witness(d, 10**5, rels=pf.rels, fns=pf.fns)
        assert isinstance(nd.rule, dd.ExistsI), name
        assert value == gen.CORPUS_WITNESSES[name], name
        matrix = arith.subst_formula(
            d.conclusion.goal.body, d.conclusion.goal.var, arith.tnum(value))
        assert arith.atomic_truth(matrix, pf.rels, pf.fns), name
    assert time.monotonic() - start < 60.0


def test_c6_least_element_demo():
    """100 trials of the comparison-learning argmin on exact rationals."""
    start = time.monotonic()
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randrange(1, 11)
        qs = gen.distinct_rationals(rng, n)
        values = [reals.constant(q) for q in qs]
        idx, s, trace = reals.least_element(values, 4)
        assert idx == qs.index(min(qs))
        exceptional = sum(1 for ln in trace if ln.endswith("outcome=exceptional"))
        assert exceptional <= 2**n - 1
        assert trace[-1].endswith("outcome=regular")
        # a presorted enumeration never needs to learn anything
        idx2, s2, trace2 = reals.least_element(
            [reals.constant(q) for q in sorted(qs)], 4)
        assert idx2 == 0 and len(s2) == 0 and len(trace2) == 1
    assert time.monotonic() - start < 10.0


def test_c7_op_rule_properties():
    """Monotone, irreflexive, transitive on 1000 random reals/precisions."""
    rng = random.Random(77)
    premised = 0
    for _ in range(1000):
        r, s, t = (gen.random_real(rng, 2) for _ in range(3))
        k, k2 = rng.randrange(7), rng.randrange(7)
        assert not reals.op_at(r, r, k)
        if reals.op_at(r, s, k):
            assert reals.op_at(r, s, k + 1)
            if reals.op_at(s, t, k2):
                assert reals.op_at(r, t, max(k, k2))
                premised += 1
    assert premised  # the sample actually exercised transitivity


def test_c8_convex_angle_demo():
    """50 random general-position point sets, bounding checked exactly."""
    start = time.monotonic()
    rng = random.Random(88)

    def cross(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    for _ in range(50):
        coords = gen.general_position_points(rng, rng.randrange(3, 9))
        a, b, c, s, trace = reals.convex_angle(
            [reals.point(x, y) for x, y in coords])
        assert cross(coords[a], coords[b], coords[c]) > 0
        for i, p in enumerate(coords):
            if i not in (a, b, c):
                assert cross(coords[a], coords[b], p) > 0
                assert cross(coords[a], coords[c], p) < 0
        assert trace[-1].endswith("outcome=regular")
    assert time.monotonic() - start < 60.0


def test_c9_subject_reduction():
    """1000 single rewrites keep the root sequent and free no variables."""
    rng = random.Random(99)
    steps = 0
    for _ in range(5000):
        if steps >= 1000:
            break
        d = nz.norm_terms(gen.ha_em_derivation(rng))
        for _ in range(50):
            cut = nz.find_head_cut(d)
            if cut is None or steps >= 1000:
                break
            before_vars = dd.free_term_vars(d)
            nd = nz.apply_head_reduction(d, cut)
            assert nz._sequent_eq(nd.conclusion, d.conclusion, arith.FUNCTIONS), cut
            assert dd.free_term_vars(nd) <= before_vars, cut
            d = nz.norm_terms(nd)
            steps += 1
    assert steps >= 1000
