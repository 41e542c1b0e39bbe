"""Interval reals, the observable order, and the two learning demos."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from realizer import cli, learning, reals
from realizer.learning import State
from realizer.reals import (
    LEFT, RIGHT, PrecisionExhausted,
    PrecisionSearchExhausted, add, comparison_rels, constant, convex_angle,
    least_element, mul, mul_search_precision, neg, op_at,
    orientation, point, sub,
)
from reference_reals import (
    InvariantViolation, interval_at, real_arith, side_at, table, validate_real,
)

import conftest as gen


def dyadic(center, rows: int = 48) -> reals.RealRep:
    """A fuzzy rational: the k-th interval straddles center with width 2^-k."""
    c = F(center)
    return table([(c - F(1, 2 ** (k + 1)), c + F(1, 2 ** (k + 1)))
                  for k in range(rows)])


# ---------------------------------------------------------------------------
# representations and intervals


def test_constant_and_describe():
    r = constant(F(1, 2))
    assert r.interval(0) == (F(1, 2), F(1, 2))
    assert r.interval(17) == (F(1, 2), F(1, 2))
    assert r.describe() == "1/2"
    assert repr(neg(r)) == "<real -1/2>"
    with pytest.raises(ValueError):
        r.interval(-1)


def test_table_pins_to_midpoint_beyond_the_rows():
    t = table([(0, 1), (F(1, 4), F(3, 4))])
    assert t.interval(1) == (F(1, 4), F(3, 4))
    assert t.interval(2) == (F(1, 2), F(1, 2))
    assert t.interval(9) == (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        table([])


def test_sum_evaluates_the_operands_one_deeper():
    t = gen.random_table(random.Random(5))
    s = add(t, constant(0))
    for k in range(6):
        assert s.interval(k) == t.interval(k + 1)
    assert add(constant(1), constant(2)).interval(5) == (3, 3)
    assert sub(constant(3), constant(1)).interval(4) == (2, 2)


def test_double_negation_is_the_identity_on_intervals():
    t = gen.random_table(random.Random(11))
    for k in range(8):
        assert neg(neg(t)).interval(k) == t.interval(k)


def test_product_precision_search():
    one = constant(1)
    for k in range(6):
        assert mul_search_precision(one, one, k) == k + 1
    assert mul_search_precision(constant(0), one, 3) == 3
    assert mul(constant(6), constant(7)).interval(0) == (42, 42)
    with pytest.raises(PrecisionSearchExhausted):
        mul_search_precision(one, one, 5, fuel=3)
    with pytest.raises(PrecisionSearchExhausted):
        mul(one, one, fuel=3).interval(5)


def _reference_search(r, s, k, fuel):
    """The search with Fraction envelopes and a Fraction bound, rebuilt on
    every candidate: the oracle for the memoized integer test."""

    def envelope(t, l):
        lo, hi = t.interval(l)
        return max(abs(lo), abs(hi))

    goal = F(1, 2**k)
    for l in range(fuel):
        if (envelope(r, l) + envelope(s, l)) * F(1, 2**l) <= goal:
            return l
    raise PrecisionSearchExhausted(
        f"no product precision reaches width 2^-{k} within {fuel} candidates"
    )


def _search_outcome(search, r, s, k, fuel, *start):
    try:
        return search(r, s, k, fuel, *start)
    except PrecisionSearchExhausted as e:
        return str(e)


_rationals = st.fractions(min_value=-64, max_value=64, max_denominator=1000)
# table rows are taken as given, so lo > hi comes up too
_search_operands = st.one_of(
    _rationals.map(constant),
    st.just(0).map(constant),
    st.lists(st.tuples(_rationals, _rationals), min_size=1, max_size=8).map(table),
)


@settings(max_examples=200, deadline=None)
@given(_search_operands, _search_operands,
       st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=80))
def test_product_precision_search_matches_the_fraction_loop(r, s, ks, fuel):
    # several precisions on the same operands: later searches read the memo
    for k in ks:
        got = _search_outcome(mul_search_precision, r, s, k, fuel)
        assert got == _search_outcome(_reference_search, r, s, k, fuel)


@settings(max_examples=200, deadline=None)
@given(_search_operands, _search_operands,
       st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=80))
def test_a_product_resumes_its_precision_search(r, s, ks, fuel):
    # a product asked at precisions in any order starts each search from the
    # precision found at the largest smaller one, and ends where a search
    # from 0 ends, or runs out of the same fuel with the same message
    product = mul(r, s, fuel)
    want = {k: _search_outcome(_reference_search, r, s, k, fuel) for k in ks}
    for k in ks:
        try:
            got = product.interval(k)
        except PrecisionSearchExhausted as e:
            got = str(e)
        l = want[k]
        assert got == (l if type(l) is str else reals._iv_mul(r.interval(l), s.interval(l)))
        # a search from the precision found at any smaller k ends there too
        for j in ks:
            if j <= k and type(want[j]) is int:
                assert _search_outcome(mul_search_precision, r, s, k, fuel, want[j]) == l


def test_envelope_of_a_broken_row_uses_absolute_values():
    t = table([(3, -5)] * 4)
    assert t.envelope(0) == 5  # max(-lo, hi) would say -3 and stop at l = 0
    assert mul_search_precision(t, constant(0), 0) == 3


def test_real_arith_dispatch():
    assert real_arith("add", constant(1), constant(1)).interval(0) == (2, 2)
    assert real_arith("neg", constant(1)).interval(0) == (-1, -1)
    with pytest.raises(ValueError):
        real_arith("div", constant(1), constant(1))


@pytest.mark.parametrize(
    "rows,conjunct,at",
    [
        ([(1, 0)], "lo <= hi", 0),
        ([(0, 1), (-1, 1)], "lo nondecreasing", 0),
        ([(0, 1), (0, 2)], "hi nonincreasing", 0),
        ([(0, 1), (0, F(3, 4))], "width <= 2^-k", 1),
    ],
)
def test_nesting_violations_name_the_conjunct(rows, conjunct, at):
    t = table(rows)
    with pytest.raises(InvariantViolation) as info:
        validate_real(t, depth=at)
    assert info.value.conjunct == conjunct
    assert info.value.k == at
    # without validation the raw interval is still served
    assert interval_at(t, 0) == tuple(map(F, rows[0]))


@pytest.mark.parametrize("seed", range(25))
def test_random_reals_are_nested_cauchy(seed):
    validate_real(gen.random_real(random.Random(seed)), depth=8)


# ---------------------------------------------------------------------------
# the observable order


def test_op_at_examples():
    lo, hi = dyadic(0), dyadic(1)
    assert not op_at(lo, hi, 0)  # intervals [-1/2,1/2] and [1/2,3/2] touch
    assert op_at(lo, hi, 1)
    assert not op_at(hi, lo, 1)


def test_op_is_monotone_irreflexive_transitive():
    rng = random.Random(100)
    seen = 0
    for _ in range(120):
        r, s, t = (gen.random_real(rng, 2) for _ in range(3))
        for k in range(7):
            assert not op_at(r, r, k)
            if op_at(r, s, k):
                assert op_at(r, s, k + 1)
            for k2 in range(7):
                if op_at(r, s, k) and op_at(s, t, k2):
                    assert op_at(r, t, max(k, k2))
                    seen += 1
    assert seen  # the sampler does hit the transitivity premiss


def test_comparison_relation():
    values = [constant(1), constant(0)]
    rel = comparison_rels(values)["leq"]
    assert rel.name == "leq" and rel.arity == 3
    assert not rel.holds((0, 1, 4))  # value 1 sits strictly below value 0
    assert rel.holds((1, 0, 4))
    with pytest.raises(IndexError):
        rel.holds((0, 2, 0))
    with pytest.raises(IndexError):
        rel.holds((0, 1, -1))


# ---------------------------------------------------------------------------
# orientation


def test_orientation_of_exact_points():
    a, b = point(0, 0), point(1, 0)
    assert orientation(a, b, point(0, 1)) == (LEFT, 0)
    assert orientation(a, b, point(1, -1)) == (RIGHT, 0)
    with pytest.raises(PrecisionExhausted):
        orientation(a, point(1, 1), point(2, 2), max_precision=8)


def test_orientation_of_fuzzy_points_needs_precision():
    a, b = point(0, 0), point(1, 0)
    c = reals.Point(constant(1), dyadic(F(1, 64)))
    side, k = orientation(a, b, c)
    assert side == LEFT and k > 0
    assert side_at(a, b, c, 0) is None
    assert side_at(a, point(1, 1), point(2, 2), 9) is None


# ---------------------------------------------------------------------------
# least element


def narrative_values():
    v0 = F(1, 2)
    v3 = v0 - F(3, 2**34)
    v2 = v3 - F(3, 2**26)
    return [dyadic(v0), dyadic(F(3, 4)), dyadic(v2), dyadic(v3)]


def test_comparison_boundaries_of_the_narrative():
    vs = narrative_values()
    assert not op_at(vs[3], vs[0], 32)
    assert op_at(vs[3], vs[0], 33)
    assert not op_at(vs[2], vs[3], 24)
    assert op_at(vs[2], vs[3], 25)


def test_candidate_recursion_reads_the_state():
    vs = narrative_values()
    rels = comparison_rels(vs)
    m, decisions = reals._rmin(vs, State.empty())
    assert m == 0
    assert decisions == [(1, 0, None), (2, 0, None), (3, 0, None)]
    s = State.of({("leq", (0, 3)): 33}, rels)
    m, decisions = reals._rmin(vs, s)
    assert m == 3
    assert decisions == [(1, 0, None), (2, 0, None), (3, 0, 33)]


def test_blame_walk_takes_the_maximum_precision():
    decisions = [(1, 0, None), (2, 0, None), (3, 0, 33)]
    assert reals._blame(decisions, 2, 25) == ((0, 2), 33)
    assert reals._blame(decisions, 1, 7) == ((0, 1), 33)
    with pytest.raises(learning.LearningError, match="reflexive"):
        reals._blame([(1, 0, 7)], 1, 5)
    with pytest.raises(learning.LearningError, match="base"):
        reals._blame([(1, 0, None)], 0, 5)


def test_state_extension_failures():
    values = [constant(1), constant(0)]
    rels = comparison_rels(values)
    s = State.of({("leq", (0, 1)): 5}, rels)

    def blaming(key, w):
        return lambda _: (0, learning.Exceptional(learning.make_exc("leq", key, w, rels)))

    with pytest.raises(learning.StalledLearning):
        learning.learn_loop(blaming((0, 1), 5), s, 4)
    with pytest.raises(learning.ConflictingExtension):
        learning.learn_loop(blaming((0, 1), 8), s, 4)
    with pytest.raises(learning.UnsoundEntry):
        learning.learn_loop(blaming((1, 0), 3), s, 4)


def test_least_element_learns_two_comparisons():
    vs = narrative_values()
    idx, s, trace = least_element(vs, 40)
    assert idx == 2
    assert trace == [
        "iter=1 candidate=0 key=leq(0,3) witness=33 outcome=exceptional",
        "iter=2 candidate=3 key=leq(0,2) witness=33 outcome=exceptional",
        "iter=3 candidate=2 key=- witness=- outcome=regular",
    ]
    assert s.mapping() == {("leq", (0, 3)): 33, ("leq", (0, 2)): 33}


def test_least_element_with_a_seeded_state_skips_the_learning():
    vs = narrative_values()
    rels = comparison_rels(vs)
    s0 = State.of({("leq", (0, 3)): 33, ("leq", (0, 2)): 33}, rels)
    idx, s, trace = least_element(vs, 40, state=s0)
    assert idx == 2 and s == s0
    assert trace == ["iter=1 candidate=2 key=- witness=- outcome=regular"]


def test_least_element_guardrails():
    with pytest.raises(ValueError):
        least_element([], 4)
    with pytest.raises(learning.IterationLimit):
        least_element(narrative_values(), 40, max_iters=1)


def test_minimal_first_input_never_backtracks():
    rng = random.Random(7)
    centers = sorted(gen.distinct_rationals(rng, 6))
    vs = [dyadic(c, rows=24) for c in centers]
    idx, s, trace = least_element(vs, 16)
    assert idx == 0
    assert len(s) == 0
    assert trace == ["iter=1 candidate=0 key=- witness=- outcome=regular"]


@pytest.mark.parametrize("seed", range(25))
def test_least_element_finds_the_argmin(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(2, 9)
    centers = gen.distinct_rationals(rng, n)
    vs = [dyadic(c, rows=24) for c in centers]
    idx, s, trace = least_element(vs, 16)
    assert idx == centers.index(min(centers))
    exceptional = [ln for ln in trace if ln.endswith("outcome=exceptional")]
    assert trace[-1].endswith("outcome=regular")
    assert len(exceptional) == len(trace) - 1 == len(s)
    assert len(exceptional) <= 2**n - 1


# ---------------------------------------------------------------------------
# convex angle


def _cross(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def _assert_bounding(coords, a, b, c):
    """Exact-rational check that the angle bac contains every other point."""
    pa, pb, pc = coords[a], coords[b], coords[c]
    assert _cross(pa, pb, pc) > 0
    for i, p in enumerate(coords):
        if i in (a, b, c):
            continue
        assert _cross(pa, pb, p) > 0
        assert _cross(pa, pc, p) < 0


def test_triangle_needs_one_pass():
    a, b, c, s, trace = convex_angle([point(0, 0), point(1, 0), point(0, 1)])
    assert (a, b, c) == (0, 1, 2)
    assert len(s) == 0
    assert trace == ["iter=1 candidate=0 key=- witness=- outcome=regular"]
    # swapped input orients the edge pair the other way around
    a, b, c, _, _ = convex_angle([point(0, 0), point(0, 1), point(1, 0)])
    assert (a, b, c) == (0, 2, 1)


def test_lowest_first_input_never_backtracks():
    coords = [(F(0), F(-5)), (F(3), F(1)), (F(-2), F(2)), (F(4), F(4)), (F(-4), F(-1))]
    pts = [point(x, y) for x, y in coords]
    a, b, c, s, trace = convex_angle(pts)
    assert a == 0 and len(s) == 0 and len(trace) == 1
    _assert_bounding(coords, a, b, c)


def test_interior_candidate_forces_backtracking():
    coords = [(F(0), F(2)), (F(5), F(1)), (F(0), F(4)), (F(-5), F(1)), (F(1), F(-3))]
    pts = [point(x, y) for x, y in coords]
    a, b, c, s, trace = convex_angle(pts)
    assert a != 0  # the first point is interior, so its sweep cannot close
    _assert_bounding(coords, a, b, c)
    exceptional = [ln for ln in trace if ln.endswith("outcome=exceptional")]
    assert exceptional and trace[-1].endswith("outcome=regular")
    assert len(s) == len(exceptional)
    assert all(" key=leq(" in ln for ln in exceptional)
    with pytest.raises(learning.IterationLimit):
        convex_angle(pts, max_iters=1)


def test_convex_angle_guardrails():
    with pytest.raises(ValueError):
        convex_angle([point(0, 0), point(1, 1)])


def test_convex_angle_rejects_a_false_certificate(monkeypatch, capsys):
    # the angle claims point 1 lies left of 0->2, but it lies right of it;
    # the check must survive python -O and still exit 2 from the CLI
    monkeypatch.setattr(reals, "_sweep", lambda points, a, k: reals._Angle(2, 1, {}, 0))
    with pytest.raises(RuntimeError, match="not certified"):
        convex_angle([point(0, 0), point(1, 0), point(0, 1)])
    assert cli.main(["demo", "convex-angle", "--points", "0,0;1,0;0,1"]) == 2
    assert "internal error: RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(10))
def test_convex_angle_bounds_random_point_sets(seed):
    rng = random.Random(4000 + seed)
    coords = gen.general_position_points(rng, rng.randrange(3, 9))
    a, b, c, s, trace = convex_angle([point(x, y) for x, y in coords])
    _assert_bounding(coords, a, b, c)
    assert trace[-1].endswith("outcome=regular")
    assert len(s) == len(trace) - 1


# ---------------------------------------------------------------------------
# the shared determinant table against a fresh determinant per observation


def _reference_recheck(points, a, new, checks, expect, max_precision):
    fresh = {}
    for x in checks:
        side, k = orientation(points[a], points[new], points[x], max_precision)
        if side != expect:
            return (x, k), fresh
        fresh[x] = k
    return None, fresh


def _reference_sweep(points, a, max_precision):
    """The sweep as it was before the determinant table: every orientation
    question builds its determinant afresh through the public orientation."""
    others = [i for i in range(len(points)) if i != a]
    b, c = others[0], others[1]
    side, pair = orientation(points[a], points[b], points[c], max_precision)
    if side == RIGHT:
        b, c = c, b
    checks = {}
    for d in others[2:]:
        s1, k1 = orientation(points[a], points[b], points[d], max_precision)
        s2, k2 = orientation(points[a], points[c], points[d], max_precision)
        if s1 == LEFT and s2 == RIGHT:
            checks[d] = (k1, k2)
        elif s1 == RIGHT and s2 == RIGHT:
            bad, fresh = _reference_recheck(points, a, d, checks, LEFT, max_precision)
            if bad is not None:
                x, k3 = bad
                return reals._Cycle((x, d, b), (k3, k1, checks[x][0]))
            for x, kx in fresh.items():
                checks[x] = (kx, checks[x][1])
            checks[b] = (k1, pair)
            b, pair = d, k2
        elif s1 == LEFT and s2 == LEFT:
            bad, fresh = _reference_recheck(points, a, d, checks, RIGHT, max_precision)
            if bad is not None:
                x, k3 = bad
                return reals._Cycle((c, d, x), (k2, k3, checks[x][1]))
            for x, kx in fresh.items():
                checks[x] = (checks[x][0], kx)
            checks[c] = (pair, k2)
            c, pair = d, k1
        else:
            return reals._Cycle((d, b, c), (k1, pair, k2))
    return reals._Angle(b, c, checks, pair)


def _reference_verify(points, a, angle):
    pa = points[a]
    if side_at(pa, points[angle.b], points[angle.c], angle.pair) != LEFT:
        raise RuntimeError(f"edge {angle.c} not certified left of {a}->{angle.b}")
    for d, (kl, kr) in angle.checks.items():
        if side_at(pa, points[angle.b], points[d], kl) != LEFT:
            raise RuntimeError(f"point {d} not certified left of {a}->{angle.b}")
        if side_at(pa, points[angle.c], points[d], kr) != RIGHT:
            raise RuntimeError(f"point {d} not certified right of {a}->{angle.c}")


def _reference_convex_angle(points, max_precision):
    points = tuple(points)
    ys = tuple(p.y for p in points)
    rels = comparison_rels(ys)

    def run_once(s):
        a, decisions = reals._rmin(ys, s)
        got = _reference_sweep(points, a, max_precision)
        if isinstance(got, reals._Angle):
            _reference_verify(points, a, got)
            return a, learning.Regular((a, got))
        j, p = reals._three_points_witness(points, a, got, max_precision)
        key, w = reals._blame(decisions, j, p)
        return a, learning.Exceptional(learning.make_exc("leq", key, w, rels))

    s, (a, angle), trace = learning.learn_loop(run_once, State.empty(), 2 ** len(points))
    return a, angle.b, angle.c, s, trace.lines


def _observed(monkeypatch, run, points, max_precision):
    """The outcome of run, or its PrecisionExhausted message, and the op_at
    observations it made, in order, as (precision, answer)."""
    seen = []

    def recording(r, s, k):
        got = op_at(r, s, k)
        seen.append((k, got))
        return got

    with monkeypatch.context() as m:
        m.setattr(reals, "op_at", recording)
        try:
            outcome = run(points, max_precision=max_precision)
        except PrecisionExhausted as e:
            outcome = str(e)
    return outcome, seen


def _assert_same_as_reference(monkeypatch, make_points, max_precision=reals.DEFAULT_MAX_PRECISION):
    # fresh reals for each run, so neither run reads the other's memos
    got = _observed(monkeypatch, convex_angle, make_points(), max_precision)
    want = _observed(monkeypatch, _reference_convex_angle, make_points(), max_precision)
    assert got == want
    return want


@pytest.mark.parametrize("seed", range(4))
def test_shared_determinants_agree_with_fresh_ones(monkeypatch, seed):
    bench = gen.bench_gen()
    rng = bench.Stratified(7000 + seed)
    backtracked = 0
    for n in range(3, 13):
        coords = bench.general_position_points(rng, n)
        for order in (coords, bench.lowest_first(coords)):
            (a, b, c, s, trace), _ = _assert_same_as_reference(
                monkeypatch, lambda: [point(x, y) for x, y in order])
            _assert_bounding(order, a, b, c)
            backtracked += len(s)
    assert backtracked  # some random orders went through the three-point chain


@pytest.mark.parametrize("seed", range(3))
def test_shared_determinants_agree_on_fuzzy_points(monkeypatch, seed):
    # dyadic coordinates around small points: orientations need precision
    bench = gen.bench_gen()
    rng = bench.Stratified(8000 + seed)
    deepest = 0
    for n in range(3, 8):
        coords = [(x / 64, y / 64) for x, y in bench.general_position_points(rng, n)]
        for order in (coords, bench.lowest_first(coords)):
            (a, b, c, _, _), seen = _assert_same_as_reference(
                monkeypatch, lambda: [reals.Point(dyadic(x), dyadic(y)) for x, y in order])
            _assert_bounding(order, a, b, c)
            deepest = max(deepest, max(k for k, _ in seen))
    assert deepest > 0


@pytest.mark.parametrize(
    "coords",
    [
        [(0, 0), (1, 1), (2, 2), (3, 5)],  # the first three are collinear
        [(0, 0), (1, 0), (0, 1), (0, 0)],  # a repeated point
    ],
)
def test_shared_determinants_agree_on_degenerate_points(monkeypatch, coords):
    message, _ = _assert_same_as_reference(
        monkeypatch, lambda: [point(x, y) for x, y in coords], max_precision=8)
    assert message == "no side at precision 8; the points look collinear"
