"""Interval reals, the observable order, and the two learning demos."""

import random
from fractions import Fraction as F

import pytest

from realizer import cli, learning, reals
from realizer.learning import State
from realizer.reals import (
    LEFT, RIGHT, InvariantViolation, PrecisionExhausted,
    PrecisionSearchExhausted, add, comparison_rels, constant, convex_angle,
    interval_at, least_element, mul, mul_search_precision, neg, op_at,
    orientation, point, real_arith, sub, table, validate_real,
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
    assert reals._side_at(a, b, c, 0) is None
    assert reals._side_at(a, point(1, 1), point(2, 2), 9) is None


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
