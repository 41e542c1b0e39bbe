"""Exact reals as nested rational intervals, and two learning demos.

A real is a total map from a precision k to a closed rational interval
[lo(k), hi(k)]: intervals shrink, never drift, and the width at k is at most
2^-k.  Constants, sums, opposites and products are the only constructors;
the demos need no more.

The strict order is observation at a finite precision: op_at(r, s, k) holds
when the k-th intervals are disjoint with r's below s's.  For fixed k it is
decidable; over all k it is monotone, irreflexive and transitive with
max-of-precisions witnesses.  "r <= s" is the negative statement that no
precision ever observes s strictly below r, and excluded middle over such
statements is what the demos guess and learn about.

least_element guesses the comparisons of the candidate recursion against a
learning state keyed by index pairs: an entry leq(i, j) -> k records that
precision k showed r_j strictly below r_i, refuting the guess r_i <= r_j.
A usage driver instantiates the winner's conclusion concretely; every
falsification is walked back through the recursion (taking the max precision
across each stored strict comparison) to the guess it rests on, and that one
entry is the pass's counterexample.

convex_angle does the same one level up: the lowest-point candidate comes
from the comparison state, a sweep collects orientation certificates for the
bounding condition, and when the sweep runs into a cycle of left turns the
three-point inequality chain computes a refuting precision for one of the
guessed comparisons.  A convex_angle run shares its determinants: one table,
alive for that call only, builds each coordinate difference once per (point,
apex) pair and each orientation determinant once per ordered index triple, so
the sweep, its rechecks and the certificate check all read the same memoized
intervals instead of rebuilding and re-evaluating a fresh tree per question.

Each demo defines only its pass; learning.learn_loop, the driver behind
learning.learn, grows the state and restarts the pass until it is regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import learning
from .learning import State

Rat = Fraction
RatLike = Union[Rat, int, str]

LEFT = "left"
RIGHT = "right"

MUL_SEARCH_FUEL = 4096
DEFAULT_MAX_PRECISION = 64


class RealError(Exception):
    pass


class PrecisionSearchExhausted(RealError):
    """No operand precision made a product interval narrow enough."""


class PrecisionExhausted(RealError):
    """A sign search ran out of precision; degenerate input suspected."""


# ---------------------------------------------------------------------------
# representations


class RealRep:
    """One real number: memoized intervals plus a symbolic description."""

    def __init__(self, kind: str, parts: tuple, fn):
        self.kind = kind  # constant | sum | neg | product
        self.parts = parts
        self._fn = fn
        self._memo: dict[int, tuple[Rat, Rat]] = {}
        self._envelopes: dict[int, Rat] = {}

    def interval(self, k: int) -> tuple[Rat, Rat]:
        if k < 0:
            raise ValueError("precision must be nonnegative")
        got = self._memo.get(k)
        if got is None:
            got = self._fn(k)
            self._memo[k] = got
        return got

    def envelope(self, k: int) -> Rat:
        """max(|lo|, |hi|) of the k-th interval, memoized like the interval."""
        got = self._envelopes.get(k)
        if got is None:
            lo, hi = self.interval(k)
            got = self._envelopes[k] = max(abs(lo), abs(hi))
        return got

    def describe(self) -> str:
        match self.kind:
            case "constant":
                return str(self.parts[0])
            case "sum":
                return f"({self.parts[0].describe()} + {self.parts[1].describe()})"
            case "neg":
                return f"-{self.parts[0].describe()}"
            case "product":
                return f"({self.parts[0].describe()} * {self.parts[1].describe()})"
        return self.kind

    def __repr__(self) -> str:
        return f"<real {self.describe()}>"


def constant(q: RatLike) -> RealRep:
    q = Rat(q)
    return RealRep("constant", (q,), lambda k: (q, q))


def add(r: RealRep, s: RealRep) -> RealRep:
    # evaluating the operands one level deeper restores the 2^-k width
    def fn(k: int) -> tuple[Rat, Rat]:
        rlo, rhi = r.interval(k + 1)
        slo, shi = s.interval(k + 1)
        return (rlo + slo, rhi + shi)

    return RealRep("sum", (r, s), fn)


def neg(r: RealRep) -> RealRep:
    def fn(k: int) -> tuple[Rat, Rat]:
        lo, hi = r.interval(k)
        return (-hi, -lo)

    return RealRep("neg", (r,), fn)


def sub(r: RealRep, s: RealRep) -> RealRep:
    return add(r, neg(s))


def mul_search_precision(r: RealRep, s: RealRep, k: int, fuel: int = MUL_SEARCH_FUEL,
                         start: int = 0) -> int:
    """Smallest operand precision making the product interval narrow enough.

    The product of two intervals of width at most 2^-l varies by at most
    (env_r(l) + env_s(l)) * 2^-l, with envelopes on absolute values so the
    bound survives sign changes; we want that below 2^-k.  With envelopes
    p/q and u/v that is (p*v + u*q) * 2^k <= q*v * 2^l, a test on integers.

    The candidates are start up to fuel.  An l that meets the bound at k
    meets it at every smaller k too, so the smallest l at k is at least
    the one at a smaller k, and a search may start from there.
    """
    for l in range(start, fuel):
        e, f = r.envelope(l), s.envelope(l)
        p, q, u, v = e.numerator, e.denominator, f.numerator, f.denominator
        if (p * v + u * q) << k <= (q * v) << l:
            return l
    raise PrecisionSearchExhausted(
        f"no product precision reaches width 2^-{k} within {fuel} candidates"
    )


def _iv_mul(u: tuple[Rat, Rat], v: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    ps = (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
    return (min(ps), max(ps))


def mul(r: RealRep, s: RealRep, fuel: int = MUL_SEARCH_FUEL) -> RealRep:
    # the last k asked and the precision found at it, from which the search
    # at a greater k starts (the sign searches ask increasing k)
    last_k = last_l = 0

    def fn(k: int) -> tuple[Rat, Rat]:
        nonlocal last_k, last_l
        l = mul_search_precision(r, s, k, fuel, last_l if k >= last_k else 0)
        last_k, last_l = k, l
        return _iv_mul(r.interval(l), s.interval(l))

    return RealRep("product", (r, s), fn)


# ---------------------------------------------------------------------------
# the order


def op_at(r: RealRep, s: RealRep, k: int) -> bool:
    """Does precision k observe r strictly below s?"""
    return r.interval(k)[1] < s.interval(k)[0]


# ---------------------------------------------------------------------------
# points and orientation


@dataclass(frozen=True)
class Point:
    x: RealRep
    y: RealRep


def point(x: RatLike, y: RatLike) -> Point:
    return Point(constant(x), constant(y))


class _Determinants:
    """The orientation determinants of one point set, built on demand.

    det(a, b, c) is (x_b - x_a)(y_c - y_a) - (x_c - x_a)(y_b - y_a), its sign
    the side of the oriented line a->b that c falls on.  It is assembled from
    shared parts: each difference p_i - p_a once per (point, apex) pair and
    each product of differences once per ordered triple, so swapping b and c
    reuses both products.  Every determinant is built once, and observing it
    again reads its interval memo.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = points
        self._zero = constant(0)
        self._diffs: dict[tuple[int, int], Point] = {}
        self._products: dict[tuple[int, int, int], RealRep] = {}
        self._dets: dict[tuple[int, int, int], RealRep] = {}

    def _diff(self, i: int, a: int) -> Point:
        got = self._diffs.get((i, a))
        if got is None:
            p, q = self.points[i], self.points[a]
            got = self._diffs[(i, a)] = Point(sub(p.x, q.x), sub(p.y, q.y))
        return got

    def _product(self, a: int, i: int, j: int) -> RealRep:
        got = self._products.get((a, i, j))
        if got is None:
            got = self._products[(a, i, j)] = mul(self._diff(i, a).x, self._diff(j, a).y)
        return got

    def det(self, a: int, b: int, c: int) -> RealRep:
        got = self._dets.get((a, b, c))
        if got is None:
            got = self._dets[(a, b, c)] = sub(self._product(a, b, c), self._product(a, c, b))
        return got

    def side(self, a: int, b: int, c: int, precisions: Iterable[int]) -> Optional[tuple[str, int]]:
        """The one decision loop: the side det(a, b, c) shows at the first of
        the precisions that separates it from zero, and that precision."""
        d, zero = self.det(a, b, c), self._zero
        for k in precisions:
            if op_at(zero, d, k):
                return (LEFT, k)
            if op_at(d, zero, k):
                return (RIGHT, k)
        return None

    def orientation(self, a: int, b: int, c: int, max_precision: int) -> tuple[str, int]:
        got = self.side(a, b, c, range(max_precision + 1))
        if got is None:
            raise PrecisionExhausted(
                f"no side at precision {max_precision}; the points look collinear"
            )
        return got

    def side_at(self, a: int, b: int, c: int, k: int) -> Optional[str]:
        got = self.side(a, b, c, (k,))
        return None if got is None else got[0]


def orientation(
    a: Point, b: Point, c: Point, max_precision: int = DEFAULT_MAX_PRECISION
) -> tuple[str, int]:
    """Which side of the oriented line a->b the point c falls on, and the
    first precision whose intervals show it."""
    return _Determinants((a, b, c)).orientation(0, 1, 2, max_precision)


# ---------------------------------------------------------------------------
# guessed comparisons


class ComparisonRel:
    """leq(i, j, k): precision k does not show value j strictly below value i.

    The demos guess the universal statements "forall k. leq(i, j, k)"; a
    state entry (leq, (i, j)) -> k is sound exactly when the k-th intervals
    refute that guess.
    """

    name = "leq"
    arity = 3

    def __init__(self, values: Sequence[RealRep]):
        self.values = tuple(values)

    def holds(self, args: Iterable[int]) -> bool:
        i, j, k = args
        n = len(self.values)
        if not (0 <= i < n and 0 <= j < n and k >= 0):
            raise IndexError(f"leq arguments out of range: {(i, j, k)}")
        return not op_at(self.values[j], self.values[i], k)


def comparison_rels(values: Sequence[RealRep]) -> dict[str, ComparisonRel]:
    rel = ComparisonRel(values)
    return {rel.name: rel}


def _rmin(values: Sequence[RealRep], s: State):
    """Candidate recursion: keep the running minimum unless the state holds
    a witness that the next value beats it.

    Returns the candidate and the per-stage decisions as (stage, incumbent,
    stored witness or None); the blame walk needs them.
    """
    m = 0
    decisions: list[tuple[int, int, Optional[int]]] = []
    for stage in range(1, len(values)):
        w = s.get(("leq", (m, stage)))
        decisions.append((stage, m, w))
        if w is not None:
            m = stage
    return m, decisions


def _blame(decisions, j: int, p: int) -> tuple[tuple[int, int], int]:
    """Walk a falsified conclusion instance back to the guess it rests on.

    Precision p refutes "r_m <= r_j" for the final candidate m.  A stage
    that kept its incumbent on a guess passes the refutation through
    untouched; a stage that switched candidate went through a stored strict
    comparison, and chaining through it costs the max of the precisions.
    The walk ends at the stage that guessed against j itself.
    """
    for stage, incumbent, w in reversed(decisions):
        if w is None:
            if j == stage:
                return (incumbent, stage), p
        else:
            if j == stage:
                raise learning.LearningError(
                    "blame walk reached a reflexive comparison; a stored "
                    "witness or a usage observation must be unsound"
                )
            p = max(p, w)
    raise learning.LearningError("blame walk ran past the base of the recursion")


def _first_falsified(values, m: int, depth: int) -> Optional[tuple[int, int]]:
    """Concrete usage of the conclusion: no precision up to depth may show
    any r_j strictly below the candidate.

    Conjuncts are exercised newest comparison first, each at its smallest
    falsifying precision.
    """
    for j in reversed(range(len(values))):
        if j == m:
            continue
        for k in range(depth + 1):
            if op_at(values[j], values[m], k):
                return j, k
    return None


def least_element(
    values: Sequence[RealRep],
    usage_precision: int,
    *,
    max_iters: Optional[int] = None,
    state: Optional[State] = None,
) -> tuple[int, State, list[str]]:
    """Least element candidate by guessing comparisons and learning from use.

    Each pass recomputes the candidate recursion under the current state,
    then exercises the conclusion concretely up to usage_precision.  A
    falsification names one conclusion instance and an observed precision;
    the blame walk turns that into a counterexample for a guessed
    comparison, the state grows by it, and the pass restarts.  At most
    2^n - 1 passes end exceptionally.
    """
    values = tuple(values)
    if not values:
        raise ValueError("values must be nonempty")
    rels = comparison_rels(values)

    def run_once(s: State):
        m, decisions = _rmin(values, s)
        hit = _first_falsified(values, m, usage_precision)
        if hit is None:
            return m, learning.Regular(m)
        key, w = _blame(decisions, *hit)
        return m, learning.Exceptional(learning.make_exc("leq", key, w, rels))

    s0 = State.empty() if state is None else state
    budget = max_iters if max_iters is not None else 2 ** len(values)
    s, m, trace = learning.learn_loop(run_once, s0, budget)
    return m, s, trace.lines


# ---------------------------------------------------------------------------
# the convex angle


@dataclass(frozen=True)
class _Angle:
    b: int
    c: int
    checks: dict  # point -> (precision left of ab, precision right of ac)
    pair: int  # precision of "c left of ab"


@dataclass(frozen=True)
class _Cycle:
    around: tuple[int, int, int]  # left(a, q_i, q_{i+1}) holds, indices mod 3
    at: tuple[int, int, int]  # certificate precisions, same order


def _recheck(dets, a, new, checks, expect, max_precision):
    """Re-certify every kept point against the replacement edge a->new."""
    fresh: dict[int, int] = {}
    for x in checks:
        side, k = dets.orientation(a, new, x, max_precision)
        if side != expect:
            return (x, k), fresh
        fresh[x] = k
    return None, fresh


def _sweep(dets: _Determinants, a: int, max_precision: int):
    """One pass of the angle narrowing under lowest-point candidate a.

    Returns an _Angle whose certificates witness the bounding condition, or
    the first _Cycle of left turns around a that the pass runs into; a cycle
    is exactly the shape the three-point lemma refutes "a is lowest" with.

    The case analysis leans on the determinant's antisymmetry: swapping the
    two non-apex points negates the interval at every precision, so each
    certificate doubles as a certificate for the flipped reading.
    """
    others = [i for i in range(len(dets.points)) if i != a]
    b, c = others[0], others[1]
    side, pair = dets.orientation(a, b, c, max_precision)
    if side == RIGHT:
        b, c = c, b
    # invariant: "c left of ab" (hence b right of ac) certified at pair;
    # checks[x] certifies x left of ab and x right of ac
    checks: dict[int, tuple[int, int]] = {}
    for d in others[2:]:
        s1, k1 = dets.orientation(a, b, d, max_precision)
        s2, k2 = dets.orientation(a, c, d, max_precision)
        if s1 == LEFT and s2 == RIGHT:
            checks[d] = (k1, k2)
        elif s1 == RIGHT and s2 == RIGHT:
            # d becomes the left edge; kept points must stay left of it
            bad, fresh = _recheck(dets, a, d, checks, LEFT, max_precision)
            if bad is not None:
                x, k3 = bad
                return _Cycle((x, d, b), (k3, k1, checks[x][0]))
            for x, kx in fresh.items():
                checks[x] = (kx, checks[x][1])
            checks[b] = (k1, pair)
            b, pair = d, k2
        elif s1 == LEFT and s2 == LEFT:
            bad, fresh = _recheck(dets, a, d, checks, RIGHT, max_precision)
            if bad is not None:
                x, k3 = bad
                return _Cycle((c, d, x), (k2, k3, checks[x][1]))
            for x, kx in fresh.items():
                checks[x] = (checks[x][0], kx)
            checks[c] = (pair, k2)
            c, pair = d, k1
        else:
            # right of ab yet left of ac: no angle at a can contain d
            return _Cycle((d, b, c), (k1, pair, k2))
    return _Angle(b, c, checks, pair)


def _iv_sub(u: tuple[Rat, Rat], v: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    return (u[0] - v[1], u[1] - v[0])


def _three_points_witness(points, a: int, cycle: _Cycle, max_precision: int) -> tuple[int, int]:
    """Index and precision refuting one of the guesses "y_a <= y_q".

    Searches for a single precision whose raw coordinate intervals certify
    all three left-turn hypotheses at once; the certificates say one exists.
    At such a precision the inequality chain of the three-point lemma forces
    one relative vertical interval to be entirely negative, which is
    literally an op observation at that precision: working with apex-origin
    coordinates, a vanishing vertical interval would contradict its two
    neighbours' certified turns, and two positive neighbours force the
    middle one negative through the product of the turn inequalities.
    """
    q = cycle.around
    ax, ay = points[a].x, points[a].y
    for p in range(max(cycle.at), max_precision + 1):
        dx = [_iv_sub(points[i].x.interval(p), ax.interval(p)) for i in q]
        dy = [_iv_sub(points[i].y.interval(p), ay.interval(p)) for i in q]
        certified = all(
            _iv_sub(_iv_mul(dx[i], dy[(i + 1) % 3]), _iv_mul(dx[(i + 1) % 3], dy[i]))[0] > 0
            for i in range(3)
        )
        if not certified:
            continue
        below = [i for i in range(3) if dy[i][1] < 0]
        if not below:
            raise RuntimeError("certified left turns around a point with no lower vertex")
        return q[below[0]], p
    raise PrecisionExhausted(
        f"three-point chain undecided at precision {max_precision}"
    )


def _verify_bounding(dets: _Determinants, a: int, angle: _Angle) -> None:
    """Re-check every certificate of the angle; a false one is an internal error."""
    if dets.side_at(a, angle.b, angle.c, angle.pair) != LEFT:
        raise RuntimeError(f"edge {angle.c} not certified left of {a}->{angle.b}")
    for d, (kl, kr) in angle.checks.items():
        if dets.side_at(a, angle.b, d, kl) != LEFT:
            raise RuntimeError(f"point {d} not certified left of {a}->{angle.b}")
        if dets.side_at(a, angle.c, d, kr) != RIGHT:
            raise RuntimeError(f"point {d} not certified right of {a}->{angle.c}")


def convex_angle(
    points: Sequence[Point],
    *,
    max_precision: int = DEFAULT_MAX_PRECISION,
    max_iters: Optional[int] = None,
) -> tuple[int, int, int, State, list[str]]:
    """Three indices a, b, c whose angle at a contains every other point.

    The lowest-point candidate comes from the comparison state via the
    least-element recursion, and the sweep narrows the angle while
    certifying every check.  When the sweep runs into a left-turn cycle,
    the three-point chain computes a precision refuting one of the guessed
    comparisons "y_a <= y_q", the state grows by that entry, and everything
    restarts; an enumeration whose first point is already lowest therefore
    goes through with zero backtracking.  Every pass reads its orientations
    from one determinant table, freed when the call returns.
    """
    points = tuple(points)
    if len(points) < 3:
        raise ValueError("need at least three points")
    ys = tuple(p.y for p in points)
    rels = comparison_rels(ys)
    dets = _Determinants(points)

    def run_once(s: State):
        a, decisions = _rmin(ys, s)
        got = _sweep(dets, a, max_precision)
        if isinstance(got, _Angle):
            _verify_bounding(dets, a, got)
            return a, learning.Regular((a, got))
        j, p = _three_points_witness(points, a, got, max_precision)
        key, w = _blame(decisions, j, p)
        return a, learning.Exceptional(learning.make_exc("leq", key, w, rels))

    budget = max_iters if max_iters is not None else 2 ** len(points)
    s, (a, angle), trace = learning.learn_loop(run_once, State.empty(), budget)
    return a, angle.b, angle.c, s, trace.lines
