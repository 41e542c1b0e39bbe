"""Seeded input generators for the benchmark.

Every proof generator takes a seeded `Stratified` and returns a closed
derivation whose goal is a simply existential formula `exists x. A(x)` with
A atomic, which is the one shape both `extract` + `run --learn` and
`extract-witness` accept.
The generators follow the shapes of the bundled corpus and of the test-suite
generators, but live here so that editing a test cannot change a workload.
Only the program's public constructors are used (data classes, `assume`,
`ex_falso`, `weaken`, `neg`, `subst_formula`); fresh names are made locally.
"""

from __future__ import annotations

import random
from fractions import Fraction

from realizer import arith
from realizer import deduction as dd
from realizer.arith import And, Atom, BOT, Exists, Forall, Imply, Or, TApp, TVar, tnum
from realizer.deduction import Derivation, Sequent

# the six head-cut shapes a wrapper can introduce around a derivation
CUT_KINDS = ("and-left", "and-right", "imply", "or", "forall", "exists")


class Stratified:
    """Seeded draws that are balanced over the whole input set.

    `randrange(n)` deals from a shuffled deck holding 0..n-1 once, and deals
    a freshly shuffled deck when it runs out, so every value comes up about
    equally often in a family of inputs whatever the seed.  Costs here grow
    steeply with numeral size, and balanced draws keep the cost of a block
    of the request mix nearly the same from seed to seed while each input
    still varies.
    """

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._decks: dict[int, list[int]] = {}

    def randrange(self, start: int, stop: int | None = None) -> int:
        lo, n = (0, start) if stop is None else (start, stop - start)
        deck = self._decks.setdefault(n, [])
        if not deck:
            deck.extend(range(n))
            self._rng.shuffle(deck)
        return lo + deck.pop()

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def sample(self, items, k: int) -> list:
        return self._rng.sample(items, k)


def _s(ctx, goal) -> Sequent:
    return Sequent(tuple(ctx), goal)


def _atom_i(ctx, goal) -> Derivation:
    return Derivation(dd.AtomI(), _s(ctx, goal))


def _fresh(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _names_inside(d: Derivation) -> tuple[set[str], set[str]]:
    """Hypothesis labels and rule-bound variables used anywhere in d."""
    labels: set[str] = set()
    bound: set[str] = set()
    stack = [d]
    while stack:
        node = stack.pop()
        labels.update(lbl for lbl, _ in node.conclusion.context)
        for attr, into in (("label", labels), ("var", bound)):
            value = getattr(node.rule, attr, None)
            if isinstance(value, str):
                into.add(value)
        stack.extend(node.premisses)
    return labels, bound


# ---------------------------------------------------------------------------
# closed atoms and simply existential goals
#
# Numerals stay below 8.  Arithmetic on unary numerals costs far more than
# linear time at seed, so larger random numerals would make the cost of an
# input depend more on its incidental numerals than on its size parameter
# (depth, cut count); numeral size has its own family, `square`.

SMALL = 6


def true_atom(rng: Stratified) -> Atom:
    a, b = rng.randrange(SMALL), rng.randrange(SMALL)
    lo, hi = min(a, b), max(a, b)
    return rng.choice([
        Atom("=", (tnum(a), tnum(a))),
        Atom("<", (tnum(lo), tnum(hi + 1))),
        Atom("<=", (tnum(lo), tnum(hi))),
    ])


def false_atom(rng: Stratified) -> Atom:
    a, b = rng.randrange(SMALL), rng.randrange(SMALL)
    lo, hi = min(a, b), max(a, b)
    return rng.choice([
        Atom("=", (tnum(lo), tnum(hi + 1))),
        Atom("<", (tnum(hi), tnum(lo))),
        Atom("<=", (tnum(hi + 1), tnum(lo))),
    ])


def exists_goal(rng: Stratified, var: str = "x") -> tuple[Exists, int]:
    """A true `exists var. A` with A atomic, and a witness for it."""
    k = rng.randrange(SMALL)
    x = TVar(var)
    body = rng.choice([
        Atom("=", (x, tnum(k))),
        Atom("<=", (x, tnum(k + rng.randrange(2)))),
        Atom("<", (tnum(k), TApp("S", (x,)))),
        Atom("=", (TApp("+", (x, tnum(2))), tnum(k + 2))),
    ])
    return Exists(var, body), k


def _introduce(ctx, goal: Exists, k: int) -> Derivation:
    inst = arith.subst_formula(goal.body, goal.var, tnum(k))
    return Derivation(dd.ExistsI(tnum(k)), _s(ctx, goal), (_atom_i(ctx, inst),))


def closed_true_derivation(rng: Stratified, ctx=(), depth: int = 1) -> Derivation:
    """A derivation in ctx of some true closed formula (side premisses)."""
    ctx = tuple(ctx)
    shape = rng.choice(("and", "or", "imply", "exists", "atom")) if depth > 0 else "atom"
    if shape == "and":
        left = closed_true_derivation(rng, ctx, depth - 1)
        right = closed_true_derivation(rng, ctx, depth - 1)
        goal = And(left.conclusion.goal, right.conclusion.goal)
        return Derivation(dd.AndI(), _s(ctx, goal), (left, right))
    if shape == "or":
        live = closed_true_derivation(rng, ctx, depth - 1)
        other = rng.choice([true_atom(rng), false_atom(rng)])
        if rng.randrange(2):
            return Derivation(dd.OrIL(), _s(ctx, Or(live.conclusion.goal, other)), (live,))
        return Derivation(dd.OrIR(), _s(ctx, Or(other, live.conclusion.goal)), (live,))
    if shape == "imply":
        label = f"h{len(ctx)}"
        ante = rng.choice([true_atom(rng), false_atom(rng)])
        inner = closed_true_derivation(rng, ctx + ((label, ante),), depth - 1)
        goal = Imply(ante, inner.conclusion.goal)
        return Derivation(dd.ImplyI(label), _s(ctx, goal), (inner,))
    if shape == "exists":
        return _introduce(ctx, *exists_goal(rng))
    return _atom_i(ctx, true_atom(rng))


# ---------------------------------------------------------------------------
# head cuts


def wrap_cut(rng: Stratified, d: Derivation, kind: str) -> Derivation:
    """A derivation of d's sequent whose root is a head cut of the given kind."""
    ctx, goal = d.conclusion.context, d.conclusion.goal
    labels, bound = _names_inside(d)
    label = _fresh("c", labels)
    avoid = dd.free_term_vars(d) | bound | arith.free_vars(goal)
    if kind == "and-left":
        side = closed_true_derivation(rng, ctx)
        both = Derivation(dd.AndI(), _s(ctx, And(goal, side.conclusion.goal)), (d, side))
        return Derivation(dd.AndEL(), _s(ctx, goal), (both,))
    if kind == "and-right":
        side = closed_true_derivation(rng, ctx)
        both = Derivation(dd.AndI(), _s(ctx, And(side.conclusion.goal, goal)), (side, d))
        return Derivation(dd.AndER(), _s(ctx, goal), (both,))
    if kind == "imply":
        ante = true_atom(rng)
        body = dd.weaken(d, ((label, ante),), at=len(ctx))
        fn = Derivation(dd.ImplyI(label), _s(ctx, Imply(ante, goal)), (body,))
        return Derivation(dd.ImplyE(), _s(ctx, goal), (fn, _atom_i(ctx, ante)))
    if kind == "or":
        live, dead = true_atom(rng), false_atom(rng)
        major = Derivation(dd.OrIL(), _s(ctx, Or(live, dead)), (_atom_i(ctx, live),))
        left = dd.weaken(d, ((label, live),), at=len(ctx))
        cr = ctx + ((label, dead),)
        bottom = Derivation(dd.AtomE(), _s(cr, BOT), (dd.assume(cr, label),))
        return Derivation(dd.OrE(label), _s(ctx, goal), (major, left, dd.ex_falso(bottom, goal)))
    if kind == "forall":
        var = _fresh("q", avoid)
        alls = Derivation(dd.ForallI(var), _s(ctx, Forall(var, goal)), (d,))
        return Derivation(dd.ForallE(tnum(rng.randrange(5))), _s(ctx, goal), (alls,))
    if kind == "exists":
        packed, k = exists_goal(rng, "z")
        major = _introduce(ctx, packed, k)
        w = _fresh("w", avoid | {"z"})
        hyp = arith.subst_formula(packed.body, packed.var, TVar(w))
        minor = dd.weaken(d, ((label, hyp),), at=len(ctx))
        return Derivation(dd.ExistsE(label, w), _s(ctx, goal), (major, minor))
    raise ValueError(f"unknown cut kind {kind!r}")


def cut_kinds(rng: Stratified, counts: list[int]) -> list[list[str]]:
    """Cut kinds for derivations with the given cut counts.

    The kinds are dealt from a shuffled, evenly repeated deck, so every kind
    appears about equally often in a family whatever the seed; the cost of a
    family then varies little from seed to seed.
    """
    total = sum(counts)
    deck = [CUT_KINDS[i % len(CUT_KINDS)] for i in range(total)]
    rng.shuffle(deck)
    out, at = [], 0
    for c in counts:
        out.append(deck[at:at + c])
        at += c
    return out


def sigma01_cuts(rng: Stratified, kinds: list[str]) -> Derivation:
    """`exists x. A` introduced directly, then wrapped in one cut per kind."""
    d = _introduce((), *exists_goal(rng))
    for kind in kinds:
        d = wrap_cut(rng, d, kind)
    return d


# ---------------------------------------------------------------------------
# chained refuted excluded middle


def em_chain(rng: Stratified, depth: int, wrapped: bool = False) -> Derivation:
    """Nested excluded middle, `depth` levels deep.

    Level i guesses `forall y_i. i < y_i`, which is refuted at 0: its left
    branch derives bot from the instance at 0, and its right branch, under
    the negated instance, continues with level i+1.  The last right branch
    introduces the witness.  A learning run therefore refutes one guess per
    iteration and ends regular after depth+1 iterations.

    The goal is `exists x. x = k`; its one shape keeps the cost of a chain
    set by its depth.  With wrapped=True every level proves `A and side` and
    an and-elimination sits on top, so the normalizer must permute it into
    the branches.
    """
    k = rng.randrange(SMALL)
    goal = Exists("x", Atom("=", (TVar("x"), tnum(k))))
    side = true_atom(rng)
    proved = And(goal, side) if wrapped else goal

    def leaf(ctx) -> Derivation:
        d = _introduce(ctx, goal, k)
        if wrapped:
            d = Derivation(dd.AndI(), _s(ctx, proved), (d, _atom_i(ctx, side)))
        return d

    def level(i: int, ctx) -> Derivation:
        label, var = f"u{i}", f"y{i}"
        matrix = Atom("<", (tnum(i), TVar(var)))
        univ = Forall(var, matrix)
        cl = ctx + ((label, univ),)
        at_zero = Derivation(dd.ForallE(tnum(0)), _s(cl, Atom("<", (tnum(i), tnum(0)))),
                             (dd.assume(cl, label),))
        left = dd.ex_falso(Derivation(dd.AtomE(), _s(cl, BOT), (at_zero,)), proved)
        cr = ctx + ((label, arith.neg(matrix)),)
        right = level(i + 1, cr) if i < depth else leaf(cr)
        return Derivation(dd.EM(label, var), _s(ctx, proved), (left, right))

    d = level(1, ())
    if wrapped:
        d = Derivation(dd.AndEL(), _s((), goal), (d,))
    return d


# ---------------------------------------------------------------------------
# induction and numerals


def ind_n(n: int) -> Derivation:
    """Base/step induction proving `exists w. w = n` (unrolled n times by
    the normalizer)."""
    v, w, z = TVar("v"), TVar("w"), TVar("z")
    template = Exists("w", Atom("=", (w, v)))
    base = _introduce((), Exists("w", Atom("=", (w, tnum(0)))), 0)
    cs = (("ih", template),)
    sgoal = Exists("w", Atom("=", (w, TApp("S", (v,)))))
    cm = cs + (("u", Atom("=", (z, v))),)
    bumped = Atom("=", (TApp("S", (z,)), TApp("S", (v,))))
    sub = Derivation(dd.AtomPost("sub-fn"), _s(cm, bumped), (dd.assume(cm, "u"),))
    minor = Derivation(dd.ExistsI(TApp("S", (z,))), _s(cm, sgoal), (sub,))
    step = Derivation(dd.ExistsE("u", "z"), _s(cs, sgoal), (dd.assume(cs, "ih"), minor))
    return Derivation(dd.Ind("ih", "v", template, tnum(n)),
                      _s((), Exists("w", Atom("=", (w, tnum(n))))), (base, step))


def square(n: int) -> Derivation:
    """`exists x. x*x = n^2`, introduced directly at n."""
    x = TVar("x")
    return _introduce((), Exists("x", Atom("=", (TApp("*", (x, x)), tnum(n * n)))), n)


# ---------------------------------------------------------------------------
# demo inputs


def general_position_points(rng: Stratified, n: int) -> list[tuple[Fraction, Fraction]]:
    """Rational points with distinct heights, so that the lowest one is
    unique, and no three collinear (exact test)."""

    def cross(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    pts: list[tuple[Fraction, Fraction]] = []
    while len(pts) < n:
        cand = (Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)),
                Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)))
        if any(p[1] == cand[1] for p in pts):
            continue
        if any(cross(p, q, cand) == 0 for i, p in enumerate(pts) for q in pts[i + 1:]):
            continue
        pts.append(cand)
    return pts


def lowest_first(points: list) -> list:
    """The same points with the lowest one moved to the front."""
    low = min(range(len(points)), key=lambda i: points[i][1])
    return [points[low]] + points[:low] + points[low + 1:]


def close_rationals(rng: Stratified, n: int, gap_bits: int) -> list[Fraction]:
    """n distinct rationals, two of which differ by about 2^-gap_bits."""
    out: set[Fraction] = set()
    while len(out) < n - 1:
        out.add(Fraction(rng.randrange(-60, 61), rng.randrange(1, 16)))
    anchor = rng.choice(sorted(out))
    out.add(anchor + Fraction(rng.choice((-1, 1)), 2 ** gap_bits + rng.randrange(1, 8)))
    return rng.sample(sorted(out), n)


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
