"""Shared builders and random generators for the test suite.

Generators return checked objects: every derivation built here passes
check_derivation before it is handed to a test, so failures point at the
code under test rather than at the generator.
"""

import functools
import gc
import importlib.util
import random
import time
from fractions import Fraction
from pathlib import Path

from realizer import arith
from realizer import deduction as dd
from realizer import reals
from realizer import terms as tm
from realizer.arith import And, Atom, BOT, Exists, Forall, Imply, Or, TApp, TVar, tnum
from realizer.deduction import Derivation, Sequent
from reference_arith import classify
from reference_reals import real_arith, table


# every bundled corpus derivation against its brute-forced witness
CORPUS_WITNESSES = {
    "direct-zero": 0, "direct-square": 6, "cut-imply": 2, "cut-and": 5,
    "cut-or": 1, "cut-forall": 3, "cut-exists": 4, "em-refuted": 1,
    "em-granted": 7, "em-under-elim": 5, "em-bounded": 1, "ind-two": 2,
    "square-fn": 3,
}


@functools.cache
def bench_gen():
    """bench/gen.py, the benchmark's input generators, loaded by file path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def best_cpu_time(fn, runs: int = 5) -> float:
    """The least CPU time of runs calls of fn.

    CPU time leaves out what other processes take of the machine, and the
    least run most of the rest of the noise.  The objects alive before a run
    are frozen out of the garbage collector during it, so that its passes
    cost what fn makes, not what the tests before it left.  A ratio of two
    of these then holds on a loaded machine and in a full test run.
    """
    best = float("inf")
    for _ in range(runs):
        gc.freeze()
        try:
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
        finally:
            gc.unfreeze()
    return best


# ---------------------------------------------------------------------------
# spellings of a natural in the term calculus


def numeral(n: int) -> tm.Term:
    """succ^n(zero), the unary spelling of n that a user may write."""
    t: tm.Term = tm.zero
    for _ in range(n):
        t = tm.App(tm.succ, t)
    return t


def _respelled(t: tm.Term, leaf) -> tm.Term:
    """t with every leaf x replaced by leaf(x), and succ of a literal folded
    into one literal; rebuilt on an explicit stack."""
    out: list = []
    work: list = [t]
    while work:
        x = work.pop()
        if type(x) is tm.App:
            work += ((x,), x.arg, x.fn)
        elif type(x) is tm.Lam:
            work += ((x,), x.body)
        elif type(x) is tuple:
            (y,) = x
            if type(y) is tm.Lam:
                out[-1] = tm.Lam(y.param, out[-1])
                continue
            fn, arg = out[-2:]
            out[-2:] = [tm.Num(arg.value + 1) if fn == tm.succ and type(arg) is tm.Num
                        else tm.App(fn, arg)]
        else:
            out.append(leaf(x))
    return out[0]


def fold_numerals(t: tm.Term) -> tm.Term:
    """t with each succ chain over zero or a literal folded into one literal,
    the spelling the reduction machine reads a natural back in."""
    return _respelled(t, lambda x: tm.Num(0) if x == tm.zero else x)


def unary_literals(t: tm.Term) -> tm.Term:
    """t with each literal spelled as its succ chain, as realizers were
    printed before they carried literals."""
    return _respelled(t, lambda x: numeral(x.value) if type(x) is tm.Num else x)


def _checked(d: Derivation) -> Derivation:
    dd.check_derivation(d)
    return d


def _s(ctx, goal) -> Sequent:
    return Sequent(tuple(ctx), goal)


# ---------------------------------------------------------------------------
# closed atoms


def true_atom(rng: random.Random) -> Atom:
    a, b = rng.randrange(12), rng.randrange(12)
    lo, hi = min(a, b), max(a, b)
    return rng.choice([
        Atom("=", (tnum(a), tnum(a))),
        Atom("<", (tnum(lo), tnum(hi + 1))),
        Atom("<=", (tnum(lo), tnum(hi))),
    ])


def false_atom(rng: random.Random) -> Atom:
    a, b = rng.randrange(12), rng.randrange(12)
    lo, hi = min(a, b), max(a, b)
    return rng.choice([
        Atom("=", (tnum(a), tnum(a + 1 + b))),
        Atom("<", (tnum(hi), tnum(lo))),
        Atom("<=", (tnum(hi + 1), tnum(lo))),
    ])


def _exists_family(rng: random.Random, var: str) -> tuple[Exists, int]:
    """A true closed existential and a witness for it."""
    k = rng.randrange(8)
    x = TVar(var)
    body = rng.choice([
        Atom("=", (x, tnum(k))),
        Atom("<=", (x, tnum(k + rng.randrange(3)))),
        Atom("<", (tnum(k), TApp("S", (x,)))),
        Atom("=", (TApp("+", (x, tnum(2))), tnum(k + 2))),
    ])
    return Exists(var, body), k


# ---------------------------------------------------------------------------
# closed derivations of true formulas (no excluded middle)


def closed_true_derivation(rng: random.Random, ctx=(), depth: int = 2) -> Derivation:
    """A checked derivation, in ctx, of some true closed formula."""
    ctx = tuple(ctx)
    roll = rng.random() if depth > 0 else 1.0
    if roll < 0.25:
        left = closed_true_derivation(rng, ctx, depth - 1)
        right = closed_true_derivation(rng, ctx, depth - 1)
        goal = And(left.conclusion.goal, right.conclusion.goal)
        return Derivation(dd.AndI(), _s(ctx, goal), (left, right))
    if roll < 0.4:
        live = closed_true_derivation(rng, ctx, depth - 1)
        other = rng.choice([true_atom(rng), false_atom(rng)])
        if rng.random() < 0.5:
            goal = Or(live.conclusion.goal, other)
            return Derivation(dd.OrIL(), _s(ctx, goal), (live,))
        goal = Or(other, live.conclusion.goal)
        return Derivation(dd.OrIR(), _s(ctx, goal), (live,))
    if roll < 0.55:
        label = f"h{len(ctx)}"
        ante = rng.choice([true_atom(rng), false_atom(rng)])
        inner = closed_true_derivation(rng, ctx + ((label, ante),), depth - 1)
        goal = Imply(ante, inner.conclusion.goal)
        return Derivation(dd.ImplyI(label), _s(ctx, goal), (inner,))
    if roll < 0.75:
        goal, k = _exists_family(rng, "x")
        inst = arith.subst_formula(goal.body, goal.var, tnum(k))
        prem = Derivation(dd.AtomI(), _s(ctx, inst))
        return Derivation(dd.ExistsI(tnum(k)), _s(ctx, goal), (prem,))
    return Derivation(dd.AtomI(), _s(ctx, true_atom(rng)))


def with_random_cuts(rng: random.Random, d: Derivation, rounds: int = 1) -> Derivation:
    """Wrap d in combinators that leave its conclusion sequent unchanged
    but introduce a head cut of a random kind."""
    for _ in range(rounds):
        d = _one_cut(rng, d)
    return _checked(d)


def with_inner_cuts(rng: random.Random, d: Derivation, rounds: int = 1) -> Derivation:
    """Replace a uniformly chosen node of d by a head cut around it, rounds
    times: cuts land on parallel branches and off the principal branches,
    not only around the root as with_random_cuts puts them."""
    for _ in range(rounds):
        target = rng.choice(list(dd.walk(d)))
        cut = _one_cut(rng, target, d)

        def enter(node: Derivation, _) -> dd.Edit:
            if node is target:
                return cut
            return node.rule, node.conclusion, (True,) * len(node.premisses)
        d = dd.rebuild(d, enter)
    return _checked(d)


def _rule_bound_vars(d: Derivation) -> frozenset[str]:
    out: set[str] = set()
    for node in dd.walk(d):
        match node.rule:
            case dd.ForallI(var) | dd.EM(_, var) | dd.ExistsE(_, var) | dd.CInd(_, var):
                out.add(var)
            case dd.Ind(_, var, _, _):
                out.add(var)
    return frozenset(out)


def _one_cut(rng: random.Random, d: Derivation, whole: Derivation | None = None) -> Derivation:
    """d inside a head cut of a random kind, with the same conclusion; its
    labels and variables are fresh in whole, the derivation d sits in."""
    whole = d if whole is None else whole
    ctx, goal = d.conclusion.context, d.conclusion.goal
    taken = {l for l, _ in ctx} | dd._labels_inside(whole)
    label = arith._fresh("c", taken)
    avoid = dd.free_term_vars(whole) | _rule_bound_vars(whole) | arith.free_vars(goal)
    kind = rng.randrange(6)
    if kind == 0:
        side = closed_true_derivation(rng, ctx, 1)
        packed = And(goal, side.conclusion.goal)
        both = Derivation(dd.AndI(), _s(ctx, packed), (d, side))
        return Derivation(dd.AndEL(), _s(ctx, goal), (both,))
    if kind == 1:
        side = closed_true_derivation(rng, ctx, 1)
        packed = And(side.conclusion.goal, goal)
        both = Derivation(dd.AndI(), _s(ctx, packed), (side, d))
        return Derivation(dd.AndER(), _s(ctx, goal), (both,))
    if kind == 2:
        ante = true_atom(rng)
        body = dd.weaken(d, ((label, ante),), at=len(ctx))
        fn = Derivation(dd.ImplyI(label), _s(ctx, Imply(ante, goal)), (body,))
        arg = Derivation(dd.AtomI(), _s(ctx, ante))
        return Derivation(dd.ImplyE(), _s(ctx, goal), (fn, arg))
    if kind == 3:
        live, dead = true_atom(rng), false_atom(rng)
        major = Derivation(dd.OrIL(), _s(ctx, Or(live, dead)),
                           (Derivation(dd.AtomI(), _s(ctx, live)),))
        bl = dd.weaken(d, ((label, live),), at=len(ctx))
        cr = ctx + ((label, dead),)
        bottom = Derivation(dd.AtomE(), _s(cr, BOT), (dd.assume(cr, label),))
        br = dd.ex_falso(bottom, goal)
        return Derivation(dd.OrE(label), _s(ctx, goal), (major, bl, br))
    if kind == 4:
        var = arith._fresh("q", avoid)
        alls = Derivation(dd.ForallI(var), _s(ctx, Forall(var, goal)), (d,))
        return Derivation(dd.ForallE(tnum(rng.randrange(5))), _s(ctx, goal), (alls,))
    packed, k = _exists_family(rng, "z")
    inst = arith.subst_formula(packed.body, packed.var, tnum(k))
    major = Derivation(dd.ExistsI(tnum(k)), _s(ctx, packed),
                       (Derivation(dd.AtomI(), _s(ctx, inst)),))
    w = arith._fresh("w", avoid | {"z"})
    hyp = arith.subst_formula(packed.body, packed.var, TVar(w))
    minor = dd.weaken(d, ((label, hyp),), at=len(ctx))
    return Derivation(dd.ExistsE(label, w), _s(ctx, goal), (major, minor))


def sigma01_derivation(rng: random.Random, cuts: int = 1):
    """A checked closed derivation with a simply existential or
    quantifier-free goal, plus the introduced witness when there is one."""
    d = closed_true_derivation(rng, (), 2)
    witness = None
    if isinstance(d.rule, dd.ExistsI) and isinstance(d.conclusion.goal.body, Atom):
        witness = arith.reduce_aterm(d.rule.term, {})
    d = with_random_cuts(rng, d, rng.randrange(cuts + 1))
    level = classify(d.conclusion.goal)
    assert level is None or (level.cls, level.level) in {("sigma", 0), ("sigma", 1)}
    return _checked(d), witness


# ---------------------------------------------------------------------------
# excluded middle and induction shapes


def em_derivation(rng: random.Random) -> Derivation:
    """EM over a random decidable universal; both branches close the same
    existential goal."""
    bound = rng.randrange(1, 6)
    refuted = rng.random() < 0.5
    y = TVar("y")
    if refuted:
        univ = Forall("y", rng.choice([
            Atom("<", (tnum(bound), y)),
            Atom("<=", (tnum(bound), y)),
        ]))
        at = tnum(0)  # instance at zero fails for either shape
    else:
        univ = Forall("y", Atom("<=", (tnum(0), y)))
        at = tnum(rng.randrange(6))
    wit = rng.randrange(6)
    goal = Exists("x", Atom("<=", (TVar("x"), tnum(wit))))
    cl = (("u", univ),)
    if refuted:
        inst = arith.subst_formula(univ.body, "y", at)
        use = Derivation(dd.ForallE(at), _s(cl, inst), (dd.assume(cl, "u"),))
        bottom = Derivation(dd.AtomE(), _s(cl, BOT), (use,))
        left = dd.ex_falso(bottom, goal)
    else:
        matrix = Atom("<=", (tnum(0), tnum(wit)))
        pick = Derivation(dd.ForallE(tnum(wit)), _s(cl, matrix), (dd.assume(cl, "u"),))
        left = Derivation(dd.ExistsI(tnum(0)), _s(cl, goal), (pick,))
    cr = (("u", arith.neg(arith.subst_formula(univ.body, "y", y))),)
    right = Derivation(dd.ExistsI(tnum(wit)), _s(cr, goal),
                       (Derivation(dd.AtomI(), _s(cr, Atom("<=", (tnum(wit), tnum(wit))))),))
    return _checked(Derivation(dd.EM("u", "y"), _s((), goal), (left, right)))


def ind_derivation(rng: random.Random) -> Derivation:
    """Simple induction proving exists w. w = n for a small n."""
    n = rng.randrange(4)
    template = Exists("w", Atom("=", (TVar("w"), TVar("v"))))
    base = Derivation(
        dd.ExistsI(tnum(0)), _s((), Exists("w", Atom("=", (TVar("w"), tnum(0))))),
        (Derivation(dd.AtomI(), _s((), Atom("=", (tnum(0), tnum(0))))),))
    cs = (("ih", template),)
    sgoal = Exists("w", Atom("=", (TVar("w"), TApp("S", (TVar("v"),)))))
    cm = cs + (("u", Atom("=", (TVar("z"), TVar("v")))),)
    bumped = Atom("=", (TApp("S", (TVar("z"),)), TApp("S", (TVar("v"),))))
    sub = Derivation(dd.AtomPost("sub-fn"), _s(cm, bumped), (dd.assume(cm, "u"),))
    minor = Derivation(dd.ExistsI(TApp("S", (TVar("z"),))), _s(cm, sgoal), (sub,))
    step = Derivation(dd.ExistsE("u", "z"), _s(cs, sgoal),
                      (dd.assume(cs, "ih"), minor))
    return _checked(Derivation(
        dd.Ind("ih", "v", template, tnum(n)),
        _s((), Exists("w", Atom("=", (TVar("w"), tnum(n))))), (base, step)))


def cind_derivation(rng: random.Random) -> Derivation:
    """Course-of-values induction concluding forall v. v + 0 = v."""
    v = TVar("v")
    body = Atom("=", (TApp("+", (v, TApp("0"))), v))
    hyp = Forall("z", Imply(Atom("<", (TVar("z"), v)),
                            Atom("=", (TApp("+", (TVar("z"), TApp("0"))), TVar("z")))))
    cs = (("ch", hyp),)
    prem = Derivation(dd.AtomPost("add-zero"), _s(cs, body))
    return _checked(Derivation(dd.CInd("ch", "v"), _s((), Forall("v", body)), (prem,)))


def open_derivation(rng: random.Random) -> Derivation:
    """A derivation with live hypotheses, for decoration typing."""
    a, b = true_atom(rng), false_atom(rng)
    ctx = (("u", rng.choice([a, Imply(a, b)])), ("v", rng.choice([b, And(a, b)])))
    use = dd.assume(ctx, rng.choice(["u", "v"]))
    other = closed_true_derivation(rng, ctx, 1)
    goal = And(use.conclusion.goal, other.conclusion.goal)
    return _checked(Derivation(dd.AndI(), _s(ctx, goal), (use, other)))


def ha_em_derivation(rng: random.Random) -> Derivation:
    """The acceptance mix: plain, cut-ful, EM, induction and open shapes."""
    roll = rng.random()
    if roll < 0.35:
        return sigma01_derivation(rng, cuts=2)[0]
    if roll < 0.55:
        return em_derivation(rng)
    if roll < 0.70:
        return ind_derivation(rng)
    if roll < 0.80:
        return cind_derivation(rng)
    if roll < 0.90:
        return open_derivation(rng)
    return with_random_cuts(rng, em_derivation(rng), 1)


def decoratable_derivation(rng: random.Random) -> Derivation:
    """Same mix, with base/step induction unfolded since it only
    decorates after normalization."""
    from realizer import normalizer
    d = ha_em_derivation(rng)
    if any(isinstance(node.rule, dd.Ind) for node in dd.walk(d)):
        d = normalizer.normalize_derivation(d)
    return d


# ---------------------------------------------------------------------------
# reals


def random_table(rng: random.Random) -> reals.RealRep:
    center = Fraction(rng.randrange(-8, 9), rng.randrange(1, 6))
    lo = center - Fraction(1, 2)
    hi = lo + 1
    rows = []
    for k in range(rng.randrange(1, 8)):
        rows.append((lo, hi))
        width = hi - lo
        nwidth = min(width, Fraction(1, 2 ** (k + 1)))
        off = (width - nwidth) * Fraction(rng.randrange(5), 4)
        lo = lo + off
        hi = lo + nwidth
    return table(rows)


def random_real(rng: random.Random, depth: int = 3) -> reals.RealRep:
    if depth == 0 or rng.random() < 0.45:
        if rng.random() < 0.6:
            return reals.constant(Fraction(rng.randrange(-40, 41), rng.randrange(1, 12)))
        return random_table(rng)
    op = rng.choice(["add", "sub", "mul", "neg"])
    if op == "neg":
        return real_arith("neg", random_real(rng, depth - 1))
    return real_arith(op, random_real(rng, depth - 1), random_real(rng, depth - 1))


def distinct_rationals(rng: random.Random, n: int) -> list[Fraction]:
    out: set[Fraction] = set()
    while len(out) < n:
        out.add(Fraction(rng.randrange(-60, 61), rng.randrange(1, 16)))
    return rng.sample(sorted(out), n)


def general_position_points(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """Random rational points with no three collinear (exact determinant)."""

    def det(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    pts: list[tuple[Fraction, Fraction]] = []
    while len(pts) < n:
        cand = (Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)),
                Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)))
        if cand in pts:
            continue
        if any(det(p, q, cand) == 0 for i, p in enumerate(pts) for q in pts[i + 1:]):
            continue
        pts.append(cand)
    return pts
