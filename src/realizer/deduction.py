"""Sequent-style natural deduction for arithmetic with an excluded-middle rule.

A derivation is a tree of rule instances; every node records its full
conclusion sequent (labelled context plus goal), so checking is local.
Atomic facts enter through three doors: an axiom rule for true closed atoms,
an absurdity rule for false closed atoms, and a fixed family of posited
equality/arithmetic rules that work on open terms.

The excluded-middle rule is primitive and restricted to atomic matrices:

    ctx, a: forall x P  |-  C        ctx, a: not P[x:=y]  |-  C
    -----------------------------------------------------------  (em a y)
                            ctx  |-  C

with y not free in C nor in ctx.  The usual axiom form of excluded middle is
derivable from the rule and vice versa (exercised in tests).

Complete induction (cind) concludes a universal formula from one premiss that
may assume the formula below the bound variable.  The simple base/step
induction rule (ind) is also a rule kind; it records its template formula and
main term so instances are checkable, and it is the shape the derivation
normalizer unrolls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from . import arith
from .arith import (
    Atom,
    And,
    ATerm,
    BOT,
    Exists,
    Forall,
    Formula,
    Imply,
    Or,
    Relation,
    TVar,
    aterm_vars,
    atomic_truth,
    formulas_equal,
    free_vars,
    neg,
    subst_aterm,
    subst_formula,
)


class DeductionError(Exception):
    pass


class RuleShapeError(DeductionError):
    def __init__(self, path: tuple[int, ...], message: str):
        super().__init__(f"at {'.'.join(map(str, path)) or 'root'}: {message}")
        self.path = path


class EigenvariableViolation(DeductionError):
    def __init__(self, var: str, path: tuple[int, ...], message: str):
        super().__init__(f"eigenvariable {var} at {'.'.join(map(str, path)) or 'root'}: {message}")
        self.var = var
        self.path = path


class DischargeMismatch(DeductionError):
    def __init__(self, label: str, message: str):
        super().__init__(f"label {label}: {message}")
        self.label = label


class CaptureRisk(DeductionError):
    pass


# ---------------------------------------------------------------------------
# rule kinds


@dataclass(frozen=True)
class Id:
    label: str


@dataclass(frozen=True)
class AtomI:
    pass


@dataclass(frozen=True)
class AtomE:
    pass


@dataclass(frozen=True)
class AtomPost:
    rule: str  # refl | sym | trans | sub-fn | sub-rel | zero | succ |
    #           add-zero | add-succ | mul-zero | mul-succ


@dataclass(frozen=True)
class AndI:
    pass


@dataclass(frozen=True)
class AndEL:
    pass


@dataclass(frozen=True)
class AndER:
    pass


@dataclass(frozen=True)
class OrIL:
    pass


@dataclass(frozen=True)
class OrIR:
    pass


@dataclass(frozen=True)
class OrE:
    label: str


@dataclass(frozen=True)
class ImplyI:
    label: str


@dataclass(frozen=True)
class ImplyE:
    pass


@dataclass(frozen=True)
class ForallI:
    var: str


@dataclass(frozen=True)
class ForallE:
    term: ATerm


@dataclass(frozen=True)
class ExistsI:
    term: ATerm


@dataclass(frozen=True)
class ExistsE:
    label: str
    var: str


@dataclass(frozen=True)
class FalseE0:
    pass


@dataclass(frozen=True)
class Ind:
    """Simple induction; conclusion is template[var := main]."""

    label: str
    var: str
    template: Formula
    main: ATerm


@dataclass(frozen=True)
class CInd:
    label: str
    var: str


@dataclass(frozen=True)
class EM:
    label: str
    var: str


RuleKind = (
    Id | AtomI | AtomE | AtomPost | AndI | AndEL | AndER | OrIL | OrIR | OrE
    | ImplyI | ImplyE | ForallI | ForallE | ExistsI | ExistsE | FalseE0
    | Ind | CInd | EM
)

ELIM_RULES = (AndEL, AndER, OrE, ImplyE, ForallE, ExistsE)
INTRO_RULES = (AndI, OrIL, OrIR, ImplyI, ForallI, ExistsI)


# ---------------------------------------------------------------------------
# sequents and derivations

Context = tuple[tuple[str, Formula], ...]


@dataclass(frozen=True)
class Sequent:
    context: Context
    goal: Formula

    def lookup(self, label: str) -> Optional[Formula]:
        for lbl, f in self.context:
            if lbl == label:
                return f
        return None

    def labels(self) -> frozenset[str]:
        return frozenset(lbl for lbl, _ in self.context)


@dataclass(frozen=True)
class Derivation:
    rule: RuleKind
    conclusion: Sequent
    premisses: tuple["Derivation", ...] = ()


def seq(context: Context, goal: Formula) -> Sequent:
    return Sequent(tuple(context), goal)


def walk(d: Derivation, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    yield path, d
    for i, p in enumerate(d.premisses):
        yield from walk(p, path + (i,))


def uses_label(d: Derivation, label: str) -> bool:
    """Does any id leaf of d consume the assumption named label?"""
    if isinstance(d.rule, Id) and d.rule.label == label:
        return True
    for p in d.premisses:
        # a premiss that rebinds the label shadows it; our checker forbids
        # rebinding, so plain recursion is enough
        if uses_label(p, label):
            return True
    return False


# ---------------------------------------------------------------------------
# free term variables of a derivation


def _formula_vars_of_node(d: Derivation) -> frozenset[str]:
    out = free_vars(d.conclusion.goal)
    for _, f in d.conclusion.context:
        out |= free_vars(f)
    return out


def _binder_of(rule: RuleKind) -> Optional[tuple[int, str]]:
    """(premiss index, variable) bound by the rule in that subderivation."""
    match rule:
        case ForallI(var):
            return 0, var
        case ExistsE(_, var):
            return 1, var
        case Ind(_, var, _, _):
            return 1, var
        case CInd(_, var):
            return 0, var
        case EM(_, var):
            return 1, var
    return None


def _rule_term_vars(rule: RuleKind) -> frozenset[str]:
    match rule:
        case ForallE(term) | ExistsI(term):
            return aterm_vars(term)
        case Ind(_, var, template, main):
            return (free_vars(template) - {var}) | aterm_vars(main)
        case _:
            return frozenset()


def free_term_vars(d: Derivation) -> frozenset[str]:
    """Variables free in a formula or rule term and not bound by a rule."""
    out = _formula_vars_of_node(d) | _rule_term_vars(d.rule)
    binder = _binder_of(d.rule)
    for i, p in enumerate(d.premisses):
        sub = free_term_vars(p)
        if binder is not None and binder[0] == i:
            sub -= {binder[1]}
        out |= sub
    return out


# ---------------------------------------------------------------------------
# substitution of a term for a free variable


def _subst_context(ctx: Context, var: str, t: ATerm) -> Context:
    return tuple((lbl, subst_formula(f, var, t)) for lbl, f in ctx)


def _subst_rule(rule: RuleKind, var: str, t: ATerm) -> RuleKind:
    match rule:
        case ForallE(term):
            return ForallE(subst_aterm(term, var, t))
        case ExistsI(term):
            return ExistsI(subst_aterm(term, var, t))
        case Ind(label, v, template, main):
            return Ind(label, v, template if v == var else subst_formula(template, var, t),
                       subst_aterm(main, var, t))
        case _:
            return rule


def subst_derivation(d: Derivation, var: str, t: ATerm) -> Derivation:
    """d[var := t] in every formula and rule term.

    Rule binders stop the substitution in their premiss; if a binder occurs
    free in t, CaptureRisk is raised (rename the derivation first).
    """
    binder = _binder_of(d.rule)
    new_premisses = []
    for i, p in enumerate(d.premisses):
        if binder is not None and binder[0] == i:
            bvar = binder[1]
            if bvar == var:
                new_premisses.append(p)
                continue
            if bvar in aterm_vars(t) and var in free_term_vars(p):
                raise CaptureRisk(f"substituting {t} for {var} under binder {bvar}")
        new_premisses.append(subst_derivation(p, var, t))
    rule = _subst_rule(d.rule, var, t)
    concl = Sequent(_subst_context(d.conclusion.context, var, t),
                    subst_formula(d.conclusion.goal, var, t))
    return Derivation(rule, concl, tuple(new_premisses))


# ---------------------------------------------------------------------------
# checking


def _ctx_plus(ctx: Context, label: str, f: Formula, path) -> Context:
    if any(lbl == label for lbl, _ in ctx):
        raise DischargeMismatch(label, f"label reused at {path}")
    return ctx + ((label, f),)


def _expect(cond: bool, path, message: str):
    if not cond:
        raise RuleShapeError(tuple(path), message)


def _feq(a: Formula, b: Formula, fns) -> bool:
    return formulas_equal(a, b, fns)


def _ctx_equal(a: Context, b: Context, fns) -> bool:
    return (
        len(a) == len(b)
        and all(la == lb and _feq(fa, fb, fns) for (la, fa), (lb, fb) in zip(a, b))
    )


def _atomic(f: Formula) -> bool:
    return isinstance(f, Atom)


def _replaced(a: ATerm, b: ATerm, old: ATerm, new: ATerm) -> bool:
    """Is b obtained from a by replacing some occurrences of old with new?"""
    if a == b:
        return True
    if a == old and b == new:
        return True
    match a, b:
        case arith.TApp(f, xs), arith.TApp(g, ys) if f == g and len(xs) == len(ys):
            return all(_replaced(x, y, old, new) for x, y in zip(xs, ys))
    return False


def _check_atom_post(rule: AtomPost, d: Derivation, path, fns) -> None:
    goal = d.conclusion.goal
    prems = [p.conclusion.goal for p in d.premisses]

    def eq_parts(f: Formula, what: str) -> tuple[ATerm, ATerm]:
        _expect(isinstance(f, Atom) and f.rel == "=" and len(f.args) == 2, path,
                f"{what} of {rule.rule} must be an equality")
        return f.args  # type: ignore[union-attr]

    n = len(prems)
    match rule.rule:
        case "refl":
            _expect(n == 0, path, "refl has no premisses")
            t, u = eq_parts(goal, "conclusion")
            _expect(arith.norm_aterm(t, fns) == arith.norm_aterm(u, fns), path,
                    "refl needs identical sides")
        case "sym":
            _expect(n == 1, path, "sym has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect((arith.norm_aterm(g1, fns), arith.norm_aterm(g2, fns))
                    == (arith.norm_aterm(u, fns), arith.norm_aterm(t, fns)),
                    path, "sym must flip the premiss")
        case "trans":
            _expect(n == 2, path, "trans has two premisses")
            t, u = eq_parts(prems[0], "first premiss")
            u2, v = eq_parts(prems[1], "second premiss")
            _expect(arith.norm_aterm(u, fns) == arith.norm_aterm(u2, fns), path,
                    "middle terms differ")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(arith.norm_aterm(g1, fns) == arith.norm_aterm(t, fns)
                    and arith.norm_aterm(g2, fns) == arith.norm_aterm(v, fns),
                    path, "trans endpoints differ")
        case "sub-fn":
            _expect(n == 1, path, "sub-fn has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(_replaced(g1, g2, t, u), path,
                    "right side must rewrite occurrences of the premiss")
        case "sub-rel":
            _expect(n == 2, path, "sub-rel has two premisses")
            t, u = eq_parts(prems[0], "first premiss")
            a = prems[1]
            _expect(_atomic(a) and _atomic(goal), path, "sub-rel is atomic")
            _expect(a.rel == goal.rel and len(a.args) == len(goal.args), path,  # type: ignore[union-attr]
                    "sub-rel must keep the relation")
            _expect(all(_replaced(x, y, t, u) for x, y in zip(a.args, goal.args)),  # type: ignore[union-attr]
                    path, "conclusion must rewrite occurrences of the premiss")
        case "zero":
            _expect(n == 1, path, "zero has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            _expect(isinstance(t, arith.TApp) and t.fn == "S", path,
                    "premiss must equate a successor with zero")
            _expect(u == arith.TApp("0"), path, "premiss right side must be zero")
            _expect(_feq(goal, BOT, fns), path, "conclusion must be absurdity")
        case "succ":
            _expect(n == 1, path, "succ has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            _expect(isinstance(t, arith.TApp) and t.fn == "S"
                    and isinstance(u, arith.TApp) and u.fn == "S", path,
                    "premiss must equate successors")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(g1 == t.args[0] and g2 == u.args[0], path,  # type: ignore[union-attr]
                    "conclusion must strip the successors")
        case "add-zero":
            _expect(n == 0, path, "add-zero has no premisses")
            t, u = eq_parts(goal, "conclusion")
            _expect(t == arith.TApp("+", (u, arith.TApp("0"))), path,
                    "conclusion must be t + 0 = t")
        case "add-succ":
            _expect(n == 0, path, "add-succ has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            ok = (isinstance(lhs, arith.TApp) and lhs.fn == "+"
                  and isinstance(lhs.args[1], arith.TApp) and lhs.args[1].fn == "S"
                  and isinstance(rhs, arith.TApp) and rhs.fn == "+"
                  and isinstance(rhs.args[0], arith.TApp) and rhs.args[0].fn == "S"
                  and lhs.args[0] == rhs.args[0].args[0]
                  and lhs.args[1].args[0] == rhs.args[1])
            _expect(ok, path, "conclusion must be t + S(u) = S(t) + u")
        case "mul-zero":
            _expect(n == 0, path, "mul-zero has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            _expect(isinstance(lhs, arith.TApp) and lhs.fn == "*"
                    and lhs.args[1] == arith.TApp("0") and rhs == arith.TApp("0"),
                    path, "conclusion must be t * 0 = 0")
        case "mul-succ":
            _expect(n == 0, path, "mul-succ has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            ok = (isinstance(lhs, arith.TApp) and lhs.fn == "*"
                  and isinstance(lhs.args[1], arith.TApp) and lhs.args[1].fn == "S"
                  and isinstance(rhs, arith.TApp) and rhs.fn == "+"
                  and rhs.args[0] == arith.TApp("*", (lhs.args[0], lhs.args[1].args[0]))
                  and rhs.args[1] == lhs.args[0])
            _expect(ok, path, "conclusion must be t * S(u) = t * u + t")
        case other:
            raise RuleShapeError(tuple(path), f"unknown posited rule {other!r}")


def _check_node(
    d: Derivation,
    path: tuple[int, ...],
    rels: Mapping[str, Relation],
    fns,
) -> None:
    ctx, goal = d.conclusion.context, d.conclusion.goal
    labels = [lbl for lbl, _ in ctx]
    if len(set(labels)) != len(labels):
        raise DischargeMismatch(labels[0], f"duplicate context labels at {path}")
    prems = d.premisses

    def prem_ctx_is(i: int, expected: Context):
        if not _ctx_equal(prems[i].conclusion.context, expected, fns):
            raise RuleShapeError(path + (i,), "context does not match the rule")

    def arity(n: int):
        _expect(len(prems) == n, path, f"{type(d.rule).__name__} expects {n} premisses")

    def ctx_free_vars() -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, f in ctx:
            out |= free_vars(f)
        return out

    match d.rule:
        case Id(label):
            arity(0)
            f = d.conclusion.lookup(label)
            if f is None:
                raise DischargeMismatch(label, f"not in context at {path}")
            _expect(_feq(f, goal, fns), path, "goal differs from the assumption")
        case AtomI():
            arity(0)
            _expect(_atomic(goal), path, "atom axiom needs an atomic goal")
            _expect(not free_vars(goal), path, "atom axiom needs a closed goal")
            _expect(atomic_truth(goal, rels, fns), path, "atom axiom needs a true atom")
        case AtomE():
            arity(1)
            prem = prems[0].conclusion.goal
            prem_ctx_is(0, ctx)
            _expect(_atomic(prem) and not free_vars(prem), path,
                    "absurdity elimination needs a closed atomic premiss")
            _expect(not atomic_truth(prem, rels, fns), path,
                    "absurdity elimination needs a false atom")
            _expect(_feq(goal, BOT, fns), path, "conclusion must be absurdity")
        case AtomPost():
            for i in range(len(prems)):
                prem_ctx_is(i, ctx)
                _expect(_atomic(prems[i].conclusion.goal), path + (i,),
                        "posited rules take atomic premisses")
            _expect(_atomic(goal), path, "posited rules conclude atoms")
            _check_atom_post(d.rule, d, path, fns)
        case AndI():
            arity(2)
            prem_ctx_is(0, ctx)
            prem_ctx_is(1, ctx)
            _expect(isinstance(goal, And), path, "conclusion must be a conjunction")
            _expect(_feq(prems[0].conclusion.goal, goal.left, fns)
                    and _feq(prems[1].conclusion.goal, goal.right, fns),
                    path, "premisses must be the two conjuncts")
        case AndEL() | AndER():
            arity(1)
            prem_ctx_is(0, ctx)
            prem = prems[0].conclusion.goal
            _expect(isinstance(prem, And), path, "major premiss must be a conjunction")
            side = prem.left if isinstance(d.rule, AndEL) else prem.right
            _expect(_feq(goal, side, fns), path, "conclusion must be that conjunct")
        case OrIL() | OrIR():
            arity(1)
            prem_ctx_is(0, ctx)
            _expect(isinstance(goal, Or), path, "conclusion must be a disjunction")
            side = goal.left if isinstance(d.rule, OrIL) else goal.right
            _expect(_feq(prems[0].conclusion.goal, side, fns), path,
                    "premiss must be the injected disjunct")
        case OrE(label):
            arity(3)
            prem_ctx_is(0, ctx)
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Or), path, "major premiss must be a disjunction")
            prem_ctx_is(1, _ctx_plus(ctx, label, major.left, path))
            prem_ctx_is(2, _ctx_plus(ctx, label, major.right, path))
            _expect(_feq(prems[1].conclusion.goal, goal, fns)
                    and _feq(prems[2].conclusion.goal, goal, fns),
                    path, "minor premisses must conclude the goal")
        case ImplyI(label):
            arity(1)
            _expect(isinstance(goal, Imply), path, "conclusion must be an implication")
            prem_ctx_is(0, _ctx_plus(ctx, label, goal.left, path))
            _expect(_feq(prems[0].conclusion.goal, goal.right, fns), path,
                    "premiss must conclude the consequent")
        case ImplyE():
            arity(2)
            prem_ctx_is(0, ctx)
            prem_ctx_is(1, ctx)
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Imply), path, "major premiss must be an implication")
            _expect(_feq(prems[1].conclusion.goal, major.left, fns), path,
                    "minor premiss must be the antecedent")
            _expect(_feq(goal, major.right, fns), path, "conclusion must be the consequent")
        case ForallI(var):
            arity(1)
            prem_ctx_is(0, ctx)
            _expect(isinstance(goal, Forall), path, "conclusion must be universal")
            _expect(goal.var == var, path, "bound variable differs from the rule")
            _expect(_feq(prems[0].conclusion.goal, goal.body, fns), path,
                    "premiss must be the body")
            if var in ctx_free_vars():
                raise EigenvariableViolation(var, path, "free in an open assumption")
        case ForallE(term):
            arity(1)
            prem_ctx_is(0, ctx)
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Forall), path, "premiss must be universal")
            _expect(_feq(goal, subst_formula(major.body, major.var, term), fns),
                    path, "conclusion must be the instance at the rule's term")
        case ExistsI(term):
            arity(1)
            prem_ctx_is(0, ctx)
            _expect(isinstance(goal, Exists), path, "conclusion must be existential")
            _expect(_feq(prems[0].conclusion.goal,
                         subst_formula(goal.body, goal.var, term), fns),
                    path, "premiss must be the instance at the rule's term")
        case ExistsE(label, var):
            arity(2)
            prem_ctx_is(0, ctx)
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Exists), path, "major premiss must be existential")
            _expect(var == major.var or var not in free_vars(major.body), path,
                    "the split variable must be fresh for the matrix")
            inst = subst_formula(major.body, major.var, TVar(var))
            prem_ctx_is(1, _ctx_plus(ctx, label, inst, path))
            _expect(_feq(prems[1].conclusion.goal, goal, fns), path,
                    "minor premiss must conclude the goal")
            if var in ctx_free_vars():
                raise EigenvariableViolation(var, path, "free in an open assumption")
            if var in free_vars(goal):
                raise EigenvariableViolation(var, path, "free in the conclusion")
        case FalseE0():
            arity(1)
            prem_ctx_is(0, ctx)
            _expect(_feq(prems[0].conclusion.goal, BOT, fns), path,
                    "premiss must be absurdity")
            _expect(_atomic(goal), path, "restricted absurdity rule concludes atoms")
        case Ind(label, var, template, main):
            arity(2)
            prem_ctx_is(0, ctx)
            _expect(_feq(prems[0].conclusion.goal,
                         subst_formula(template, var, arith.TApp("0")), fns),
                    path, "base premiss must be the template at zero")
            prem_ctx_is(1, _ctx_plus(ctx, label, template, path))
            _expect(_feq(prems[1].conclusion.goal,
                         subst_formula(template, var, arith.TApp("S", (TVar(var),))), fns),
                    path, "step premiss must be the template at the successor")
            _expect(_feq(goal, subst_formula(template, var, main), fns), path,
                    "conclusion must be the template at the main term")
            if var in ctx_free_vars():
                raise EigenvariableViolation(var, path, "free in an open assumption")
        case CInd(label, var):
            arity(1)
            _expect(isinstance(goal, Forall) and goal.var == var, path,
                    "conclusion must be universal in the rule variable")
            body = goal.body
            hyp = prems[0].conclusion.lookup(label)
            _expect(hyp is not None, path, "premiss must assume the induction hypothesis")
            ok = False
            if isinstance(hyp, Forall) and isinstance(hyp.body, Imply):
                guard, below = hyp.body.left, hyp.body.right
                z = hyp.var
                ok = (
                    guard == Atom("<", (TVar(z), TVar(var)))
                    and z != var
                    and _feq(below, subst_formula(body, var, TVar(z)), fns)
                )
            _expect(ok, path, "hypothesis must be the course-of-values assumption")
            prem_ctx_is(0, _ctx_plus(ctx, label, hyp, path))
            _expect(_feq(prems[0].conclusion.goal, body, fns), path,
                    "premiss must conclude the template")
            if var in ctx_free_vars():
                raise EigenvariableViolation(var, path, "free in an open assumption")
        case EM(label, var):
            arity(2)
            univ = prems[0].conclusion.lookup(label)
            _expect(univ is not None and isinstance(univ, Forall)
                    and _atomic(univ.body), path,
                    "left premiss must assume a universal atomic formula")
            _expect(var == univ.var or var not in free_vars(univ), path,
                    "the witness variable must be fresh for the matrix")
            prem_ctx_is(0, _ctx_plus(ctx, label, univ, path))
            _expect(_feq(prems[0].conclusion.goal, goal, fns), path,
                    "left premiss must conclude the goal")
            inst = subst_formula(univ.body, univ.var, TVar(var))
            prem_ctx_is(1, _ctx_plus(ctx, label, neg(inst), path))
            _expect(_feq(prems[1].conclusion.goal, goal, fns), path,
                    "right premiss must conclude the goal")
            if var in ctx_free_vars():
                raise EigenvariableViolation(var, path, "free in an open assumption")
            if var in free_vars(goal):
                raise EigenvariableViolation(var, path, "free in the conclusion")
        case other:
            raise RuleShapeError(tuple(path), f"unknown rule {other!r}")


def check_derivation(
    d: Derivation,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, arith.PrimFn] = arith.FUNCTIONS,
) -> Sequent:
    """Validate every node; returns the root sequent."""
    for path, node in walk(d):
        _check_node(node, path, rels, fns)
    return d.conclusion


# ---------------------------------------------------------------------------
# convenience constructors


def assume(ctx: Context, label: str) -> Derivation:
    s = Sequent(tuple(ctx), dict(ctx)[label])
    return Derivation(Id(label), s)


def ex_falso(bottom: Derivation, goal: Formula) -> Derivation:
    """General absurdity elimination, elaborated to the atomic rule + intros.

    From a derivation of bot, build any formula: atoms via the restricted
    rule, conjunctions and disjunctions through their intros, implications
    by discharging an unused assumption, quantifiers through their intros
    (universals pick the body; existentials instantiate at zero).
    """

    def build(bot: Derivation, f: Formula) -> Derivation:
        ctx = bot.conclusion.context
        match f:
            case Atom():
                return Derivation(FalseE0(), Sequent(ctx, f), (bot,))
            case And(a, b):
                return Derivation(AndI(), Sequent(ctx, f), (build(bot, a), build(bot, b)))
            case Or(a, _):
                return Derivation(OrIL(), Sequent(ctx, f), (build(bot, a),))
            case Imply(a, b):
                lbl = arith._fresh("h", {l for l, _ in ctx} | _labels_inside(bot))
                return Derivation(
                    ImplyI(lbl),
                    Sequent(ctx, f),
                    (build(weaken(bot, ((lbl, a),), at=len(ctx)), b),),
                )
            case Forall(v, body):
                if v in free_term_vars(bot):
                    raise CaptureRisk(f"ex falso under forall captures {v}")
                return Derivation(ForallI(v), Sequent(ctx, f), (build(bot, body),))
            case Exists(v, body):
                inst = subst_formula(body, v, arith.TApp("0"))
                return Derivation(
                    ExistsI(arith.TApp("0")), Sequent(ctx, f), (build(bot, inst),)
                )
        raise DeductionError(f"not a formula: {f!r}")

    return build(bottom, goal)


def _labels_inside(d: Derivation) -> set[str]:
    out: set[str] = set()
    for _, node in walk(d):
        out.update(node.conclusion.labels())
        match node.rule:
            case OrE(l) | ImplyI(l) | ExistsE(l, _) | Ind(l, _, _, _) | CInd(l, _) | EM(l, _) | Id(l):
                out.add(l)
            case _:
                pass
    return out


def weaken(d: Derivation, extra: Context, at: int = 0) -> Derivation:
    """Insert assumptions at position `at` of every context in d.

    Any at <= len(root context) keeps rule shapes intact, since discharge
    always appends at the end.  The new labels must not collide with
    anything in d (freshen first).
    """
    if not 0 <= at <= len(d.conclusion.context):
        raise DeductionError(f"weakening position {at} outside the root context")
    clashes = {lbl for lbl, _ in extra} & _labels_inside(d)
    if clashes:
        raise DischargeMismatch(sorted(clashes)[0], "weakening collides with d")

    def go(node: Derivation) -> Derivation:
        ctx = node.conclusion.context
        concl = Sequent(ctx[:at] + tuple(extra) + ctx[at:], node.conclusion.goal)
        return Derivation(node.rule, concl, tuple(go(p) for p in node.premisses))

    return go(d)
