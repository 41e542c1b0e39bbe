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

Each rule class has one entry in RULE_SHAPES, which says how the rule uses
its premisses: how many it takes, which of them discharge the rule's label
(their context is the conclusion's plus that label, appended last), in which
one the rule's variable is bound, whether that variable must also stay out of
the conclusion, and whether it can be renamed without touching the
conclusion.  The discharge and eigenvariable conditions are Prawitz's
(Natural Deduction, 1965): the variable is free in no open assumption, and
for exists-elimination and excluded middle not in the conclusion either.
The checker enforces premiss count, premiss contexts and eigenvariable
conditions from the entry; each rule case checks only formula shapes and
names the formulas its discharging premisses assume.  Free variables,
substitution, label collection and the normalizer's relabelling and binder
renaming read the same entry.

Four loops here walk a derivation's nodes, each on an explicit stack, so
derivations of any depth are walked without recursion.  walk yields the
nodes in preorder for the scans that read one node at a time: uses_label,
_labels_inside and the normalizer's query scans.  rebuild makes one local
edit per node: substitution, renaming and grafting in one edit (_rename),
weakening, and the normalizer's strengthening and term normalization.
check_derivation checks in preorder with a trail per node, from which an
error's premiss path is built, and skips subtrees checked before.
free_term_vars folds bottom-up over a memo.  Derivations compare and hash
without recursion too (Derivation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Callable, Iterator, Mapping, Optional, Sequence

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


@dataclass(frozen=True)
class RuleShape:
    """How a rule uses its premisses (see the module docstring).

    A rule with discharges has a label and one with binds a var.
    """

    arity: Optional[int]  # None: the rule's own check decides (atom-post)
    discharges: tuple[int, ...] = ()  # premisses assuming the rule's label
    binds: Optional[int] = None  # premiss in which the rule's variable is bound
    fresh_in_goal: bool = False  # the variable must stay out of the conclusion too
    renamable: bool = True  # False when the conclusion names the variable


RULE_SHAPES: dict[type, RuleShape] = {
    Id: RuleShape(0),
    AtomI: RuleShape(0),
    AtomE: RuleShape(1),
    AtomPost: RuleShape(None),
    AndI: RuleShape(2),
    AndEL: RuleShape(1),
    AndER: RuleShape(1),
    OrIL: RuleShape(1),
    OrIR: RuleShape(1),
    OrE: RuleShape(3, discharges=(1, 2)),
    ImplyI: RuleShape(1, discharges=(0,)),
    ImplyE: RuleShape(2),
    ForallI: RuleShape(1, binds=0, renamable=False),
    ForallE: RuleShape(1),
    ExistsI: RuleShape(1),
    ExistsE: RuleShape(2, discharges=(1,), binds=1, fresh_in_goal=True),
    FalseE0: RuleShape(1),
    Ind: RuleShape(2, discharges=(1,), binds=1),
    CInd: RuleShape(1, discharges=(0,), binds=0, renamable=False),
    EM: RuleShape(2, discharges=(0, 1), binds=1, fresh_in_goal=True),
}


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


@arith.structural
@dataclass(frozen=True, eq=False)
class Derivation:
    """A rule instance, its conclusion and its premisses.

    Compared by arith.same, on an explicit stack, and hashed from the rule
    and the conclusion, which equal derivations share: neither recurses
    into the premisses, so a derivation of any depth compares and hashes.
    """

    rule: RuleKind
    conclusion: Sequent
    premisses: tuple["Derivation", ...] = ()

    def __hash__(self) -> int:
        return hash((self.rule, self.conclusion))


def seq(context: Context, goal: Formula) -> Sequent:
    return Sequent(tuple(context), goal)


def walk(d: Derivation) -> Iterator[Derivation]:
    """Every node of d in preorder, left to right."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.premisses))


def uses_label(d: Derivation, label: str) -> bool:
    """Does any id leaf of d consume the assumption named label?"""
    # a premiss that rebinds the label would shadow it; the checker forbids
    # rebinding, so every id leaf counts
    return any(isinstance(n.rule, Id) and n.rule.label == label for n in walk(d))


# ---------------------------------------------------------------------------
# free term variables of a derivation


def _formula_vars_of_node(d: Derivation) -> frozenset[str]:
    out = free_vars(d.conclusion.goal)
    for _, f in d.conclusion.context:
        out |= free_vars(f)
    return out


def _rule_term_vars(rule: RuleKind) -> frozenset[str]:
    match rule:
        case ForallE(term) | ExistsI(term):
            return aterm_vars(term)
        case Ind(_, var, template, main):
            return (free_vars(template) - {var}) | aterm_vars(main)
        case _:
            return frozenset()


# A memo maps id(node) to (node, value): holding the node keeps its id from
# being reused while the memo lives.
Memo = dict[int, tuple[Derivation, object]]


def free_term_vars(d: Derivation, memo: Optional[Memo] = None) -> frozenset[str]:
    """Variables free in a formula or rule term and not bound by a rule.

    Computed bottom-up; memo, when given, holds the set of every node
    already scanned, which is not scanned again, and receives the rest.
    """
    memo = {} if memo is None else memo
    stack = [(d, False)]  # a node, and whether its premisses are done
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((p, False) for p in node.premisses)
            continue
        out = _formula_vars_of_node(node) | _rule_term_vars(node.rule)
        binds = RULE_SHAPES[type(node.rule)].binds
        for i, p in enumerate(node.premisses):
            inner = memo[id(p)][1]
            out |= inner - {node.rule.var} if i == binds else inner
        memo[id(node)] = (node, out)
    return memo[id(d)][1]


# ---------------------------------------------------------------------------
# rebuilding with local edits

# What rebuild's enter returns for a node: a derivation to take its place
# as it is, or its new rule and sequent with one state per premiss.
Edit = Derivation | tuple[RuleKind, Sequent, Sequence[object]]


def rebuild(d: Derivation, enter: Callable[[Derivation, object], Edit],
            state: object = True, memo: Optional[dict] = None) -> Derivation:
    """d rebuilt by one local edit per node, on an explicit stack.

    enter(node, state) is called on the nodes the walk reaches, in preorder
    and left to right, starting with (d, state).  It returns a derivation
    that takes the node's place as it is, or the node's new rule and
    sequent with one state per premiss: the premiss is rebuilt with that
    state, or kept as it is when the state is None.  A node whose rule,
    sequent and premisses all come back as the same objects is returned as
    itself.

    memo, when given, maps (id(node), state) to (node, result) for the nodes
    already rebuilt, which are not entered again, and receives every node
    this call assembles, its result too: a memo is for edits that give a
    result back unchanged when it is rebuilt with the same state.
    """
    done: list[Derivation] = []  # rebuilt subtrees, in postorder
    # (node, state, None) to enter a node; (node, state, its edit) to
    # assemble it once its premisses are done
    stack: list[tuple[Derivation, object, Optional[tuple]]] = [(d, state, None)]
    while stack:
        node, state, edit = stack.pop()
        prem = node.premisses
        if edit is None:
            if memo is not None and (id(node), state) in memo:
                done.append(memo[id(node), state][1])
                continue
            edit = node if state is None else enter(node, state)
            if isinstance(edit, Derivation):
                done.append(edit)
                continue
            if len(edit[2]) != len(prem):
                raise DeductionError(f"rebuild: {len(edit[2])} states for {len(prem)} premisses")
            if prem:
                stack.append((node, state, edit))
                stack.extend(zip(reversed(prem), reversed(edit[2]), repeat(None)))
                continue
            new: tuple[Derivation, ...] = ()
        else:
            new = tuple(done[len(done) - len(prem):])
            del done[len(done) - len(prem):]
        rule, concl, _ = edit
        out = node
        if rule is not node.rule or concl is not node.conclusion or not all(map(is_, new, prem)):
            out = Derivation(rule, concl, new)
        if memo is not None:
            memo[id(node), state] = (node, out)
            memo[id(out), state] = (out, out)
        done.append(out)
    return done[0]


def _map_context(ctx: Context, fn, *args) -> Context:
    """ctx with fn(formula, *args) for each formula; ctx itself when fn
    returns each formula as itself."""
    for i, (lbl, f) in enumerate(ctx):
        g = fn(f, *args)
        if g is not f:  # the entries before it are kept as they are
            return (*ctx[:i], (lbl, g), *[(l, fn(h, *args)) for l, h in ctx[i + 1:]])
    return ctx


def _map_sequent(s: Sequent, keep_goal: bool, fn, *args) -> Sequent:
    """s with fn(formula, *args) for each formula, the goal too unless
    keep_goal; s itself when fn returns each formula as itself."""
    ctx = _map_context(s.context, fn, *args)
    goal = s.goal if keep_goal else fn(s.goal, *args)
    return s if ctx is s.context and goal is s.goal else Sequent(ctx, goal)


def _map_rule(rule: RuleKind, term_fn, template_fn, *args) -> RuleKind:
    """rule with term_fn(term, *args) for its terms and template_fn(template,
    *args) for an induction's template; rule itself when nothing changes."""
    match rule:
        case ForallE(term) | ExistsI(term):
            new = term_fn(term, *args)
            return rule if new is term else type(rule)(new)
        case Ind(label, var, template, main):
            tp, m = template_fn(template, *args), term_fn(main, *args)
            return rule if tp is template and m is main else Ind(label, var, tp, m)
    return rule


def _keep(x, *_):
    """x itself: the map that changes nothing."""
    return x


# ---------------------------------------------------------------------------
# substitution of terms for free variables, and renaming


def _rename(
    d: Derivation,
    picks: Mapping[int, tuple[Optional[str], Optional[str]]],
    subs: tuple[tuple[str, ATerm], ...] = (),
    graft: Optional[tuple[int, Derivation]] = None,
) -> Derivation:
    """d with the substitutions subs made in every formula and rule term,
    the last one first, with the rules of some nodes renamed, and with one
    hypothesis grafted away: one rebuild.

    picks maps the position of a node in preorder, counting each occurrence
    of a shared subtree, to a new discharge label and a new bound variable
    for its rule (None keeps a name); the discharges and the bound
    occurrences are renamed with it, which is renaming first and
    substituting after.  A binder stops the substitution of its own
    variable, old name and new, in its premiss, and raises CaptureRisk when
    another substitution would carry the binder's variable into a premiss
    that uses the substituted one.

    graft, when given, is (pos, repl): every context loses its entry at
    pos, whose label must stay the same throughout d, and each id leaf for
    that label becomes repl, weakened by the entries after pos in the
    leaf's new context.  repl itself is neither renamed nor substituted.
    """
    scanned: Memo = {}
    last, count = max(picks, default=-1), -1
    pos, repl = graft if graft is not None else (None, None)
    label = d.conclusion.context[pos][0] if graft is not None else None

    def enter(node: Derivation, env) -> Edit:
        nonlocal count
        count += 1
        # risk: the variable bound just above node and the substitutions
        # that pass it into node, or None
        labels, subs, risk = env
        if risk is not None:
            binder, passing = risk
            for var, t in passing:
                if binder in aterm_vars(t) and var in free_term_vars(node, scanned):
                    raise CaptureRisk(f"substituting {t} for {var} under binder {binder}")
        rule, concl, shape = node.rule, node.conclusion, RULE_SHAPES[type(node.rule)]
        ctx, goal = concl.context, concl.goal
        if graft is not None:
            if ctx[pos][0] != label:
                raise DischargeMismatch(label, "moved inside the graft body")
            ctx = ctx[:pos] + ctx[pos + 1:]
        if labels:
            ctx = tuple((labels.get(l, l), f) for l, f in ctx)
            rule = Id(labels.get(rule.label, rule.label)) if isinstance(rule, Id) else rule
        new_label, new_var = picks.get(count, (None, None))
        labels_in, subs_in, risk = labels, subs, None  # for discharges, for the bound premiss
        if new_label is not None:
            labels_in = {**labels, rule.label: new_label}
            rule = dataclasses.replace(rule, label=new_label)
        if shape.binds is not None:
            old = rule.var
            subs_in = tuple(s for s in subs if s[0] != old and s[0] != new_var)
            if subs_in:
                risk = (old if new_var is None else new_var, subs_in)
            if new_var is not None:
                subs_in += ((old, TVar(new_var)),)
                rule = _map_rule(dataclasses.replace(rule, var=new_var), _keep, subst_formula,
                                 old, TVar(new_var))
        for var, t in reversed(subs):
            # an induction's own variable binds its template
            stop = isinstance(rule, Ind) and rule.var == var
            rule = _map_rule(rule, subst_aterm, _keep if stop else subst_formula, var, t)
            ctx, goal = _map_context(ctx, subst_formula, var, t), subst_formula(goal, var, t)
        if graft is not None and isinstance(rule, Id) and rule.label == label:
            extra = ctx[pos:]
            return weaken(repl, extra, at=pos) if extra else repl
        if ctx is not concl.context or goal is not concl.goal:
            concl = Sequent(ctx, goal)
        states = []
        for i in range(len(node.premisses)):
            bound = i == shape.binds
            env = (labels_in if i in shape.discharges else labels,
                   subs_in if bound else subs, risk if bound else None)
            keep = count >= last and graft is None and not env[0] and not env[1]
            states.append(None if keep else env)
        return rule, concl, states

    return rebuild(d, enter, ({}, subs, None))


# ---------------------------------------------------------------------------
# checking

# A node's position is passed down as a trail: None at the root, and
# (trail of the parent, premiss index) below it.  Building the premiss path
# from it only when an error is raised keeps checking linear in depth.
Trail = Optional[tuple]


def _path(trail: Trail) -> tuple[int, ...]:
    out = []
    while trail is not None:
        trail, i = trail
        out.append(i)
    return tuple(reversed(out))


def _expect(cond: bool, trail: Trail, message: str):
    if not cond:
        raise RuleShapeError(_path(trail), message)


def _ctx_equal(a: Context, b: Context, fns) -> bool:
    # a context a premiss keeps from its rule is often the very same object
    return a is b or (
        len(a) == len(b)
        and all(la == lb and formulas_equal(fa, fb, fns) for (la, fa), (lb, fb) in zip(a, b))
    )


def _replaced(a: ATerm, b: ATerm, old: ATerm, new: ATerm) -> bool:
    """Is b obtained from a by replacing some occurrences of old with new?"""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a == b or (a == old and b == new):
            continue
        (f, xs), (g, ys) = arith.view(a), arith.view(b)
        if f is None or f != g or len(xs) != len(ys):
            return False
        todo += zip(xs, ys)
    return True


def _pred(t: ATerm) -> Optional[ATerm]:
    """u when t is the successor S(u), else None."""
    head, args = arith.view(t)
    return args[0] if head == "S" and args else None


def _check_atom_post(rule: AtomPost, d: Derivation, trail: Trail, fns) -> None:
    goal = d.conclusion.goal
    prems = [p.conclusion.goal for p in d.premisses]

    def eq_parts(f: Formula, what: str) -> tuple[ATerm, ATerm]:
        _expect(isinstance(f, Atom) and f.rel == "=" and len(f.args) == 2, trail,
                f"{what} of {rule.rule} must be an equality")
        return f.args  # type: ignore[union-attr]

    n = len(prems)
    match rule.rule:
        case "refl":
            _expect(n == 0, trail, "refl has no premisses")
            t, u = eq_parts(goal, "conclusion")
            _expect(arith.norm_aterm(t, fns) == arith.norm_aterm(u, fns), trail,
                    "refl needs identical sides")
        case "sym":
            _expect(n == 1, trail, "sym has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect((arith.norm_aterm(g1, fns), arith.norm_aterm(g2, fns))
                    == (arith.norm_aterm(u, fns), arith.norm_aterm(t, fns)),
                    trail, "sym must flip the premiss")
        case "trans":
            _expect(n == 2, trail, "trans has two premisses")
            t, u = eq_parts(prems[0], "first premiss")
            u2, v = eq_parts(prems[1], "second premiss")
            _expect(arith.norm_aterm(u, fns) == arith.norm_aterm(u2, fns), trail,
                    "middle terms differ")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(arith.norm_aterm(g1, fns) == arith.norm_aterm(t, fns)
                    and arith.norm_aterm(g2, fns) == arith.norm_aterm(v, fns),
                    trail, "trans endpoints differ")
        case "sub-fn":
            _expect(n == 1, trail, "sub-fn has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(_replaced(g1, g2, t, u), trail,
                    "right side must rewrite occurrences of the premiss")
        case "sub-rel":
            _expect(n == 2, trail, "sub-rel has two premisses")
            t, u = eq_parts(prems[0], "first premiss")
            a = prems[1]
            _expect(isinstance(a, Atom) and isinstance(goal, Atom), trail, "sub-rel is atomic")
            _expect(a.rel == goal.rel and len(a.args) == len(goal.args), trail,  # type: ignore[union-attr]
                    "sub-rel must keep the relation")
            _expect(all(_replaced(x, y, t, u) for x, y in zip(a.args, goal.args)),  # type: ignore[union-attr]
                    trail, "conclusion must rewrite occurrences of the premiss")
        case "zero":
            _expect(n == 1, trail, "zero has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            _expect(_pred(t) is not None, trail, "premiss must equate a successor with zero")
            _expect(u == arith.TApp("0"), trail, "premiss right side must be zero")
            _expect(formulas_equal(goal, BOT, fns), trail, "conclusion must be absurdity")
        case "succ":
            _expect(n == 1, trail, "succ has one premiss")
            t, u = eq_parts(prems[0], "premiss")
            pt, pu = _pred(t), _pred(u)
            _expect(pt is not None and pu is not None, trail, "premiss must equate successors")
            g1, g2 = eq_parts(goal, "conclusion")
            _expect(g1 == pt and g2 == pu, trail, "conclusion must strip the successors")
        case "add-zero":
            _expect(n == 0, trail, "add-zero has no premisses")
            t, u = eq_parts(goal, "conclusion")
            _expect(t == arith.TApp("+", (u, arith.TApp("0"))), trail,
                    "conclusion must be t + 0 = t")
        case "add-succ":
            _expect(n == 0, trail, "add-succ has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            ok = (isinstance(lhs, arith.TApp) and lhs.fn == "+"
                  and isinstance(rhs, arith.TApp) and rhs.fn == "+"
                  and lhs.args[0] == _pred(rhs.args[0])
                  and _pred(lhs.args[1]) == rhs.args[1])
            _expect(ok, trail, "conclusion must be t + S(u) = S(t) + u")
        case "mul-zero":
            _expect(n == 0, trail, "mul-zero has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            _expect(isinstance(lhs, arith.TApp) and lhs.fn == "*"
                    and lhs.args[1] == arith.TApp("0") and rhs == arith.TApp("0"),
                    trail, "conclusion must be t * 0 = 0")
        case "mul-succ":
            _expect(n == 0, trail, "mul-succ has no premisses")
            lhs, rhs = eq_parts(goal, "conclusion")
            ok = (isinstance(lhs, arith.TApp) and lhs.fn == "*"
                  and isinstance(rhs, arith.TApp) and rhs.fn == "+"
                  and _pred(lhs.args[1]) is not None
                  and rhs.args[0] == arith.TApp("*", (lhs.args[0], _pred(lhs.args[1])))
                  and rhs.args[1] == lhs.args[0])
            _expect(ok, trail, "conclusion must be t * S(u) = t * u + t")
        case other:
            raise RuleShapeError(_path(trail), f"unknown posited rule {other!r}")


def _check_node(
    d: Derivation,
    trail: Trail,
    rels: Mapping[str, Relation],
    fns,
) -> None:
    ctx, goal = d.conclusion.context, d.conclusion.goal
    labels = [lbl for lbl, _ in ctx]
    if len(set(labels)) != len(labels):
        raise DischargeMismatch(labels[0], f"duplicate context labels at {_path(trail)}")
    rule, prems = d.rule, d.premisses
    shape = RULE_SHAPES.get(type(rule))
    if shape is None:
        raise RuleShapeError(_path(trail), f"unknown rule {rule!r}")
    if shape.arity is not None and len(prems) != shape.arity:
        raise RuleShapeError(_path(trail),
                             f"{type(rule).__name__} expects {shape.arity} premisses")
    for i, p in enumerate(prems):
        if i not in shape.discharges and not _ctx_equal(p.conclusion.context, ctx, fns):
            raise RuleShapeError(_path((trail, i)), "context does not match the rule")

    # formula shapes; a discharging rule names what each discharge assumes
    assumed: tuple[Formula, ...] = ()
    match rule:
        case Id(label):
            f = d.conclusion.lookup(label)
            if f is None:
                raise DischargeMismatch(label, f"not in context at {_path(trail)}")
            _expect(formulas_equal(f, goal, fns), trail, "goal differs from the assumption")
        case AtomI():
            _expect(isinstance(goal, Atom), trail, "atom axiom needs an atomic goal")
            _expect(not free_vars(goal), trail, "atom axiom needs a closed goal")
            _expect(atomic_truth(goal, rels, fns), trail, "atom axiom needs a true atom")
        case AtomE():
            prem = prems[0].conclusion.goal
            _expect(isinstance(prem, Atom) and not free_vars(prem), trail,
                    "absurdity elimination needs a closed atomic premiss")
            _expect(not atomic_truth(prem, rels, fns), trail,
                    "absurdity elimination needs a false atom")
            _expect(formulas_equal(goal, BOT, fns), trail, "conclusion must be absurdity")
        case AtomPost():
            for i, p in enumerate(prems):
                _expect(isinstance(p.conclusion.goal, Atom), (trail, i),
                        "posited rules take atomic premisses")
            _expect(isinstance(goal, Atom), trail, "posited rules conclude atoms")
            _check_atom_post(rule, d, trail, fns)
        case AndI():
            _expect(isinstance(goal, And), trail, "conclusion must be a conjunction")
            _expect(formulas_equal(prems[0].conclusion.goal, goal.left, fns)
                    and formulas_equal(prems[1].conclusion.goal, goal.right, fns),
                    trail, "premisses must be the two conjuncts")
        case AndEL() | AndER():
            prem = prems[0].conclusion.goal
            _expect(isinstance(prem, And), trail, "major premiss must be a conjunction")
            side = prem.left if isinstance(rule, AndEL) else prem.right
            _expect(formulas_equal(goal, side, fns), trail, "conclusion must be that conjunct")
        case OrIL() | OrIR():
            _expect(isinstance(goal, Or), trail, "conclusion must be a disjunction")
            side = goal.left if isinstance(rule, OrIL) else goal.right
            _expect(formulas_equal(prems[0].conclusion.goal, side, fns), trail,
                    "premiss must be the injected disjunct")
        case OrE():
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Or), trail, "major premiss must be a disjunction")
            _expect(formulas_equal(prems[1].conclusion.goal, goal, fns)
                    and formulas_equal(prems[2].conclusion.goal, goal, fns),
                    trail, "minor premisses must conclude the goal")
            assumed = (major.left, major.right)
        case ImplyI():
            _expect(isinstance(goal, Imply), trail, "conclusion must be an implication")
            _expect(formulas_equal(prems[0].conclusion.goal, goal.right, fns), trail,
                    "premiss must conclude the consequent")
            assumed = (goal.left,)
        case ImplyE():
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Imply), trail, "major premiss must be an implication")
            _expect(formulas_equal(prems[1].conclusion.goal, major.left, fns), trail,
                    "minor premiss must be the antecedent")
            _expect(formulas_equal(goal, major.right, fns), trail,
                    "conclusion must be the consequent")
        case ForallI(var):
            _expect(isinstance(goal, Forall), trail, "conclusion must be universal")
            _expect(goal.var == var, trail, "bound variable differs from the rule")
            _expect(formulas_equal(prems[0].conclusion.goal, goal.body, fns), trail,
                    "premiss must be the body")
        case ForallE(term):
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Forall), trail, "premiss must be universal")
            _expect(formulas_equal(goal, subst_formula(major.body, major.var, term), fns),
                    trail, "conclusion must be the instance at the rule's term")
        case ExistsI(term):
            _expect(isinstance(goal, Exists), trail, "conclusion must be existential")
            _expect(formulas_equal(prems[0].conclusion.goal,
                                   subst_formula(goal.body, goal.var, term), fns),
                    trail, "premiss must be the instance at the rule's term")
        case ExistsE(_, var):
            major = prems[0].conclusion.goal
            _expect(isinstance(major, Exists), trail, "major premiss must be existential")
            _expect(var == major.var or var not in free_vars(major.body), trail,
                    "the split variable must be fresh for the matrix")
            _expect(formulas_equal(prems[1].conclusion.goal, goal, fns), trail,
                    "minor premiss must conclude the goal")
            assumed = (subst_formula(major.body, major.var, TVar(var)),)
        case FalseE0():
            _expect(formulas_equal(prems[0].conclusion.goal, BOT, fns), trail,
                    "premiss must be absurdity")
            _expect(isinstance(goal, Atom), trail, "restricted absurdity rule concludes atoms")
        case Ind(_, var, template, main):
            _expect(formulas_equal(prems[0].conclusion.goal,
                                   subst_formula(template, var, arith.TApp("0")), fns),
                    trail, "base premiss must be the template at zero")
            _expect(formulas_equal(prems[1].conclusion.goal,
                                   subst_formula(template, var, arith.TApp("S", (TVar(var),))),
                                   fns),
                    trail, "step premiss must be the template at the successor")
            _expect(formulas_equal(goal, subst_formula(template, var, main), fns), trail,
                    "conclusion must be the template at the main term")
            assumed = (template,)
        case CInd(label, var):
            _expect(isinstance(goal, Forall) and goal.var == var, trail,
                    "conclusion must be universal in the rule variable")
            body = goal.body
            hyp = prems[0].conclusion.lookup(label)
            _expect(hyp is not None, trail, "premiss must assume the induction hypothesis")
            ok = False
            if isinstance(hyp, Forall) and isinstance(hyp.body, Imply):
                guard, below = hyp.body.left, hyp.body.right
                z = hyp.var
                ok = (
                    guard == Atom("<", (TVar(z), TVar(var)))
                    and z != var
                    and formulas_equal(below, subst_formula(body, var, TVar(z)), fns)
                )
            _expect(ok, trail, "hypothesis must be the course-of-values assumption")
            _expect(formulas_equal(prems[0].conclusion.goal, body, fns), trail,
                    "premiss must conclude the template")
            assumed = (hyp,)
        case EM(label, var):
            univ = prems[0].conclusion.lookup(label)
            _expect(univ is not None and isinstance(univ, Forall)
                    and isinstance(univ.body, Atom), trail,
                    "left premiss must assume a universal atomic formula")
            _expect(var == univ.var or var not in free_vars(univ), trail,
                    "the witness variable must be fresh for the matrix")
            _expect(formulas_equal(prems[0].conclusion.goal, goal, fns), trail,
                    "left premiss must conclude the goal")
            _expect(formulas_equal(prems[1].conclusion.goal, goal, fns), trail,
                    "right premiss must conclude the goal")
            assumed = (univ, neg(subst_formula(univ.body, univ.var, TVar(var))))

    if shape.discharges:
        if rule.label in labels:
            raise DischargeMismatch(rule.label, f"label reused at {_path(trail)}")
        for i, f in zip(shape.discharges, assumed):
            if not _ctx_equal(prems[i].conclusion.context, ctx + ((rule.label, f),), fns):
                raise RuleShapeError(_path((trail, i)), "context does not match the rule")
    if shape.binds is not None:
        if any(rule.var in free_vars(f) for _, f in ctx):
            raise EigenvariableViolation(rule.var, _path(trail), "free in an open assumption")
        if shape.fresh_in_goal and rule.var in free_vars(goal):
            raise EigenvariableViolation(rule.var, _path(trail), "free in the conclusion")


def check_derivation(
    d: Derivation,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, arith.PrimFn] = arith.FUNCTIONS,
    checked: Optional[Memo] = None,
) -> Sequent:
    """Validate every node, in preorder; returns the root sequent.

    A node's validity depends only on the node, its premisses' conclusions,
    rels and fns, so a subtree checked once under the same tables need not
    be checked again.  checked, when given, holds such nodes: the walk skips
    their subtrees and adds every node it checks, so it holds only valid
    nodes once the call returns; after a DeductionError, drop it.  The walk
    still starts at the root, so an error names the same node and path as a
    whole-tree check.
    """
    checked = {} if checked is None else checked
    stack: list[tuple[Derivation, Trail]] = [(d, None)]
    while stack:
        node, trail = stack.pop()
        if id(node) in checked:
            continue
        _check_node(node, trail, rels, fns)
        checked[id(node)] = (node, None)
        for i in range(len(node.premisses) - 1, -1, -1):
            stack.append((node.premisses[i], (trail, i)))
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
    for node in walk(d):
        out.update(node.conclusion.labels())
        if isinstance(node.rule, Id) or RULE_SHAPES[type(node.rule)].discharges:
            out.add(node.rule.label)
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
    return _weaken(d, extra, at)


def _weaken(d: Derivation, extra: Context, at: int) -> Derivation:
    """weaken without its checks, for callers whose labels are apart already."""
    extra = tuple(extra)

    def enter(node: Derivation, _) -> Edit:
        ctx = node.conclusion.context
        return (node.rule, Sequent(ctx[:at] + extra + ctx[at:], node.conclusion.goal),
                (True,) * len(node.premisses))

    return rebuild(d, enter)
