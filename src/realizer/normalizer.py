"""Head-cut reduction of derivations and direct witness extraction.

A head cut is a detour sitting on a principal branch: a branch of the
derivation tree that always enters eliminations and the excluded-middle rule
through their leftmost premiss.  Four families are primitive:

  * proper cuts: an elimination whose major premiss ends with the matching
    introduction;
  * induction instances whose main term is zero or a successor, which unroll
    one step;
  * excluded-middle instances that can be answered: the left branch either
    ignores its universal assumption or queries it at closed points, so the
    known instances decide which branch survives;
  * eliminations whose major premiss ends with excluded middle, which
    permute inside both branches.

Two further families are enabled by default and can be switched off with
simplify=False: eliminations permute inside or/exists eliminations the same
way, and or/exists eliminations whose minor branch ignores its hypothesis
collapse to that branch.

Each kind has one entry in the table _KINDS: a pattern that tells whether a
node is a head cut of that kind (and names its detail, e.g. "and-left"), the
reducer that rewrites such a node, and whether the kind needs simplify.
find_head_cut tries the patterns in table order at every principal node;
apply_head_reduction re-runs the cut's pattern, so a stale cut raises
InvalidCut, and then calls its reducer.  Both permutation kinds share one
reducer, which pushes the elimination into every branch of the discharging
rule above it.

Reductions preserve the root sequent and never invent assumptions or free
term variables; normalize_derivation re-checks the tree after every rewrite
and raises HygieneError if a rewrite would need alpha-renaming that the
syntactic formula identity cannot express.  extract_witness drives a closed
derivation of ex x A (A atomic) to its normal form, which must end with the
existence introduction naming a correct witness.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from . import arith
from . import deduction as dd
from .arith import (
    Atom,
    ATerm,
    BOT,
    Exists,
    Imply,
    PrimFn,
    Relation,
    TApp,
    TVar,
    aterm_vars,
    atomic_truth,
    free_vars,
    norm_aterm,
    norm_formula,
    reduce_aterm,
    subst_formula,
    tnum,
)
from .deduction import Derivation, Sequent

DEFAULT_FUEL = 10_000


class NormalizationError(Exception):
    pass


class InvalidCut(NormalizationError):
    """The cut position is stale or its pattern is absent."""


class HygieneError(NormalizationError):
    """A rewrite needs alpha-renaming that syntactic formulas cannot express."""


class FuelExhausted(NormalizationError):
    def __init__(self, steps: int, derivation: Derivation):
        super().__init__(f"no normal form after {steps} rewrites")
        self.steps = steps
        self.derivation = derivation


class NotClosed(NormalizationError):
    pass


class NotSimplyExistential(NormalizationError):
    pass


class ShapeViolation(NormalizationError):
    """The normal form does not name a correct witness; a soundness bug."""


# ---------------------------------------------------------------------------
# head cuts

PROPER = "proper"
IND = "ind"
EM_WITNESS = "em-witness"
EM_PERMUTE = "em-permute"
OR_EXISTS_PERMUTE = "or-exists-permute"
IMMEDIATE_SIMPL = "immediate-simpl"


@dataclass(frozen=True)
class HeadCut:
    """A reducible node: premiss path from the root, reduction kind."""

    path: tuple[int, ...]
    kind: str
    detail: str = ""


_PROPER_MATCH: dict[type, tuple[type, ...]] = {
    dd.AndEL: (dd.AndI,),
    dd.AndER: (dd.AndI,),
    dd.OrE: (dd.OrIL, dd.OrIR),
    dd.ImplyE: (dd.ImplyI,),
    dd.ForallE: (dd.ForallI,),
    dd.ExistsE: (dd.ExistsI,),
}

# proper cuts drop the side: "and-left" and "and-right" are both "and"
_ELIM_NAME = {
    dd.AndEL: "and-left",
    dd.AndER: "and-right",
    dd.OrE: "or",
    dd.ImplyE: "imply",
    dd.ForallE: "forall",
    dd.ExistsE: "exists",
}


def _major_limited(rule) -> bool:
    """Do principal branches have to enter this rule through premiss 0?"""
    return isinstance(rule, dd.ELIM_RULES) or isinstance(rule, dd.EM)


def _at(d: Derivation, path: tuple[int, ...]) -> Derivation:
    node = d
    for i in path:
        if not 0 <= i < len(node.premisses):
            raise InvalidCut(f"no node at {path}")
        node = node.premisses[i]
    return node


def _replace(d: Derivation, path: tuple[int, ...], sub: Derivation) -> Derivation:
    if not path:
        return sub
    prem = list(d.premisses)
    prem[path[0]] = _replace(prem[path[0]], path[1:], sub)
    return Derivation(d.rule, d.conclusion, tuple(prem))


def _principal_closed_instance(left: Derivation, label: str) -> bool:
    """Is the universal assumption queried at a closed point on a principal
    path of the branch derivation?"""
    stack = [left]
    while stack:
        n = stack.pop()
        if (
            isinstance(n.rule, dd.ForallE)
            and n.premisses
            and n.premisses[0].rule == dd.Id(label)
            and not free_vars(n.conclusion.goal)
        ):
            return True
        if n.premisses:
            if _major_limited(n.rule):
                stack.append(n.premisses[0])
            else:
                stack.extend(n.premisses)
    return False


def _major(node: Derivation):
    """The major premiss's rule when node is an elimination."""
    if isinstance(node.rule, dd.ELIM_RULES) and node.premisses:
        return node.premisses[0].rule
    return None


# Each pattern returns the cut's detail ("" when it has none) if the node is
# a head cut of its kind, and None otherwise.


def _proper_cut(node: Derivation, fns) -> Optional[str]:
    if isinstance(_major(node), _PROPER_MATCH.get(type(node.rule), ())):
        return _ELIM_NAME[type(node.rule)].partition("-")[0]
    return None


def _em_permute_cut(node: Derivation, fns) -> Optional[str]:
    return _ELIM_NAME[type(node.rule)] if isinstance(_major(node), dd.EM) else None


def _or_exists_permute_cut(node: Derivation, fns) -> Optional[str]:
    major = _major(node)
    return _ELIM_NAME[type(major)] if isinstance(major, (dd.OrE, dd.ExistsE)) else None


def _ind_cut(node: Derivation, fns) -> Optional[str]:
    if isinstance(node.rule, dd.Ind):
        mt = norm_aterm(node.rule.main, fns)
        if mt == TApp("0") or (isinstance(mt, TApp) and mt.fn == "S"):
            return ""
    return None


def _em_witness_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.EM) and (not dd.uses_label(prem[0], rule.label)
                                    or _principal_closed_instance(prem[0], rule.label)):
        return ""
    return None


def _immediate_simpl_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.OrE):
        if not dd.uses_label(prem[1], rule.label) or not dd.uses_label(prem[2], rule.label):
            return "or"
    if isinstance(rule, dd.ExistsE):
        if (not dd.uses_label(prem[1], rule.label)
                and rule.var not in dd.free_term_vars(prem[1])):
            return "exists"
    return None


def _cut_at(node: Derivation, path: tuple[int, ...], simplify: bool, fns) -> Optional[HeadCut]:
    for kind, (pattern, _, simplify_only) in _KINDS.items():
        if simplify or not simplify_only:
            detail = pattern(node, fns)
            if detail is not None:
                return HeadCut(path, kind, detail)
    return None


def find_head_cut(
    d: Derivation,
    simplify: bool = True,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
) -> Optional[HeadCut]:
    """Outermost head cut on a principal branch, leftmost among equals."""
    queue: deque[tuple[tuple[int, ...], Derivation, bool]] = deque([((), d, True)])
    while queue:
        path, node, principal = queue.popleft()
        if principal:
            cut = _cut_at(node, path, simplify, fns)
            if cut is not None:
                return cut
        limited = _major_limited(node.rule)
        for i, p in enumerate(node.premisses):
            queue.append((path + (i,), p, principal and (i == 0 or not limited)))
    return None


# ---------------------------------------------------------------------------
# hygiene: relabelling, binder renaming, weakening, grafting

_DISCHARGE_PREMS: dict[type, tuple[int, ...]] = {
    dd.OrE: (1, 2),
    dd.ImplyI: (0,),
    dd.ExistsE: (1,),
    dd.Ind: (1,),
    dd.CInd: (0,),
    dd.EM: (0, 1),
}


def _rename_hyp(d: Derivation, old: str, new: str) -> Derivation:
    """Rename a hypothesis label in every context entry and id leaf of d."""
    ctx = tuple((new if l == old else l, f) for l, f in d.conclusion.context)
    rule = d.rule
    if isinstance(rule, dd.Id) and rule.label == old:
        rule = dd.Id(new)
    return Derivation(rule, Sequent(ctx, d.conclusion.goal),
                      tuple(_rename_hyp(p, old, new) for p in d.premisses))


def _relabel(d: Derivation, new_label: str) -> Derivation:
    """Change the discharge label of d's root rule."""
    idxs = _DISCHARGE_PREMS[type(d.rule)]
    old = d.rule.label
    prem = list(d.premisses)
    for i in idxs:
        prem[i] = _rename_hyp(prem[i], old, new_label)
    return Derivation(dataclasses.replace(d.rule, label=new_label),
                      d.conclusion, tuple(prem))


def _freshen_labels(d: Derivation, avoid: set[str]) -> Derivation:
    """Rename every discharging label of d that lies in avoid."""
    taken = set(avoid) | dd._labels_inside(d)

    def go(node: Derivation) -> Derivation:
        node = Derivation(node.rule, node.conclusion,
                          tuple(go(p) for p in node.premisses))
        rule = node.rule
        if type(rule) in _DISCHARGE_PREMS and rule.label in avoid:
            new = arith._fresh(rule.label, taken)
            taken.add(new)
            node = _relabel(node, new)
        return node

    return go(d)


def _all_term_vars(d: Derivation) -> set[str]:
    """Every variable visible anywhere in d: free, bound, or in a rule term."""
    out: set[str] = set()
    for _, n in dd.walk(d):
        out |= dd._formula_vars_of_node(n)
        out |= dd._rule_term_vars(n.rule)
        b = dd._binder_of(n.rule)
        if b is not None:
            out.add(b[1])
    return out


def _freshen_binders(d: Derivation, clash: set[str]) -> Derivation:
    """Rename exists/em/ind binders of d away from the clash set.

    Universal introductions and complete induction mention their variable in
    the conclusion, so they cannot be renamed without alpha-converting a
    formula; they are left alone and the substitution reports the capture.
    """
    taken = set(clash) | _all_term_vars(d)

    def go(node: Derivation) -> Derivation:
        prem = [go(p) for p in node.premisses]
        rule = node.rule
        b = dd._binder_of(rule)
        if (b is not None and b[1] in clash
                and not isinstance(rule, (dd.ForallI, dd.CInd))):
            i, v = b
            nv = arith._fresh(v, frozenset(taken))
            taken.add(nv)
            prem[i] = dd.subst_derivation(prem[i], v, TVar(nv))
            if isinstance(rule, dd.Ind):
                rule = dataclasses.replace(
                    rule, var=nv, template=subst_formula(rule.template, v, TVar(nv)))
            else:
                rule = dataclasses.replace(rule, var=nv)
        return Derivation(rule, node.conclusion, tuple(prem))

    return go(d)


def _subst_hygienic(d: Derivation, var: str, t: ATerm) -> Derivation:
    clash = aterm_vars(t)
    if clash:
        d = _freshen_binders(d, set(clash))
    try:
        return dd.subst_derivation(d, var, t)
    except dd.CaptureRisk as e:
        raise HygieneError(str(e)) from e


def _strengthen(d: Derivation, label: str) -> Derivation:
    """Drop an unused hypothesis from every context of d."""
    def go(n: Derivation) -> Derivation:
        ctx = tuple((l, f) for l, f in n.conclusion.context if l != label)
        return Derivation(n.rule, Sequent(ctx, n.conclusion.goal),
                          tuple(go(p) for p in n.premisses))
    return go(d)


def _graft(body: Derivation, label: str, repl: Derivation) -> Derivation:
    """Replace every id leaf for label in body with repl and drop the
    hypothesis from all contexts.

    repl must conclude the hypothesis formula in the context body sees
    before the label's position; discharge only ever appends, so the label
    keeps one position throughout body and repl can be weakened into place.
    """
    root_ctx = body.conclusion.context
    pos = next((i for i, (l, _) in enumerate(root_ctx) if l == label), None)
    if pos is None:
        raise NormalizationError(f"label {label} is not free at the graft root")
    repl = _freshen_labels(repl, dd._labels_inside(body))
    repl = _freshen_binders(repl, _all_term_vars(body))

    def go(node: Derivation) -> Derivation:
        ctx = node.conclusion.context
        if ctx[pos][0] != label:
            raise NormalizationError(f"label {label} moved inside the graft body")
        new_ctx = ctx[:pos] + ctx[pos + 1:]
        if isinstance(node.rule, dd.Id) and node.rule.label == label:
            extra = new_ctx[pos:]
            return dd.weaken(repl, extra, at=pos) if extra else repl
        return Derivation(node.rule, Sequent(new_ctx, node.conclusion.goal),
                          tuple(go(p) for p in node.premisses))

    return go(body)


# ---------------------------------------------------------------------------
# the reductions


def _reduce_proper(node: Derivation, rels, fns) -> Derivation:
    major = node.premisses[0]
    match node.rule:
        case dd.AndEL():
            return major.premisses[0]
        case dd.AndER():
            return major.premisses[1]
        case dd.OrE(label):
            branch = node.premisses[1 if isinstance(major.rule, dd.OrIL) else 2]
            return _graft(branch, label, major.premisses[0])
        case dd.ImplyE():
            return _graft(major.premisses[0], major.rule.label, node.premisses[1])
        case dd.ForallE(term):
            return _subst_hygienic(major.premisses[0], major.rule.var, term)
        case dd.ExistsE(label, var):
            minor = _subst_hygienic(node.premisses[1], var, major.rule.term)
            return _graft(minor, label, major.premisses[0])


def _reduce_ind(node: Derivation, rels, fns) -> Derivation:
    rule = node.rule
    base, step = node.premisses
    mt = norm_aterm(rule.main, fns)
    if mt == TApp("0"):
        return base
    below = mt.args[0]
    inner = Derivation(
        dd.Ind(rule.label, rule.var, rule.template, below),
        Sequent(node.conclusion.context, subst_formula(rule.template, rule.var, below)),
        (base, step),
    )
    return _graft(_subst_hygienic(step, rule.var, below), rule.label, inner)


def _reduce_em_witness(node: Derivation, rels, fns) -> Derivation:
    rule = node.rule
    left, right = node.premisses
    univ = left.conclusion.lookup(rule.label)
    insts = [
        (p, n) for p, n in dd.walk(left)
        if isinstance(n.rule, dd.ForallE)
        and n.premisses[0].rule == dd.Id(rule.label)
        and not free_vars(n.conclusion.goal)
    ]
    refuted = next(
        (n for _, n in insts
         if not atomic_truth(norm_formula(n.conclusion.goal, fns), rels, fns)),
        None,
    )
    if refuted is None:
        # every known instance holds: answer the queries with the atom axiom
        new_left = left
        for p, n in insts:
            new_left = _replace(new_left, p, Derivation(dd.AtomI(), n.conclusion))
        if dd.uses_label(new_left, rule.label):
            return Derivation(rule, node.conclusion, (new_left, right))
        return _strengthen(new_left, rule.label)
    # a refuted instance: its value realizes the existential branch
    t = refuted.rule.term
    value = reduce_aterm(t, {}, fns) if not aterm_vars(t) else 0
    num = tnum(value)
    inst = norm_formula(subst_formula(univ.body, univ.var, num), fns)
    right = dd.subst_derivation(right, rule.var, num)
    ctx = node.conclusion.context
    beta = arith._fresh("r", {l for l, _ in ctx} | dd._labels_inside(right))
    bctx = ctx + ((beta, inst),)
    refutation = Derivation(
        dd.ImplyI(beta),
        Sequent(ctx, Imply(inst, BOT)),
        (Derivation(dd.AtomE(), Sequent(bctx, BOT),
                    (Derivation(dd.Id(beta), Sequent(bctx, inst)),)),),
    )
    return _graft(right, rule.label, refutation)


def _reduce_permute(node: Derivation, rels, fns) -> Derivation:
    """Push an elimination into the branches of its discharging major premiss."""
    split, *minors = node.premisses
    erule = node.rule
    ctx, goal = node.conclusion.context, node.conclusion.goal

    label = split.rule.label
    clash_labels = set().union(*(dd._labels_inside(m) for m in minors))
    if label in clash_labels:
        split = _relabel(split, arith._fresh(label, clash_labels | dd._labels_inside(split)))

    binder = dd._binder_of(split.rule)
    if binder is not None:
        i, var = binder
        clash_vars = free_vars(goal) | dd._rule_term_vars(erule)
        for m in minors:
            clash_vars |= _all_term_vars(m)
        if var in clash_vars:
            nv = arith._fresh(var, frozenset(clash_vars | _all_term_vars(split)))
            prem = list(split.premisses)
            prem[i] = dd.subst_derivation(prem[i], var, TVar(nv))
            split = Derivation(dataclasses.replace(split.rule, var=nv),
                               split.conclusion, tuple(prem))

    # discharge appends, so each branch's hypothesis is its last context entry
    branches = _DISCHARGE_PREMS[type(split.rule)]
    hyps = [split.premisses[i].conclusion.context[-1] for i in branches]

    # keep the elimination's own binder fresh for the hypotheses moving above it
    if isinstance(erule, dd.ExistsE):
        bad = set().union(*(free_vars(f) for _, f in hyps))
        if erule.var in bad:
            nv = arith._fresh(erule.var, frozenset(bad | _all_term_vars(node)))
            minors[0] = dd.subst_derivation(minors[0], erule.var, TVar(nv))
            erule = dataclasses.replace(erule, var=nv)

    prem = list(split.premisses)
    for i, hyp in zip(branches, hyps):
        wminors = (dd.weaken(m, (hyp,), at=len(ctx)) for m in minors)
        prem[i] = Derivation(erule, Sequent(ctx + (hyp,), goal), (prem[i], *wminors))
    return Derivation(split.rule, node.conclusion, tuple(prem))


def _reduce_immediate_simpl(node: Derivation, rels, fns) -> Derivation:
    label = node.rule.label
    branch = next(b for b in node.premisses[1:] if not dd.uses_label(b, label))
    return _strengthen(branch, label)


# kind -> (pattern, reducer, enabled only with simplify); _cut_at tries the
# kinds in this order
_KINDS = {
    PROPER: (_proper_cut, _reduce_proper, False),
    EM_PERMUTE: (_em_permute_cut, _reduce_permute, False),
    OR_EXISTS_PERMUTE: (_or_exists_permute_cut, _reduce_permute, True),
    IND: (_ind_cut, _reduce_ind, False),
    EM_WITNESS: (_em_witness_cut, _reduce_em_witness, False),
    IMMEDIATE_SIMPL: (_immediate_simpl_cut, _reduce_immediate_simpl, True),
}


def apply_head_reduction(
    d: Derivation,
    cut: HeadCut,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
) -> Derivation:
    """One rewrite at the cut position; InvalidCut if the pattern is stale."""
    node = _at(d, cut.path)
    if cut.kind not in _KINDS:
        raise InvalidCut(f"unknown cut kind {cut.kind!r}")
    pattern, reduce, _ = _KINDS[cut.kind]
    if pattern(node, fns) is None:
        raise InvalidCut(f"no {cut.kind} cut at {cut.path}")
    new = reduce(node, rels, fns)
    if not _sequent_eq(new.conclusion, node.conclusion, fns):
        raise NormalizationError(
            f"internal: {cut.kind} rewrite changed the sequent at {cut.path}")
    return _replace(d, cut.path, new)


def _sequent_eq(a: Sequent, b: Sequent, fns) -> bool:
    return (dd._ctx_equal(a.context, b.context, fns)
            and arith.formulas_equal(a.goal, b.goal, fns))


# ---------------------------------------------------------------------------
# term normalization inside a derivation


def norm_terms(d: Derivation, fns: Mapping[str, PrimFn] = arith.FUNCTIONS) -> Derivation:
    """Collapse closed arithmetic subterms to numerals everywhere.

    The posited equality rules constrain their premiss and conclusion shapes
    syntactically, so goals touching one of those nodes keep their terms.
    """

    def nrule(rule):
        match rule:
            case dd.ForallE(term):
                return dd.ForallE(norm_aterm(term, fns))
            case dd.ExistsI(term):
                return dd.ExistsI(norm_aterm(term, fns))
            case dd.Ind(label, var, template, main):
                return dd.Ind(label, var, norm_formula(template, fns),
                              norm_aterm(main, fns))
            case _:
                return rule

    def go(n: Derivation, keep_goal: bool) -> Derivation:
        post = isinstance(n.rule, dd.AtomPost)
        goal = n.conclusion.goal if keep_goal or post else norm_formula(n.conclusion.goal, fns)
        ctx = tuple((l, norm_formula(f, fns)) for l, f in n.conclusion.context)
        return Derivation(nrule(n.rule), Sequent(ctx, goal),
                          tuple(go(p, post) for p in n.premisses))

    return go(d, False)


# ---------------------------------------------------------------------------
# the loop


def normalize_derivation(
    d: Derivation,
    fuel: int = DEFAULT_FUEL,
    *,
    simplify: bool = True,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
    trace: Optional[list[str]] = None,
) -> Derivation:
    """Rewrite until no head cut remains along any principal branch.

    The root sequent is preserved (up to term normalization) and the whole
    tree is re-checked after every rewrite; fuel bounds the number of
    rewrites and FuelExhausted carries the partly reduced derivation.
    """
    d = norm_terms(d, fns)
    root = d.conclusion
    base_vars = dd.free_term_vars(d)
    steps = 0
    while True:
        cut = find_head_cut(d, simplify=simplify, fns=fns)
        if cut is None:
            return d
        if steps >= fuel:
            raise FuelExhausted(steps, d)
        d = norm_terms(apply_head_reduction(d, cut, rels, fns), fns)
        steps += 1
        try:
            dd.check_derivation(d, rels, fns)
        except dd.DeductionError as e:
            raise HygieneError(
                f"{cut.kind} rewrite at {cut.path} broke the derivation: {e}") from e
        if not _sequent_eq(d.conclusion, root, fns):
            raise NormalizationError(
                f"internal: {cut.kind} rewrite changed the root sequent")
        if not dd.free_term_vars(d) <= base_vars:
            raise HygieneError(
                f"{cut.kind} rewrite at {cut.path} freed a term variable")
        if trace is not None:
            where = ".".join(map(str, cut.path)) or "root"
            stamp = hashlib.sha1(repr(_at(d, cut.path).conclusion).encode()).hexdigest()[:12]
            kind = f"{cut.kind}/{cut.detail}" if cut.detail else cut.kind
            trace.append(f"{kind} at {where} -> {stamp}")


def extract_witness(
    d: Derivation,
    fuel: int = DEFAULT_FUEL,
    *,
    simplify: bool = True,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
    trace: Optional[list[str]] = None,
) -> tuple[int, Derivation]:
    """Normalize a closed derivation of ex x A (A atomic) and read off the
    witness named by its final existence introduction."""
    if d.conclusion.context:
        raise NotClosed("the derivation has open assumptions")
    if dd.free_term_vars(d):
        raise NotClosed("the derivation has free term variables")
    goal = d.conclusion.goal
    if not (isinstance(goal, Exists) and isinstance(goal.body, Atom)):
        raise NotSimplyExistential(f"goal is not an existential atom: {goal!r}")
    nd = normalize_derivation(d, fuel, simplify=simplify, rels=rels, fns=fns, trace=trace)
    if not isinstance(nd.rule, dd.ExistsI):
        raise ShapeViolation(
            f"normal form ends with {type(nd.rule).__name__}, not an existence introduction")
    term = nd.rule.term
    if aterm_vars(term):
        raise ShapeViolation(f"the witness term {term!r} is open")
    value = reduce_aterm(term, {}, fns)
    matrix = norm_formula(subst_formula(goal.body, goal.var, tnum(value)), fns)
    if not atomic_truth(matrix, rels, fns):
        raise ShapeViolation(f"witness {value} does not satisfy {matrix!r}")
    return value, nd


# ---------------------------------------------------------------------------
# shape of normal derivations


def principal_branches(d: Derivation) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Node paths of every principal branch, root first, leaf last."""

    def go(node, path, acc):
        acc = acc + (path,)
        if not node.premisses:
            yield acc
        elif _major_limited(node.rule):
            yield from go(node.premisses[0], path + (0,), acc)
        else:
            for i, p in enumerate(node.premisses):
                yield from go(p, path + (i,), acc)

    yield from go(d, (), ())


def check_open_normal(
    d: Derivation,
    *,
    simplify: bool = True,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
) -> bool:
    """Structural test for head-normal derivations.

    No head cut remains, arithmetic terms are normal, and read from the
    assumption end every principal branch is a run of eliminations, then
    atomic, induction and excluded-middle rules, then introductions.
    """
    if find_head_cut(d, simplify=simplify, fns=fns) is not None:
        return False
    if norm_terms(d, fns) != d:
        return False
    for branch in principal_branches(d):
        phase = 0
        for path in reversed(branch[:-1]):
            rule = _at(d, path).rule
            if isinstance(rule, dd.ELIM_RULES):
                k = 0
            elif isinstance(rule, dd.INTRO_RULES):
                k = 2
            else:
                k = 1
            if k < phase:
                return False
            phase = k
    return True
