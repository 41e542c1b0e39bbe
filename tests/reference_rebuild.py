"""The derivation rebuilders and walkers that deduction.rebuild,
deduction.walk and the normalizer's principal walk replaced, kept as test
oracles.

weaken and subst_derivation as deduction had them, and the normalizer's
relabelling, binder renaming, freshening, strengthening and grafting, each
its own recursive walk; _graft after _subst_hygienic is the two-pass
composition that the normalizer's one-rebuild graft replaced.  They recurse
once per derivation level, so they serve only inputs a few hundred levels
deep.

walk with premiss paths, uses_label, and the normalizer's head-cut search,
principal branches and normal-form test as they were, each its own loop,
with the cut patterns and the elimination tables they read.  They copy a
path for every node they visit.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterator, Optional

from realizer import arith
from realizer import deduction as dd
from realizer import normalizer as nz
from realizer.arith import ATerm, TVar, aterm_vars, subst_aterm, subst_formula
from realizer.deduction import (
    CaptureRisk, Context, DeductionError, DischargeMismatch, Derivation, ExistsI, ForallE,
    Ind, RULE_SHAPES, RuleKind, Sequent, free_term_vars,
)
from realizer.normalizer import HeadCut, HygieneError, NormalizationError


# ---------------------------------------------------------------------------
# deduction


def walk(d: Derivation, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    """Every node of d with its premiss path, in preorder."""
    stack = [(path, d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.premisses) - 1, -1, -1):
            stack.append((path + (i,), node.premisses[i]))


def uses_label(d: Derivation, label: str) -> bool:
    """Does any id leaf of d consume the assumption named label?"""
    # a premiss that rebinds the label would shadow it; the checker forbids
    # rebinding, so every id leaf counts
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node.rule, dd.Id) and node.rule.label == label:
            return True
        stack.extend(node.premisses)
    return False


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
    binds = RULE_SHAPES[type(d.rule)].binds
    new_premisses = []
    for i, p in enumerate(d.premisses):
        if i == binds:
            bvar = d.rule.var
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


def weaken(d: Derivation, extra: Context, at: int = 0) -> Derivation:
    """Insert assumptions at position `at` of every context in d.

    Any at <= len(root context) keeps rule shapes intact, since discharge
    always appends at the end.  The new labels must not collide with
    anything in d (freshen first).
    """
    if not 0 <= at <= len(d.conclusion.context):
        raise DeductionError(f"weakening position {at} outside the root context")
    clashes = {lbl for lbl, _ in extra} & dd._labels_inside(d)
    if clashes:
        raise DischargeMismatch(sorted(clashes)[0], "weakening collides with d")

    def go(node: Derivation) -> Derivation:
        ctx = node.conclusion.context
        concl = Sequent(ctx[:at] + tuple(extra) + ctx[at:], node.conclusion.goal)
        return Derivation(node.rule, concl, tuple(go(p) for p in node.premisses))

    return go(d)


# ---------------------------------------------------------------------------
# normalizer


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
    old = d.rule.label
    prem = list(d.premisses)
    for i in dd.RULE_SHAPES[type(d.rule)].discharges:
        prem[i] = _rename_hyp(prem[i], old, new_label)
    return Derivation(dataclasses.replace(d.rule, label=new_label),
                      d.conclusion, tuple(prem))


def _rename_binder(d: Derivation, new_var: str) -> Derivation:
    """Change the variable d's root rule binds, in the rule and its premiss."""
    rule = d.rule
    i, old = dd.RULE_SHAPES[type(rule)].binds, rule.var
    prem = list(d.premisses)
    prem[i] = subst_derivation(prem[i], old, TVar(new_var))
    if isinstance(rule, dd.Ind):
        rule = dataclasses.replace(rule, template=subst_formula(rule.template, old, TVar(new_var)))
    return Derivation(dataclasses.replace(rule, var=new_var), d.conclusion, tuple(prem))


def _freshen_labels(d: Derivation, avoid: set[str]) -> Derivation:
    """Rename every discharging label of d that lies in avoid; d itself
    when none does."""
    if not any(dd.RULE_SHAPES[type(n.rule)].discharges and n.rule.label in avoid
               for _, n in walk(d)):
        return d
    taken = set(avoid) | dd._labels_inside(d)

    def go(node: Derivation) -> Derivation:
        node = Derivation(node.rule, node.conclusion,
                          tuple(go(p) for p in node.premisses))
        rule = node.rule
        if dd.RULE_SHAPES[type(rule)].discharges and rule.label in avoid:
            new = arith._fresh(rule.label, taken)
            taken.add(new)
            node = _relabel(node, new)
        return node

    return go(d)


def _all_term_vars(d: Derivation) -> set[str]:
    """Every variable visible anywhere in d: free, bound, or in a rule term."""
    out: set[str] = set()
    for _, n in walk(d):
        out |= dd._formula_vars_of_node(n)
        out |= dd._rule_term_vars(n.rule)
        if dd.RULE_SHAPES[type(n.rule)].binds is not None:
            out.add(n.rule.var)
    return out


def _renamable_binders(d: Derivation) -> set[str]:
    out = set()
    for _, n in walk(d):
        shape = dd.RULE_SHAPES[type(n.rule)]
        if shape.binds is not None and shape.renamable:
            out.add(n.rule.var)
    return out


def _freshen_binders(d: Derivation, clash: set[str]) -> Derivation:
    """Rename the renamable binders of d away from the clash set; d itself
    when none is in it.

    Binders whose conclusion names the variable (universal introduction,
    complete induction) cannot be renamed without alpha-converting a
    formula; they are left alone and the substitution reports the capture.
    """
    if not _renamable_binders(d) & clash:
        return d
    taken = set(clash) | _all_term_vars(d)

    def go(node: Derivation) -> Derivation:
        node = Derivation(node.rule, node.conclusion, tuple(go(p) for p in node.premisses))
        shape = dd.RULE_SHAPES[type(node.rule)]
        if shape.binds is not None and shape.renamable and node.rule.var in clash:
            nv = arith._fresh(node.rule.var, frozenset(taken))
            taken.add(nv)
            node = _rename_binder(node, nv)
        return node

    return go(d)


def _subst_hygienic(d: Derivation, var: str, t: ATerm) -> Derivation:
    clash = aterm_vars(t)
    if clash:
        d = _freshen_binders(d, set(clash))
    try:
        return subst_derivation(d, var, t)
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
    if _renamable_binders(repl):  # else spare the scan of body
        repl = _freshen_binders(repl, _all_term_vars(body))

    def go(node: Derivation) -> Derivation:
        ctx = node.conclusion.context
        if ctx[pos][0] != label:
            raise NormalizationError(f"label {label} moved inside the graft body")
        new_ctx = ctx[:pos] + ctx[pos + 1:]
        if isinstance(node.rule, dd.Id) and node.rule.label == label:
            extra = new_ctx[pos:]
            return weaken(repl, extra, at=pos) if extra else repl
        return Derivation(node.rule, Sequent(new_ctx, node.conclusion.goal),
                          tuple(go(p) for p in node.premisses))

    return go(body)


# ---------------------------------------------------------------------------
# head cuts and principal branches


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


def _principal_closed_instance(left: Derivation, label: str) -> bool:
    """Is the universal assumption queried at a closed point on a principal
    path of the branch derivation?"""
    stack = [left]
    while stack:
        n = stack.pop()
        if nz._closed_query(n, label):
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
        mt = arith.norm_aterm(node.rule.main, fns)
        if isinstance(mt, arith.TNum) or (isinstance(mt, arith.TApp) and mt.fn == "S"):
            return ""
    return None


def _em_witness_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.EM) and (not uses_label(prem[0], rule.label)
                                    or _principal_closed_instance(prem[0], rule.label)):
        return ""
    return None


def _immediate_simpl_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.OrE):
        if not uses_label(prem[1], rule.label) or not uses_label(prem[2], rule.label):
            return "or"
    if isinstance(rule, dd.ExistsE):
        # the unused witness hypothesis may mention the variable; drop it first
        if (not uses_label(prem[1], rule.label)
                and rule.var not in dd.free_term_vars(nz._strengthen(prem[1], rule.label))):
            return "exists"
    return None


# kind -> pattern, in the order _cut_at tries them
_KINDS = {
    nz.PROPER: _proper_cut,
    nz.EM_PERMUTE: _em_permute_cut,
    nz.OR_EXISTS_PERMUTE: _or_exists_permute_cut,
    nz.IND: _ind_cut,
    nz.EM_WITNESS: _em_witness_cut,
    nz.IMMEDIATE_SIMPL: _immediate_simpl_cut,
}


def _cut_at(node: Derivation, path: tuple[int, ...], fns) -> Optional[HeadCut]:
    for kind, pattern in _KINDS.items():
        detail = pattern(node, fns)
        if detail is not None:
            return HeadCut(path, kind, detail)
    return None


def find_head_cut(d: Derivation, fns=arith.FUNCTIONS) -> Optional[HeadCut]:
    """Outermost head cut on a principal branch, leftmost among equals."""
    queue: deque[tuple[tuple[int, ...], Derivation, bool]] = deque([((), d, True)])
    while queue:
        path, node, principal = queue.popleft()
        if principal:
            cut = _cut_at(node, path, fns)
            if cut is not None:
                return cut
        limited = _major_limited(node.rule)
        for i, p in enumerate(node.premisses):
            queue.append((path + (i,), p, principal and (i == 0 or not limited)))
    return None


def principal_branches(d: Derivation) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Node paths of every principal branch, root first, leaf last."""
    stack = [(d, (), ())]
    while stack:
        node, path, acc = stack.pop()
        acc += (path,)
        if not node.premisses:
            yield acc
            continue
        n = 1 if _major_limited(node.rule) else len(node.premisses)
        stack.extend((node.premisses[i], path + (i,), acc) for i in range(n - 1, -1, -1))


def check_open_normal(d: Derivation, *, fns=arith.FUNCTIONS) -> bool:
    """Structural test for head-normal derivations.

    No head cut remains, arithmetic terms are normal, and read from the
    assumption end every principal branch is a run of eliminations, then
    atomic, induction and excluded-middle rules, then introductions.
    """
    if find_head_cut(d, fns=fns) is not None:
        return False
    if nz.norm_terms(d, fns) != d:
        return False
    for branch in principal_branches(d):
        phase = 0
        for path in reversed(branch[:-1]):
            rule = nz._at(d, path).rule
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
