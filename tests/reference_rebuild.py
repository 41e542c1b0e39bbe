"""The recursive derivation rebuilders that deduction.rebuild replaced,
kept as a test oracle.

weaken and subst_derivation as deduction had them, and the normalizer's
relabelling, binder renaming, freshening, strengthening and grafting, each
its own recursive walk.  They recurse once per derivation level, so they
serve only inputs a few hundred levels deep.
"""

from __future__ import annotations

import dataclasses

from realizer import arith
from realizer import deduction as dd
from realizer.arith import ATerm, TVar, aterm_vars, subst_aterm, subst_formula
from realizer.deduction import (
    CaptureRisk, Context, DeductionError, DischargeMismatch, Derivation, ExistsI, ForallE,
    Ind, RULE_SHAPES, RuleKind, Sequent, free_term_vars,
)
from realizer.normalizer import HygieneError, NormalizationError


# ---------------------------------------------------------------------------
# deduction


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
               for _, n in dd.walk(d)):
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
    for _, n in dd.walk(d):
        out |= dd._formula_vars_of_node(n)
        out |= dd._rule_term_vars(n.rule)
        if dd.RULE_SHAPES[type(n.rule)].binds is not None:
            out.add(n.rule.var)
    return out


def _renamable_binders(d: Derivation) -> set[str]:
    out = set()
    for _, n in dd.walk(d):
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
