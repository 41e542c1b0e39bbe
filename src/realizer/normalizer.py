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

Two further families are Prawitz's (1965) permutative conversions and
immediate simplifications: eliminations permute inside or/exists
eliminations the same way, and or/exists eliminations whose minor branch
ignores its hypothesis collapse to that branch.  The six families are the
one reduction set.

Each kind has one entry in the table _KINDS: a pattern that tells whether a
node is a head cut of that kind (and names its detail, e.g. "and-left"), and
the reducer that rewrites such a node.
One breadth-first walk, _principal, yields the nodes on principal branches,
outermost first and left to right among equals, each with a parent-link
trail.  find_head_cut tries the patterns in table order at each of them and
builds a premiss path only for the cut it returns; the excluded-middle
witness pattern looks for closed queries along the left branch's principal
branches; check_open_normal compares rule phases across each principal
edge.  apply_head_reduction re-runs the cut's pattern, so a stale cut raises
InvalidCut, and then calls its reducer.  Both permutation kinds share one
reducer, which pushes the elimination into every branch of the discharging
rule above it.  Which premisses a rule discharges its label in, and which
one binds its variable, is read from deduction.RULE_SHAPES, by that reducer
and by the relabelling and binder renaming that keep grafts hygienic.  Every
reducer rewrites through deduction.rebuild, one local edit per node on an
explicit stack: grafting, substituting, weakening, strengthening and
renaming handle bodies of any depth, and norm_terms is one more edit
through it.  A reduction that substitutes into a minor premiss and grafts
a proof in for its hypothesis (existence elimination, induction, an
answered excluded middle) does both in one rebuild, so it builds each node
of the premiss once: one walk before it, _scan, collects the labels and
the term variables the premiss has once substituted, and the grafted
proof's discharges and binders are renamed apart from them.

Reductions preserve the root sequent and never invent assumptions or free
term variables.  After every rewrite normalize_derivation term-normalizes
the tree, checks it and scans it for free term variables, and raises
HygieneError if a rewrite would need alpha-renaming that the syntactic
formula identity cannot express.  Nodes are immutable and a node's validity
depends only on itself and its premisses' conclusions, so these passes
remember the nodes they have visited, by identity, for the length of the
call: a rewrite builds a few new nodes and carries the rest over, and only
the new ones are visited.  extract_witness drives a closed derivation of
ex x A (A atomic) to its normal form, which must end with the existence
introduction naming a correct witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
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
from .sexpr import print_aterm, print_formula, print_sequent

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


# elimination -> its name in cut details, and the introductions it cuts
# against; proper cuts drop the side: "and-left" and "and-right" are both "and"
_ELIMINATIONS: dict[type, tuple[str, tuple[type, ...]]] = {
    dd.AndEL: ("and-left", (dd.AndI,)),
    dd.AndER: ("and-right", (dd.AndI,)),
    dd.OrE: ("or", (dd.OrIL, dd.OrIR)),
    dd.ImplyE: ("imply", (dd.ImplyI,)),
    dd.ForallE: ("forall", (dd.ForallI,)),
    dd.ExistsE: ("exists", (dd.ExistsI,)),
}


# a principal branch enters these rules through their major premiss only
_MAJOR_ONLY = (*dd.ELIM_RULES, dd.EM)


def _principal_premisses(node: Derivation) -> tuple[Derivation, ...]:
    return node.premisses[:1] if isinstance(node.rule, _MAJOR_ONLY) else node.premisses


def _principal(d: Derivation) -> Iterator[tuple[Derivation, dd.Trail]]:
    """Every node on a principal branch of d with its trail, breadth first:
    outermost first, left to right among equals."""
    queue: deque[tuple[Derivation, dd.Trail]] = deque([(d, None)])
    while queue:
        node, trail = queue.popleft()
        yield node, trail
        for i, p in enumerate(_principal_premisses(node)):
            queue.append((p, (trail, i)))


def _at(d: Derivation, path: tuple[int, ...]) -> Derivation:
    node = d
    for i in path:
        if not 0 <= i < len(node.premisses):
            raise InvalidCut(f"no node at {path}")
        node = node.premisses[i]
    return node


def _replace(d: Derivation, path: tuple[int, ...], sub: Derivation) -> Derivation:
    """d with sub at path; only the spine above it is rebuilt."""
    def enter(node: Derivation, depth: int) -> dd.Edit:
        if depth == len(path):
            return sub
        states = [None] * len(node.premisses)
        states[path[depth]] = depth + 1
        return node.rule, node.conclusion, states
    return dd.rebuild(d, enter, 0)


def _closed_query(n: Derivation, label: str) -> bool:
    """Does n query the universal assumption label at a closed point?"""
    return (isinstance(n.rule, dd.ForallE) and len(n.premisses) == 1
            and n.premisses[0].rule == dd.Id(label) and not free_vars(n.conclusion.goal))


def _major(node: Derivation):
    """The major premiss's rule when node is an elimination."""
    if isinstance(node.rule, dd.ELIM_RULES) and node.premisses:
        return node.premisses[0].rule
    return None


# Each pattern returns the cut's detail ("" when it has none) if the node is
# a head cut of its kind, and None otherwise.


def _proper_cut(node: Derivation, fns) -> Optional[str]:
    name, intros = _ELIMINATIONS.get(type(node.rule), ("", ()))
    return name.partition("-")[0] if isinstance(_major(node), intros) else None


def _em_permute_cut(node: Derivation, fns) -> Optional[str]:
    return _ELIMINATIONS[type(node.rule)][0] if isinstance(_major(node), dd.EM) else None


def _or_exists_permute_cut(node: Derivation, fns) -> Optional[str]:
    major = _major(node)
    return _ELIMINATIONS[type(major)][0] if isinstance(major, (dd.OrE, dd.ExistsE)) else None


def _ind_cut(node: Derivation, fns) -> Optional[str]:
    if isinstance(node.rule, dd.Ind):
        if arith.view(norm_aterm(node.rule.main, fns))[0] in ("0", "S"):
            return ""
    return None


def _em_witness_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.EM) and (
            not dd.uses_label(prem[0], rule.label)
            or any(_closed_query(n, rule.label) for n, _ in _principal(prem[0]))):
        return ""
    return None


def _immediate_simpl_cut(node: Derivation, fns) -> Optional[str]:
    rule, prem = node.rule, node.premisses
    if isinstance(rule, dd.OrE):
        if not dd.uses_label(prem[1], rule.label) or not dd.uses_label(prem[2], rule.label):
            return "or"
    if isinstance(rule, dd.ExistsE):
        # the unused witness hypothesis may mention the variable; drop it first
        if (not dd.uses_label(prem[1], rule.label)
                and rule.var not in dd.free_term_vars(_strengthen(prem[1], rule.label))):
            return "exists"
    return None


def find_head_cut(
    d: Derivation,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
) -> Optional[HeadCut]:
    """Outermost head cut on a principal branch, leftmost among equals."""
    for node, trail in _principal(d):
        for kind, (pattern, _) in _KINDS.items():
            detail = pattern(node, fns)
            if detail is not None:
                return HeadCut(dd._path(trail), kind, detail)
    return None


# ---------------------------------------------------------------------------
# hygiene: renaming, grafting, strengthening


def _scan(d: Derivation, sub: Optional[tuple[str, ATerm]] = None,
          picks: Mapping[int, tuple] = {}) -> tuple[set, set]:
    """The labels of d, as dd._labels_inside collects them, and every term
    variable visible anywhere in d, free, bound or in a rule term, both as
    they are once dd._rename(d, picks, (sub,)) has renamed and substituted,
    in one walk.

    Each node's variables are mapped as its formulas and rule terms would
    be: a renamed binder's old name becomes its new one in its premiss, and
    where sub = (var, t) reaches, var gives way to t's variables.  A binder
    stops both for its own variable, as the rebuild does; the rebuild's
    renaming and capture-avoiding substitution move free variables no other
    way.  The walk builds nothing.
    """
    labels: set[str] = set()
    names: set[str] = set()
    var, t_vars = (None, ()) if sub is None else (sub[0], aterm_vars(sub[1]))
    count = -1
    # a node, the renamings above it, and whether sub reaches it
    stack: list[tuple[Derivation, dict, bool]] = [(d, {}, sub is not None)]
    while stack:
        node, renamed, on = stack.pop()
        count += 1
        rule, concl = node.rule, node.conclusion
        shape = dd.RULE_SHAPES[type(rule)]
        labels.update(map(itemgetter(0), concl.context))
        if isinstance(rule, dd.Id) or shape.discharges:
            labels.add(rule.label)
        vs = free_vars(concl.goal).union(*(free_vars(f) for _, f in concl.context),
                                         dd._rule_term_vars(rule))
        if renamed:
            vs = {renamed.get(v, v) for v in vs}
        if on and var in vs:
            vs = (vs - {var}) | t_vars
        names |= vs
        inner = renamed, on
        if shape.binds is not None:
            old, new = rule.var, picks.get(count, (None, None))[1]
            names.add(old if new is None else new)
            inside = {k: v for k, v in renamed.items() if k != old}
            if new is not None:
                inside[old] = new
            inner = inside, on and var != old and var != new
        for i in range(len(node.premisses) - 1, -1, -1):
            stack.append((node.premisses[i], *(inner if i == shape.binds else (renamed, on))))
    return labels, names


def _freshen(d: Derivation, against) -> Derivation:
    """Rename the discharge labels of d that clash with the labels
    against() returns, and its renamable binders that clash with the term
    variables it returns; d itself when none does.

    against(binders) is called once, when d has a name to rename, with
    whether d has a renamable binder; without one it need not return the
    term variables.  New names are picked in postorder, each fresh for d,
    the clash sets and the names picked before it; then one rebuild renames
    them all.  Binders whose conclusion names the variable (universal
    introduction, complete induction) cannot be renamed without
    alpha-converting a formula; they are left alone and a substitution
    reports the capture.
    """
    picks = _picks(d, against)
    return dd._rename(d, picks) if picks else d


def _picks(d: Derivation, against) -> dict[int, tuple[Optional[str], Optional[str]]]:
    """_freshen's new names: {preorder position: (label, variable)}."""
    # one walk: the nodes with a name to rename, in postorder, with their
    # preorder positions, their discharge labels and their renamable binders
    named: list[tuple[int, Optional[str], Optional[str]]] = []
    count = 0
    stack: list[tuple[Derivation, Optional[tuple]]] = [(d, None)]  # with its entry once entered
    while stack:
        node, entry = stack.pop()
        if entry is not None:
            named.append(entry)
            continue
        shape = dd.RULE_SHAPES[type(node.rule)]
        label = node.rule.label if shape.discharges else None
        var = node.rule.var if shape.binds is not None and shape.renamable else None
        if label is not None or var is not None:
            stack.append((node, (count, label, var)))
        count += 1
        stack.extend((p, None) for p in reversed(node.premisses))
    if not named:
        return {}
    clash = against(any(var is not None for _, _, var in named))
    picks: dict[int, tuple[Optional[str], Optional[str]]] = {}
    taken = None  # the clash sets with d's names
    for k, label, var in named:
        relabel = label is not None and label in clash[0]
        rebind = var is not None and var in clash[1]
        if not (relabel or rebind):
            continue
        if taken is None:
            taken = tuple(set(c) | n for c, n in zip(clash, _scan(d)))
        new_label = new_var = None
        if relabel:
            new_label = arith._fresh(label, taken[0])
            taken[0].add(new_label)
        if rebind:
            new_var = arith._fresh(var, taken[1])
            taken[1].add(new_var)
        picks[k] = new_label, new_var
    return picks


def _clear_of(d: Derivation, t: ATerm) -> dict[int, tuple[Optional[str], Optional[str]]]:
    """The picks that rename d's renamable binders away from t's variables."""
    clash = aterm_vars(t)
    return _picks(d, lambda _: ((), clash)) if clash else {}


def _subst_hygienic(d: Derivation, var: str, t: ATerm) -> Derivation:
    """d[var := t], its binders renamed away from t's variables first; one rebuild."""
    try:
        return dd._rename(d, _clear_of(d, t), ((var, t),))
    except dd.CaptureRisk as e:
        raise HygieneError(str(e)) from e


def _strengthen(d: Derivation, label: str) -> Derivation:
    """Drop an unused hypothesis from every context of d."""
    def enter(n: Derivation, _) -> dd.Edit:
        ctx = tuple((l, f) for l, f in n.conclusion.context if l != label)
        return n.rule, Sequent(ctx, n.conclusion.goal), (True,) * len(n.premisses)
    return dd.rebuild(d, enter)


def _graft(body: Derivation, label: str, repl: Derivation,
           sub: Optional[tuple[str, ATerm]] = None) -> Derivation:
    """body[var := t], for sub = (var, t), with every id leaf for label
    replaced by repl and the hypothesis dropped from all contexts.

    repl must conclude the hypothesis formula in the context body sees
    before the label's position; discharge only ever appends, so the label
    keeps one position throughout body and repl can be weakened into place.
    It is what _subst_hygienic and then grafting into the result would give,
    names included, made by one rebuild of body: body's binders are renamed
    away from t's variables, and repl's discharges and binders away from the
    labels and the term variables that body has once substituted, which one
    walk of body collects when repl has a name to rename; its labels alone
    when repl has no binder to rename.
    """
    root_ctx = body.conclusion.context
    pos = next((i for i, (l, _) in enumerate(root_ctx) if l == label), None)
    if pos is None:
        raise NormalizationError(f"label {label} is not free at the graft root")
    picks = _clear_of(body, sub[1]) if sub else {}
    repl = _freshen(repl, lambda binders: _scan(body, sub, picks) if binders
                    else (dd._labels_inside(body), ()))
    try:
        return dd._rename(body, picks, (sub,) if sub else (), (pos, repl))
    except dd.CaptureRisk as e:
        raise HygieneError(str(e)) from e


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
            return _graft(node.premisses[1], label, major.premisses[0], (var, major.rule.term))


def _reduce_ind(node: Derivation, rels, fns) -> Derivation:
    rule = node.rule
    base, step = node.premisses
    head, args = arith.view(norm_aterm(rule.main, fns))
    if head == "0":
        return base
    below = args[0]
    inner = Derivation(
        dd.Ind(rule.label, rule.var, rule.template, below),
        Sequent(node.conclusion.context, subst_formula(rule.template, rule.var, below)),
        (base, step),
    )
    return _graft(step, rule.label, inner, (rule.var, below))


def _reduce_em_witness(node: Derivation, rels, fns) -> Derivation:
    rule = node.rule
    left, right = node.premisses
    univ = left.conclusion.lookup(rule.label)
    refuted = next(
        (n for n in dd.walk(left) if _closed_query(n, rule.label)
         and not atomic_truth(norm_formula(n.conclusion.goal, fns), rels, fns)),
        None,
    )
    if refuted is None:
        # every known instance holds: answer the queries with the atom axiom
        def enter(n: Derivation, _) -> dd.Edit:
            if _closed_query(n, rule.label):
                return Derivation(dd.AtomI(), n.conclusion)
            return n.rule, n.conclusion, (True,) * len(n.premisses)
        new_left = dd.rebuild(left, enter)
        if dd.uses_label(new_left, rule.label):
            return Derivation(rule, node.conclusion, (new_left, right))
        return _strengthen(new_left, rule.label)
    # a refuted instance: its value realizes the existential branch
    t = refuted.rule.term
    num = norm_aterm(t, fns) if not aterm_vars(t) else tnum(0)
    inst = norm_formula(subst_formula(univ.body, univ.var, num), fns)
    # substituting leaves the labels of right as they are
    ctx = node.conclusion.context
    beta = arith._fresh("r", {l for l, _ in ctx} | dd._labels_inside(right))
    bctx = ctx + ((beta, inst),)
    refutation = Derivation(
        dd.ImplyI(beta),
        Sequent(ctx, Imply(inst, BOT)),
        (Derivation(dd.AtomE(), Sequent(bctx, BOT),
                    (Derivation(dd.Id(beta), Sequent(bctx, inst)),)),),
    )
    return _graft(right, rule.label, refutation, (rule.var, num))


def _reduce_permute(node: Derivation, rels, fns) -> Derivation:
    """Push an elimination into the branches of its discharging major premiss."""
    split, *minors = node.premisses
    ctx, goal = node.conclusion.context, node.conclusion.goal
    shape = dd.RULE_SHAPES[type(split.rule)]

    # rename the split's label and variable away from the minors; one walk
    # of each minor collects its names, and one of the split when one clashes
    names = [_scan(m) for m in minors]
    clash_labels = set().union(*(labels for labels, _ in names))
    clash_vars = free_vars(goal).union(dd._rule_term_vars(node.rule), *(vs for _, vs in names))
    relabel = split.rule.label in clash_labels
    rebind = shape.binds is not None and split.rule.var in clash_vars
    renamed = split
    if relabel or rebind:
        labels, term_vars = _scan(split)
        renamed = dd._rename(split, {0: (
            arith._fresh(split.rule.label, clash_labels | labels) if relabel else None,
            arith._fresh(split.rule.var, clash_vars | term_vars) if rebind else None)})

    # discharge appends, so each branch's hypothesis is its last context
    # entry; its label, the split's, is apart from the minors' labels now,
    # which is the check weaken would make of each minor
    hyps = [renamed.premisses[i].conclusion.context[-1] for i in shape.discharges]

    # keep the elimination's own binder fresh for the hypotheses moving above it
    if dd.RULE_SHAPES[type(node.rule)].binds is not None:
        bad = set().union(*(free_vars(f) for _, f in hyps))
        if node.rule.var in bad:
            taken = bad | _scan(node)[1]
            node = dd._rename(node, {0: (None, arith._fresh(node.rule.var, taken))})
    erule, minors = node.rule, node.premisses[1:]

    prem = list(renamed.premisses)
    for i, hyp in zip(shape.discharges, hyps):
        wminors = (dd._weaken(m, (hyp,), len(ctx)) for m in minors)
        prem[i] = Derivation(erule, Sequent(ctx + (hyp,), goal), (prem[i], *wminors))
    return Derivation(renamed.rule, node.conclusion, tuple(prem))


def _reduce_immediate_simpl(node: Derivation, rels, fns) -> Derivation:
    label = node.rule.label
    branch = next(b for b in node.premisses[1:] if not dd.uses_label(b, label))
    return _strengthen(branch, label)


# kind -> (pattern, reducer); find_head_cut tries the kinds in this order
_KINDS = {
    PROPER: (_proper_cut, _reduce_proper),
    EM_PERMUTE: (_em_permute_cut, _reduce_permute),
    OR_EXISTS_PERMUTE: (_or_exists_permute_cut, _reduce_permute),
    IND: (_ind_cut, _reduce_ind),
    EM_WITNESS: (_em_witness_cut, _reduce_em_witness),
    IMMEDIATE_SIMPL: (_immediate_simpl_cut, _reduce_immediate_simpl),
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
    pattern, reduce = _KINDS[cut.kind]
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


def norm_terms(
    d: Derivation,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
    memo: Optional[dict] = None,
) -> Derivation:
    """Collapse closed arithmetic subterms to numerals everywhere.

    The posited equality rules constrain their premiss and conclusion shapes
    syntactically, so goals touching one of those nodes keep their terms.
    A node whose terms are already normal is returned as itself.  memo, when
    given, maps (id(node), keep_goal) to (node, result) for nodes already
    normalized, results included, and receives the rest; normalize_derivation
    shares one across its rewrites, so each node is normalized once.
    """
    def enter(node: Derivation, keep: bool) -> dd.Edit:
        post = isinstance(node.rule, dd.AtomPost)
        return (dd._map_rule(node.rule, norm_aterm, norm_formula, fns),
                dd._map_sequent(node.conclusion, keep or post, norm_formula, fns),
                (post,) * len(node.premisses))
    return dd.rebuild(d, enter, False, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# the loop


@arith.interned
def normalize_derivation(
    d: Derivation,
    fuel: int = DEFAULT_FUEL,
    *,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
    trace: Optional[list[str]] = None,
    checked: Optional[dd.Memo] = None,
    scanned: Optional[dd.Memo] = None,
) -> Derivation:
    """Rewrite until no head cut remains along any principal branch.

    d is checked first.  The root sequent is preserved (up to term
    normalization) and the tree is term-normalized, checked and scanned for
    free term variables after every rewrite.  Each of the three passes has
    a memo keyed by node identity that lives for this call, so a node is
    visited once: after a rewrite only the nodes the reducer built are, and
    the subtrees it carried over are skipped.  checked and scanned, when
    given, are the memos of the caller's own check and scan of d under the
    same tables, carried on.  Fuel bounds the number of rewrites and
    FuelExhausted carries the partly reduced derivation.  trace, when
    given, gets a line per rewrite: its kind, its path and a stamp, 12 hex
    digits of the SHA-1 of the rewritten node's sequent as `sexpr` prints it.
    """
    normed: dict = {}
    checked = {} if checked is None else checked
    scanned = {} if scanned is None else scanned
    if id(d) not in checked:
        dd.check_derivation(d, rels, fns, checked)
    d = norm_terms(d, fns, normed)
    root = d.conclusion
    base_vars = dd.free_term_vars(d, scanned)
    steps = 0
    while True:
        cut = find_head_cut(d, fns=fns)
        if cut is None:
            return d
        if steps >= fuel:
            raise FuelExhausted(steps, d)
        d = norm_terms(apply_head_reduction(d, cut, rels, fns), fns, normed)
        steps += 1
        try:
            dd.check_derivation(d, rels, fns, checked)
        except dd.DeductionError as e:
            raise HygieneError(
                f"{cut.kind} rewrite at {cut.path} broke the derivation: {e}") from e
        if not _sequent_eq(d.conclusion, root, fns):
            raise NormalizationError(
                f"internal: {cut.kind} rewrite changed the root sequent")
        if not dd.free_term_vars(d, scanned) <= base_vars:
            raise HygieneError(
                f"{cut.kind} rewrite at {cut.path} freed a term variable")
        if trace is not None:
            import hashlib  # here alone: it loads OpenSSL, which costs every CLI process memory

            where = ".".join(map(str, cut.path)) or "root"
            text = print_sequent(_at(d, cut.path).conclusion)
            stamp = hashlib.sha1(text.encode()).hexdigest()[:12]
            kind = f"{cut.kind}/{cut.detail}" if cut.detail else cut.kind
            trace.append(f"{kind} at {where} -> {stamp}")


@arith.interned
def extract_witness(
    d: Derivation,
    fuel: int = DEFAULT_FUEL,
    *,
    rels: Mapping[str, Relation] = arith.RELATIONS,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
    trace: Optional[list[str]] = None,
) -> tuple[int, Derivation]:
    """Normalize a closed derivation of ex x A (A atomic) and read off the
    witness named by its final existence introduction."""
    checked: dd.Memo = {}
    scanned: dd.Memo = {}
    dd.check_derivation(d, rels, fns, checked)
    if d.conclusion.context:
        raise NotClosed("the derivation has open assumptions")
    if dd.free_term_vars(d, scanned):
        raise NotClosed("the derivation has free term variables")
    goal = d.conclusion.goal
    if not (isinstance(goal, Exists) and isinstance(goal.body, Atom)):
        raise NotSimplyExistential(
            f"goal is not an existential atom: {print_formula(goal, brief=True)}")
    nd = normalize_derivation(d, fuel, rels=rels, fns=fns, trace=trace,
                              checked=checked, scanned=scanned)
    if not isinstance(nd.rule, dd.ExistsI):
        raise ShapeViolation(
            f"normal form ends with {type(nd.rule).__name__}, not an existence introduction")
    term = nd.rule.term
    if aterm_vars(term):
        raise ShapeViolation(f"the witness term {print_aterm(term, brief=True)} is open")
    value = reduce_aterm(term, {}, fns)
    matrix = norm_formula(subst_formula(goal.body, goal.var, tnum(value)), fns)
    if not atomic_truth(matrix, rels, fns):
        raise ShapeViolation(
            f"witness {value} does not satisfy {print_formula(matrix, brief=True)}")
    return value, nd


# ---------------------------------------------------------------------------
# shape of normal derivations


def _phase(rule: dd.RuleKind) -> int:
    """Eliminations 0, introductions 2, every other rule 1."""
    if isinstance(rule, dd.ELIM_RULES):
        return 0
    return 2 if isinstance(rule, dd.INTRO_RULES) else 1


def check_open_normal(
    d: Derivation,
    *,
    fns: Mapping[str, PrimFn] = arith.FUNCTIONS,
) -> bool:
    """Structural test for head-normal derivations.

    No head cut remains, arithmetic terms are normal, and read from the
    assumption end every principal branch is a run of eliminations, then
    atomic, induction and excluded-middle rules, then introductions.
    """
    if find_head_cut(d, fns=fns) is not None:
        return False
    if norm_terms(d, fns) != d:
        return False
    # so, leaves aside, no principal premiss is in a later phase than its rule
    for node, _ in _principal(d):
        k = _phase(node.rule)
        if any(p.premisses and _phase(p.rule) > k for p in _principal_premisses(node)):
            return False
    return True
