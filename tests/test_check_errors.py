"""Pinned checker errors on single-fault mutations.

Every corpus derivation and a seeded set of benchmark and test-suite
derivations is mutated at every node, one fault at a time:

  * drop or duplicate a premiss;
  * rename the rule's label to a fresh one, or to a label of the context;
  * give a context entry the label of another entry;
  * change one context entry, or one goal (which is a premiss goal of the
    parent node, or the conclusion at the root);
  * set the rule's variable to one free in the node's or its premisses'
    sequents, or to a fresh one, in the rule alone or also in the premiss
    it binds in;
  * at the root, assume a formula that mentions a rule's variable in every
    context of the derivation.

tests/data/check_errors.json holds, for each mutation, the exception class
and message check_derivation raised (or "ok"), as recorded from the checker
that spelled every rule's premiss count, contexts and eigenvariable
conditions out in its own case.  It is never re-recorded: a difference
means an error class or message moved.
"""

import dataclasses
import json
import random
from pathlib import Path

from realizer import corpus
from realizer import deduction as dd
from realizer.arith import (
    And, Atom, BOT, Exists, Forall, Imply, Or, TVar, free_vars, subst_formula, tnum,
)
from realizer.deduction import Derivation, Sequent

import conftest

FIXTURE = Path(__file__).parent / "data" / "check_errors.json"

# the premiss each variable-binding rule binds its variable in, spelled out
# here so that the mutations do not depend on the checker's own table
_BINDS = {dd.ForallI: 0, dd.ExistsE: 1, dd.Ind: 1, dd.CInd: 0, dd.EM: 1}


def _sources():
    """(name, derivation, rels, fns) for every mutated derivation."""
    pf = corpus.corpus_file()
    for name, d in pf.derivs.items():
        yield f"corpus/{name}", d, pf.rels, pf.fns
    g = conftest.bench_gen()
    rng = g.Stratified("check-errors")
    made = [(f"em-{n}", g.em_chain(rng, n)) for n in (1, 2, 3)]
    made.append(("em-wrapped-2", g.em_chain(rng, 2, True)))
    made.append(("cuts-6", g.sigma01_cuts(rng, list(g.CUT_KINDS))))
    made += [("ind-2", g.ind_n(2)), ("square-4", g.square(4))]
    for seed in range(4):
        made.append((f"conftest-em-{seed}", conftest.em_derivation(random.Random(seed))))
        made.append((f"conftest-sigma01-{seed}",
                     conftest.sigma01_derivation(random.Random(seed), cuts=2)[0]))
    for seed in range(2):
        made.append((f"conftest-open-{seed}", conftest.open_derivation(random.Random(seed))))
    made.append(("conftest-ind", conftest.ind_derivation(random.Random(0))))
    made.append(("conftest-cind", conftest.cind_derivation(random.Random(0))))
    for name, d in made:
        yield name, d, pf.rels, pf.fns


def _twist(f):
    """A formula of f's outer shape that differs from f further in."""
    match f:
        case And(a, b):
            return And(_twist(a), b)
        case Or(a, b):
            return Or(_twist(a), b)
        case Imply(a, b):
            return Imply(a, _twist(b))
        case Forall(v, b) | Exists(v, b):
            return type(f)(v, _twist(b))
    return Atom("=", (tnum(0), tnum(0))) if f == BOT else Imply(f, BOT)


def _node_mutations(n: Derivation):
    """(tag, mutated node) for every single fault at node n."""
    rule, prems = n.rule, n.premisses
    ctx, goal = n.conclusion.context, n.conclusion.goal
    for i in range(len(prems)):
        yield f"drop {i}", Derivation(rule, n.conclusion, prems[:i] + prems[i + 1:])
        yield f"dup {i}", Derivation(rule, n.conclusion, prems[:i + 1] + prems[i:])
    if hasattr(rule, "label"):
        yield "relabel", Derivation(dataclasses.replace(rule, label="zz"), n.conclusion, prems)
        for lbl in dict(ctx):
            if lbl != rule.label:
                yield (f"reuse {lbl}",
                       Derivation(dataclasses.replace(rule, label=lbl), n.conclusion, prems))
    for j, (lbl, f) in enumerate(ctx):
        changed = ctx[:j] + ((lbl, _twist(f)),) + ctx[j + 1:]
        yield f"ctx {j}", Derivation(rule, Sequent(changed, goal), prems)
        if j:
            clash = ctx[:j] + ((ctx[0][0], f),) + ctx[j + 1:]
            yield f"ctx-label {j}", Derivation(rule, Sequent(clash, goal), prems)
    yield "goal wrap", Derivation(rule, Sequent(ctx, And(goal, goal)), prems)
    yield "goal twist", Derivation(rule, Sequent(ctx, _twist(goal)), prems)
    if hasattr(rule, "var"):
        seen = set(free_vars(goal))
        for _, f in ctx:
            seen |= free_vars(f)
        for p in prems:
            seen |= free_vars(p.conclusion.goal)
            for _, f in p.conclusion.context:
                seen |= free_vars(f)
        for v in sorted(seen - {rule.var}) + ["vv"]:
            moved = dataclasses.replace(rule, var=v)
            yield f"var {v}", Derivation(moved, n.conclusion, prems)
            if isinstance(rule, dd.Ind):
                moved = dataclasses.replace(
                    moved, template=subst_formula(rule.template, rule.var, TVar(v)))
            i = _BINDS[type(rule)]
            if i < len(prems):
                try:
                    bound = dd._rename(prems[i], {}, ((rule.var, TVar(v)),))
                except dd.CaptureRisk:
                    continue
                yield (f"rename {v}",
                       Derivation(moved, n.conclusion, prems[:i] + (bound,) + prems[i + 1:]))


def _assumed(d: Derivation, hyp) -> Derivation:
    """d with hyp assumed first in every context."""
    return Derivation(d.rule, Sequent((hyp,) + d.conclusion.context, d.conclusion.goal),
                      tuple(_assumed(p, hyp) for p in d.premisses))


def _mutants(d: Derivation, path=()):
    """(path, tag, whole derivation with one fault at path)."""
    if not path:
        bound = {node.rule.var for node in dd.walk(d) if hasattr(node.rule, "var")}
        for v in sorted(bound):
            yield path, f"open {v}", _assumed(d, ("zz", Atom("=", (TVar(v), TVar(v)))))
    for tag, m in _node_mutations(d):
        yield path, tag, m
    for i, p in enumerate(d.premisses):
        for sub_path, tag, m in _mutants(p, path + (i,)):
            prems = d.premisses[:i] + (m,) + d.premisses[i + 1:]
            yield sub_path, tag, Derivation(d.rule, d.conclusion, prems)


def check_error_records() -> dict[str, str]:
    """Mutation key -> "Class: message" of check_derivation, or "ok"."""
    out = {}
    for name, d, rels, fns in _sources():
        for path, tag, m in _mutants(d):
            key = f"{name} {'.'.join(map(str, path)) or 'root'} {tag}"
            try:
                dd.check_derivation(m, rels, fns)
                out[key] = "ok"
            except Exception as e:  # noqa: BLE001 - any class is pinned
                out[key] = f"{type(e).__name__}: {e}"
    return out


def test_single_fault_errors_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = check_error_records()
    assert got.keys() == expected.keys()
    moved = {k: (expected[k], got[k]) for k in expected if got[k] != expected[k]}
    assert not moved, f"{len(moved)} moved, e.g. {next(iter(moved.items()))}"
