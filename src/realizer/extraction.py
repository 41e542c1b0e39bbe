"""Extraction of monadic realizers from derivations.

Every formula A has a type of potential realizers |A| and a type of
computations ||A|| = T|A|, T being the monad's type operator:

    |atom|     = Unit             |A and B|  = |A| x |B|
    |A or B|   = |A| + |B|        |A -> B|   = |A| -> T|B|
    |all x B|  = Nat -> T|B|      |ex x B|   = Nat x |B|

decorate walks a derivation and emits a term of type ||goal||, compositional
in the premisses' decorations.  Introduction rules and the axioms lift pure
functions with raise^k; eliminations sequence computations with star^k.
Complete induction becomes a guarded-free recursor; the excluded-middle rule
over an atomic matrix P(ts, x) becomes a case split on a canonical guess
realizer that consults the knowledge state:

    query P s ts  unknown:  claim "all x P", each instance checked by eval
                            (which raises a counterexample on a false one)
    query P s ts  answers m:  claim "not P(ts, m)" with witness m

The guess is honest only against the run-time state, which is why realizers
of classical proofs are run under the learning loop rather than once.

Hypothesis labels and rule-bound first-order variables both live in one
de Bruijn environment, so decorations of open sub-derivations carry free
variables; extract closes over the root context and demands that no
first-order variable stays free.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import arith, deduction as dd, monads as mn, terms as tm
from .arith import And, Atom, ATerm, Exists, Forall, Formula, Imply, Or, TApp, TVar
from .terms import App, Lam, Term, TArrow, TProd, TSum, Ty, app, shift


class ExtractionError(Exception):
    pass


class UnsupportedRule(ExtractionError):
    pass


class OpenDerivation(ExtractionError):
    pass


# ---------------------------------------------------------------------------
# realizer types


def realizer_type(f: Formula, m: mn.MonadSpec = mn.INTERACTIVE) -> Ty:
    """|f|, the type of potential realizers of f under the monad m."""
    match f:
        case Atom():
            return tm.UNIT
        case And(a, b):
            return TProd(realizer_type(a, m), realizer_type(b, m))
        case Or(a, b):
            return TSum(realizer_type(a, m), realizer_type(b, m))
        case Imply(a, b):
            return TArrow(realizer_type(a, m), computation_type(b, m))
        case Forall(_, b):
            return TArrow(tm.NAT, computation_type(b, m))
        case Exists(_, b):
            return TProd(tm.NAT, realizer_type(b, m))
    raise ExtractionError(f"not a formula: {f!r}")


def computation_type(f: Formula, m: mn.MonadSpec = mn.INTERACTIVE) -> Ty:
    """||f|| = T|f|."""
    return m.type_op(realizer_type(f, m))


# ---------------------------------------------------------------------------
# environments: one de Bruijn scope for labels and first-order variables

Entry = tuple[str, str]  # ("lbl", name) or ("tvar", name)
Env = tuple[Entry, ...]  # index 0 is the innermost binding

# the binder of an administrative lambda, which no lookup finds
_ADMIN: Entry = ("admin", "")


def _push(env: Env, *entries: Entry) -> Env:
    # entries listed outermost first, so push order reverses them
    out = env
    for e in entries:
        out = (e,) + out
    return out


def _lookup(env: Env, entry: Entry) -> int:
    for i, e in enumerate(env):
        if e == entry:
            return i
    kind, name = entry
    what = "hypothesis" if kind == "lbl" else "term variable"
    raise ExtractionError(f"{what} {name!r} is not bound here")


def term_to_nat(t: ATerm, env: Env, fns: Mapping[str, arith.PrimFn]) -> Term:
    """The Nat-typed term denoting a first-order term, variables via env."""
    match t:
        case TVar(name):
            return tm.Var(_lookup(env, ("tvar", name)))
        case TApp("0", ()):
            return tm.zero
        case TApp("S", (a,)):
            return App(tm.succ, term_to_nat(a, env, fns))
        case TApp(fn, args):
            if fn not in fns:
                raise ExtractionError(f"unknown function symbol {fn!r}")
            return app(tm.prim_c(fn, fns[fn]), *(term_to_nat(a, env, fns) for a in args))
    raise ExtractionError(f"not a first-order term: {t!r}")


# ---------------------------------------------------------------------------
# the canonical guess realizer for one excluded-middle instance


def em_realizer(rel: str, params: tuple[Term, ...], m: mn.MonadSpec = mn.INTERACTIVE) -> Term:
    """Realizer of (all x P) or (ex y not P) for the atom P = rel(params, x).

    params are Nat-typed terms for every argument but the quantified last
    one.  Only the interactive monad can carry the guess, since it consults
    the state and raises counterexamples.
    """
    if m.name != "ir":
        raise UnsupportedRule("excluded middle extracts only under the interactive monad")
    k = len(params)
    t_unit = m.type_op(tm.UNIT)
    left = TArrow(tm.NAT, t_unit)  # |all x P|
    not_p = TArrow(tm.UNIT, t_unit)  # |not P|
    right = TProd(tm.NAT, not_p)  # |ex y not P|
    guess = TSum(left, right)

    # under lam s. ... lam u. lam y. lam s'. the params shift by 4
    fwd = Lam(
        tm.NAT,
        Lam(tm.STATE, app(tm.eval_c(rel, k), *(shift(p, 4) for p in params), tm.Var(1))),
    )
    on_unknown = Lam(tm.UNIT, App(tm.inl_c(left, right), fwd))
    refuter = Lam(tm.UNIT, Lam(tm.STATE, App(tm.inl_c(tm.UNIT, tm.EX), tm.unit_const)))
    on_witness = Lam(
        tm.NAT,
        App(tm.inr_c(left, right), app(tm.pair_c(tm.NAT, not_p), tm.Var(0), refuter)),
    )
    q = app(tm.query_c(rel, k), tm.Var(0), *(shift(p, 1) for p in params))
    body = app(tm.case_c(tm.UNIT, tm.NAT, guess), q, on_unknown, on_witness)
    return Lam(tm.STATE, App(tm.inl_c(guess, tm.EX), body))


def _em_split(univ: Forall) -> tuple[str, tuple[ATerm, ...]]:
    """(relation, parameter terms) of a universal atom in guessable form.

    The quantified variable must be exactly the last argument and occur
    nowhere else; the knowledge state keys on the remaining ones.
    """
    p = univ.body
    if not isinstance(p, Atom):
        raise UnsupportedRule("excluded middle needs an atomic matrix")
    if not p.args or p.args[-1] != TVar(univ.var):
        raise UnsupportedRule(
            "the quantified variable must be the last argument of the matrix"
        )
    for a in p.args[:-1]:
        if univ.var in arith.aterm_vars(a):
            raise UnsupportedRule(
                "the quantified variable may occur only in the last argument"
            )
    return p.rel, p.args[:-1]


# ---------------------------------------------------------------------------
# decoration


def _decorate(d: dd.Derivation, env: Env, m: mn.MonadSpec, fns) -> Term:
    goal = d.conclusion.goal
    prems = d.premisses

    def rec(i: int, *entries: Entry) -> Term:
        return _decorate(prems[i], _push(env, *entries), m, fns)

    def rt(f: Formula) -> Ty:
        return realizer_type(f, m)

    def atomic_lift() -> Term:
        k = len(prems)
        f: Term = tm.unit_const
        for _ in range(k):
            f = Lam(tm.UNIT, f)
        lift = mn.raise_n(m, k, (tm.UNIT,) * k, tm.UNIT)
        return app(lift, f, *(rec(i) for i in range(k)))

    match d.rule:
        case dd.Id(label):
            a = d.conclusion.lookup(label)
            lift = mn.raise_n(m, 0, (), rt(a))
            return App(lift, tm.Var(_lookup(env, ("lbl", label))))
        case dd.AtomI() | dd.AtomE() | dd.AtomPost() | dd.FalseE0():
            return atomic_lift()
        case dd.AndI():
            a, b = rt(goal.left), rt(goal.right)
            lift = mn.raise_n(m, 2, (a, b), TProd(a, b))
            return app(lift, tm.pair_c(a, b), rec(0), rec(1))
        case dd.AndEL() | dd.AndER():
            major = prems[0].conclusion.goal
            a, b = rt(major.left), rt(major.right)
            proj = tm.prl_c(a, b) if isinstance(d.rule, dd.AndEL) else tm.prr_c(a, b)
            side = a if isinstance(d.rule, dd.AndEL) else b
            return app(mn.raise_n(m, 1, (TProd(a, b),), side), proj, rec(0))
        case dd.OrIL() | dd.OrIR():
            a, b = rt(goal.left), rt(goal.right)
            inj = tm.inl_c(a, b) if isinstance(d.rule, dd.OrIL) else tm.inr_c(a, b)
            side = a if isinstance(d.rule, dd.OrIL) else b
            return app(mn.raise_n(m, 1, (side,), TSum(a, b)), inj, rec(0))
        case dd.OrE(label):
            major = prems[0].conclusion.goal
            a, b, c = rt(major.left), rt(major.right), rt(goal)
            on_l = rec(1, _ADMIN, ("lbl", label))
            on_r = rec(2, _ADMIN, ("lbl", label))
            f = Lam(
                TSum(a, b),
                app(
                    tm.case_c(a, b, m.type_op(c)),
                    tm.Var(0),
                    Lam(a, on_l),
                    Lam(b, on_r),
                ),
            )
            return app(mn.star_n(m, 1, (TSum(a, b),), c), f, rec(0))
        case dd.ImplyI(label):
            f = Lam(rt(goal.left), rec(0, ("lbl", label)))
            return App(mn.raise_n(m, 0, (), rt(goal)), f)
        case dd.ImplyE():
            major = prems[0].conclusion.goal
            fn_ty, arg_ty = rt(major), rt(major.left)
            f = Lam(fn_ty, Lam(arg_ty, App(tm.Var(1), tm.Var(0))))
            lift = mn.star_n(m, 2, (fn_ty, arg_ty), rt(major.right))
            return app(lift, f, rec(0), rec(1))
        case dd.ForallI(var):
            f = Lam(tm.NAT, rec(0, ("tvar", var)))
            return App(mn.raise_n(m, 0, (), rt(goal)), f)
        case dd.ForallE(term):
            major = prems[0].conclusion.goal
            body_rt = rt(major.body)
            f = Lam(rt(major), App(tm.Var(0), term_to_nat(term, _push(env, _ADMIN), fns)))
            return app(mn.star_n(m, 1, (rt(major),), body_rt), f, rec(0))
        case dd.ExistsI(term):
            b = rt(goal.body)
            n = term_to_nat(term, _push(env, _ADMIN), fns)
            f = Lam(b, app(tm.pair_c(tm.NAT, b), n, tm.Var(0)))
            lift = mn.raise_n(m, 1, (b,), TProd(tm.NAT, b))
            return app(lift, f, rec(0))
        case dd.ExistsE(label, var):
            major = prems[0].conclusion.goal
            b, c = rt(major.body), rt(goal)
            inner = rec(1, _ADMIN, ("tvar", var), ("lbl", label))
            pr = TProd(tm.NAT, b)
            f = Lam(
                pr,
                app(
                    Lam(tm.NAT, Lam(b, inner)),
                    App(tm.prl_c(tm.NAT, b), tm.Var(0)),
                    App(tm.prr_c(tm.NAT, b), tm.Var(0)),
                ),
            )
            return app(mn.star_n(m, 1, (pr,), c), f, rec(0))
        case dd.CInd(label, var):
            a = rt(goal.body)
            ta = m.type_op(a)
            hyp = prems[0].conclusion.lookup(label)
            hyp_rt = rt(hyp)  # Nat -> T(Unit -> T|A|)
            inner = rec(0, ("tvar", var), _ADMIN, ("lbl", label))
            # lam z. unit (lam u. beta z), with beta the raw recursive call
            beta_feed = Lam(
                tm.NAT,
                App(
                    m.unit_of(TArrow(tm.UNIT, ta)),
                    Lam(tm.UNIT, App(tm.Var(2), tm.Var(1))),
                ),
            )
            f = Lam(tm.NAT, Lam(TArrow(tm.NAT, ta), App(Lam(hyp_rt, inner), beta_feed)))
            body = App(tm.rec_c(ta), f)
            return App(mn.raise_n(m, 0, (), rt(goal)), body)
        case dd.EM(label, var):
            univ = prems[0].conclusion.lookup(label)
            rel, fo_params = _em_split(univ)
            params = tuple(term_to_nat(t, env, fns) for t in fo_params)
            guess = em_realizer(rel, params, m)
            left = rt(univ)
            not_p = TArrow(tm.UNIT, m.type_op(tm.UNIT))  # |not P|
            right = TProd(tm.NAT, not_p)
            c = rt(goal)
            on_l = rec(0, _ADMIN, ("lbl", label))
            on_r = rec(1, _ADMIN, _ADMIN, ("tvar", var), ("lbl", label))
            f = Lam(
                TSum(left, right),
                app(
                    tm.case_c(left, right, m.type_op(c)),
                    tm.Var(0),
                    Lam(left, on_l),
                    Lam(
                        right,
                        app(
                            Lam(tm.NAT, Lam(not_p, on_r)),
                            App(tm.prl_c(tm.NAT, not_p), tm.Var(0)),
                            App(tm.prr_c(tm.NAT, not_p), tm.Var(0)),
                        ),
                    ),
                ),
            )
            return app(mn.star_n(m, 1, (TSum(left, right),), c), f, guess)
        case dd.Ind():
            raise UnsupportedRule(
                "base/step induction has no direct decoration; normalize it away first"
            )
        case other:
            raise UnsupportedRule(f"no decoration for {type(other).__name__}")


def decorate(
    d: dd.Derivation,
    m: mn.MonadSpec = mn.INTERACTIVE,
    fns: Optional[Mapping[str, arith.PrimFn]] = None,
) -> Term:
    """The realizer of d's root sequent, open in its context.

    Hypotheses become free de Bruijn variables, the last context entry
    innermost.  The derivation is trusted; run check_derivation first when
    in doubt (extract does).
    """
    fns = arith.FUNCTIONS if fns is None else fns
    env: Env = ()
    for lbl, _ in d.conclusion.context:
        env = _push(env, ("lbl", lbl))
    return _decorate(d, env, m, fns)


def extract(
    d: dd.Derivation,
    m: mn.MonadSpec = mn.INTERACTIVE,
    rels: Optional[Mapping[str, arith.Relation]] = None,
    fns: Optional[Mapping[str, arith.PrimFn]] = None,
) -> Term:
    """Check d, decorate it, and close over the context.

    The result is a closed term of type |A1| -> ... -> |An| -> ||goal||
    for a context A1 ... An.  Free first-order variables are refused.
    """
    rels = arith.RELATIONS if rels is None else rels
    fns = arith.FUNCTIONS if fns is None else fns
    dd.check_derivation(d, rels, fns)
    stray = dd.free_term_vars(d)
    if stray:
        raise OpenDerivation(f"free first-order variables {sorted(stray)}")
    body = decorate(d, m, fns)
    for _, f in reversed(d.conclusion.context):
        body = Lam(realizer_type(f, m), body)
    return body
