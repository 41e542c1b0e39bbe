"""The realizer construction that extraction replaced, kept as a test oracle.

Each rule's realizer is the monad's closed raise^k or star^k term applied
with tm.app to the rule's function and the premisses' realizers, and the
closed unit, star and merge are written out as lambda terms, so every rule
leaves its administrative redexes in place.  Decoration recurses over the
derivation and keeps each premiss in de Bruijn form under placeholder
binders, and so does the excluded-middle guess, which shifts its
parameters under its binders.  reference_extract(d, m) is this construction
for the monad named like m.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from realizer import arith
from realizer import deduction as dd
from realizer import terms as tm
from realizer.extraction import ExtractionError, UnsupportedRule, _em_split, realizer_type
from realizer.terms import (
    App, Lam, Term, TArrow, TProd, TSum, Ty, Var, app, case_c, exmerge_const, inl_c, inr_c,
    pair_c, prl_c, prr_c,
)


# ---------------------------------------------------------------------------
# the closed combinators


class ClosedMonad(NamedTuple):
    """A monad given by its type operator and its closed combinators,
    indexed by type."""

    name: str
    type_op: Callable[[Ty], Ty]
    unit_of: Callable[[Ty], Term]
    star_of: Callable[[Ty, Ty], Term]
    merge_of: Callable[[Ty, Ty], Term]


# identity monad


def _id_unit(a: Ty) -> Term:
    return Lam(a, Var(0))


def _id_star(a: Ty, b: Ty) -> Term:
    return Lam(TArrow(a, b), Var(0))


IDENTITY = ClosedMonad(
    name="id",
    type_op=lambda a: a,
    unit_of=_id_unit,
    star_of=_id_star,
    merge_of=lambda a, b: pair_c(a, b),
)


# ---------------------------------------------------------------------------
# exception monad: TA = A + Ex


def _exc_t(a: Ty) -> Ty:
    return TSum(a, tm.EX)


def _exc_unit(a: Ty) -> Term:
    return Lam(a, App(inl_c(a, tm.EX), Var(0)))


def _exc_star(a: Ty, b: Ty) -> Term:
    tb = _exc_t(b)
    # lam f. lam x. case x f inr
    return Lam(
        TArrow(a, tb),
        Lam(_exc_t(a), app(case_c(a, tm.EX, tb), Var(0), Var(1), inr_c(b, tm.EX))),
    )


def _merge_branches(a: Ty, b: Ty, right: Term) -> tuple[Term, Term]:
    """merge's branches on the left outcome, (on a value, on an exception).

    Each cases on the right outcome, which right reaches from inside the
    branch; both monads merge into A x B + Ex.
    """
    prod = TProd(a, b)
    out = TSum(prod, tm.EX)
    on_left = Lam(a, app(
        case_c(b, tm.EX, out),
        right,
        Lam(b, App(inl_c(prod, tm.EX), app(pair_c(a, b), Var(1), Var(0)))),
        Lam(tm.EX, App(inr_c(prod, tm.EX), Var(0))),
    ))
    on_ex = Lam(tm.EX, app(
        case_c(b, tm.EX, out),
        right,
        Lam(b, App(inr_c(prod, tm.EX), Var(1))),
        Lam(tm.EX, App(inr_c(prod, tm.EX), app(exmerge_const, Var(1), Var(0)))),
    ))
    return on_left, on_ex


def _exc_merge(a: Ty, b: Ty) -> Term:
    # under lam x. lam y and a branch binder, the right computation is Var 1
    on_left, on_ex = _merge_branches(a, b, Var(1))
    tout = _exc_t(TProd(a, b))
    return Lam(_exc_t(a), Lam(_exc_t(b), app(case_c(a, tm.EX, tout), Var(1), on_left, on_ex)))


EXCEPTION = ClosedMonad(
    name="exc",
    type_op=_exc_t,
    unit_of=_exc_unit,
    star_of=_exc_star,
    merge_of=_exc_merge,
)


# ---------------------------------------------------------------------------
# interactive monad: TA = State -> A + Ex


def _ir_t(a: Ty) -> Ty:
    return TArrow(tm.STATE, TSum(a, tm.EX))


def _ir_unit(a: Ty) -> Term:
    return Lam(a, Lam(tm.STATE, App(inl_c(a, tm.EX), Var(1))))


def _ir_star(a: Ty, b: Ty) -> Term:
    ta, tb = _ir_t(a), _ir_t(b)
    sum_b = TSum(b, tm.EX)
    # lam f. lam x. lam s. case (x s) (lam v. f v s) inr
    return Lam(
        TArrow(a, tb),
        Lam(
            ta,
            Lam(
                tm.STATE,
                app(
                    case_c(a, tm.EX, sum_b),
                    App(Var(1), Var(0)),
                    Lam(a, app(Var(3), Var(0), Var(1))),
                    inr_c(b, tm.EX),
                ),
            ),
        ),
    )


def _ir_merge(a: Ty, b: Ty) -> Term:
    # under lam x. lam y. lam s and a branch binder, the right outcome is y s
    on_left, on_ex = _merge_branches(a, b, App(Var(2), Var(1)))
    sum_out = TSum(TProd(a, b), tm.EX)
    return Lam(
        _ir_t(a),
        Lam(
            _ir_t(b),
            Lam(
                tm.STATE,
                app(case_c(a, tm.EX, sum_out), App(Var(2), Var(0)), on_left, on_ex),
            ),
        ),
    )


INTERACTIVE = ClosedMonad(
    name="ir",
    type_op=_ir_t,
    unit_of=_ir_unit,
    star_of=_ir_star,
    merge_of=_ir_merge,
)

OLD_MONADS = {m.name: m for m in (IDENTITY, EXCEPTION, INTERACTIVE)}


# n-ary lifts


def star_n(m: ClosedMonad, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """star^k : (A1 -> ... -> Ak -> TB) -> TA1 -> ... -> TAk -> TB.

    star^0 is the identity on TB, star^1 is star, and star^(k+2) pairs the
    first two computations with merge and reassociates the function.
    """
    if len(arg_tys) != k:
        raise ValueError(f"star_{k} over {len(arg_tys)} argument types")
    if k == 0:
        return Lam(m.type_op(result), Var(0))
    if k == 1:
        return m.star_of(arg_tys[0], result)
    a1, a2, rest = arg_tys[0], arg_tys[1], arg_tys[2:]
    prod = TProd(a1, a2)
    fty = tm.arrows(*arg_tys, m.type_op(result))
    inner = star_n(m, k - 1, (prod,) + rest, result)
    # lam f. lam x. lam y. star^(k-1) (lam z. f (prl z) (prr z)) (merge x y)
    split = Lam(prod, app(Var(3), App(prl_c(a1, a2), Var(0)), App(prr_c(a1, a2), Var(0))))
    return Lam(
        fty,
        Lam(
            m.type_op(a1),
            Lam(
                m.type_op(a2),
                app(inner, split, app(m.merge_of(a1, a2), Var(1), Var(0))),
            ),
        ),
    )


def raise_n(m: ClosedMonad, k: int, arg_tys: tuple[Ty, ...], result: Ty) -> Term:
    """raise^k : (A1 -> ... -> Ak -> B) -> TA1 -> ... -> TAk -> TB.

    Defined as star^k composed with unit under k abstractions.
    """
    if len(arg_tys) != k:
        raise ValueError(f"raise_{k} over {len(arg_tys)} argument types")
    fty = tm.arrows(*arg_tys, result)
    body: Term = App(m.unit_of(result), app(Var(k), *(Var(k - 1 - i) for i in range(k))))
    for ty in reversed(arg_tys):
        body = Lam(ty, body)
    return Lam(fty, app(star_n(m, k, arg_tys, result), body))




# ---------------------------------------------------------------------------
# the excluded-middle guess in de Bruijn form


def em_realizer(rel: str, params: tuple[Term, ...], m: ClosedMonad) -> Term:
    """Realizer of (all x P) or (ex y not P) for the atom P = rel(params, x),
    with params Nat-typed terms in scope where the realizer stands."""
    if m.name != "ir":
        raise UnsupportedRule("excluded middle extracts only under the interactive monad")
    k = len(params)
    t_unit = _ir_t(tm.UNIT)
    left = TArrow(tm.NAT, t_unit)  # |all x P|
    not_p = TArrow(tm.UNIT, t_unit)  # |not P|
    right = TProd(tm.NAT, not_p)  # |ex y not P|
    guess = TSum(left, right)
    # under lam s. the params shift by 1, and by 3 more under lam u. lam y. lam s'.
    params = tuple(tm.shift(p, 1) for p in params)
    fwd = Lam(tm.NAT, Lam(tm.STATE, app(tm.eval_c(rel, k), *(tm.shift(p, 3) for p in params),
                                        Var(1))))
    on_unknown = Lam(tm.UNIT, App(inl_c(left, right), fwd))
    refuter = Lam(tm.UNIT, Lam(tm.STATE, App(inl_c(tm.UNIT, tm.EX), tm.unit_const)))
    on_witness = Lam(tm.NAT, App(inr_c(left, right), app(pair_c(tm.NAT, not_p), Var(0), refuter)))
    q = app(tm.query_c(rel, k), Var(0), *params)
    body = app(case_c(tm.UNIT, tm.NAT, guess), q, on_unknown, on_witness)
    return Lam(tm.STATE, App(inl_c(guess, tm.EX), body))


# ---------------------------------------------------------------------------
# decoration under placeholder binders

Entry = tuple[str, str]
Env = tuple[Entry, ...]  # index 0 is the innermost binding
_ADMIN: Entry = ("admin", "")


def _push(env: Env, *entries: Entry) -> Env:
    out = env
    for e in entries:
        out = (e,) + out
    return out


def _lookup(env: Env, entry: Entry) -> int:
    for i, e in enumerate(env):
        if e == entry:
            return i
    raise ExtractionError(f"{entry} is not bound here")


def term_to_nat(t, env: Env, fns) -> Term:
    match t:
        case arith.TVar(name):
            return tm.Var(_lookup(env, ("tvar", name)))
        case arith.TNum(value):
            return tm.Num(value)
        case arith.TApp("S", (a,)):
            return App(tm.succ, term_to_nat(a, env, fns))
        case arith.TApp(fn, args):
            return app(tm.prim_c(fn, fns[fn]), *(term_to_nat(a, env, fns) for a in args))
    raise ExtractionError(f"not a first-order term: {t!r}")




def _decorate(d: dd.Derivation, env: Env, m: ClosedMonad, fns) -> Term:
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
        lift = raise_n(m, k, (tm.UNIT,) * k, tm.UNIT)
        return app(lift, f, *(rec(i) for i in range(k)))

    match d.rule:
        case dd.Id(label):
            a = d.conclusion.lookup(label)
            lift = raise_n(m, 0, (), rt(a))
            return App(lift, tm.Var(_lookup(env, ("lbl", label))))
        case dd.AtomI() | dd.AtomE() | dd.AtomPost() | dd.FalseE0():
            return atomic_lift()
        case dd.AndI():
            a, b = rt(goal.left), rt(goal.right)
            lift = raise_n(m, 2, (a, b), TProd(a, b))
            return app(lift, tm.pair_c(a, b), rec(0), rec(1))
        case dd.AndEL() | dd.AndER():
            major = prems[0].conclusion.goal
            a, b = rt(major.left), rt(major.right)
            proj = tm.prl_c(a, b) if isinstance(d.rule, dd.AndEL) else tm.prr_c(a, b)
            side = a if isinstance(d.rule, dd.AndEL) else b
            return app(raise_n(m, 1, (TProd(a, b),), side), proj, rec(0))
        case dd.OrIL() | dd.OrIR():
            a, b = rt(goal.left), rt(goal.right)
            inj = tm.inl_c(a, b) if isinstance(d.rule, dd.OrIL) else tm.inr_c(a, b)
            side = a if isinstance(d.rule, dd.OrIL) else b
            return app(raise_n(m, 1, (side,), TSum(a, b)), inj, rec(0))
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
            return app(star_n(m, 1, (TSum(a, b),), c), f, rec(0))
        case dd.ImplyI(label):
            f = Lam(rt(goal.left), rec(0, ("lbl", label)))
            return App(raise_n(m, 0, (), rt(goal)), f)
        case dd.ImplyE():
            major = prems[0].conclusion.goal
            fn_ty, arg_ty = rt(major), rt(major.left)
            f = Lam(fn_ty, Lam(arg_ty, App(tm.Var(1), tm.Var(0))))
            lift = star_n(m, 2, (fn_ty, arg_ty), rt(major.right))
            return app(lift, f, rec(0), rec(1))
        case dd.ForallI(var):
            f = Lam(tm.NAT, rec(0, ("tvar", var)))
            return App(raise_n(m, 0, (), rt(goal)), f)
        case dd.ForallE(term):
            major = prems[0].conclusion.goal
            body_rt = rt(major.body)
            f = Lam(rt(major), App(tm.Var(0), term_to_nat(term, _push(env, _ADMIN), fns)))
            return app(star_n(m, 1, (rt(major),), body_rt), f, rec(0))
        case dd.ExistsI(term):
            b = rt(goal.body)
            n = term_to_nat(term, _push(env, _ADMIN), fns)
            f = Lam(b, app(tm.pair_c(tm.NAT, b), n, tm.Var(0)))
            lift = raise_n(m, 1, (b,), TProd(tm.NAT, b))
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
            return app(star_n(m, 1, (pr,), c), f, rec(0))
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
            return App(raise_n(m, 0, (), rt(goal)), body)
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
            return app(star_n(m, 1, (TSum(left, right),), c), f, guess)
        case dd.Ind():
            raise UnsupportedRule(
                "base/step induction has no direct decoration; normalize it away first"
            )
        case other:
            raise UnsupportedRule(f"no decoration for {type(other).__name__}")




def reference_decorate(d, m, fns=None) -> Term:
    """The old realizer of d's root sequent, open in its context."""
    m = OLD_MONADS[m.name]
    fns = arith.FUNCTIONS if fns is None else fns
    env: Env = ()
    for lbl, _ in d.conclusion.context:
        env = _push(env, ("lbl", lbl))
    return _decorate(d, env, m, fns)


def reference_extract(d, m, rels=None, fns=None) -> Term:
    """The old closed realizer of d under the monad named like m."""
    rels = arith.RELATIONS if rels is None else rels
    dd.check_derivation(d, rels, arith.FUNCTIONS if fns is None else fns)
    if dd.free_term_vars(d):
        raise ExtractionError("free first-order variables")
    body = reference_decorate(d, m, fns)
    for _, f in reversed(d.conclusion.context):
        body = Lam(realizer_type(f, m), body)
    return body
