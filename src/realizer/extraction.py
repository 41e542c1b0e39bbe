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

raise^k and star^k are the monad's meta-level combinators (monads.raise_k,
monads.star_k), so a realizer holds no administrative redex: under the
interactive monad a rule's term is one abstraction over the state, lam s.
case (x s) (lam v. ...) inr, whose premiss computations run at s in place.
A call-by-value redex is contracted when its argument is a variable, or a
value its body uses at most once.  The redexes that remain have an argument
that is not a value, or a value used twice.  Under the interactive monad:

    (lam x. inl x) e              raise^k of a function whose result e is
                                  not a value, as and-elimination's
                                  projection
    (lam x. (lam y. f x y) (prr z)) (prl z)
                                  star^k, k >= 2, splitting the merged pair
    (lam w. (lam l. b) (prr p)) (prl p)
                                  exists-elimination and the refuted
                                  branch of excluded middle
    (lam y. ... (y s) ... (y s) ...) c
                                  merge, which runs c on either branch
    (lam h. b) (lam z. ...)       complete induction whose hypothesis is
                                  used twice or more
    (lam x. b) t                  a quantifier cut at a term t that is not
                                  a value
    (lam x. inl (case (query s x) ...)) t
                                  an excluded-middle parameter t that is
                                  not a value, shared by query and eval

Under the exception and identity monads a computation is rarely a value, so
a premiss that the interactive monad would run in place stays bound the
same way.

Hypothesis labels and rule-bound first-order variables are names while a
realizer is built: a preorder pass gives each premiss its scope, the rules
are then built children first, and monads.close turns the names into de
Bruijn indices once, so no term is shifted or substituted into and no step
recurses.  The excluded-middle guess binds its own variables by name too,
so its parameters that are values, named or closed, go under its binders
as they are; em_realizer closes it over closed parameters.  extract closes
over the root context and demands that no first-order variable stays free.
A numeral is one literal, terms.Num, so witnesses cost no text.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import arith, deduction as dd, monads as mn, terms as tm
from .arith import And, Atom, ATerm, Forall, Formula, Imply, Or, TApp, TVar
from .monads import NLam, NVar, Name
from .terms import App, Lam, Term, TArrow, TProd, TSum, Ty, app


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
    def node(u: Formula, parts: list) -> Ty:
        match u:
            case And():
                return TProd(*parts)
            case Or():
                return TSum(*parts)
            case Imply():
                return TArrow(parts[0], m.type_op(parts[1]))
            case Forall():
                return TArrow(tm.NAT, m.type_op(parts[0]))
        return TProd(tm.NAT, parts[0])  # an Exists
    return arith.fold_formula(f, lambda u: tm.UNIT, node)


def computation_type(f: Formula, m: mn.MonadSpec = mn.INTERACTIVE) -> Ty:
    """||f|| = T|f|."""
    return m.type_op(realizer_type(f, m))


# ---------------------------------------------------------------------------
# environments: one scope for labels and first-order variables

Entry = tuple[str, str]  # ("lbl", name) or ("tvar", name)
# (entry, its binder's name, the enclosing scope); () is the empty scope
Env = tuple


def _lookup(env: Env, entry: Entry) -> Name:
    while env:
        e, name, env = env
        if e == entry:
            return name
    kind, name = entry
    what = "hypothesis" if kind == "lbl" else "term variable"
    raise ExtractionError(f"{what} {name!r} is not bound here")


def term_to_nat(t: ATerm, env: Env, fns: Mapping[str, arith.PrimFn]) -> Term:
    """The Nat-typed term denoting a first-order term, variables named via env."""
    def apply(x: TApp, parts: list) -> Term:
        if arith.view(x)[0] == "S" and len(parts) == 1:
            return app(tm.succ, *parts)
        if x.fn not in fns:
            raise ExtractionError(f"unknown function symbol {x.fn!r}")
        return app(tm.prim_c(x.fn, fns[x.fn]), *parts)
    return arith.fold_aterm(t, lambda x: mn.var(_lookup(env, ("tvar", x.name)))
                            if type(x) is TVar else tm.Num(x.value), apply)


# ---------------------------------------------------------------------------
# the canonical guess realizer for one excluded-middle instance


def em_realizer(rel: str, params: tuple[Term, ...], m: mn.MonadSpec = mn.INTERACTIVE) -> Term:
    """Realizer of (all x P) or (ex y not P) for the atom P = rel(params, x).

    params are closed Nat-typed terms for every argument but the quantified
    last one.  Only the interactive monad can carry the guess, since it
    consults the state and raises counterexamples.
    """
    if m.name != "ir":
        raise UnsupportedRule("excluded middle extracts only under the interactive monad")
    return mn.close(mn.lam(tm.STATE, lambda s: _em_outcome(rel, params, mn.var(s))))


def _em_outcome(rel: str, params: tuple, state):
    """The guess's outcome at state as a named term: inl of the case split
    on the query.  A parameter that is not a value is bound around it, so
    the query and the forward eval share its evaluation; values, named or
    closed, go under the forward function's three binders as they are.
    """
    for i, p in enumerate(params):
        if not mn.is_value(p):
            return mn.let(p, tm.NAT, lambda x: _em_outcome(
                rel, params[:i] + (x,) + params[i + 1:], state), uses=2)
    k = len(params)
    t_unit = mn.INTERACTIVE.type_op(tm.UNIT)
    left = TArrow(tm.NAT, t_unit)  # |all x P|
    not_p = TArrow(tm.UNIT, t_unit)  # |not P|
    right = TProd(tm.NAT, not_p)  # |ex y not P|
    guess = TSum(left, right)

    # lam u. inl (lam y. lam s'. eval P params y)
    on_unknown = mn.lam(tm.UNIT, lambda u: App(tm.inl_c(left, right), mn.lam(
        tm.NAT, lambda y: mn.lam(tm.STATE, lambda s: app(
            tm.eval_c(rel, k), *params, mn.var(y))))))
    refuter = Lam(tm.UNIT, Lam(tm.STATE, App(tm.inl_c(tm.UNIT, tm.EX), tm.unit_const)))
    on_witness = Lam(tm.NAT, App(tm.inr_c(left, right),
                                 app(tm.pair_c(tm.NAT, not_p), tm.Var(0), refuter)))
    q = app(tm.query_c(rel, k), state, *params)
    body = app(tm.case_c(tm.UNIT, tm.NAT, guess), q, on_unknown, on_witness)
    return App(tm.inl_c(guess, tm.EX), body)


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


def _decorate(d: dd.Derivation, env: Env, m: mn.MonadSpec, fns) -> object:
    """The realizer of d in env as a named term, built without recursion.

    A preorder pass gives each premiss its scope, with a fresh name for each
    binder its rule adds, and counts the uses of every hypothesis.  Then each
    node is built from its premisses' terms, children first.
    """
    # per node: (derivation, scope, names bound per premiss, own name, parent)
    nodes: list[tuple] = []
    todo = [(d, env, -1)]
    while todo:
        node, env, parent = todo.pop()
        rule = node.rule
        if isinstance(rule, dd.Ind):
            raise UnsupportedRule(
                "base/step induction has no direct decoration; normalize it away first"
            )
        own = None
        if isinstance(rule, dd.Id):
            own = _lookup(env, ("lbl", rule.label))
            own.uses += 1
        elif isinstance(rule, dd.CInd):
            own = Name()  # the recursor's call for smaller arguments
        prems = node.premisses
        shape = dd.RULE_SHAPES.get(type(rule))
        bound = []
        scopes = []
        for j in range(len(prems)):
            names = ()
            inner = env
            if shape is not None and j == shape.binds:
                names += (Name(),)
                inner = (("tvar", rule.var), names[-1], inner)
            if shape is not None and j in shape.discharges:
                names += (Name(),)
                inner = (("lbl", rule.label), names[-1], inner)
            bound.append(names)
            scopes.append(inner)
        i = len(nodes)
        nodes.append((node, env, bound, own, parent))
        for j in range(len(prems) - 1, -1, -1):
            todo.append((prems[j], scopes[j], i))
    # a hypothesis of complete induction used at most once takes its term in place
    for node, _, bound, own, _ in nodes:
        if isinstance(node.rule, dd.CInd) and bound[0][1].uses <= 1:
            bound[0][1].bound = _feed(m, own, node.conclusion.goal)
    # children come after their parent in preorder, so backwards each node
    # finds its premisses' terms done, last premiss first; the root's parent
    # -1 is the extra last list
    done: list = [[] for _ in range(len(nodes) + 1)]
    for i in range(len(nodes) - 1, -1, -1):
        node, env, bound, own, parent = nodes[i]
        done[i].reverse()
        done[parent].append(_rule(node, env, bound, own, done[i], m, fns))
        done[i] = None
    return done[-1][0]


def _feed(m: mn.MonadSpec, call: Name, goal: Forall):
    """lam z. unit (lam u. call z): the hypothesis of complete induction."""
    ta = computation_type(goal.body, m)
    return mn.lam(tm.NAT, lambda z: m.unit(
        mn.lam(tm.UNIT, lambda u: App(mn.var(call), mn.var(z))), TArrow(tm.UNIT, ta)))


def _rule(d: dd.Derivation, env: Env, bound: list, own, xs: list, m: mn.MonadSpec, fns):
    """The named term of d's rule over its premisses' terms xs."""
    goal = d.conclusion.goal
    prems = d.premisses
    xs = tuple(xs)

    def rt(f: Formula) -> Ty:
        return realizer_type(f, m)

    match d.rule:
        case dd.Id(label):
            return m.unit(NVar(own), rt(d.conclusion.lookup(label)))
        case dd.AtomI() | dd.AtomE() | dd.AtomPost() | dd.FalseE0():
            return mn.raise_k(m, lambda *_: tm.unit_const, xs, (tm.UNIT,) * len(xs), tm.UNIT)
        case dd.AndI():
            a, b = rt(goal.left), rt(goal.right)
            return mn.raise_k(m, lambda x, y: app(tm.pair_c(a, b), x, y), xs, (a, b),
                              TProd(a, b))
        case dd.AndEL() | dd.AndER():
            major = prems[0].conclusion.goal
            a, b = rt(major.left), rt(major.right)
            left = isinstance(d.rule, dd.AndEL)
            proj = tm.prl_c(a, b) if left else tm.prr_c(a, b)
            return mn.raise_k(m, lambda p: App(proj, p), xs, (TProd(a, b),), a if left else b)
        case dd.OrIL() | dd.OrIR():
            a, b = rt(goal.left), rt(goal.right)
            left = isinstance(d.rule, dd.OrIL)
            inj = tm.inl_c(a, b) if left else tm.inr_c(a, b)
            return mn.raise_k(m, lambda v: App(inj, v), xs, (a if left else b,), TSum(a, b))
        case dd.OrE():
            major = prems[0].conclusion.goal
            a, b, c = rt(major.left), rt(major.right), rt(goal)
            (on_l,), (on_r,) = bound[1], bound[2]
            return m.star(lambda z: app(tm.case_c(a, b, m.type_op(c)), z,
                                        NLam(on_l, a, xs[1]), NLam(on_r, b, xs[2])),
                          xs[0], TSum(a, b), c)
        case dd.ImplyI():
            (h,) = bound[0]
            return m.unit(NLam(h, rt(goal.left), xs[0]), rt(goal))
        case dd.ImplyE():
            major = prems[0].conclusion.goal
            return mn.star_k(m, mn.beta, xs, (rt(major), rt(major.left)), rt(major.right))
        case dd.ForallI():
            (x,) = bound[0]
            return m.unit(NLam(x, tm.NAT, xs[0]), rt(goal))
        case dd.ForallE(term):
            major = prems[0].conclusion.goal
            n = term_to_nat(term, env, fns)
            return m.star(lambda g: mn.beta(g, n), xs[0], rt(major), rt(major.body))
        case dd.ExistsI(term):
            b = rt(goal.body)
            n = term_to_nat(term, env, fns)
            return mn.raise_k(m, lambda v: app(tm.pair_c(tm.NAT, b), n, v), xs, (b,),
                              TProd(tm.NAT, b))
        case dd.ExistsE():
            major = prems[0].conclusion.goal
            b, c = rt(major.body), rt(goal)
            w, h = bound[1]
            pr = TProd(tm.NAT, b)
            inner = NLam(w, tm.NAT, NLam(h, b, xs[1]))
            # lam p. (lam w. lam h. inner) (prl p) (prr p)
            return m.star(lambda p: mn.let(p, pr, lambda p: mn.beta(
                inner, App(tm.prl_c(tm.NAT, b), p), App(tm.prr_c(tm.NAT, b), p)), uses=2),
                xs[0], pr, c)
        case dd.CInd(label):
            ta = computation_type(goal.body, m)
            v, hyp = bound[0]
            body = xs[0]
            if hyp.bound is None:
                hyp_rt = rt(prems[0].conclusion.lookup(label))
                body = App(NLam(hyp, hyp_rt, body), _feed(m, own, goal))
            step = NLam(v, tm.NAT, NLam(own, TArrow(tm.NAT, ta), body))
            return m.unit(App(tm.rec_c(ta), step), rt(goal))
        case dd.EM(label):
            if m.name != "ir":
                raise UnsupportedRule("excluded middle extracts only under the interactive monad")
            univ = prems[0].conclusion.lookup(label)
            rel, fo_params = _em_split(univ)
            params = tuple(term_to_nat(t, env, fns) for t in fo_params)
            left = rt(univ)
            not_p = TArrow(tm.UNIT, m.type_op(tm.UNIT))  # |not P|
            right = TProd(tm.NAT, not_p)
            c = rt(goal)
            (on_l,), (y, on_r) = bound
            refuted = NLam(y, tm.NAT, NLam(on_r, not_p, xs[1]))
            # lam g. case g (lam l. left branch) (lam p. (lam y. lam l. right) (prl p) (prr p))
            return m.star(lambda g: app(
                tm.case_c(left, right, m.type_op(c)), g, NLam(on_l, left, xs[0]),
                mn.lam(right, lambda p: mn.beta(refuted, App(tm.prl_c(tm.NAT, not_p), mn.var(p)),
                                             App(tm.prr_c(tm.NAT, not_p), mn.var(p))))),
                mn.lam(tm.STATE, lambda s: _em_outcome(rel, params, mn.var(s))),
                TSum(left, right), c)
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
    free = []
    for lbl, _ in d.conclusion.context:
        name = Name()
        env = (("lbl", lbl), name, env)
        free.append(name)
    return mn.close(_decorate(d, env, m, fns), tuple(free))


@arith.interned
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
