"""The recursive formula walks that `arith.fold_formula` replaced, kept as test
oracles, and a mirror of frozen syntax under the generated ``==``.

free_vars, subst_formula, norm_formula and realizer_type are the structural
recursions that arith and extraction ran before every formula walk became
one explicit-stack fold; each returns the same object where nothing changes,
as the folds do.  is_normal is the recursive reading of `arith.is_normal`,
which a formula stores on itself.  They recurse, so feed them shallow formulas.

generated(x) rebuilds x from classes that dataclass generates, with the
generated ``==``, ``hash`` and ``repr``, in place of every class whose ``==``
is `arith.same`: terms, formulas and types.  The tests compare `same`
against it.

numeral_value, dual and classify are helpers only tests use: a numeral's
value, a prenex formula with its quantifiers swapped and its matrix negated,
and a prenex formula's least level in the arithmetical hierarchy.
"""

from __future__ import annotations

import dataclasses
from operator import is_

from realizer import arith
from realizer import monads as mn
from realizer import terms as tm
from realizer.arith import And, Atom, Exists, Forall, Imply, Or, TVar


def free_vars(f):
    match f:
        case Atom(_, args):
            return frozenset().union(*(arith.aterm_vars(t) for t in args)) if args else frozenset()
        case And(a, b) | Or(a, b) | Imply(a, b):
            return free_vars(a) | free_vars(b)
        case Forall(var, body) | Exists(var, body):
            return free_vars(body) - {var}
    raise arith.ArithError(f"not a formula: {f!r}")


def subst_formula(f, var, rep):
    match f:
        case Atom(rel, args):
            new = tuple([arith.subst_aterm(t, var, rep) for t in args])
            return f if all(map(is_, new, args)) else Atom(rel, new)
        case And(a, b) | Or(a, b) | Imply(a, b):
            na, nb = subst_formula(a, var, rep), subst_formula(b, var, rep)
            return f if na is a and nb is b else type(f)(na, nb)
        case Forall(v, body) | Exists(v, body):
            if v == var:
                return f
            if v in arith.aterm_vars(rep) and var in free_vars(body):
                w = arith._fresh(v, arith.aterm_vars(rep) | free_vars(body))
                return type(f)(w, subst_formula(subst_formula(body, v, TVar(w)), var, rep))
            nb = subst_formula(body, var, rep)
            return f if nb is body else type(f)(v, nb)
    raise arith.ArithError(f"not a formula: {f!r}")


def norm_formula(f, fns=arith.FUNCTIONS):
    match f:
        case Atom(rel, args):
            new = tuple(arith.norm_aterm(t, fns) for t in args)
            return f if all(n is t for n, t in zip(new, args)) else Atom(rel, new)
        case And(a, b) | Or(a, b) | Imply(a, b):
            na, nb = norm_formula(a, fns), norm_formula(b, fns)
            return f if na is a and nb is b else type(f)(na, nb)
        case Forall(v, body) | Exists(v, body):
            nb = norm_formula(body, fns)
            return f if nb is body else type(f)(v, nb)
    raise arith.ArithError(f"not a formula: {f!r}")


def _normal_term(t):
    return type(t) is not arith.TApp or (bool(arith.aterm_vars(t)) and all(map(_normal_term, t.args)))


def is_normal(f):
    """No application in f's terms is closed: every one has a variable under it."""
    match f:
        case Atom(_, args):
            return all(map(_normal_term, args))
        case And(a, b) | Or(a, b) | Imply(a, b):
            return is_normal(a) and is_normal(b)
        case Forall(_, body) | Exists(_, body):
            return is_normal(body)
    raise arith.ArithError(f"not a formula: {f!r}")


def realizer_type(f, m=mn.INTERACTIVE):
    match f:
        case Atom():
            return tm.UNIT
        case And(a, b):
            return tm.TProd(realizer_type(a, m), realizer_type(b, m))
        case Or(a, b):
            return tm.TSum(realizer_type(a, m), realizer_type(b, m))
        case Imply(a, b):
            return tm.TArrow(realizer_type(a, m), m.type_op(realizer_type(b, m)))
        case Forall(_, b):
            return tm.TArrow(tm.NAT, m.type_op(realizer_type(b, m)))
        case Exists(_, b):
            return tm.TProd(tm.NAT, realizer_type(b, m))
    raise arith.ArithError(f"not a formula: {f!r}")


_MIRRORS: dict[type, type] = {}


def generated(x):
    """x rebuilt part by part, every class compared by `arith.same` replaced by
    its generated twin."""
    if type(x) is tuple:
        return tuple(map(generated, x))
    if not dataclasses.is_dataclass(x):
        return x
    cls = type(x)
    parts = [generated(getattr(x, f.name)) for f in dataclasses.fields(cls)]
    if cls.__eq__ is arith.same:
        if cls not in _MIRRORS:
            _MIRRORS[cls] = dataclasses.make_dataclass(
                cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True)
        cls = _MIRRORS[cls]
    return cls(*parts)


def numeral_value(t):
    """n when t is the numeral n, else None."""
    return t.value if type(t) is arith.TNum else None


class NotPrenex(arith.ArithError):
    pass


def dual(f):
    """Swap quantifiers and negate the matrix.  Prenex inputs only."""
    p = _prefix(f)
    if p is None:
        raise NotPrenex(f"dual of a non-prenex formula: {f!r}")
    prefix, matrix = p
    out = arith.neg(matrix)
    for kind, v in reversed(prefix):
        out = (Exists if kind == "forall" else Forall)(v, out)
    return out


@dataclasses.dataclass(frozen=True)
class HierLevel:
    cls: str  # "sigma" or "pi"; level 0 is reported as sigma (the classes agree)
    level: int

    def __str__(self) -> str:
        if self.level == 0:
            return "sigma0=pi0"
        return f"{self.cls}{self.level}"


def _prefix(f):
    """Quantifier prefix [(kind, var)...] and matrix, or None if not prenex."""
    prefix = []
    while True:
        match f:
            case Forall(v, body):
                prefix.append(("forall", v))
                f = body
            case Exists(v, body):
                prefix.append(("exists", v))
                f = body
            case _:
                break
    # the matrix is quantifier-free: every connective over two quantifier-free parts
    quantifier_free = arith.fold_formula(
        f, lambda u: True, lambda u, parts: len(parts) == 2 and all(parts))
    return (prefix, f) if quantifier_free else None


def classify(f):
    """Least level in the syntactic hierarchy, None when f is not prenex.

    Same-kind quantifier blocks collapse, so forall x forall y atom is pi1.
    """
    p = _prefix(f)
    if p is None:
        return None
    prefix, _ = p
    blocks = []
    for kind, _ in prefix:
        if not blocks or blocks[-1] != kind:
            blocks.append(kind)
    if not blocks:
        return HierLevel("sigma", 0)
    cls = "sigma" if blocks[0] == "exists" else "pi"
    return HierLevel(cls, len(blocks))
