"""Primitive recursive arithmetic and first-order formulas over it.

Functions are built from zero, successor and projections by composition and
primitive recursion; a predicate is a function used as a characteristic, true
exactly when it returns 1.  First-order terms use named variables.  Formulas
are compared up to reduction of their closed subterms (the standard tables
give every closed term a numeral normal form).

Truth (top) and absurdity (bot) are distinguished 0-ary atoms; negation is
notation for implication into bot.

Evaluation costs term size, not numeral value.  `eval_prim` looks a function
up by object identity in `_NATIVE`, which evaluates the standard `+ * pred
monus`, the characteristics of `= < <=` and their helpers on Python ints
whenever every argument is a non-negative int.  Every other function -- a
user definition, or a structurally equal copy of a built-in -- is evaluated
structurally, and a composed definition still reaches the natives for its
built-in parts; structural evaluation of a copy is the reference the natives
are tested against.

Terms read S and 0 as successor and zero (a proof file cannot rebind them).
A closed numeral is one leaf, TNum, holding an int: TApp builds 0, and S of
a numeral, as that leaf, and `view` reads a numeral as S(n - 1) or 0 where a
rule matches successors.  Nothing recurses with depth: one postorder fold
walks every term (`fold_aterm`) and one every formula (`fold_formula`), but
for substitution and normalization, which skip the parts they leave alone
and run their own explicit stacks; and one equality, `same`, is the == of
first-order applications and formulas, and of `terms`' types, lambdas and
applications.  `_norm`, the one evaluator, collapses each maximal closed
subterm to its value.  A numeral is one int, bounded only by the digits the
interpreter prints: `printable` refuses a longer computed value with a typed
error, as the reader does a longer literal.  Normalization returns a normal
term or formula as the same object, and `formulas_equal` compares
syntactically first, so callers that pass normal formulas around pay for no
rebuilding.

Terms and formulas are hash-consed (Filliatre and Conchon, "Type-safe
modular hash-consing", 2006).  Each is made with its facts, computed in
O(1) from its parts' facts and kept in slots beside its fields: its free
variables (`free_vars`), whether it is normal (`is_normal`: no application
in its terms is closed, which holds or fails whatever the function table),
and its hash, which is the generated dataclass hash of its fields, so no
fact walks a formula and hash never recurses.  Its repr is its text in
the proof-file syntax, which `sexpr` prints without recursion.  A command
(`interned`) keeps one table per class, in which the same parts give the
same object: within it == is identity on values built there, and reading,
substituting and normalizing share their results.  Objects built outside
any table are valid alike, and == compares them by `same`, the stored
hashes first.  A formula keeps `subst_formula`'s and `norm_formula`'s
results on itself, by their arguments, so each is made once and dies with
the formula.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import wraps
from operator import attrgetter, is_
from typing import AbstractSet, Callable, Iterable, Mapping, Optional


class ArithError(Exception):
    pass


class ArityMismatch(ArithError):
    pass


class UnboundTermVariable(ArithError):
    pass


class NotClosed(ArithError):
    pass


# every int below this prints: the interpreter's digit limit is 640 or more, or none
_PRINTS = 10**640


def printable(n: int) -> int:
    """n, unless it has more digits than the interpreter prints: then an ArithError."""
    if n >= _PRINTS and (limit := sys.get_int_max_str_digits()) and n >= 10**limit:
        raise ArithError(f"a value of more than {limit} digits")
    return n


_CLOSE = object()  # ends a node's parts on the explicit stacks below
_LOOP = object()  # eval_prim's frame for the counter loop of a recursion


def same(a, b) -> bool:
    """a == b over frozen syntax on an explicit stack, identical parts first and
    stored hashes before parts, so depth costs no Python stack; it agrees
    with the generated == and hash."""
    if a is b:
        return True
    todo = [(a, b)]
    for a, b in todo:  # grows as it goes
        if a is b:
            continue
        t = type(a)
        if t is not type(b) or (t is tuple and len(a) != len(b)):
            return False
        if t is tuple:
            todo += zip(a, b)
        elif t.__eq__ is same:
            if isinstance(a, _Syntax) and a._hash != b._hash:
                return False
            todo += zip(t._parts(a), t._parts(b))
        elif a != b:  # a leaf, whose == does not recurse by itself
            return False
    return True


def structural(cls):
    """cls, a frozen dataclass, compared by `same` over its fields."""
    cls.__eq__, cls._parts = same, attrgetter(*cls.__match_args__)
    return cls


# ---------------------------------------------------------------------------
# primitive recursive functions


@dataclass(frozen=True)
class Zero:
    """Constant 0 of any arity."""

    arity: int = 0


@dataclass(frozen=True)
class Succ:
    arity = 1


@dataclass(frozen=True)
class Proj:
    n: int
    i: int  # 1-based
    def __post_init__(self):
        if not 1 <= self.i <= self.n:
            raise ArityMismatch(f"projection {self.i} of {self.n}")

    @property
    def arity(self) -> int:
        return self.n


@dataclass(frozen=True)
class Comp:
    outer: "PrimFn"
    inner: tuple["PrimFn", ...]
    # stored at construction, so a chain of compositions costs O(1) a level
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.inner) != self.outer.arity:
            raise ArityMismatch(
                f"composition feeds {len(self.inner)} arguments"
                f" to a function of arity {self.outer.arity}"
            )
        arities = {g.arity for g in self.inner}
        if len(arities) > 1:
            raise ArityMismatch(f"mixed inner arities {sorted(arities)}")
        object.__setattr__(self, "arity", self.inner[0].arity if self.inner else 0)


@dataclass(frozen=True)
class PRec:
    """f(0, xs) = base(xs); f(S y, xs) = step(y, f(y, xs), xs)."""

    base: "PrimFn"
    step: "PrimFn"
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.step.arity != self.base.arity + 2:
            raise ArityMismatch(
                f"recursion step arity {self.step.arity},"
                f" wanted {self.base.arity + 2}"
            )
        object.__setattr__(self, "arity", self.base.arity + 1)


PrimFn = Zero | Succ | Proj | Comp | PRec


def eval_prim(f: PrimFn, args: Iterable[int]) -> int:
    args = tuple(args)
    if len(args) != f.arity:
        raise ArityMismatch(f"{len(args)} arguments for arity {f.arity}")
    # compositions and recursions unfold on an explicit stack: (_CLOSE, outer)
    # takes outer's arguments from done, and (_LOOP, (rec, k, args)), the one
    # frame of a recursion's counter loop, takes the value at k from done
    todo, done = [(f, args)], []
    while todo:
        f, args = todo.pop()
        if f is _CLOSE:
            f, k = args, len(done) - args.arity
            args, done[k:] = tuple(done[k:]), ()
        elif f is _LOOP:
            f, k, args = args
            if k < args[0]:
                todo += [(_LOOP, (f, k + 1, args)), (f.step, (k, done.pop()) + args[1:])]
            continue
        native = _NATIVE.get(id(f))
        if native is not None and all(type(a) is int and a >= 0 for a in args):
            done.append(native(*args))
            continue
        match f:
            case Zero():
                done.append(0)
            case Succ():
                done.append(args[0] + 1)
            case Proj(_, i):
                done.append(args[i - 1])
            case Comp(outer, inner):
                todo += [(_CLOSE, outer), *((g, args) for g in reversed(inner))]
            case PRec(base, _):
                todo += [(_LOOP, (f, 0, args)), (base, args[1:])]
            case _:
                raise ArithError(f"not a primitive recursive function: {f!r}")
    return printable(done[0])


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    char: PrimFn  # truth of the atom is char(args) == 1

    def __post_init__(self):
        if self.char.arity != self.arity:
            raise ArityMismatch(
                f"relation {self.name}: characteristic arity {self.char.arity}"
                f" != {self.arity}"
            )

    def holds(self, args: Iterable[int]) -> bool:
        return eval_prim(self.char, args) == 1


# ---------------------------------------------------------------------------
# the standard tables

_one = Comp(Succ(), (Zero(),))  # 0-ary constant 1
_pred = PRec(Zero(), Proj(2, 1))
# msub(y, x) = x monus y
_msub = PRec(Proj(1, 1), Comp(_pred, (Proj(3, 2),)))
# monus(x, y) = x monus y
_monus = Comp(_msub, (Proj(2, 2), Proj(2, 1)))
_is_zero = PRec(_one, Zero(2))

ADD = PRec(Proj(1, 1), Comp(Succ(), (Proj(3, 2),)))
MUL = PRec(Zero(1), Comp(ADD, (Proj(3, 2), Proj(3, 3))))

_le_char = Comp(_is_zero, (_monus,))  # x <= y  iff  x monus y == 0
_lt_char = Comp(_le_char, (Comp(Succ(), (Proj(2, 1),)), Proj(2, 2)))
_eq_char = Comp(MUL, (_le_char, Comp(_le_char, (Proj(2, 2), Proj(2, 1)))))

# native evaluators of the tables above, keyed by object identity; each agrees
# with structural evaluation on non-negative ints
_NATIVE: dict[int, Callable[..., int]] = {
    id(_one): lambda: 1,
    id(_pred): lambda y: max(y - 1, 0),
    id(_msub): lambda y, x: max(x - y, 0),
    id(_monus): lambda x, y: max(x - y, 0),
    id(_is_zero): lambda y: 1 if y == 0 else 0,
    id(ADD): lambda y, x: y + x,
    id(MUL): lambda y, x: y * x,
    id(_le_char): lambda x, y: 1 if x <= y else 0,
    id(_lt_char): lambda x, y: 1 if x < y else 0,
    id(_eq_char): lambda x, y: 1 if x == y else 0,
}

FUNCTIONS: dict[str, PrimFn] = {
    "0": Zero(0),
    "S": Succ(),
    "+": ADD,
    "*": MUL,
    "pred": _pred,
    "monus": _monus,
}

RELATIONS: dict[str, Relation] = {
    "=": Relation("=", 2, _eq_char),
    "<": Relation("<", 2, _lt_char),
    "<=": Relation("<=", 2, _le_char),
    "top": Relation("top", 0, _one),
    "bot": Relation("bot", 0, Zero(0)),
}


# ---------------------------------------------------------------------------
# hash-consing

# the interning table of the current command, one dict per class, or None outside any
_TABLE: ContextVar[Optional[defaultdict]] = ContextVar("realizer.arith.table", default=None)


def interned(fn: Callable) -> Callable:
    """fn, run with an interning table of its own when none is open: two calls
    from outside any share no syntax, and a call inside another shares the
    outer call's table."""
    @wraps(fn)
    def scoped(*args, **kwargs):
        if _TABLE.get() is not None:
            return fn(*args, **kwargs)
        token = _TABLE.set(defaultdict(dict))
        try:
            return fn(*args, **kwargs)
        finally:
            _TABLE.reset(token)
    return scoped


class _Syntax:
    """A term or formula, which holds its hash: the generated dataclass hash
    of its fields, made from its parts' hashes when it is made.  Its repr is
    its text in the proof-file syntax."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from .sexpr import print_aterm, print_formula  # sexpr imports this module
        return (print_formula if isinstance(self, _Formula) else print_aterm)(self)

    def __reduce__(self):
        # copies and pickles are made again through the constructor
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


_new = object.__new__
_EMPTY: frozenset = frozenset()


def _slot_setters(cls) -> tuple:
    # a frozen class's own __setattr__ refuses its fields, so they are set through these
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


(_set_hash,) = _slot_setters(_Syntax)


# ---------------------------------------------------------------------------
# first-order terms


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TVar(_Syntax):
    __slots__ = ("name", "_fv")
    name: str
    _normal = True

    def __new__(cls, name: str):
        table = _TABLE.get()
        if table is not None:
            table = table[TVar]
            u = table.get(name)
            if u is not None:
                return u
        u = _new(cls)
        _set_name(u, name)
        _set_var_fv(u, frozenset((name,)))
        _set_hash(u, hash((name,)))
        if table is not None:
            table[name] = u
        return u

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is TVar and self.name == other.name)

    __hash__ = _Syntax.__hash__


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TNum(_Syntax):
    """The closed numeral S^value(0), one leaf whatever its value."""

    __slots__ = ("value",)
    value: int
    _fv, _normal = _EMPTY, True

    def __new__(cls, value: int):
        table = _TABLE.get()
        if table is not None:
            table = table[TNum]
            u = table.get(value)
            if u is not None:
                return u
        u = _new(cls)
        _set_value(u, value)
        _set_hash(u, hash((value,)))
        if table is not None:
            table[value] = u
        return u

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is TNum and self.value == other.value)

    __hash__ = _Syntax.__hash__


def _applied(cls, head: str, args: tuple):
    """cls(head, args), for an application or an atom; its free variables are
    its arguments', and it is normal when they are (and, for an application,
    when it is open too)."""
    table, key = _TABLE.get(), (head, args)
    if table is not None:
        # by value: hashing the arguments is cheaper than a key of their ids
        table = table[cls]
        u = table.get(key)
        if u is not None:
            return u
    fv, normal = _EMPTY, True
    for a in args:
        g = a._fv
        if g and not g <= fv:
            fv = fv | g if fv else g
        if not a._normal:
            normal = False
    if cls is TApp and not fv:
        normal = False
    u = _new(cls)
    if cls is Atom:
        _set_memo(u, None)
    set_head, set_args, set_fv, set_normal = cls._setters
    set_head(u, head)
    set_args(u, args)
    set_fv(u, fv)
    set_normal(u, normal)
    _set_hash(u, hash(key))
    if table is not None:
        table[key] = u
    return u


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class TApp(_Syntax):
    """f(args); 0, and S of a numeral, are built as the numeral leaf."""

    __slots__ = ("fn", "args", "_fv", "_normal")
    fn: str
    args: tuple["ATerm", ...]

    def __new__(cls, fn: str = "", args: tuple = ()):
        if fn == "0" and not args:
            return TNum(0)
        if fn == "S" and len(args) == 1 and type(args[0]) is TNum:
            return TNum(printable(args[0].value + 1))
        return _applied(cls, fn, args)


ATerm = TVar | TNum | TApp
(_set_name, _set_var_fv), (_set_value,) = _slot_setters(TVar), _slot_setters(TNum)
TApp._setters = _slot_setters(TApp)


def tnum(n: int) -> TNum:
    """Numeral n as a first-order term."""
    return TNum(n if n > 0 else 0)


def view(t: ATerm) -> tuple[Optional[str], tuple[ATerm, ...]]:
    """t's head and arguments, a numeral n > 0 read as S(n - 1); a variable's head is None."""
    if type(t) is TNum:
        return ("S", (TNum(t.value - 1),)) if t.value else ("0", ())
    return (t.fn, t.args) if type(t) is TApp else (None, ())


def fold_aterm(t: ATerm, leaf: Callable, app: Callable):
    """t folded bottom-up on an explicit stack: leaf(u) at a variable or numeral,
    app(u, parts) at an application, parts its arguments' results in order."""
    todo, done = [t], []
    while todo:
        u = todo.pop()
        if u is _CLOSE:
            u = todo.pop()
            k = len(done) - len(u.args)
            done[k:] = [app(u, done[k:])]
        elif type(u) is TApp:
            todo += (u, _CLOSE, *reversed(u.args))
        elif type(u) is TVar or type(u) is TNum:
            done.append(leaf(u))
        else:
            raise ArithError(f"not a term: {u!r}")
    return done[0]


def aterm_vars(t: ATerm) -> frozenset[str]:
    if type(t) is not TApp and type(t) is not TVar and type(t) is not TNum:
        raise ArithError(f"not a term: {t!r}")
    return t._fv


def reduce_aterm(t: ATerm, env: Mapping[str, int] = {}, fns: Mapping[str, PrimFn] = FUNCTIONS) -> int:
    """Value of t under env.  Raises UnboundTermVariable on a free variable."""
    def var(u: TVar) -> int:
        if u.name not in env:
            raise UnboundTermVariable(u.name)
        return env[u.name]
    return _norm(t, fns, var)


def subst_aterm(t: ATerm, var: str, rep: ATerm) -> ATerm:
    """t with rep for var; t itself (same object) when var does not occur."""
    if var not in aterm_vars(t):
        return t
    return fold_aterm(t, lambda u: rep if type(u) is TVar and u.name == var else u,
                      lambda u, parts: u if all(map(is_, parts, u.args)) else TApp(u.fn, tuple(parts)))


def norm_aterm(t: ATerm, fns: Mapping[str, PrimFn] = FUNCTIONS) -> ATerm:
    """Collapse every closed subterm to its numeral; a normal t is returned as is."""
    if t._normal:
        return t
    r = _norm(t, fns)
    return tnum(r) if type(r) is int else r


def _norm(t: ATerm, fns: Mapping[str, PrimFn], var: Callable = lambda u: u) -> int | ATerm:
    """Value of t when it is closed once var(u) has read each variable u,
    else its normal form (t itself if unchanged)."""
    def app(u: TApp, parts: list) -> int | ATerm:
        if all(type(p) is int for p in parts):
            if u.fn not in fns:
                raise ArithError(f"unknown function symbol {u.fn!r}")
            return eval_prim(fns[u.fn], parts)
        # a numeral argument is kept as the same object
        args = tuple(p if type(p) is not int else a if type(a) is TNum else tnum(p)
                     for p, a in zip(parts, u.args))
        return u if all(map(is_, args, u.args)) else TApp(u.fn, args)
    return fold_aterm(t, lambda u: u.value if type(u) is TNum else var(u), app)


# ---------------------------------------------------------------------------
# formulas


class _Formula(_Syntax):
    """A formula, which holds its free variables and whether it is normal,
    made from its parts' when it is made, and subst_formula's and
    norm_formula's results on it, by their arguments, once one is made."""

    __slots__ = ("_fv", "_normal", "_memo")


_set_fv, _set_normal, _set_memo = _slot_setters(_Formula)


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Atom(_Formula):
    __slots__ = ("rel", "args")
    rel: str
    args: tuple[ATerm, ...]

    def __new__(cls, rel: str, args: tuple = ()):
        return _applied(cls, rel, args)


Atom._setters = (*_slot_setters(Atom), _set_fv, _set_normal)


class _Binary(_Formula):
    """The layout of the connectives."""

    __slots__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        table = _TABLE.get()
        if table is not None:
            table, key = table[cls], (id(left), id(right))
            u = table.get(key)
            if u is not None:
                return u
        fl, fr = left._fv, right._fv
        u = _new(cls)
        _set_left(u, left)
        _set_right(u, right)
        _set_fv(u, fl if fr <= fl else fr if fl <= fr else fl | fr)
        _set_normal(u, left._normal and right._normal)
        _set_memo(u, None)
        _set_hash(u, hash((left, right)))
        if table is not None:
            table[key] = u
        return u


class _Binder(_Formula):
    """The layout of the quantifiers."""

    __slots__ = ("var", "body")

    def __new__(cls, var: str, body: "Formula"):
        table = _TABLE.get()
        if table is not None:
            table, key = table[cls], (var, id(body))
            u = table.get(key)
            if u is not None:
                return u
        fv = body._fv
        u = _new(cls)
        _set_var(u, var)
        _set_body(u, body)
        _set_fv(u, fv - {var} if var in fv else fv)
        _set_normal(u, body._normal)
        _set_memo(u, None)
        _set_hash(u, hash((var, body)))
        if table is not None:
            table[key] = u
        return u


(_set_left, _set_right), (_set_var, _set_body) = _slot_setters(_Binary), _slot_setters(_Binder)


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class And(_Binary):
    __slots__ = ()
    left: "Formula"
    right: "Formula"


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Or(_Binary):
    __slots__ = ()
    left: "Formula"
    right: "Formula"


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Imply(_Binary):
    __slots__ = ()
    left: "Formula"
    right: "Formula"


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Forall(_Binder):
    __slots__ = ()
    var: str
    body: "Formula"


@structural
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Exists(_Binder):
    __slots__ = ()
    var: str
    body: "Formula"


Formula = Atom | And | Or | Imply | Forall | Exists

TOP = Atom("top")
BOT = Atom("bot")


def neg(a: Formula) -> Formula:
    return Imply(a, BOT)


def fold_formula(f: Formula, atom: Callable, node: Callable):
    """f folded bottom-up on an explicit stack: atom(u) at an atom, node(u, parts)
    at a connective or quantifier, parts its subformulas' results in order (two
    at a connective, one at a quantifier)."""
    if type(f) is Atom:
        return atom(f)
    todo, done = [f], []
    while todo:
        u = todo.pop()
        if u is _CLOSE:
            u = todo.pop()
            k = -1 if type(u) is Forall or type(u) is Exists else -2
            done[k:] = (node(u, done[k:]),)
        elif type(u) is Atom:
            done.append(atom(u))
        elif type(u) is Forall or type(u) is Exists:
            todo += (u, _CLOSE, u.body)
        elif type(u) is And or type(u) is Or or type(u) is Imply:
            todo += (u, _CLOSE, u.right, u.left)
        else:
            raise ArithError(f"not a formula: {u!r}")
    return done[0]


def _rebuilt(u: Formula, parts: list) -> Formula:
    """u over the subformulas parts; u itself (same object) when none changed."""
    if len(parts) == 1:
        return u if parts[0] is u.body else type(u)(u.var, parts[0])
    return u if parts[0] is u.left and parts[1] is u.right else type(u)(*parts)


def free_vars(f: Formula) -> frozenset[str]:
    """f's free variables, stored on f when it was made."""
    return f._fv


def is_normal(f: Formula) -> bool:
    """No application in f's terms is closed, so `norm_formula` returns f for
    any table; stored on f when it was made."""
    return f._normal


def _recall(u: Formula, key):
    """The result stored on u under key, or None."""
    hit = None if u._memo is None else u._memo.get(key)
    return None if hit is None else hit[1]


def _remember(u: Formula, key, held, result: Formula) -> None:
    """Store result on u under key, with held, whose id key holds, kept alive."""
    if result is not u:  # which would keep u alive by itself
        if u._memo is None:
            _set_memo(u, {})
        u._memo[key] = (held, result)


def _fresh(base: str, taken: AbstractSet[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


_AGAIN, _BIND = object(), object()  # the frames of subst_formula's stack


def subst_formula(f: Formula, var: str, rep: ATerm) -> Formula:
    """Capture-avoiding substitution f[var := rep]; f itself (same object)
    when var is not free in f.

    A quantifier over a variable of rep whose body has var free becomes one
    over a fresh w, with body[v := w][var := rep].  Capture is decided before
    a body is walked, on an explicit stack, so no body is substituted twice
    over and depth costs no Python stack.  The walk skips every subformula
    in which var is not free, and the result is stored on f under
    (var, id(rep)), so it is made once."""
    if var not in f._fv:
        return f
    hit = _recall(f, (var, id(rep)))
    if hit is not None:
        return hit
    # (None, g, x, r): push g[x := r]; (_CLOSE, u, x, r): rebuild u over the
    # last results; (_AGAIN, None, x, r): substitute in the last result again;
    # (_BIND, u, x, r): u's quantifier over the fresh variable and the last result
    todo, done = [(None, f, var, rep)], []
    while todo:
        frame, u, x, r = todo.pop()
        if frame is None:
            if x not in u._fv:
                done.append(u)
            elif type(u) is Atom:
                done.append(Atom(u.rel, tuple([subst_aterm(a, x, r) for a in u.args])))
            elif type(u) is Forall or type(u) is Exists:
                # x is free in u, so it is not u.var and is free in u.body
                if u.var in r._fv:
                    w = TVar(_fresh(u.var, r._fv | u.body._fv))
                    todo += ((_BIND, u, x, r), (_AGAIN, None, x, r), (None, u.body, u.var, w))
                else:
                    todo += ((_CLOSE, u, x, r), (None, u.body, x, r))
            else:
                todo += ((_CLOSE, u, x, r), (None, u.right, x, r), (None, u.left, x, r))
        elif frame is _CLOSE:
            n = 1 if type(u) is Forall or type(u) is Exists else 2
            done[-n:] = (_rebuilt(u, done[-n:]),)
        elif frame is _AGAIN:
            todo.append((None, done.pop(), x, r))
        else:
            done[-1] = type(u)(_fresh(u.var, r._fv | u.body._fv), done[-1])
    _remember(f, (var, id(rep)), rep, done[0])
    return done[0]


def norm_formula(f: Formula, fns: Mapping[str, PrimFn] = FUNCTIONS) -> Formula:
    """Normalize all first-order terms inside f (closed subterms to numerals);
    f itself (same object) when f is normal.

    The walk skips every normal subformula, and the result is stored on f
    under id(fns), so it is made once: a table only grows while it is in
    use."""
    if f._normal:
        return f
    hit = _recall(f, id(fns))
    if hit is not None:
        return hit
    todo, done = [f], []
    while todo:
        u = todo.pop()
        if u is _CLOSE:
            u = todo.pop()
            n = 1 if type(u) is Forall or type(u) is Exists else 2
            done[-n:] = (_rebuilt(u, done[-n:]),)
        elif u._normal:
            done.append(u)
        elif type(u) is Atom:
            done.append(Atom(u.rel, tuple([norm_aterm(t, fns) for t in u.args])))
        elif type(u) is Forall or type(u) is Exists:
            todo += (u, _CLOSE, u.body)
        else:
            todo += (u, _CLOSE, u.right, u.left)
    _remember(f, id(fns), fns, done[0])
    return done[0]


def formulas_equal(a: Formula, b: Formula, fns: Mapping[str, PrimFn] = FUNCTIONS) -> bool:
    """Equality up to normalization of closed subterms.

    Syntactically equal formulas are equal without being normalized, so a
    closed term with an unknown function symbol raises ArithError only when
    the two sides differ.
    """
    return a is b or a == b or norm_formula(a, fns) == norm_formula(b, fns)


def atomic_truth(
    f: Formula,
    rels: Mapping[str, Relation] = RELATIONS,
    fns: Mapping[str, PrimFn] = FUNCTIONS,
) -> bool:
    """Truth of a closed atom.  Raises NotClosed on anything else."""
    if not isinstance(f, Atom):
        raise NotClosed(f"not atomic: {f!r}")
    if free_vars(f):
        raise NotClosed(f"free variables {sorted(free_vars(f))}")
    if f.rel not in rels:
        raise ArithError(f"unknown relation {f.rel!r}")
    rel = rels[f.rel]
    if len(f.args) != rel.arity:
        raise ArityMismatch(f"{f.rel} expects {rel.arity} arguments, got {len(f.args)}")
    return rel.holds([reduce_aterm(t, {}, fns) for t in f.args])

