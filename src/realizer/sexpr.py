"""S-expression syntax for proof files, derivations, formulas and terms.

A proof file is a sequence of parenthesized top-level forms:

    (deffn NAME PRIMFN)             (defrel NAME ARITY PRIMFN)
    (defterm NAME TERM)             (defder NAME DERIVATION)

read in order, so definitions may use earlier ones and the built-in
function and relation tables.  Comments run from ';' to end of line;
whitespace is space, tab, CR and LF.

A text is split once into a token list that readers address by index, so
no object is made per token, and a ParseError works out its line and
column only when it is raised.  The split runs in C: parentheses are
spaced out, and a printable text is split at its runs of whitespace by
str.split(), which is exact because " " is the only printable whitespace
character.  A text that holds other whitespace, a no-break space say, which
stays inside its token, is split at single spaces and the empty strings
dropped.

Repeated forms are shared.  A type, a context (ctx ...), a sequent's goal,
an assumption's formula and a first-order variable or numeral met again in
the same text are looked up by their tokens, so each is read once and the
same tokens give one object (a type is also one object per class and
parts): a derivation restates its context and goals at every node, a
realizer its types at every binder.  Terms and formulas are also one
object per value within a read, through `arith`'s interning table.
Only those places are keyed, not every subformula: keys at every level
would cost O(size x depth) on a deep form.  A print call prints each type
object once and reuses its text or block wherever the object recurs, since
layout adds indentation only when printing ends.  That memo is keyed by
identity, not value, and ends with the call: the frozen dataclasses' hash
walks the whole object, and recurses on a deep one, while reading and
extraction already make most equal types one object.

Primitive functions, types, formulas, terms, rules, derivations,
sequents, contexts and definitions each have one table of forms: a head,
how the object is made from its arguments and split back into them, and
the kind (a reader paired with a printer) of each argument.  read_X (of a
text of one form) and print_X walk the same table with an explicit stack,
so each head is spelled once and depth costs no Python stack.
Printing is the inverse on checked objects: parse(print(x)) == x.

This is the only printer of types, terms, first-order terms, formulas and
sequents.  The repr of a first-order term or formula is its print_X text,
normalizer trace stamps hash a sequent's, and the error messages of the
other modules show these objects through print_X with brief=True, which
names a form that does not fit on one line by its head alone, so a message
stays short however deep the object is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Optional

from . import arith
from . import deduction as dd
from . import terms as tm
from .arith import (
    And, Atom, ATerm, Comp, Exists, Forall, Imply, Or, PRec, PrimFn,
    Proj, Relation, Succ, TApp, TNum, TVar, Zero,
)
from .deduction import Derivation, Sequent
from .terms import Const, Lam, Num, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# reading: one token list


# a comment, a parenthesis or an atom; what no match covers is whitespace
_TOKEN = re.compile(r";[^\n]*|[()]|[^(); \t\r\n]+")
_COMMENT = re.compile(r";[^\n]*")
_INT = re.compile(r"-?\d+$")
_CONVERTS = 640  # int() converts a numeral this long: its limit is 640 digits or more


def _offsets(text: str) -> list[int]:
    # where each token of _Reader(text).toks starts in text
    return [m.start() for m in _TOKEN.finditer(text) if text[m.start()] != ";"]


class _Reader:
    """The tokens of one text, comments left out, and the shared forms read so far.

    after[i] is the index just past the form that starts at token i: i + 1
    for an atom, one past the matching ')' for a '('.
    """

    def __init__(self, text: str, fns=None, rels=None):
        # the tokens _TOKEN matches, split out by str methods, which are faster
        spaced = _COMMENT.sub("", text) if ";" in text else text
        for ch, by in ("(", " ( "), (")", " ) "), ("\t", " "), ("\r", " "), ("\n", " "):
            spaced = spaced.replace(ch, by)
        # " " is the one printable whitespace character, so a printable text
        # splits at its runs of " " alone, and split() does that in C
        self.text, self.toks = text, (spaced.split() if spaced.isprintable()
                                      else list(filter(None, spaced.split(" "))))
        self.after = after = list(range(1, len(self.toks) + 1))
        opened = []
        for i, t in enumerate(self.toks):
            if t == "(":
                opened.append(i)
            elif t == ")":
                if not opened:
                    raise self.error(i, "unmatched ')'")
                after[opened.pop()] = i + 1
            elif len(t) > _CONVERTS and _INT.match(t):
                try:
                    int(t)
                except ValueError:  # more digits than the interpreter converts
                    raise self.error(i, f"numeral of {len(t)} characters is too long") from None
        if opened:
            raise self.error(opened[-1], "unclosed parenthesis")
        # reading never adds to the tables, so the standard ones serve as defaults
        self.fns = arith.FUNCTIONS if fns is None else fns
        self.rels = arith.RELATIONS if rels is None else rels
        # forms of the shared kinds by (reader, *tokens), and types by (class, *parts)
        self.shared: dict = {}
        self.leaves: dict = {}  # first-order variables and numerals by token

    def error(self, i: int, message: str) -> ParseError:
        # at token i, or at the end of the text when i is the number of tokens
        pos = (_offsets(self.text) + [len(self.text)])[i]
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def items(self, i: int, end: int) -> list[int]:
        """The indices of the forms from token i up to token end."""
        after, out = self.after, []
        while i < end:
            out.append(i)
            i = after[i]
        return out


def _sym(i: int, rd: _Reader, what: str) -> str:
    tok = rd.toks[i]
    if tok == "(" or _INT.match(tok):
        raise rd.error(i, f"expected {what}")
    return tok


def _int(i: int, rd: _Reader, what: str) -> int:
    tok = rd.toks[i]
    if not _INT.match(tok):
        raise rd.error(i, f"expected {what}")
    return int(tok)


def _list(i: int, rd: _Reader, what: str) -> list[int]:
    if rd.toks[i] != "(":
        raise rd.error(i, f"expected {what}")
    return rd.items(i + 1, rd.after[i] - 1)


def _form(i: int, rd: _Reader, what: str) -> tuple[str, list[int]]:
    items = _list(i, rd, what)
    if not items:
        raise rd.error(i, f"empty form where {what} was expected")
    head = rd.toks[i + 1]
    if head == "(" or _INT.match(head):
        raise rd.error(i + 1, f"expected {what} head")
    return head, items[1:]


# ---------------------------------------------------------------------------
# layout

_WIDTH = 100
_DEEPEST = 120  # no line is indented further, so depth n prints in O(n) bytes


class _Block:
    """A printed form that does not fit on one line, laid out once printing ends.

    (HEAD ARG ...) breaks after its head and puts each argument on its own
    line, two spaces in from the form's own lines.  A form with a block among
    its parts cannot fit on one line either.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


def _flat(*parts: str) -> str:
    return "(" + " ".join(parts) + ")"


def _wrap(*parts):
    """(HEAD ARG ...) on one line when that fits in _WIDTH, else a _Block.

    parts are single-line strings or blocks.
    """
    if _Block not in map(type, parts):
        flat = "(" + " ".join(parts) + ")"
        if len(flat) <= _WIDTH or len(parts) == 1:
            return flat
    return _Block(parts)


def _text(x) -> str:
    """The text of a printed object, each line indented once, top down."""
    if type(x) is not _Block:
        return x
    out: list[str] = []
    work: list = [(x, 0)]  # (block, indent of its lines after the first), or text
    while work:
        job = work.pop()
        if type(job) is str:
            out.append(job)
            continue
        block, indent = job
        inner = min(indent + 2, _DEEPEST)
        work.append(")")
        for p in reversed(block.parts[1:]):
            work.append((p, inner) if type(p) is _Block else p)
            work.append("\n" + " " * inner)
        head = block.parts[0]
        work.append((head, indent) if type(head) is _Block else head)
        work.append("(")
    return "".join(out)


# ---------------------------------------------------------------------------
# kinds, forms and the walker


class _Kind(NamedTuple):
    """How one argument is read, read(index, reader), and printed,
    print(obj, printed), printed being the memo of one print call."""

    read: Callable
    print: Callable


@dataclass
class _Form:
    """One form (HEAD ARG ...) of a table."""

    head: str
    make: Callable  # the argument values -> the object
    split: Callable  # the object -> the argument values
    kinds: tuple  # of the leading arguments
    rest: Optional[_Kind] = None  # of any further ones
    least: Optional[int] = None  # fewest arguments, when not len(kinds)
    short: str = ""  # the error for too few arguments, when not the arity one
    check: Optional[Callable] = None  # (index, args, reader), before reading
    key: object = None  # the printer's key, when make is not a class
    flat: bool = False  # printed on one line, however long

    def __post_init__(self):
        if self.least is None:
            self.least = len(self.kinds)
        self.reads = tuple(k.read for k in self.kinds)
        # the argument count read without _read_form's checks, else -1
        self.fixed = self.least if self.least == len(self.kinds) and self.check is None else -1
        self.prints = tuple(k.print for k in self.kinds)
        self.join = partial(_flat if self.flat else _wrap, self.head)  # the printer's make


def _walk(root: list, ctx):
    """Finish the open form root; ctx (the _Reader, or the memo of a print
    call) goes to every reader or printer.

    An open form is a list [make, parts, at]: parts yields (reader or
    printer, argument) pairs in order and make(*results) finishes it.  A
    reader or printer returns its result, never a list, or a further open
    form, which waits on the stack with its parts iterator where it
    stopped.  A make raising ArityMismatch is reported at token index at.
    """
    make, parts, at = root
    parts, results, stack = iter(parts), [], []  # stack: the open forms above
    while True:
        for step, x in parts:
            x = step(x, ctx)
            if type(x) is list:
                stack.append((make, parts, at, results))
                make, parts, at = x
                parts, results = iter(parts), []
                break
            results.append(x)
        else:
            try:
                value = make(*results)
            except arith.ArityMismatch as e:
                raise ctx.error(at, str(e)) from e
            if not stack:
                return value
            make, parts, at, results = stack.pop()
            results.append(value)


def _only(x):
    return x


@arith.interned
def _read(kind: _Kind, text: str, fns=None, rels=None):
    """The one form of text read as kind; the public read_X are this with X's kind."""
    rd = _Reader(text, fns, rels)
    forms = rd.items(0, len(rd.toks))
    if len(forms) != 1:
        raise rd.error(forms[1] if forms else 0, f"expected one form, found {len(forms)}")
    return _walk([_only, [(kind.read, forms[0])], forms[0]], rd)


def _print(kind: _Kind, obj, brief: bool = False) -> str:
    """obj printed as kind; the public print_X are this with X's kind.

    brief is for messages: a form that does not fit on one line prints as
    (HEAD ...), so the text is short however large obj is.
    """
    x = _walk([_only, [(kind.print, obj)], None], {})
    if brief and (type(x) is _Block or len(x) > _WIDTH):
        head = x.parts[0] if type(x) is _Block else x.split(" ", 1)[0].lstrip("(")
        return f"({head} ...)"
    return _text(x)


def _read_form(form: _Form, i: int, args: list[int], rd: _Reader) -> list:
    n, got = len(form.kinds), len(args)
    if got < form.least or (got > n and form.rest is None):
        raise rd.error(i, form.short or f"{form.head} takes {n} arguments, got {got}")
    if form.check is not None:
        form.check(i, args, rd)
    reads = form.reads if got <= n else form.reads + (form.rest.read,) * (got - n)
    return [form.make, zip(reads, args), i]


def _print_form(form: _Form, values) -> list:
    prints = form.prints
    if form.rest is not None:
        prints += (form.rest.print,) * (len(values) - len(prints))
    return [form.join, zip(prints, values), None]


class _Table:
    """The forms of one syntactic category, and the heads that stand alone.

    The printer looks an object up by key(obj): a bare head by the key of
    its object, a form by its make when that is a class, else by its head
    (which for a term constant is the constant's kind).
    """

    def __init__(self, what: str, noun: str, key: Callable = type):
        self.what, self.noun, self.key = what, noun, key
        self.kind = _Kind(self.read, self.print)

    def define(self, forms, bare: Optional[Mapping] = None):
        self.bare = bare  # None: a symbol is never one of these
        self.heads = {f.head: f for f in forms}
        self.printed = {self.key(v): name for name, v in (bare or {}).items()}
        for f in forms:
            self.printed[f.key or (f.make if isinstance(f.make, type) else f.head)] = f

    def read(self, i: int, rd: _Reader):
        toks = rd.toks
        tok = toks[i]
        if tok == "(":
            form = self.heads.get(toks[i + 1])
            if form is not None:  # so the head is a symbol
                args = rd.items(i + 2, rd.after[i] - 1)
                if len(args) == form.fixed:
                    return [form.make, zip(form.reads, args), i]
                return _read_form(form, i, args, rd)
        elif self.bare is not None:
            value = self.bare.get(tok)
            if value is not None:
                return value
            if not _INT.match(tok):
                raise rd.error(i, f"unknown {self.noun} {tok!r}")
        head, _ = _form(i, rd, self.what)  # raises for what is not a form
        raise rd.error(i, f"unknown {self.noun} form {head!r}")

    def print(self, obj, printed: dict):
        entry = self.printed.get(self.key(obj))
        if entry is None:
            raise ValueError(f"not {self.what}: {obj!r}")
        return entry if type(entry) is str else _print_form(entry, entry.split(obj))


def _str(x, printed: dict) -> str:
    return str(x)


def _symbol(what: str) -> _Kind:
    return _Kind(partial(_sym, what=what), _str)


def _integer(what: str) -> _Kind:
    return _Kind(partial(_int, what=what), _str)


def _shared(kind: _Kind) -> _Kind:
    """kind, with each of its forms read once per text: a form met again is
    looked up by its tokens, so the same tokens give one object.  A form enters the
    memo once it has read without error; the function and relation tables
    only grow, so its tokens read to an equal object wherever they recur."""
    def read(i: int, rd: _Reader):
        if rd.toks[i] != "(":
            return kind.read(i, rd)
        key = (read, *rd.toks[i:rd.after[i]])
        x = rd.shared.get(key)
        if x is not None:
            return x
        return [partial(rd.shared.setdefault, key), [(kind.read, i)], i]

    return _Kind(read, kind.print)


def _fields(obj):
    # the dataclass fields, in order
    return map(obj.__getattribute__, obj.__match_args__)


_LABEL = _symbol("a label")
_VARIABLE = _symbol("a variable")
_ARITY = _integer("an arity")


def _read_relation(i: int, rd: _Reader) -> str:
    rel = _sym(i, rd, "a relation name")
    if rel not in rd.rels:
        raise rd.error(i, f"unknown relation {rel!r}")
    return rel


def _read_function_name(i: int, rd: _Reader) -> tuple[str, PrimFn]:
    name = _sym(i, rd, "a function name")
    if name not in rd.fns:
        raise rd.error(i, f"unknown function {name!r}")
    return name, rd.fns[name]


def _read_numerals(i: int, rd: _Reader) -> tuple[int, ...]:
    return tuple(_int(a, rd, "a numeral") for a in _list(i, rd, "arguments"))


_RELATION = _Kind(_read_relation, _str)
_FUNCTION_NAME = _Kind(_read_function_name, lambda tag, printed: tag[0])
_NUMERALS = _Kind(_read_numerals, lambda args, printed: _flat(*map(str, args)))


# ---------------------------------------------------------------------------
# primitive recursive functions

# (zero 0) prints as the bare zero; every other function by its class
_PRIMFNS = _Table("a function", "function", key=lambda f: f if f == Zero(0) else type(f))


def _read_primfn(i: int, rd: _Reader) -> PrimFn:
    # a symbol other than a bare head names a built-in or defined function
    tok = rd.toks[i]
    if tok not in _PRIMFNS.bare and tok in rd.fns:
        return rd.fns[tok]
    return _PRIMFNS.read(i, rd)


_FN = _Kind(_read_primfn, _PRIMFNS.print)
_ZERO = _Form("zero", Zero, _fields, (_ARITY,), flat=True)
_PRIMFNS.define(
    (
        _ZERO,
        _Form("proj", Proj, _fields, (_ARITY, _integer("an index")), flat=True),
        _Form("comp", lambda outer, *inner: Comp(outer, inner),
              lambda c: (c.outer, *c.inner), (_FN,), rest=_FN,
              short="comp needs an outer function", key=Comp),
        _Form("prec", PRec, lambda p: (p.base, p.step), (_FN, _FN)),
    ),
    bare={_ZERO.head: Zero(0), "S": Succ()},
)
read_primfn = partial(_read, _FN)  # (text, fns)
print_primfn = partial(_print, _FN)


# ---------------------------------------------------------------------------
# first-order terms and formulas


def _read_aterm(i: int, rd: _Reader) -> ATerm:
    tok = rd.toks[i]
    if tok != "(":
        leaf = rd.leaves.get(tok)
        if leaf is None:
            if not _INT.match(tok):
                leaf = TVar(tok)
            else:
                value = int(tok)
                if value < 0:
                    raise rd.error(i, "negative numeral")
                leaf = TNum(value)
            rd.leaves[tok] = leaf
        return leaf
    head, args = _form(i, rd, "a term")
    if head not in rd.fns:
        raise rd.error(i, f"unknown function {head!r}")
    if rd.fns[head].arity != len(args):
        raise rd.error(i, f"{head!r} takes {rd.fns[head].arity} arguments, got {len(args)}")
    return [lambda *xs: TApp(head, xs), [(_read_aterm, a) for a in args], i]


def _print_aterm(t: ATerm, printed: dict):
    return arith.fold_aterm(t, lambda u: u.name if type(u) is TVar else str(u.value),
                            lambda u, parts: _wrap(u.fn, *parts))


_ATERM = _Kind(_read_aterm, _print_aterm)
read_aterm = partial(_read, _ATERM)  # (text, fns)
print_aterm = partial(_print, _ATERM)


def _relation_arity(i: int, args: list[int], rd: _Reader):
    rel = _read_relation(args[0], rd)
    if rd.rels[rel].arity != len(args) - 1:
        raise rd.error(i, f"{rel!r} takes {rd.rels[rel].arity} arguments, got {len(args) - 1}")


_FORMULAS = _Table("a formula", "formula")
_FORMULA = _FORMULAS.kind
_FORMULAS.define((
    _Form("atom", lambda rel, *args: Atom(rel, args), lambda a: (a.rel, *a.args),
          (_RELATION,), rest=_ATERM, short="atom needs a relation name",
          check=_relation_arity, key=Atom),
    _Form("and", And, _fields, (_FORMULA, _FORMULA)),
    _Form("or", Or, _fields, (_FORMULA, _FORMULA)),
    _Form("imply", Imply, _fields, (_FORMULA, _FORMULA)),
    _Form("forall", Forall, _fields, (_VARIABLE, _FORMULA)),
    _Form("exists", Exists, _fields, (_VARIABLE, _FORMULA)),
))
read_formula = partial(_read, _FORMULA)  # (text, fns, rels)
print_formula = partial(_print, _FORMULA)


# ---------------------------------------------------------------------------
# computation types and terms

_TYPES = _Table("a type", "type")


def _print_type(ty, printed: dict):
    # a ground type prints as its name: the four share a class, which is
    # what the table looks a printed object up by.  Any other type object is
    # printed once per call, by its id: its text or block is laid out only
    # when printing ends, so it serves every place the object occurs.
    if type(ty) is tm.TBase:
        return ty.name
    done = printed.get(id(ty))
    if done is not None:
        return done[1]
    x = _TYPES.print(ty, printed)
    join = x[0]
    x[0] = lambda *parts: printed.setdefault(id(ty), (ty, join(*parts)))[1]
    return x


def _read_part(i: int, rd: _Reader):
    # one object per class and parts, which are one object each already and
    # kept alive by rd.shared, so their ids stay theirs
    x = _TYPES.read(i, rd)
    if type(x) is list:
        make, shared = x[0], rd.shared
        x[0] = lambda *parts: shared.setdefault((make, *map(id, parts)), make(*parts))
    return x


_PART = _Kind(_read_part, _print_type)
_TYPE = _shared(_PART)
_TYPES.define(
    (
        _Form("arrow", tm.TArrow, _fields, (_PART, _PART)),
        _Form("prod", tm.TProd, _fields, (_PART, _PART)),
        _Form("sum", tm.TSum, _fields, (_PART, _PART)),
    ),
    bare={ty.name: ty for ty in (tm.UNIT, tm.NAT, tm.STATE, tm.EX)},
)
read_type = partial(_read, _TYPE)  # (text)
print_type = partial(_print, _TYPE)


def _spine(t: Term) -> tuple[Term, ...]:
    head, args = tm.spine(t)
    return (head, *args)


_tys, _tag = attrgetter("tys"), attrgetter("tag")
# a constant prints by its kind, which is its head; other terms by class
_TERMS = _Table("a term", "term", key=lambda t: t.kind if type(t) is Const else type(t))
_TERM = _TERMS.kind
_TERMS.define(
    (
        _Form("var", Var, _fields, (_integer("an index"),), flat=True),
        _Form("num", Num, _fields, (_integer("a natural"),), flat=True),
        _Form("lam", Lam, _fields, (_TYPE, _TERM)),
        _Form("app", tm.app, _spine, (_TERM, _TERM), rest=_TERM,
              short="app needs a function and an argument", key=tm.App),
        _Form("pair", tm.pair_c, _tys, (_TYPE, _TYPE)),
        _Form("prl", tm.prl_c, _tys, (_TYPE, _TYPE)),
        _Form("prr", tm.prr_c, _tys, (_TYPE, _TYPE)),
        _Form("inl", tm.inl_c, _tys, (_TYPE, _TYPE)),
        _Form("inr", tm.inr_c, _tys, (_TYPE, _TYPE)),
        _Form("case", tm.case_c, _tys, (_TYPE, _TYPE, _TYPE)),
        _Form("rec", tm.rec_c, lambda c: c.tys if c.tag is None else (*c.tys, c.tag),
              (_TYPE, _integer("a guard")), least=1),
        _Form("query", tm.query_c, _tag, (_RELATION, _ARITY)),
        _Form("eval", tm.eval_c, _tag, (_RELATION, _ARITY)),
        _Form("prim", lambda tag: tm.prim_c(*tag), lambda c: (c.tag,), (_FUNCTION_NAME,)),
        _Form("exc", tm.exc_const, _tag,
              (_symbol("a relation name"), _NUMERALS, _integer("a witness"))),
    ),
    bare={c.kind: c for c in
          (tm.unit_const, tm.zero, tm.succ, tm.exmerge_const, tm.staterep)},
)
read_term = partial(_read, _TERM)  # (text, fns, rels)
print_term = partial(_print, _TERM)


# ---------------------------------------------------------------------------
# sequents, rules and derivations

_RULES = _Table("a rule", "rule")
_RULE = _RULES.kind
_RULES.define(
    (
        _Form("id", dd.Id, _fields, (_LABEL,)),
        _Form("atom-post", dd.AtomPost, _fields, (_symbol("a posited rule name"),)),
        _Form("or-e", dd.OrE, _fields, (_LABEL,)),
        _Form("imply-i", dd.ImplyI, _fields, (_LABEL,)),
        _Form("forall-i", dd.ForallI, _fields, (_VARIABLE,)),
        _Form("forall-e", dd.ForallE, _fields, (_ATERM,)),
        _Form("exists-i", dd.ExistsI, _fields, (_ATERM,)),
        _Form("exists-e", dd.ExistsE, _fields, (_LABEL, _VARIABLE)),
        _Form("ind", dd.Ind, _fields, (_LABEL, _VARIABLE, _FORMULA, _ATERM)),
        _Form("cind", dd.CInd, _fields, (_LABEL, _VARIABLE)),
        _Form("em", dd.EM, _fields, (_LABEL, _VARIABLE)),
    ),
    bare={"atom-i": dd.AtomI(), "atom-e": dd.AtomE(), "and-i": dd.AndI(), "and-el": dd.AndEL(),
          "and-er": dd.AndER(), "or-il": dd.OrIL(), "or-ir": dd.OrIR(), "imply-e": dd.ImplyE(),
          "false-e": dd.FalseE0()},
)


def _sole(form: _Form, what: str, wrong: str) -> _Kind:
    """The kind of a category of one form: any other head is the error wrong."""
    def read(i: int, rd: _Reader):
        if rd.toks[i] == "(" and rd.toks[i + 1] == form.head:
            return _read_form(form, i, rd.items(i + 2, rd.after[i] - 1), rd)
        _form(i, rd, what)  # raises for what is not a form
        raise rd.error(i, wrong)

    return _Kind(read, lambda obj, printed: _print_form(form, form.split(obj)))


# a sequent's goal and an assumption's formula share one memo, so a
# formula assumed and later derived is one object in both places
_GOAL = _shared(_FORMULA)


def _read_entry(i: int, rd: _Reader) -> list:
    items = _list(i, rd, "a context entry")
    if len(items) != 2:
        raise rd.error(i, "context entries are (LABEL FORMULA)")
    return [lambda *entry: entry, zip((_LABEL.read, _GOAL.read), items), i]


_ENTRY = _Kind(_read_entry,
               lambda e, printed: [_wrap, zip((_LABEL.print, _FORMULA.print), e), None])
_CONTEXT = _shared(_sole(_Form("ctx", lambda *entries: entries, _only, (), rest=_ENTRY),
                         "a context", "expected (ctx (LABEL FORMULA) ...)"))
_SEQUENT = _sole(_Form("seq", Sequent, _fields, (_CONTEXT, _GOAL)), "a sequent",
                 "expected (seq (ctx ...) GOAL)")
_NOT_DER = "expected (der RULE SEQUENT PREMISSES...)"
# a premiss is read and printed by the derivation kind, made below from der
_PREMISS = _Kind(lambda i, rd: _DERIVATION.read(i, rd),
                 lambda d, printed: _DERIVATION.print(d, printed))
_DERIVATION = _sole(
    _Form("der", lambda rule, seq, *prems: Derivation(rule, seq, prems),
          lambda d: (d.rule, d.conclusion, *d.premisses), (_RULE, _SEQUENT),
          rest=_PREMISS, short=_NOT_DER),
    "a derivation", _NOT_DER)
read_rule = partial(_read, _RULE)  # (text, fns, rels)
read_derivation = partial(_read, _DERIVATION)  # (text, fns, rels)
print_derivation = partial(_print, _DERIVATION)
print_sequent = partial(_print, _SEQUENT)


# ---------------------------------------------------------------------------
# proof files


@dataclass
class ProofFile:
    """Checked content of one file; tables start from the built-ins."""

    fns: dict[str, PrimFn] = field(default_factory=lambda: dict(arith.FUNCTIONS))
    rels: dict[str, Relation] = field(default_factory=lambda: dict(arith.RELATIONS))
    terms: dict[str, Term] = field(default_factory=dict)
    derivs: dict[str, Derivation] = field(default_factory=dict)
    order: tuple[tuple[str, str], ...] = ()  # user definitions, in file order


def _value(name: str, value):
    return value


_NAME = _symbol("a name")
# head -> (the ProofFile table it fills, its form over (name, value))
_DEFINITIONS = {
    f.head: (attr, f) for attr, f in (
        ("fns", _Form("deffn", _value, _only, (_NAME, _FN))),
        ("rels", _Form("defrel", Relation, lambda e: (e[0], e[1].arity, e[1].char),
                       (_NAME, _ARITY, _FN))),
        ("terms", _Form("defterm", _value, _only, (_NAME, _TERM))),
        ("derivs", _Form("defder", _value, _only, (_NAME, _DERIVATION))),
    )
}


@arith.interned
def parse_file(text: str) -> ProofFile:
    pf = ProofFile()
    order = []
    rd = _Reader(text, pf.fns, pf.rels)
    for i in rd.items(0, len(rd.toks)):
        head, args = _form(i, rd, "a definition")
        if head not in _DEFINITIONS:
            raise rd.error(i, f"unknown top-level form {head!r}")
        attr, form = _DEFINITIONS[head]
        table = getattr(pf, attr)
        name = _sym(args[0] if args else i, rd, "a name")
        if name in table:
            raise rd.error(args[0], f"duplicate name {name!r}")
        table[name] = _walk(_read_form(form, i, args, rd), rd)
        order.append((head, name))
    pf.order = tuple(order)
    return pf


def print_file(pf: ProofFile) -> str:
    lines, printed = [], {}
    for head, name in pf.order:
        attr, form = _DEFINITIONS[head]
        value = getattr(pf, attr)[name]
        lines.append(_text(_walk(_print_form(form, form.split((name, value))), printed)))
    return "\n".join(lines) + ("\n" if lines else "")
