"""The node reader that sexpr's token-index reader replaced, kept as a test
oracle.

read_nodes builds one object per token (Sym, IntTok) and per list
(ListNode), each with the offset where it starts.  The readers below walk
those nodes through sexpr's own tables of forms, as sexpr read them: a
form's head, make, arity and kinds come from the table, and _NODE_READS
gives the node reader of each kind.  Every ParseError is raised where the
node reader raised it, so its message, line and column are the ones the
replaced reader gave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from realizer import arith
from realizer import sexpr as sx
from realizer.arith import TApp, TVar, tnum
from realizer.deduction import Derivation, Sequent
from realizer.sexpr import ParseError, ProofFile


@dataclass(slots=True)
class Sym:
    text: str
    pos: int = 0  # offset of the first character in src
    src: str = field(default="", compare=False, repr=False)


@dataclass(slots=True)
class IntTok:
    value: int
    pos: int = 0
    src: str = field(default="", compare=False, repr=False)


@dataclass(slots=True)
class ListNode:
    items: tuple["Node", ...]
    pos: int = 0
    src: str = field(default="", compare=False, repr=False)


Node = Union[Sym, IntTok, ListNode]


def _error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _err(node: Node, message: str) -> ParseError:
    return _error(node.src, node.pos, message)


def read_nodes(text: str) -> list[Node]:
    """All top-level nodes of text."""
    items: list[Node] = []  # of the innermost open list, or the top level
    opened = []  # (offset, enclosing items) of each open list
    for m in sx._TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            opened.append((m.start(), items))
            items = []
        elif tok == ")":
            if not opened:
                raise _error(text, m.start(), "unmatched ')'")
            pos, outer = opened.pop()
            outer.append(ListNode(tuple(items), pos, text))
            items = outer
        elif sx._INT.match(tok):
            try:
                value = int(tok)
            except ValueError:  # more digits than the interpreter converts
                raise _error(text, m.start(),
                             f"numeral of {len(tok)} characters is too long") from None
            items.append(IntTok(value, m.start(), text))
        elif tok[0] != ";":
            items.append(Sym(tok, m.start(), text))
    if opened:
        raise _error(text, opened[-1][0], "unclosed parenthesis")
    return items


def _sym(node: Node, what: str) -> str:
    if type(node) is not Sym:
        raise _err(node, f"expected {what}")
    return node.text


def _int(node: Node, what: str) -> int:
    if type(node) is not IntTok:
        raise _err(node, f"expected {what}")
    return node.value


def _list(node: Node, what: str) -> tuple[Node, ...]:
    if type(node) is not ListNode:
        raise _err(node, f"expected {what}")
    return node.items


def _form(node: Node, what: str) -> tuple[str, tuple[Node, ...]]:
    items = _list(node, what)
    if not items:
        raise _err(node, f"empty form where {what} was expected")
    if type(items[0]) is not Sym:
        raise _err(items[0], f"expected {what} head")
    return items[0].text, items[1:]


def _takes(node: Node, name: str, arity: int, got: int):
    if arity != got:
        raise _err(node, f"{name!r} takes {arity} arguments, got {got}")


def _walk(root: list, *ctx):
    """sexpr's walker as it was: open forms [make, parts, node]."""
    stack = [(root[0], iter(root[1]), root[2], [])]
    while True:
        make, parts, node, results = stack[-1]
        for step, x in parts:
            x = step(x, *ctx)
            if type(x) is list:
                stack.append((x[0], iter(x[1]), x[2], []))
                break
            results.append(x)
        else:
            stack.pop()
            try:
                value = make(*results)
            except arith.ArityMismatch as e:
                raise _err(node, str(e)) from e
            if not stack:
                return value
            stack[-1][3].append(value)


# ---------------------------------------------------------------------------
# node readers of sexpr's kinds


def _read_form(form: sx._Form, node: Node, args: tuple[Node, ...], fns, rels) -> list:
    n, got = len(form.kinds), len(args)
    if got < form.least or (got > n and form.rest is None):
        raise _err(node, form.short or f"{form.head} takes {n} arguments, got {got}")
    if form.check is not None:  # only atom has one
        _relation_arity(node, args, fns, rels)
    kinds = form.kinds if got <= n else form.kinds + (form.rest,) * (got - n)
    return [form.make, [(_NODE_READS[k], a) for k, a in zip(kinds, args)], node]


def _table_reader(table: sx._Table):
    def read(node: Node, fns, rels):
        if table.bare is not None and type(node) is Sym:
            if node.text not in table.bare:
                raise _err(node, f"unknown {table.noun} {node.text!r}")
            return table.bare[node.text]
        head, args = _form(node, table.what)
        form = table.heads.get(head)
        if form is None:
            raise _err(node, f"unknown {table.noun} form {head!r}")
        return _read_form(form, node, args, fns, rels)

    return read


def _symbol(what: str):
    return lambda node, fns, rels: _sym(node, what)


def _integer(what: str):
    return lambda node, fns, rels: _int(node, what)


def _read_relation(node: Node, fns, rels) -> str:
    rel = _sym(node, "a relation name")
    if rel not in rels:
        raise _err(node, f"unknown relation {rel!r}")
    return rel


def _relation_arity(node: Node, args: tuple[Node, ...], fns, rels):
    rel = _read_relation(args[0], fns, rels)
    _takes(node, rel, rels[rel].arity, len(args) - 1)


def _read_function_name(node: Node, fns, rels):
    name = _sym(node, "a function name")
    if name not in fns:
        raise _err(node, f"unknown function {name!r}")
    return name, fns[name]


def _read_numerals(node: Node, fns, rels) -> tuple[int, ...]:
    return tuple(_int(a, "a numeral") for a in _list(node, "arguments"))


_read_primfns = _table_reader(sx._PRIMFNS)


def _read_primfn(node: Node, fns, rels):
    # a symbol other than a bare head names a built-in or defined function
    if type(node) is Sym and node.text not in sx._PRIMFNS.bare and node.text in fns:
        return fns[node.text]
    return _read_primfns(node, fns, rels)


def _read_aterm(node: Node, fns, rels):
    if type(node) is IntTok:
        if node.value < 0:
            raise _err(node, "negative numeral")
        return tnum(node.value)
    if type(node) is Sym:
        return TVar(node.text)
    head, args = _form(node, "a term")
    if head not in fns:
        raise _err(node, f"unknown function {head!r}")
    _takes(node, head, fns[head].arity, len(args))
    return [lambda *xs: TApp(head, xs), [(_read_aterm, a) for a in args], node]


_read_formula = _table_reader(sx._FORMULAS)
_read_label = _symbol("a label")


def _read_entry(node: Node, fns, rels) -> list:
    items = _list(node, "a context entry")
    if len(items) != 2:
        raise _err(node, "context entries are (LABEL FORMULA)")
    return [lambda *entry: entry, [(_read_label, items[0]), (_read_formula, items[1])], node]


def _read_sequent(node: Node, fns, rels) -> list:
    head, args = _form(node, "a sequent")
    if head != "seq":
        raise _err(node, "expected (seq (ctx ...) GOAL)")
    if len(args) != 2:
        raise _err(node, f"{head} takes 2 arguments, got {len(args)}")
    chead, entries = _form(args[0], "a context")
    if chead != "ctx":
        raise _err(args[0], "expected (ctx (LABEL FORMULA) ...)")
    parts = [(_read_entry, e) for e in entries] + [(_read_formula, args[1])]
    return [lambda *xs: Sequent(xs[:-1], xs[-1]), parts, node]


_read_rule = _table_reader(sx._RULES)


def _read_derivation(node: Node, fns, rels) -> list:
    head, args = _form(node, "a derivation")
    if head != "der" or len(args) < 2:
        raise _err(node, "expected (der RULE SEQUENT PREMISSES...)")
    parts = [(_read_rule, args[0]), (_read_sequent, args[1])]
    parts += [(_read_derivation, a) for a in args[2:]]
    return [lambda rule, seq, *prems: Derivation(rule, seq, prems), parts, node]


_read_type = _table_reader(sx._TYPES)
_PRIMFN_FORMS, _TERM_FORMS = sx._PRIMFNS.heads, sx._TERMS.heads

# sexpr's kind -> its node reader; the symbol and integer kinds that have no
# name of their own are found in the forms that use them
_NODE_READS = {
    sx._LABEL: _read_label,
    sx._VARIABLE: _symbol("a variable"),
    sx._NAME: _symbol("a name"),
    sx._ARITY: _integer("an arity"),
    sx._RULES.heads["atom-post"].kinds[0]: _symbol("a posited rule name"),
    _TERM_FORMS["exc"].kinds[0]: _symbol("a relation name"),
    _PRIMFN_FORMS["proj"].kinds[1]: _integer("an index"),
    _TERM_FORMS["var"].kinds[0]: _integer("an index"),
    _TERM_FORMS["num"].kinds[0]: _integer("a natural"),
    _TERM_FORMS["rec"].kinds[1]: _integer("a guard"),
    _TERM_FORMS["exc"].kinds[2]: _integer("a witness"),
    sx._RELATION: _read_relation,
    sx._FUNCTION_NAME: _read_function_name,
    sx._NUMERALS: _read_numerals,
    sx._FN: _read_primfn,
    sx._ATERM: _read_aterm,
    sx._FORMULA: _read_formula,
    sx._TYPE: _read_type,
    sx._PART: _read_type,
    sx._TERM: _table_reader(sx._TERMS),
    sx._RULE: _read_rule,
    sx._DERIVATION: _read_derivation,
}
assert all(k in _NODE_READS for t in (sx._PRIMFNS, sx._FORMULAS, sx._TYPES, sx._TERMS, sx._RULES)
           for f in t.heads.values() for k in (*f.kinds, f.rest) if k is not None)


def parse_file(text: str) -> ProofFile:
    pf = ProofFile()
    order = []
    for node in read_nodes(text):
        head, args = _form(node, "a definition")
        if head not in sx._DEFINITIONS:
            raise _err(node, f"unknown top-level form {head!r}")
        attr, form = sx._DEFINITIONS[head]
        table = getattr(pf, attr)
        name = _sym(args[0] if args else node, "a name")
        if name in table:
            raise _err(args[0], f"duplicate name {name!r}")
        table[name] = _walk(_read_form(form, node, args, pf.fns, pf.rels), pf.fns, pf.rels)
        order.append((head, name))
    pf.order = tuple(order)
    return pf
