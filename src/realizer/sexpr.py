"""S-expression syntax for proof files, derivations, formulas and terms.

A proof file is a sequence of parenthesized top-level forms:

    (deffn NAME PRIMFN)             (defrel NAME ARITY PRIMFN)
    (defterm NAME TERM)             (defder NAME DERIVATION)

read in order, so definitions may use earlier ones and the built-in
function and relation tables.  Comments run from ';' to end of line.
Printing is the inverse on checked objects: parse(print(x)) == x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import arith
from . import deduction as dd
from . import terms as tm
from .arith import (
    And, Atom, ATerm, Comp, Exists, Forall, Formula, Imply, Or, PRec, PrimFn,
    Proj, Relation, Succ, TApp, TVar, Zero, tnum,
)
from .deduction import Context, Derivation, Sequent
from .terms import Const, Lam, Num, Term, Ty, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# reading: tokens and nodes


@dataclass(frozen=True)
class Sym:
    text: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class IntTok:
    value: int
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class ListNode:
    items: tuple["Node", ...]
    line: int = 0
    col: int = 0


Node = Union[Sym, IntTok, ListNode]

_INT = re.compile(r"-?\d+$")


def _tokens(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            start, scol = i, col
            while i < n and text[i] not in "(); \t\r\n":
                i += 1
                col += 1
            yield ("atom", text[start:i], line, scol)
    yield ("eof", "", line, col)


def read_nodes(text: str) -> list[Node]:
    """All top-level nodes of text."""
    toks = list(_tokens(text))
    pos = 0

    def parse_one() -> Node:
        nonlocal pos
        kind, val, line, col = toks[pos]
        if kind == "(":
            pos += 1
            items = []
            while True:
                k, _, l2, c2 = toks[pos]
                if k == ")":
                    pos += 1
                    return ListNode(tuple(items), line, col)
                if k == "eof":
                    raise ParseError("unclosed parenthesis", line, col)
                items.append(parse_one())
        if kind == ")":
            raise ParseError("unmatched ')'", line, col)
        if kind == "eof":
            raise ParseError("unexpected end of input", line, col)
        pos += 1
        if _INT.match(val):
            return IntTok(int(val), line, col)
        return Sym(val, line, col)

    out = []
    try:
        while toks[pos][0] != "eof":
            out.append(parse_one())
    finally:
        # parse_one refers to itself through its closure; breaking that cycle
        # frees the token list now instead of at the next garbage collection
        del parse_one
    return out


def _err(node: Node, message: str) -> ParseError:
    return ParseError(message, node.line, node.col)


def _sym(node: Node, what: str) -> str:
    if not isinstance(node, Sym):
        raise _err(node, f"expected {what}")
    return node.text


def _int(node: Node, what: str) -> int:
    if not isinstance(node, IntTok):
        raise _err(node, f"expected {what}")
    return node.value


def _list(node: Node, what: str) -> tuple[Node, ...]:
    if not isinstance(node, ListNode):
        raise _err(node, f"expected {what}")
    return node.items


def _form(node: Node, what: str) -> tuple[str, tuple[Node, ...]]:
    items = _list(node, what)
    if not items:
        raise _err(node, f"empty form where {what} was expected")
    return _sym(items[0], f"{what} head"), items[1:]


def _arity(node: Node, items: tuple[Node, ...], n: int, what: str):
    if len(items) != n:
        raise _err(node, f"{what} takes {n} arguments, got {len(items)}")


# ---------------------------------------------------------------------------
# primitive recursive functions


def read_primfn(node: Node, fns: Mapping[str, PrimFn]) -> PrimFn:
    if isinstance(node, Sym):
        if node.text == "zero":
            return Zero(0)
        if node.text == "S":
            return Succ()
        if node.text in fns:
            return fns[node.text]
        raise _err(node, f"unknown function {node.text!r}")
    head, args = _form(node, "a function")
    try:
        match head:
            case "zero":
                _arity(node, args, 1, "zero")
                return Zero(_int(args[0], "an arity"))
            case "proj":
                _arity(node, args, 2, "proj")
                return Proj(_int(args[0], "an arity"), _int(args[1], "an index"))
            case "comp":
                if not args:
                    raise _err(node, "comp needs an outer function")
                outer = read_primfn(args[0], fns)
                return Comp(outer, tuple(read_primfn(a, fns) for a in args[1:]))
            case "prec":
                _arity(node, args, 2, "prec")
                return PRec(read_primfn(args[0], fns), read_primfn(args[1], fns))
    except arith.ArityMismatch as e:
        raise _err(node, str(e)) from e
    raise _err(node, f"unknown function form {head!r}")


def print_primfn(f: PrimFn) -> str:
    match f:
        case Zero(0):
            return "zero"
        case Zero(n):
            return f"(zero {n})"
        case Succ():
            return "S"
        case Proj(n, i):
            return f"(proj {n} {i})"
        case Comp(outer, inner):
            return _wrap(["comp", print_primfn(outer)] + [print_primfn(g) for g in inner])
        case PRec(base, step):
            return _wrap(["prec", print_primfn(base), print_primfn(step)])
    raise ValueError(f"not a primitive recursive function: {f!r}")


# ---------------------------------------------------------------------------
# first-order terms and formulas


def read_aterm(node: Node, fns: Mapping[str, PrimFn]) -> ATerm:
    if isinstance(node, IntTok):
        if node.value < 0:
            raise _err(node, "negative numeral")
        return tnum(node.value)
    if isinstance(node, Sym):
        return TVar(node.text)
    head, args = _form(node, "a term")
    if head not in fns:
        raise _err(node, f"unknown function {head!r}")
    if fns[head].arity != len(args):
        raise _err(node, f"{head!r} takes {fns[head].arity} arguments, got {len(args)}")
    return TApp(head, tuple(read_aterm(a, fns) for a in args))


def print_aterm(t: ATerm) -> str:
    v = arith.numeral_value(t)
    if v is not None:
        return str(v)
    match t:
        case TVar(name):
            return name
        case TApp(fn, args):
            return _wrap([fn] + [print_aterm(a) for a in args])
    raise ValueError(f"not a term: {t!r}")


def read_formula(node: Node, fns, rels: Mapping[str, Relation]) -> Formula:
    head, args = _form(node, "a formula")
    match head:
        case "atom":
            if not args:
                raise _err(node, "atom needs a relation name")
            rel = _sym(args[0], "a relation name")
            if rel not in rels:
                raise _err(args[0], f"unknown relation {rel!r}")
            if rels[rel].arity != len(args) - 1:
                raise _err(node, f"{rel!r} takes {rels[rel].arity} arguments,"
                                 f" got {len(args) - 1}")
            return Atom(rel, tuple(read_aterm(a, fns) for a in args[1:]))
        case "and" | "or" | "imply":
            _arity(node, args, 2, head)
            cls = {"and": And, "or": Or, "imply": Imply}[head]
            return cls(read_formula(args[0], fns, rels), read_formula(args[1], fns, rels))
        case "forall" | "exists":
            _arity(node, args, 2, head)
            var = _sym(args[0], "a variable")
            cls = Forall if head == "forall" else Exists
            return cls(var, read_formula(args[1], fns, rels))
    raise _err(node, f"unknown formula form {head!r}")


def print_formula(f: Formula) -> str:
    match f:
        case Atom(rel, args):
            return _wrap(["atom", rel] + [print_aterm(a) for a in args])
        case And(l, r):
            return _wrap(["and", print_formula(l), print_formula(r)])
        case Or(l, r):
            return _wrap(["or", print_formula(l), print_formula(r)])
        case Imply(l, r):
            return _wrap(["imply", print_formula(l), print_formula(r)])
        case Forall(v, b):
            return _wrap(["forall", v, print_formula(b)])
        case Exists(v, b):
            return _wrap(["exists", v, print_formula(b)])
    raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# computation types and terms


def read_type(node: Node) -> Ty:
    if isinstance(node, Sym):
        base = {"Unit": tm.UNIT, "Nat": tm.NAT, "State": tm.STATE, "Ex": tm.EX}
        if node.text in base:
            return base[node.text]
        raise _err(node, f"unknown type {node.text!r}")
    head, args = _form(node, "a type")
    if head in ("arrow", "prod", "sum"):
        _arity(node, args, 2, head)
        cls = {"arrow": tm.TArrow, "prod": tm.TProd, "sum": tm.TSum}[head]
        return cls(read_type(args[0]), read_type(args[1]))
    raise _err(node, f"unknown type form {head!r}")


def print_type(ty: Ty) -> str:
    match ty:
        case tm.TUnit():
            return "Unit"
        case tm.TNat():
            return "Nat"
        case tm.TState():
            return "State"
        case tm.TEx():
            return "Ex"
        case tm.TArrow(a, b):
            return _wrap(["arrow", print_type(a), print_type(b)])
        case tm.TProd(a, b):
            return _wrap(["prod", print_type(a), print_type(b)])
        case tm.TSum(a, b):
            return _wrap(["sum", print_type(a), print_type(b)])
    raise ValueError(f"not a type: {ty!r}")


_BARE_CONSTS = {
    "unit": tm.unit_const,
    "zero": tm.zero,
    "succ": tm.succ,
    "exmerge": tm.exmerge_const,
    "staterep": tm.staterep,
}


def read_term(node: Node, fns, rels) -> Term:
    if isinstance(node, Sym):
        if node.text in _BARE_CONSTS:
            return _BARE_CONSTS[node.text]
        raise _err(node, f"unknown term {node.text!r}")
    head, args = _form(node, "a term")
    match head:
        case "var":
            _arity(node, args, 1, "var")
            return Var(_int(args[0], "an index"))
        case "num":
            _arity(node, args, 1, "num")
            return Num(_int(args[0], "a natural"))
        case "lam":
            _arity(node, args, 2, "lam")
            return Lam(read_type(args[0]), read_term(args[1], fns, rels))
        case "app":
            if len(args) < 2:
                raise _err(node, "app needs a function and an argument")
            out = read_term(args[0], fns, rels)
            for a in args[1:]:
                out = tm.App(out, read_term(a, fns, rels))
            return out
        case "pair" | "prl" | "prr" | "inl" | "inr":
            _arity(node, args, 2, head)
            mk = {"pair": tm.pair_c, "prl": tm.prl_c, "prr": tm.prr_c,
                  "inl": tm.inl_c, "inr": tm.inr_c}[head]
            return mk(read_type(args[0]), read_type(args[1]))
        case "case":
            _arity(node, args, 3, "case")
            return tm.case_c(*(read_type(a) for a in args))
        case "rec":
            if len(args) == 1:
                return tm.rec_c(read_type(args[0]))
            _arity(node, args, 2, "rec")
            return tm.rec_c(read_type(args[0]), _int(args[1], "a guard"))
        case "query" | "eval":
            _arity(node, args, 2, head)
            rel = _sym(args[0], "a relation name")
            if rel not in rels:
                raise _err(args[0], f"unknown relation {rel!r}")
            arity = _int(args[1], "an arity")
            mk = tm.query_c if head == "query" else tm.eval_c
            return mk(rel, arity)
        case "prim":
            _arity(node, args, 1, "prim")
            name = _sym(args[0], "a function name")
            if name not in fns:
                raise _err(args[0], f"unknown function {name!r}")
            return tm.prim_c(name, fns[name])
        case "exc":
            _arity(node, args, 3, "exc")
            rel = _sym(args[0], "a relation name")
            eargs = tuple(_int(a, "a numeral") for a in _list(args[1], "arguments"))
            return tm.exc_const(rel, eargs, _int(args[2], "a witness"))
    raise _err(node, f"unknown term form {head!r}")


def print_term(t: Term) -> str:
    match t:
        case Var(i):
            return f"(var {i})"
        case Num(v):
            return f"(num {v})"
        case Lam(param, body):
            return _wrap(["lam", print_type(param), print_term(body)])
        case tm.App():
            head, args = tm.spine(t)
            return _wrap(["app", print_term(head)] + [print_term(a) for a in args])
        case Const(kind, tys, tag):
            if kind in _BARE_CONSTS:
                return kind
            if kind in ("pair", "prl", "prr", "inl", "inr", "case"):
                return _wrap([kind] + [print_type(a) for a in tys])
            if kind == "rec":
                guard = [] if tag is None else [str(tag)]
                return _wrap(["rec", print_type(tys[0])] + guard)
            if kind in ("query", "eval"):
                rel, arity = tag
                return _wrap([kind, rel, str(arity)])
            if kind == "prim":
                return _wrap(["prim", tag[0]])
            if kind == "exc":
                rel, args, w = tag
                inner = "(" + " ".join(str(a) for a in args) + ")"
                return _wrap(["exc", rel, inner, str(w)])
    raise ValueError(f"not printable: {t!r}")


# ---------------------------------------------------------------------------
# sequents, rules and derivations

_BARE_RULES = {
    "atom-i": dd.AtomI(),
    "atom-e": dd.AtomE(),
    "and-i": dd.AndI(),
    "and-el": dd.AndEL(),
    "and-er": dd.AndER(),
    "or-il": dd.OrIL(),
    "or-ir": dd.OrIR(),
    "imply-e": dd.ImplyE(),
    "false-e": dd.FalseE0(),
}


def read_sequent(node: Node, fns, rels) -> Sequent:
    head, args = _form(node, "a sequent")
    if head != "seq":
        raise _err(node, "expected (seq (ctx ...) GOAL)")
    _arity(node, args, 2, "seq")
    chead, centries = _form(args[0], "a context")
    if chead != "ctx":
        raise _err(args[0], "expected (ctx (LABEL FORMULA) ...)")
    ctx = []
    for e in centries:
        items = _list(e, "a context entry")
        if len(items) != 2:
            raise _err(e, "context entries are (LABEL FORMULA)")
        ctx.append((_sym(items[0], "a label"), read_formula(items[1], fns, rels)))
    return Sequent(tuple(ctx), read_formula(args[1], fns, rels))


def print_sequent(s: Sequent) -> str:
    ctx = _wrap(["ctx"] + [_wrap([lbl, print_formula(f)]) for lbl, f in s.context])
    return _wrap(["seq", ctx, print_formula(s.goal)])


def read_rule(node: Node, fns, rels) -> dd.RuleKind:
    if isinstance(node, Sym):
        if node.text in _BARE_RULES:
            return _BARE_RULES[node.text]
        raise _err(node, f"unknown rule {node.text!r}")
    head, args = _form(node, "a rule")
    match head:
        case "id":
            _arity(node, args, 1, "id")
            return dd.Id(_sym(args[0], "a label"))
        case "atom-post":
            _arity(node, args, 1, "atom-post")
            return dd.AtomPost(_sym(args[0], "a posited rule name"))
        case "or-e":
            _arity(node, args, 1, "or-e")
            return dd.OrE(_sym(args[0], "a label"))
        case "imply-i":
            _arity(node, args, 1, "imply-i")
            return dd.ImplyI(_sym(args[0], "a label"))
        case "forall-i":
            _arity(node, args, 1, "forall-i")
            return dd.ForallI(_sym(args[0], "a variable"))
        case "forall-e":
            _arity(node, args, 1, "forall-e")
            return dd.ForallE(read_aterm(args[0], fns))
        case "exists-i":
            _arity(node, args, 1, "exists-i")
            return dd.ExistsI(read_aterm(args[0], fns))
        case "exists-e":
            _arity(node, args, 2, "exists-e")
            return dd.ExistsE(_sym(args[0], "a label"), _sym(args[1], "a variable"))
        case "ind":
            _arity(node, args, 4, "ind")
            return dd.Ind(
                _sym(args[0], "a label"),
                _sym(args[1], "a variable"),
                read_formula(args[2], fns, rels),
                read_aterm(args[3], fns),
            )
        case "cind":
            _arity(node, args, 2, "cind")
            return dd.CInd(_sym(args[0], "a label"), _sym(args[1], "a variable"))
        case "em":
            _arity(node, args, 2, "em")
            return dd.EM(_sym(args[0], "a label"), _sym(args[1], "a variable"))
    raise _err(node, f"unknown rule form {head!r}")


def print_rule(r: dd.RuleKind) -> str:
    for name, bare in _BARE_RULES.items():
        if r == bare:
            return name
    match r:
        case dd.Id(label):
            return _wrap(["id", label])
        case dd.AtomPost(rule):
            return _wrap(["atom-post", rule])
        case dd.OrE(label):
            return _wrap(["or-e", label])
        case dd.ImplyI(label):
            return _wrap(["imply-i", label])
        case dd.ForallI(var):
            return _wrap(["forall-i", var])
        case dd.ForallE(term):
            return _wrap(["forall-e", print_aterm(term)])
        case dd.ExistsI(term):
            return _wrap(["exists-i", print_aterm(term)])
        case dd.ExistsE(label, var):
            return _wrap(["exists-e", label, var])
        case dd.Ind(label, var, template, main):
            return _wrap(["ind", label, var, print_formula(template), print_aterm(main)])
        case dd.CInd(label, var):
            return _wrap(["cind", label, var])
        case dd.EM(label, var):
            return _wrap(["em", label, var])
    raise ValueError(f"not printable: {r!r}")


def read_derivation(node: Node, fns, rels) -> Derivation:
    head, args = _form(node, "a derivation")
    if head != "der" or len(args) < 2:
        raise _err(node, "expected (der RULE SEQUENT PREMISSES...)")
    rule = read_rule(args[0], fns, rels)
    conclusion = read_sequent(args[1], fns, rels)
    prems = tuple(read_derivation(a, fns, rels) for a in args[2:])
    return Derivation(rule, conclusion, prems)


def print_derivation(d: Derivation) -> str:
    return _wrap(
        ["der", print_rule(d.rule), print_sequent(d.conclusion)]
        + [print_derivation(p) for p in d.premisses]
    )


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


def parse_file(text: str) -> ProofFile:
    pf = ProofFile()
    order = []
    for node in read_nodes(text):
        head, args = _form(node, "a definition")
        if head not in ("deffn", "defrel", "defterm", "defder"):
            raise _err(node, f"unknown top-level form {head!r}")
        name = _sym(args[0] if args else node, "a name")
        table = {"deffn": pf.fns, "defrel": pf.rels,
                 "defterm": pf.terms, "defder": pf.derivs}[head]
        if name in table:
            raise _err(args[0], f"duplicate name {name!r}")
        match head:
            case "deffn":
                _arity(node, args, 2, "deffn")
                table[name] = read_primfn(args[1], pf.fns)
            case "defrel":
                _arity(node, args, 3, "defrel")
                arity = _int(args[1], "an arity")
                char = read_primfn(args[2], pf.fns)
                try:
                    table[name] = Relation(name, arity, char)
                except arith.ArityMismatch as e:
                    raise _err(node, str(e)) from e
            case "defterm":
                _arity(node, args, 2, "defterm")
                table[name] = read_term(args[1], pf.fns, pf.rels)
            case "defder":
                _arity(node, args, 2, "defder")
                table[name] = read_derivation(args[1], pf.fns, pf.rels)
        order.append((head, name))
    pf.order = tuple(order)
    return pf


def print_file(pf: ProofFile) -> str:
    lines = []
    for kind, name in pf.order:
        match kind:
            case "deffn":
                lines.append(_wrap(["deffn", name, print_primfn(pf.fns[name])]))
            case "defrel":
                r = pf.rels[name]
                lines.append(_wrap(["defrel", name, str(r.arity), print_primfn(r.char)]))
            case "defterm":
                lines.append(_wrap(["defterm", name, print_term(pf.terms[name])]))
            case "defder":
                lines.append(_wrap(["defder", name, print_derivation(pf.derivs[name])]))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# layout

_WIDTH = 100


def _wrap(parts: list[str]) -> str:
    flat = "(" + " ".join(parts) + ")"
    if len(flat) <= _WIDTH or len(parts) == 1:
        return flat
    body = ("\n" + " " * 2).join(p.replace("\n", "\n" + " " * 2) for p in parts[1:])
    return f"({parts[0]}\n  {body})"
