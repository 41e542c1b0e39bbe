"""Reading and printing of proof files: parse/print round trips, positions."""

import bisect
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, corpus, sexpr
from realizer import deduction as dd
from realizer import monads as mn
from realizer import terms as tm
from realizer.arith import Atom, Comp, Forall, PRec, Proj, Succ, TApp, TVar, Zero, tnum
from realizer.extraction import extract
from realizer.sexpr import (
    IntTok, ListNode, ParseError, Sym, parse_file, print_derivation,
    print_file, print_formula, print_primfn, print_term, print_type,
    read_derivation, read_formula, read_nodes, read_primfn, read_term,
    read_type,
)

import conftest as gen

FNS, RELS = arith.FUNCTIONS, arith.RELATIONS


def roundtrip_formula(f):
    return read_formula(read_nodes(print_formula(f))[0], FNS, RELS)


# ---------------------------------------------------------------------------
# tokens and nodes


def test_read_nodes_tracks_positions():
    a, b = read_nodes("(a b)\n  (c -3)")
    assert isinstance(a, ListNode) and a.pos == 0
    assert a.items == (Sym("a", 1), Sym("b", 3))
    assert isinstance(b, ListNode) and b.pos == 8
    assert b.items[1] == IntTok(-3, 11)
    # errors at a node count its line and column from the offset
    for read, node, where in [
        (lambda n: read_formula(n, FNS, RELS), a, (1, 1)),
        (lambda n: read_formula(n, FNS, RELS), b, (2, 3)),
        (lambda n: sexpr.read_aterm(n, FNS), b.items[1], (2, 6)),
    ]:
        with pytest.raises(ParseError) as info:
            read(node)
        assert (info.value.line, info.value.col) == where


def test_comments_are_skipped():
    nodes = read_nodes("; leading\n(a ; inline\n b)\n; trailing")
    assert len(nodes) == 1
    assert [i.text for i in nodes[0].items] == ["a", "b"]


@pytest.mark.parametrize(
    "text,line,col,needle",
    [
        ("(a b", 1, 1, "unclosed"),
        ("a)", 1, 2, "unmatched"),
        ("(", 1, 1, "unclosed"),
    ],
)
def test_token_errors_carry_positions(text, line, col, needle):
    with pytest.raises(ParseError) as info:
        read_nodes(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert needle in info.value.message
    assert str(info.value).startswith(f"{line}:{col}:")


# ---------------------------------------------------------------------------
# the reader against the per-character reader it replaced

_REF_INT = re.compile(r"-?\d+$")


def _ref_tokens(text: str):
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


def _ref_read_nodes(text: str) -> list:
    """The recursive reader sexpr.read_nodes replaced, with nodes as tuples
    ("list" | "sym" | "int", content, line, col)."""
    toks = list(_ref_tokens(text))
    pos = 0

    def parse_one():
        nonlocal pos
        kind, val, line, col = toks[pos]
        if kind == "(":
            pos += 1
            items = []
            while True:
                k, _, l2, c2 = toks[pos]
                if k == ")":
                    pos += 1
                    return ("list", tuple(items), line, col)
                if k == "eof":
                    raise ParseError("unclosed parenthesis", line, col)
                items.append(parse_one())
        if kind == ")":
            raise ParseError("unmatched ')'", line, col)
        if kind == "eof":
            raise ParseError("unexpected end of input", line, col)
        pos += 1
        if _REF_INT.match(val):
            return ("int", int(val), line, col)
        return ("sym", val, line, col)

    out = []
    while toks[pos][0] != "eof":
        out.append(parse_one())
    return out


def _as_tuples(line_starts: list[int], node):
    line = bisect.bisect_right(line_starts, node.pos)
    where = (line, node.pos - line_starts[line - 1] + 1)
    if isinstance(node, ListNode):
        return ("list", tuple(_as_tuples(line_starts, n) for n in node.items), *where)
    if isinstance(node, IntTok):
        return ("int", node.value, *where)
    return ("sym", node.text, *where)


def _outcome(read, text):
    try:
        return "nodes", read(text)
    except ParseError as e:
        return "error", (e.message, e.line, e.col, str(e))


def _agrees_with_reference(text):
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    new = _outcome(lambda t: [_as_tuples(line_starts, n) for n in read_nodes(t)], text)
    assert new == _outcome(_ref_read_nodes, text)


def _printed_bench_files() -> list[str]:
    bench = gen.bench_gen()
    rng = bench.Stratified(5)
    ds = [bench.em_chain(rng, depth, wrapped) for depth in (1, 3, 5) for wrapped in (False, True)]
    ds += [bench.sigma01_cuts(rng, kinds) for kinds in bench.cut_kinds(rng, [1, 3, 6])]
    ds += [bench.ind_n(4), bench.square(7)]
    texts = []
    for i, d in enumerate(ds):
        pf = sexpr.ProofFile(derivs={f"d{i}": d}, order=(("defder", f"d{i}"),))
        texts.append(print_file(pf))
    realizer = extract(ds[4], mn.INTERACTIVE)  # the wrapped depth-5 chain
    texts.append(f"(defterm r {print_term(realizer)})\n")
    return texts


def test_reader_agrees_with_the_reference_on_printed_files():
    for text in [corpus.corpus_text(), *_printed_bench_files()]:
        _agrees_with_reference(text)
        assert read_nodes(text)  # the files are well formed


_PIECES = ["(", ")", " ", "\t", "\r", "\n", ";", "; c (d)", "a", "ab", "-", "-12", "7",
           "x-3", "00", "\u00e9", "\u0661", "\x0b", "\r\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_reader_agrees_with_the_reference_on_token_soup(text):
    _agrees_with_reference(text)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_agrees_with_the_reference_on_damaged_files(data):
    text = corpus.corpus_text()
    cut = data.draw(st.integers(0, len(text)))
    at = data.draw(st.integers(0, len(text)))
    damage = data.draw(st.sampled_from(["truncate", ")", "(", ";", "\t", "\r", "\r\n"]))
    if damage == "truncate":
        text = text[:cut]
    else:
        text = text[:at] + damage + text[at:]
    _agrees_with_reference(text)


# ---------------------------------------------------------------------------
# individual readers and printers


def test_primfn_roundtrip():
    fns = [Zero(0), Zero(3), Succ(), Proj(4, 2),
           Comp(Succ(), (Proj(2, 1),)), PRec(Zero(0), Proj(2, 2)),
           FNS["+"], corpus.corpus_file().fns["sq"]]
    for f in fns:
        assert read_primfn(read_nodes(print_primfn(f))[0], FNS) == f
    assert read_primfn(read_nodes("+")[0], FNS) == FNS["+"]
    with pytest.raises(ParseError, match="unknown function"):
        read_primfn(read_nodes("mystery")[0], FNS)
    with pytest.raises(ParseError):
        read_primfn(read_nodes("(comp S)")[0], FNS)  # inner arity mismatch
    with pytest.raises(ParseError):
        read_primfn(read_nodes("(proj 2 0)")[0], FNS)


def test_aterm_printing_uses_decimal_numerals():
    assert sexpr.print_aterm(tnum(3)) == "3"
    assert sexpr.print_aterm(TApp("S", (TVar("x"),))) == "(S x)"
    assert sexpr.read_aterm(read_nodes("3")[0], FNS) == tnum(3)
    with pytest.raises(ParseError, match="negative"):
        sexpr.read_aterm(read_nodes("-1")[0], FNS)
    with pytest.raises(ParseError, match="takes"):
        sexpr.read_aterm(read_nodes("(S 1 2)")[0], FNS)


def test_formula_roundtrip_on_random_formulas():
    rng = random.Random(4)
    for _ in range(60):
        f = gen.closed_true_derivation(rng, (), 2).conclusion.goal
        assert roundtrip_formula(f) == f
    quantified = Forall("x", Atom("<", (TVar("x"), TApp("+", (TVar("x"), tnum(1))))))
    assert roundtrip_formula(quantified) == quantified


def test_formula_reader_rejections():
    for text, needle in [
        ("(atom best 1)", "unknown relation"),
        ("(atom = 1)", "takes"),
        ("(xor (atom top) (atom bot))", "unknown formula"),
        ("(forall 3 (atom top))", "a variable"),
    ]:
        with pytest.raises(ParseError, match=needle):
            read_formula(read_nodes(text)[0], FNS, RELS)


def test_type_roundtrip():
    tys = [tm.UNIT, tm.NAT, tm.STATE, tm.EX,
           tm.arrows(tm.STATE, tm.NAT, tm.TSum(tm.TProd(tm.NAT, tm.UNIT), tm.EX))]
    for ty in tys:
        assert read_type(read_nodes(print_type(ty))[0]) == ty
    with pytest.raises(ParseError, match="unknown type"):
        read_type(read_nodes("Bool")[0])


def test_term_roundtrip_covers_every_constructor():
    ts = [
        tm.unit_const, tm.zero, tm.succ, tm.exmerge_const, tm.staterep,
        tm.Num(7), tm.Var(2),
        tm.Lam(tm.NAT, tm.Var(0)),
        tm.app(tm.pair_c(tm.NAT, tm.UNIT), tm.Num(1), tm.unit_const),
        tm.prl_c(tm.NAT, tm.UNIT), tm.prr_c(tm.NAT, tm.UNIT),
        tm.inl_c(tm.NAT, tm.EX), tm.inr_c(tm.NAT, tm.EX),
        tm.case_c(tm.NAT, tm.UNIT, tm.NAT),
        tm.rec_c(tm.NAT), tm.rec_c(tm.NAT, 9),
        tm.query_c("<", 2), tm.eval_c("=", 2),
        tm.prim_c("+", FNS["+"]),
        tm.exc_const("<", (5, 2), 3),
    ]
    for t in ts:
        assert read_term(read_nodes(print_term(t))[0], FNS, RELS) == t


def test_term_reader_rejections():
    for text, needle in [
        ("flurb", "unknown term"),
        ("(query best 1)", "unknown relation"),
        ("(prim best)", "unknown function"),
        ("(app zero)", "app needs"),
        ("(made-up 1)", "unknown term form"),
    ]:
        with pytest.raises(ParseError, match=needle):
            read_term(read_nodes(text)[0], FNS, RELS)


def test_rule_and_derivation_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        d = gen.ha_em_derivation(rng)
        text = print_derivation(d)
        assert read_derivation(read_nodes(text)[0], FNS, RELS) == d
    with pytest.raises(ParseError, match="unknown rule"):
        read_derivation(read_nodes("(der woosh (seq (ctx) (atom top)))")[0], FNS, RELS)
    with pytest.raises(ParseError, match="expected \\(der"):
        read_derivation(read_nodes("(seq (ctx) (atom top))")[0], FNS, RELS)


def test_long_forms_wrap_and_still_parse():
    d = corpus.corpus_file().derivs["ind-two"]
    text = print_derivation(d)
    assert "\n" in text and max(len(l) for l in text.splitlines()) <= 100
    assert read_derivation(read_nodes(text)[0], FNS, RELS) == d


# ---------------------------------------------------------------------------
# whole files


def test_corpus_file_round_trips():
    pf = corpus.corpus_file()
    again = parse_file(print_file(pf))
    assert again == pf
    assert parse_file(corpus.corpus_text()) == pf


def test_empty_file_prints_empty():
    assert print_file(sexpr.ProofFile()) == ""
    assert parse_file("").order == ()


def test_file_definitions_see_earlier_names():
    text = """
    (deffn double (comp + (proj 1 1) (proj 1 1)))
    (defrel iszero 1 (comp monus (comp S (zero 1)) (proj 1 1)))
    (defder use
      (der (exists-i 0)
        (seq (ctx) (exists x (atom iszero (double x))))
        (der atom-i (seq (ctx) (atom iszero (double 0))))))
    """
    pf = parse_file(text)
    assert pf.fns["double"].arity == 1
    assert arith.eval_prim(pf.fns["double"], (5,)) == 10
    assert pf.rels["iszero"].holds((0,)) and not pf.rels["iszero"].holds((3,))
    root = dd.check_derivation(pf.derivs["use"], pf.rels, pf.fns)
    assert root.goal.var == "x"
    assert parse_file(print_file(pf)) == pf


@pytest.mark.parametrize(
    "text,needle",
    [
        ("(defx a 1)", "unknown top-level"),
        ("(defterm t zero) (defterm t zero)", "duplicate name"),
        ("(deffn f)", "deffn takes 2"),
        ("(defrel r 2 S)", "arity"),
        ("(defder d (der atom-i (seq (ctx) (atom top))) extra)", "defder takes 2"),
    ],
)
def test_file_level_errors(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_file(text)


def test_error_positions_point_into_multiline_files():
    text = "(defder d\n  (der bogus (seq (ctx) (atom top))))"
    with pytest.raises(ParseError) as info:
        parse_file(text)
    assert (info.value.line, info.value.col) == (2, 8)


# ---------------------------------------------------------------------------
# layout, against the string-rewriting wrap it replaced


def _rewriting_wrap(*parts: str) -> str:
    """The old layout step: a form that does not fit re-indents every line
    of its parts, so each nesting level rewrites all the text below it."""
    flat = "(" + " ".join(parts) + ")"
    if len(flat) <= 100 or len(parts) == 1:
        return flat
    body = ("\n" + " " * 2).join(p.replace("\n", "\n" + " " * 2) for p in parts[1:])
    return f"({parts[0]}\n  {body})"


def _rewritten(layout) -> str:
    if type(layout) is str:
        return layout
    return _rewriting_wrap(*(_rewritten(p) for p in layout.parts))


def _agrees_with_rewriting_layout(pf: sexpr.ProofFile):
    texts = []
    for head, name in pf.order:
        attr, form = sexpr._DEFINITIONS[head]
        value = getattr(pf, attr)[name]
        texts.append(_rewritten(sexpr._walk(sexpr._print_form(form, form.split((name, value))))))
    assert print_file(pf) == "".join(t + "\n" for t in texts)


def test_layout_agrees_with_the_rewriting_wrap():
    _agrees_with_rewriting_layout(corpus.corpus_file())
    bench = gen.bench_gen()
    rng = bench.Stratified(9)
    ds = [bench.em_chain(rng, depth, wrapped) for depth in (1, 4, 6) for wrapped in (False, True)]
    ds += [bench.sigma01_cuts(rng, kinds) for kinds in bench.cut_kinds(rng, [1, 4, 8])]
    ds += [bench.ind_n(5), bench.square(9)]
    for i, d in enumerate(ds):
        pf = sexpr.ProofFile(derivs={"d": d}, order=(("defder", "d"),))
        _agrees_with_rewriting_layout(pf)
        if i < len(ds) - 2:  # ind_n only extracts after normalization
            pf = sexpr.ProofFile(terms={"r": extract(d, mn.INTERACTIVE)}, order=(("defterm", "r"),))
            _agrees_with_rewriting_layout(pf)


def test_deep_terms_print_in_linear_time():
    t = tm.zero
    for _ in range(2000):
        t = tm.App(tm.succ, t)
    start = time.monotonic()
    text = print_term(t)
    assert time.monotonic() - start < 2.0  # 16.5 s when every level re-indented
    assert len(text) == 7962116  # as the rewriting layout printed it
    assert print_term(read_term(read_nodes(text)[0], FNS, RELS)) == text
