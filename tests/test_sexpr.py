"""Reading and printing of proof files: parse/print round trips, positions."""

import bisect
import gc
import random
import re
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from realizer import arith, corpus, sexpr
from realizer import deduction as dd
from realizer import monads as mn
from realizer import terms as tm
from realizer.arith import Atom, Comp, Forall, PRec, Proj, Succ, TApp, TVar, Zero, tnum
from realizer.extraction import ExtractionError, extract
from realizer.sexpr import (
    ParseError, parse_file, print_derivation, print_file, print_formula, print_primfn,
    print_term, print_type, read_derivation, read_formula, read_primfn, read_term,
    read_type,
)

import conftest as gen
import reference_sexpr as ref

FNS, RELS = arith.FUNCTIONS, arith.RELATIONS


def roundtrip_formula(f):
    return read_formula(print_formula(f), FNS, RELS)


# ---------------------------------------------------------------------------
# the token scan


def test_scan_tracks_positions():
    text = "(a b)\n  (c -3)"
    rd = sexpr._Reader(text)
    assert rd.toks == ["(", "a", "b", ")", "(", "c", "-3", ")"]
    assert rd.after == [4, 2, 3, 4, 8, 6, 7, 8]
    assert rd.items(0, len(rd.toks)) == [0, 4]
    assert sexpr._offsets(text) == [0, 1, 3, 4, 8, 9, 11, 13]
    # an error at a token counts its line and column from the token's offset
    for i, (line, col) in [(0, (1, 1)), (4, (2, 3)), (6, (2, 6))]:
        e = rd.error(i, "x")
        assert (e.line, e.col, str(e)) == (line, col, f"{line}:{col}: x")
    for read, text, where in [
        (lambda t: read_formula(t, FNS, RELS), "\n  (c -3)", (2, 3)),
        (lambda t: sexpr.read_aterm(t, FNS), "; (\n     -3", (2, 6)),
    ]:
        with pytest.raises(ParseError) as info:
            read(text)
        assert (info.value.line, info.value.col) == where


def test_comments_are_skipped():
    rd = sexpr._Reader("; leading\n(a ; inline\n b)\n; trailing")
    assert rd.toks == ["(", "a", "b", ")"]
    assert sexpr._offsets(rd.text) == [10, 11, 23, 24]


def test_a_read_takes_one_form():
    assert read_type(" ; the type\n Nat ") is tm.NAT
    for text, found, where in [("", 0, (1, 1)), ("; (\n", 0, (2, 1)), ("Nat\n Unit", 2, (2, 2))]:
        with pytest.raises(ParseError) as info:
            read_type(text)
        assert (info.value.message, info.value.line, info.value.col) == (
            f"expected one form, found {found}", *where)


@pytest.mark.parametrize(
    "text,line,col,needle",
    [
        ("(a b", 1, 1, "unclosed"),
        ("a)", 1, 2, "unmatched"),
        ("(", 1, 1, "unclosed"),
        ("; (\n  )", 2, 3, "unmatched"),
    ],
)
def test_token_errors_carry_positions(text, line, col, needle):
    with pytest.raises(ParseError) as info:
        sexpr._Reader(text)
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
    """The recursive reader that the node reader replaced, with nodes as tuples
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


def _scanned(text: str) -> list:
    """sexpr's scan of text, with its forms as _ref_read_nodes gives them."""
    rd = sexpr._Reader(text)
    offsets = sexpr._offsets(text)
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def node(i: int):
        line = bisect.bisect_right(line_starts, offsets[i])
        where = (line, offsets[i] - line_starts[line - 1] + 1)
        tok = rd.toks[i]
        if tok == "(":
            return ("list", tuple(map(node, rd.items(i + 1, rd.after[i] - 1))), *where)
        if _REF_INT.match(tok):
            return ("int", int(tok), *where)
        return ("sym", tok, *where)

    return [node(i) for i in rd.items(0, len(rd.toks))]


def _outcome(read, text):
    try:
        return "read", read(text)
    except ParseError as e:
        return "error", (e.message, e.line, e.col, str(e))


def _agrees_with_reference(text):
    assert _outcome(_scanned, text) == _outcome(_ref_read_nodes, text)
    assert _outcome(parse_file, text) == _outcome(ref.parse_file, text)


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


def _monad_realizer_files() -> list[str]:
    """A file per monad: the corpus functions and relations, then the
    realizer of every corpus and generated derivation the monad extracts."""
    pf = corpus.corpus_file()
    rng = random.Random(21)
    ds = [*pf.derivs.values(), *(gen.decoratable_derivation(rng) for _ in range(10))]
    header = tuple((k, n) for k, n in pf.order if k in ("deffn", "defrel"))
    texts = []
    for monad in mn.BUILTIN_MONADS.values():
        terms = {}
        for d in ds:
            try:
                terms[f"r{len(terms)}"] = extract(d, monad, pf.rels, pf.fns)
            except ExtractionError:  # open, or needing another monad or normal form
                pass
        order = header + tuple(("defterm", name) for name in terms)
        texts.append(print_file(sexpr.ProofFile(pf.fns, pf.rels, terms, {}, order)))
    return texts


def _generator_files() -> list[str]:
    """The test-suite generators' derivations, two to a file."""
    rng = random.Random(22)
    made = [gen.ha_em_derivation, gen.decoratable_derivation, gen.em_derivation,
            gen.ind_derivation, gen.cind_derivation, gen.open_derivation,
            lambda r: gen.sigma01_derivation(r, cuts=3)[0],
            lambda r: gen.with_inner_cuts(r, gen.closed_true_derivation(r, (), 3), 2)]
    texts = []
    for make in made:
        derivs = {f"d{i}": make(rng) for i in range(2)}
        order = tuple(("defder", name) for name in derivs)
        texts.append(print_file(sexpr.ProofFile(derivs=derivs, order=order)))
    return texts


def _printed_files() -> list[str]:
    return [corpus.corpus_text(), *_printed_bench_files(), *_monad_realizer_files(),
            *_generator_files()]


def test_reader_agrees_with_the_reference_on_printed_files():
    for text in _printed_files():
        _agrees_with_reference(text)
        assert parse_file(text).order  # the files are well formed


def _types_in(x) -> list:
    """Every type in the object x: annotations of terms and their parts."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        if isinstance(x, (tm.TBase, tm.TArrow, tm.TProd, tm.TSum)):
            out.append(x)
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            todo.extend(vars(x).values())
    return out


def test_equal_types_of_a_file_are_one_object():
    texts = [*_monad_realizer_files(), _printed_bench_files()[-1]]
    for text in texts:
        types = _types_in(list(parse_file(text).terms.values()))
        one = {}
        assert all(one.setdefault(ty, ty) is ty for ty in types)
        assert len(types) > 10 * len(one)  # types are spelled again and again
    # the node reader made an object for each
    types = _types_in(list(ref.parse_file(texts[-1]).terms.values()))
    assert len({id(ty) for ty in types}) > len(set(types))


def _shared_forms(pf: sexpr.ProofFile) -> list:
    """The contexts, goals and assumed formulas of pf's derivation nodes, and
    the types of its terms, but the empty context and the ground types, of
    which the program holds one each."""
    seqs = [node.conclusion for d in pf.derivs.values() for node in dd.walk(d)]
    forms = [s.context for s in seqs if s.context] + [s.goal for s in seqs]
    forms += [f for s in seqs for _, f in s.context]
    return forms + [ty for ty in _types_in(list(pf.terms.values())) if type(ty) is not tm.TBase]


def test_equal_contexts_and_goals_of_a_file_are_one_object():
    texts = [*_printed_bench_files()[:-1], *_generator_files(), corpus.corpus_text()]
    spelled = distinct = 0
    for text in texts:
        forms = _shared_forms(parse_file(text))
        one = {}
        assert all(one.setdefault(x, x) is x for x in forms)
        spelled, distinct = spelled + len(forms), distinct + len(one)
    assert spelled > 2 * distinct  # contexts and goals are spelled again and again
    # the node reader made an object for each
    forms = _shared_forms(ref.parse_file(texts[0]))
    assert len({id(x) for x in forms}) > len(set(forms))


def test_two_reads_of_a_text_share_nothing():
    for text in [*_printed_bench_files(), corpus.corpus_text()]:
        first, second = parse_file(text), parse_file(text)
        assert first == second
        assert not {id(x) for x in _shared_forms(first)} & {id(x) for x in _shared_forms(second)}


def test_shared_and_unshared_types_print_the_same_bytes():
    monad_files = _monad_realizer_files()
    assert all(print_file(parse_file(text)) == text for text in monad_files)
    for text in [*monad_files, _printed_bench_files()[-1]]:
        shared, apart = parse_file(text), ref.parse_file(text)  # the reference shares nothing
        types = _types_in(list(apart.terms.values()))
        assert len({id(ty) for ty in _types_in(list(shared.terms.values()))}) < len(types)
        assert print_file(shared) == print_file(apart)
        for name, t in shared.terms.items():
            assert print_term(t) == print_term(apart.terms[name])
    # a freshly extracted realizer, whose equal types are in part distinct objects
    bench = gen.bench_gen()
    text = print_term(extract(bench.em_chain(bench.Stratified(3), 4, True), mn.INTERACTIVE))
    apart = ref.parse_file(f"(defterm r {text})").terms["r"]
    assert print_term(read_term(text, FNS, RELS)) == print_term(apart) == text


def test_the_print_memo_ends_with_its_call():
    ty = tm.TArrow(tm.TProd(tm.NAT, tm.UNIT), tm.TProd(tm.NAT, tm.UNIT))
    t = tm.Lam(ty, tm.Lam(ty.dom, tm.Var(0)))
    pf = sexpr.ProofFile(terms={"t": t}, order=(("defterm", "t"),))
    gone = [weakref.ref(ty), weakref.ref(ty.dom)]
    assert print_file(pf) == (
        "(defterm t (lam (arrow (prod Nat Unit) (prod Nat Unit)) (lam (prod Nat Unit) (var 0))))\n")
    assert print_term(t) == print_file(pf)[len("(defterm t "):-2]
    del ty, t, pf
    gc.collect()
    assert all(ref() is None for ref in gone)


@pytest.mark.parametrize("text", [
    "(defterm t (lam Bool (var x)))",
    "(defterm t (lam (arrow Nat) (var x)))",
    "(defterm t (lam (sum Nat Unit) zero)) (defterm u (lam (sum Nat Unit) (var y)))",
    "(defterm t (lam (sum Nat Unit) zero)) (defterm u (lam (sum Nat 3) zero))",
    "(defder d (der bogus (seq (ctx) (atom top)))) (defterm t flurb)",
    "(defder d (der atom-i (seq (ctx (u (atom = x))) (atom top 1))))",
    "(defx a) )",
    "(defterm t zero) (defx a) (",
    "(defterm t (num {n})) )",
    "(defx a) (defterm u (num {n})",
    "(defterm t zero) ) (defterm u (num {n}))",
])
def test_the_first_of_two_faults_is_the_one_the_reference_reports(text):
    text = text.format(n="1" * 5000)
    new, old = _outcome(parse_file, text), _outcome(ref.parse_file, text)
    assert new[0] == "error" and new == old


@pytest.mark.parametrize("text", [
    "(defder d (der atom-i (seq (ctx) (ctx))))",
    "(defder d (der atom-i (seq (ctx (u (atom top))) (ctx (u (atom top))))))",
    "(defterm t (lam (arrow Nat Nat) unit)) (defder d (der atom-i (seq (ctx) (arrow Nat Nat))))",
    "(defder d (der atom-i (seq (ctx) (atom top)))) (defterm t (lam (atom top) unit))",
])
def test_tokens_read_before_as_another_kind_are_read_again(text):
    # the memo of each shared kind is its own: these forms are all errors
    new, old = _outcome(parse_file, text), _outcome(ref.parse_file, text)
    assert new[0] == "error" and new == old


@pytest.mark.parametrize("nest", ["term", "type", "goal"])
def test_reading_takes_time_linear_in_depth(nest):
    def text(n: int) -> str:
        if nest == "term":
            return "(defterm t " + "(app succ " * n + "zero" + ")" * (n + 1)
        if nest == "type":
            return "(defterm t (lam " + "(arrow Nat " * n + "Nat" + ")" * n + " unit))"
        goal = "(and (atom top) " * n + "(atom top)" + ")" * n
        return f"(defder d (der and-i (seq (ctx (u {goal})) {goal})))"

    def best(n: int) -> float:
        t = text(n)
        return gen.best_cpu_time(lambda: parse_file(t))

    # ten times the depth; keying a type or formula memo by its tokens at
    # every level of a nested form would make it about a hundred
    assert best(10_000) <= 25 * best(1_000)


_PIECES = ["(", ")", " ", "\t", "\r", "\n", ";", "; c (d)", "a", "ab", "-", "-12", "7",
           "x-3", "00", "\u00e9", "\u0661", "\x0b", "\r\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_reader_agrees_with_the_reference_on_token_soup(text):
    _agrees_with_reference(text)


# every character str.isspace() takes for whitespace that the grammar does not:
# a token holds them, so a text with one takes the tokenizer's slow path
_OTHER_SPACES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
                 *map(chr, range(0x2000, 0x200b)), "\u2028", "\u2029", "\u202f", "\u205f",
                 "\u3000"]
_SPACED_PIECES = ["(", ")", "(defterm", "t", "unit", "(lam", "Unit", "a", "-12", "7", " ",
                  "  ", "      ", "\n  ", "\n    ", "\t", "\r\n", "; c (d)\n", *_OTHER_SPACES]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SPACED_PIECES), max_size=40).map("".join))
def test_reader_agrees_with_the_reference_on_every_kind_of_whitespace(text):
    _agrees_with_reference(text)


def test_space_is_the_only_printable_whitespace():
    # the tokenizer splits a printable text with str.split(), which breaks
    # at every str.isspace() character: exact only while this holds
    both = [c for c in map(chr, range(0x110000)) if c.isspace() and c.isprintable()]
    assert both == [" "]
    assert all(c.isspace() and not c.isprintable() for c in _OTHER_SPACES)


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
        assert read_primfn(print_primfn(f), FNS) == f
    assert read_primfn("+", FNS) == FNS["+"]
    with pytest.raises(ParseError, match="unknown function"):
        read_primfn("mystery", FNS)
    with pytest.raises(ParseError):
        read_primfn("(comp S)", FNS)  # inner arity mismatch
    with pytest.raises(ParseError):
        read_primfn("(proj 2 0)", FNS)


def test_aterm_printing_uses_decimal_numerals():
    assert sexpr.print_aterm(tnum(3)) == "3"
    assert sexpr.print_aterm(TApp("S", (TVar("x"),))) == "(S x)"
    assert sexpr.read_aterm("3", FNS) == tnum(3)
    with pytest.raises(ParseError, match="negative"):
        sexpr.read_aterm("-1", FNS)
    with pytest.raises(ParseError, match="takes"):
        sexpr.read_aterm("(S 1 2)", FNS)


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
            read_formula(text, FNS, RELS)


def test_type_roundtrip():
    tys = [tm.UNIT, tm.NAT, tm.STATE, tm.EX,
           tm.arrows(tm.STATE, tm.NAT, tm.TSum(tm.TProd(tm.NAT, tm.UNIT), tm.EX))]
    for ty in tys:
        assert read_type(print_type(ty)) == ty
    with pytest.raises(ParseError, match="unknown type"):
        read_type("Bool")


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
        assert read_term(print_term(t), FNS, RELS) == t


def test_term_reader_rejections():
    for text, needle in [
        ("flurb", "unknown term"),
        ("(query best 1)", "unknown relation"),
        ("(prim best)", "unknown function"),
        ("(app zero)", "app needs"),
        ("(made-up 1)", "unknown term form"),
    ]:
        with pytest.raises(ParseError, match=needle):
            read_term(text, FNS, RELS)


def test_rule_and_derivation_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        d = gen.ha_em_derivation(rng)
        text = print_derivation(d)
        assert read_derivation(text, FNS, RELS) == d
    with pytest.raises(ParseError, match="unknown rule"):
        read_derivation("(der woosh (seq (ctx) (atom top)))", FNS, RELS)
    with pytest.raises(ParseError, match="expected \\(der"):
        read_derivation("(seq (ctx) (atom top))", FNS, RELS)


@pytest.mark.parametrize("read, text, want, unknown", [
    (read_formula, "(atom = 0 (+ 1 2))", Atom("=", (tnum(0), TApp("+", (tnum(1), tnum(2))))),
     "(atom eq 0 0)"),
    (sexpr.read_aterm, "(+ 1 2)", TApp("+", (tnum(1), tnum(2))), "(plus 1 2)"),
    (read_primfn, "+", FNS["+"], "plus"),
    (read_term, "(app (query = 2) (prim monus))",
     tm.app(tm.query_c("=", 2), tm.prim_c("monus", FNS["monus"])), "(query eq 2)"),
    (read_term, "(eval < 2)", tm.eval_c("<", 2), "(eval lt 2)"),
    (sexpr.read_rule, "(forall-e (* 2 x))", dd.ForallE(TApp("*", (tnum(2), TVar("x")))),
     "(forall-e (times 2 x))"),
    (read_derivation, "(der atom-i (seq (ctx) (atom <= 1 (pred 3))))",
     dd.Derivation(dd.AtomI(), dd.Sequent((), Atom("<=", (tnum(1), TApp("pred", (tnum(3),))))), ()),
     "(der atom-i (seq (ctx) (atom <= 1 (prev 3))))"),
], ids=["formula", "aterm", "primfn", "query", "eval", "rule", "derivation"])
def test_readers_without_tables_read_against_the_standard_ones(read, text, want, unknown):
    assert read(text) == want == read(text, FNS, RELS)
    with pytest.raises(ParseError, match="unknown"):
        read(unknown)
    # reading leaves the standard tables as they were
    assert set(FNS) == {"0", "S", "+", "*", "pred", "monus"}
    assert set(RELS) == {"=", "<", "<=", "top", "bot"}


def test_long_forms_wrap_and_still_parse():
    d = corpus.corpus_file().derivs["ind-two"]
    text = print_derivation(d)
    assert "\n" in text and max(len(l) for l in text.splitlines()) <= 100
    assert read_derivation(text, FNS, RELS) == d


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


def _bad(text: str, needle: str, line: int, col: int):
    # the test id names the text and the message, not the position
    return pytest.param(text, needle, line, col, id=f"{text}-{needle}")


@pytest.mark.parametrize(
    "text,needle,line,col",
    [
        _bad("(defx a 1)", "unknown top-level", 1, 1),
        _bad("(defterm t zero) (defterm t zero)", "duplicate name", 1, 27),
        _bad("(deffn f)", "deffn takes 2", 1, 1),
        _bad("(defrel r 2 S)", "arity", 1, 1),
        _bad("(defder d (der atom-i (seq (ctx) (atom top))) extra)", "defder takes 2", 1, 1),
        # a wrong head where a derivation, a sequent or a context should be
        _bad("(defder d\n  (dre atom-i (seq (ctx) (atom top))))",
             "expected (der RULE SEQUENT PREMISSES...)", 2, 3),
        _bad("(defder d (der atom-i (seq (ctx) (atom top)) (seq (ctx) (atom top))))",
             "expected (der RULE SEQUENT PREMISSES...)", 1, 46),
        _bad("(defder d (der atom-i\n  (sq (ctx) (atom top))))",
             "expected (seq (ctx ...) GOAL)", 2, 3),
        _bad("(defder d (der atom-i (seq\n  (cx) (atom top))))",
             "expected (ctx (LABEL FORMULA) ...)", 2, 3),
        _bad("(defder d (der atom-i ()))", "empty form where a sequent was expected", 1, 23),
        _bad("(defder d (der atom-i (seq ctx (atom top))))", "expected a context", 1, 28),
        _bad("(defder d (der atom-i))", "expected (der RULE SEQUENT PREMISSES...)", 1, 11),
        _bad("(defder d\n  (der atom-i (seq (ctx))))", "seq takes 2 arguments, got 1", 2, 15),
        _bad("(defder d (der atom-i (seq (ctx\n  (u)) (atom top))))",
             "context entries are (LABEL FORMULA)", 2, 3),
    ],
)
def test_file_level_errors(text, needle, line, col):
    with pytest.raises(ParseError, match=re.escape(needle)) as info:
        parse_file(text)
    assert (info.value.line, info.value.col) == (line, col)


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


def _capped(text: str) -> str:
    """text with no line indented past column 120, where the printer stops."""
    return re.sub(r"(?m)^ {121,}", " " * 120, text)


def _agrees_with_rewriting_layout(pf: sexpr.ProofFile) -> str:
    texts = []
    for head, name in pf.order:
        attr, form = sexpr._DEFINITIONS[head]
        value = getattr(pf, attr)[name]
        layout = sexpr._walk(sexpr._print_form(form, form.split((name, value))), {})
        texts.append(_rewritten(layout))
    text = print_file(pf)
    assert text == "".join(_capped(t) + "\n" for t in texts)
    return text


def test_layout_agrees_with_the_rewriting_wrap():
    _agrees_with_rewriting_layout(corpus.corpus_file())
    bench = gen.bench_gen()
    rng = bench.Stratified(9)
    ds = [bench.em_chain(rng, depth, wrapped) for depth in (1, 4, 6) for wrapped in (False, True)]
    ds += [bench.sigma01_cuts(rng, kinds) for kinds in bench.cut_kinds(rng, [1, 4, 8])]
    ds += [bench.ind_n(5), bench.square(9)]
    texts = []
    for i, d in enumerate(ds):
        pf = sexpr.ProofFile(derivs={"d": d}, order=(("defder", "d"),))
        texts.append(_agrees_with_rewriting_layout(pf))
        if i < len(ds) - 2:  # ind_n only extracts after normalization
            pf = sexpr.ProofFile(terms={"r": extract(d, mn.INTERACTIVE)}, order=(("defterm", "r"),))
            texts.append(_agrees_with_rewriting_layout(pf))
    # 150 levels of (app succ ...) go past the cap, and so does the deepest realizer
    t = tm.zero
    for _ in range(150):
        t = tm.App(tm.succ, t)
    texts.append(_agrees_with_rewriting_layout(
        sexpr.ProofFile(terms={"t": t}, order=(("defterm", "t"),))))
    capped = [text for text in texts if "\n" + " " * 120 + "(" in text]
    assert len(capped) >= 2 and all("\n" + " " * 121 not in text for text in texts)


def test_deep_terms_print_in_linear_time():
    t = tm.zero
    for _ in range(2000):
        t = tm.App(tm.succ, t)
    start = time.monotonic()
    text = print_term(t)
    assert time.monotonic() - start < 2.0  # 16.5 s when every level re-indented
    # 7962116 bytes as the rewriting layout printed it; that text capped at 120
    # columns is 493004 bytes
    assert len(text) == 493004
    assert print_term(read_term(text, FNS, RELS)) == text
