"""Command-line behaviour: exit codes, output formats, fuel, demos."""

import gc
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from realizer import cli, corpus, sexpr
from realizer import terms as tm

import conftest as gen


@pytest.fixture
def corpus_path(tmp_path):
    p = tmp_path / "corpus.proof"
    p.write_text(corpus.corpus_text())
    return str(p)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_reports_every_definition(corpus_path, capsys):
    rc, out, err = run_cli(capsys, "check", corpus_path)
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    n = len(corpus.corpus_file().order)
    assert lines[-1] == f"ok: {n} definitions"
    assert len(lines) == n + 1
    assert any(l.startswith("der direct-zero proves (exists x") for l in lines)
    assert any(l.startswith("term const-seven : ") for l in lines)


def test_check_sexpr_format_comments_the_chatter(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "check", corpus_path, "--format", "sexpr")
    assert rc == 0
    *chatter, result = out.strip().splitlines()
    assert all(l.startswith("; ") for l in chatter)
    assert result == f"(checked {len(corpus.corpus_file().order)})"


def test_check_sexpr_format_comments_every_line_of_a_wide_type(tmp_path, capsys):
    p = tmp_path / "wide.sexp"
    p.write_text("(defterm t (lam (arrow (arrow (arrow Nat (sum Unit Ex)) (prod State (sum Nat Nat)))"
                 " (arrow State (sum (prod Nat Nat) Ex))) unit))")
    rc, out, _ = run_cli(capsys, "check", str(p), "--format", "sexpr")
    assert rc == 0
    *notes, result = out.strip().splitlines()
    assert len(notes) > 1 and all(l.startswith(";") for l in notes)
    assert result == "(checked 1)"


def test_check_missing_file_is_a_user_error(capsys):
    rc, out, err = run_cli(capsys, "check", "/nonexistent.proof")
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_a_file_that_is_not_utf8_is_a_user_error_at_its_byte(tmp_path, capsys):
    p = tmp_path / "utf16.proof"
    p.write_bytes(b"\xff\xfe(\x00")  # a UTF-16 byte order mark
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, out, err) == (1, "", f"error: {p} is not UTF-8: invalid start byte at byte 0\n")
    p.write_bytes(b"(defterm t zero)\r\n" * 3 + b"(defterm u \xe9)")  # a Latin-1 e-acute
    rc, out, err = run_cli(capsys, "extract", str(p), "--deriv", "d")
    assert (rc, out) == (1, "")
    assert err == f"error: {p} is not UTF-8: invalid continuation byte at byte 65\n"


def test_check_syntax_error_carries_the_position(tmp_path, capsys):
    p = tmp_path / "broken.proof"
    p.write_text("(defder d\n  (der bogus (seq (ctx) (atom top))))")
    rc, _, err = run_cli(capsys, "check", str(p))
    assert rc == 1
    assert re.search(r"error: 2:8: unknown rule", err)


def test_check_eigenvariable_violation_exits_one(tmp_path, capsys):
    p = tmp_path / "eigen.proof"
    p.write_text(
        "(defder bad\n"
        "  (der (forall-i x)\n"
        "    (seq (ctx (u (atom = x 0))) (forall x (atom = x x)))\n"
        "    (der (atom-post refl) (seq (ctx (u (atom = x 0))) (atom = x x)))))\n"
    )
    rc, out, err = run_cli(capsys, "check", str(p))
    assert rc == 1 and out == ""
    assert "eigenvariable" in err


# ---------------------------------------------------------------------------
# extract


def test_extract_prints_a_typed_realizer(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "extract", corpus_path, "--deriv", "direct-zero")
    assert rc == 0
    ty_line, *term_lines = out.splitlines()
    assert ty_line.startswith("type: (arrow State ")
    t = sexpr.read_term("\n".join(term_lines), corpus.corpus_file().fns, corpus.corpus_file().rels)
    assert sexpr.print_type(tm.typecheck(t)) == ty_line.removeprefix("type: ")


def test_extract_sexpr_is_just_the_term(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "extract", corpus_path,
                         "--deriv", "direct-zero", "--format", "sexpr")
    assert rc == 0
    pf = corpus.corpus_file()
    sexpr.read_term(out, pf.fns, pf.rels)  # one form, or a ParseError


@pytest.mark.parametrize(
    "deriv,monad",
    [
        ("em-refuted", "id"),       # queries need the interactive monad
        ("em-under-elim", "ir"),    # quantified variable is not the last argument
        ("ind-two", "ir"),          # induction has no direct decoration
    ],
)
def test_extract_refusals_are_user_errors(corpus_path, capsys, deriv, monad):
    rc, _, err = run_cli(capsys, "extract", corpus_path,
                         "--deriv", deriv, "--monad", monad)
    assert rc == 1 and err.startswith("error: ")


def test_extract_unknown_name_lists_the_table(corpus_path, capsys):
    rc, _, err = run_cli(capsys, "extract", corpus_path, "--deriv", "nope")
    assert rc == 1
    assert "no derivation named 'nope'" in err and "direct-zero" in err


def test_missing_required_flag_is_a_usage_error(corpus_path, capsys):
    rc, _, err = run_cli(capsys, "extract", corpus_path)
    assert rc == 1 and "--deriv" in err


# ---------------------------------------------------------------------------
# run


def test_run_regular_value(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "const-seven")
    assert rc == 0
    assert out.splitlines()[0] == "outcome: regular"


def test_run_exceptional_value(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "raise-low")
    assert rc == 0
    assert out.splitlines() == ["outcome: exceptional", "exception: <(5)=2"]
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "raise-low",
                         "--format", "sexpr")
    assert out.strip() == "(exceptional (exc < (5) 2))"


def test_run_accepts_seeded_state(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "raise-low",
                         "--state", "<(5)=2")
    assert rc == 0 and "exceptional" in out


@pytest.mark.parametrize("entry", ["garbage", "<(5=2", "<(a)=2", "<(1)=5", "<(-1)=2",
                                   "<(5)=-2"])
def test_run_rejects_bad_state_entries(corpus_path, capsys, entry):
    rc, _, err = run_cli(capsys, "run", corpus_path, "--term", "raise-low",
                         "--state", entry)
    assert rc == 1 and err.startswith("error: ")


def test_run_rejects_two_witnesses_for_one_key(corpus_path, capsys):
    rc, out, err = run_cli(capsys, "run", corpus_path, "--term", "const-seven", "--learn",
                           "--state", "<(5)=2", "--state", "<(5)=3")
    assert rc == 1 and out == ""
    assert err == "error: two witnesses for <(5): 2 and 3\n"


def test_run_accepts_a_repeated_state_entry(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "const-seven", "--learn",
                         "--state", "<(5)=2", "--state", "<(5)=2")
    assert rc == 0 and out.splitlines()[0] == "state: <(5)=2"


def test_successive_calls_share_no_state_entries(corpus_path, capsys):
    # one parser serves every call in a process
    assert cli._build_parser() is cli._build_parser()
    for entry in ("<(5)=2", "<(6)=3"):
        rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "const-seven", "--learn",
                             "--state", entry)
        assert rc == 0 and out.splitlines()[0] == f"state: {entry}"
    rc, _, err = run_cli(capsys, "run", corpus_path, "--state", "<(5)=2")
    assert rc == 1 and "--term" in err


def test_run_learn_traces_and_returns(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "const-seven",
                         "--learn", "--trace")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "iter=1 key=- witness=- outcome=regular"
    assert lines[1] == "state: -"
    assert lines[2].startswith("value: ")


def test_run_learn_stalls_on_a_stubborn_raiser(corpus_path, capsys):
    rc, _, err = run_cli(capsys, "run", corpus_path, "--term", "raise-low", "--learn")
    assert rc == 1 and "error: " in err


def test_run_fuel_env_and_flag(tmp_path, capsys, monkeypatch):
    # two contractions: the state abstraction, then the inner one
    p = tmp_path / "two.proof"
    p.write_text("(defterm two (lam State (app (lam Nat (app (inl Nat Ex) (var 0))) (num 7))))")
    monkeypatch.setenv("REALIZER_FUEL", "2")
    rc, _, err = run_cli(capsys, "run", str(p), "--term", "two")
    assert rc == 1 and "no normal form within 2" in err
    rc, out, _ = run_cli(capsys, "run", str(p), "--term", "two", "--fuel", "100000")
    assert rc == 0 and "regular" in out


@pytest.mark.parametrize("fuel", ["lots", "-3", "1.5"])
def test_run_rejects_a_bad_fuel_variable(corpus_path, capsys, monkeypatch, fuel):
    monkeypatch.setenv("REALIZER_FUEL", fuel)
    rc, _, err = run_cli(capsys, "run", corpus_path, "--term", "const-seven")
    assert rc == 1 and err.startswith("error: REALIZER_FUEL")


@pytest.mark.parametrize("argv", [["run", "--term", "const-seven"],
                                  ["normalize", "--deriv", "cut-and"],
                                  ["extract-witness", "--deriv", "cut-and"]])
def test_a_negative_fuel_flag_is_a_usage_error(corpus_path, capsys, monkeypatch, argv):
    from realizer import learning, normalizer

    def never(*args, **kwargs):
        raise AssertionError("the work started")

    for module, name in ((learning, "run_realizer"), (learning, "learn"),
                         (normalizer, "normalize_derivation"), (normalizer, "extract_witness")):
        monkeypatch.setattr(module, name, never)
    rc, out, err = run_cli(capsys, argv[0], corpus_path, *argv[1:], "--fuel", "-2")
    assert (rc, out, err) == (1, "", "error: --fuel must be a non-negative integer, got -2\n")


def test_run_of_a_deep_non_outcome_is_a_user_error(tmp_path, capsys):
    # the normal form is an abstraction over succ nested 3000 deep, and the
    # message names its head only; succ of a literal is the next literal
    p = tmp_path / "deep.proof"
    chain = "(app succ " * 3000 + "(var 0)" + ")" * 3000
    p.write_text(f"(defterm t (lam State (lam Nat {chain})))"
                 "(defterm u (app succ (num 3000)))")
    for name, head in (("t", "Lam applied to 0"), ("u", "Num applied to 1")):
        rc, out, err = run_cli(capsys, "run", str(p), "--term", name)
        assert rc == 1 and out == ""
        assert err == f"error: realizer produced a non-outcome normal form: {head} arguments\n"


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_check_reads_deeply_nested_terms(tmp_path, capsys, depth):
    p = tmp_path / "deep.proof"
    p.write_text("(defterm t " + "(app succ " * depth + "(num 0)" + ")" * depth + ")")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["term t : Nat", "ok: 1 definitions"]


def test_check_reads_deeply_nested_types(tmp_path, capsys):
    p = tmp_path / "deep.proof"
    p.write_text("(defterm t (lam " + "(arrow Nat " * 10**4 + "Nat" + ")" * 10**4 + " unit))")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.startswith("term t : (arrow\n  (arrow\n    Nat\n    (arrow\n")
    assert out.endswith(")\nok: 1 definitions\n") and len(out) < 3 * 10**6  # 200 MB uncapped


def test_check_prints_type_errors_in_file_syntax(tmp_path, capsys):
    p = tmp_path / "ill.proof"
    p.write_text("(defterm u (app succ (lam Nat (var 0))))")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, out) == (1, "")
    assert err == "error: expected Nat, found (arrow Nat Nat) in argument (lam Nat (var 0))\n"


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_check_of_a_deep_ill_typed_argument_is_a_short_user_error(tmp_path, capsys, depth):
    p = tmp_path / "ill.proof"
    p.write_text("(defterm t (app (lam Unit unit) " + "(app succ " * depth + "zero"
                 + ")" * depth + "))")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "check", str(p))
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (1, "")
    assert err == "error: expected Unit, found Nat in argument (app ...)\n"


@pytest.mark.parametrize("inner, status", [("Unit", 0), ("Nat", 1)])
def test_check_compares_deep_argument_types(tmp_path, capsys, inner, status):
    # the parameter type is 1500 arrows deep, and the argument's type is
    # built apart from it
    p = tmp_path / "deep.proof"
    ty = "(arrow Nat " * 1500 + inner + ")" * 1500
    arg = "(lam Nat " * 1500 + "unit" + ")" * 1500
    p.write_text(f"(defterm t (app (lam {ty} unit) {arg}))")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert rc == status
    if status:
        assert err == "error: expected (arrow ...), found (arrow ...) in argument (lam ...)\n"
    else:
        assert out.splitlines() == ["term t : Unit", "ok: 1 definitions"]


_TOWER = "1"
for _ in range(1200):
    _TOWER = f"(+ {_TOWER} 1)"


@pytest.mark.parametrize("der", [
    f"(der atom-i (seq (ctx) (atom = {_TOWER} 1201)))",
    f"(der (atom-post refl) (seq (ctx) (atom = {_TOWER} {_TOWER})))",
], ids=["atom-i", "refl"])
def test_check_evaluates_deep_sums(tmp_path, capsys, der):
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d {der})")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "ok: 1 definitions"


_TOWER_ATOM = f"(atom = {_TOWER} 1201)"


@pytest.mark.parametrize("der", [
    f"(der and-el (seq (ctx) {_TOWER_ATOM}) (der and-i (seq (ctx) (and {_TOWER_ATOM} (atom = 1 1)))"
    f" (der atom-i (seq (ctx) {_TOWER_ATOM})) (der atom-i (seq (ctx) (atom = 1 1)))))",
    f"(der (exists-i 1201) (seq (ctx) (exists x (atom = x {_TOWER})))"
    f" (der atom-i (seq (ctx) (atom = 1201 {_TOWER}))))",
], ids=["and-cut", "exists-i"])
def test_check_compares_deep_sums_read_apart(tmp_path, capsys, der):
    # the goals hold equal 1200-deep terms that are distinct objects
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d {der})")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "ok: 1 definitions"


def test_check_evaluates_deep_compositions(tmp_path, capsys):
    # f is S composed with itself 2000 times: reading it costs O(1) a level,
    # and evaluating it no Python stack
    p = tmp_path / "deep.proof"
    fn = "(comp S " * 2000 + "S" + ")" * 2000
    p.write_text(f"(deffn f {fn})\n(defder d (der atom-i (seq (ctx) (atom = (f 1) 2002))))")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.splitlines()[-2:] == ["der d proves (atom = (f 1) 2002)", "ok: 2 definitions"]


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_check_evaluates_deep_recursions(tmp_path, capsys, depth):
    # g' = (prec (zero 0) (comp g (comp S (proj 2 1)))) has g'(1) = g(1), and f
    # nests it depth times over S: evaluating f(1) needs no Python stack
    fn = "S"
    for _ in range(depth):
        fn = f"(prec (zero 0) (comp {fn} (comp S (proj 2 1))))"
    p = tmp_path / "deep.proof"
    p.write_text(f"(deffn f {fn})\n(defder d (der atom-i (seq (ctx) (atom = (f 1) 2))))")
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, err) == (0, "")
    assert out.splitlines()[-2:] == ["der d proves (atom = (f 1) 2)", "ok: 2 definitions"]


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_run_builds_the_dummy_of_a_deep_type(tmp_path, capsys, depth):
    # rec past its guard collapses to the dummy value of its result type,
    # which is depth arrows deep
    ty = "(arrow Nat " * depth + "Nat" + ")" * depth
    p = tmp_path / "deep.proof"
    p.write_text(f"(defterm t (lam State (app (inl {ty} Ex)"
                 f" (app (rec {ty} 0) (lam Nat (lam {ty} (var 0))) (num 1)))))")
    rc, out, err = run_cli(capsys, "run", str(p), "--term", "t")
    assert (rc, err) == (0, "")
    assert out.startswith("outcome: regular\nvalue: (lam\n  Nat\n  (lam\n")


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_excluded_middle_over_a_deep_closed_parameter(tmp_path, capsys, depth):
    # the universal atom is T < y for T the numeral 1 nested depth times in
    # (+ ... 1); the guess binds T once, and T < 0 refutes it
    t = "1"
    for _ in range(depth):
        t = f"(+ {t} 1)"
    univ, goal = f"(forall y (atom < {t} y))", "(exists x (atom = x 0))"
    left, right = f"(ctx (u {univ}))", f"(ctx (u (imply (atom < {t} y) (atom bot))))"
    p = tmp_path / "deep.proof"
    p.write_text(
        f"(defder d (der (em u y) (seq (ctx) {goal})"
        f" (der (exists-i 0) (seq {left} {goal})"
        f" (der false-e (seq {left} (atom = 0 0)) (der atom-e (seq {left} (atom bot))"
        f" (der (forall-e 0) (seq {left} (atom < {t} 0)) (der (id u) (seq {left} {univ}))))))"
        f" (der (exists-i 0) (seq {right} {goal}) (der atom-i (seq {right} (atom = 0 0))))))")
    rc, out, err = run_cli(capsys, "extract", str(p), "--deriv", "d", "--format", "sexpr")
    assert (rc, err) == (0, "")
    # T is bound once, so the query and the forward eval share its evaluation
    assert out.count("(prim +)") == depth
    q = tmp_path / "realizer.proof"
    q.write_text(f"(defterm r {out})")
    rc, out, err = run_cli(capsys, "run", str(q), "--term", "r", "--learn")
    assert (rc, err) == (0, "")
    assert out == f"state: <({depth + 1})=0\nvalue: (app (pair Nat Unit) (num 0) unit)\n"


def test_a_big_witness_is_one_literal(tmp_path, capsys):
    # the realizer carries the witness as one literal, not n succs, on both routes
    for n in (10**6, 10**100):
        p = tmp_path / "big.proof"
        p.write_text(f"(defder d (der (exists-i {n}) (seq (ctx) (exists x (atom = x {n})))"
                     f" (der atom-i (seq (ctx) (atom = {n} {n})))))")
        outs = {}
        for argv in (("check",), ("normalize", "--deriv", "d", "--trace"),
                     ("extract-witness", "--deriv", "d"), ("extract", "--deriv", "d"),
                     ("extract", "--deriv", "d", "--format", "sexpr")):
            rc, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
            assert (rc, err) == (0, "") and len(out) < 4096, argv
            assert argv[0] != "extract" or out.count(f"(num {n})") == 1
            outs[argv[0]] = out
        assert outs["extract-witness"] == f"witness: {n}\n"
        # no cut, so no trace line: the proof as it came
        assert outs["normalize"].startswith("(der\n  (exists-i")
        assert outs["normalize"].count(str(n)) == 4
        q = tmp_path / "realizer.proof"
        q.write_text(f"(defterm r {outs['extract']})")
        rc, out, err = run_cli(capsys, "run", str(q), "--term", "r", "--learn")
        assert (rc, err) == (0, "") and len(out) < 4096
        state, value = out.split("\n", 1)
        assert state == "state: -" and value.startswith("value: ")
        assert sexpr.read_term(value[7:]) == sexpr.read_term(f"(app (pair Nat Unit) (num {n}) unit)")


_DEEP_ATOM = "(atom = 1 1)"
_DEEP = {"and": ("(and ", f" {_DEEP_ATOM})"), "or": (f"(or {_DEEP_ATOM} ", ")"),
         "imply": ("(imply ", f" {_DEEP_ATOM})"), "forall": ("(forall x ", ")"),
         "exists": ("(exists x ", ")")}


@pytest.mark.parametrize("command", ["check", "normalize", "extract", "extract-witness"])
@pytest.mark.parametrize("kind", _DEEP)
def test_deep_formulas_need_no_stack(tmp_path, capsys, kind, command):
    # F nests one connective 10^4 deep over a closed atom, past Python's
    # recursion limit; u : F proves F
    head, tail = _DEEP[kind]
    f = head * 10**4 + _DEEP_ATOM + tail * 10**4
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d (der (imply-i u) (seq (ctx) (imply {f} {f}))"
                 f" (der (id u) (seq (ctx (u {f})) {f}))))")
    rc, out, err = run_cli(capsys, command, str(p), *([] if command == "check" else ["--deriv", "d"]))
    if command == "extract-witness":
        assert (rc, out, err) == (1, "", "error: goal is not an existential atom: (imply ...)\n")
    else:
        assert (rc, err) == (0, "")
        assert out.startswith({"check": "der d proves (imply\n",
                               "normalize": "(der\n  (imply-i u)\n",
                               "extract": "type: (arrow\n  State\n"}[command])


def _deep_term(op: str) -> str:
    t = "1"
    for _ in range(10**4):
        t = f"({op} {t} 1)"
    return t


_DEEP_TERMS = {"+": (_deep_term("+"), 10_001), "*": (_deep_term("*"), 1)}
_DEEP_TERM_DERS = {
    "atom-i": lambda t, v: f"(der atom-i (seq (ctx) (atom = {t} {v})))",
    "refl": lambda t, v: f"(der (atom-post refl) (seq (ctx) (atom = {t} {t})))",
    "exists-i": lambda t, v: (f"(der (exists-i {v}) (seq (ctx) (exists x (atom = x {t})))"
                              f" (der atom-i (seq (ctx) (atom = {v} {t}))))"),
}


@pytest.mark.parametrize("command", ["check", "normalize", "extract", "extract-witness"])
@pytest.mark.parametrize("der", _DEEP_TERM_DERS)
@pytest.mark.parametrize("op", _DEEP_TERMS)
def test_atoms_over_deep_terms_need_no_stack(tmp_path, capsys, op, der, command):
    # T nests + or * 10^4 deep over 1, past Python's recursion limit
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d {_DEEP_TERM_DERS[der](*_DEEP_TERMS[op])})")
    rc, out, err = run_cli(capsys, command, str(p), *([] if command == "check" else ["--deriv", "d"]))
    if command == "extract-witness" and der != "exists-i":
        assert (rc, out, err) == (1, "", "error: goal is not an existential atom: (atom ...)\n")
    else:
        assert (rc, err) == (0, "")
    if command == "extract-witness" and der == "exists-i":
        assert out == f"witness: {_DEEP_TERMS[op][1]}\n"


def test_normalize_traces_a_cut_over_a_deep_formula(tmp_path, capsys):
    # the trace stamps the sexpr text of a sequent whose formulas are 2000 deep
    a = _DEEP_ATOM
    f = "(and " * 2000 + a + f" {a})" * 2000
    ctx = f"(ctx (u {f}))"
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d (der (imply-i u) (seq (ctx) (imply {f} {f}))"
                 f" (der and-el (seq {ctx} {f}) (der and-i (seq {ctx} (and {f} {a}))"
                 f" (der (id u) (seq {ctx} {f})) (der atom-i (seq {ctx} {a}))))))")
    rc, out, err = run_cli(capsys, "normalize", str(p), "--deriv", "d", "--trace")
    assert (rc, err) == (0, "")
    stamp, nf = out.split("\n", 1)
    assert re.fullmatch(r"proper/and at 0 -> [0-9a-f]{12}", stamp)
    assert nf.startswith("(der\n  (imply-i u)\n") and "(id u)" in nf and "and-" not in nf


def test_check_loads_neither_hashlib_nor_logging(corpus_path):
    # hashlib loads OpenSSL for the normalizer's trace stamps alone, and
    # logging serves one learning warning: each costs every CLI process memory
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from realizer import cli; rc = cli.main(['check', sys.argv[1]]);"
            " print(rc, sorted({'hashlib', 'logging'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, corpus_path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def _loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """The exit status of a fresh CLI process on argv, and the program's modules it loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from realizer import cli; rc = cli.main(sys.argv[1:]);"
            " print(rc, *sorted(m for m in sys.modules if m.startswith('realizer.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    rc, *modules = done.stdout.splitlines()[-1].split()
    return int(rc), {m.removeprefix("realizer.") for m in modules}


def test_a_command_loads_only_its_own_modules(corpus_path):
    rc, loaded = _loaded_by(["check", corpus_path])
    assert rc == 0 and not loaded & {"normalizer", "extraction", "monads", "learning", "reals"}
    for demo in (["convex-angle", "--points", "0,0;1,0;0,1"],
                 ["least-element", "--values", "1,2", "--precision", "3"]):
        rc, loaded = _loaded_by(["demo", *demo])
        assert rc == 0 and not loaded & {"deduction", "sexpr", "normalizer", "extraction", "monads"}


def test_monad_choices_are_the_builtin_monads(corpus_path, capsys):
    from realizer import monads

    assert list(cli._MONADS) == sorted(monads.BUILTIN_MONADS)
    rc, out, err = run_cli(capsys, "extract", corpus_path, "--deriv", "em-refuted", "--monad", "xx")
    assert rc == 1 and "invalid choice: 'xx' (choose from 'exc', 'id', 'ir')" in err


def test_extract_witness_of_a_big_numeral_atom_is_a_user_error(tmp_path, capsys):
    p = tmp_path / "atom.proof"
    p.write_text("(defder d (der atom-i (seq (ctx) (atom = 2000 2000))))")
    rc, out, err = run_cli(capsys, "extract-witness", str(p), "--deriv", "d")
    assert (rc, out) == (1, "")
    assert err == "error: goal is not an existential atom: (atom = 2000 2000)\n"


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_normalize_of_big_numerals(tmp_path, capsys, trace):
    a = "(atom = 2000 2000)"
    p = tmp_path / "big.proof"
    p.write_text(f"(defder d (der and-el (seq (ctx) {a})"
                 f" (der and-i (seq (ctx) (and {a} (atom = 1 1)))"
                 f" (der atom-i (seq (ctx) {a})) (der atom-i (seq (ctx) (atom = 1 1))))))")
    rc, out, err = run_cli(capsys, "normalize", str(p), "--deriv", "d", *trace)
    assert (rc, err) == (0, "")
    *stamps, nf = out.splitlines()
    assert nf == f"(der atom-i (seq (ctx) {a}))"
    assert len(stamps) == len(trace) and all(s.startswith("proper/and at root -> ") for s in stamps)


@pytest.mark.parametrize("n", [300, 3000])
def test_check_compares_deep_numerals(tmp_path, capsys, n):
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d (der (exists-i {n}) (seq (ctx) (exists x (atom = x {n})))"
                 f" (der atom-i (seq (ctx) (atom = {n} {n})))))")
    rc, out, _ = run_cli(capsys, "check", str(p))
    assert rc == 0 and out.splitlines()[-1] == "ok: 1 definitions"


_ATOM_LEAF = ("(atom = 1 1)", "(der atom-i (seq (ctx) (atom = 1 1)))")
_EXISTS_LEAF = ("(exists x (atom = x 1))",
                "(der (exists-i 1) (seq (ctx) (exists x (atom = x 1)))"
                " (der atom-i (seq (ctx) (atom = 1 1))))")


def _and_chain(tmp_path, depth, leaf=_ATOM_LEAF) -> str:
    """A proof file whose derivation d is depth levels of and-el over and-i
    (one proper cut per two levels) around leaf, a (goal, derivation) pair."""
    a, d = leaf
    b = "(atom = 2 2)"
    for _ in range(depth // 2):
        d = (f"(der and-el (seq (ctx) {a}) (der and-i (seq (ctx) (and {a} {b}))"
             f" {d} (der atom-i (seq (ctx) {b}))))")
    p = tmp_path / "deep.proof"
    p.write_text(f"(defder d {d})")
    return str(p)


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_check_accepts_deep_derivations(tmp_path, capsys, depth):
    rc, out, err = run_cli(capsys, "check", _and_chain(tmp_path, depth))
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["der d proves (atom = 1 1)", "ok: 1 definitions"]


@pytest.mark.parametrize("depth", [1200, 10**4])
def test_normalize_accepts_deep_derivations(tmp_path, capsys, depth):
    # each proper cut returns a subtree the normalizer has already checked
    rc, out, err = run_cli(capsys, "normalize", _and_chain(tmp_path, depth), "--deriv", "d")
    assert (rc, err) == (0, "")
    assert out == _ATOM_LEAF[1] + "\n"


def test_normalize_grafts_into_a_deep_body(tmp_path, capsys):
    # imply-e over imply-i u whose body, 10^4 levels deep, uses u at its top
    a, b, ctx = "(atom = 1 1)", "(atom = 2 2)", "(ctx (u (atom = 1 1)))"
    d = f"(der (id u) (seq {ctx} {a}))"
    for _ in range(5000):
        d = (f"(der and-el (seq {ctx} {a}) (der and-i (seq {ctx} (and {a} {b}))"
             f" {d} (der atom-i (seq {ctx} {b}))))")
    p = tmp_path / "graft.proof"
    p.write_text(f"(defder d (der imply-e (seq (ctx) {a})"
                 f" (der (imply-i u) (seq (ctx) (imply {a} {a})) {d})"
                 f" (der atom-i (seq (ctx) {a}))))")
    rc, out, err = run_cli(capsys, "normalize", str(p), "--deriv", "d")
    assert (rc, out, err) == (0, _ATOM_LEAF[1] + "\n", "")


def test_extract_of_a_deep_derivation(tmp_path, capsys):
    # 300 and-el/and-i pairs: decoration used to recurse once per level
    rc, out, err = run_cli(capsys, "extract", _and_chain(tmp_path, 600), "--deriv", "d")
    assert (rc, err) == (0, "")
    assert out.startswith("type: (arrow State (sum Unit Ex))\n(lam\n  State\n")


def test_extract_witness_of_a_deep_derivation(tmp_path, capsys):
    path = _and_chain(tmp_path, 1200, _EXISTS_LEAF)
    rc, out, err = run_cli(capsys, "extract-witness", path, "--deriv", "d")
    assert (rc, out, err) == (0, "witness: 1\n", "")


@pytest.mark.parametrize("text", [
    "(defder d (der (exists-i (+ {n} {n})) (seq (ctx) (exists x (atom = x (+ {n} {n}))))"
    " (der atom-i (seq (ctx) (atom = (+ {n} {n}) (+ {n} {n}))))))",
    "(defder d (der atom-i (seq (ctx) (atom < {n} (+ {n} {n})))))",
], ids=["exists-i", "atom-i"])
def test_check_reads_numerals_of_thousands_of_digits(tmp_path, capsys, text):
    # a numeral is one leaf evaluated on ints, so its digits cost no nodes
    n = "7" * 3000
    p = tmp_path / "big.proof"
    p.write_text(text.format(n=n))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "check", str(p))
    assert time.perf_counter() - start < 1.0
    assert (rc, err) == (0, "") and out.startswith("der d proves (") and f" {n}" in out
    assert out.endswith("ok: 1 definitions\n")


@pytest.mark.parametrize("argv", [
    ("check",), ("extract", "--deriv", "d"), ("extract-witness", "--deriv", "d"),
    ("normalize", "--deriv", "d", "--trace"), ("run", "--term", "product"),
    ("run", "--term", "successor", "--learn"),
])
def test_values_past_the_printed_digits_are_refused(tmp_path, capsys, argv):
    # a value is printed in decimal, so one with more digits than the
    # interpreter prints is a user error wherever it is computed
    limit = sys.get_int_max_str_digits()
    n, nines = "7" * 3000, "9" * limit
    p = tmp_path / "big.proof"
    p.write_text(f"(defterm product (lam State (app (inl Nat Ex) (app (prim *) (num {n}) (num {n})))))"
                 f" (defterm successor (lam State (app (inl Nat Ex) (app succ (num {nines})))))"
                 if argv[0] == "run" else
                 f"(defder d (der (exists-i (* {n} {n})) (seq (ctx) (exists x (atom = x (* {n} {n}))))"
                 f" (der atom-i (seq (ctx) (atom = (* {n} {n}) (* {n} {n}))))))")
    rc, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert (rc, out, err) == (1, "", f"error: a value of more than {limit} digits\n")


@pytest.mark.parametrize("text, col", [
    ("(defterm t (num {n}))", 17),
    ("(defder d (der (exists-i {n}) (seq (ctx) (exists x (atom = x 0)))"
     " (der atom-i (seq (ctx) (atom = 0 0)))))", 26),
])
def test_check_refuses_numerals_too_long_to_convert(tmp_path, capsys, text, col):
    p = tmp_path / "long.proof"
    p.write_text(text.format(n="1" * 5000))
    rc, out, err = run_cli(capsys, "check", str(p))
    assert (rc, out) == (1, "")
    assert err == f"error: 1:{col}: numeral of 5000 characters is too long\n"


# ---------------------------------------------------------------------------
# normalize and extract-witness


def test_normalize_emits_a_parseable_normal_form(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "normalize", corpus_path, "--deriv", "cut-imply")
    assert rc == 0
    pf = corpus.corpus_file()
    got = sexpr.read_derivation(out, pf.fns, pf.rels)
    assert got.rule == sexpr.read_rule("(exists-i 2)", pf.fns, pf.rels)


def test_normalize_trace_is_deterministic(corpus_path, capsys):
    args = ("normalize", corpus_path, "--deriv", "em-under-elim", "--trace")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2
    assert out1.splitlines()[0].startswith("em-permute/and-left at root -> ")
    rc, out, _ = run_cli(capsys, *args, "--format", "sexpr")
    trace = [l for l in out.splitlines() if l.startswith("; ")]
    assert trace and trace[0] == "; " + out1.splitlines()[0]


def test_normalize_fuel_exhaustion(corpus_path, capsys, monkeypatch):
    monkeypatch.setenv("REALIZER_FUEL", "1")
    rc, _, err = run_cli(capsys, "normalize", corpus_path, "--deriv", "em-under-elim")
    assert rc == 1 and "no normal form after 1" in err
    rc, _, _ = run_cli(capsys, "normalize", corpus_path, "--deriv", "em-under-elim",
                       "--fuel", "100000")
    assert rc == 0


def test_extract_witness_matches_the_known_table(corpus_path, capsys):
    for name, expected in gen.CORPUS_WITNESSES.items():
        rc, out, _ = run_cli(capsys, "extract-witness", corpus_path, "--deriv", name)
        assert rc == 0 and out.strip() == f"witness: {expected}", name
        rc, out, _ = run_cli(capsys, "extract-witness", corpus_path,
                             "--deriv", name, "--format", "sexpr")
        assert out.strip() == str(expected)


# ---------------------------------------------------------------------------
# demos


def test_demo_least_element(capsys):
    rc, out, _ = run_cli(capsys, "demo", "least-element",
                         "--values", "5,7,3,1,6,4", "--precision", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "index: 3" in lines
    assert lines[-2].endswith("outcome=regular") or "index" in lines[-2]
    assert any(l.endswith("outcome=exceptional") for l in lines)


def test_demo_least_element_sexpr(capsys):
    rc, out, _ = run_cli(capsys, "demo", "least-element",
                         "--values", "1,2", "--precision", "2",
                         "--format", "sexpr")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == ["; iter=1 candidate=0 key=- witness=- outcome=regular"]
    assert lines[-1] == "(result (index 0) (state ))"


def test_demo_least_element_accepts_fractions(capsys):
    rc, out, _ = run_cli(capsys, "demo", "least-element",
                         "--values", "7/2,1/3,5", "--precision", "4")
    assert rc == 0 and "index: 1" in out


def test_demo_convex_angle(capsys):
    rc, out, _ = run_cli(capsys, "demo", "convex-angle",
                         "--points", "0,0;1,0;1/2,2")
    assert rc == 0
    assert "angle: 0 1 2" in out
    rc, out, _ = run_cli(capsys, "demo", "convex-angle",
                         "--points", "0,0;1,0;1/2,2", "--format", "sexpr")
    assert out.strip().splitlines()[-1].startswith("(result (angle 0 1 2)")


@pytest.mark.parametrize(
    "demo, flag, value, expected",
    [
        (("demo", "least-element", "--precision", "4"), "--values", "-3,5", "index: 0"),
        (("demo", "convex-angle"), "--points", "-1,0;1,0;0,2", "angle: 0 1 2"),
    ],
)
def test_demo_lists_may_start_with_a_minus_sign(capsys, demo, flag, value, expected):
    spaced = run_cli(capsys, *demo, flag, value)
    assert spaced == run_cli(capsys, *demo, f"{flag}={value}")
    rc, out, err = spaced
    assert rc == 0 and err == "" and expected in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("demo", "least-element", "--values", "5,x", "--precision", "2"),
        ("demo", "least-element", "--values", "1/0", "--precision", "2"),
        ("demo", "convex-angle", "--points", "0,0;1"),
        ("demo", "convex-angle", "--points", "0,0;1,1;2,2"),  # collinear
        ("demo", "convex-angle", "--points", "0,0;1,1"),
    ],
)
def test_demo_input_errors(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "demo",
    [("least-element", "--values", "1,2"), ("convex-angle", "--points", "0,0;1,0;0,1")],
)
def test_demo_negative_precision_is_a_usage_error(capsys, demo):
    rc, out, err = run_cli(capsys, "demo", *demo, "--precision", "-1")
    assert (rc, out) == (1, "")
    assert err == "error: --precision must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("points, chunk", [("0,0;1,0;0,1,5", "0,1,5"), ("0,0;1,0;5", "5")])
def test_demo_points_need_two_coordinates(capsys, points, chunk):
    rc, out, err = run_cli(capsys, "demo", "convex-angle", "--points", points)
    assert (rc, out) == (1, "")
    assert err == f"error: bad --points: each point needs two coordinates, got '{chunk}'\n"


# ---------------------------------------------------------------------------
# dispatcher


def test_unexpected_exceptions_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load", lambda path: 1 / 0)
    rc, _, err = run_cli(capsys, "check", "whatever.proof")
    assert rc == 2
    assert err.startswith("internal error: ZeroDivisionError")


def test_value_errors_inside_the_library_exit_two(corpus_path, capsys, monkeypatch):
    def broken(text):
        raise ValueError("bug")

    monkeypatch.setattr(sexpr, "parse_file", broken)
    rc, _, err = run_cli(capsys, "check", corpus_path)
    assert rc == 2
    assert err.startswith("internal error: ValueError: bug")


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, _, err = run_cli(capsys)
    assert rc == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# the garbage collector


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and put back after it."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


@pytest.mark.parametrize("raised, status", [(None, 0), (cli.UsageError("bad"), 1),
                                            (ValueError("bug"), 2)])
def test_a_command_runs_with_the_collector_paused(collector, capsys, monkeypatch,
                                                  raised, status):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised
        return 0

    monkeypatch.setitem(cli._COMMANDS, "check", command)
    rc, _, _ = run_cli(capsys, "check", "whatever.proof")
    assert (rc, seen) == (status, [False])
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv, status", [
    (["check", "CORPUS"], 0),
    (["check", "/nonexistent.proof"], 1),
    (["frobnicate"], 1),
    (["--help"], SystemExit),
    (["extract", "--help"], SystemExit),
])
def test_every_way_out_of_a_command_restores_the_collector(collector, corpus_path, capsys,
                                                           argv, status):
    argv = [corpus_path if a == "CORPUS" else a for a in argv]
    if status is SystemExit:
        with pytest.raises(SystemExit):
            cli.main(argv)
    else:
        assert cli.main(argv) == status
    capsys.readouterr()
    assert gc.isenabled() is collector


@pytest.fixture
def realizer_path(corpus_path, capsys, tmp_path):
    """The corpus with the em-refuted realizer added as the term r."""
    rc, out, _ = run_cli(capsys, "extract", corpus_path, "--deriv", "em-refuted",
                         "--format", "sexpr")
    assert rc == 0
    p = tmp_path / "realizer.proof"
    p.write_text(f"{corpus.corpus_text()}\n(defterm r {out})")
    return str(p)


_EVERY_COMMAND = [
    ["check", "CORPUS"],
    *(["extract", "CORPUS", "--deriv", "direct-zero", "--monad", m, "--format", f]
      for m in ("ir", "exc", "id") for f in ("human", "sexpr")),
    ["extract", "CORPUS", "--deriv", "em-refuted", "--format", "sexpr"],
    ["run", "REALIZER", "--term", "r"],
    ["run", "REALIZER", "--term", "r", "--learn", "--trace"],
    ["run", "CORPUS", "--term", "const-seven", "--learn", "--trace", "--format", "sexpr"],
    ["normalize", "CORPUS", "--deriv", "em-refuted", "--trace"],
    ["normalize", "CORPUS", "--deriv", "cut-exists", "--trace", "--format", "sexpr"],
    ["extract-witness", "CORPUS", "--deriv", "em-refuted"],
    ["demo", "least-element", "--values", "5,7/2,3,1/3", "--precision", "4"],
    ["demo", "convex-angle", "--points", "0,0;1,0;1/2,2;1/3,1/3"],
]
_USER_ERRORS = [
    ["extract", "CORPUS", "--deriv", "nope"],
    ["check", "/nonexistent.proof"],
    ["demo", "convex-angle", "--points", "0,0;1,1;2,2"],  # collinear
]


@pytest.mark.parametrize("argv, status", [*((a, 0) for a in _EVERY_COMMAND),
                                          *((a, 1) for a in _USER_ERRORS)],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_command_leaves_no_reference_cycles(corpus_path, realizer_path, capsys,
                                              argv, status):
    # the premise of pausing the collector: a paused command holds no garbage.
    # --help is left out: argparse's help formatter leaves 25 objects in cycles
    argv = [{"CORPUS": corpus_path, "REALIZER": realizer_path}.get(a, a) for a in argv]
    cli.main(argv)  # loads the modules the command imports, which leaves cycles
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rc = cli.main(argv)
        left = gc.collect()
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert (rc, left) == (status, 0)
