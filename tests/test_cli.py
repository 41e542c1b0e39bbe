"""Command-line behaviour: exit codes, output formats, fuel, demos."""

import re

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


def test_check_missing_file_is_a_user_error(capsys):
    rc, out, err = run_cli(capsys, "check", "/nonexistent.proof")
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


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
    t = sexpr.read_term(sexpr.read_nodes("\n".join(term_lines))[0],
                        corpus.corpus_file().fns, corpus.corpus_file().rels)
    assert sexpr.print_type(tm.typecheck(t)) == ty_line.removeprefix("type: ")


def test_extract_sexpr_is_just_the_term(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "extract", corpus_path,
                         "--deriv", "direct-zero", "--format", "sexpr")
    assert rc == 0
    nodes = sexpr.read_nodes(out)
    assert len(nodes) == 1


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


@pytest.mark.parametrize("entry", ["garbage", "<(5=2", "<(a)=2", "<(1)=5"])
def test_run_rejects_bad_state_entries(corpus_path, capsys, entry):
    rc, _, err = run_cli(capsys, "run", corpus_path, "--term", "raise-low",
                         "--state", entry)
    assert rc == 1 and err.startswith("error: ")


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


def test_run_fuel_env_and_flag(corpus_path, capsys, monkeypatch):
    monkeypatch.setenv("REALIZER_FUEL", "2")
    rc, _, err = run_cli(capsys, "run", corpus_path, "--term", "const-seven")
    assert rc == 1 and "no normal form within 2" in err
    rc, out, _ = run_cli(capsys, "run", corpus_path, "--term", "const-seven",
                         "--fuel", "100000")
    assert rc == 0 and "regular" in out


# ---------------------------------------------------------------------------
# normalize and extract-witness


def test_normalize_emits_a_parseable_normal_form(corpus_path, capsys):
    rc, out, _ = run_cli(capsys, "normalize", corpus_path, "--deriv", "cut-imply")
    assert rc == 0
    pf = corpus.corpus_file()
    got = sexpr.read_derivation(sexpr.read_nodes(out)[0], pf.fns, pf.rels)
    assert got.rule == sexpr.read_rule(sexpr.read_nodes("(exists-i 2)")[0],
                                       pf.fns, pf.rels)


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
    ],
)
def test_demo_input_errors(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# dispatcher


def test_unexpected_exceptions_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load", lambda path: 1 / 0)
    rc, _, err = run_cli(capsys, "check", "whatever.proof")
    assert rc == 2
    assert err.startswith("internal error: ZeroDivisionError")


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, _, err = run_cli(capsys)
    assert rc == 1 and err.startswith("error: ")
