"""The three workloads: their inputs, their requests and the answer checks.

`block(workload, seed, index, workdir)` generates one block of inputs from
the seed, checks every derivation, writes the proof files, and returns the
block's requests: the workload's fixed request mix in a seeded order.  A
request drives the CLI through `client(argv) -> (exit status, stdout,
stderr)`; its answer is then checked with the independent oracle, apart, so
that the check can be left out of the measured time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle
from realizer import corpus
from realizer import deduction as dd
from realizer import sexpr

WORKLOADS = ("learn-route", "normalize-route", "demos")

# corpus derivations the extraction route refuses by design: em-under-elim
# guesses a universal whose variable is not the last argument, and ind-two
# uses base/step induction, which only decorates after normalization
NOT_EXTRACTABLE = ("em-under-elim", "ind-two")

Client = Callable[[list[str]], tuple[int, str, str]]


@dataclass
class Outcome:
    ok: bool
    status: int = 0  # exit status of the failing CLI call, else 0
    reason: str = ""


@dataclass
class Request:
    rid: str  # input id
    size_class: str  # scaling-curve bucket, e.g. "em-depth=3"
    call: Callable[[Client], tuple[Outcome | None, str]]  # CLI calls: (failure, last stdout)
    check: Callable[[str], Outcome]  # oracle verdict on that stdout


def _called(client: Client, argv: list[str]) -> tuple[Outcome | None, str]:
    status, out, err = client(argv)
    if status != 0:
        return Outcome(False, status, (err.strip().splitlines() or ["no message"])[-1]), out
    return None, out


def _checked(check, *args) -> Outcome:
    try:
        reason = check(*args)
    except (oracle.Unreadable, ValueError, TypeError, IndexError, KeyError) as e:
        return Outcome(False, 0, f"unreadable output: {e}")
    return Outcome(reason is None, 0, reason or "")


# ---------------------------------------------------------------------------
# proof inputs


@dataclass
class ProofInput:
    rid: str
    size_class: str
    path: Path  # proof file holding the derivation
    deriv: str
    header: str  # deffn/defrel forms a realizer printed from it may refer to
    goal: tuple = ()  # (variable, matrix) read back by the oracle


def _write_single(workdir: Path, rid: str, size_class: str, d) -> ProofInput:
    dd.check_derivation(d)
    pf = sexpr.ProofFile()
    pf.derivs[rid] = d
    pf.order = (("defder", rid),)
    path = workdir / f"{rid}.sexp"
    path.write_text(sexpr.print_file(pf))
    return ProofInput(rid, size_class, path, rid, "")


def _corpus_inputs(workdir: Path, names=None) -> list[ProofInput]:
    pf = corpus.corpus_file()
    for d in pf.derivs.values():
        dd.check_derivation(d, pf.rels, pf.fns)
    path = workdir / "corpus.sexp"
    path.write_text(sexpr.print_file(pf))
    header = sexpr.print_file(sexpr.ProofFile(
        fns=pf.fns, rels=pf.rels,
        order=tuple((k, n) for k, n in pf.order if k in ("deffn", "defrel"))))
    names = list(pf.derivs) if names is None else names
    return [ProofInput(f"corpus/{n}", "corpus", path, n, header) for n in names]


def _with_goals(inputs: list[ProofInput]) -> list[ProofInput]:
    texts: dict[Path, str] = {}
    for p in inputs:
        text = texts.setdefault(p.path, p.path.read_text())
        p.goal = oracle.goal_of(text, p.deriv)
    return inputs


def _learn_request(p: ProofInput, workdir: Path) -> Request:
    realizer_path = workdir / f"realizer-{p.rid.replace('/', '-')}.sexp"

    def call(client: Client) -> tuple[Outcome | None, str]:
        failed, term = _called(client, ["extract", str(p.path), "--deriv", p.deriv,
                                        "--format", "sexpr"])
        if failed:
            return failed, term
        realizer_path.write_text(f"{p.header}(defterm r {term})\n")
        return _called(client, ["run", str(realizer_path), "--term", "r", "--learn",
                                "--format", "sexpr"])

    return Request(p.rid, p.size_class, call,
                   lambda out: _checked(oracle.check_learned, out, p.goal))


def _witness_request(p: ProofInput) -> Request:
    argv = ["extract-witness", str(p.path), "--deriv", p.deriv, "--format", "sexpr"]
    return Request(p.rid, p.size_class, lambda client: _called(client, argv),
                   lambda out: _checked(oracle.check_extracted_witness, out, p.goal))


def _em_chains(rng, workdir, depths, copies=1, wrapped=False) -> list[ProofInput]:
    tag = "em-wrapped" if wrapped else "em"
    return [_write_single(workdir, f"{tag}-{d}-{i}", f"{tag}-depth={d}",
                          gen.em_chain(rng, d, wrapped)) for d in depths for i in range(copies)]


def _cut_chains(rng, workdir, counts, copies) -> list[ProofInput]:
    plan = [c for c in counts for _ in range(copies)]
    out = []
    for i, (c, kinds) in enumerate(zip(plan, gen.cut_kinds(rng, plan))):
        out.append(_write_single(workdir, f"cuts-{c}-{i % copies}", f"cuts={c}",
                                 gen.sigma01_cuts(rng, kinds)))
    return out


def _learn_route(rng: gen.Stratified, workdir: Path) -> list[Request]:
    extractable = [n for n in corpus.corpus_file().derivs if n not in NOT_EXTRACTABLE]
    # two chains per depth: the heaviest class then holds the tail percentile
    # whatever the number of blocks a run completes
    inputs = (_em_chains(rng, workdir, range(1, 6), copies=2)
              + _cut_chains(rng, workdir, range(1, 7), copies=2)
              + _corpus_inputs(workdir, extractable))
    return [_learn_request(p, workdir) for p in _with_goals(inputs)]


def _normalize_route(rng: gen.Stratified, workdir: Path) -> list[Request]:
    # three requests at n=8, the heaviest class: the tail percentile then
    # falls inside it whatever the number of blocks a run completes
    inds = [_write_single(workdir, f"ind-{n}", f"ind-n={n}", gen.ind_n(n)) for n in range(2, 9)]
    inputs = (inds + [inds[-1]] * 2
              + _cut_chains(rng, workdir, range(1, 9), copies=2)
              + [_write_single(workdir, f"square-{n}", f"square-N={n}", gen.square(n))
                 for n in range(4, 13)]
              + _em_chains(rng, workdir, range(1, 6))
              + _em_chains(rng, workdir, range(1, 6), wrapped=True)
              + _corpus_inputs(workdir))
    return [_witness_request(p) for p in _with_goals(inputs)]


# ---------------------------------------------------------------------------
# demo inputs


def _least_request(rid: str, values, precision: int) -> Request:
    argv = ["demo", "least-element", "--values=" + ",".join(map(gen.fmt_rational, values)),
            "--precision", str(precision), "--format", "sexpr"]
    return Request(rid, f"values={len(values)}", lambda client: _called(client, argv),
                   lambda out: _checked(oracle.check_least, out, values))


def _angle_request(rid: str, points, order: str) -> Request:
    argv = ["demo", "convex-angle",
            "--points=" + ";".join(f"{gen.fmt_rational(x)},{gen.fmt_rational(y)}"
                                   for x, y in points),
            "--format", "sexpr"]
    return Request(rid, f"points={len(points)}/{order}", lambda client: _called(client, argv),
                   lambda out: _checked(oracle.check_angle, out, points))


def _demos(rng: gen.Stratified, workdir: Path) -> list[Request]:
    requests = []
    for n in range(3, 13):
        # more sets at the largest sizes, where the tail percentile falls
        for copy in range(3 if n < 10 else 5):
            pts = gen.general_position_points(rng, n)
            requests.append(_angle_request(f"angle-{n}-{copy}-random", pts, "random"))
            requests.append(_angle_request(f"angle-{n}-{copy}-lowest", gen.lowest_first(pts),
                                           "lowest-first"))
    for n in range(2, 13):
        for copy in range(3):
            precision = 2 * n
            values = gen.close_rationals(rng, n, precision)
            requests.append(_least_request(f"least-{n}-{copy}", values, precision))
    return requests


_MIXES = {"learn-route": _learn_route, "normalize-route": _normalize_route, "demos": _demos}


def block(workload: str, seed: int, index: int, workdir: Path) -> list[Request]:
    """Generate, check and write one block of inputs, in seeded order.

    A block holds one request per slot of the workload's fixed mix.  Block i
    draws its content from (seed, i), so blocks differ from each other and
    the same seed always gives the same blocks.  A block's files replace the
    previous block's.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = gen.Stratified(f"{workload}/{seed}/{index}")
    requests = _MIXES[workload](rng, workdir)
    rng.shuffle(requests)
    return requests
