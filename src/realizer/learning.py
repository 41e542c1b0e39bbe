"""Knowledge states and learning by counterexample.

A state is a finite sound partial map from (relation id, argument tuple) to a
witness: entry ((P, args) -> m) records that P(args..., m) is false, refuting
the universal disjunct "forall y P(args..., y)" of an excluded-middle guess.
States grow along the extension order; an exception carries one freshly
discovered counterexample and acts on states as a partial extender.

run_realizer applies a realizer to the opaque state token and normalizes it,
interpreting query/eval constants against the ambient state:

  query P s args   ->  inr m     when the state knows a witness m
                       inl unit  otherwise
  eval  P args n   ->  inl unit  when P(args..., n) holds
                       inr e     otherwise, e carrying (P, args, n)

learn_loop is the one learning driver: it runs a pass under the current state,
folds each exception into the state, and retries until the outcome is regular.
Every productive exception extends the state strictly, so the iteration climbs
a finite chain.  learn drives it with run_realizer; the exact-real demos in
reals drive it with their own candidate passes.

Relations here only need decidable truth, so they are anything with an arity
and a holds(args) method; arith.Relation qualifies, and the geometry demos
plug in closures over interval data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Protocol

from . import arith, terms as tm
from .terms import Term


class LearningError(Exception):
    pass


class UnsoundEntry(LearningError):
    pass


class IterationLimit(LearningError):
    pass


class ConflictingExtension(LearningError):
    """An exception refuted a key that the state refutes with another witness.

    A user-written term can raise one; the CLI exits 1."""


class StalledLearning(LearningError):
    """An exception whose content the state already had, so learning stalls.

    A user-written term can raise one: ``run corpus.sexp --term raise-low --learn`` exits 1."""


class RelSpec(Protocol):
    name: str
    arity: int

    def holds(self, args: Iterable[int]) -> bool: ...


Rels = Mapping[str, RelSpec]

Key = tuple[str, tuple[int, ...]]


def _check_sound(rel: str, args: tuple[int, ...], witness: int, rels: Rels) -> None:
    if rel not in rels:
        raise LearningError(f"unknown relation {rel!r}")
    spec = rels[rel]
    if len(args) + 1 != spec.arity:
        raise UnsoundEntry(
            f"{rel} has arity {spec.arity}, key carries {len(args)} arguments"
        )
    if spec.holds(args + (witness,)):
        raise UnsoundEntry(f"{rel}{args + (witness,)} holds, so {witness} refutes nothing")


@dataclass(frozen=True)
class State:
    """Finite sound partial map; build with State.empty().extended(...)."""

    _witnesses: Mapping[Key, int] = field(default_factory=dict)

    @staticmethod
    def empty() -> "State":
        return State()

    @staticmethod
    def of(entries: Mapping[Key, int], rels: Rels) -> "State":
        for (rel, args), witness in entries.items():
            _check_sound(rel, tuple(args), witness, rels)
        return State({(rel, tuple(args)): w for (rel, args), w in entries.items()})

    @property
    def entries(self) -> tuple[tuple[Key, int], ...]:
        """The entries sorted by key, the order they print in."""
        return tuple(sorted(self._witnesses.items()))

    def mapping(self) -> dict[Key, int]:
        return dict(self._witnesses)

    def get(self, key: Key) -> Optional[int]:
        return self._witnesses.get(key)

    def leq(self, other: "State") -> bool:
        return all(other._witnesses.get(k) == w for k, w in self._witnesses.items())

    def with_entry(self, key: Key, witness: int) -> "State":
        return State({**self._witnesses, key: witness})

    def __len__(self) -> int:
        return len(self._witnesses)

    def __hash__(self) -> int:
        return hash(frozenset(self._witnesses.items()))


@dataclass(frozen=True)
class Exc:
    """One counterexample: P(args..., witness) is false."""

    rel: str
    args: tuple[int, ...]
    witness: int

    @property
    def key(self) -> Key:
        return (self.rel, self.args)


def make_exc(rel: str, args: Iterable[int], witness: int, rels: Rels) -> Exc:
    args = tuple(args)
    _check_sound(rel, args, witness, rels)
    return Exc(rel, args, witness)


@dataclass(frozen=True)
class Regular:
    value: Term  # a realizer's inner value; the demos' answers in reals


@dataclass(frozen=True)
class Exceptional:
    exc: Exc


Outcome = Regular | Exceptional


def query(s: State, rel: str, args: Iterable[int], rels: Optional[Rels] = None) -> Optional[int]:
    """Witness stored for (rel, args), if any.

    With rels given, a key of mismatched arity is reported absent with a
    log diagnostic instead of ever matching.
    """
    args = tuple(args)
    if rels is not None and rel in rels and len(args) + 1 != rels[rel].arity:
        import logging  # here alone: loading it costs every CLI process memory

        logging.getLogger(__name__).warning(
            "query %s%s: arity mismatch (relation takes %d arguments)", rel, args, rels[rel].arity)
        return None
    return s.get((rel, args))


def eval_pred(rel: str, args: Iterable[int], n: int, rels: Rels) -> Outcome:
    """Regular(unit) iff rel(args..., n) holds, else the counterexample."""
    args = tuple(args)
    if rel not in rels:
        raise LearningError(f"unknown relation {rel!r}")
    spec = rels[rel]
    if len(args) + 1 != spec.arity:
        raise arith.ArityMismatch(
            f"{rel} takes {spec.arity} arguments, got {len(args) + 1}"
        )
    if spec.holds(args + (n,)):
        return Regular(tm.unit_const)
    return Exceptional(Exc(rel, args, n))


def extend(s: State, e: Exc) -> Optional[State]:
    """The extension e(s): add the counterexample when the state permits.

    Absent key: defined, proper extension.  Same witness: defined, s itself.
    Conflicting witness: undefined (None).
    """
    have = s.get(e.key)
    if have is None:
        return s.with_entry(e.key, e.witness)
    if have == e.witness:
        return s
    return None


# ---------------------------------------------------------------------------
# running realizers


class StateOracle:
    """Interprets query/eval constants against an ambient state."""

    def __init__(self, state: State, rels: Rels):
        self.state = state
        self.rels = rels

    def __call__(self, head: tm.Const, args: list[Term]) -> Optional[Term]:
        rel, arity = head.tag
        if head.kind == tm.K_QUERY:
            if len(args) < arity + 1:
                return None
            if not isinstance(args[0], tm.Const) or args[0].kind != tm.K_STATEREP:
                return None
            vals = [tm.as_numeral(a) for a in args[1 : arity + 1]]
            if None in vals:
                return None
            w = query(self.state, rel, vals, self.rels)
            out = (
                tm.App(tm.inr_c(tm.UNIT, tm.NAT), tm.Num(w))
                if w is not None
                else tm.App(tm.inl_c(tm.UNIT, tm.NAT), tm.unit_const)
            )
            return tm.app(out, *args[arity + 1 :])
        if head.kind == tm.K_EVAL:
            if len(args) < arity + 1:
                return None
            vals = [tm.as_numeral(a) for a in args[: arity + 1]]
            if None in vals:
                return None
            outcome = eval_pred(rel, vals[:-1], vals[-1], self.rels)
            if isinstance(outcome, Regular):
                out = tm.App(tm.inl_c(tm.UNIT, tm.EX), tm.unit_const)
            else:
                e = outcome.exc
                out = tm.App(
                    tm.inr_c(tm.UNIT, tm.EX), tm.exc_const(e.rel, e.args, e.witness)
                )
            return tm.app(out, *args[arity + 1 :])
        return None


def run_realizer(
    r: Term,
    s: State,
    rels: Rels,
    fuel: int = tm.DEFAULT_FUEL,
) -> Outcome:
    """Apply r to the state token and normalize under the ambient state.

    The normal form must be inl v (Regular carrying the inner value) or
    inr e (Exceptional); anything else means r was not a realizer.
    """
    oracle = StateOracle(s, rels)
    nf = tm.normalize(tm.App(r, tm.staterep), fuel, oracle)
    head, args = tm.spine(nf)
    if isinstance(head, tm.Const) and len(args) == 1:
        if head.kind == tm.K_INL:
            return Regular(args[0])
        if head.kind == tm.K_INR:
            e = args[0]
            if isinstance(e, tm.Const) and e.kind == tm.K_EXC:
                rel, eargs, w = e.tag
                return Exceptional(Exc(rel, eargs, w))
    # name the head only: formatting a whole normal form can take megabytes
    what = head.kind if isinstance(head, tm.Const) else type(head).__name__
    raise tm.IllTyped(
        f"realizer produced a non-outcome normal form: {what} applied to {len(args)} arguments"
    )


def _key_text(key: Key) -> str:
    """A state key as traces and the human output show it: rel(1,2)."""
    rel, args = key
    return f"{rel}({','.join(map(str, args))})"


@dataclass
class LearnTrace:
    lines: list[str] = field(default_factory=list)

    def record(self, iteration: int, key: Optional[Key], witness: Optional[int], tag: str,
               candidate: Optional[int] = None):
        c = f" candidate={candidate}" if candidate is not None else ""
        k = _key_text(key) if key else "-"
        w = str(witness) if witness is not None else "-"
        self.lines.append(f"iter={iteration}{c} key={k} witness={w} outcome={tag}")


def learn_loop(
    run_once: Callable[[State], tuple[Optional[int], Outcome]], s0: State, budget: Optional[int]
) -> tuple[State, object, LearnTrace]:
    """Run passes from s0 until one is regular; return the state, value and trace.

    run_once(s) runs one pass under s and returns its candidate (None when it
    has none to report) and its outcome.  An exception must extend the state
    strictly, else ConflictingExtension or StalledLearning.  A budget of None
    never stops the loop; otherwise pass budget + 1 raises IterationLimit.
    """
    s = s0
    trace = LearnTrace()
    for iteration in itertools.count(1):
        if budget is not None and iteration > budget:
            raise IterationLimit(f"no regular run within {budget} iterations")
        candidate, out = run_once(s)
        if isinstance(out, Regular):
            trace.record(iteration, None, None, "regular", candidate)
            return s, out.value, trace
        e = out.exc
        s2 = extend(s, e)
        if s2 is None:
            raise ConflictingExtension(
                f"{e.key} already refuted with a different witness"
            )
        if s2 == s:
            raise StalledLearning(f"exception repeated known entry {e.key}")
        trace.record(iteration, e.key, e.witness, "exceptional", candidate)
        s = s2


def learn(
    r: Term,
    s0: State,
    rels: Rels,
    fuel: int = tm.DEFAULT_FUEL,
    max_iters: Optional[int] = None,
) -> tuple[State, Term, LearnTrace]:
    """Zero-in on a state under which r runs regular.

    Each exceptional run extends the state with the carried counterexample
    and retries from scratch.  There is no iteration budget unless
    max_iters is given.
    """
    return learn_loop(lambda s: (None, run_realizer(r, s, rels, fuel)), s0, max_iters)


# ---------------------------------------------------------------------------
# spot checking the realizability relation


@dataclass(frozen=True)
class Verdict:
    kind: str  # "holds" | "fails" | "sampled-ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind in ("holds", "sampled-ok")


def spot_check_realizes(
    v: Term,
    a: arith.Formula,
    s: State,
    rels: Rels,
    budget: int = 8,
    fns: Optional[Mapping[str, arith.PrimFn]] = None,
) -> Verdict:
    """Check that the inner value v realizes a under state s.

    Finite positions are decided exactly; unbounded universal and
    implication positions are sampled up to budget, downgrading a clean
    answer to sampled-ok.  An implication is applied to the closed values
    of its antecedent's realizer type that realize the antecedent under s.
    fails verdicts carry a path description.
    """
    # here alone, so that running a realizer loads neither extraction nor the reader
    from .extraction import realizer_type
    from .sexpr import print_formula

    fns = arith.FUNCTIONS if fns is None else fns
    sampled = False
    # Jobs, on an explicit stack: (t, f, where) checks t against f; (None, t,
    # f, where) runs t in the outer relation at f, regular with a realizing
    # value or a properly extending exception; an iterator yields the runs of
    # a universal's instances, or an implication's samples each with the
    # check of its antecedent.  Such a check sits above its run, from the
    # mark up, and when it fails the sample tests nothing and is dropped.
    work: list = [(v, a, "top")]
    mark = -1
    while work:
        job = work.pop()
        if type(job) is not tuple:
            jobs = next(job, None)
            if jobs is None:
                sampled = True
            else:
                work.append(job)
                if len(jobs) == 2:
                    mark = len(work)
                work += jobs
            continue
        t, f, where = job[-3:]
        bad = None
        if job[0] is None:
            if len(work) == mark:
                mark = -1  # the sample realizes the antecedent
            out = run_realizer(t, s, rels)
            if isinstance(out, Exceptional):
                s2 = extend(s, out.exc)
                if s2 is None or s2 == s:
                    return Verdict("fails", f"{where}: exception does not extend the state")
                continue
            t = out.value
        match f:
            case arith.Atom():
                if not arith.atomic_truth(f, rels, fns):
                    bad = f"{where}: atom {print_formula(f, brief=True)} is false"
                elif t != tm.unit_const:
                    bad = f"{where}: atomic realizer is not unit"
            case arith.And(left, right):
                h, args = tm.spine(t)
                if isinstance(h, tm.Const) and h.kind == tm.K_PAIR and len(args) == 2:
                    work += ((args[1], right, where + ".r"), (args[0], left, where + ".l"))
                else:
                    bad = f"{where}: conjunction realizer is not a pair"
            case arith.Or(left, right):
                h, args = tm.spine(t)
                if isinstance(h, tm.Const) and h.kind == tm.K_INL and len(args) == 1:
                    work.append((args[0], left, where + ".inl"))
                elif isinstance(h, tm.Const) and h.kind == tm.K_INR and len(args) == 1:
                    work.append((args[0], right, where + ".inr"))
                else:
                    bad = f"{where}: disjunction realizer is not an injection"
            case arith.Imply(left, right):
                work.append(iter([((None, tm.App(t, x), right, where + ".app"), (x, left, where))
                                  for x in _inner_samples(realizer_type(left), budget)]))
            case arith.Forall(var, body):
                work.append(iter([((None, tm.App(t, tm.Num(n)),
                                    arith.subst_formula(body, var, arith.tnum(n)),
                                    f"{where}.inst({n})"),) for n in range(budget)]))
            case arith.Exists(var, body):
                h, args = tm.spine(t)
                if not (isinstance(h, tm.Const) and h.kind == tm.K_PAIR and len(args) == 2):
                    bad = f"{where}: existential realizer is not a pair"
                elif (n := tm.as_numeral(args[0])) is None:
                    bad = f"{where}: existential witness is not a numeral"
                else:
                    work.append((args[1], arith.subst_formula(body, var, arith.tnum(n)),
                                 f"{where}.wit({n})"))
            case _:
                bad = f"{where}: unrecognized formula {f!r}"
        if bad is not None:
            if mark < 0:
                return Verdict("fails", bad)
            del work[mark:]  # the sample does not realize the antecedent
            mark = -1
    return Verdict("sampled-ok" if sampled else "holds")


def _inner_samples(ty: tm.Ty, budget: int) -> list[Term]:
    """Closed values of type ty, at most budget of them at each level.

    unit, the numerals 0 to 3, and pairs and injections of those; a type
    with an arrow in it has none, so an implication with a higher-order
    antecedent samples nothing (vacuous pass).  Built on an explicit stack.
    """
    out: list[list[Term]] = []
    work: list = [ty]  # types to sample, and (ty,) to combine its parts' samples
    while work:
        x = work.pop()
        match x:
            case tm.TBase("Unit"):
                out.append([tm.unit_const])
            case tm.TBase("Nat"):
                out.append([tm.Num(n) for n in range(min(budget, 4))])
            case tm.TProd(a, b) | tm.TSum(a, b):
                work += ((x,), b, a)
            case (tm.TProd(a, b),):
                xs, ys = out[-2:]
                out[-2:] = [[tm.app(tm.pair_c(a, b), x, y) for x in xs for y in ys][:budget]]
            case (tm.TSum(a, b),):
                xs, ys = out[-2:]
                out[-2:] = [([tm.App(tm.inl_c(a, b), x) for x in xs]
                             + [tm.App(tm.inr_c(a, b), y) for y in ys])[:budget]]
            case _:
                out.append([])
    return out[0]
