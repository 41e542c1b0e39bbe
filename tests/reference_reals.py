"""Interval tables, the nesting checks and the operation dispatcher: the parts
of the reals that only tests use, over `realizer.reals`' representation.

table(rows) builds a real from given intervals, so a test can make a broken
sequence on purpose; validate_real spot checks the nested interval conditions
that every constructor of `realizer.reals` keeps; side_at asks one precision
for the side of three points.
"""

from __future__ import annotations

from typing import Optional, Sequence

from realizer.reals import (
    Point, Rat, RatLike, RealError, RealRep, _Determinants, add, mul, neg, sub,
)

VALIDATION_DEPTH = 12


class InvariantViolation(RealError):
    """A nested interval condition failed at some precision."""

    def __init__(self, conjunct: str, k: int):
        super().__init__(f"interval condition '{conjunct}' broken at k={k}")
        self.conjunct = conjunct
        self.k = k


def table(entries: Sequence[tuple[RatLike, RatLike]]) -> RealRep:
    """Opaque interval table.

    Beyond the last row the value pins to that row's midpoint, so a
    well-formed finite table stays a real number at every depth; the rows
    themselves are taken as given, which is how tests build deliberately
    broken sequences.
    """
    rows = tuple((Rat(lo), Rat(hi)) for lo, hi in entries)
    if not rows:
        raise ValueError("table needs at least one interval")
    mid = (rows[-1][0] + rows[-1][1]) / 2

    def fn(k: int) -> tuple[Rat, Rat]:
        return rows[k] if k < len(rows) else (mid, mid)

    return RealRep("table", rows, fn)


def real_arith(kind: str, *operands: RealRep) -> RealRep:
    ops = {"add": add, "neg": neg, "sub": sub, "mul": mul}
    if kind not in ops:
        raise ValueError(f"unknown real operation {kind!r}")
    return ops[kind](*operands)


def interval_at(r: RealRep, k: int, validate: bool = False) -> tuple[Rat, Rat]:
    """The k-th interval; validation also checks the nesting conjuncts
    against the k+1-st."""
    lo, hi = r.interval(k)
    if validate:
        if lo > hi:
            raise InvariantViolation("lo <= hi", k)
        nlo, nhi = r.interval(k + 1)
        if nlo < lo:
            raise InvariantViolation("lo nondecreasing", k)
        if nhi > hi:
            raise InvariantViolation("hi nonincreasing", k)
        if hi - lo > Rat(1, 2**k):
            raise InvariantViolation("width <= 2^-k", k)
    return (lo, hi)


def validate_real(r: RealRep, depth: int = VALIDATION_DEPTH) -> None:
    """Spot check the nested interval conditions for k up to depth."""
    for k in range(depth + 1):
        interval_at(r, k, validate=True)


def side_at(a: Point, b: Point, c: Point, k: int) -> Optional[str]:
    """The side of line a->b that c shows at precision k alone, else None."""
    return _Determinants((a, b, c)).side_at(0, 1, 2, k)
