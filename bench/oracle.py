"""Independent answer checks.

Nothing here calls into the program: the proof goals are read back from the
written proof files with a small s-expression reader of our own, closed
atoms are decided over Python ints, and the demo answers are checked with
exact Fractions.  A check returns None when the answer is right and a short
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction


class Unreadable(Exception):
    """The text is not in the shape the check expects."""


# ---------------------------------------------------------------------------
# s-expressions


def read(text: str) -> list:
    """All forms in text; lists become Python lists, integers ints, and
    everything else a str.  ';' starts a comment that runs to end of line."""
    stack: list[list] = [[]]
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        for tok in line.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise Unreadable("unbalanced ')'")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(int(tok) if tok.lstrip("-").isdigit() else tok)
    if len(stack) != 1:
        raise Unreadable("unbalanced '('")
    return stack[0]


def read_one(text: str, head: str) -> list:
    forms = read(text)
    if len(forms) != 1 or not isinstance(forms[0], list) or forms[0][:1] != [head]:
        raise Unreadable(f"expected one ({head} ...) form, got {text[:80]!r}")
    return forms[0]


# ---------------------------------------------------------------------------
# arithmetic over ints

_FUNCTIONS = {
    "S": lambda a: a + 1,
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "sq": lambda a: a * a,  # the corpus defines sq as x * x
}

_RELATIONS = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def value(term, env: dict[str, int]) -> int:
    if isinstance(term, int):
        return term
    if isinstance(term, str):
        if term in env:
            return env[term]
        raise Unreadable(f"free variable {term!r}")
    fn, *args = term
    if fn not in _FUNCTIONS:
        raise Unreadable(f"unknown function {fn!r}")
    return _FUNCTIONS[fn](*(value(a, env) for a in args))


def holds(rel: str, args: list[int]) -> bool:
    if rel not in _RELATIONS:
        raise Unreadable(f"unknown relation {rel!r}")
    return _RELATIONS[rel](*args)


def atom_holds(atom, env: dict[str, int]) -> bool:
    if not (isinstance(atom, list) and atom[:1] == ["atom"] and len(atom) == 4):
        raise Unreadable(f"not a binary atom: {atom!r}")
    _, rel, a, b = atom
    return holds(rel, [value(a, env), value(b, env)])


# ---------------------------------------------------------------------------
# proof answers


def goal_of(proof_text: str, deriv: str):
    """(variable, matrix) of the named derivation's `exists` goal."""
    for form in read(proof_text):
        if isinstance(form, list) and form[:2] == ["defder", deriv]:
            der = form[2]  # (der RULE (seq (ctx ...) GOAL) PREMISSES...)
            goal = der[2][2]
            if not (isinstance(goal, list) and goal[0] == "exists"):
                raise Unreadable(f"{deriv} does not prove an existential")
            return goal[1], goal[2]
    raise Unreadable(f"no derivation {deriv!r} in the proof file")


def numeral(term) -> int:
    """Value of a printed Nat normal form: zero, (app succ N) or (num k)."""
    n = 0
    while True:
        if term == "zero":
            return n
        if isinstance(term, list) and term[:1] == ["num"] and len(term) == 2:
            return n + term[1]
        if isinstance(term, list) and term[:2] == ["app", "succ"] and len(term) == 3:
            n, term = n + 1, term[2]
            continue
        raise Unreadable(f"not a numeral: {term!r}")


def check_witness(goal, w: int) -> str | None:
    var, matrix = goal
    if not atom_holds(matrix, {var: w}):
        return f"witness {w} does not satisfy the goal"
    return None


def check_learned(out: str, goal) -> str | None:
    """`(learned (state (REL (ARGS) W) ...) (app (pair Nat Unit) N unit))`:
    every state entry must be a true counterexample and N a witness."""
    form = read_one(out, "learned")
    if len(form) != 3 or form[1][:1] != ["state"]:
        raise Unreadable("learned form without a state")
    for rel, args, w in form[1][1:]:
        if holds(rel, list(args) + [w]):
            return f"unsound state entry {rel}{tuple(args)}={w}"
    val = form[2]
    if not (isinstance(val, list) and len(val) == 4 and val[:2] == ["app", ["pair", "Nat", "Unit"]]):
        raise Unreadable(f"value is not a (pair Nat Unit): {val!r}")
    return check_witness(goal, numeral(val[2]))


def check_extracted_witness(out: str, goal) -> str | None:
    forms = read(out)
    if len(forms) != 1 or not isinstance(forms[0], int):
        raise Unreadable(f"expected one integer, got {out[:80]!r}")
    return check_witness(goal, forms[0])


# ---------------------------------------------------------------------------
# demo answers


def _state_refutes(entries, values: list[Fraction]) -> str | None:
    """A stored leq(i, j) entry claims value j lies strictly below value i."""
    for rel, (i, j), _ in entries:
        if rel != "leq" or not values[j] < values[i]:
            return f"unsound state entry {rel}({i},{j})"
    return None


def check_least(out: str, values: list[Fraction]) -> str | None:
    form = read_one(out, "result")
    index, state = form[1], form[2]
    if index[:1] != ["index"] or state[:1] != ["state"]:
        raise Unreadable(f"unexpected result {form!r}")
    i = index[1]
    if not (0 <= i < len(values)) or values[i] != min(values):
        return f"index {i} is not a position of the minimum"
    return _state_refutes(state[1:], values)


def _cross(p, q, r) -> Fraction:
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def check_angle(out: str, points: list[tuple[Fraction, Fraction]]) -> str | None:
    form = read_one(out, "result")
    angle, state = form[1], form[2]
    if angle[:1] != ["angle"] or len(angle) != 4 or state[:1] != ["state"]:
        raise Unreadable(f"unexpected result {form!r}")
    a, b, c = angle[1:]
    if len({a, b, c}) != 3 or not all(0 <= i < len(points) for i in (a, b, c)):
        return f"bad angle indices {a} {b} {c}"
    if _cross(points[a], points[b], points[c]) <= 0:
        return "c is not left of a->b"
    for i, p in enumerate(points):
        if i not in (a, b, c) and not (_cross(points[a], points[b], p) > 0
                                       and _cross(points[a], points[c], p) < 0):
            return f"point {i} lies outside the angle"
    return _state_refutes(state[1:], [p[1] for p in points])
