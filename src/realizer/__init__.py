"""Program extraction from classical arithmetic proofs, with learning.

The package has three layers: a simply typed term calculus with state and
exception primitives (terms, monads), natural deduction for arithmetic with
the excluded middle over simply universal formulas (arith, deduction) and
two ways to run proofs — extraction to monadic realizers executed under a
learning loop (extraction, learning) and direct normalization to a witness
(normalizer).  The reals module instantiates the learning loop on exact
real arithmetic; sexpr and cli expose everything on files.
"""

from importlib import import_module as _import_module

# the names the package exports, by module; each module is imported when one
# of its names is first asked for (PEP 562), so a command loads only its own
_EXPORTS = {
    "arith": ("FUNCTIONS", "RELATIONS", "Formula", "Relation"),
    "deduction": ("Derivation", "Sequent", "check_derivation"),
    "extraction": ("computation_type", "decorate", "em_realizer", "extract", "realizer_type"),
    "learning": ("State", "learn", "run_realizer", "spot_check_realizes"),
    "monads": ("EXCEPTION", "IDENTITY", "INTERACTIVE", "check_laws"),
    "normalizer": ("check_open_normal", "extract_witness", "normalize_derivation"),
    "reals": ("convex_angle", "least_element", "op_at", "orientation"),
    "sexpr": ("ParseError", "ProofFile", "parse_file", "print_file"),
    "terms": ("DEFAULT_FUEL", "Term", "normalize", "typecheck"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
