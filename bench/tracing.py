"""Per-layer tracing from outside the program.

A Tracer wraps the public functions listed in LAYERS at every place the
program reaches them through: each module attribute bound to the function
(so `from .arith import norm_formula` in another module is covered too), or
the class attribute for a method.  `uninstall` puts the originals back.

Two kinds of wrapper:

* span: times the call.  Self time is the call's duration minus the time
  covered by child spans.  A wrapper in a group that is already open calls
  straight through, so a recursive function gets one span per outermost
  call.  Spans marked `keep` (the layer boundaries) are also stored in
  memory as (request, name, start, end, parent) and written out once the
  run ends; the fine-grained ones are only summed.  The before and after
  hooks that count nodes and bytes are timed too, and their time is taken
  out of every open span, so that no layer's time holds tracer work.
* count: counts calls, cheaply enough for functions called once per
  reduction step.

Sums go to the counter of the current request's size class, so the same run
yields the per-layer totals and their scaling curves.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

REWRITE_KINDS = ("proper", "ind", "em-witness", "em-permute", "or-exists-permute",
                 "immediate-simpl")


def _term_nodes(t) -> int:
    n, stack = 0, [t]
    while stack:
        node = stack.pop()
        n += 1
        if hasattr(node, "body"):
            stack.append(node.body)
        elif hasattr(node, "arg"):
            stack.extend((node.fn, node.arg))
    return n


def _derivation_nodes(d) -> int:
    n, stack = 0, [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premisses)
    return n


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# hooks: (counter, args, kwargs) before the call, (counter, result) after


def _count_nodes_checked(c, args, kwargs):
    c["deduction.nodes_checked"] += _derivation_nodes(_arg(args, kwargs, 0, "d"))


def _count_rewrite(c, args, kwargs):
    c["normalizer.rewrites"] += 1
    c["normalizer.rewrites." + _arg(args, kwargs, 1, "cut").kind] += 1


def _count_bytes_parsed(c, args, kwargs):
    c["sexpr.bytes_parsed"] += len(_arg(args, kwargs, 0, "text"))


def _count_bytes_printed(c, result):
    c["sexpr.bytes_printed"] += len(result)


def _count_realizer(c, result):
    c["extraction.realizer_nodes"] += _term_nodes(result)


def _count_regular(c, result):
    c["learning.regular_runs"] += type(result).__name__ == "Regular"


def _learned(c, result):
    state, _, trace = result
    c["learning.iterations"] += len(trace.lines)
    c["learning.state_entries"] += len(state)


def _reals_result(state_at):
    def hook(c, result):
        c["reals.iterations"] += len(result[-1])
        c["learning.state_entries"] += len(result[state_at])
    return hook


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str
    name: str
    kind: str = "span"  # span | count
    cls: Optional[str] = None
    group: Optional[str] = None  # spans: outermost-call rule applies per group
    keep: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    nested_in: Optional[str] = None  # spans: also sum time spent inside this group


LAYERS = (
    Layer("realizer.cli", "main", "cli", keep=True),
    Layer("realizer.sexpr", "parse_file", "sexpr.parse", keep=True, before=_count_bytes_parsed),
    *(Layer("realizer.sexpr", f, "sexpr.print", group="sexpr.print", keep=True,
            after=_count_bytes_printed)
      for f in ("print_file", "print_term", "print_type", "print_derivation",
                "print_formula")),
    Layer("realizer.extraction", "extract", "extraction.extract", keep=True,
          after=_count_realizer),
    Layer("realizer.monads", "star_n", "monads.combinator_calls", kind="count"),
    Layer("realizer.monads", "raise_n", "monads.combinator_calls", kind="count"),
    Layer("realizer.deduction", "check_derivation", "deduction.check", keep=True,
          before=_count_nodes_checked, nested_in="normalizer.normalize_derivation"),
    Layer("realizer.normalizer", "extract_witness", "normalizer.extract_witness", keep=True),
    Layer("realizer.normalizer", "normalize_derivation", "normalizer.normalize_derivation",
          keep=True),
    Layer("realizer.normalizer", "find_head_cut", "normalizer.find_head_cut", keep=True),
    Layer("realizer.normalizer", "apply_head_reduction", "normalizer.apply", keep=True,
          before=_count_rewrite),
    Layer("realizer.normalizer", "norm_terms", "normalizer.norm_terms", keep=True),
    Layer("realizer.arith", "norm_formula", "arith.norm_formula"),
    Layer("realizer.arith", "norm_aterm", "arith.norm_aterm"),
    Layer("realizer.arith", "reduce_aterm", "arith.reduce_aterm"),
    Layer("realizer.arith", "eval_prim", "arith.eval_prim"),
    Layer("realizer.learning", "learn", "learning.learn", keep=True, after=_learned),
    Layer("realizer.learning", "run_realizer", "learning.run_realizer_calls", kind="count",
          after=_count_regular),
    Layer("realizer.learning", "query", "learning.queries", kind="count"),
    Layer("realizer.learning", "eval_pred", "learning.evals", kind="count"),
    Layer("realizer.learning", "extend", "learning.extend_calls", kind="count"),
    Layer("realizer.learning", "get", "learning.state_gets", kind="count", cls="State"),
    Layer("realizer.terms", "normalize", "terms.normalize", keep=True),
    Layer("realizer.terms", "step", "terms.steps", kind="count"),
    Layer("realizer.terms", "subst", "terms.subst"),
    Layer("realizer.terms", "typecheck", "terms.typecheck"),
    Layer("realizer.reals", "least_element", "reals.least_element", keep=True,
          after=_reals_result(1)),
    Layer("realizer.reals", "convex_angle", "reals.convex_angle", keep=True,
          after=_reals_result(3)),
    Layer("realizer.reals", "op_at", "reals.op_at_calls", kind="count"),
    Layer("realizer.reals", "orientation", "reals.orientation_calls", kind="count"),
    Layer("realizer.reals", "interval", "reals.interval_at_calls", kind="count", cls="RealRep"),
)


class Tracer:
    def __init__(self):
        self.by_class: dict[str, Counter] = {}
        self.requests: Counter = Counter()
        self.cur: Counter = Counter()
        self.request = -1
        self.spans: list[tuple] = []
        # open spans: [start, time of child spans, _hook_s at the start]
        self._frames: list[list] = []
        self._hook_s = 0.0  # total time spent in counting hooks
        self._kept: list[int] = []  # indices of open kept spans
        self._active: Counter = Counter()
        self._restore: list[tuple] = []

    def begin_request(self, size_class: str) -> None:
        self.request += 1
        self.requests[size_class] += 1
        self.cur = self.by_class.setdefault(size_class, Counter())

    # -- wrappers -------------------------------------------------------------

    def _hook(self, hook, *args) -> None:
        """Run a counting hook and book its time as tracer time."""
        t = time.perf_counter()
        hook(self.cur, *args)
        self._hook_s += time.perf_counter() - t

    def _span(self, orig, layer: Layer):
        name, group = layer.name, layer.group or layer.name
        keep, before, after, nested_in = layer.keep, layer.before, layer.after, layer.nested_in
        active, frames, kept, spans = self._active, self._frames, self._kept, self.spans
        clock, hook = time.perf_counter, self._hook
        calls, self_s, incl_s = name + "_calls", name + "_s", name + "_incl_s"
        nested = f"{name}_in.{nested_in}_s"

        def span(*args, **kwargs):
            if active[group]:
                return orig(*args, **kwargs)
            c = self.cur
            c[calls] += 1
            if before is not None:
                hook(before, args, kwargs)
            if keep:
                index = len(spans)
                spans.append((self.request, name, 0.0, 0.0, kept[-1] if kept else -1))
                kept.append(index)
            frame = [clock(), 0.0, self._hook_s]
            frames.append(frame)
            active[group] += 1
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                active[group] -= 1
                frames.pop()
                # program time only: hooks run inside this call are left out
                dur = end - frame[0] - (self._hook_s - frame[2])
                c[self_s] += dur - frame[1]
                c[incl_s] += dur
                if frames:
                    frames[-1][1] += dur
                if nested_in is not None and active[nested_in]:
                    c[nested] += dur
                if keep:
                    kept.pop()
                    req, _, _, _, parent = spans[index]
                    spans[index] = (req, name, frame[0], end, parent)
            if after is not None:
                hook(after, result)
            return result

        return span

    def _count(self, orig, layer: Layer):
        name, after, hook = layer.name, layer.after, self._hook

        def count(*args, **kwargs):
            self.cur[name] += 1
            result = orig(*args, **kwargs)
            if after is not None:
                hook(after, result)
            return result

        return count

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            make = self._span if layer.kind == "span" else self._count
            if layer.cls is not None:
                cls = getattr(owner, layer.cls)
                orig = vars(cls)[layer.attr]
                self._restore.append((cls, layer.attr, orig))
                setattr(cls, layer.attr, make(orig, layer))
                continue
            orig = getattr(owner, layer.attr)
            wrapper = make(orig, layer)
            for modname, mod in list(sys.modules.items()):
                if modname != "realizer" and not modname.startswith("realizer."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


# ---------------------------------------------------------------------------
# reporting


def layer_metrics(c: Counter, requests: int) -> dict[str, float]:
    """Per-request means of the per-layer metrics, from summed counters."""

    def per(key: str) -> float:
        return c[key] / requests

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "terms.normalize_s": per("terms.normalize_s"),
        "terms.subst_s": per("terms.subst_s"),
        "terms.steps": per("terms.steps"),
        "terms.us_per_step": 1e6 * ratio(c["terms.normalize_incl_s"], c["terms.steps"]),
        "terms.typecheck_s": per("terms.typecheck_s"),
        "extraction.extract_s": per("extraction.extract_s"),
        "extraction.realizer_nodes": per("extraction.realizer_nodes"),
        "monads.combinator_calls": per("monads.combinator_calls"),
        "learning.learn_s": per("learning.learn_s"),
        "learning.iterations": per("learning.iterations"),
        "learning.run_realizer_calls": per("learning.run_realizer_calls"),
        "learning.regular_ratio": ratio(c["learning.regular_runs"],
                                        c["learning.run_realizer_calls"]),
        "learning.state_entries": per("learning.state_entries"),
        "learning.queries": per("learning.queries"),
        "learning.evals": per("learning.evals"),
        "learning.extend_calls": per("learning.extend_calls"),
        "learning.state_gets": per("learning.state_gets"),
        "normalizer.normalize_s": per("normalizer.normalize_derivation_s"),
        "normalizer.extract_witness_s": per("normalizer.extract_witness_s"),
        "normalizer.rewrites": per("normalizer.rewrites"),
        **{f"normalizer.rewrites.{k}": per(f"normalizer.rewrites.{k}") for k in REWRITE_KINDS},
        "normalizer.find_head_cut_s": per("normalizer.find_head_cut_s"),
        "normalizer.apply_s": per("normalizer.apply_s"),
        "normalizer.norm_terms_s": per("normalizer.norm_terms_s"),
        "normalizer.recheck_share": ratio(
            c["deduction.check_in.normalizer.normalize_derivation_s"],
            c["normalizer.normalize_derivation_incl_s"]),
        "deduction.check_s": per("deduction.check_s"),
        "deduction.check_calls": per("deduction.check_calls"),
        "deduction.nodes_checked": per("deduction.nodes_checked"),
        "arith.norm_formula_s": per("arith.norm_formula_s"),
        "arith.norm_formula_calls": per("arith.norm_formula_calls"),
        "arith.norm_aterm_s": per("arith.norm_aterm_s"),
        "arith.reduce_aterm_s": per("arith.reduce_aterm_s"),
        "arith.eval_prim_s": per("arith.eval_prim_s"),
        "arith.eval_prim_calls": per("arith.eval_prim_calls"),
        "sexpr.parse_s": per("sexpr.parse_s"),
        "sexpr.print_s": per("sexpr.print_s"),
        "sexpr.bytes_parsed": per("sexpr.bytes_parsed"),
        "sexpr.bytes_printed": per("sexpr.bytes_printed"),
        "reals.least_element_s": per("reals.least_element_s"),
        "reals.convex_angle_s": per("reals.convex_angle_s"),
        "reals.op_at_calls": per("reals.op_at_calls"),
        "reals.orientation_calls": per("reals.orientation_calls"),
        "reals.interval_at_calls": per("reals.interval_at_calls"),
        "reals.iterations": per("reals.iterations"),
        "cli.self_s": per("cli_s"),
    }
