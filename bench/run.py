"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload learn-route --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner imports the program from `src/`,
sets up the workload's inputs under `.bench_work/`, and then drives
`realizer.cli.main(argv)` in-process, one request at a time, in whole blocks
of the workload's request mix until `--seconds` have passed.  Every answer is
checked by the independent oracle, outside the measured time.  End-to-end times are scaled to the
reference speed of `speed.py`.  The last line of stdout is one JSON object:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# a phase stops mid-block past this many times its length, so that a run of
# a much slower program still ends within 180 s
PHASE_CAP = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # (size class, start, seconds)
    failures: list = field(default_factory=list)  # (request, outcome)
    scaled: list = field(default_factory=list)  # latencies at reference speed
    elapsed: float = 0.0  # measured seconds
    blocks: int = 0  # whole blocks completed
    capped: bool = False

    @property
    def raw_throughput(self) -> float:
        return len(self.latencies) / sum(dt for _, _, dt in self.latencies)

    @property
    def throughput(self) -> float:
        """Requests per second at reference speed; the time between
        requests (a loop step) is left out of both."""
        return len(self.scaled) / sum(self.scaled)


def make_client(cli):
    """In-process CLI call with stdout and stderr captured."""

    def client(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)  # looked up per call, so tracing sees it
            except SystemExit as e:
                status = e.code if isinstance(e.code, int) else 1
        return status, out.getvalue(), err.getvalue()

    return client


def run_phase(next_block, client, seconds: float, ref, tracer=None) -> Phase:
    """Whole blocks of requests until `seconds` of measured time have passed.

    `next_block(i)` returns the requests of block i.  Generating a block and
    sampling the reference speed between requests are not measured: neither
    latencies nor the elapsed time include them.  A latency covers a
    request's CLI calls only; the oracle checks the answer after it.
    """
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    unmeasured = 0.0
    while not phase.capped:
        t = clock()
        requests = next_block(phase.blocks)
        unmeasured += clock() - t
        for req in requests:
            if ref.due(clock()):
                unmeasured += ref.sample()
            if tracer is not None:
                tracer.begin_request(req.size_class)
            t = clock()
            failed, out = req.call(client)
            phase.latencies.append((req.size_class, t, clock() - t))
            outcome = failed or req.check(out)
            if not outcome.ok:
                phase.failures.append((req, outcome))
            if clock() - start - unmeasured > PHASE_CAP * seconds:
                phase.capped = True
                break
        else:
            phase.blocks += 1
        if clock() - start - unmeasured >= seconds:
            break
    phase.elapsed = clock() - start - unmeasured
    ref.sample()
    phase.scaled = [ref.scaled(t, dt) for _, t, dt in phase.latencies]
    return phase


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND
    samples beyond it (the maximum when there are too few samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def report_failures(phases: list[Phase]) -> None:
    failures = [f for p in phases for f in p.failures]
    internal = Counter(r.rid for r, o in failures if o.status == 2)
    if internal:
        print("internal errors (exit 2), by input:")
        for rid, n in sorted(internal.items()):
            print(f"  {rid}: {n}")
    seen = set()
    for req, outcome in failures:
        if outcome.status != 2 and req.rid not in seen:
            seen.add(req.rid)
            print(f"failed: {req.rid}: exit {outcome.status}: {outcome.reason}")


def by_class(phase: Phase) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for size_class, _, dt in phase.latencies:
        out.setdefault(size_class, []).append(dt)
    return out


def end_to_end(phase: Phase, setup: tuple[float, float], ref) -> dict:
    """End-to-end metrics at reference speed; raw values are printed."""
    ms = [dt * 1e3 for dt in phase.scaled]
    raw_ms = [dt * 1e3 for _, _, dt in phase.latencies]
    tail_ms, pct = tail(ms)
    print(f"requests: {len(ms)} in {phase.blocks} blocks, {phase.elapsed:.2f} s"
          + (" (stopped mid-block at the phase cap)" if phase.capped else ""))
    print(f"latency_tail_ms: p{pct:.2f} of {len(ms)} samples ({TAIL_BEYOND} beyond it)")
    print(f"fail_ratio: {len(phase.failures) / len(ms):.4f}")
    print(f"raw wall-clock: setup {setup[1]:.4f} s, p50 {statistics.median(raw_ms):.4f} ms,"
          f" tail {tail(raw_ms)[0]:.4f} ms, throughput {phase.raw_throughput:.4f} 1/s;"
          f" reference median {1e3 * ref.median_s():.3f} ms"
          f" (nominal {1e3 * speed.NOMINAL_S:.1f} ms)")
    print("median raw latency by size class (ms):")
    for cls, dts in sorted(by_class(phase).items()):
        print(f"  {cls:24s} n={len(dts):4d}  {1e3 * statistics.median(dts):9.2f}")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup[0], "unit": "s"},
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
        "throughput_rps": {"value": phase.throughput, "unit": "1/s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


_UNITS = {"_s": "s", "_ratio": "ratio", "_share": "ratio", "us_per_step": "us"}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(tracer, untraced: Phase, traced: Phase, out_path: Path) -> dict:
    total: Counter = Counter()
    for c in tracer.by_class.values():
        total.update(c)
    metrics = tracing.layer_metrics(total, sum(tracer.requests.values()))
    curves = {cls: tracing.layer_metrics(tracer.by_class[cls], n)
              for cls, n in sorted(tracer.requests.items())}
    cols = ("terms.steps", "terms.us_per_step", "normalizer.rewrites",
            "deduction.nodes_checked", "arith.eval_prim_calls", "learning.iterations",
            "reals.iterations")
    print("per-request means by size class:")
    print(f"  {'class':24s}" + "".join(f"{c:>26s}" for c in cols))
    for cls, m in curves.items():
        print(f"  {cls:24s}" + "".join(f"{m[c]:26.2f}" for c in cols))
    if traced.capped:
        print("the traced phase stopped mid-block at the phase cap: counts are partial")
    overhead = untraced.throughput / traced.throughput
    print(f"tracing overhead: {overhead:.2f}x ({untraced.throughput:.2f} rps untraced,"
          f" {traced.throughput:.2f} rps traced); {len(tracer.spans)} spans kept")
    out_path.write_text(json.dumps({
        "requests_by_class": dict(tracer.requests),
        "per_layer": metrics,
        "scaling_curves": curves,
        "spans": {"fields": ["request", "name", "start", "end", "parent"],
                  "rows": tracer.spans},
    }))
    print(f"trace written to {out_path.relative_to(ROOT)}")
    metrics.update({"trace.throughput_rps": traced.throughput,
                    "trace.untraced_rps": untraced.throughput,
                    "trace.overhead_ratio": overhead})
    return {name: {"value": v, "unit": "1/s" if name.endswith("_rps") else _unit(name)}
            for name, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ref = speed.Reference()
    ref.sample()
    start = time.perf_counter()
    if not (ROOT / "src" / "realizer" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from realizer import cli
    import workloads
    import_s = time.perf_counter() - start
    ref.sample()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    raw_setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t = time.perf_counter()
        first = workloads.block(args.workload, args.seed, 0, workdir)
        raw_setups.append(time.perf_counter() - t)
        ref.sample()
        scaled_setups.append(ref.scaled(t, raw_setups[-1]))
    setup = (ref.scaled(start, import_s) + statistics.median(scaled_setups),
             import_s + statistics.median(raw_setups))
    print(f"workload {args.workload}, seed {args.seed}: {len(first)} requests per block,"
          f" setup {setup[0]:.3f} s at reference speed (import {import_s:.3f} s raw)")

    client = make_client(cli)
    if args.trace:
        # both phases repeat block 0, so the per-request counts repeat exactly
        def same_block(i):
            return first

        untraced = run_phase(same_block, client, args.seconds / 2, ref)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(same_block, client, args.seconds / 2, ref, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced,
                            WORK / f"{args.workload}-seed{args.seed}-trace.json")
    else:
        def fresh_block(i):
            return first if i == 0 else workloads.block(args.workload, args.seed, i, workdir)

        phase = run_phase(fresh_block, client, args.seconds, ref)
        phases = [phase]
        metrics = end_to_end(phase, setup, ref)
    report_failures(phases)
    attempted = sum(len(ph.latencies) for ph in phases)
    failed = sum(len(ph.failures) for ph in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
