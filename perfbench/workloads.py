"""The four workloads, their output checks, and the measuring process.

Every workload is a round: a fixed list of operations, run serially by one
closed-loop client (the next operation starts when the previous returns).
A measuring process repeats whole rounds for about the time budget, so the
mix of operations in a run never depends on where the budget ran out.

Operations call the package through module attributes (cli.parse_matching,
not a bound name), so the tracer's patches take effect.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent

CENSUS_N = 8
EXHAUSTIVE_N = 6
# Tallies of the package at the commit that defined this benchmark.  Scan
# runs at k = 3 only: there both readings of "avoider" agree for n <= 6.
VERIFY_FROZEN = {
    3: dict(found_interleaving=0, found_broken_nesting=0, found_pin_sequence=2957, below_threshold=154),
    4: dict(found_interleaving=0, found_broken_nesting=0, found_pin_sequence=1492, below_threshold=1619),
}
SCAN_K = 3
SCAN_FROZEN = {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
SCAN_EXAMPLES = {1: "1-2", 2: "1-3 2-4"}
# Three small hosts to each large one: with an even split the median op
# would fall in the gap between the two size clusters and jump run to run.
CERTIFY_HOSTS = ((80, 144), (160, 48))
CERTIFY_K = (3, 4, 5)
CHAIN_SIZES = (500, 1000)
CHAIN_K = 3
# census(8) has 15 shards; more workers than this only crowd a shared host.
MAX_JOBS = 8


def load_package() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    from indematch import cli, core, enumeration, patterns, pins, ramsey

    return SimpleNamespace(
        cli=cli, core=core, enumeration=enumeration, patterns=patterns, pins=pins, ramsey=ramsey
    )


@dataclass
class Op:
    """One operation.  run fills out as it goes; check judges whatever out
    holds (complete is False when run raised) and returns a problem or None."""

    label: str
    items: int
    run: Callable[[dict], None]
    check: Callable[[dict, bool], str | None]


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    inputs: str
    notes: Counter = field(default_factory=Counter)


def _census_op(lib, n: int) -> Op:
    total = inputs.double_factorial_odd(n)
    indec = inputs.indecomposable_counts(n)[n]

    def run(out):
        out["row"] = lib.enumeration.census(n)

    def check(out, complete):
        row = out.get("row")
        if row is None:
            return None if not complete else "no census row"
        got = (row.total, row.indecomposable, row.recurrence_value)
        if got != (total, indec, indec):
            return f"census({n}) gave {got}, expected {(total, indec, indec)}"
        return None

    return Op(f"census({n})", total, run, check)


def census_plan(lib, seed: int) -> Plan:
    return Plan(
        [_census_op(lib, CENSUS_N)],
        _census_op(lib, 6),
        f"census({CENSUS_N}): all {inputs.double_factorial_odd(CENSUS_N)} matchings; seed unused",
    )


def _verify_op(lib, n_max: int, k: int, frozen: dict | None) -> Op:
    hosts = sum(inputs.indecomposable_counts(n_max)[1:])

    def run(out):
        out["report"] = lib.ramsey.verify_theorem(n_max, k)

    def check(out, complete):
        r = out.get("report")
        if r is None:
            return None if not complete else "no report"
        if not r.ok or r.checked != hosts:
            return f"verify_theorem({n_max}, {k}): ok={r.ok} checked={r.checked}, expected {hosts}"
        if frozen is not None and any(getattr(r, key) != v for key, v in frozen.items()):
            return f"verify_theorem({n_max}, {k}) tallies moved: {r}"
        return None

    return Op(f"verify_theorem({n_max}, {k})", hosts, run, check)


def _scan_op(lib, n_max: int) -> Op:
    hosts = sum(inputs.indecomposable_counts(n_max)[1:])

    def run(out):
        out["report"] = lib.enumeration.scan_avoiders(n_max, SCAN_K)

    def check(out, complete):
        r = out.get("report")
        if r is None:
            return None if not complete else "no report"
        got = {n: str(m) for n, m in r.examples.items()}
        if r.counts != SCAN_FROZEN or got != SCAN_EXAMPLES:
            return f"scan_avoiders({n_max}, {SCAN_K}) moved: {r.counts} {got}"
        return None

    return Op(f"scan_avoiders({n_max}, {SCAN_K})", hosts, run, check)


def exhaustive_plan(lib, seed: int) -> Plan:
    n = EXHAUSTIVE_N
    ops = [_verify_op(lib, n, k, VERIFY_FROZEN[k]) for k in (3, 4)]
    ops.append(_scan_op(lib, n))
    warm = _verify_op(lib, 4, 3, None)
    return Plan(ops, warm, f"every indecomposable host with n <= {n}; seed unused")


def _certify(lib, out: dict, text: str, k: int, notes: Counter):
    """parse -> witness -> certificate -> JSON -> parse JSON -> verify;
    returns the parsed host."""
    host = lib.cli.parse_matching(text)
    report = lib.ramsey.witness(host, k)
    encoded = json.dumps(lib.cli.certificate_document(report, host))
    notes["cli.certificate_bytes"] += len(encoded)
    notes["cli.certificates"] += 1
    doc = json.loads(encoded)
    out["doc"] = doc
    out["verdict"] = lib.cli.verify_certificate(doc)
    return host


def _certificate_problem(out: dict, pairs: inputs.Pairs, k: int) -> str | None:
    if not out["verdict"].startswith("certificate ok"):
        return f"verify_certificate said {out['verdict']!r}"
    return inputs.certificate_problems(pairs, out["doc"], k)


def _certify_op(lib, pairs: inputs.Pairs, k: int, notes: Counter) -> Op:
    text = inputs.edge_text(pairs)

    def run(out):
        _certify(lib, out, text, k, notes)

    def check(out, complete):
        if "verdict" not in out:
            return None if not complete else "no certificate"
        return _certificate_problem(out, pairs, k)

    return Op(f"certify n={len(pairs)} k={k}", 1, run, check)


def certify_plan(lib, seed: int) -> Plan:
    rng = random.Random(seed)
    hosts = [inputs.random_indecomposable(rng, n) for n, count in CERTIFY_HOSTS for _ in range(count)]
    notes: Counter = Counter()
    ops = [_certify_op(lib, h, k, notes) for h in hosts for k in CERTIFY_K]
    sizes = ", ".join(f"{count} at n={n}" for n, count in CERTIFY_HOSTS)
    return Plan(
        ops,
        _certify_op(lib, hosts[0], CERTIFY_K[0], Counter()),
        f"{len(hosts)} random indecomposable hosts ({sizes}) x k={CERTIFY_K}; "
        f"seed={seed} sha256={inputs.digest(hosts)}",
        notes,
    )


def _chain_op(lib, n: int, notes: Counter) -> Op:
    pairs = inputs.crossing_chain(n)
    text = inputs.edge_text(pairs)

    def run(out):
        host = _certify(lib, out, text, CHAIN_K, notes)
        grown = lib.pins.grow_right_reaching(host, host.edges()[0])
        out["grown"] = [tuple(e) for e in grown]
        out["proper"] = [tuple(e) for e in lib.pins.properize(host, grown).pins]

    def check(out, complete):
        if complete and "proper" not in out:
            return "missing output"
        if "verdict" in out:
            problem = _certificate_problem(out, pairs, CHAIN_K)
            if problem:
                return problem
        if "grown" in out:
            grown = out["grown"]
            problem = inputs.pin_problems(grown, proper=False, top=2 * n)
            if problem or grown[0] != pairs[0]:
                return f"grow_right_reaching: {problem or 'first pin moved'}"
        if "proper" in out:
            proper = out["proper"]
            problem = inputs.pin_problems(proper, proper=True, top=2 * n)
            if problem or proper[0] != pairs[0] or not set(proper) <= set(out["grown"]):
                return f"properize: {problem or 'pins not drawn from the input'}"
        return None

    return Op(f"chain n={n}", 1, run, check)


def chains_plan(lib, seed: int) -> Plan:
    notes: Counter = Counter()
    return Plan(
        [_chain_op(lib, n, notes) for n in CHAIN_SIZES],
        _chain_op(lib, 50, Counter()),
        f"crossing chains n={CHAIN_SIZES}; seed unused",
        notes,
    )


PLANS = {
    "census": census_plan,
    "exhaustive": exhaustive_plan,
    "certify": certify_plan,
    "chains": chains_plan,
}
NAMES = tuple(PLANS)


@dataclass
class Tally:
    """Outcome of every operation run in this process."""

    attempted: int = 0
    items: int = 0
    busy_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    raised: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    failed: int = 0

    def run(self, op: Op, tracer: tracing.Tracer | None = None) -> float:
        out: dict = {}
        if tracer is not None:
            tracer.op_id += 1
        error = None
        start = perf_counter()
        try:
            op.run(out)
        except Exception as exc:  # every failure is counted, none stops the run
            error = exc
        duration = perf_counter() - start
        problem = op.check(out, error is None)
        self.attempted += 1
        self.items += op.items
        self.busy_s += duration
        self.durations.append(duration)
        if error is not None:
            self.raised[type(error).__name__] += 1
        if problem is not None:
            self.wrong.append(f"{op.label}: {problem}")
        if error is not None or problem is not None:
            self.failed += 1
        return duration

    def round(self, plan: Plan, tracer: tracing.Tracer | None = None) -> float:
        return sum(self.run(op, tracer) for op in plan.ops)


def setup(name: str, seed: int) -> tuple[SimpleNamespace, Plan, list[str], float]:
    """Import, input generation and one untimed warm-up; returns their time
    and the warm-up's problems, which make the run incorrect but are not
    counted as measured operations."""
    start = perf_counter()
    lib = load_package()
    plan = PLANS[name](lib, seed)
    warm = Tally()
    warm.run(plan.warmup)
    problems = [f"warm-up raised {e}" for e in warm.raised] + warm.wrong
    return lib, plan, problems, perf_counter() - start


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _another_round(spent: float, rounds: int, seconds: float) -> bool:
    """True while one more round of the mean length ends nearer to seconds."""
    return rounds == 0 or spent + spent / rounds / 2 < seconds


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced rounds for about seconds of operation time."""
    _, plan, problems, setup_s = setup(name, seed)
    tally = Tally(wrong=problems)
    rounds = 0
    while _another_round(tally.busy_s, rounds, seconds):
        tally.round(plan)
        rounds += 1
    return _result(plan, tally, setup_s, rounds) | {"peak_rss_mib": _peak_rss_mib()}


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def trace(name: str, seed: int, seconds: float) -> dict:
    """Pairs of (untraced, traced) rounds for about seconds; then,
    for census, the partner stream driven through public calls and the
    parallel census.  Writes every span and counter kept to perfbench/out."""
    lib, plan, problems, setup_s = setup(name, seed)
    tally = Tally(wrong=problems)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    while _another_round(plain_s + traced_s, rounds, seconds):
        plain_s += tally.round(plan)
        tracer.install()
        try:
            traced_s += tally.round(plan, tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    metrics = {}
    stream = None
    jobs = 1
    if name == "census":
        stream = _drive_stream(lib, tally)
        jobs = min(_usable_cpus(), MAX_JOBS)
        op = Op(f"census({CENSUS_N}, jobs={jobs})", 0, lambda out: out.update(
            row=lib.enumeration.census(CENSUS_N, jobs=jobs)), plan.ops[0].check)
        metrics["enumeration.jobs_speedup"] = (plain_s / rounds) / tally.run(op)
    else:
        metrics["enumeration.jobs_speedup"] = 0.0
    metrics.update(tracing.per_layer(tracer, rounds, stream, plan.notes))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    tracers = [tracer] if stream is None else [tracer, stream]
    doc = {"workload": name, "seed": seed, "rounds": rounds, "inputs": plan.inputs}
    doc["traces"] = [t.dump() for t in tracers]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result = _result(plan, tally, setup_s, rounds)
    result["layers"] = metrics
    result["jobs"] = jobs
    result["trace_file"] = str(path.relative_to(ROOT))
    result["spans_kept"] = sum(len(t.spans) for t in tracers)
    result["spans_dropped"] = sum(t.dropped for t in tracers)
    return result


def _drive_stream(lib, tally: Tally) -> tracing.Tracer:
    """all_matchings(CENSUS_N) + is_indecomposable through the public API."""
    stream = tracing.Tracer()
    n = CENSUS_N
    expected = (inputs.double_factorial_odd(n), inputs.indecomposable_counts(n)[n])

    def run(out):
        total = indec = 0
        for m in stream.timed_iter("enumeration.stream", lib.enumeration.all_matchings(n)):
            total += 1
            if lib.core.is_indecomposable(m):
                indec += 1
        out["counts"] = (total, indec)

    def check(out, complete):
        got = out.get("counts")
        if got is not None and got != expected:
            return f"stream counted {got}, expected {expected}"
        return None if got is not None or not complete else "no counts"

    stream.install()
    try:
        tally.run(Op(f"all_matchings({n}) + is_indecomposable", expected[0], run, check), stream)
    finally:
        stream.uninstall()
    return stream


def _result(plan: Plan, tally: Tally, setup_s: float, rounds: int) -> dict:
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "ops_per_round": len(plan.ops),
        "inputs": plan.inputs,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "items": tally.items,
        "busy_s": tally.busy_s,
        "durations": tally.durations,
        "raised": dict(tally.raised),
        "wrong": tally.wrong,
    }
