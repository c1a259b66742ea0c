"""Spans and counters at the package's public boundaries, from outside.

A Tracer wraps public functions of indematch and patches the wrapper into
every package module whose globals hold the original, so calls between
modules (ramsey.witness -> patterns.crossers) and within one
(pins.build_pin_tree -> pins.classify_sequence) are seen without editing
the package.  uninstall() puts the originals back.

Spans (name, start, end, parent, operation id) stay in memory up to
SPAN_CAP; past it only the per-name aggregates grow.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter
from typing import Callable

# Enough to inspect a few whole operations; the aggregates cover the rest.
SPAN_CAP = 100_000

MODULES = ("core", "enumeration", "pins", "patterns", "ramsey", "cli")

# (module, public function) pairs timed at their call sites.
WRAPPED = (
    ("core", "is_indecomposable"),
    ("enumeration", "census"),
    ("enumeration", "scan_avoiders"),
    ("pins", "build_pin_tree"),
    ("pins", "classify_sequence"),
    ("pins", "grow_right_reaching"),
    ("pins", "properize"),
    ("patterns", "crossers"),
    ("patterns", "extract_from_crossed_edge"),
    ("patterns", "max_pattern"),
    ("patterns", "longest_monotone"),
    ("ramsey", "witness"),
    ("ramsey", "verify_theorem"),
    ("cli", "parse_matching"),
    ("cli", "certificate_document"),
    ("cli", "verify_certificate"),
)


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple | None] = []
        self.dropped = 0
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.failed: Counter[tuple[str, str]] = Counter()
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self.counters: Counter[str] = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, index])

    def _exit(self, error: str | None) -> None:
        end = perf_counter()
        name, start, children, index = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index >= 0:
            parent_index = parent[3] if parent is not None else -1
            self.spans[index] = (name, start, end, parent_index, self.op_id)
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.edges[parent[0] if parent is not None else None, name] += 1
        if error is not None:
            self.failed[name, error] += 1

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(type(exc).__name__)
                raise
            exit_(None)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the wrappers into the package until uninstall()."""
        package = [importlib.import_module(f"indematch.{m}") for m in MODULES]
        package.append(importlib.import_module("indematch"))
        hooks = {
            "pins.build_pin_tree": self._count_tree,
            "ramsey.witness": self._count_outcome,
        }
        for module_name, fn_name in WRAPPED:
            original = getattr(importlib.import_module(f"indematch.{module_name}"), fn_name)
            name = f"{module_name}.{fn_name}"
            traced = self.wrap(name, original, hooks.get(name))
            for module in package:
                if module.__dict__.get(fn_name) is original:
                    self._patch(module, fn_name, traced)
        witness_cls = importlib.import_module("indematch.patterns").Witness
        self._patch(witness_cls, "verify", self.wrap("patterns.witness_verify", witness_cls.verify))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_tree(self, tree) -> None:
        self.counters["pins.build_pin_tree.nodes"] += len(tree.nodes)
        # The root is placed, not accepted from a classify attempt.
        self.counters["pins.tree.accepted"] += max(len(tree.nodes) - 1, 0)

    def _count_outcome(self, report) -> None:
        if report.witness is None:
            case = "below_threshold"
        elif report.witness.kind.value == "proper_pin_sequence":
            case = "pin_tree"
        else:
            case = "heavy_edge"
        self.counters[f"ramsey.witness.{case}"] += 1

    def timed_iter(self, name: str, iterable):
        """Yield from iterable, adding the time spent producing each item to name."""
        it = iter(iterable)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.total[name] += perf_counter() - start
                return
            self.total[name] += perf_counter() - start
            self.calls[name] += 1
            yield item

    def dump(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "failed": [[n, e, c] for (n, e), c in sorted(self.failed.items())],
            "caller_callee_calls": [[p, n, c] for (p, n), c in sorted(self.edges.items(), key=str)],
            "counters": dict(sorted(self.counters.items())),
            "spans_dropped": self.dropped,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
        }


def layer_unit(name: str) -> str:
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("certificate_bytes"):
        return "B"
    if name.endswith("jobs_speedup"):
        return "x"
    if name.endswith(("ratio", "calls_per_witness")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer, rounds: int, stream: Tracer | None, notes: Counter
) -> dict[str, float]:
    """Per-layer metrics of one traced round (totals divided by rounds).
    stream holds the one-off partner-stream drive, when the workload has one;
    notes holds the workload's own counts, such as certificate bytes."""
    c, s = tracer.calls, tracer.self_time
    out: dict[str, float] = {}

    def per(value: float) -> float:
        return value / rounds

    if stream is not None:
        out["enumeration.stream.items_per_s"] = _ratio(
            stream.calls["enumeration.stream"], stream.total["enumeration.stream"]
        )
        out["core.is_indecomposable.self_s"] = stream.self_time["core.is_indecomposable"]
    else:
        out["enumeration.stream.items_per_s"] = 0.0
        out["core.is_indecomposable.self_s"] = per(s["core.is_indecomposable"])
    out["pins.build_pin_tree.calls"] = per(c["pins.build_pin_tree"])
    out["pins.build_pin_tree.self_s"] = per(s["pins.build_pin_tree"])
    out["pins.build_pin_tree.nodes"] = per(tracer.counters["pins.build_pin_tree.nodes"])
    out["pins.classify_sequence.calls"] = per(c["pins.classify_sequence"])
    out["pins.classify_sequence.self_s"] = per(s["pins.classify_sequence"])
    out["pins.tree.accept_ratio"] = _ratio(
        tracer.counters["pins.tree.accepted"],
        tracer.edges["pins.build_pin_tree", "pins.classify_sequence"],
    )
    witness_crossers = (
        tracer.edges["ramsey.witness", "patterns.crossers"]
        + tracer.edges["patterns.extract_from_crossed_edge", "patterns.crossers"]
    )
    out["patterns.crossers.calls"] = per(c["patterns.crossers"])
    out["patterns.crossers.self_s"] = per(s["patterns.crossers"])
    out["patterns.crossers.calls_per_witness"] = _ratio(witness_crossers, c["ramsey.witness"])
    for name in ("max_pattern", "longest_monotone"):
        out[f"patterns.{name}.calls"] = per(c[f"patterns.{name}"])
        out[f"patterns.{name}.self_s"] = per(s[f"patterns.{name}"])
    out["patterns.extract_from_crossed_edge.self_s"] = per(s["patterns.extract_from_crossed_edge"])
    out["patterns.witness_verify.self_s"] = per(s["patterns.witness_verify"])
    out["ramsey.witness.calls"] = per(c["ramsey.witness"])
    out["ramsey.witness.self_s"] = per(s["ramsey.witness"])
    for case in ("heavy_edge", "pin_tree", "below_threshold"):
        out[f"ramsey.witness.{case}"] = per(tracer.counters[f"ramsey.witness.{case}"])
    out["pins.grow_right_reaching.self_s"] = per(s["pins.grow_right_reaching"])
    out["pins.properize.self_s"] = per(s["pins.properize"])
    out["pins.properize.failed"] = per(
        sum(n for (name, _), n in tracer.failed.items() if name == "pins.properize")
    )
    for name in ("parse_matching", "certificate_document", "verify_certificate"):
        out[f"cli.{name}.self_s"] = per(s[f"cli.{name}"])
    out["cli.certificate_bytes"] = _ratio(notes["cli.certificate_bytes"], notes["cli.certificates"])
    return out
