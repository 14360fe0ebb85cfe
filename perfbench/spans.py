"""Spans around the package's layers, for the traced run only.

Tracing wraps, from outside the package, every public function of each
layer module, then rebinds each wrapped function wherever the package
holds a reference to it.  That covers modules that import a function by
name (``circuit`` takes ``sylvester_pd``, ``sylvester_psd`` and
``real_sign`` from ``field``, ``cli`` takes ``decimal_string`` and
``karp_check``, ``enumeration`` takes ``cook_run``), whose calls a patch
of the defining module alone would miss.  Two more kinds of callable are
wrapped: ``TotalDecider.classify``, through which every classification
passes, and the ``fn`` of each decider the enumeration factories return.

A span records its duration and the part of it covered by child spans;
its self time is the difference.  Spans are aggregated per name as they
close, so memory stays constant however many millions of calls an op
makes.  ``words`` holds generators, whose cost lands in their callers,
and ``config`` is not exercised by any workload; neither is wrapped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "circuit", "field", "tm", "ptm", "promise", "enumeration",
          "diagonal")

# Per-step helpers called once per machine step or leaf; a span around
# them would cost more than they do, so their time stays in the caller.
UNWRAPPED = {"tm.output_at", "tm.tape_from_inputs"}

DECIDER_FACTORIES = {"enumeration.harder_set", "enumeration.p_machine",
                     "enumeration.np_machine", "enumeration.class_presentation"}
CLASSIFY = "promise.TotalDecider.classify"
DECIDE = "enumeration.decide"


def _arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


# Work counts taken at span close, from arguments and results only.
# amp_updates is computed from the argument sizes: gates x 2^n.
COUNTS = {
    "circuit.simulate": lambda args, kwargs, result: (
        "circuit.amp_updates",
        len(_arg(args, kwargs, "c").gates) << _arg(args, kwargs, "c").total_qubits),
    "tm.run": lambda args, kwargs, result: ("tm.steps", result.steps),
    "ptm.enumerate_branches": lambda args, kwargs, result: ("ptm.leaves", result.total),
}


class Tracer:
    """Span stack, per-name aggregates and the patches that feed them."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack, calls, self_s, counts = self.stack, self.calls, self.self_s, self.counts
        count = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children[0]
            if count is not None:
                key, amount = count(args, kwargs, result)
                counts[key] += amount
            return result

        return traced

    def _wrap_factory(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            decider = traced(*args, **kwargs)
            return dataclasses.replace(decider, fn=self.wrap(DECIDE, decider.fn))

        return factory

    def root(self, fn):
        """Run fn as the root span of one op; returns (result, duration)."""
        children = [0.0]
        self.stack.append(children)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
        self.root_s += elapsed
        self.root_self_s += elapsed - children[0]
        return result, elapsed

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"promiselab.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj) or name in UNWRAPPED):
                    continue
                wrap = self._wrap_factory if name in DECIDER_FACTORIES else self.wrap
                wrappers[id(obj)] = (obj, wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "promiselab" and not modname.startswith("promiselab."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])
        decider = importlib.import_module("promiselab.promise").TotalDecider
        self._patch(decider, "classify", self.wrap(CLASSIFY, decider.classify))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".")[0]] += seconds
        return totals


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(t: Tracer, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay, keyed by metric name."""
    calls, self_s, counts = t.calls, t.self_s, t.counts

    def total(*names: str, table=self_s) -> float:
        return sum(table.get(n, 0) for n in names)

    cli_self = t.layer_self_s()["cli"]
    sylvester = ("field.sylvester_pd", "field.sylvester_psd")
    decode = ("tm.decode_godel", "tm.parse_godel_structure", "tm.load_machine_file")
    construct = ("diagonal.diagonalize", "diagonal.ladner",
                 "diagonal.build_r_components")
    return {
        "cli.self_s": (cli_self, "s"),
        "cli.self_frac": (_ratio(cli_self, t.root_s), "ratio"),
        "circuit.simulate.calls": (calls["circuit.simulate"], "count"),
        "circuit.simulate.self_s": (self_s["circuit.simulate"], "s"),
        "circuit.amp_updates": (counts["circuit.amp_updates"], "count"),
        "circuit.simulate.ns_per_amp_update": (
            _ratio(self_s["circuit.simulate"], counts["circuit.amp_updates"], 1e9), "ns"),
        "circuit.readout.self_s": (
            total("circuit.p_acc", "circuit.acceptance_operator"), "s"),
        "field.det.calls": (calls["field.det"], "count"),
        "field.det.self_s": (self_s["field.det"], "s"),
        "field.det.us_per_call": (
            _ratio(self_s["field.det"], calls["field.det"], 1e6), "us"),
        "field.sylvester.calls": (total(*sylvester, table=calls), "count"),
        "field.sylvester.self_s": (total(*sylvester), "s"),
        "field.dets_per_sylvester": (
            _ratio(calls["field.det"], total(*sylvester, table=calls)), "ratio"),
        "tm.run.calls": (calls["tm.run"], "count"),
        "tm.run.self_s": (self_s["tm.run"], "s"),
        "tm.steps": (counts["tm.steps"], "count"),
        "tm.steps_per_s": (_ratio(counts["tm.steps"], self_s["tm.run"]), "1/s"),
        "tm.decode.self_s": (total(*decode), "s"),
        "ptm.branches.calls": (calls["ptm.enumerate_branches"], "count"),
        "ptm.branches.self_s": (self_s["ptm.enumerate_branches"], "s"),
        "ptm.leaves": (counts["ptm.leaves"], "count"),
        "ptm.leaves_per_s": (
            _ratio(counts["ptm.leaves"], self_s["ptm.enumerate_branches"]), "1/s"),
        "promise.classify.calls": (calls[CLASSIFY], "count"),
        "promise.classify.self_s": (self_s[CLASSIFY], "s"),
        "promise.karp_check.self_s": (self_s["promise.karp_check"], "s"),
        "promise.cook_run.calls": (calls["promise.cook_run"], "count"),
        "promise.cook_run.self_s": (self_s["promise.cook_run"], "s"),
        "enumeration.decide.calls": (calls[DECIDE], "count"),
        "enumeration.decide.self_s": (self_s[DECIDE], "s"),
        "diagonal.gap_member.calls": (calls["diagonal.gap_member"], "count"),
        "diagonal.gap_member.self_s": (self_s["diagonal.gap_member"], "s"),
        "diagonal.construct.self_s": (total(*construct), "s"),
        "trace.overhead_frac": (_ratio(t.root_s - untraced_s, untraced_s), "ratio"),
    }


# Ratios and the base each is taken over, for the report.
RATIO_BASES = {
    "cli.self_frac": "traced op time",
    "circuit.simulate.ns_per_amp_update": "circuit.amp_updates",
    "field.det.us_per_call": "field.det.calls",
    "field.dets_per_sylvester": "field.sylvester.calls",
    "tm.steps_per_s": "tm.run.self_s",
    "ptm.leaves_per_s": "ptm.branches.self_s",
    "trace.overhead_frac": "untraced op time",
}
COMPUTED = {"circuit.amp_updates": "computed: gates x 2^n per simulate call"}
