"""Per-layer spans around the public entry points of repgrowth.

The tracer wraps named functions from outside the package and rebinds every
module-level name in ``repgrowth.*`` that refers to the same function object
(``dominance`` and ``witness`` import ``sub`` by name; ``cli`` keeps the
witness engines in a table).  Each call records a span: name, start, end,
parent span and operation id.  Functions that run millions of times are
folded into their nearest enclosing span as a call count and a total
instead.  Self time is a call's duration minus the time of the wrapped calls
inside it.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

from mpmath import iv

SPAN, AGG = "span", "agg"
LADDER = (64, 128, 256, 512, 1024)
WALKS = ("bounds.premet_lower", "dominance.saturated_dominant_set")
ENGINES = ("incr", "middle", "m_good", "middle2", "good", "a5_family")


def ladder_step(bits: int) -> int:
    """The rung of the 64..1024 precision ladder a working precision is
    counted under: the smallest rung at or above it."""
    return next((b for b in LADDER if bits <= b), LADDER[-1])


def _size_bucket(args, kwargs) -> str:
    n = sum(args[0]) if args else 0
    return f"n{min(40, max(10, -(-n // 10) * 10))}"


def _prec_bucket(args, kwargs) -> str:
    return str(ladder_step(iv.prec))


# Observers run after a call returns and may count outcomes.

def _count_witness(tracer, result):
    tracer.counters["witnesses"] += len(result) if isinstance(result, list) else 1


def _count_chain(tracer, result):
    if result is not None:
        tracer.counters["witnesses"] += 1


def _count_dominants(tracer, result):
    tracer.counters["walk.dominant"] += len(result)


def _count_verdict(tracer, cert):
    if cert.verdict == "unknown":
        tracer.counters["unknown"] += 1
    else:
        tracer.counters[f"decided_at.{ladder_step(cert.prec_bits)}"] += 1


def _count_evaluations(tracer, args, kwargs):
    """Make certify_cmp's two callables count their evaluations."""
    def counted(fn):
        def evaluate():
            tracer.counters["evaluations"] += 1
            return fn()
        return evaluate
    args = list(args)
    for pos, key in enumerate(("lhs", "rhs")):
        if pos < len(args):
            args[pos] = counted(args[pos])
        elif key in kwargs:
            kwargs[key] = counted(kwargs[key])
    return tuple(args), kwargs


def _trace_parse_args(tracer, parser):
    parser.parse_args = tracer.traced("cli.parse", SPAN, parser.parse_args)


# (span name, module, attribute, mode, options).  The names are public
# entry points of each layer, plus the renderer the cli layer routes every
# record through.
TARGETS = (
    ("rootdata.sub", "rootdata", "sub", AGG, {}),
    ("rootdata.root_combination", "rootdata",
     "RootDatum.root_combination", AGG, {}),
    ("dominance.orbit_length", "dominance", "orbit_length", AGG, {}),
    ("dominance.saturated_dominant_set", "dominance",
     "saturated_dominant_set", SPAN, {"observe": _count_dominants}),
    ("dominance.dominance_witness", "dominance", "dominance_witness", AGG,
     {"observe": _count_chain}),
    ("dominance.verify", "dominance", "WitnessChain.verify", AGG, {}),
    ("witness.incr", "witness", "incr_witness", SPAN,
     {"observe": _count_witness}),
    ("witness.middle", "witness", "middle_witness", SPAN,
     {"observe": _count_witness}),
    ("witness.m_good", "witness", "m_good_witness", SPAN,
     {"observe": _count_witness}),
    ("witness.middle2", "witness", "middle2_witness", SPAN,
     {"observe": _count_witness}),
    ("witness.good", "witness", "good_witness", SPAN,
     {"observe": _count_witness}),
    ("witness.a5_family", "witness", "a5_good_family", SPAN,
     {"observe": _count_witness}),
    ("bounds.premet_lower", "bounds", "premet_lower", SPAN, {}),
    ("bounds.f_interval", "bounds", "f_interval", SPAN, {}),
    ("bounds.zeta_tail_check", "bounds", "zeta_tail_check", SPAN, {}),
    ("bounds.rn_upper", "bounds", "rn_upper", SPAN, {}),
    ("intervals.certify_cmp", "intervals", "certify_cmp", SPAN,
     {"prepare": _count_evaluations, "observe": _count_verdict}),
    ("intervals.zeta_iv", "intervals", "zeta_iv", SPAN,
     {"tag": _prec_bucket}),
    ("intervals.enclosure", "intervals", "enclosure", SPAN, {}),
    ("partitions.mullineux", "partitions", "mullineux", SPAN,
     {"tag": _size_bucket}),
    ("partitions.partition_bound", "partitions", "partition_bound", SPAN,
     {}),
    ("cli.parse", "cli", "build_parser", SPAN,
     {"observe": _trace_parse_args}),
    ("cli.render", "cli", "_emit", SPAN, {}),
)


class Tracer:
    def __init__(self):
        # span: [name, tag, start, end, parent, op, self_s, raised]
        self.spans: list[list] = []
        # (anchor span, name, tag) -> [calls, total_s, self_s]
        self.aggs: dict[tuple, list] = {}
        self.counters: Counter = Counter()
        self.op = None
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def traced(self, name, mode, fn, tag=None, prepare=None, observe=None):
        tracer = self

        def call(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            stack = tracer._stack
            anchor = stack[-1][2] if stack else -1
            label = tag(args, kwargs) if tag is not None else ""
            if mode == SPAN:
                own = len(tracer.spans)
                tracer.spans.append([name, label, 0.0, 0.0, anchor,
                                     tracer.op, 0.0, False])
            else:
                own = anchor
            frame = [0.0, 0.0, own]
            stack.append(frame)
            raised = True
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                if mode == SPAN:
                    rec = tracer.spans[own]
                    rec[2], rec[3] = start, end
                    rec[6], rec[7] = took - frame[1], raised
                else:
                    agg = tracer.aggs.get((anchor, name, label))
                    if agg is None:
                        agg = tracer.aggs[(anchor, name, label)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame[1]
            if observe is not None:
                observe(tracer, result)
            return result

        return call

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as missing."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "repgrowth"
                                         or key.startswith("repgrowth."))]
        for name, module, attr, mode, opts in targets:
            owner = sys.modules.get(f"repgrowth.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.add(name)
                continue
            wrapper = self.traced(name, mode, fn, **opts)
            if path:
                self._rebind(owner, leaf, wrapper)
            else:
                for mod in modules:
                    self._rebind_all(mod, fn, wrapper)

    def _rebind(self, owner, key, new) -> None:
        old = owner.__dict__[key]
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, old))

    def _rebind_all(self, mod, fn, new) -> None:
        for key, value in list(vars(mod).items()):
            if value is fn:
                self._rebind(mod, key, new)
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is fn or (isinstance(dval, tuple)
                                      and any(x is fn for x in dval)):
                        swapped = new if dval is fn else tuple(
                            new if x is fn else x for x in dval)
                        value[dkey] = swapped
                        self._undo.append(
                            lambda d=value, k=dkey, v=dval: d.__setitem__(k, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return (sum(1 for s in self.spans if s[0] == name)
                + sum(a[0] for (_, n, _), a in self.aggs.items() if n == name))

    def self_s(self, name: str, tag: str | None = None) -> float:
        return (sum((s[6] for s in self.spans
                    if s[0] == name and (tag is None or s[1] == tag)), 0.0)
                + sum(a[2] for (_, n, t), a in self.aggs.items()
                      if n == name and (tag is None or t == tag)))

    def useful_ratio(self) -> float:
        """Dominant weights returned per rootdata.sub call, under walks."""
        walk_of: list[bool] = []
        dominants = 0
        for s in self.spans:
            walk_of.append(s[0] in WALKS or (s[4] >= 0 and walk_of[s[4]]))
        subs = 0
        for (anchor, name, _), agg in self.aggs.items():
            if anchor < 0 or not walk_of[anchor]:
                continue
            if name == "rootdata.sub":
                subs += agg[0]
            elif name == "dominance.orbit_length" \
                    and self.spans[anchor][0] == "bounds.premet_lower":
                dominants += agg[0]
        dominants += self.counters["walk.dominant"]
        return dominants / subs if subs else 0.0

    def produced_ratio(self) -> float:
        runs = [s for s in self.spans if s[0].startswith("witness.")]
        return (sum(1 for s in runs if not s[7]) / len(runs)) if runs else 0.0

    def write(self, path) -> None:
        """Spans and folded aggregates as JSON lines."""
        with open(path, "w") as out:
            for i, (name, tag, start, end, parent, op, self_s, raised) \
                    in enumerate(self.spans):
                out.write(json.dumps({
                    "span": i, "name": name + (f".{tag}" if tag else ""),
                    "start": start, "end": end, "parent": parent, "op": op,
                    "self_s": self_s, "raised": raised}) + "\n")
            for (anchor, name, tag), (calls, total, self_s) \
                    in self.aggs.items():
                out.write(json.dumps({
                    "aggregate": name + (f".{tag}" if tag else ""),
                    "parent": anchor, "calls": calls, "total_s": total,
                    "self_s": self_s}) + "\n")


# ---------------------------------------------------------------------------
# The per-layer metrics: (name, unit, better, targets it reads, reader).

def _ratio(a, b):
    return a / b if b else 0.0


def _layer_metrics():
    out = []

    def add(name, unit, better, needs, read):
        out.append((name, unit, better, needs, read))

    def calls(target):
        add(f"{target}.calls", "count", "lower", (target,),
            lambda t: t.calls(target))

    def self_s(target, tag=None):
        suffix = f".{tag}" if tag else ""
        add(f"{target}.self_s{suffix}", "s", "lower", (target,),
            lambda t: t.self_s(target, tag))

    calls("rootdata.sub")
    calls("rootdata.root_combination")
    self_s("rootdata.root_combination")
    calls("dominance.orbit_length")
    self_s("dominance.orbit_length")
    add("dominance.walk.useful_ratio", "ratio", "higher",
        ("rootdata.sub", "dominance.orbit_length") + WALKS,
        Tracer.useful_ratio)
    self_s("dominance.saturated_dominant_set")
    calls("dominance.dominance_witness")
    self_s("dominance.dominance_witness")
    calls("dominance.verify")
    self_s("dominance.verify")
    add("dominance.verify.per_witness", "ratio", "lower",
        ("dominance.verify", "dominance.dominance_witness")
        + tuple(f"witness.{e}" for e in ENGINES),
        lambda t: _ratio(t.calls("dominance.verify"),
                         t.counters["witnesses"]))
    for engine in ENGINES:
        calls(f"witness.{engine}")
        self_s(f"witness.{engine}")
    add("witness.produced_ratio", "ratio", "higher",
        tuple(f"witness.{e}" for e in ENGINES), Tracer.produced_ratio)
    calls("bounds.premet_lower")
    self_s("bounds.premet_lower")
    self_s("bounds.f_interval")
    self_s("bounds.zeta_tail_check")
    calls("bounds.rn_upper")
    self_s("bounds.rn_upper")
    calls("intervals.certify_cmp")
    self_s("intervals.certify_cmp")
    add("intervals.evaluations", "count", "lower",
        ("intervals.certify_cmp",), lambda t: t.counters["evaluations"])
    for bits in LADDER:
        add(f"intervals.decided_at.{bits}", "count",
            "higher" if bits == LADDER[0] else "lower",
            ("intervals.certify_cmp",),
            lambda t, k=f"decided_at.{bits}": t.counters[k])
    add("intervals.unknown", "count", "lower", ("intervals.certify_cmp",),
        lambda t: t.counters["unknown"])
    for bits in LADDER:
        self_s("intervals.zeta_iv", str(bits))
    calls("intervals.enclosure")
    self_s("intervals.enclosure")
    calls("partitions.mullineux")
    for bucket in ("n10", "n20", "n30", "n40"):
        self_s("partitions.mullineux", bucket)
    self_s("partitions.partition_bound")
    self_s("cli.parse")
    self_s("cli.render")
    for command in REQUEST_COMMANDS:
        add(f"cli.requests.{command}.calls", "count", "higher", (),
            lambda t, key=f"request.{command}": t.counters[key])
    return out


REQUEST_COMMANDS = ("bound", "witness", "enumerate", "verify", "mullineux")
LAYER_METRICS = _layer_metrics()


def layer_values(passes: list[Tracer]) -> dict[str, float | None]:
    """Each metric's median over traced passes; None when a name it reads
    was not found in the package."""
    values: dict[str, float | None] = {}
    for name, _, _, needs, read in LAYER_METRICS:
        if any(n in passes[0].missing for n in needs):
            values[name] = None
        else:
            values[name] = statistics.median_low(read(t) for t in passes)
    return values
