"""Spans recorded around the benchmark's own calls into `bcd`.

Every call into a public function of a `bcd` module goes through
`tracer.call(name, fn, *args)`.  The untraced run uses `NullTracer`, whose
`call` is a plain call, so both runs execute the same benchmark code.  A
`Tracer` keeps spans in memory: name, start, end, parent span, op id, an
outcome (the call's bool or verdict result, or "error" if it raised) and a
work count (nodes parsed, matrix entries filled).  `Tracer.spans` is written out once at the end.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

# Span record fields, by index.
NAME, START, END, PARENT, OP, OUTCOME, WORK = range(7)


class NullTracer:
    """No spans, no counts: the untraced run."""

    def call(self, name, fn, *args, work=0):
        return fn(*args)

    def begin_op(self, op_id, kind):
        pass

    def end_op(self):
        pass

    def count(self, name, value=1):
        pass

    def note(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, op, outcome, work]
        self.counts = {}
        self._op = -1
        self._op_span = None

    def call(self, name, fn, *args, work=0):
        outcome = "error"
        start = perf_counter_ns()
        try:
            result = fn(*args)
            outcome = result if isinstance(result, bool) else getattr(result, "value", None)
            return result
        finally:
            self.spans.append(
                [name, start, perf_counter_ns(), self._op_span, self._op, outcome, work]
            )

    def begin_op(self, op_id, kind):
        self._op = op_id
        self._op_span = len(self.spans)
        self.spans.append(["op." + kind, perf_counter_ns(), None, None, op_id, None, 0])

    def end_op(self):
        self.spans[self._op_span][END] = perf_counter_ns()
        self._op = -1
        self._op_span = None

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def note(self, name, value):
        self.counts[name] = value

    def self_times(self) -> list:
        """Self time of every span in ns: its duration minus its children's."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per span with its self time."""
        own = self.self_times()
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s, t in zip(self.spans, own):
                f.write(json.dumps(s + [t]) + "\n")


def layer_metrics(tracer: Tracer, model_configs) -> dict:
    """Per-layer sums from the spans and counts: {metric: (value, unit)}.

    Every metric is present, at 0 when the workload never reaches its layer.
    """
    total = {}  # (name, outcome) -> [ns, calls, work]
    for s in tracer.spans:
        key = (s[NAME], s[OUTCOME])
        acc = total.setdefault(key, [0, 0, 0])
        acc[0] += s[END] - s[START]
        acc[1] += 1
        acc[2] += s[WORK]

    def pick(name, outcome=Ellipsis):
        ns = calls = work = 0
        for (n, o), (t, c, w) in total.items():
            if n == name and (outcome is Ellipsis or o == outcome):
                ns, calls, work = ns + t, calls + c, work + w
        return ns / 1e9, calls, work

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    for name in ("syntax.parse", "syntax.render", "factors.factors"):
        s, calls, work = pick(name)
        m[name + ".s"] = (s, "s")
        m[name + ".calls"] = (calls, "count")
        m[name + ".nodes_per_s"] = (rate(work, s), "nodes/s")
    m["decide.subseteq_true.s"] = (pick("decide.subseteq", True)[0], "s")
    m["decide.subseteq_false.s"] = (pick("decide.subseteq", False)[0], "s")
    m["decide.subseteq.calls"] = (pick("decide.subseteq")[1], "count")
    for name in ("decide.explain", "decide.equiv"):
        s, calls, _ = pick(name)
        m[name + ".s"] = (s, "s")
        m[name + ".calls"] = (calls, "count")
    s, calls, work = pick("decide.matrix")
    m["decide.matrix.s"] = (s, "s")
    m["decide.matrix.calls"] = (calls, "count")
    m["decide.matrix.entries_per_s"] = (rate(work, s), "entries/s")
    m["rewrite.search_confirmed.s"] = (pick("rewrite.search", "confirmed")[0], "s")
    m["rewrite.search_unknown.s"] = (pick("rewrite.search", "unknown")[0], "s")
    m["rewrite.search.calls"] = (pick("rewrite.search")[1], "count")
    c = tracer.counts
    pairs = c.get("rewrite.search.pairs", 0)
    congruent = c.get("rewrite.search.congruent_pairs", 0)
    m["rewrite.search.pairs"] = (pairs, "count")
    m["rewrite.search.confirmed_share"] = (
        c.get("rewrite.search.confirmed_pairs", 0) / pairs if pairs else 0.0,
        "share",
    )
    m["rewrite.search.congruent_pairs"] = (congruent, "count")
    m["rewrite.search.retry_share"] = (
        c.get("rewrite.search.retried_pairs", 0) / congruent if congruent else 0.0,
        "share",
    )
    for name in ("slat_canonical", "dist_normal_form", "dept_normal_form"):
        m[f"rewrite.{name}.s"] = (pick("rewrite." + name)[0], "s")
    for config in model_configs:
        m[f"model.build_model.{config}.s"] = (pick("model.build_model." + config)[0], "s")
        m[f"model.carrier_size.{config}"] = (c.get("model.carrier_size." + config, 0), "count")
    for name in ("eval", "class_index", "satisfies_eq"):
        m[f"model.{name}.s"] = (pick("model." + name)[0], "s")
    s, calls, _ = pick("cli.process")
    m["cli.process.s"] = (s, "s")
    m["cli.process.calls"] = (calls, "count")

    own = tracer.self_times()
    by_module = {mod: 0 for mod in MODULES}
    op_self = 0
    for span, t in zip(tracer.spans, own):
        mod = span[NAME].split(".", 1)[0]
        if mod == "op":
            op_self += t
        else:
            by_module[mod] += t
    for mod, t in by_module.items():
        m[mod + ".self_s"] = (t / 1e9, "s")
    m["bench.op.self_s"] = (op_self / 1e9, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


MODULES = ("syntax", "factors", "decide", "rewrite", "model", "cli")

