"""Outside-in spans around the public functions of ``fcmc``.

The tracer wraps functions from the benchmark's side; ``fcmc`` itself is
never edited.  A wrapper replaces the function *everywhere it is bound*:
in its defining module, in every ``fcmc`` module that ``from``-imported
it, and in the package namespace.  Methods are wrapped on the class that
defines them, on every ``FcInstance`` subclass for ``compose``.

Each call records a span (id, name, parent id, start, end).  Self time is
a span's duration minus the durations of its direct children; calls run
one at a time on one thread, so children never overlap.  Spans are kept
in memory (the first ``SPAN_CAP`` verbatim, all of them in the per-name
totals) and written out once the pass ends.

Counters that a span alone cannot give are computed from the arguments
and results of the wrapped call, outside the program:

* ``chain.compose_end.tuples_scanned`` - the product of the dimensions
  of the composite's input complexes, i.e. the basis tuples the dense
  loop visits (computed, not counted inside ``compose_end``);
* ``chain.compose_end.fill_ratio`` - result table entries over that
  product;
* ``freedg.delta_generator.hit_ratio`` - one minus the distinct
  (structure, generator) keys over calls;
* ``multicat.checked_ratio`` - checked over checked plus skipped.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from math import prod

SPAN_CAP = 100_000
JOB_SPAN = "bench.job"

# (span name, module, attribute); several functions may share a name
FUNCTIONS = [
    ("graphs.enumerate_profile_loops", "fcmc.graphs",
     "enumerate_profile_loops"),
    ("graphs.endpoint_closed", "fcmc.graphs", "is_endpoint_closed"),
    ("graphs.endpoint_closed", "fcmc.graphs", "endpoint_violation"),
    ("labels.fiber", "fcmc.labels", "fiber"),
    ("labels.decompose", "fcmc.labels", "decompose"),
    ("multicat.check_axioms", "fcmc.multicat", "check_axioms"),
    ("multicat.is_factor_closed", "fcmc.multicat", "is_factor_closed"),
    ("chain.hat_d", "fcmc.chain", "hat_d"),
    ("chain.compose_end", "fcmc.chain", "compose_end"),
    ("chain.check_end_dg", "fcmc.chain", "check_end_dg"),
    ("algebra.check_algebra", "fcmc.algebra", "check_algebra"),
    ("algebra.evaluate_alpha", "fcmc.algebra", "evaluate_alpha"),
    ("algebra.direct", "fcmc.algebra", "check_ainfty_direct"),
    ("algebra.direct", "fcmc.algebra", "check_category_direct"),
    ("algebra.direct", "fcmc.algebra", "check_bimodule_direct"),
    ("serde.parse", "fcmc.serde", "loads_doc"),
    ("serde.parse", "fcmc.serde", "graph_from_doc"),
    ("serde.parse", "fcmc.serde", "instance_from_doc"),
    ("serde.parse", "fcmc.serde", "freedg_from_doc"),
    ("serde.parse", "fcmc.serde", "algebra_job_from_doc"),
    ("serde.emit", "fcmc.serde", "dumps_doc"),
    ("serde.emit", "fcmc.serde", "report_to_doc"),
    ("serde.emit", "fcmc.serde", "check_report_doc"),
    ("serde.emit", "fcmc.serde", "report_set_to_doc"),
    ("cli.main", "fcmc.cli", "main"),
]

# (span name, module, class, method)
METHODS = [
    ("freedg.delta_generator", "fcmc.freedg", "FreeDgFc", "delta_generator"),
    ("freedg.delta", "fcmc.freedg", "FreeDgFc", "delta"),
    ("freedg.generators", "fcmc.freedg", "FreeDgFc", "generators"),
]
COMPOSE_SPAN = "multicat.compose"


class Tracer:
    """Span stack, per-name totals and derived counters for one pass."""

    def __init__(self):
        self.stack: list[list] = []        # [span id, child seconds]
        self.next_id = 0
        self.spans: list[tuple] = []       # (id, name, parent, t0, t1)
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._job_keys: set = set()
        self._job_owners: dict = {}        # keeps id() keys unambiguous

    # ------------------------------------------------------------- spans

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may add
        counters."""
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name, parent, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def end_job(self):
        """Fold the per-job distinct generator keys into the totals."""
        self.count("freedg.delta_generator.distinct", len(self._job_keys))
        self._job_keys.clear()
        self._job_owners.clear()

    # ---------------------------------------------------------- counters

    def _after_check_axioms(self, args, kwargs, rep):
        self.count("multicat.identities_checked", rep.checked)
        self.count("multicat.identities_skipped", rep.skipped)

    def _after_relations(self, args, kwargs, rep):
        self.count("algebra.relations_checked", rep.checked)
        self.count("algebra.relations_failed", len(rep.failures))

    def _after_compose_end(self, args, kwargs, xi):
        X = args[0]
        self.count("chain.compose_end.tuples_scanned",
                   prod(X.complex(e).basis.dim() for e in xi.inputs))
        self.count("chain.compose_end.entries", len(xi.table))

    def _after_delta_generator(self, args, kwargs, cell):
        fc, gen = args[0], args[1]
        self._job_keys.add((id(fc), gen.name))
        self._job_owners[id(fc)] = fc

    def _after_delta(self, args, kwargs, cell):
        terms = getattr(cell, "terms", None)
        if terms is not None:
            self.count("freedg.delta.terms_out", len(terms))

    def _after_dumps(self, args, kwargs, text):
        self.count("serde.bytes_out", len(text.encode("utf-8")))

    # ----------------------------------------------------------- install

    def install(self):
        """Replace every binding of the traced functions and methods."""
        after = {
            ("fcmc.multicat", "check_axioms"): self._after_check_axioms,
            ("fcmc.algebra", "check_algebra"): self._after_relations,
            ("fcmc.algebra", "check_ainfty_direct"): self._after_relations,
            ("fcmc.algebra", "check_category_direct"): self._after_relations,
            ("fcmc.algebra", "check_bimodule_direct"): self._after_relations,
            ("fcmc.chain", "compose_end"): self._after_compose_end,
            ("fcmc.serde", "dumps_doc"): self._after_dumps,
            ("fcmc.freedg", "delta_generator"): self._after_delta_generator,
            ("fcmc.freedg", "delta"): self._after_delta,
        }
        modules = [m for n, m in sys.modules.items()
                   if (n == "fcmc" or n.startswith("fcmc.")) and m]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.span(name, orig, after.get((modname, attr)))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        for name, modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            setattr(cls, meth, self.span(name, vars(cls)[meth],
                                         after.get((modname, meth))))
        base = sys.modules["fcmc.multicat"].FcInstance
        for cls in _subclasses(base):
            if "compose" in vars(cls):
                cls.compose = self.span(COMPOSE_SPAN, vars(cls)["compose"])

    # ------------------------------------------------------------ output

    def metrics(self) -> dict:
        """Per-name totals and the derived counters, as plain numbers."""
        c = self.counters
        checked = c.get("multicat.identities_checked", 0)
        skipped = c.get("multicat.identities_skipped", 0)
        scanned = c.get("chain.compose_end.tuples_scanned", 0)
        dg_calls = self.calls.get("freedg.delta_generator", 0)
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(c),
            "multicat.checked_ratio":
                checked / (checked + skipped) if checked + skipped else 0.0,
            "chain.compose_end.fill_ratio":
                c.get("chain.compose_end.entries", 0) / scanned
                if scanned else 0.0,
            "freedg.delta_generator.hit_ratio":
                1 - c.get("freedg.delta_generator.distinct", 0) / dg_calls
                if dg_calls else 0.0,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        """Spans as JSON: names once, then (id, name index, parent, start,
        end) rows with times relative to the first span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = self.spans[0][3] if self.spans else 0.0
        rows = [[sid, index[n], parent, round(t0 - base, 9),
                 round(t1 - base, 9)]
                for sid, n, parent, t0, t1 in sorted(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["id", "name", "parent",
                                                   "start_s", "end_s"],
                       "dropped": self.dropped, "spans": rows}, fh)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
