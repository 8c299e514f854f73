"""Spans and call counts at the public boundaries of arcalg's layers.

The benchmark installs wrappers on module and class attributes for the
duration of one timed pass; nothing inside ``src/`` is edited.  Each call
of a wrapped function records one span (name, start, end, parent span,
operation id).  Spans stay in memory and are written out when the pass
ends.  A layer's self time is the duration of its spans minus the part
covered by their child spans.

Private functions (``diagrams._scan``, ``_smooth_crossing``,
``_join_pair``) are not wrapped: their work is visible only as self time
of the public function that calls them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import arcalg.cli
import arcalg.diagrams
import arcalg.freealg
import arcalg.ring
import arcalg.rewrite

# (owner, attribute, span name).  ``diagrams`` and ``cli`` bind some imports
# by name, so those are wrapped where the caller looks them up.
TARGETS = (
    (arcalg.ring.LaurentPoly, "__mul__", "ring.mul"),
    (arcalg.ring.LaurentPoly, "__add__", "ring.add"),
    (arcalg.ring, "loop_scalar", "ring.loop_scalar"),
    (arcalg.ring, "puncture_loop_scalar", "ring.puncture_loop_scalar"),
    (arcalg.freealg.AlgElement, "__mul__", "freealg.mul"),
    (arcalg.freealg.AlgElement, "__add__", "freealg.add"),
    (arcalg.rewrite.RewriteSystem, "normal_form", "rewrite.normal_form"),
    (arcalg.rewrite.RewriteSystem, "reduce_once", "rewrite.reduce_once"),
    (arcalg.rewrite.RewriteSystem, "find_redex", "rewrite.find_redex"),
    (arcalg.rewrite, "complete", "rewrite.complete"),
    (arcalg.rewrite, "critical_pairs", "rewrite.critical_pairs"),
    (arcalg.diagrams, "stack", "diagrams.stack"),
    (arcalg.diagrams, "evaluate", "diagrams.evaluate"),
    (arcalg.diagrams, "segment_hit", "geometry.segment_hit"),
    (arcalg.diagrams, "winding_number", "geometry.winding_number"),
    (arcalg.cli, "parse_element", "expressions.parse_element"),
    (arcalg.cli, "main", "cli.main"),
)

# Spans whose non-None results count as hits (redexes found, segments met).
_HIT_NAMES = frozenset({"rewrite.reduce_once", "rewrite.find_redex", "geometry.segment_hit"})


class Tracer:
    """Records spans while installed; ``op`` is the current operation id.

    Spans are kept in flat arrays, which the garbage collector does not
    scan, so a long pass does not slow down as its spans accumulate.
    """

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.hits: Counter = Counter()
        self.peak_support = 0
        self.pairs = 0
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for code, (owner, attr, name) in enumerate(TARGETS):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, code))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, code):
        codes, starts, ends, parents, op_ids = self.code, self.start, self.end, self.parent, self.op_id
        stack, clock = self._stack, time.perf_counter
        counts_hits = name in _HIT_NAMES
        is_reduce = name == "rewrite.reduce_once"
        is_pairs = name == "rewrite.critical_pairs"

        def wrapper(*args, **kwargs):
            if is_reduce:
                self.peak_support = max(self.peak_support, len(args[1].support()))
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counts_hits and result is not None:
                self.hits[name] += 1
            if is_pairs:
                self.pairs += len(result)
            return result

        return wrapper

    def spans(self):
        """(name, start, end, parent index, op id) for every recorded call."""
        names = self.names
        return zip(map(names.__getitem__, self.code), self.start, self.end, self.parent, self.op_id)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = defaultdict(float)
        for parent, d in zip(self.parent, durations):
            if parent >= 0:
                child_time[parent] += d
        calls: Counter = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        cli_nf = 0.0  # normal forms called directly by cli.main
        names = self.names
        for index, (code, parent, d) in enumerate(zip(self.code, self.parent, durations)):
            name = names[code]
            calls[name] += 1
            total[name] += d
            self_time[name] += d - child_time[index]
            if name == "rewrite.normal_form" and parent >= 0 and names[self.code[parent]] == "cli.main":
                cli_nf += d
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_time),
            "hits": dict(self.hits),
            "peak_support": self.peak_support,
            "critical_pairs": self.pairs,
            "cli_overhead_s": total["cli.main"] - cli_nf,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans():
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
