"""Spans around the public functions of dsheffer, recorded from outside.

The benchmark installs a wrapper on each traced function only for its traced
pass and restores the originals afterwards.  Spans stay in memory as
``(trace, span, parent, name, start, end)``, one trace id per CLI operation,
and every per-layer number is derived from them when the pass is over.
Bit heights are read from return values after the operation's root span has
closed, so measuring them adds to no span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path


def _max_bits(values) -> int:
    best = 0
    for c in values:
        c = Fraction(c)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _series_bits(series) -> int:
    return _max_bits(series.coeffs)


def _seq_bits(seq) -> int:
    return max(_max_bits(p.coeffs) for p in seq)


def _pair_bits(pair) -> int:
    return max(_series_bits(pair.A), _series_bits(pair.Hx))


# (module, attribute path, span name, observation on the return value)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("catalog", "family_generating", "catalog.family_generating",
     ("sheffer.pair.max_bits", _pair_bits)),
    ("catalog", "family_lowering", "catalog.family_lowering", None),
    ("sheffer", "pair_from_couple", "sheffer.pair_from_couple",
     ("sheffer.pair.max_bits", _pair_bits)),
    ("sheffer", "expand_polynomials", "sheffer.expand_polynomials",
     ("sheffer.seq.max_bits", _seq_bits)),
    ("sheffer", "check_conditions", "sheffer.check_conditions", None),
    ("series", "Series.reversion", "series.Series.reversion", None),
    ("series", "Series.compose", "series.Series.compose", None),
    ("series", "Poly.shift", "series.Poly.shift", None),
    ("operators", "lowering_from_H", "operators.lowering_from_H",
     ("operators.hstar.max_bits", lambda op: _series_bits(op.hstar))),
    ("operators", "FunctionalVector.__init__", "operators.FunctionalVector", None),
    ("operators", "functional_eval", "operators.functional_eval", None),
    ("operators", "apply_lowering", "operators.apply_lowering", None),
    ("dorth", "extract_recurrence", "dorth.extract_recurrence", None),
    ("dorth", "verify_duality", "dorth.verify_duality", None),
    ("dorth", "verify_d_orthogonality", "dorth.verify_d_orthogonality",
     ("dorth.verify_d_orthogonality.cells", lambda report: len(report.cells))),
    ("dorth", "verify_lowering", "dorth.verify_lowering", None),
    ("render", "dump_json", "render.dump_json", None),
)

# Observations summed over the pass; the others keep their maximum.
SUMMED = {"dorth.verify_d_orthogonality.cells"}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.observed: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._pending: list[tuple[str, object, object]] = []
        self._trace = 0
        self._next_span = 0
        # run.py points this at the speed meter's clock, which skips its samples
        self.clock = time.perf_counter

    def _wrap(self, name: str, fn, observe):
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((self._trace, span, parent, name, start, end))
            if observe is not None:
                self._pending.append((observe[0], observe[1], result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target, in its module and wherever it was imported by name."""
        restore = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dsheffer" or n.startswith("dsheffer."))]
        try:
            for module_name, path, name, observe in TARGETS:
                module = sys.modules[f"dsheffer.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, observe))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def operation(self, trace_id: int):
        """Start the trace of one operation; returns a callable that ends it."""
        self._trace = trace_id

        def end():
            for metric, measure, result in self._pending:
                value = measure(result)
                if metric in SUMMED:
                    self.observed[metric] += value
                else:
                    self.observed[metric] = max(self.observed[metric], value)
            self._pending.clear()

        return end

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (total minus direct children)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _, span, _, name, start, end in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span]
        return totals

    def write(self, path: Path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for trace, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
