"""Outside-in layer trace of the multifix library.

The tracer wraps public functions under every name that a ``multifix``
module bound them to (``multifix.conditions.compare_L`` and
``multifix.solver.compare_L`` are both replaced), so nothing inside the
package changes.  Coarse calls record spans (name, start, end, parent); hot
leaves only add to call-count and time totals under the innermost open span,
so memory stays bounded.  Everything is held in memory and read once at the
end through :meth:`Tracer.metrics`.  A target that the package no longer
defines is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Coarse calls, as (module, attribute path).  A dotted path is a classmethod.
SPANS = [
    ("problemfile", "load_problem"),
    ("spaces", "DistanceSpace.from_matrix"),
    ("spaces", "classify_finite"),
    ("orders", "OrderRelation.from_pairs"),
    ("product", "product_points"),
    ("operators", "MultiOperator.from_table"),
    ("conditions", "check_omega"),
    ("conditions", "check_mk"),
    ("conditions", "check_mk_operator"),
    ("conditions", "check_lattice"),
    ("conditions", "check_order_distance_compat"),
    ("conditions", "sample_comparable_pairs"),
    ("solver", "picard_solve"),
    ("solver", "enumerate_fixed_points"),
    ("solver", "find_monotone_start"),
    ("solver", "verify_uniqueness"),
    ("game", "simulate"),
    ("game", "write_trajectory_csv"),
]
# Hot leaves, called up to millions of times per command.
LEAVES = [
    ("orders", "compare_L"),
    ("product", "sup_distance"),
    ("operators", "apply_lambda_f"),
]
# Counts read from a span's return value.
RESULT_COUNTS = {
    "solver.picard_solve": ("iterations", lambda report: report.iterations),
    "game.simulate": ("rounds", lambda traj: len(traj.rounds)),
}
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, result count]
        self._stack = []
        # (enclosing span index, leaf name) -> [calls, seconds, true results]
        self.leaves = defaultdict(lambda: [0, 0.0, 0])
        self._points = set()  # hashes of distinct apply_lambda_f arguments
        self.distinct_points = 0
        self._restore = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(name, (None, None))[1]

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()
            if count is not None:
                record[4] = count(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        leaves, stack, points = self.leaves, self._stack, self._points
        track_points = name == "operators.apply_lambda_f"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            totals = leaves[stack[-1] if stack else -1, name]
            totals[0] += 1
            totals[1] += elapsed
            if result is True:  # compare_L found the pair comparable
                totals[2] += 1
            if track_points:
                points.add(hash(args[2]))
            return result

        return wrapper

    def run_main(self, main, argv):
        """Run one CLI command as a root span; distinct product points are
        counted per command."""
        self._points.clear()
        try:
            return self.span(ROOT, main)(argv)
        finally:
            self.distinct_points += len(self._points)

    # -- patching -----------------------------------------------------------

    def install(self):
        for targets, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for module, attr in targets:
                mod = sys.modules.get(f"multifix.{module}")
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    original = vars(cls).get(meth) if cls is not None else None
                    if isinstance(original, classmethod):
                        wrapped = classmethod(make(name, original.__func__))
                        self._patch(cls, meth, original, wrapped)
                    continue
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                wrapped = make(name, original)
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other_name.split(".")[0] != "multifix":
                        continue
                    if vars(other).get(attr) is original:
                        self._patch(other, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals over every traced command.

        ``.s`` is the summed span duration, ``.self_s`` subtracts the child
        spans and the leaf time recorded directly under the span, ``.calls``
        counts calls.  ``cli.self_s`` is the self time of ``main()``.
        """
        dur = [end - start for _, start, end, _, _ in self.spans]
        inner = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                inner[parent] += dur[i]
        for (parent, _), (_, seconds, _) in self.leaves.items():
            if parent >= 0:
                inner[parent] += seconds

        out = {}
        for name in [f"{module}.{attr}" for module, attr in SPANS] + [ROOT]:
            out[f"{name}.s"] = out[f"{name}.self_s"] = out[f"{name}.calls"] = 0
        for span_name, (count_name, _) in RESULT_COUNTS.items():
            out[f"{span_name}.{count_name}"] = 0
        for i, (name, _, _, _, count) in enumerate(self.spans):
            out[f"{name}.s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - inner[i]
            out[f"{name}.calls"] += 1
            if count is not None:
                out[f"{name}.{RESULT_COUNTS[name][0]}"] += count
        out["cli.self_s"] = out[f"{ROOT}.self_s"]

        for module, attr in LEAVES:
            name = f"{module}.{attr}"
            totals = [t for (_, leaf), t in self.leaves.items() if leaf == name]
            out[f"{name}.calls"] = sum(t[0] for t in totals)
            out[f"{name}.s"] = sum(t[1] for t in totals)
        calls = out["orders.compare_L.calls"]
        trues = sum(t[2] for (_, leaf), t in self.leaves.items() if leaf == "orders.compare_L")
        out["orders.compare_L.true_ratio"] = trues / calls if calls else 0.0
        calls = out["operators.apply_lambda_f.calls"]
        out["operators.apply_lambda_f.calls_per_point"] = (
            calls / self.distinct_points if self.distinct_points else 0.0
        )
        return dict(out)
