"""In-memory span tracer that wraps hubnet's layer entry points from outside.

``Tracer.install`` replaces each traced function wherever a ``hubnet``
module binds it by name (``metaheuristics`` imports ``_repair_mask`` and
friends by name, ``workbench`` imports ``write_csv``, ...) and each traced
method on its class, with a wrapper that records a span -- name, start,
end, parent -- plus a few outcome counters.  ``uninstall`` puts every
original back.  A wrapper passes its arguments through and returns the
result unchanged, so a traced run writes the same fronts as an untraced
one; only its wall time grows.

``summary`` folds the spans into additive totals (``<span>.calls``,
``<span>.s`` inclusive seconds, ``<span>.self_s`` and ``<layer>.self_s``,
where self time is a span's duration minus the time its child spans
cover), so totals from several passes or processes can simply be summed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _decode_outcome(counts: Counter, args: tuple, result) -> None:
    if result is None:
        counts["encoding.decode.undecodable"] += 1


def _repair_outcome(counts: Counter, args: tuple, result) -> None:
    if result is None:
        counts["encoding.repair.unrepairable"] += 1
    else:
        # hub-routed pairs in minus hub-routed pairs out
        counts["encoding.repair.flips"] += int(args[2].sum()) - int(result.sum())


def _population_outcome(counts: Counter, args: tuple, result) -> None:
    counts["metaheuristics.evals"] += len(args[1])


def _add_outcome(counts: Counter, args: tuple, result) -> None:
    if result:
        counts["archive.add.accepted"] += 1


def _index_outcome(counts: Counter, args: tuple, result) -> None:
    counts["exact.configs"] += result.total


def _bb_outcome(counts: Counter, args: tuple, result) -> None:
    if result is not None:
        counts["exact.bb_routing.found"] += 1


def _solve_min_outcome(counts: Counter, args: tuple, result) -> None:
    if result is None:
        counts["exact.solve_min.none"] += 1


# (span name, defining module, function, outcome hook).  The wrapper
# replaces every module-level binding of the function in hubnet.*
FUNCTIONS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("encoding.decode", "hubnet.encoding", "_decode_arrays", _decode_outcome),
    ("encoding.repair", "hubnet.encoding", "_repair_mask", _repair_outcome),
    ("evaluation.hub_tables", "hubnet.evaluation", "hub_tables", None),
    ("evaluation.evaluate_mask", "hubnet.evaluation", "evaluate_mask", None),
    ("fronts.nondominated_sort", "hubnet.fronts", "nondominated_sort", None),
    ("fronts.crowding_distance", "hubnet.fronts", "crowding_distance", None),
    ("metaheuristics.evaluate_population", "hubnet.metaheuristics",
     "_evaluate_population", _population_outcome),
    ("metaheuristics.variation", "hubnet.metaheuristics", "_tournament", None),
    ("metaheuristics.variation", "hubnet.metaheuristics", "_variation", None),
    ("metaheuristics.run", "hubnet.metaheuristics", "run_nsga2", None),
    ("metaheuristics.run", "hubnet.metaheuristics", "run_mopso", None),
    ("metaheuristics.run", "hubnet.metaheuristics", "run_mowoa", None),
    ("exact.front", "hubnet.exact", "epsilon_constraint_front", None),
    ("exact.build_index", "hubnet.exact", "_build_index", _index_outcome),
    ("exact.build_repair", "hubnet.exact", "_build_repair", None),
    ("exact.conditional_lb", "hubnet.exact", "_conditional_lb", None),
    ("exact.solve_min", "hubnet.exact", "_solve_min", _solve_min_outcome),
    ("exact.bb_routing", "hubnet.exact", "_bb_routing", _bb_outcome),
    ("exact.pair_data_build", "hubnet.exact", "_pair_data", None),
    ("analysis.compute_metrics", "hubnet.analysis", "compute_metrics", None),
    ("analysis.topsis_rank", "hubnet.analysis", "topsis_rank", None),
    ("fileio.load_instance", "hubnet.fileio", "load_instance", None),
    ("fileio.write_csv", "hubnet.fileio", "write_csv", None),
    ("workbench.run_compare", "hubnet.workbench", "run_compare", None),
]

# (span name, defining module, class, method, outcome hook)
METHODS: list[tuple[str, str, str, str, Optional[Callable]]] = [
    ("archive.add", "hubnet.archive", "GridArchive", "add", _add_outcome),
    ("archive.select_leader", "hubnet.archive", "GridArchive", "select_leader", None),
    ("exact.pair_data", "hubnet.exact", "_ExactIndex", "pair_data", None),
    ("fronts.from_candidates", "hubnet.fronts", "ParetoFront", "from_candidates", None),
]


class Tracer:
    """Spans and counters of one traced region; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        import hubnet  # noqa: F401  (loads every hubnet module)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hubnet" or k.startswith("hubnet."))]
        for name, module, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for name, module, cls_name, attr, hook in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, hook)))
            else:
                self._set(cls, attr, self._wrap(name, raw, hook))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """Additive totals: calls, inclusive and self seconds, counters."""
        out: dict[str, float] = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            own = end - start - child
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += own
            out[name.split(".", 1)[0] + ".self_s"] += own
        out.update(self.counts)
        return dict(out)


def merge(*summaries: dict[str, float]) -> dict[str, float]:
    """Sum of several ``Tracer.summary`` dictionaries."""
    total: Counter = Counter()
    for s in summaries:
        total.update(s)
    return dict(total)
