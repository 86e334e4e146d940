"""In-memory span tracer for the traced benchmark pass.

The tracer replaces module attributes of ``listsched`` with wrappers that
record one span per call: ``(id, name, start, end, parent, op)``.  Wrappers
go on the names callers actually look up (``harness`` and ``oracle`` import
``run_online`` and ``opt_exact`` by name, so those bindings are wrapped too),
and ``uninstall`` puts every original back.  Arithmetic on ``Time`` is far
too hot for spans, so its operators are only counted, in a pass of their
own (see ``bench/run.py``).

Nothing here runs unless a benchmark run is made with ``--trace 1``; the
end-to-end figures are always measured with the tracer uninstalled.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# span fields
ID, NAME, START, END, PARENT, OP = range(6)

# Time operators counted (not spanned) in the traced pass
TIME_COUNTERS = {
    "__init__": "model.time_init",
    "__add__": "model.time_add",
    "__radd__": "model.time_add",
    "__lt__": "model.time_lt",
    "__eq__": "model.time_eq",
    "__truediv__": "model.time_div",
    "__hash__": "model.time_hash",
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """A function that runs ``fn`` inside a span called ``name``.

        ``after(tracer, span, args, kwargs, result)`` runs once the span has
        closed and may add to ``tracer.counts``.
        """
        open_span, close_span = self._open, self._close

        def wrapper(*args, **kwargs):
            sid, start = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = close_span(sid, name, start)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return wrapper

    def wrap_iter(self, name, fn):
        """Like ``wrap`` for a generator function: one span per resumption.

        A generator's body runs interleaved with its consumer, so a single
        span over its lifetime would swallow the consumer's own time.
        """
        open_span, close_span = self._open, self._close

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    sid, start = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid, name, start)
                    yield item

            return resumed()

        return wrapper

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, name: str, start: float) -> tuple:
        end = time.perf_counter()
        self._stack.pop()
        # a tuple of atoms drops out of the garbage collector's tracking,
        # so a long trace does not slow the collections it sits through
        span = (sid, name, start, end, self._stack[-1] if self._stack else None, self.op_id)
        self.spans[sid] = span
        return span

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation on listsched ---------------------------------------

    def install(self, ls) -> None:
        """Wrap the public functions of every ``listsched`` module.

        ``ls`` is the imported package; its submodules are reached through
        it so the tracer never imports a second copy.  Each function is
        wrapped in every module that binds it by name.
        """
        cli, families, harness, online, oracle = ls.cli, ls.families, ls.harness, ls.online, ls.oracle
        spanned = [
            # (span name, function, modules binding it, after-hook)
            ("online.run_online", online.run_online, (online, oracle, harness, ls), _after_run_online),
            ("oracle.opt_exact", oracle.opt_exact, (oracle, harness, ls), _after_opt_exact),
            ("oracle.lower_bound", oracle.lower_bound, (oracle, ls), None),
            ("oracle.lpt_makespan", oracle.lpt_makespan, (oracle, ls), None),
            ("harness.competitive_ratio", harness.competitive_ratio, (harness, cli, ls), None),
            ("harness.verify_bound", harness.verify_bound, (harness, cli, ls), None),
            ("harness.worst_order_search", harness.worst_order_search, (harness, cli, ls),
             _after_worst_order),
            ("harness.table2", harness.table2, (harness, cli, ls), None),
            ("multiperm.unrank_permutation", harness.unrank_permutation, (harness,), None),
            ("multiperm.permutation_count", harness.permutation_count, (harness,), None),
            ("cli.main", cli.main, (cli,), None),
        ]
        spanned += [
            ("families." + fn.__name__, fn, (families, harness, cli, ls), _after_family)
            for fn in (families.generate, families.gen_class1, families.gen_class2,
                       families.gen_graham_tight, families.gen_faigle)
        ]
        for name, fn, owners, after in spanned:
            self._patch_everywhere(owners, fn.__name__, self.wrap(name, fn, after))
        self._patch_everywhere((harness,), "iter_permutations", self.wrap_iter(
            "multiperm.iter_permutations", harness.iter_permutations))

    def _patch_everywhere(self, owners, attr: str, replacement) -> None:
        for owner in owners:
            if attr in vars(owner):
                self.patch(owner, attr, replacement)

    def count_time_ops(self, Time) -> None:
        """Count calls of ``Time``'s operators (no spans)."""
        for attr, key in TIME_COUNTERS.items():
            self.patch(Time, attr, self.counted(key, vars(Time)[attr]))


def _after_run_online(tracer, span, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    steps = len(result[1])
    tracer.counts["online.jobs_placed"] += steps
    tracer.counts["online.trace_loads_copied"] += 2 * instance.machines * steps
    # every library caller unpacks ``schedule, _``: the trace is dropped
    if span[PARENT] is not None:
        tracer.counts["online.trace_steps_discarded"] += steps


def _after_opt_exact(tracer, span, args, kwargs, result):
    tracer.counts["oracle.nodes"] += result.nodes_explored
    tracer.counts["oracle.kind." + result.kind] += 1


def _after_worst_order(tracer, span, args, kwargs, result):
    tracer.counts["harness.orders_examined"] += result.orders_examined


def _after_family(tracer, span, args, kwargs, result):
    tracer.counts["families.jobs_generated"] += len(result.instance.jobs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The run is single-threaded, so the children of one span never overlap
    and their covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[span[ID]] for span in spans]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (inclusive) and ``self_s``."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span[END] - span[START]
        row["self_s"] += own
    return out


def write_spans(spans, path: Path) -> None:
    """Write spans as JSON Lines, one object per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span)),
                               separators=(",", ":")) + "\n")


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from spans and counters."""
    rows = summarize(spans)

    def get(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    def ratio(x: float, y: float) -> float:
        return x / y if y else 0.0

    online_s = get("online.run_online", "busy_s")
    opt_calls = get("oracle.opt_exact", "calls")
    opt_self = get("oracle.opt_exact", "self_s")
    search_s = get("harness.worst_order_search", "busy_s")
    family_rows = [row for name, row in rows.items() if name.startswith("families.")]
    metrics = {
        "online.calls": get("online.run_online", "calls"),
        "online.busy_s": online_s,
        "online.jobs_placed": counts["online.jobs_placed"],
        "online.jobs_per_s": ratio(counts["online.jobs_placed"], online_s),
        "online.trace_steps_discarded": counts["online.trace_steps_discarded"],
        "online.trace_loads_copied": counts["online.trace_loads_copied"],
        "oracle.opt_exact.calls": opt_calls,
        "oracle.opt_exact.self_s": opt_self,
        "oracle.nodes": counts["oracle.nodes"],
        "oracle.nodes_per_s": ratio(counts["oracle.nodes"], opt_self),
        "oracle.certified_frac": ratio(counts["oracle.kind.certified-by-bound"], opt_calls),
        "oracle.undecided": counts["oracle.kind.lower-bound-only"],
        "oracle.lower_bound.busy_s": get("oracle.lower_bound", "busy_s"),
        "oracle.lpt_makespan.busy_s": get("oracle.lpt_makespan", "busy_s"),
        "harness.competitive_ratio.calls": get("harness.competitive_ratio", "calls"),
        "harness.competitive_ratio.self_s": get("harness.competitive_ratio", "self_s"),
        "harness.verify_bound.self_s": get("harness.verify_bound", "self_s"),
        "harness.worst_order_search.self_s": get("harness.worst_order_search", "self_s"),
        "harness.orders_examined": counts["harness.orders_examined"],
        "harness.orders_per_s": ratio(counts["harness.orders_examined"], search_s),
        "harness.table2.self_s": get("harness.table2", "self_s"),
        "multiperm.iter_permutations.busy_s": get("multiperm.iter_permutations", "busy_s"),
        "multiperm.unrank_permutation.calls": get("multiperm.unrank_permutation", "calls"),
        "multiperm.unrank_permutation.busy_s": get("multiperm.unrank_permutation", "busy_s"),
        "multiperm.permutation_count.busy_s": get("multiperm.permutation_count", "busy_s"),
        "families.calls": sum(row["calls"] for row in family_rows),
        "families.busy_s": sum(row["busy_s"] for row in family_rows),
        "families.jobs_generated": counts["families.jobs_generated"],
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
    }
    for key in sorted(set(TIME_COUNTERS.values())):
        metrics[key] = counts[key]
    return metrics
