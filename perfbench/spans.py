"""In-memory spans around unambig's layer boundaries, for the traced run.

The package is never edited: ``Recorder.install`` replaces selected public
functions with timing wrappers wherever a module of the package holds them,
that is, in the defining module and at every import site, so calls between
modules and the benchmark's own calls are all seen.  ``words`` and
``morphisms`` are not wrapped: their calls are too fine-grained to time from
outside without the wrapper dominating, so their time stays in the caller's
self time.  ``solver.find_alternative`` is not wrapped either: it runs inside
``is_ambiguous``, and its time belongs to that decision.

A span is ``(name, parent, start, end, tag)``; ``parent`` is the index of the
enclosing span or -1, and ``tag`` carries the outcome a ratio needs.  A
generator's span covers one ``next()`` call.  Start and end are readings of
the run's ``child.Clock`` (CPU seconds with calibration pauses taken out), and
durations are converted by the clock to reference-host seconds.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict

TRACED = {
    "solver": ("is_fixed_point", "is_ambiguous"),
    "conditions": ("billaud_instance", "image_is_fixed_point", "pair_condition"),
    "explorer": (
        "enumerate_canonical_patterns",
        "conjecture_scan",
        "search_sigma_ij",
        "search_1uniform",
    ),
    "cli": ("main",),
}


def canonical_key(symbols) -> tuple[int, ...]:
    """Variables renamed 1, 2, 3, ... by first occurrence."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(s, len(names) + 1) for s in symbols)


class Recorder:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list = []
        self.stack = [-1]
        self.fixed_point_keys: set[tuple[int, ...]] = set()

    def _tag_fixed_point(self, args, kwargs, result):
        pattern = args[0] if args else kwargs["pattern"]
        key = canonical_key(pattern.symbols)
        repeat = key in self.fixed_point_keys
        self.fixed_point_keys.add(key)
        return (repeat, type(result).__name__, result.nodes_explored)

    def wrap(self, name, fn, tag=None):
        spans, stack, now = self.spans, self.stack, self.clock.now
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(sid)
                    produced = False
                    start = now()
                    try:
                        item = next(it)
                        produced = True
                    except StopIteration:
                        return
                    finally:
                        end = now()
                        stack.pop()
                        spans[sid] = (name, parent, start, end, produced)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[sid] = (name, parent, start, end, None)
            if tag is not None:
                spans[sid] = (name, parent, start, end, tag(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        from unambig import cli, conditions, explorer, generators, solver

        modules = {
            "solver": solver,
            "conditions": conditions,
            "explorer": explorer,
            "cli": cli,
            "generators": generators,
        }
        names = dict(TRACED)
        names["generators"] = tuple(
            name
            for name, obj in vars(generators).items()
            if inspect.isfunction(obj)
            and obj.__module__ == generators.__name__
            and not name.startswith("_")
        )
        taggers = {
            "solver.is_fixed_point": self._tag_fixed_point,
            "solver.is_ambiguous": lambda a, k, r: (type(r).__name__, r.nodes_explored),
            "conditions.image_is_fixed_point": lambda a, k, r: r,
            "conditions.pair_condition": lambda a, k, r: r.passes,
            "explorer.search_1uniform": lambda a, k, r: r is not None,
        }
        replacements = {}
        for short, fnames in names.items():
            for fname in fnames:
                original = getattr(modules[short], fname)
                span = f"{short}.{fname}"
                replacements[id(original)] = (original, self.wrap(span, original, taggers.get(span)))
        for modname, site in list(sys.modules.items()):
            if modname != "unambig" and not modname.startswith("unambig."):
                continue
            for attr, value in list(vars(site).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(site, attr, hit[1])
        record = explorer.ScanRecord
        record.to_json = self.wrap("explorer.ScanRecord.to_json", record.to_json)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as sink:
            sink.write("id,parent,name,start_clock_s,end_clock_s\n")
            for sid, (name, parent, start, end, _tag) in enumerate(self.spans):
                sink.write(f"{sid},{parent},{name},{start!r},{end!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, ratios and self times (span minus child spans)."""
        spans = self.spans
        duration = [self.clock.scaled(start, end) for _name, _parent, start, end, _tag in spans]
        child = [0.0] * len(spans)
        for sid, (_name, parent, _start, _end, _tag) in enumerate(spans):
            if parent >= 0:
                child[parent] += duration[sid]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        fp = defaultdict(float)
        amb = defaultdict(float)
        true_count: dict[str, int] = defaultdict(int)
        for sid, (name, parent, start, end, tag) in enumerate(spans):
            own = duration[sid] - child[sid]
            self_s[name] += own
            calls[name] += 1
            if tag is None:
                continue
            if name == "solver.is_fixed_point":
                repeat, kind, nodes = tag
                part = "repeat" if repeat else "first"
                fp[part] += 1
                fp[part + "_self_s"] += own
                if not repeat:
                    fp["first_nodes"] += nodes
                fp[kind] += 1
            elif name == "solver.is_ambiguous":
                kind, nodes = tag
                amb["nodes"] += nodes
                amb[kind] += 1
            elif tag:
                true_count[name] += 1

        def ratio(part, whole):
            return part / whole if whole else 0.0

        fp_calls = calls["solver.is_fixed_point"]
        amb_calls = calls["solver.is_ambiguous"]
        amb_self = self_s["solver.is_ambiguous"]
        return {
            "solver.is_fixed_point.calls": fp_calls,
            "solver.is_fixed_point.self_s": self_s["solver.is_fixed_point"],
            "solver.is_fixed_point.repeat_ratio": ratio(fp["repeat"], fp_calls),
            "solver.is_fixed_point.repeat_self_s": fp["repeat_self_s"],
            "solver.is_fixed_point.first_self_s": fp["first_self_s"],
            "solver.is_fixed_point.first_nodes": int(fp["first_nodes"]),
            "solver.is_fixed_point.fixed_ratio": ratio(fp["FixedPoint"], fp_calls),
            "solver.is_ambiguous.calls": amb_calls,
            "solver.is_ambiguous.self_s": amb_self,
            "solver.is_ambiguous.nodes": int(amb["nodes"]),
            "solver.is_ambiguous.nodes_per_s": ratio(amb["nodes"], amb_self),
            "solver.is_ambiguous.unambiguous_ratio": ratio(amb["NoWitness"], amb_calls),
            "solver.budget_hits": int(fp["BudgetExhausted"] + amb["BudgetExhausted"]),
            "conditions.billaud_instance.calls": calls["conditions.billaud_instance"],
            "conditions.billaud_instance.self_s": self_s["conditions.billaud_instance"],
            "conditions.image_is_fixed_point.calls": calls["conditions.image_is_fixed_point"],
            "conditions.image_is_fixed_point.self_s": self_s["conditions.image_is_fixed_point"],
            "conditions.image_is_fixed_point.true_ratio": ratio(
                true_count["conditions.image_is_fixed_point"], calls["conditions.image_is_fixed_point"]
            ),
            "conditions.pair_condition.calls": calls["conditions.pair_condition"],
            "conditions.pair_condition.self_s": self_s["conditions.pair_condition"],
            "conditions.pair_condition.pass_ratio": ratio(
                true_count["conditions.pair_condition"], calls["conditions.pair_condition"]
            ),
            "explorer.enumerate.patterns": true_count["explorer.enumerate_canonical_patterns"],
            "explorer.enumerate.self_s": self_s["explorer.enumerate_canonical_patterns"],
            "explorer.conjecture_scan.self_s": self_s["explorer.conjecture_scan"],
            "explorer.search_sigma_ij.calls": calls["explorer.search_sigma_ij"],
            "explorer.search_sigma_ij.self_s": self_s["explorer.search_sigma_ij"],
            "explorer.search_1uniform.calls": calls["explorer.search_1uniform"],
            "explorer.search_1uniform.self_s": self_s["explorer.search_1uniform"],
            "explorer.search_1uniform.found_ratio": ratio(
                true_count["explorer.search_1uniform"], calls["explorer.search_1uniform"]
            ),
            "explorer.record_json.self_s": self_s["explorer.ScanRecord.to_json"],
            "cli.main.self_s": self_s["cli.main"],
            "generators.self_s": sum(t for n, t in self_s.items() if n.startswith("generators.")),
        }
