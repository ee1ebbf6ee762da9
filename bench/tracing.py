"""Per-layer spans and counters, installed from outside `src/`.

`Tracer.install()` wraps the public functions and methods listed in
`PROBES` after `ditop` is imported. A module-level function is replaced
in its defining module and in every `ditop` module that imported it by
name (category and complexity hold `slide_nullhomotopy`, cli holds
`cat_exact`, and so on), so every call site goes through the wrapper.
Methods are patched on their class; cached properties have their
function swapped.

A span records calls and self time: its duration minus the time its
child spans took. A counter only counts, because it wraps functions
called millions of times per case. Generators are timed per `next()`, so
the consumer's work between items is not charged to them.

Wrapping adds time to every wrapped call; that is why end-to-end numbers
never come from a traced run. The difference is reported as
`trace.overhead_s`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property

perf = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "n", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.n = 0  # the probe's own count: yielded items, hits, bytes...
        self.depth = 0


def _edges_examined(st, args, result):
    f = args[0]
    pairs = f.domain.edge_index_pairs
    if result is None:
        st.n += len(pairs)
    else:
        i, j = (f.domain.index(p) for p in result)
        st.n += pairs.index((i, j)) + 1


def _count_truthy(st, args, result):
    if result is not None:
        st.n += 1


def _count_none(st, args, result):
    if result is None:
        st.n += 1


def _points(st, args, result):
    st.n += len(args[0].points)


def _utf8_bytes(st, args, result):
    st.n += len(result.encode("utf-8"))


# (layer stat, kind, target "module:Qualified.name", result hook)
# kind: span, gen (generator span), count, oracle, cached (cached_property)
PROBES = (
    ("images.adjacent", "count", "ditop.images:CK.adjacent", None),
    ("images.adjacent", "count", "ditop.images:Explicit.adjacent", None),
    ("images.adjacent", "count", "ditop.images:ProductAdjacency.adjacent",
     None),
    ("images.neighbor_index", "cached",
     "ditop.images:DigitalImage.neighbor_index", _points),
    ("images.distance_matrix", "cached",
     "ditop.images:DigitalImage.distance_matrix", None),
    ("images.induced", "span", "ditop.images:induced_subimage", None),
    ("maps.continuity", "span", "ditop.maps:continuity_violation",
     _edges_examined),
    ("homotopy.neighbor_states", "gen",
     "ditop.homotopy:MapGraph.neighbor_states", None),
    ("homotopy.bfs", "span", "ditop.homotopy:MapGraph.bfs", _count_none),
    ("homotopy.slide", "span", "ditop.homotopy:slide_nullhomotopy",
     _count_truthy),
    ("homotopy.verify", "span", "ditop.homotopy:verify_homotopy", None),
    ("covers.oracle", "oracle", "ditop.covers:AdmissibilityOracle.__call__",
     None),
    ("covers.maximal_sets", "span", "ditop.covers:maximal_admissible_sets",
     None),
    ("covers.cover_search", "span", "ditop.covers:minimal_cover_exact", None),
    ("covers.cover_search", "span", "ditop.covers:minimal_cover_bounds",
     None),
    ("category.piece_contraction", "span",
     "ditop.category:piece_contraction", None),
    ("category.witness_check", "span", "ditop.category:CatWitness.check",
     None),
    ("pathspace.fiber", "gen", "ditop.pathspace:EndpointFibration.fiber",
     None),
    ("pathspace.wedge_adjacent", "span", "ditop.pathspace:WedgeSpace.adjacent",
     None),
    ("complexity.find_section", "span", "ditop.complexity:find_section",
     _count_truthy),
    ("complexity.verify_section", "span", "ditop.complexity:verify_section",
     None),
    ("complexity.translation", "span", "ditop.complexity:tc_upper_via_group",
     None),
    ("groups.product", "count", "ditop.groups:CayleyTable.product", None),
    ("groups.verify_cayley", "span", "ditop.groups:verify_cayley", None),
    ("groups.topological", "span", "ditop.groups:is_topological_group", None),
    ("groups.enumerate", "gen", "ditop.groups:enumerate_group_structures",
     None),
    *(("fileio.serialize", "span", f"ditop.fileio:serialize_{kind}",
       _utf8_bytes)
      for kind in ("image", "map", "homotopy", "group", "cover", "sections")),
    *(("fileio.load", "span", f"ditop.fileio:{verb}_{kind}", None)
      for verb, kinds in (("load", ("image", "map", "homotopy", "group")),
                          ("parse", ("image", "map", "homotopy", "group",
                                     "cover", "sections")))
      for kind in kinds),
    ("report.render", "span", "ditop.report:Report.to_json", None),
    ("report.render", "span", "ditop.report:Report.to_text", None),
    ("cli.main", "span", "ditop.cli:main", None),
)

# stats whose hook counts only the outermost call (serialize_homotopy
# calls serialize_map, whose bytes are already part of the homotopy's)
OUTER_ONLY = {"fileio.serialize"}

# metric -> (stat, Stat field): `calls`, `self_s`, or `n` (the probe's
# own count). Fields other than self_s are counts.
READS = {
    "images.adjacent.calls": ("images.adjacent", "calls"),
    "images.neighbor_index.builds": ("images.neighbor_index", "calls"),
    "images.neighbor_index.points": ("images.neighbor_index", "n"),
    "images.neighbor_index.self_s": ("images.neighbor_index", "self_s"),
    "images.induced.calls": ("images.induced", "calls"),
    "images.induced.self_s": ("images.induced", "self_s"),
    "images.distance_matrix.self_s": ("images.distance_matrix", "self_s"),
    "maps.continuity.calls": ("maps.continuity", "calls"),
    "maps.continuity.edges": ("maps.continuity", "n"),
    "maps.continuity.self_s": ("maps.continuity", "self_s"),
    "homotopy.neighbor_states.calls": ("homotopy.neighbor_states", "calls"),
    "homotopy.neighbor_states.yielded": ("homotopy.neighbor_states", "n"),
    "homotopy.neighbor_states.self_s": ("homotopy.neighbor_states", "self_s"),
    "homotopy.bfs.calls": ("homotopy.bfs", "calls"),
    "homotopy.bfs.self_s": ("homotopy.bfs", "self_s"),
    "homotopy.bfs.exhausted": ("homotopy.bfs", "n"),
    "homotopy.slide.calls": ("homotopy.slide", "calls"),
    "homotopy.slide.hits": ("homotopy.slide", "n"),
    "homotopy.slide.self_s": ("homotopy.slide", "self_s"),
    "homotopy.verify.calls": ("homotopy.verify", "calls"),
    "homotopy.verify.self_s": ("homotopy.verify", "self_s"),
    "covers.oracle.queries": ("covers.oracle", "calls"),
    "covers.oracle.predicate_calls": ("covers.oracle", "n"),
    "covers.maximal_sets.self_s": ("covers.maximal_sets", "self_s"),
    "covers.cover_search.self_s": ("covers.cover_search", "self_s"),
    "category.piece_contraction.calls": ("category.piece_contraction", "calls"),
    "category.piece_contraction.self_s":
        ("category.piece_contraction", "self_s"),
    "category.witness_check.self_s": ("category.witness_check", "self_s"),
    "pathspace.fiber.calls": ("pathspace.fiber", "calls"),
    "pathspace.fiber.wedges": ("pathspace.fiber", "n"),
    "pathspace.fiber.self_s": ("pathspace.fiber", "self_s"),
    "pathspace.wedge_adjacent.calls": ("pathspace.wedge_adjacent", "calls"),
    "pathspace.wedge_adjacent.self_s": ("pathspace.wedge_adjacent", "self_s"),
    "complexity.find_section.calls": ("complexity.find_section", "calls"),
    "complexity.find_section.found": ("complexity.find_section", "n"),
    "complexity.find_section.self_s": ("complexity.find_section", "self_s"),
    "complexity.verify_section.calls": ("complexity.verify_section", "calls"),
    "complexity.verify_section.self_s":
        ("complexity.verify_section", "self_s"),
    "complexity.translation.self_s": ("complexity.translation", "self_s"),
    "groups.product.calls": ("groups.product", "calls"),
    "groups.verify_cayley.self_s": ("groups.verify_cayley", "self_s"),
    "groups.topological.calls": ("groups.topological", "calls"),
    "groups.topological.self_s": ("groups.topological", "self_s"),
    "groups.enumerate.tables": ("groups.enumerate", "n"),
    "groups.enumerate.self_s": ("groups.enumerate", "self_s"),
    "fileio.serialize.bytes": ("fileio.serialize", "n"),
    "fileio.serialize.self_s": ("fileio.serialize", "self_s"),
    "fileio.load.self_s": ("fileio.load", "self_s"),
    "report.render.self_s": ("report.render", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _resolve(target: str):
    """(owner, attribute, raw value) for "module:Qualified.name"."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {name: Stat() for name, *_ in PROBES}
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.bindings: dict[str, list[str]] = {}  # function -> rebound names

    # ---- wrappers ----

    def _span(self, st: Stat, fn, hook, outer_only):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                st.self_s += d - stack.pop()
                st.total_s += d
                stack[-1] += d
                st.depth -= 1
            if hook is not None and not (outer_only and st.depth):
                hook(st, args, result)
            return result
        return wrapper

    def _gen(self, st: Stat, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            gen = fn(*args, **kwargs)
            step = gen.__next__
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        d = perf() - t0
                        st.self_s += d - stack.pop()
                        st.total_s += d
                        stack[-1] += d
                    st.n += 1
                    yield item
            finally:
                gen.close()
        return wrapper

    @staticmethod
    def _count(st: Stat, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def _oracle(st: Stat, fn):
        """Counts queries, and predicate calls by the oracle's own tally."""
        @functools.wraps(fn)
        def wrapper(self, subset):
            st.calls += 1
            before = self.calls
            try:
                return fn(self, subset)
            finally:
                st.n += self.calls - before
        return wrapper

    # ---- installation ----

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ditop" or name.startswith("ditop."))
                   and m is not None]
        for name, kind, target, hook in PROBES:
            st = self.stats[name]
            owner, attr, raw = _resolve(target)
            if kind == "cached":
                if not isinstance(raw, cached_property):
                    raise TypeError(f"{target} is not a cached_property")
                raw.func = self._span(st, raw.func, hook, False)
                continue
            if kind == "span":
                wrapped = self._span(st, raw, hook, name in OUTER_ONLY)
            elif kind == "gen":
                wrapped = self._gen(st, raw)
            elif kind == "count":
                wrapped = self._count(st, raw)
            elif kind == "oracle":
                wrapped = self._oracle(st, raw)
            else:
                raise ValueError(f"unknown probe kind {kind!r}")
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            bound = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        bound.append(f"{mod.__name__}:{key}")
            if not bound:
                raise LookupError(f"{target} is bound nowhere")
            self.bindings[target] = bound

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except trace.overhead_s: name -> (value,
        unit)."""
        out = {name: (getattr(self.stats[stat], field),
                      "s" if field == "self_s" else "count")
               for name, (stat, field) in READS.items()}
        states = self.stats["homotopy.neighbor_states"]
        bfs = self.stats["homotopy.bfs"]
        oracle = self.stats["covers.oracle"]
        out["homotopy.states_per_s"] = (_per(states.n, bfs.total_s), "1/s")
        out["covers.oracle.hit_ratio"] = (
            _per(oracle.calls - oracle.n, oracle.calls), "ratio")
        return out
