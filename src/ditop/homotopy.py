"""Digital homotopy as reachability between continuous maps.

A homotopy f ~ g over m steps is a sequence of continuous maps
F_0 = f, F_1, ..., F_m = g where consecutive maps are pointwise equal or
adjacent in the codomain. Such sequences are exactly paths in the "map
graph" whose vertices are the continuous maps X -> Y; homotopy questions
become breadth-first searches there.

The graph is huge (an 8-point loop already has 8872 continuous self-maps)
so it is never materialized. Neighbor states come from `maps.backtrack`,
the package's one backtracker, over bitmasks of allowed codomain indices. A
search asks each state as it arrives whether a goal lies one step away, so
it stops one level before the goal's, the level it would otherwise fill,
and finds the path a goal test on arrival finds. A state is a map's
`value_indices`, and no stage built here passes through points.
`nullhomotopy` is the one route that decides whether a map is
nullhomotopic; `slides` gives its cheap, verified geodesic candidates, and
`shortest_nullhomotopy` searches for a shortest witness ending at given
constants. `nullhomotopy` folds dominated points out of f's domain (`fold`)
and settles f on the core C first. f ~ f|C o r for the fold's retraction r,
so C's answer is f's, and `pull_back` lifts C's witness; a slide of f
restricts to a slide of f|C, so settling C first runs no search that a
slide of f would spare. A core is searched in its codomain's core, one
component at a time. No edge joins two components, so a map is
nullhomotopic exactly when its restriction to every component is homotopic
to a constant and those constants lie in one component of the codomain.
Before all of this, a cocycle certificate (`cocycles.obstruction`)
answers most "no"s with no search.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .cocycles import obstruction
from .images import DigitalImage, Value, bits
from .maps import DigitalMap, backtrack, continuity_violation, is_continuous

State = tuple[int, ...]

# the states of a command without `--budget`, or of a search outside `budget`
NODE_BUDGET = 2_000_000


class BudgetExhausted(RuntimeError):
    """A search ran out of its budget before reaching an answer."""


class Ledger:
    """A `budget` block's cap on map-graph states, and the states spent."""

    def __init__(self, cap: int, spent: int = 0):
        self.cap, self.spent = cap, spent


_LEDGER: ContextVar[Ledger | None] = ContextVar("ledger", default=None)


@contextmanager
def budget(states: int) -> Iterator[Ledger]:
    """One ledger of `states` states for every map-graph search inside the
    block; a search outside any block has `NODE_BUDGET` states of its own."""
    token = _LEDGER.set(ledger := Ledger(states))
    try:
        yield ledger
    finally:
        _LEDGER.reset(token)


class HomotopyWitness(Value, key=("stages",)):
    """An explicit homotopy: the full list of intermediate maps."""

    def __init__(self, stages: Sequence[DigitalMap], label: str = ""):
        stages = tuple(stages)
        if not stages:
            raise ValueError("a homotopy needs at least one stage")
        self.__dict__.update(stages=stages, label=label)

    @property
    def end(self) -> DigitalMap:
        return self.stages[-1]

    @property
    def steps(self) -> int:
        """Number of unit time steps (stage count minus one)."""
        return len(self.stages) - 1


def verify_homotopy(w: HomotopyWitness, f: DigitalMap | None = None,
                    g: DigitalMap | None = None) -> tuple[bool, str | None]:
    """Check a witness pointwise. Returns (ok, reason); reason pins the first
    failing stage/edge/point."""
    dom = w.stages[0].domain
    cod = w.stages[0].codomain
    for k, st in enumerate(w.stages):
        if st.domain != dom or st.codomain != cod:
            return False, f"stage {k} has a different domain or codomain"
        bad = continuity_violation(st)
        if bad is not None:
            return False, f"stage {k} is not continuous at edge {bad}"
    if f is not None and w.stages[0] != f:
        return False, "first stage is not the starting map"
    if g is not None and w.stages[-1] != g:
        return False, "last stage is not the ending map"
    pts, adj = cod.points, cod.adjacency.adjacent
    for k in range(len(w.stages) - 1):
        a = w.stages[k].value_indices
        b = w.stages[k + 1].value_indices
        for p, u, v in zip(dom.points, a, b):
            if u != v and not adj(pts[u], pts[v]):
                return False, (f"stages {k} and {k + 1} jump at {p}: "
                               f"{pts[u]} to {pts[v]} is not a unit step")
    return True, None


# ---- the map graph ----

class MapGraph:
    """Continuous maps domain -> codomain with the pointwise-step relation.

    States are tuples of codomain point indices aligned with the domain's
    canonical point order. `maps.backtrack` enumerates them: position i
    may take any index in its root mask (the closed neighborhood of its
    current value for neighbor states, every index for all states),
    intersected with the closed neighborhoods of the values chosen at
    earlier domain-adjacent positions. Enumeration order is by codomain
    index, so searches are deterministic.
    """

    def __init__(self, domain: DigitalImage, codomain: DigitalImage):
        self.domain = domain
        self.codomain = codomain
        closed = codomain.closed_masks
        self.links = tuple(tuple((j, closed) for j in nbrs if j < i)
                           for i, nbrs in enumerate(domain.neighbor_index))

    def map_of(self, state: State) -> DigitalMap:
        return DigitalMap(self.domain, self.codomain, state)

    def neighbor_states(self, state: State) -> Iterator[State]:
        """All continuous states pointwise within one step of `state`
        (the state itself included), in lexicographic index order."""
        closed = self.codomain.closed_masks
        return backtrack([closed[v] for v in state], self.links)

    def bfs(self, start: State, goal_near: Callable[[State], State | None],
            ) -> tuple[State, dict[State, State | None]] | None:
        """Breadth-first search from `start` for a shortest path to a goal.

        `goal_near(s)` returns a goal within one step of s (s itself when
        it is one) or None, and the goal joins the tree as s's child. So
        the search ends when the goal's parent arrives, before the rest of
        that level, the largest it visits, is generated; and it finds the
        path that a goal test on arrival finds, since states arrive in the
        same order. Returns (goal, parents) or None when the whole
        component is exhausted without a goal. Each state that arrives is
        charged to the active `budget`; one past its cap raises
        BudgetExhausted unless a goal is one step away."""
        if not is_continuous(self.map_of(start)):
            raise ValueError("start state is not a continuous map")
        ledger = _LEDGER.get() or Ledger(NODE_BUDGET)
        ledger.spent += 1
        parents: dict[State, State | None] = {start: None}
        goal = goal_near(start)
        if goal is not None:
            parents.setdefault(goal, start)
            return goal, parents
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in self.neighbor_states(cur):
                if nxt in parents:
                    continue
                parents[nxt] = cur
                ledger.spent += 1
                goal = goal_near(nxt)
                if goal is not None:
                    parents.setdefault(goal, nxt)
                    return goal, parents
                if ledger.spent > ledger.cap:
                    raise BudgetExhausted(
                        f"map-graph search exceeded {ledger.cap} states")
                queue.append(nxt)
        return None

    def witness(self, hit: tuple[State, dict[State, State | None]] | None,
                ) -> Optional[HomotopyWitness]:
        """The homotopy along the search-tree path to the goal of a `bfs`
        result, or None when the search found no goal."""
        if hit is None:
            return None
        goal, parents = hit
        path = [goal]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        return HomotopyWitness(tuple(self.map_of(s) for s in reversed(path)))


def are_homotopic(f: DigitalMap, g: DigitalMap, *,
                  refutation: list | None = None,
                  ) -> Optional[HomotopyWitness]:
    """Witness that f ~ g, or None when they are provably not homotopic:
    by a cocycle certificate (`cocycles.obstruction`), which is appended
    to `refutation` when given, or else by an exhausted search.

    Raises BudgetExhausted if the search cannot settle within the budget,
    and ValueError when the maps do not share domain and codomain or are
    not continuous.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("maps must share domain and codomain")
    for name, h in (("first", f), ("second", g)):
        if not is_continuous(h):
            raise ValueError(f"the {name} map is not continuous")
    if (hit := obstruction(f, g)) is not None:
        if refutation is not None:
            refutation.append(hit)
        return None
    graph = MapGraph(f.domain, f.codomain)
    closed, goal = f.codomain.closed_masks, g.value_indices

    def goal_near(s: State) -> State | None:
        near = all(closed[v] >> u & 1 for v, u in zip(s, goal))
        return goal if near else None

    return graph.witness(graph.bfs(f.value_indices, goal_near))


# ---- contractibility ----

def slide_nullhomotopy(f: DigitalMap, target: int) -> Optional[HomotopyWitness]:
    """Geodesic-slide candidate for a homotopy from f to the constant map at
    the codomain index `target`: every value walks its lexicographic
    shortest path (the codomain's `step_toward`), one step per stage. Cheap,
    but only a candidate — each stage is verified and None is returned on
    any failure (the classic one being a loop, where opposite sides slide
    around different ways and tear), or for an index outside the codomain."""
    cod = f.codomain
    if not 0 <= target < len(cod.points):
        return None
    step = cod.step_toward(target)
    cur = f.value_indices
    if min(step[v] for v in cur) < 0:
        return None  # some value cannot reach the target
    stages = []
    while not stages or cur != stages[-1].value_indices:
        st = DigitalMap(f.domain, cod, cur)
        if continuity_violation(st) is not None:
            return None
        stages.append(st)
        cur = tuple(step[v] for v in cur)
    w = HomotopyWitness(tuple(stages), "slide")
    ok, _ = verify_homotopy(w, f, DigitalMap(f.domain, cod,
                                             (target,) * len(f.domain)))
    return w if ok else None


def slides(f: DigitalMap) -> Iterator[HomotopyWitness]:
    """Every slide of f that holds, target by target in the codomain's
    index order; take the first with `next(slides(f), None)`."""
    for t in range(len(f.codomain.points)):
        w = slide_nullhomotopy(f, t)
        if w is not None:
            yield w


def shortest_nullhomotopy(f: DigitalMap, allowed: set[int] | range,
                          ) -> Optional[HomotopyWitness]:
    """A shortest homotopy from f to a constant at a codomain index in
    `allowed`, by breadth-first search of f's own map graph, or None when
    f's homotopy class holds no such constant. The constants one step from
    a state s are the bits of the AND of its values' closed masks; the
    lowest in `allowed` is the first constant among s's neighbour states."""
    graph = MapGraph(f.domain, f.codomain)
    closed = f.codomain.closed_masks
    targets = sum(1 << c for c in allowed)

    def constant_near(s: State) -> State | None:
        common = targets
        for v in s:
            common &= closed[v]
            if not common:
                return None
        if common >> s[0] & 1 and s.count(s[0]) == len(s):
            return s
        return ((common & -common).bit_length() - 1,) * len(s)

    return graph.witness(graph.bfs(f.value_indices, constant_near))


def nullhomotopy(f: DigitalMap,
                 lookup: Callable[[int], Optional[HomotopyWitness]]
                 | None = None, *, refutation: list | None = None,
                 ) -> Optional[HomotopyWitness]:
    """Witness that f is nullhomotopic (ends at some constant map), or None
    when f's homotopy class holds no constant map.

    A cocycle certificate (`cocycles.obstruction`) answers "no" first,
    with no fold, slide or search, and is appended to `refutation` when
    given. Otherwise f|C is settled first, C being the core of f's
    domain: when it has no witness neither has f, and f is not slid;
    otherwise f's first slide is returned, or else C's witness lifted by
    `pull_back`. A domain that
    does not fold is slid, then searched (`folded_nullhomotopy`).
    `lookup`, a memo of this function's answers on inclusions into f's
    codomain, keyed by the bitmask of their values, answers for f|C, by
    the mask of its values, in place of a call.
    """
    if not is_continuous(f):
        raise ValueError("map is not continuous")
    if (hit := obstruction(f)) is not None:
        if refutation is not None:
            refutation.append(hit)
        return None
    folded = fold(f.domain)
    if not folded.steps:
        return next(slides(f), None) or folded_nullhomotopy(f)
    on_core = f.after(folded.inclusion)
    w = (lookup(sum(1 << v for v in set(on_core.value_indices)))
         if lookup is not None else nullhomotopy(on_core))
    if w is None:
        return None
    return next(slides(f), None) or pull_back(f, folded, w.stages)


def contraction(img: DigitalImage, *, refutation: list | None = None,
                ) -> Optional[HomotopyWitness]:
    """A nullhomotopy of the identity map, when one exists.

    The witness is a slide, or else a shortest one from the search of the
    identity's own map graph: `tc` reads its length as an arm length, and
    a lifted witness is not shortest. `nullhomotopy` decides first
    whether any exists, so that search runs only when it will succeed,
    and appends its cocycle certificate of a "no" to `refutation`.
    """
    if not img.is_connected:
        return None
    ident = DigitalMap.identity(img)
    w = nullhomotopy(ident, refutation=refutation)
    if w is None or w.label == "slide":
        return w
    return shortest_nullhomotopy(ident, range(len(img.points)))


def is_contractible(img: DigitalImage) -> bool:
    """Whether the identity map is nullhomotopic."""
    return img.is_connected and nullhomotopy(
        DigitalMap.identity(img)) is not None


# ---- folding dominated points ----

class Fold(NamedTuple):
    """A retraction of an image onto its core, one dominated point at a time.

    Step (p, q), a pair of image indices, removes p, whose closed
    neighbourhood among the points still present lies inside that of q.
    `inclusion` is the core's inclusion into the image, by index.
    The retraction r sending p to q is continuous and one step from the
    identity, so f ~ f o r for maps out of the image and f ~ r o f for
    maps into it.
    """

    image: DigitalImage
    inclusion: DigitalMap
    steps: tuple[tuple[int, int], ...]

    @property
    def core(self) -> DigitalImage:
        return self.inclusion.domain

    def retractions(self) -> list[tuple[int, ...]]:
        """The composite retraction after each step as image indices, the
        identity first; the last one fixes exactly the core."""
        cur = tuple(range(len(self.image.points)))
        out = [cur]
        for p, q in self.steps:
            cur = tuple(q if y == p else y for y in cur)
            out.append(cur)
        return out


def fold(img: DigitalImage) -> Fold:
    """Remove the lowest-index dominated point into its lowest-index
    dominator, again and again, until no point is dominated."""
    nbrs = img.neighbor_index
    closed = img.closed_masks
    alive = (1 << len(img.points)) - 1
    steps = []
    while True:
        hit = next(((p, q) for p in bits(alive) for q in nbrs[p]
                    if alive >> q & 1 and not closed[p] & alive & ~closed[q]),
                   None)
        if hit is None:
            break
        p, q = hit
        alive &= ~(1 << p)
        steps.append((p, q))
    if not steps:
        return Fold(img, DigitalMap.identity(img), ())
    return Fold(img, DigitalMap.inclusion_of(img, alive), tuple(steps))


def pull_back(f: DigitalMap, folded: Fold,
              core_stages: Sequence[DigitalMap]) -> HomotopyWitness:
    """Lift a nullhomotopy of f restricted to the core of f's domain.

    `folded` folds f's domain; `core_stages` start at f on the core and
    end at a constant, with values in f's codomain. The lift runs the
    fold's stages, from f to f o r, then each core stage composed with r.
    Equal consecutive stages are merged. A lift that fails verify_homotopy
    raises, since the construction is proved.
    """
    dom, cod, fv = f.domain, f.codomain, f.value_indices
    rs = folded.retractions()
    r = rs[-1]
    at = {a: k for k, a in enumerate(folded.inclusion.value_indices)}
    values = [tuple(fv[a] for a in r_k) for r_k in rs]
    values += [tuple(st.value_indices[at[a]] for a in r) for st in core_stages[1:]]
    kept = [v for k, v in enumerate(values) if k == 0 or v != values[k - 1]]
    w = HomotopyWitness(tuple(DigitalMap(dom, cod, v) for v in kept), "fold")
    ok, why = verify_homotopy(w, f)
    if ok and not w.end.is_constant():
        ok, why = False, "the last stage is not constant"
    if not ok:
        raise AssertionError(f"lifted nullhomotopy failed its check: {why}")
    return w


def folded_nullhomotopy(f: DigitalMap) -> Optional[HomotopyWitness]:
    """Witness that f is nullhomotopic, searched in the codomain's core,
    or None when f's homotopy class holds no constant map.

    f is retracted into its codomain's core. Each connected component of
    f's domain is then searched on its own, to any constant. No edge
    joins two components, so f is nullhomotopic exactly when each
    restriction f|C_i is homotopic to a constant c_i and all the c_i lie
    in one component of the codomain: restrict a nullhomotopy for one
    direction; for the other, run the component homotopies side by side,
    each followed by the walk of its c_i to c_0 along a lexicographic
    shortest path and padded with its last stage. A "no" thus costs the
    sum of the component searches, not the search of their product. The
    witness, not a shortest one, runs the codomain's fold stages, then the
    core homotopy. `nullhomotopy` folds the domain before it calls this.
    """
    if not is_continuous(f):
        raise ValueError("map is not continuous")
    dom, cod_fold = f.domain, fold(f.codomain)
    target = cod_fold.core
    stages = [DigitalMap(dom, f.codomain, tuple(r[v] for v in f.value_indices))
              for r in cod_fold.retractions()]
    kept = cod_fold.inclusion.value_indices
    at = {a: k for k, a in enumerate(kept)}
    on_core = DigitalMap(dom, target, tuple(at[v] for v in stages[-1].value_indices))
    cols = [None] * len(dom.points)  # per domain point, its core track
    for comp in dom.components:
        incl = DigitalMap.inclusion_of(dom, comp)
        w = shortest_nullhomotopy(on_core.after(incl), range(len(kept)))
        if w is None:
            return None
        for k, a in enumerate(incl.value_indices):
            cols[a] = [st.value_indices[k] for st in w.stages]
    step = target.step_toward(cols[0][-1])  # point 0 is in the first component
    for col in cols:
        while step[col[-1]] != col[-1]:
            if step[col[-1]] < 0:
                return None  # the constants lie in different codomain components
            col.append(step[col[-1]])
    core_stages = [
        DigitalMap(dom, f.codomain,
                   tuple(kept[c[min(k, len(c) - 1)]] for c in cols))
        for k in range(1, max(map(len, cols)))]
    # an empty fold: the lift only merges repeated stages and checks them
    return pull_back(f, Fold(dom, DigitalMap.identity(dom), ()),
                     stages + core_stages)
