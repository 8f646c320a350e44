"""Missing-data graphs: vertex roles, m-separation, colluders.

A missing-data graph partitions its vertices into fully observed variables,
partially observed true variables and their binary response indicators.  A
variable's observed proxy is a deterministic function of the pair (the true
value when the indicator is 1, NA otherwise), so the graph holds no vertex
for it: :func:`~colluder_lab.lawtable.coarsening_map` models the observation.
Only a legal missing-data graph can be constructed, so no query re-checks the
structure.  Graphs are immutable after construction and all queries are
read-only, so they can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ColluderLabError, GraphFormatError, GraphQueryError


class VertexRole(Enum):
    FULLY_OBSERVED = "O"
    TRUE_VARIABLE = "X1"
    RESPONSE_INDICATOR = "R"


#: Level-count marker for continuous vertices (stored as ``levels=None``).
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Vertex:
    """A named vertex with a role and a category count (``None`` = continuous)."""

    name: str
    role: VertexRole
    levels: int | None = None


@dataclass(frozen=True)
class Pair:
    """Pairing of a true variable with its response indicator."""

    true: str
    indicator: str


@dataclass(frozen=True)
class Colluder:
    """A pair {true variable, its response indicator} pointing into another indicator."""

    true_variable: str
    response_of_true: str
    target_indicator: str

    def __str__(self) -> str:
        return f"{{{self.true_variable}, {self.response_of_true}}} of {self.target_indicator}"


def load_json_source(source, error: type[ColluderLabError]):
    """Decode a JSON document given as a path or a JSON string; any other value is
    returned as it is.  Broken JSON raises ``error``."""
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str):
        text = source
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:
            pass
    else:
        return source
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"invalid JSON: {e}") from None


def json_object(value, noun: str, keys: Iterable[str], error: type[ColluderLabError]) -> dict:
    """``value``, which must be a JSON object with no key outside ``keys``; else ``error``."""
    if not isinstance(value, dict):
        raise error(f"{noun} must be a JSON object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise error(f"unknown {noun} keys: {sorted(unknown)}")
    return value


def _json_objects(doc: dict, key: str, noun: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> list[dict]:
    """The objects listed under ``key``, each holding a string under every ``required`` key."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise GraphFormatError(f"{key!r} must be a list, got {items!r}")
    for item in items:
        json_object(item, noun, required + optional, GraphFormatError)
        for k in required:
            if not isinstance(item.get(k), str):
                raise GraphFormatError(f"{noun} {item} needs a string {k!r}")
    return items


class MissingDataGraph:
    """A missing-data graph over variables and response indicators.

    Parameters
    ----------
    vertices:
        ``Vertex`` instances.
    directed, bidirected:
        Edge lists of name pairs.  Bidirected edges are unordered.
    pairs:
        ``(true, indicator)`` name pairs declaring which response indicator
        belongs to which true variable.  The pairing is always explicit and
        never inferred from vertex names.

    Only a legal missing-data graph can be built: the directed part is
    acyclic, each true variable is paired with exactly one binary response
    indicator, no indicator is paired twice, and no indicator is a parent of
    a variable.  Otherwise :class:`GraphFormatError` lists every violation.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
        pairs: Iterable[tuple[str, str]] = (),
    ):
        by_name: dict[str, Vertex] = {}
        for v in vertices:
            if v.levels is not None and v.levels < 1:
                raise GraphFormatError(f"vertex {v.name!r} has non-positive level count")
            if v.name in by_name:
                raise GraphFormatError("duplicate vertex names")
            by_name[v.name] = v

        pairs = [Pair(t, r) for t, r in pairs]
        for p in pairs:
            for n in (p.true, p.indicator):
                if n not in by_name:
                    raise GraphFormatError(f"pair references unknown vertex {n!r}")

        directed = list(dict.fromkeys(tuple(e) for e in directed))
        bidirected = list(dict.fromkeys(tuple(sorted(e)) for e in bidirected))
        for u, w in directed + bidirected:
            for n in (u, w):
                if n not in by_name:
                    raise GraphFormatError(f"edge ({u!r}, {w!r}) references unknown vertex")
            if u == w:
                raise GraphFormatError(f"self-loop on vertex {u!r}")

        self._vertices = tuple(by_name.values())
        self._by_name = by_name
        self._directed = tuple(directed)
        self._bidirected = tuple(bidirected)
        self._pairs = tuple(pairs)

        # Each vertex's parents in declaration order, which orders a CPT's axes.
        order = {n: i for i, n in enumerate(by_name)}
        par: dict[str, list[str]] = {n: [] for n in by_name}
        for u, w in sorted(directed, key=lambda e: order[e[0]]):
            par[w].append(u)
        self._parents = {n: tuple(par[n]) for n in by_name}

        self._true_of_indicator = {p.indicator: p.true for p in self._pairs}

        violations = self._violations()
        if violations:
            raise GraphFormatError("graph is not a valid missing-data graph:\n"
                                   + "\n".join(violations))

    def _violations(self) -> list[str]:
        """Every structural restriction the graph breaks, as ``[kind] detail`` lines."""
        out = []
        try:
            TopologicalSorter(self._parents).prepare()
        except CycleError:
            out.append("[cycle] directed part of the graph contains a cycle")

        roles = {v.name: v.role for v in self._vertices}
        for p in self._pairs:
            if roles[p.true] is not VertexRole.TRUE_VARIABLE:
                out.append(f"[pairing] paired vertex {p.true!r} is not a true variable")
            if roles[p.indicator] is not VertexRole.RESPONSE_INDICATOR:
                out.append(f"[pairing] paired vertex {p.indicator!r} is not a response indicator")
        for v in self.with_role(VertexRole.TRUE_VARIABLE):
            n = sum(1 for p in self._pairs if p.true == v.name)
            if n != 1:
                out.append(f"[pairing] true variable {v.name!r} has {n} paired response indicators")
        for v in self.with_role(VertexRole.RESPONSE_INDICATOR):
            n = sum(1 for p in self._pairs if p.indicator == v.name)
            if n > 1:
                out.append(f"[pairing] response indicator {v.name!r} is paired with {n} true variables")
            if v.levels != 2:
                out.append(f"[role-levels] response indicator {v.name!r} is not binary")

        for u, w in self._directed:
            if roles[u] is VertexRole.RESPONSE_INDICATOR and roles[w] in (
                    VertexRole.FULLY_OBSERVED, VertexRole.TRUE_VARIABLE):
                out.append(f"[response-parents-variable] response indicator {u!r} "
                           f"is a parent of {w!r}")
        return out

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        return self._directed

    @property
    def bidirected_edges(self) -> tuple[tuple[str, str], ...]:
        return self._bidirected

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return self._pairs

    def vertex(self, name: str) -> Vertex:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphQueryError(f"unknown vertex {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def parents(self, name: str) -> tuple[str, ...]:
        """The parents of ``name`` in declaration order."""
        self.vertex(name)
        return self._parents[name]

    def with_role(self, role: VertexRole) -> tuple[Vertex, ...]:
        return tuple(v for v in self._vertices if v.role is role)

    def non_proxy_vertices(self) -> tuple[Vertex, ...]:
        """The same as :attr:`vertices`; ``perfbench/workloads.py`` still calls it."""
        return self._vertices

    def true_of(self, indicator_name: str) -> str:
        try:
            return self._true_of_indicator[indicator_name]
        except KeyError:
            raise GraphQueryError(f"{indicator_name!r} has no paired true variable") from None

    def has_directed(self, u: str, w: str) -> bool:
        return (u, w) in set(self._directed)

    def ancestors(self, names: Iterable[str]) -> set[str]:
        """Vertices with a directed path into ``names`` (including ``names``)."""
        out = set()
        stack = [self.vertex(n).name for n in names]
        while stack:
            n = stack.pop()
            if n in out:
                continue
            out.add(n)
            stack.extend(self._parents[n])
        return out

    def relabel(self, mapping: Mapping[str, str]) -> "MissingDataGraph":
        """Return a copy with vertices renamed according to ``mapping``."""

        def m(n: str) -> str:
            return mapping.get(n, n)

        return MissingDataGraph(
            [Vertex(m(v.name), v.role, v.levels) for v in self._vertices],
            [(m(u), m(w)) for u, w in self._directed],
            [(m(u), m(w)) for u, w in self._bidirected],
            [(m(p.true), m(p.indicator)) for p in self._pairs],
        )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, source) -> "MissingDataGraph":
        """Parse the JSON graph format (unknown keys rejected).

        ``source`` may be a path, a JSON string, or an already-decoded dict.
        """
        obj = json_object(load_json_source(source, GraphFormatError), "graph",
                          ("vertices", "edges", "pairs"), GraphFormatError)
        if "vertices" not in obj:
            raise GraphFormatError("missing 'vertices'")

        vertices = []
        for item in _json_objects(obj, "vertices", "vertex", ("name", "role"), ("levels",)):
            try:
                role = VertexRole(item["role"])
            except ValueError:
                raise GraphFormatError(f"unknown role {item['role']!r} "
                                       f"(expected O, X1, or R)") from None
            levels = item.get("levels")
            if role is VertexRole.RESPONSE_INDICATOR:
                if levels not in (None, 2):
                    raise GraphFormatError(
                        f"response indicator {item['name']!r} must be binary")
                levels = 2
            elif levels == CONTINUOUS:
                levels = None
            elif not isinstance(levels, int) or levels < 2:
                raise GraphFormatError(
                    f"vertex {item['name']!r} needs integer levels >= 2 or 'continuous'")
            vertices.append(Vertex(item["name"], role, levels))

        directed, bidirected = [], []
        for item in _json_objects(obj, "edges", "edge", ("from", "to"), ("type",)):
            kind = item.get("type", "directed")
            if kind == "directed":
                directed.append((item["from"], item["to"]))
            elif kind == "bidirected":
                bidirected.append((item["from"], item["to"]))
            else:
                raise GraphFormatError(f"unknown edge type {kind!r}")

        pairs = [(item["true"], item["indicator"])
                 for item in _json_objects(obj, "pairs", "pair", ("true", "indicator"))]

        return cls(vertices, directed, bidirected, pairs)

    def to_json(self) -> dict:
        """Emit the JSON graph format."""
        verts = [{"name": v.name, "role": v.role.value,
                  "levels": v.levels if v.levels is not None else CONTINUOUS}
                 for v in self._vertices]
        edges = [{"from": u, "to": w, "type": "directed"} for u, w in self._directed]
        for u, w in self._bidirected:
            edges.append({"from": u, "to": w, "type": "bidirected"})
        return {"vertices": verts, "edges": edges,
                "pairs": [{"true": p.true, "indicator": p.indicator} for p in self._pairs]}


# -- m-separation ------------------------------------------------------------


def m_separated(g: MissingDataGraph, a: Iterable[str], b: Iterable[str],
                z: Iterable[str] = ()) -> bool:
    """Decide whether vertex sets ``a`` and ``b`` are m-separated given ``z``.

    Uses a reachability walk over (vertex, entry-mark) states, treating a
    bidirected edge as carrying an arrowhead at both endpoints; with no
    bidirected edges this reduces to d-separation.  Linear time per query.
    """
    a = {g.vertex(n).name for n in a}
    b = {g.vertex(n).name for n in b}
    z = {g.vertex(n).name for n in z}
    if a & b or a & z or b & z:
        raise GraphQueryError("m-separation requires disjoint vertex sets")
    if not a or not b:
        return True

    an_z = g.ancestors(z) if z else set()

    # Incident edges as (neighbor, mark_here, mark_there); marks are True for
    # an arrowhead at that endpoint.
    incident: dict[str, list[tuple[str, bool, bool]]] = {v.name: [] for v in g.vertices}
    for u, w in g.directed_edges:
        incident[u].append((w, False, True))
        incident[w].append((u, True, False))
    for u, w in g.bidirected_edges:
        incident[u].append((w, True, True))
        incident[w].append((u, True, True))

    seen: set[tuple[str, bool]] = set()
    queue: deque[tuple[str, bool]] = deque()
    for s in a:
        for nb, _, mark_there in incident[s]:
            state = (nb, mark_there)
            if state not in seen:
                seen.add(state)
                queue.append(state)

    while queue:
        v, entered_head = queue.popleft()
        if v in b:
            return False
        for nb, mark_here, mark_there in incident[v]:
            collider = entered_head and mark_here
            if collider:
                passable = v in an_z
            else:
                passable = v not in z
            if passable:
                state = (nb, mark_there)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return True


# -- colluders and self-censoring ---------------------------------------------


def find_colluders(g: MissingDataGraph) -> list[Colluder]:
    """All colluder triples: pairs (true, indicator) that both point into another indicator."""
    edges = set(g.directed_edges)
    out = []
    for p in g.pairs:
        for t in g.with_role(VertexRole.RESPONSE_INDICATOR):
            if t.name == p.indicator:
                continue
            if (p.true, t.name) in edges and (p.indicator, t.name) in edges:
                out.append(Colluder(p.true, p.indicator, t.name))
    out.sort(key=lambda c: (c.target_indicator, c.true_variable))
    return out


def find_self_censoring(g: MissingDataGraph) -> list[tuple[str, str]]:
    """Edges from a true variable into its own response indicator."""
    edges = set(g.directed_edges)
    out = [(p.true, p.indicator) for p in g.pairs if (p.true, p.indicator) in edges]
    out.sort()
    return out
