"""Missing-data graphs: vertex roles, structural validation, m-separation, colluders.

A missing-data graph partitions its vertices into fully observed variables,
partially observed true variables, their binary response indicators, and
deterministic observed proxies.  Graphs are immutable after construction and
all queries are read-only, so they can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import GraphFormatError, GraphQueryError


class VertexRole(Enum):
    FULLY_OBSERVED = "O"
    TRUE_VARIABLE = "X1"
    PROXY = "X"
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
    """Pairing of a true variable with its response indicator and proxy."""

    true: str
    indicator: str
    proxy: str


@dataclass(frozen=True)
class Colluder:
    """A pair {true variable, its response indicator} pointing into another indicator."""

    true_variable: str
    response_of_true: str
    target_indicator: str

    def __str__(self) -> str:
        return f"{{{self.true_variable}, {self.response_of_true}}} of {self.target_indicator}"


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid missing-data graph"
        return "\n".join(f"[{v.kind}] {v.detail}" for v in self.violations)


def load_json_source(source) -> dict:
    """Decode a JSON document given as a path, a JSON string, or a dict."""
    if isinstance(source, dict):
        return source
    if isinstance(source, Path):
        text = source.read_text()
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:
            pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"invalid JSON: {e}") from None


def _proxy_name(true_name: str, taken: set[str]) -> str:
    name = f"{true_name}_obs"
    if name in taken:
        raise GraphFormatError(
            f"auto-generated proxy name {name!r} collides with an existing vertex"
        )
    return name


class MissingDataGraph:
    """A directed mixed graph over variables, response indicators, and proxies.

    Parameters
    ----------
    vertices:
        ``Vertex`` instances.  Proxy vertices may be listed explicitly;
        otherwise one proxy per declared pair is generated automatically,
        together with its two deterministic incoming edges.
    directed, bidirected:
        Edge lists of name pairs.  Bidirected edges are unordered.
    pairs:
        ``(true, indicator)`` name pairs declaring which response indicator
        belongs to which true variable.  The pairing is always explicit and
        never inferred from vertex names.

    The constructor is permissive: structural constraint violations (cycles,
    forbidden edges, bad proxy wiring) are reported by :func:`validate_graph`
    rather than raised, so that invalid graphs can be inspected.  Only
    malformed input (unknown vertex names, duplicate names, self-loops) is
    rejected outright.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
        pairs: Iterable[tuple[str, str]] = (),
    ):
        vlist = list(vertices)
        for v in vlist:
            if v.levels is not None and v.levels < 1:
                raise GraphFormatError(f"vertex {v.name!r} has non-positive level count")
        names = [v.name for v in vlist]
        if len(set(names)) != len(names):
            raise GraphFormatError("duplicate vertex names")
        by_name = {v.name: v for v in vlist}

        raw_pairs = [(t, r) for t, r in pairs]
        for t, r in raw_pairs:
            for n in (t, r):
                if n not in by_name:
                    raise GraphFormatError(f"pair references unknown vertex {n!r}")

        directed = list(dict.fromkeys(tuple(e) for e in directed))
        bidirected = list(dict.fromkeys(tuple(sorted(e)) for e in bidirected))

        # Attach proxies: reuse an explicit proxy child shared by (true, indicator)
        # when present, otherwise synthesize one.
        explicit_children: dict[str, set[str]] = {n: set() for n in by_name}
        for u, w in directed:
            if u in explicit_children and w in by_name and by_name[w].role is VertexRole.PROXY:
                explicit_children[u].add(w)
        taken = set(by_name)
        final_pairs = []
        for t, r in raw_pairs:
            shared = explicit_children.get(t, set()) & explicit_children.get(r, set())
            if shared:
                proxy = sorted(shared)[0]
            else:
                proxy = _proxy_name(t, taken)
                taken.add(proxy)
                tv = by_name[t]
                pv = Vertex(proxy, VertexRole.PROXY,
                            None if tv.levels is None else tv.levels + 1)
                vlist.append(pv)
                by_name[proxy] = pv
                directed.append((t, proxy))
                directed.append((r, proxy))
            final_pairs.append(Pair(t, r, proxy))

        for u, w in directed + bidirected:
            if u not in by_name or w not in by_name:
                raise GraphFormatError(f"edge ({u!r}, {w!r}) references unknown vertex")
            if u == w:
                raise GraphFormatError(f"self-loop on vertex {u!r}")

        self._vertices = tuple(vlist)
        self._by_name = by_name
        self._directed = tuple(directed)
        self._bidirected = tuple(bidirected)
        self._pairs = tuple(final_pairs)

        par: dict[str, list[str]] = {n: [] for n in by_name}
        chi: dict[str, list[str]] = {n: [] for n in by_name}
        spo: dict[str, list[str]] = {n: [] for n in by_name}
        for u, w in directed:
            par[w].append(u)
            chi[u].append(w)
        for u, w in bidirected:
            spo[u].append(w)
            spo[w].append(u)
        self._parents = {n: tuple(par[n]) for n in by_name}
        self._children = {n: tuple(chi[n]) for n in by_name}
        self._spouses = {n: tuple(spo[n]) for n in by_name}

        self._true_of_indicator = {p.indicator: p.true for p in self._pairs}
        self._proxy_of_true = {p.true: p.proxy for p in self._pairs}

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
        self.vertex(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.vertex(name)
        return self._children[name]

    def spouses(self, name: str) -> tuple[str, ...]:
        self.vertex(name)
        return self._spouses[name]

    def with_role(self, role: VertexRole) -> tuple[Vertex, ...]:
        return tuple(v for v in self._vertices if v.role is role)

    def non_proxy_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self._vertices if v.role is not VertexRole.PROXY)

    def true_of(self, indicator_name: str) -> str:
        try:
            return self._true_of_indicator[indicator_name]
        except KeyError:
            raise GraphQueryError(f"{indicator_name!r} has no paired true variable") from None

    def proxy_of(self, true_name: str) -> str:
        try:
            return self._proxy_of_true[true_name]
        except KeyError:
            raise GraphQueryError(f"{true_name!r} has no paired proxy") from None

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

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part; raises if it is cyclic."""
        indeg = {v.name: len(self._parents[v.name]) for v in self._vertices}
        queue = deque(v.name for v in self._vertices if indeg[v.name] == 0)
        order = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self._vertices):
            raise GraphQueryError("directed part of the graph is cyclic")
        return tuple(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except GraphQueryError:
            return False
        return True

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

    _ROLE_CODES = {"O": VertexRole.FULLY_OBSERVED, "X1": VertexRole.TRUE_VARIABLE,
                   "R": VertexRole.RESPONSE_INDICATOR}

    @classmethod
    def from_json(cls, source) -> "MissingDataGraph":
        """Parse the JSON graph format (proxies implicit, unknown keys rejected).

        ``source`` may be a path, a JSON string, or an already-decoded dict.
        """
        obj = load_json_source(source)
        if not isinstance(obj, dict):
            raise GraphFormatError("graph document must be a JSON object")
        unknown = set(obj) - {"vertices", "edges", "pairs"}
        if unknown:
            raise GraphFormatError(f"unknown top-level keys: {sorted(unknown)}")
        if "vertices" not in obj:
            raise GraphFormatError("missing 'vertices'")

        vertices = []
        for item in obj["vertices"]:
            unknown = set(item) - {"name", "role", "levels"}
            if unknown:
                raise GraphFormatError(f"unknown vertex keys: {sorted(unknown)}")
            if "name" not in item or "role" not in item:
                raise GraphFormatError("vertex requires 'name' and 'role'")
            role_code = item["role"]
            if role_code not in cls._ROLE_CODES:
                raise GraphFormatError(f"unknown role {role_code!r} (expected O, X1, or R)")
            role = cls._ROLE_CODES[role_code]
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
        for item in obj.get("edges", []):
            unknown = set(item) - {"from", "to", "type"}
            if unknown:
                raise GraphFormatError(f"unknown edge keys: {sorted(unknown)}")
            kind = item.get("type", "directed")
            if kind == "directed":
                directed.append((item["from"], item["to"]))
            elif kind == "bidirected":
                bidirected.append((item["from"], item["to"]))
            else:
                raise GraphFormatError(f"unknown edge type {kind!r}")

        pairs = []
        for item in obj.get("pairs", []):
            unknown = set(item) - {"true", "indicator"}
            if unknown:
                raise GraphFormatError(f"unknown pair keys: {sorted(unknown)}")
            pairs.append((item["true"], item["indicator"]))

        return cls(vertices, directed, bidirected, pairs)

    def to_json(self) -> dict:
        """Emit the JSON graph format (proxies and their edges omitted)."""
        code = {VertexRole.FULLY_OBSERVED: "O", VertexRole.TRUE_VARIABLE: "X1",
                VertexRole.RESPONSE_INDICATOR: "R"}
        proxies = {p.proxy for p in self._pairs}
        verts = []
        for v in self._vertices:
            if v.role is VertexRole.PROXY:
                continue
            verts.append({"name": v.name, "role": code[v.role],
                          "levels": v.levels if v.levels is not None else CONTINUOUS})
        edges = []
        for u, w in self._directed:
            if w in proxies:
                continue
            edges.append({"from": u, "to": w, "type": "directed"})
        for u, w in self._bidirected:
            edges.append({"from": u, "to": w, "type": "bidirected"})
        return {"vertices": verts, "edges": edges,
                "pairs": [{"true": p.true, "indicator": p.indicator} for p in self._pairs]}


# -- structural validation ---------------------------------------------------


def validate_graph(g: MissingDataGraph) -> ValidationReport:
    """Check the structural restrictions of missing-data graphs.

    Violations are reported as data rather than raised, and an empty report
    means the graph is a legal missing-data graph.
    """
    out: list[Violation] = []
    if not g.is_acyclic():
        out.append(Violation("cycle", "directed part of the graph contains a cycle"))

    roles = {v.name: v.role for v in g.vertices}
    paired_true = {p.true for p in g.pairs}
    paired_ind = {p.indicator for p in g.pairs}

    for p in g.pairs:
        if roles[p.true] is not VertexRole.TRUE_VARIABLE:
            out.append(Violation("pairing", f"paired vertex {p.true!r} is not a true variable"))
        if roles[p.indicator] is not VertexRole.RESPONSE_INDICATOR:
            out.append(Violation("pairing", f"paired vertex {p.indicator!r} is not a response indicator"))
    for v in g.with_role(VertexRole.TRUE_VARIABLE):
        n = sum(1 for p in g.pairs if p.true == v.name)
        if n != 1:
            out.append(Violation("pairing", f"true variable {v.name!r} has {n} paired response indicators"))
    for v in g.with_role(VertexRole.RESPONSE_INDICATOR):
        n = sum(1 for p in g.pairs if p.indicator == v.name)
        if n > 1:
            out.append(Violation("pairing", f"response indicator {v.name!r} is paired with {n} true variables"))
        if v.levels != 2:
            out.append(Violation("role-levels", f"response indicator {v.name!r} is not binary"))
    for v in g.with_role(VertexRole.PROXY):
        if not any(p.proxy == v.name for p in g.pairs):
            out.append(Violation("pairing", f"proxy {v.name!r} is not attached to any pair"))

    for u, w in g.directed_edges:
        if roles[u] is VertexRole.RESPONSE_INDICATOR and roles[w] in (
                VertexRole.FULLY_OBSERVED, VertexRole.TRUE_VARIABLE):
            out.append(Violation("response-parents-variable",
                                 f"response indicator {u!r} is a parent of {w!r}"))

    for p in g.pairs:
        if p.proxy not in g:
            continue
        expected = {p.true, p.indicator}
        actual = set(g.parents(p.proxy))
        if actual != expected:
            out.append(Violation("proxy-parent-set",
                                 f"proxy {p.proxy!r} has parents {sorted(actual)}, expected {sorted(expected)}"))
        if g.spouses(p.proxy):
            out.append(Violation("proxy-parent-set",
                                 f"proxy {p.proxy!r} has bidirected edges"))
        if g.children(p.proxy):
            out.append(Violation("proxy-has-children",
                                 f"proxy {p.proxy!r} has children {sorted(g.children(p.proxy))}"))
        tv, pv = g.vertex(p.true), g.vertex(p.proxy)
        if tv.levels is not None and pv.levels != tv.levels + 1:
            out.append(Violation("proxy-levels",
                                 f"proxy {p.proxy!r} must have {tv.levels + 1} levels (true levels plus NA)"))
        if tv.levels is None and pv.levels is not None:
            out.append(Violation("proxy-levels",
                                 f"proxy {p.proxy!r} of continuous {p.true!r} must be continuous"))

    return ValidationReport(tuple(out))


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
