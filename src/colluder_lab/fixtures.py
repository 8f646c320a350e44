"""Ready-made colluder graph structures used by tests, the CLI, and simulations."""

from __future__ import annotations

from .mdgraph import MissingDataGraph, Vertex, VertexRole

_X1 = VertexRole.TRUE_VARIABLE
_R = VertexRole.RESPONSE_INDICATOR


def ccm_graph(m: int = 2, q: int = 2, dependency: bool = True) -> MissingDataGraph:
    """Two partially observed variables with a colluder into R_Y.

    ``m`` and ``q`` are the level counts of X and Y.  With ``dependency``
    the edge X -> Y is present (the identifiable variant); without it the
    two true variables are marginally independent.
    """
    directed = [("X", "R_Y"), ("R_X", "R_Y")]
    if dependency:
        directed.insert(0, ("X", "Y"))
    return MissingDataGraph(
        [Vertex("X", _X1, m), Vertex("Y", _X1, q), Vertex("R_X", _R, 2), Vertex("R_Y", _R, 2)],
        directed,
        pairs=[("X", "R_X"), ("Y", "R_Y")],
    )


def cross_censoring_graph(m: int = 2, q: int = 2, dependency: bool = True) -> MissingDataGraph:
    """:func:`ccm_graph` with an extra edge Y -> R_X censoring across variables."""
    g = ccm_graph(m, q, dependency)
    return MissingDataGraph(g.vertices, [*g.directed_edges, ("Y", "R_X")],
                            pairs=[(p.true, p.indicator) for p in g.pairs])


def example_graph(key: str, levels: int = 2) -> MissingDataGraph:
    """The six example structures (a)-(f): confounded and multi-colluder variants.

    All true variables share the same level count ``levels``.
    """
    two = [Vertex("X", _X1, levels), Vertex("Y", _X1, levels),
           Vertex("R_X", _R, 2), Vertex("R_Y", _R, 2)]
    two_pairs = [("X", "R_X"), ("Y", "R_Y")]
    three = two + [Vertex("Z", _X1, levels), Vertex("R_Z", _R, 2)]
    three_pairs = two_pairs + [("Z", "R_Z")]
    base = [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")]

    if key == "a":
        return MissingDataGraph(two, base, [("X", "Y"), ("R_X", "R_Y")], two_pairs)
    if key == "b":
        return MissingDataGraph(two, base, [("R_X", "R_Y"), ("X", "R_Y")], two_pairs)
    if key == "c":
        return MissingDataGraph(two, base, [("X", "Y"), ("X", "R_Y")], two_pairs)
    if key == "d":
        return MissingDataGraph(
            three, base + [("Y", "Z"), ("Y", "R_Z"), ("R_Y", "R_Z")], [], three_pairs)
    if key == "e":
        return MissingDataGraph(
            three, base + [("Z", "Y"), ("Z", "R_Y"), ("R_Z", "R_Y")], [], three_pairs)
    if key == "f":
        return MissingDataGraph(
            three, base + [("X", "Z"), ("X", "R_Z"), ("R_X", "R_Z")], [], three_pairs)
    raise ValueError(f"unknown example graph {key!r} (expected 'a'..'f')")


def example_graphs(levels: int = 2) -> dict[str, MissingDataGraph]:
    return {k: example_graph(k, levels) for k in "abcdef"}
