"""Exact counterexample constructions and closed-form fixtures.

Everything here is computed in exact rational arithmetic: the constructions
assert exact equalities between observed laws (and exact inequalities
between full laws), so floats only appear when a caller converts results at
the boundary.  A construction fixes its own constants, and a parameter count
reads its level counts and edges off the graph it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import LawError
from .fixtures import ccm_graph, cross_censoring_graph
from .lawtable import CategoricalLaw, ObservedLawTable, observed_law
from .mdgraph import MissingDataGraph, find_colluders


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _check_open_unit(**params):
    for name, v in params.items():
        if not 0 < v < 1:
            raise LawError(f"parameter {name}={v!r} must lie strictly inside (0, 1)")


def _object_array(rows) -> np.ndarray:
    arr = np.empty(np.shape(rows), dtype=object)
    arr[...] = rows
    return arr


@dataclass(frozen=True)
class ConstructionPair:
    """Two laws whose observed tables are equal cell by cell in exact arithmetic
    while the full laws differ on every listed witness configuration."""

    law1: CategoricalLaw
    law2: CategoricalLaw
    witness_cells: tuple[dict, ...]


def _verify_pair(law1: CategoricalLaw, law2: CategoricalLaw
                 ) -> tuple[ConstructionPair, ObservedLawTable]:
    """The pair, checked to agree on the observed law and differ on the full law, and
    that shared observed law."""
    obs1, obs2 = observed_law(law1), observed_law(law2)
    if not np.array_equal(obs1.values, obs2.values):
        raise LawError("construction failed: observed laws differ")
    j1, j2 = law1.joint_table(), law2.joint_table()
    witnesses = tuple(dict(zip(j1.names, map(int, idx)))
                      for idx in np.argwhere(j1.values != j2.values))
    if not witnesses:
        raise LawError("construction failed: full laws agree everywhere")
    return ConstructionPair(law1, law2, witnesses), obs1


# -- identifiable binary construction ------------------------------------------


def appendix_a_law(a, b, c, d, e, f, g, h) -> CategoricalLaw:
    """The identifiable binary colluder law on the two-variable graph with X -> Y.

    ``a`` = p(R_X=0), ``b`` = p(X=0), ``c``/``h`` = p(Y=0 | X=0/1), and
    ``d, e, f, g`` = p(R_Y=0 | R_X, X) at (R_X, X) = (0,0), (1,0), (0,1),
    (1,1).  All parameters must lie strictly inside (0, 1) and the
    dependency c != h must hold.
    """
    a, b, c, d = _frac(a), _frac(b), _frac(c), _frac(d)
    e, f, g, h = _frac(e), _frac(f), _frac(g), _frac(h)
    _check_open_unit(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h)
    if c == h:
        raise LawError("dependency assumption violated: c must differ from h")
    graph = ccm_graph(2, 2)
    one = Fraction(1)
    cpts = {
        "X": _object_array([b, one - b]),
        "Y": _object_array([[c, one - c], [h, one - h]]),
        "R_X": _object_array([a, one - a]),
        # parents in declaration order (X, R_X)
        "R_Y": _object_array([[[d, one - d], [e, one - e]],
                              [[f, one - f], [g, one - g]]]),
    }
    return CategoricalLaw(graph, cpts)


# -- ternary non-identifiable construction ---------------------------------------


def appendix_b_pair(a, e, g, h, i, j, k, l, n) -> ConstructionPair:
    """Two ternary-X laws that agree on the observed law but not the full law.

    X has p(X) = (1/4, 1/2, 1/4) (equal first and last cells are what make
    the swap below invisible in the observed law), ``a`` = p(R_X=0), Y is
    binary with p(Y=0 | X) = (n, e, n), and the observation probabilities
    p(R_Y=0 | R_X, X) are (g, h, i, j, k, l) at (R_X, X) = (0,0), (1,0),
    (0,1), (1,1), (0,2), (1,2).  The second model swaps g and k.
    """
    a, e, n = _frac(a), _frac(e), _frac(n)
    g, h, i, j, k, l = _frac(g), _frac(h), _frac(i), _frac(j), _frac(k), _frac(l)
    _check_open_unit(a=a, e=e, g=g, h=h, i=i, j=j, k=k, l=l, n=n)
    if g == k:
        raise LawError("g = k collapses the construction: the two full laws coincide")
    graph = ccm_graph(3, 2)
    one = Fraction(1)

    def law(g_, k_):
        cpts = {
            "X": _object_array([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]),
            "Y": _object_array([[n, one - n], [e, one - e], [n, one - n]]),
            "R_X": _object_array([a, one - a]),
            "R_Y": _object_array([
                [[g_, one - g_], [h, one - h]],
                [[i, one - i], [j, one - j]],
                [[k_, one - k_], [l, one - l]],
            ]),
        }
        return CategoricalLaw(graph, cpts)

    return _verify_pair(law(g, k), law(k, g))[0]


# -- cross-censoring construction -------------------------------------------------


#: Observed-data law shared by both cross-censoring models, keyed by the
#: proxy values of (X, Y) with 2 = NA; the response indicators follow.
APPENDIX_C_OBSERVED: Mapping[tuple[int, int], Fraction] = {
    (2, 2): Fraction(69, 200),
    (0, 2): Fraction(1, 10),
    (1, 2): Fraction(1, 10),
    (2, 0): Fraction(1, 10),
    (2, 1): Fraction(1, 200),
    (0, 0): Fraction(1, 10),
    (1, 0): Fraction(1, 10),
    (0, 1): Fraction(1, 10),
    (1, 1): Fraction(1, 20),
}

_APPENDIX_C_PARAMS = (
    # a, b, c, d, e, f, g, h, i
    (Fraction(229, 400), Fraction(59, 114), Fraction(40, 59), Fraction(1028, 1145),
     Fraction(1, 3), Fraction(7373, 11450), Fraction(2, 5), Fraction(80, 99),
     Fraction(1, 10)),
    (Fraction(283, 492), Fraction(108, 209), Fraction(41, 60), Fraction(1074, 1415),
     Fraction(1, 3), Fraction(10949, 14150), Fraction(2, 5), Fraction(82, 101),
     Fraction(1, 12)),
)


def _cross_censoring_law(a, b, c, d, e, f, g, h, i) -> CategoricalLaw:
    graph = cross_censoring_graph(2, 2)
    one = Fraction(1)
    cpts = {
        "X": _object_array([b, one - b]),
        "Y": _object_array([[c, one - c], [h, one - h]]),
        # parent Y: p(R_X=0 | Y=0) = a, p(R_X=0 | Y=1) = i
        "R_X": _object_array([[a, one - a], [i, one - i]]),
        "R_Y": _object_array([[[d, one - d], [e, one - e]],
                              [[f, one - f], [g, one - g]]]),
    }
    return CategoricalLaw(graph, cpts)


def appendix_c_pair() -> ConstructionPair:
    """The fixed-rational cross-censoring pair: same observed law, different full laws.

    Both models live on the colluder graph with the extra edge Y -> R_X.
    Their shared observed law is :data:`APPENDIX_C_OBSERVED` exactly, and the
    full laws differ already at (X=0, Y=0, R_X=0, R_Y=0).
    """
    pair, obs = _verify_pair(_cross_censoring_law(*_APPENDIX_C_PARAMS[0]),
                             _cross_censoring_law(*_APPENDIX_C_PARAMS[1]))
    for (x, y), expected in APPENDIX_C_OBSERVED.items():
        rx = 1 if x != 2 else 0
        ry = 1 if y != 2 else 0
        got = obs.event_prob({"X": x, "Y": y, "R_X": rx, "R_Y": ry})
        if got != expected:
            raise LawError(f"cross-censoring observed cell (X={x}, Y={y}) is {got}, "
                           f"expected {expected}")
    return pair


# -- parameter counting ------------------------------------------------------------


def parameter_count(g: MissingDataGraph) -> tuple[int, int, int]:
    """Free-parameter counts certifying non-identifiability of cross-censoring models.

    Returns ``(full_law_params, observed_law_param_bound, deficit)`` for a
    cross-censoring graph whose colluder's X has ``m`` levels and Y ``q``.
    With the edge X -> Y the full law has ``mq + 2m + q - 1`` parameters
    against at most ``mq + m + q`` for the observed law; without it the
    counts are ``3m + 2q - 2`` against ``2m + 2q - 1``.  Either way the
    deficit is ``m - 1``: for m > 1 infinitely many full laws map to each
    observed law.
    """
    cols = find_colluders(g)
    if len(cols) != 1:
        raise LawError("parameter counting applies to the single-colluder cross-censoring fixture")
    col = cols[0]
    x, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y = g.true_of(ry)
    if not g.has_directed(y, rx):
        raise LawError(f"fixture must contain the cross-censoring edge {y} -> {rx}")
    m, q = g.vertex(x).levels, g.vertex(y).levels
    if m is None or q is None:
        raise LawError(f"parameter counting needs categorical {x} and {y}")

    if g.has_directed(x, y):
        full = m * q + 2 * m + q - 1
        bound = m * q + m + q
    else:
        full = 3 * m + 2 * q - 2
        bound = 2 * m + 2 * q - 1
    deficit = m - 1
    return full, bound, deficit
