"""The pentagon of non-commuting Casimirs and its DOT rendering.

The five two-or-three leg Casimirs Q12, Q23, Q34, Q123, Q234 pairwise
either commute (five pairs) or close a derived generator (five pairs).
The graph is computed from the operators, never assumed: dashed
directed edges are the non-commuting pairs, oriented by which operand
order defines the plain (un-involuted) derived generator, and labeled
by it; solid undirected edges are the commuting pairs.  Each dashed
edge also names the unique vertex commuting with both of its ends (the
center of the three-generator subalgebra the edge generates).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .opalgebra import DERIVED_DEFS, GeneratorRegistry

VERTICES = ("Q12", "Q23", "Q34", "Q123", "Q234")


class CompassError(RuntimeError):
    """Computed commutation pattern contradicts the derived-generator
    table; the realization is inconsistent."""


class CompassGraph(NamedTuple):
    vertices: tuple  # fixed drawing order
    dashed: tuple  # (src, dst, derived label) directed, non-commuting
    solid: tuple  # (a, b) undirected, commuting
    centers: dict  # (src, dst) -> vertex commuting with both ends


def build_compass(reg: GeneratorRegistry) -> CompassGraph:
    """The pentagon graph of the VERTICES of reg.  Each pair is decided
    by reg.commutes, so a pair the registry has decided before (prop1
    decides all ten) is read from its commutation table, not evaluated
    again.  CompassError when the pattern contradicts DERIVED_DEFS."""
    if reg.params.legs != 4:
        raise CompassError("the pentagon needs four legs")
    commuting = set()
    noncommuting = set()
    for a, b in combinations(VERTICES, 2):
        if reg.commutes(a, b):
            commuting.add(frozenset((a, b)))
        else:
            noncommuting.add(frozenset((a, b)))
    oriented = {
        (left, right): base for base, ((left, right), _) in DERIVED_DEFS.items()
    }
    expected = {frozenset(pair) for pair in oriented}
    if noncommuting != expected:
        raise CompassError(
            f"non-commuting pairs {sorted(map(sorted, noncommuting))} do not "
            f"match the derived-generator table {sorted(map(sorted, expected))}"
        )
    dashed = tuple((a, b, label) for (a, b), label in oriented.items())
    solid = tuple(
        (a, b)
        for a, b in combinations(VERTICES, 2)
        if frozenset((a, b)) in commuting
    )
    centers = {}
    for a, b, _ in dashed:
        shared = [
            v
            for v in VERTICES
            if v not in (a, b)
            and frozenset((a, v)) in commuting
            and frozenset((b, v)) in commuting
        ]
        if len(shared) != 1:
            raise CompassError(
                f"edge {a} -> {b} has {len(shared)} common commuting "
                "vertices, expected exactly one"
            )
        centers[(a, b)] = shared[0]
    return CompassGraph(
        vertices=VERTICES, dashed=dashed, solid=solid, centers=centers
    )


def export_dot(graph: CompassGraph) -> str:
    """Deterministic DOT text: vertices in drawing order, dashed edges
    in derived-generator order, solid edges sorted."""
    lines = ["digraph compass {"]
    lines.append("    layout=circo;")
    for v in graph.vertices:
        lines.append(f'    "{v}";')
    for a, b, label in graph.dashed:
        center = graph.centers[(a, b)]
        lines.append(
            f'    "{a}" -> "{b}" [style=dashed, label="{label}"];'
            f'  /* center {center} */'
        )
    for a, b in graph.solid:
        lines.append(f'    "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
