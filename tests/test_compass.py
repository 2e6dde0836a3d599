import pytest

from awalgebra.exactnum import parse
from awalgebra.compass import CompassError, VERTICES, build_compass, export_dot
from awalgebra.opalgebra import GeneratorRegistry, build_registry
from awalgebra.uqrep import RepParams


@pytest.fixture(scope="module")
def graph():
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=2)
    reg = build_registry(p)
    return build_compass(reg)


def test_pentagon_structure(graph):
    assert graph.vertices == VERTICES
    assert len(graph.dashed) == 5 and len(graph.solid) == 5
    assert graph.dashed == (
        ("Q12", "Q23", "Q13"),
        ("Q23", "Q34", "Q24"),
        ("Q34", "Q123", "Q124"),
        ("Q123", "Q234", "Q14"),
        ("Q234", "Q12", "Q134"),
    )
    assert set(graph.solid) == {
        ("Q12", "Q34"),
        ("Q12", "Q123"),
        ("Q23", "Q123"),
        ("Q23", "Q234"),
        ("Q34", "Q234"),
    }


def test_dashed_edges_close_a_cycle(graph):
    src = [a for a, _, _ in graph.dashed]
    dst = [b for _, b, _ in graph.dashed]
    assert sorted(src) == sorted(dst) == sorted(VERTICES)


def test_centers(graph):
    assert graph.centers == {
        ("Q12", "Q23"): "Q123",
        ("Q23", "Q34"): "Q234",
        ("Q34", "Q123"): "Q12",
        ("Q123", "Q234"): "Q23",
        ("Q234", "Q12"): "Q34",
    }


def test_dot_is_deterministic(graph):
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=2)
    reg = build_registry(p)
    assert export_dot(graph) == export_dot(build_compass(reg))


def test_dot_content(graph):
    dot = export_dot(graph)
    assert dot.startswith("digraph compass {")
    assert dot.endswith("}\n")
    assert dot.count("style=dashed") == 5
    assert dot.count("dir=none") == 5
    assert '"Q12" -> "Q23" [style=dashed, label="Q13"];  /* center Q123 */' in dot


def test_parameter_independence(graph):
    # the pentagon is combinatorial: any admissible parameters give it
    p = RepParams(q=parse("2/5"), k=(2, 1, 1, 1), legs=4, n_max=2)
    reg = build_registry(p)
    other = build_compass(reg)
    assert other == graph


def test_inconsistency_is_an_error(graph):
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=2)
    reg = build_registry(p)
    broken = dict(reg.table)
    broken["Q12"], broken["Q34"] = broken["Q34"], broken["Q12"]  # relabel
    with pytest.raises(CompassError):
        build_compass(GeneratorRegistry(reg.params, broken))


def test_needs_four_legs():
    p = RepParams(q=parse("5/3"), k=(1, 2, 1), legs=3, n_max=1)
    reg = build_registry(p)
    with pytest.raises(CompassError):
        build_compass(reg)
