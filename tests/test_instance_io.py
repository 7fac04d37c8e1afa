import pytest
from hypothesis import given, strategies as st

from cncut.graph import Graph, InputError, complete_graph, connected_pairs, path_graph
from cncut.instance_io import (
    CncInstance,
    ParseError,
    parse_instance,
    serialize_instance,
)

from .strategies import child_peak_rss_mb, graphs

K3_TEXT = "p cnc 3 3\ne 1 2\ne 2 3\ne 1 3\nk 1\nx 2\n"


def test_parse_triangle_x_form():
    inst = parse_instance(K3_TEXT)
    assert inst.graph.edges == complete_graph(3).edges
    assert inst.k == 1 and inst.x == 2 and inst.y is None
    assert inst.x_equivalent() == 2


def test_parse_triangle_y_form():
    inst = parse_instance(K3_TEXT.replace("x 2", "y 4"))
    assert inst.y == 4 and inst.x is None
    assert inst.x_equivalent() == 6 - 4


def test_y_above_total_gives_negative_equivalent():
    inst = CncInstance(path_graph(2), 1, y=10)
    assert inst.x_equivalent() == 2 - 10


@given(graphs(), st.integers(0, 60))
def test_x_equivalent_counts_every_pair(g, y):
    assert CncInstance(g, 0, y=y).x_equivalent() == connected_pairs(g) - y


def test_x_equivalent_memory_is_linear():
    # Adjacency masks of a 100,000-vertex path cost about n^2/16 bytes (over
    # 600 MB); the edge-list count needs a few MB.
    code = (
        "from cncut.graph import path_graph\n"
        "from cncut.instance_io import CncInstance\n"
        "assert CncInstance(path_graph(100000), 1, y=1).x_equivalent() == 100000 * 99999 - 1"
    )
    assert child_peak_rss_mb(code) < 100


def test_serialization_is_canonical():
    inst = parse_instance(K3_TEXT)
    assert serialize_instance(inst) == "p cnc 3 3\ne 1 2\ne 1 3\ne 2 3\nk 1\nx 2\n"


def test_comments_round_trip():
    text = "c made by hand\nc\np cnc 2 1\ne 1 2\nk 1\nx 0\n"
    inst = parse_instance(text)
    assert inst.comments == ("made by hand", "")
    assert serialize_instance(inst) == text


def test_instance_from_lists_round_trips():
    # A repeated edge is one edge, so the text parses back; a comment list
    # is stored as a tuple, so the instance hashes.
    inst = CncInstance(Graph(3, [(0, 1), (0, 1)]), 1, x=0, comments=["a"])
    assert inst.comments == ("a",) and hash(inst) == hash(parse_instance(serialize_instance(inst)))
    assert serialize_instance(inst) == "c a\np cnc 3 1\ne 1 2\nk 1\nx 0\n"
    assert parse_instance(serialize_instance(inst)) == inst


def test_line_order_is_normalized():
    scrambled = "k 1\np cnc 3 2\nx 5\ne 2 3\ne 1 2\n"
    inst = parse_instance(scrambled)
    assert serialize_instance(inst) == "p cnc 3 2\ne 1 2\ne 2 3\nk 1\nx 5\n"


def test_instance_validation():
    with pytest.raises(InputError):
        CncInstance(path_graph(2), 1)
    with pytest.raises(InputError):
        CncInstance(path_graph(2), 1, x=0, y=0)
    with pytest.raises(InputError):
        CncInstance(path_graph(2), -1, x=0)
    with pytest.raises(InputError):
        CncInstance(path_graph(2), 1, x=-1)
    with pytest.raises(InputError):
        CncInstance(path_graph(2), 1, x=0, comments=("two\nlines",))
    with pytest.raises(InputError):
        CncInstance(path_graph(2), 1, y=-5)


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("p cnc 1 0\np cnc 1 0\nk 0\nx 0\n", 2, "duplicate problem line"),
        ("p xxx 1 0\n", 1, "expected 'p cnc <n> <m>'"),
        ("p cnc 1\n", 1, "expected 'p cnc <n> <m>'"),
        ("p cnc -1 0\n", 1, "counts must be nonnegative"),
        ("p cnc a 0\n", 1, "vertex count is not an integer"),
        ("e 1 2\n", 1, "edge before the problem line"),
        ("p cnc 2 1\ne 1\nk 0\nx 0\n", 2, "expected 'e <u> <v>'"),
        ("p cnc 2 1\ne 1 3\nk 0\nx 0\n", 2, "endpoint out of range 1..2"),
        ("p cnc 2 1\ne 1 1\nk 0\nx 0\n", 2, "self-loops are not allowed"),
        ("p cnc 2 1\ne 2 1\nk 0\nx 0\n", 2, "endpoints must be given as u < v"),
        ("p cnc 2 2\ne 1 2\ne 1 2\nk 0\nx 0\n", 3, "duplicate edge 1 2"),
        ("p cnc 1 0\nk 0\nk 1\nx 0\n", 3, "duplicate k line"),
        ("p cnc 1 0\nk 0\nx 0\nx 1\n", 4, "duplicate x line"),
        ("p cnc 1 0\nk 0\ny 0\nx 1\n", 4, "x given but y already set"),
        ("p cnc 1 0\nk 0\nx 0\ny 1\n", 4, "y given but x already set"),
        ("p cnc 1 0\nk a\nx 0\n", 2, "k is not an integer"),
        ("q foo\n", 1, "unrecognized line type 'q'"),
        ("", 1, "missing problem line"),
        ("p cnc 2 2\ne 1 2\nk 0\nx 0\n", 4, "declared 2 edges but found 1"),
        ("p cnc 1 0\nx 0\n", 2, "missing k line"),
        ("p cnc 1 0\nk 0\n", 2, "missing x or y line"),
        ("p cnc 1 0\nk -1\nx 0\n", 2, "budget k must be nonnegative"),
        ("p cnc 1 0\nx -2\nk 0\n", 2, "pair bound x must be nonnegative"),
        ("p cnc 1 0\nk 0\ny -3\n", 3, "removal target y must be nonnegative"),
        ("p cnc 1 0\ny -3\nk 0\nc end\n", 2, "removal target y must be nonnegative"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)


@st.composite
def instances(draw):
    g = draw(graphs(max_n=8))
    k = draw(st.integers(0, 5))
    comments = tuple(draw(st.lists(st.sampled_from(["", "note", "two words"]), max_size=2)))
    if draw(st.booleans()):
        return CncInstance(g, k, x=draw(st.integers(0, 60)), comments=comments)
    return CncInstance(g, k, y=draw(st.integers(0, 60)), comments=comments)


@given(instances())
def test_round_trip(inst):
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again.graph.n == inst.graph.n
    assert set(again.graph.edges) == set(inst.graph.edges)
    assert (again.k, again.x, again.y) == (inst.k, inst.x, inst.y)
    assert again.comments == inst.comments
    assert serialize_instance(again) == text
