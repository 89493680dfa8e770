import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgemorph import (
    EdgeSpec,
    GraphLayout,
    NodeSpec,
    ParseError,
    RangeError,
    ValidationError,
    edge_length,
    layout_to_json,
    parse_layout,
    stub_pair,
    validate_layout,
    with_color_roles,
)


def doc(nodes, edges):
    return json.dumps({"nodes": nodes, "edges": edges})


TWO_NODES = doc(
    [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 100, "y": 0}],
    [{"source": "a", "target": "b"}],
)


class TestParse:
    def test_two_node_document(self):
        layout = parse_layout(TWO_NODES)
        assert len(layout.nodes) == 2
        assert len(layout.edges) == 1
        assert edge_length(layout, ("a", "b")) == 100.0

    def test_accepts_bytes(self):
        assert parse_layout(TWO_NODES.encode()) == parse_layout(TWO_NODES)

    def test_color_roles(self):
        layout = parse_layout(
            doc(
                [
                    {"id": "a", "x": 0, "y": 0, "color": "blue"},
                    {"id": "b", "x": 1, "y": 1, "color": "orange"},
                    {"id": "c", "x": 2, "y": 0},
                ],
                [],
            )
        )
        assert [n.color_role for n in layout.nodes] == ["blue", "orange", "plain"]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            parse_layout(
                doc([{"id": "a", "x": 0, "y": 0}], [{"source": "a", "target": "a"}])
            )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            parse_layout(
                doc(
                    [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
                    [
                        {"source": "a", "target": "b"},
                        {"source": "b", "target": "a"},
                    ],
                )
            )

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="unknown node"):
            parse_layout(
                doc([{"id": "a", "x": 0, "y": 0}], [{"source": "a", "target": "zz"}])
            )

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValidationError, match="coincide"):
            parse_layout(
                doc([{"id": "a", "x": 5, "y": 5}, {"id": "b", "x": 5, "y": 5}], [])
            )

    def test_collinear_overlapping_edges_rejected(self):
        with pytest.raises(ValidationError, match="collinear"):
            parse_layout(
                doc(
                    [
                        {"id": "a", "x": 0, "y": 0},
                        {"id": "b", "x": 10, "y": 0},
                        {"id": "c", "x": 5, "y": 0},
                        {"id": "d", "x": 15, "y": 0},
                    ],
                    [{"source": "a", "target": "b"}, {"source": "c", "target": "d"}],
                )
            )

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_layout(b"{nope")

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            parse_layout(json.dumps({"nodes": [{"id": "a"}], "edges": []}))

    @pytest.mark.parametrize("x", [True, "12", None, 10**400], ids=["bool", "string", "null", "huge"])
    def test_coordinates_must_be_json_numbers(self, x):
        with pytest.raises(ParseError, match="coordinates must be numbers"):
            parse_layout(doc([{"id": "a", "x": x, "y": 0}], []))

    def test_number_with_too_many_digits(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_layout(doc([{"id": "a", "x": 0, "y": 0}], []).replace("0,", "1" * 5000 + ",", 1))

    def test_bad_color(self):
        with pytest.raises(ParseError, match="unknown color"):
            parse_layout(doc([{"id": "a", "x": 0, "y": 0, "color": "red"}], []))

    def test_deterministic_including_order(self):
        text = doc(
            [
                {"id": "z", "x": 0, "y": 0},
                {"id": "a", "x": 1, "y": 0},
                {"id": "m", "x": 0, "y": 1},
            ],
            [{"source": "z", "target": "a"}, {"source": "m", "target": "z"}],
        )
        first = parse_layout(text)
        second = parse_layout(text)
        assert first == second
        assert [n.id for n in first.nodes] == ["z", "a", "m"]
        assert layout_to_json(first) == layout_to_json(second)

    def test_bundled_sample(self, data_dir):
        layout = parse_layout((data_dir / "sample_dense_40.json").read_bytes())
        assert len(layout.nodes) == 40
        assert len(layout.edges) == 214
        assert len(layout.edges) / len(layout.nodes) == pytest.approx(5.35)


class TestEdgeLength:
    def test_horizontal(self):
        assert edge_length(parse_layout(TWO_NODES), ("a", "b")) == 100.0

    def test_three_four_five(self):
        layout = parse_layout(
            doc(
                [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 3, "y": 4}],
                [{"source": "a", "target": "b"}],
            )
        )
        assert edge_length(layout, ("a", "b")) == 5.0

    def test_unknown_edge(self):
        with pytest.raises(LookupError):
            edge_length(parse_layout(TWO_NODES), ("a", "zz"))


class TestStubPair:
    def test_quarter_ratio(self):
        layout = parse_layout(TWO_NODES)
        pair = stub_pair(layout, ("a", "b"), 0.25)
        assert pair.segment_source == ((0.0, 0.0), (25.0, 0.0))
        assert pair.segment_target == ((100.0, 0.0), (75.0, 0.0))

    def test_half_ratio_meets_at_midpoint(self):
        layout = parse_layout(TWO_NODES)
        pair = stub_pair(layout, ("a", "b"), 0.5)
        assert pair.segment_source[1] == (50.0, 0.0)
        assert pair.segment_target[1] == (50.0, 0.0)

    def test_ratio_out_of_range(self):
        layout = parse_layout(TWO_NODES)
        with pytest.raises(RangeError):
            stub_pair(layout, ("a", "b"), 0.6)
        with pytest.raises(RangeError):
            stub_pair(layout, ("a", "b"), 0.0)

    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=-500, max_value=500),
        st.floats(min_value=-500, max_value=500),
    )
    def test_stub_lengths_property(self, ratio, bx, by):
        # Both stubs measure ratio * edge length, within 1e-9 relative.
        if math.hypot(bx, by) < 1.0:
            return
        layout = GraphLayout(
            (NodeSpec("a", 0.0, 0.0), NodeSpec("b", bx, by)),
            (EdgeSpec("a", "b"),),
        )
        pair = stub_pair(layout, ("a", "b"), ratio)
        expected = ratio * edge_length(layout, ("a", "b"))
        for seg in (pair.segment_source, pair.segment_target):
            got = math.dist(*seg)
            assert got == pytest.approx(expected, rel=1e-9)


class TestColorRoles:
    def test_apply_roles(self):
        layout = parse_layout(TWO_NODES)
        colored = with_color_roles(layout, blue=["a"], orange=["b"])
        assert colored.node("a").color_role == "blue"
        assert colored.node("b").color_role == "orange"

    def test_roles_must_not_overlap(self):
        layout = parse_layout(TWO_NODES)
        with pytest.raises(ValidationError):
            with_color_roles(layout, blue=["a"], orange=["a"])

    def test_unknown_node(self):
        with pytest.raises(LookupError):
            with_color_roles(parse_layout(TWO_NODES), blue=["zz"])


def test_validate_layout_passes_bundled(data_dir):
    layout = parse_layout((data_dir / "sample_dense_40.json").read_bytes())
    validate_layout(layout)


def test_parse_checks_the_structure_once(data_dir, monkeypatch):
    # Building the layout checks its structure; parsing adds only the
    # geometric check, while validate_layout re-runs both.
    calls = []
    check = GraphLayout.__post_init__
    monkeypatch.setattr(GraphLayout, "__post_init__", lambda self: calls.append(check(self)))
    layout = parse_layout((data_dir / "sample_dense_40.json").read_bytes())
    assert len(calls) == 1
    validate_layout(layout)
    assert len(calls) == 2
