"""Binary, JSON, plain-text, and SVG output formats."""

import ast
import json
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sixvertex import render_svg
from sixvertex.degenerations import PointSet, sample_pointset
from sixvertex.lattice import (
    PathEnsemble,
    make_coloring,
    make_field,
    sample_colored_cs6v,
    sample_cs6v,
    sample_s6v,
    sample_two_colored_with_boundary,
)
from sixvertex.render_svg import ensemble_svg, write_svg
from sixvertex.serialize import (
    _ensemble_doc,
    ensemble_from_bytes,
    ensemble_from_json,
    ensemble_to_bytes,
    ensemble_to_json,
    json_chunks,
    read_ensemble,
    read_pointset,
    write_ensemble,
    write_pointset,
)

from svg_oracle import ensemble_svg as oracle_svg

FIELD = make_field(0.3, 0.7)
SRC = Path(__file__).resolve().parents[1] / "src" / "sixvertex"


def _assert_same(a, b):
    assert a.variant == b.variant
    assert a.n_colors == b.n_colors
    assert (a.width, a.height) == (b.width, b.height)
    assert np.array_equal(a.v_edges, b.v_edges)
    assert np.array_equal(a.h_edges, b.h_edges)
    assert np.array_equal(a.boundary_left, b.boundary_left)
    assert np.array_equal(a.boundary_bottom, b.boundary_bottom)


def _samples():
    return [
        sample_s6v(13, 9, FIELD, 1),
        sample_cs6v(9, 13, FIELD, 2),
        sample_colored_cs6v(4, make_coloring(2, 1, FIELD), FIELD, 3),
    ]


@pytest.mark.parametrize("e", _samples(), ids=["s6v", "cs6v", "colored"])
def test_binary_round_trip(e):
    meta = {"command": "sample", "seed": 1, "nested": {"a": [1, 2]}}
    blob = ensemble_to_bytes(e, meta)
    back, meta2 = ensemble_from_bytes(blob)
    _assert_same(e, back)
    assert meta2 == meta


def test_binary_no_meta():
    e = sample_cs6v(4, 4, FIELD, 0)
    back, meta = ensemble_from_bytes(ensemble_to_bytes(e))
    _assert_same(e, back)
    assert meta == {}


def test_binary_is_deterministic():
    e = sample_cs6v(12, 7, FIELD, 5)
    assert ensemble_to_bytes(e, {"k": 1}) == ensemble_to_bytes(e, {"k": 1})


def test_binary_rejects_garbage():
    e = sample_cs6v(4, 4, FIELD, 0)
    blob = ensemble_to_bytes(e)
    with pytest.raises(ValueError):
        ensemble_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        ensemble_from_bytes(blob[:2])
    bad = bytearray(blob)
    bad[4] = 99  # unsupported version
    with pytest.raises(ValueError):
        ensemble_from_bytes(bytes(bad))


# Each of these was taken before the flags, the reserved field and the
# metadata's type were checked; no writer produces them.
@pytest.mark.parametrize("offset, value, field", [
    (6, 0b10, "flags"), (6, 0x80, "flags"), (7, 0x01, "flags"), (7, 0x80, "flags"),
    (18, 0x01, "reserved"), (19, 0x80, "reserved"),
])
def test_binary_rejects_a_header_bit_no_writer_sets(offset, value, field):
    bad = bytearray(ensemble_to_bytes(sample_cs6v(4, 4, FIELD, 0)))
    bad[offset] |= value
    with pytest.raises(ValueError, match=field):
        ensemble_from_bytes(bytes(bad))


@pytest.mark.parametrize("meta", [[1, 2], "meta", 1, None])
def test_binary_rejects_metadata_that_is_not_an_object(meta):
    blob = ensemble_to_bytes(sample_cs6v(4, 4, FIELD, 0))
    text = json.dumps(meta).encode()
    blob = blob[:20] + struct.pack("<I", len(text)) + text + blob[26:]  # in place of "{}"
    with pytest.raises(ValueError, match="metadata"):
        ensemble_from_bytes(blob)


# A 4x2 two-color ensemble: header, a small metadata blob and 8 planes.
FUZZ_BLOB = ensemble_to_bytes(
    sample_colored_cs6v(2, make_coloring(2, 1, FIELD), FIELD, 3), {"k": 1})
# After the 4-byte magic the header holds version and flags (u16 each, bytes
# 4-7), width (8-11), height (12-15), n_colors (16-17), a reserved u16 (18-19)
# and meta_len (20-23).  A flipped width or height fails the exact-length check
# before anything is allocated, so every byte may be flipped.


def _flipped(offset: int, bit: int) -> bytes:
    mangled = bytearray(FUZZ_BLOB)
    mangled[offset] ^= 1 << bit
    return bytes(mangled)


def _assert_rejected_or_round_trips(buf: bytes, may_parse: bool):
    try:
        e, meta = ensemble_from_bytes(buf)
    except ValueError:
        return
    assert may_parse, "a buffer of the wrong length must be rejected"
    again, meta_again = ensemble_from_bytes(ensemble_to_bytes(e, meta))
    _assert_same(e, again)
    assert meta_again == meta


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["truncate", "extend", "flip"]), data=st.data())
def test_binary_parser_rejects_or_round_trips_mangled_bytes(kind, data):
    if kind == "truncate":
        buf = FUZZ_BLOB[:data.draw(st.integers(0, len(FUZZ_BLOB) - 1))]
    elif kind == "extend":
        buf = FUZZ_BLOB + data.draw(st.binary(min_size=1, max_size=16))
    else:
        buf = _flipped(data.draw(st.integers(0, len(FUZZ_BLOB) - 1)),
                       data.draw(st.integers(0, 7)))
    _assert_rejected_or_round_trips(buf, kind == "flip")


def test_binary_parser_rejects_or_round_trips_every_header_bit_flip():
    for offset in range(24):
        for bit in range(8):
            _assert_rejected_or_round_trips(_flipped(offset, bit), True)


def test_file_round_trip(tmp_path):
    e = sample_s6v(10, 11, FIELD, 4)
    path = tmp_path / "e.bin"
    write_ensemble(e, path, {"seed": 4})
    back, meta = read_ensemble(path)
    _assert_same(e, back)
    assert meta == {"seed": 4}


@pytest.mark.parametrize("e", _samples(), ids=["s6v", "cs6v", "colored"])
def test_json_round_trip(e):
    doc = ensemble_to_json(e, {"seed": 1})
    back = ensemble_from_json(doc)
    _assert_same(e, back)
    assert doc["meta"] == {"seed": 1}
    assert doc["format"] == "sixvertex-ensemble"
    # coordinates are 1-based and in range
    for plane in doc["colors"]:
        for x, y in plane["v"]:
            assert 1 <= x <= e.width and 1 <= y <= e.height


def test_pointset_round_trip(tmp_path):
    ps = sample_pointset(11, 7, 0.4, 3)
    path = tmp_path / "pts.txt"
    write_pointset(ps, path)
    back = read_pointset(path, width=11, height=7)
    assert np.array_equal(ps.grid, back.grid)


@pytest.mark.parametrize("fill", [False, True])
def test_pointset_round_trip_empty_and_full(fill, tmp_path):
    ps = PointSet(5, 3, np.full((5, 3), fill))
    path = tmp_path / "pts.txt"
    write_pointset(ps, path)
    assert path.read_text() == "".join(f"{x} {y}\n" for x in range(1, 6) for y in range(1, 4)
                                       if fill)
    back = read_pointset(path, width=5, height=3)
    assert back.grid.shape == (5, 3) and np.array_equal(back.grid, ps.grid)


def test_pointset_text_format(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# comment line\n2 3\n\n1 1\n4 2\n")
    ps = read_pointset(path)
    assert ps.points() == [(1, 1), (2, 3), (4, 2)]
    assert ps.grid.shape == (4, 3)  # inferred from max coordinates
    ps2 = read_pointset(path, width=6, height=5)
    assert ps2.grid.shape == (6, 5)
    assert ps2.points() == ps.points()


def test_svg_is_deterministic_and_wellformed(tmp_path):
    import xml.etree.ElementTree as ET
    e = sample_colored_cs6v(3, make_coloring(1, 1, FIELD), FIELD, 8)
    one = ensemble_svg(e, comment='{"seed": 8}')
    two = ensemble_svg(e, comment='{"seed": 8}')
    assert one == two
    root = ET.fromstring(one)
    assert root.tag.endswith("svg")
    path = tmp_path / "e.svg"
    write_svg(e, path, comment="check --embedded-- dashes")
    text = path.read_text()
    assert text == ensemble_svg(e, comment="check --embedded-- dashes")
    assert "--" not in text.split("<!--", 1)[1].split("-->", 1)[0]


def test_svg_draws_every_color_group():
    e = sample_colored_cs6v(4, make_coloring(1, 1, FIELD), FIELD, 2)
    svg = ensemble_svg(e)
    assert svg.count("<g ") >= int((e.v_edges | e.h_edges).max()).bit_length()


def test_svg_of_an_empty_ensemble_keeps_elementtree_form():
    e = sample_cs6v(1, 1, make_field(0.5, 1.0), 1)  # b2 = 1: nothing nucleates
    assert ensemble_svg(e, comment="a--b") == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="80" '
        'viewBox="0 0 80 80"><!--a- -b--><rect x="0" y="0" width="80" height="80" '
        'fill="white" /><g fill="#cccccc"><circle cx="40" cy="40" r="1.5" /></g>'
        '<g stroke="#1f77b4" stroke-width="2" stroke-linecap="round" /></svg>')


# SHA-256 of renderings pinned before the edge scan was vectorized; the
# element order (x-major, then y, vertical before horizontal) is part of it.
SVG_PINS = {
    "colored": "15eb118c9483c1e85051228d57bc9e8b0f42aebb5136558395f1a3956ba5ec70",
    "s6v": "e8833219c5cfff275f2ebb56c18c8ad32710c07fca20e837a42976c7e6444ff5",
}


def test_svg_bytes_are_pinned():
    import hashlib
    colored = sample_colored_cs6v(10, make_coloring(16, 16, FIELD), FIELD, 1)
    plain = sample_s6v(30, 20, make_field([[0.2, 0.6], [0.5, 0.4]],
                                          [[0.7, 0.3], [0.8, 0.5]]), 4)
    got = {
        "colored": ensemble_svg(colored),
        "s6v": ensemble_svg(plain, comment="s6v -- check"),
    }
    for name, svg in got.items():
        assert hashlib.sha256(svg.encode()).hexdigest() == SVG_PINS[name], name


def _json_doc():
    doc = ensemble_to_json(sample_cs6v(5, 4, FIELD, 1))
    doc["colors"] = [{"color": 1, "v": [[1, 1]], "h": [[5, 4]], "left": [4], "bottom": [5]}]
    return doc


@pytest.mark.parametrize("key, value", [
    ("v", [[0, 1]]), ("v", [[6, 1]]), ("v", [[1, 0]]), ("h", [[1, 5]]), ("h", [[-1, 2]]),
    ("left", [0]), ("left", [5]), ("bottom", [0]), ("bottom", [6]),
    ("color", 0), ("color", 2), ("color", 3), ("v", [[1.0, 1]]), ("color", True),
])
def test_json_parser_rejects_out_of_range_input(key, value):
    doc = _json_doc()
    ensemble_from_json(doc)
    doc["colors"][0][key] = value
    with pytest.raises(ValueError, match="outside 1.."):
        ensemble_from_json(doc)


# Each of these was taken, or raised TypeError, before the header was checked.
@pytest.mark.parametrize("key, value", [
    ("n_colors", 1.0), ("n_colors", True), ("n_colors", "1"), ("width", True), ("width", 5.0),
    ("width", "5"), ("height", 4.0), ("height", None), ("colors", None), ("colors", "v"),
    ("version", 2), ("version", 0), ("version", True), ("version", 1.0), ("version", "1"),
])
def test_json_parser_rejects_a_malformed_header(key, value):
    doc = _json_doc()
    ensemble_from_json(doc)
    doc[key] = value
    with pytest.raises(ValueError, match=key):
        ensemble_from_json(doc)


# Each of these raised AttributeError before the document's type was checked.
@pytest.mark.parametrize("doc", [[1, 2], "x", None, 3])
def test_json_parser_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="^not an ensemble document$"):
        ensemble_from_json(doc)


# Each of these raised KeyError before the header keys were checked.
@pytest.mark.parametrize("key", ["version", "width", "height", "n_colors", "colors", "variant"])
def test_json_parser_rejects_a_missing_header_key(key):
    doc = _json_doc()
    ensemble_from_json(doc)
    del doc[key]
    with pytest.raises(ValueError, match=f"has no {key}$"):
        ensemble_from_json(doc)


# Each of these raised TypeError or KeyError, raised a ValueError that did not
# name the entry, or was taken, before the color entries were checked.
@pytest.mark.parametrize("key, value", [
    ("v", None), ("v", [1]), ("v", [[1]]), ("v", [[1, 1, 1]]), ("h", {"x": 1}), ("h", [(5, 4)]),
    ("left", None), ("left", 4), ("bottom", None), ("bottom", "5"), (None, None), (None, [[1, 1]]),
    (None, {"v": [], "h": [], "left": [], "bottom": []}),
])
def test_json_parser_rejects_a_malformed_color_entry(key, value):
    doc = _json_doc()
    ensemble_from_json(doc)
    if key is None:
        doc["colors"].append(value)
    else:
        doc["colors"][0][key] = value
    with pytest.raises(ValueError, match=r"^colors\[\d\] needs a color, lists"):
        ensemble_from_json(doc)


@pytest.mark.parametrize("n_colors", [1.0, True, "1", None])
def test_path_ensemble_rejects_a_non_integer_color_count(n_colors):
    e = sample_cs6v(5, 4, FIELD, 1)
    with pytest.raises(ValueError, match="n_colors"):
        PathEnsemble(e.variant, n_colors, e.width, e.height, e.v_edges, e.h_edges,
                     e.boundary_left, e.boundary_bottom)


@pytest.mark.parametrize("text, extents", [
    ("0 2\n", {}), ("2 0\n", {}), ("-1 1\n", {}), ("1 2\n7 1\n", {"width": 6, "height": 5}),
    ("1 6\n", {"width": 6, "height": 5}), ("0 0\n", {"width": 6, "height": 5}),
])
def test_pointset_parser_rejects_out_of_range_points(text, extents, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="outside 1.."):
        read_pointset(path, **extents)


# ---------------------------------------------------------------------------
# JSON text: json_chunks against json.dumps(indent=2, sort_keys=True)

def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


INTS = st.one_of(st.integers(-2**70, 2**70), st.sampled_from([True, False, 2**64 + 1]))
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf"),
                                    -float("inf")]))
SCALARS = st.one_of(st.none(), INTS, FLOATS, FLOATS.map(np.float64),
                    st.text(alphabet=st.sampled_from('aé"\\/\x00\n\x1f\u2028\U0001f600-'),
                            max_size=6))
# lists of ints and of [int, int] pairs, as edge lists are, bools included
INT_LISTS = st.one_of(st.lists(INTS, max_size=5),
                      st.lists(st.lists(INTS, min_size=2, max_size=2), max_size=4))
DOCS = st.recursive(
    st.one_of(SCALARS, INT_LISTS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(DOCS)
def test_json_text_equals_json_dumps(doc):
    assert "".join(json_chunks(doc)) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], [{}], {"a": [], "b": {}}, [[1, 2], [3, True]], [1, True, 2],
    [[1, 2, 3]], [(1, 2)], [[1, 2], (3, 4)], [[1, 2.0]], [2**63, -2**64], [None],
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308],
    [np.float64(0.1), np.float64("nan")], {"q": 'a"b\\c\x00é\u2028'},
], ids=repr)
def test_json_text_edge_cases(doc):
    assert "".join(json_chunks(doc)) == _dumps(doc)


@pytest.mark.parametrize("doc", [[np.int64(1)], {"a": [object()]}, {1: "a"}, {None: 2}],
                         ids=["numpy int", "object", "int key", "None key"])
def test_json_text_rejects_non_json_values_and_non_string_keys(doc):
    with pytest.raises(TypeError):
        "".join(json_chunks(doc))


@pytest.mark.parametrize("e", _samples(), ids=["s6v", "cs6v", "colored"])
def test_ensemble_json_text_equals_json_dumps(e):
    doc = ensemble_to_json(e, {"seed": 1, "note": "x"})
    assert "".join(json_chunks(doc)) == _dumps(doc)


def _tolist(doc):
    """doc with every array replaced by its .tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _tolist(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_tolist(v) for v in doc]
    return doc


# 1-D and (N, 2) integer arrays, empty and single-row ones included
INT_ARRAYS = st.tuples(st.sampled_from([np.int64, np.uint8, np.uint32]),
                       st.sampled_from([0, 1, 2, 5]), st.sampled_from([(), (2,)])).flatmap(
    lambda t: hnp.arrays(t[0], (t[1],) + t[2]))
ARRAY_DOCS = st.recursive(
    st.one_of(INT_ARRAYS, SCALARS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(ARRAY_DOCS)
def test_json_text_of_integer_arrays_equals_json_dumps_of_their_lists(doc):
    assert "".join(json_chunks(doc)) == _dumps(_tolist(doc))


@pytest.mark.parametrize("arr", [
    np.array([2**63 - 1, -2**63, 0]), np.array([[2**63 - 1, 1]]), np.array([255], np.uint8),
    np.array([[2**32 - 1, 0]], np.uint32), np.zeros(0, np.int64), np.zeros((0, 2), np.uint8),
    np.arange(6).reshape(3, 2)[::-1], np.arange(10)[::3],
], ids=["int64-extremes", "int64-pair", "uint8", "uint32-pair", "empty", "empty-pairs",
        "reversed-pairs", "strided"])
def test_json_text_of_integer_array_edge_cases(arr):
    doc = {"a": arr, "b": [arr, {"c": arr}]}
    assert "".join(json_chunks(doc)) == _dumps(_tolist(doc))


@pytest.mark.parametrize("arr", [
    np.array([1.0, 2.0]), np.array([True, False]), np.array([1, 2], dtype=object),
    np.zeros((2, 2, 2), np.int64), np.zeros((2, 3), np.int64), np.zeros((2, 1), np.int64),
    np.array(7),
], ids=["float", "bool", "object", "3-D", "N-by-3", "N-by-1", "0-D"])
def test_json_text_rejects_other_arrays_as_json_does(arr):
    with pytest.raises(TypeError):
        json.dumps({"a": arr})
    with pytest.raises(TypeError):
        "".join(json_chunks({"a": arr}))


def _sample_with_an_empty_color():
    e = sample_colored_cs6v(4, make_coloring(2, 1, FIELD), FIELD, 3)
    keep = ~e.v_edges.dtype.type(4)  # color 3 has no edge and no entry
    planes = [a & keep for a in (e.v_edges, e.h_edges, e.boundary_left, e.boundary_bottom)]
    assert all(a.any() for a in planes[:2])
    return PathEnsemble(e.variant, e.n_colors, e.width, e.height, *planes)


DOC_SAMPLES = {
    "s6v": sample_s6v(13, 9, FIELD, 1),
    "cs6v": sample_cs6v(9, 13, FIELD, 2),
    **{f"colored{n}": sample_colored_cs6v(n, make_coloring(1, 1, FIELD), FIELD, n)
       for n in (1, 10, 24, 32)},
    "colored-empty-color": _sample_with_an_empty_color(),
}


@pytest.mark.parametrize("name", DOC_SAMPLES)
def test_ensemble_doc_text_equals_json_dumps_of_ensemble_to_json(name):
    e = DOC_SAMPLES[name]
    meta = {"seed": 1, "note": "x"}
    assert "".join(json_chunks(_ensemble_doc(e, meta))) == _dumps(ensemble_to_json(e, meta))


def test_the_cli_writes_ensembles_from_their_edge_arrays():
    # the sample command formats the edge arrays themselves, and the list fast
    # path they replaced is gone
    cli = ast.parse((SRC / "cli.py").read_text())
    named = [getattr(node, "id", None) or getattr(node, "attr", None) or node.name
             for node in ast.walk(cli) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    assert "ensemble_to_json" not in named
    assert "_ensemble_doc" in named
    serialize = ast.parse((SRC / "serialize.py").read_text())
    defined = [node.name if isinstance(node, ast.FunctionDef) else node.id
               for node in ast.walk(serialize) if isinstance(node, ast.FunctionDef)
               or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    assert "json_chunks" in defined and "_int_items" not in defined


# ---------------------------------------------------------------------------
# SVG: the table-driven renderer against the per-coordinate oracle

def _svg_cases():
    periodic = make_field([[0.2, 0.6], [0.5, 0.4]], [[0.7, 0.3], [0.8, 0.5]])
    rng = np.random.default_rng(5)
    w, h = 13, 9
    left = (rng.random(h) < 0.5).astype(np.uint8) * 2
    bottom = (rng.random(w) < 0.5).astype(np.uint8) * 2
    # boxes with an empty side and a single vertex, every edge and entry of
    # both colors on: no dots on an empty side, stubs ending at column and row 1
    boxes = {f"box{w}x{h}": PathEnsemble("cs6v", 2, w, h, np.full((w, h), 3, np.uint8),
                                         np.full((w, h), 3, np.uint8), np.full(h, 3, np.uint8),
                                         np.full(w, 3, np.uint8))
             for w, h in [(3, 0), (0, 3), (0, 0), (1, 1)]}
    return boxes | {
        "colored10": sample_colored_cs6v(10, make_coloring(2, 3, FIELD), FIELD, 1),
        "colored24": sample_colored_cs6v(24, make_coloring(1, 1, FIELD), FIELD, 2),
        "two-colored": sample_two_colored_with_boundary(w, h, FIELD, left, bottom, 3),
        "s6v-periodic": sample_s6v(11, 17, periodic, 4),
    }


SVG_CASES = _svg_cases()


@pytest.mark.parametrize("style", [{}, {"cell": 17, "margin": 5, "offset": 1.25},
                                   {"cell": 10, "margin": 0, "offset": 3.7}],
                         ids=["default", "cell17", "cell10"])
@pytest.mark.parametrize("name", sorted(SVG_CASES))
def test_svg_equals_the_oracle(name, style, monkeypatch):
    # the geometry is read from the module's constants, so other values of
    # them must still give the oracle's drawing
    for key, value in style.items():
        monkeypatch.setattr(render_svg, key.upper(), value)
    e = SVG_CASES[name]
    assert ensemble_svg(e) == oracle_svg(e, **style)


def test_svg_cases_draw_stubs_and_exits():
    two = SVG_CASES["two-colored"]
    assert two.boundary_left.any() and two.boundary_bottom.any()  # entry stubs
    s6v = SVG_CASES["s6v-periodic"]
    assert s6v.v_edges[:, -1].any() and s6v.h_edges[-1, :].any()  # top and right exits


@pytest.mark.parametrize("comment", ["---", "----", "a-", "-", "--->", "a--b---c-", "<!--x-->"])
def test_svg_comment_is_wellformed(comment):
    svg = ensemble_svg(SVG_CASES["two-colored"], comment=comment)
    ET.fromstring(svg)
    body = svg.split("<!--", 1)[1].rsplit("-->", 1)[0]
    assert "--" not in body and not body.endswith("-")


@pytest.mark.parametrize("comment", ["a--b", "s6v -- check", "x -- y -- z", "plain", ""])
def test_svg_comment_keeps_the_bytes_of_valid_output(comment):
    body = comment.replace("--", "- -")
    assert f"<!--{body}-->" in ensemble_svg(SVG_CASES["two-colored"], comment=comment)
