"""What callers rely on in the package's record classes: images, maps and
adjacencies compare and hash by value, and every record that is not
filled in as a command runs (the budget ledger, a reference row, the run
report) is read-only once built."""

from __future__ import annotations

import pytest

from ditop.category import cat_exact
from ditop.complexity import tc_n
from ditop.corpus import loop_rotation_table, z2plus_group, zplus_group
from ditop.groups import (scan_group_structures, window_group_report,
                          window_hom_report)
from ditop.homotopy import contraction
from ditop.images import (CK, DigitalImage, Explicit, ProductAdjacency,
                          interval_image, product_image)
from ditop.maps import DigitalMap


def test_equal_points_and_adjacency_make_equal_images():
    a = DigitalImage(((1, 0), (0, 0), (0, 1)), CK(1))
    b = DigitalImage([[0, 1], (1.0, 0), (0, 0), (0, 0)], CK(1))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert CK(1) == CK(1) and hash(CK(1)) == hash(CK(1))
    assert CK(1) != CK(2)
    seg = interval_image(0, 2)
    square = product_image(seg, seg)
    built = DigitalImage(square.points, ProductAdjacency(
        seg.adjacency, seg.adjacency, 1, strong=False))
    assert square == built and hash(square) == hash(built)
    assert DigitalMap.identity(square) == DigitalMap.identity(built)


def test_an_image_never_equals_one_with_another_adjacency():
    pts = ((0,), (1,), (2,))
    line = DigitalImage(pts, CK(1))
    same_edges = DigitalImage(pts, Explicit.of(line.edges()))
    assert line.edges() == same_edges.edges()
    assert line != same_edges
    seg = interval_image(0, 1)
    assert product_image(seg, seg) != product_image(seg, seg, strong=True)
    assert DigitalImage(((0, 0), (1, 1)), CK(1)) \
        != DigitalImage(((0, 0), (1, 1)), CK(2))
    assert line != line.points


def _frozen_records():
    """One instance of each read-only record class, by field name."""
    seg = interval_image(0, 2)
    cat_w = cat_exact(seg)
    tc = tc_n(seg, 1)
    scan = scan_group_structures(interval_image(0, 3))
    return [
        (CK(1), "k"),
        (Explicit.of([((0,), (1,))]), "edges"),
        (product_image(seg, seg).adjacency, "strong"),
        (seg, "points"),
        (DigitalMap.identity(seg), "value_indices"),
        (contraction(seg), "stages"),
        (tc, "lower"),
        (cat_w.pieces[0], "contraction"),
        (cat_w, "pieces"),
        (tc.witness[0], "piece"),
        (loop_rotation_table(), "grid"),
        (scan.rejected[0][1], "ok"),
        (scan, "total"),
        (zplus_group(), "label"),
        (window_group_report(zplus_group()), "alpha_checked"),
        (window_hom_report(z2plus_group(), zplus_group(),
                           lambda p: p[:1]), "collision"),
    ]


def test_a_read_only_record_refuses_assignment():
    records = _frozen_records()
    assert len({type(r) for r, _ in records}) == 16
    for record, name in records:
        kept = getattr(record, name)
        for change in (lambda: setattr(record, name, None),
                       lambda: delattr(record, name),
                       lambda: setattr(record, "unheard_of", 1)):
            with pytest.raises(AttributeError):
                change()
        assert getattr(record, name) is kept, type(record).__name__
