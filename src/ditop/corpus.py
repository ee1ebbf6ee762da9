"""Built-in examples, addressable from the command line as corpus:<name>.

The star of the collection is an eight-point loop in Z^2 under
4-adjacency, which carries a cyclic group structure and a well-known
two-piece categorical cover. Around it: integer intervals, rectangular
cycles, the two-point sign group, and finite windows onto the integer
grids with their usual addition.
"""

from __future__ import annotations

from typing import Optional

from .groups import CayleyTable, WindowGroup
from .homotopy import HomotopyWitness
from .images import (CK, DigitalImage, Point, induced_subimage,
                     interval_image, product_image)
from .maps import DigitalMap


class UnknownCorpusName(LookupError):
    """A corpus:<name> reference that names no built-in example."""


# The loop's eight points keep their traditional one-letter names; the
# letters also index the multiplication table below.
LOOP_LETTERS: dict[str, Point] = {
    "a": (0, -1), "b": (0, 0), "c": (0, 1), "d": (1, 1),
    "e": (2, 1), "f": (2, 0), "g": (2, -1), "h": (1, -1),
}

# Row x, column y reads off x*y. b is the identity and a generates.
_LOOP_TABLE_ROWS = {
    "a": "h a b c d e f g",
    "b": "a b c d e f g h",
    "c": "b c d e f g h a",
    "d": "c d e f g h a b",
    "e": "d e f g h a b c",
    "f": "e f g h a b c d",
    "g": "f g h a b c d e",
    "h": "g h a b c d e f",
}


def loop_image() -> DigitalImage:
    """The eight-point loop in Z^2 with 4-adjacency."""
    return DigitalImage(LOOP_LETTERS.values(), CK(1))


def loop_letter(p: Point) -> str:
    for name, q in LOOP_LETTERS.items():
        if q == tuple(p):
            return name
    raise KeyError(f"{p} is not a loop point")


def loop_cover() -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """The standard two contractible pieces covering the loop."""
    m1 = tuple(LOOP_LETTERS[x] for x in "bcde")
    m2 = tuple(LOOP_LETTERS[x] for x in "afgh")
    return m1, m2


def loop_rotation_table() -> CayleyTable:
    """The cyclic group carried by the loop, transcribed row by row."""
    img = loop_image()
    letters = [loop_letter(p) for p in img.points]
    entries = tuple(
        tuple(LOOP_LETTERS[_LOOP_TABLE_ROWS[r].split()[
            "abcdefgh".index(col)]] for col in letters)
        for r in letters)
    return CayleyTable.from_points(img, LOOP_LETTERS["b"], entries)


def reference_contractions() -> tuple[HomotopyWitness, HomotopyWitness]:
    """The two textbook nullhomotopies of the cover inclusions.

    Each is a four-stage homotopy from the inclusion of a piece into the
    loop down to a constant map: the first piece funnels to e = (2,1),
    the second to a = (0,-1)."""
    whole = loop_image()
    m1, m2 = loop_cover()
    L = LOOP_LETTERS

    def stages(piece, plan):
        sub = induced_subimage(whole, piece)
        out = []
        for stage in plan:
            out.append(DigitalMap.from_mapping(
                sub, whole, {p: stage.get(loop_letter(p), p) for p in piece}))
        return HomotopyWitness(tuple(out))

    f1 = stages(m1, [
        {},
        {"b": L["c"]},
        {"b": L["d"], "c": L["d"]},
        {x: L["e"] for x in "bcde"},
    ])
    f2 = stages(m2, [
        {},
        {"f": L["g"]},
        {"f": L["h"], "g": L["h"]},
        {x: L["a"] for x in "afgh"},
    ])
    return f1, f2


def sign_image() -> DigitalImage:
    """{-1, 1} on the integer line; the two points are not 2-adjacent."""
    return DigitalImage([(-1,), (1,)], CK(1))


def sign_table() -> CayleyTable:
    return CayleyTable.from_function(
        sign_image(), lambda x, y: (x[0] * y[0],), (1,))


def flip_table(m: int) -> CayleyTable:
    """The two-element group on the interval [m, m+1].

    The product of equal elements is m, of distinct ones m+1 — so m is
    the identity and m+1 is its own inverse."""
    img = interval_image(m, m + 1)
    return CayleyTable.from_function(
        img, lambda x, y: (m,) if x == y else (m + 1,), (m,))


def cycle_image(n: int) -> DigitalImage:
    """A simple closed 4-curve with n points: the boundary of an axis
    rectangle. n = 4 gives the unit square; larger even n >= 8 stretch
    the rectangle. n = 6 (and odd n) admit no such curve."""
    if n == 4:
        w = h = 1
    elif n >= 8 and n % 2 == 0:
        w = n // 4
        h = n // 2 - w
    else:
        raise ValueError(f"no rectangular 4-cycle with {n} points")
    pts = [(x, y) for x in range(w + 1) for y in range(h + 1)
           if x in (0, w) or y in (0, h)]
    return DigitalImage(pts, CK(1))


def point_image() -> DigitalImage:
    return DigitalImage([(0,)], CK(1))


def z_window(lo: int, hi: int) -> DigitalImage:
    return interval_image(lo, hi)


def z2_window(x0: int, x1: int, y0: int, y1: int) -> DigitalImage:
    pts = [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
    return DigitalImage(pts, CK(1))


def zplus_group(lo: int = 0, hi: int = 9) -> WindowGroup:
    """A window onto (Z, 2, +)."""
    return WindowGroup(z_window(lo, hi),
                       lambda x, y: (x[0] + y[0],),
                       lambda x: (-x[0],),
                       (0,), f"zplus:{lo}:{hi}")


def z2plus_group(x0: int = 0, x1: int = 3, y0: int = 0,
                 y1: int = 3) -> WindowGroup:
    """A window onto (Z^2, 4, +)."""
    return WindowGroup(z2_window(x0, x1, y0, y1),
                       lambda u, v: (u[0] + v[0], u[1] + v[1]),
                       lambda u: (-u[0], -u[1]),
                       (0, 0), f"z2plus:{x0}:{x1}:{y0}:{y1}")


def mulwin_group(lo: int = 1, hi: int = 2) -> WindowGroup:
    """A window onto (Z, 2, *): multiplication is a monoid, not a group,
    and the report shows exactly where inverses go missing."""
    def inv(x: Point) -> Optional[Point]:
        return x if x[0] in (1, -1) else None
    return WindowGroup(z_window(lo, hi),
                       lambda x, y: (x[0] * y[0],),
                       inv, (1,), f"mulwin:{lo}:{hi}")


def sum_map(lo: int = 0, hi: int = 9, *, strong: bool = False) -> DigitalMap:
    """Addition [lo,hi] x [lo,hi] -> [2lo, 2hi] as a finite digital map.

    Continuous when the square carries the minimum product adjacency;
    with the strong product, diagonal steps move the sum by two."""
    win = interval_image(lo, hi)
    dom = product_image(win, win, strong=strong)
    cod = interval_image(2 * lo, 2 * hi)
    return DigitalMap.from_mapping(
        dom, cod, {p: (p[0] + p[1],) for p in dom.points})


def projection_map(x0: int = 0, x1: int = 3, y0: int = 0,
                   y1: int = 3) -> DigitalMap:
    """First-coordinate projection of a grid window onto a line window."""
    dom = z2_window(x0, x1, y0, y1)
    cod = z_window(x0, x1)
    return DigitalMap.from_mapping(dom, cod,
                                   {p: (p[0],) for p in dom.points})


def sign_embedding() -> DigitalMap:
    """1 -> 8 and -1 -> 9, from the sign group into the flip group's
    carrier. A group isomorphism and continuous; its inverse is not."""
    dom = sign_image()
    cod = interval_image(8, 9)
    return DigitalMap.from_mapping(dom, cod, {(1,): (8,), (-1,): (9,)})


def _int_args(parts: list[str], n: int, name: str) -> list[int]:
    if len(parts) != n:
        raise ValueError(f"corpus:{name} takes {n} integer parameter(s), "
                         f"got {len(parts)}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"corpus:{name} parameters must be integers: "
                         f"{parts}") from None


def get_image(name: str) -> DigitalImage:
    """Resolve a corpus image name like 'H', 'interval:0:5', 'cycle:8'."""
    head, *rest = name.split(":")
    if head == "H" and not rest:
        return loop_image()
    if head == "point" and not rest:
        return point_image()
    if head == "pm1" and not rest:
        return sign_image()
    if head == "interval":
        if len(rest) == 1:
            (hi,) = _int_args(rest, 1, head)
            return interval_image(0, hi)
        lo, hi = _int_args(rest, 2, head)
        return interval_image(lo, hi)
    if head == "cycle":
        (n,) = _int_args(rest, 1, head)
        return cycle_image(n)
    if head == "zwindow":
        lo, hi = _int_args(rest, 2, head)
        return z_window(lo, hi)
    if head == "z2window":
        x0, x1, y0, y1 = _int_args(rest, 4, head)
        return z2_window(x0, x1, y0, y1)
    raise UnknownCorpusName(f"unknown corpus image {name!r}; have: H, point, "
                            f"pm1, interval:lo:hi, cycle:n, zwindow:lo:hi, "
                            f"z2window:x0:x1:y0:y1")


def get_table(name: str) -> CayleyTable:
    head, *rest = name.split(":")
    if head == "Hrot" and not rest:
        return loop_rotation_table()
    if head == "pm1mul" and not rest:
        return sign_table()
    if head == "flip":
        (m,) = _int_args(rest, 1, head)
        return flip_table(m)
    raise UnknownCorpusName(f"unknown corpus table {name!r}; have: Hrot, "
                            f"pm1mul, flip:m")


def get_window_group(name: str) -> WindowGroup:
    head, *rest = name.split(":")
    if head == "zplus":
        lo, hi = _int_args(rest, 2, head) if rest else (0, 9)
        return zplus_group(lo, hi)
    if head == "z2plus":
        if rest:
            x0, x1, y0, y1 = _int_args(rest, 4, head)
        else:
            x0, x1, y0, y1 = 0, 3, 0, 3
        return z2plus_group(x0, x1, y0, y1)
    if head == "mulwin":
        lo, hi = _int_args(rest, 2, head) if rest else (1, 2)
        return mulwin_group(lo, hi)
    raise UnknownCorpusName(f"unknown corpus window group {name!r}; have: "
                            f"zplus:lo:hi, z2plus:x0:x1:y0:y1, mulwin:lo:hi")


def get_map(name: str) -> DigitalMap:
    head, *rest = name.split(":")
    if head == "sum":
        if not rest:
            return sum_map()
        if rest[-1] in ("min", "strong"):
            lo, hi = _int_args(rest[:-1], 2, head)
            return sum_map(lo, hi, strong=rest[-1] == "strong")
        lo, hi = _int_args(rest, 2, head)
        return sum_map(lo, hi)
    if head == "proj1":
        if rest:
            x0, x1, y0, y1 = _int_args(rest, 4, head)
            return projection_map(x0, x1, y0, y1)
        return projection_map()
    if head == "pm1embed" and not rest:
        return sign_embedding()
    raise UnknownCorpusName(f"unknown corpus map {name!r}; have: "
                            f"sum:lo:hi:min|strong, proj1:x0:x1:y0:y1, pm1embed")
