"""Line-oriented text formats for images, maps, homotopies, groups, and
witnesses.

All formats share the same skeleton: UTF-8 text, one record per line,
'#' starts a comment, blank lines are ignored. Parsers complain with the
line number; serializers emit canonical order so that parse/serialize
round-trips are byte-stable.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from .groups import CayleyTable
from .homotopy import HomotopyWitness
from .images import CK, DigitalImage, Explicit, Point
from .maps import DigitalMap


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _headed(text: str, kind: str, usage: str) -> list[tuple[int, list[str]]]:
    """The records of a `kind` file, whose first record must be the
    header `usage` spells."""
    body = list(_records(text))
    if not body or body[0][1][0] != usage.split()[0]:
        raise ParseError(body[0][0] if body else 1,
                         f"{kind} file starts with: {usage}")
    return body


def _ints(fields: Sequence[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in fields)
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {' '.join(fields)}")


def _one_int(fields: Sequence[str], lineno: int, usage: str) -> int:
    """The one integer a record wants; `usage` names it otherwise."""
    if len(fields) != 1:
        raise ParseError(lineno, usage)
    return _ints(fields, lineno)[0]


def _announced(lineno: int, head: str, k: int, unit: str,
               listed: int) -> None:
    """Raise unless the `head` record that announced k units lists k."""
    if k != listed:
        raise ParseError(lineno, f"{head} announced {k} {unit}, lists {listed}")


def parse_image(text: str) -> DigitalImage:
    dim: Optional[int] = None
    adjacency = None
    explicit = False
    points: list[Point] = []
    seen: dict[Point, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, fields in _records(text):
        head, rest = fields[0], fields[1:]
        if head == "dim":
            if dim is not None:
                raise ParseError(lineno, "dim given twice")
            dim = _one_int(rest, lineno, "dim wants one positive integer")
            if dim < 1:
                raise ParseError(lineno, "dim wants one positive integer")
        elif head == "adjacency":
            if len(rest) != 1:
                raise ParseError(lineno, "adjacency wants one word")
            word = rest[0]
            if word == "explicit":
                explicit = True
            elif word.startswith("c") and word[1:].isdigit():
                adjacency = CK(int(word[1:]))
            else:
                raise ParseError(lineno, f"unknown adjacency {word!r} "
                                         f"(use c<k> or explicit)")
        elif head == "point":
            if dim is None:
                raise ParseError(lineno, "point before dim")
            if len(rest) != dim:
                raise ParseError(lineno, f"point wants {dim} coordinates")
            p = _ints(rest, lineno)
            if p in seen:
                raise ParseError(lineno, f"duplicate point {p} "
                                         f"(first at line {seen[p]})")
            seen[p] = lineno
            points.append(p)
        elif head == "edge":
            if not explicit:
                raise ParseError(lineno, "edge lines need adjacency explicit")
            if len(rest) != 2:
                raise ParseError(lineno, "edge wants two point indices")
            i, j = _ints(rest, lineno)
            if not (0 <= i < len(points) and 0 <= j < len(points)):
                raise ParseError(lineno, f"edge {i} {j} is out of range "
                                         f"({len(points)} points so far)")
            if i == j:
                raise ParseError(lineno, "edge cannot join a point to itself")
            edges.append((i, j))
        else:
            raise ParseError(lineno, f"unknown record {head!r}")
    if dim is None:
        raise ParseError(1, "missing dim")
    if explicit:
        pairs = {(points[i], points[j]) for i, j in edges}
        return DigitalImage(points, Explicit.of(pairs))
    if adjacency is None:
        raise ParseError(1, "missing adjacency")
    return DigitalImage(points, adjacency)


def serialize_image(img: DigitalImage) -> str:
    """c_k images keep their rule; any other adjacency (explicit or a
    product) is written as the image's own edge list."""
    ck = isinstance(img.adjacency, CK)
    lines = [f"dim {img.dim}",
             f"adjacency c{img.adjacency.k}" if ck else "adjacency explicit"]
    for p in img.points:
        lines.append("point " + " ".join(str(c) for c in p))
    if not ck:
        for i, j in img.edge_index_pairs:
            lines.append(f"edge {i} {j}")
    return "\n".join(lines) + "\n"


Resolver = Callable[[str], DigitalImage]


def _file_resolver(base_dir: str) -> Resolver:
    def resolve(ref: str) -> DigitalImage:
        if ref.startswith("corpus:"):
            from .corpus import get_image
            return get_image(ref[len("corpus:"):])
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            return parse_image(text)
        except ParseError as err:
            err.args = (f"{path}: {err}",)  # its line is the image file's
            raise
    return resolve


def parse_map(text: str, resolve: Resolver) -> DigitalMap:
    return _read_map(_headed(text, "map", "map <domain> <codomain>"), resolve)


def _read_map(body: list[tuple[int, list[str]]],
              resolve: Resolver) -> DigitalMap:
    """The map whose records are `body`, its `map` header first."""
    lineno, fields = body[0]
    if len(fields) != 3:
        raise ParseError(lineno, "map wants two image references")
    domain = resolve(fields[1])
    codomain = resolve(fields[2])
    assignment: dict[Point, Point] = {}
    for lineno, fields in body[1:]:
        if fields[0] != "pair":
            raise ParseError(lineno, f"unknown record {fields[0]!r} in map file")
        rest = fields[1:]
        if "->" not in rest:
            raise ParseError(lineno, "pair wants: pair <coords> -> <coords>")
        cut = rest.index("->")
        src = _ints(rest[:cut], lineno)
        dst = _ints(rest[cut + 1:], lineno)
        if len(src) != domain.dim:
            raise ParseError(lineno, f"left side wants {domain.dim} coordinates")
        if len(dst) != codomain.dim:
            raise ParseError(lineno, f"right side wants {codomain.dim} coordinates")
        if src not in domain:
            raise ParseError(lineno, f"{src} is not a domain point")
        if dst not in codomain:
            raise ParseError(lineno, f"value {dst} is not in the codomain")
        if src in assignment:
            raise ParseError(lineno, f"{src} assigned twice")
        assignment[src] = dst
    missing = [p for p in domain.points if p not in assignment]
    if missing:
        raise ParseError(lineno, f"no value for domain point {missing[0]}")
    return DigitalMap.from_mapping(domain, codomain, assignment)


def serialize_map(dm: DigitalMap, domain_ref: str, codomain_ref: str) -> str:
    lines = [f"map {domain_ref} {codomain_ref}"]
    for p, q in zip(dm.domain.points, dm.values):
        lines.append("pair " + " ".join(str(c) for c in p) + " -> "
                     + " ".join(str(c) for c in q))
    return "\n".join(lines) + "\n"


def parse_homotopy(text: str, resolve: Resolver) -> HomotopyWitness:
    body = _headed(text, "homotopy", "stages <count>")
    lineno, fields = body[0]
    count = _one_int(fields[1:], lineno, "stages wants one count")
    if count < 1:
        raise ParseError(lineno, "a homotopy has at least one stage")
    blocks: list[list[tuple[int, list[str]]]] = []
    for lineno, fields in body[1:]:
        if fields[0] == "map":
            blocks.append([])
        if not blocks:
            raise ParseError(lineno, "stage records before the first map header")
        blocks[-1].append((lineno, fields))
    if len(blocks) != count:
        raise ParseError(body[0][0],
                         f"stages {count} but found {len(blocks)} map blocks")
    return HomotopyWitness(tuple(_read_map(block, resolve) for block in blocks))


def serialize_homotopy(w: HomotopyWitness, domain_ref: str,
                       codomain_ref: str) -> str:
    parts = [f"stages {len(w.stages)}"]
    for stage in w.stages:
        parts.append(serialize_map(stage, domain_ref, codomain_ref).rstrip("\n"))
    return "\n".join(parts) + "\n"


def parse_group(text: str, resolve: Resolver) -> CayleyTable:
    body = _headed(text, "group", "group <image>")
    lineno, fields = body[0]
    if len(fields) != 2:
        raise ParseError(lineno, "group wants one image reference")
    img = resolve(fields[1])
    d = img.dim
    n = len(img.points)
    identity: Optional[Point] = None
    rows: dict[Point, tuple[Point, ...]] = {}
    for lineno, fields in body[1:]:
        head, rest = fields[0], fields[1:]
        if head == "identity":
            if identity is not None:
                raise ParseError(lineno, "identity given twice")
            if len(rest) != d:
                raise ParseError(lineno, f"identity wants {d} coordinates")
            identity = _ints(rest, lineno)
            if identity not in img:
                raise ParseError(lineno,
                                 f"identity {identity} is not in the carrier")
        elif head == "row":
            if ":" not in rest:
                raise ParseError(lineno, "row wants: row <coords> : <products>")
            cut = rest.index(":")
            left = _ints(rest[:cut], lineno)
            if len(left) != d:
                raise ParseError(lineno, f"row point wants {d} coordinates")
            if left not in img:
                raise ParseError(lineno, f"{left} is not a carrier point")
            if left in rows:
                raise ParseError(lineno, f"row {left} given twice")
            flat = _ints(rest[cut + 1:], lineno)
            if len(flat) != n * d:
                raise ParseError(lineno, f"row wants {n} products of {d} "
                                         f"coordinates each")
            rows[left] = tuple(flat[k * d:(k + 1) * d] for k in range(n))
            for b, v in zip(img.points, rows[left]):
                if v not in img:
                    raise ParseError(lineno, f"{left} * {b} = {v} is outside "
                                             f"the carrier")
        else:
            raise ParseError(lineno, f"unknown record {head!r} in group file")
    if identity is None:
        raise ParseError(1, "missing identity")
    missing = [p for p in img.points if p not in rows]
    if missing:
        raise ParseError(1, f"missing row for {missing[0]}")
    return CayleyTable.from_points(img, identity, [rows[p] for p in img.points])


def serialize_group(table: CayleyTable, image_ref: str) -> str:
    lines = [f"group {image_ref}",
             "identity " + " ".join(str(c) for c in table.identity)]
    for p, row in zip(table.image.points, table.entries):
        flat = " ".join(str(c) for q in row for c in q)
        lines.append("row " + " ".join(str(c) for c in p) + " : " + flat)
    return "\n".join(lines) + "\n"


def serialize_cover(pieces: Sequence[Sequence[Point]]) -> str:
    """Subset-only witness: the pieces of a cover, point lists."""
    lines = [f"cover {len(pieces)}"]
    for piece in pieces:
        lines.append(f"piece {len(piece)}")
        for p in piece:
            lines.append("point " + " ".join(str(c) for c in p))
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> list[tuple[Point, ...]]:
    body = _headed(text, "cover", "cover <count>")
    lineno, fields = body[0]
    count = _one_int(fields[1:], lineno, "cover wants one piece count")
    # per piece: (line, announced size, points)
    pieces: list[tuple[int, int, list[Point]]] = []
    for lineno, fields in body[1:]:
        head, rest = fields[0], fields[1:]
        if head == "piece":
            pieces.append((lineno, _one_int(rest, lineno,
                                            "piece wants one point count"), []))
        elif head == "point":
            if not pieces:
                raise ParseError(lineno, "point before the first piece")
            pieces[-1][2].append(_ints(rest, lineno))
        else:
            raise ParseError(lineno, f"unknown record {head!r} in cover file")
    _announced(body[0][0], "cover", count, "pieces", len(pieces))
    for lineno, k, points in pieces:
        _announced(lineno, "piece", k, "points", len(points))
    return [tuple(points) for *_, points in pieces]


def serialize_sections(base: DigitalImage, witnesses, n: int, m: int) -> str:
    """Section witnesses over the n-fold power of `base`: per piece, each
    point with its n arm paths. Each base point is formatted once, product
    points are built digit by digit, and each distinct arm once."""
    cells = [" ".join(map(str, p)) for p in base.points]
    heads = ["at " + c for c in cells]
    for _ in range(n - 1):
        heads = [h + " " + c for h in heads for c in cells]
    lines = [f"sections {len(witnesses)} arms {n} length {m}"]
    arm_lines: dict = {}
    for sw in witnesses:
        lines.append(f"piece {len(sw.piece)}")
        for u, wedge in zip(sw.piece, sw.wedges):
            lines.append(heads[u])
            for arm in wedge:
                line = arm_lines.get(arm)
                if line is None:
                    line = arm_lines[arm] = "arm " + " | ".join(
                        [cells[q] for q in arm])
                lines.append(line)
    return "\n".join(lines) + "\n"


def parse_sections(text: str):
    """Returns (n, m, pieces), each piece a pair (points, wedges) of the
    endpoint tuples and their wedges of point arms, as points, for the
    reader to index; inverse of serialize_sections."""
    body = _headed(text, "sections", "sections <count> arms <n> length <m>")
    lineno, fields = body[0]
    if len(fields) != 6 or fields[2] != "arms" or fields[4] != "length":
        raise ParseError(lineno, "header wants: sections <count> arms <n> "
                                 "length <m>")
    count, n, m = _ints(fields[1::2], lineno)
    # per piece: (line, announced size, [(line, point, arms) per point])
    pieces: list[tuple[int, int, list]] = []
    for lineno, fields in body[1:]:
        head, rest = fields[0], fields[1:]
        if head == "piece":
            pieces.append((lineno, _one_int(rest, lineno,
                                            "piece wants one point count"), []))
        elif head == "at":
            if not pieces:
                raise ParseError(lineno, "at before the first piece")
            pieces[-1][2].append((lineno, _ints(rest, lineno), []))
        elif head == "arm":
            if not pieces or not pieces[-1][2]:
                raise ParseError(lineno, "arm before any at record")
            chunks = " ".join(rest).split("|")
            arm = tuple(_ints(chunk.split(), lineno) for chunk in chunks)
            if len(arm) != m + 1:
                raise ParseError(lineno, f"arm wants {m + 1} points")
            pieces[-1][2][-1][2].append(arm)
        else:
            raise ParseError(lineno, f"unknown record {head!r} in sections file")
    _announced(body[0][0], "sections", count, "pieces", len(pieces))
    for lineno, k, points in pieces:
        _announced(lineno, "piece", k, "points", len(points))
        for at, _, arms in points:
            if len(arms) != n:
                raise ParseError(at, f"point has {len(arms)} arms, wants {n}")
    return n, m, [(tuple(p for _, p, _ in points),
                   tuple(tuple(arms) for *_, arms in points))
                  for _, _, points in pieces]


def load_image(path: str) -> DigitalImage:
    with open(path, encoding="utf-8") as fh:
        return parse_image(fh.read())


def load_map(path: str) -> DigitalMap:
    with open(path, encoding="utf-8") as fh:
        return parse_map(fh.read(), _file_resolver(os.path.dirname(path) or "."))


def load_homotopy(path: str) -> HomotopyWitness:
    with open(path, encoding="utf-8") as fh:
        return parse_homotopy(fh.read(),
                              _file_resolver(os.path.dirname(path) or "."))


def load_group(path: str) -> CayleyTable:
    with open(path, encoding="utf-8") as fh:
        return parse_group(fh.read(), _file_resolver(os.path.dirname(path) or "."))
