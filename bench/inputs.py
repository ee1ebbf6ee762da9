"""Seeded image inputs for the `search` workload.

Seed 0 writes the four images at the coordinates below. Any other seed
moves each image by a plane isometry drawn from the seed: a rotation or
reflection of the square lattice followed by a translation. Isometries
preserve c1 and c2 adjacency, so every known answer holds on every seed,
while the points' sorted order, and with it the search order, changes.

`ring8_tail5` is the exception: it only gets the isometries that keep its
tail pointing along +x (the identity and the reflection across the tail's
axis, which maps the shape onto itself). Rotating the tail changes the
`cat` search cost by 7 to 10 times, so a seed that rotated it would
measure a different workload rather than the same one in a new order.
The measured costs of the rotated variants are listed in bench/README.md.
"""

from __future__ import annotations

import os
import random

Point = tuple[int, int]

# The eight linear isometries of Z^2, as (x, y) -> (a*x + b*y, c*x + d*y).
D4 = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
      (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0))
TAIL_PRESERVING = ((1, 0, 0, 1), (1, 0, 0, -1))


def _frame(w: int, h: int) -> list[Point]:
    """Boundary of the box [0, w] x [0, h]."""
    return [(x, y) for x in range(w + 1) for y in range(h + 1)
            if x in (0, w) or y in (0, h)]


# name -> (points at seed 0, k of the c_k adjacency, allowed isometries)
SHAPES = {
    # Two 8-cycles sharing the side x = 2: the paper's category setting
    # at 13 points, where the exact map-graph BFS is the wall.
    "theta": ([(x, 0) for x in range(3)] + [(x, 2) for x in range(3)]
              + [(0, 1), (2, 1), (3, 0), (4, 0), (4, 1), (4, 2), (3, 2)],
              1, D4),
    # An 8-cycle with a 5-point tail; folding the tail leaves C8.
    "ring8_tail5": (_frame(2, 2) + [(x, 1) for x in range(3, 8)], 1,
                    TAIL_PRESERVING),
    # The 12-point frame under c2: folding its corners leaves an 8-cycle
    # (cat 2).
    "ring4x4_c2": (_frame(3, 3), 2, D4),
    # The 8-point frame under c2: folding its corners leaves a 4-cycle,
    # which is contractible.
    "ring3x3_c2": (_frame(2, 2), 2, D4),
}


def transformed(seed: int) -> dict[str, tuple[list[Point], int]]:
    """Each shape's points after the seed's isometry, with its k."""
    rng = random.Random(seed)
    out = {}
    for name, (points, k, allowed) in SHAPES.items():
        a, b, c, d = rng.choice(allowed)
        dx, dy = rng.randint(-20, 20), rng.randint(-20, 20)
        if seed == 0:
            a, b, c, d, dx, dy = 1, 0, 0, 1, 0, 0
        out[name] = ([(a * x + b * y + dx, c * x + d * y + dy)
                      for x, y in points], k)
    return out


def image_text(points: list[Point], k: int) -> str:
    lines = ["dim 2", f"adjacency c{k}"]
    lines += [f"point {x} {y}" for x, y in sorted(set(points))]
    return "\n".join(lines) + "\n"


def write_inputs(seed: int, directory: str) -> dict[str, str]:
    """Write `<name>.img` for every shape; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, (points, k) in transformed(seed).items():
        path = os.path.join(directory, f"{name}.img")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(image_text(points, k))
        paths[name] = path
    return paths
