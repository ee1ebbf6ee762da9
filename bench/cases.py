"""The benchmark's workloads: CLI cases with their known answers.

Each case is one `ditop.cli.main(argv + ["--json"])` call. Its verdict is
read from the JSON report and compared with an answer known
independently of the solver. `check` returns "ok" for a correct verdict,
"unknown" when the command ran out of `--budget` (a missing verdict, not
a wrong one) and raises `WrongAnswer` otherwise.

Why each workload exists:

- `search`: the map-graph BFS (`homotopy`) does nearly all the work:
  99% of self time at seed 0, against under 0.2% for the admissibility
  oracle (`covers`) and `category`, whose cost is the BFS they call.
  `images`, `groups` and `pathspace` do almost none. Folding dominated
  points, a command-wide budget and a single backtracker should move it.
- `tables`: neighbour tables (`images`), `maps.continuity_violation` and
  Cayley-table loops (`groups`); `homotopy` is idle. One 4,096-point table
  sits beside 480 tiny ones, so a change that speeds the big build but
  slows per-table set-up shows here.
- `sections`: fibers and wedge adjacency (`pathspace`) and the section
  backtracker (`complexity`). Every genus case has the answer 1, so all
  of its time is backtracking waste.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class WrongAnswer(Exception):
    """A verdict that contradicts the known answer."""


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]  # "{theta}" etc. name a seeded input image
    check: Callable[[dict, int], str]
    witness: str | None  # "cat" / "contractible": re-verified from --json
    why: str

    def command(self, images: dict[str, str]) -> list[str]:
        return [a.format(**images) for a in self.argv]


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _verdict(key: str, want, code: int):
    def check(results: dict, exit_code: int) -> str:
        got = results.get(key)
        if got == "unknown" and exit_code == 0:
            return "unknown"
        _need(got == want and exit_code == code,
              f"{key}={got!r} exit {exit_code}, want {want!r} exit {code}")
        return "ok"
    return check


def _group_product(results: dict, exit_code: int) -> str:
    _need(exit_code == 0 and results.get("topological") is True
          and results.get("points") == 64,
          f"got {results} exit {exit_code}, want a topological 64-point group")
    return "ok"


def _group_scan(results: dict, exit_code: int) -> str:
    _need(exit_code == 0 and results.get("structures") == 480
          and results.get("topological") == 0,
          f"got {results} exit {exit_code}, want 480 structures, 0 topological")
    return "ok"


def _group_check(results: dict, exit_code: int) -> str:
    _need(exit_code == 0 and results.get("group_axioms") is True
          and results.get("topological") is True,
          f"got {results} exit {exit_code}, want a topological group")
    return "ok"


def _tc_bounds(results: dict, exit_code: int) -> str:
    if results.get("tc") == "unknown" and exit_code == 0:
        return "unknown"
    if "tc" in results:
        lower = upper = results["tc"]
    else:
        lower, upper = results.get("tc_lower"), results.get("tc_upper")
    _need(exit_code == 0 and isinstance(lower, int) and isinstance(upper, int)
          and 2 <= lower <= upper <= 8,
          f"got {results} exit {exit_code}, want 2 <= lower <= upper <= 8")
    return "ok"


def _verify_paper(results: dict, exit_code: int) -> str:
    _need(exit_code == 0 and results.get("mismatched") == 0
          and results.get("matched", 0) >= 26,
          f"got {results} exit {exit_code}, want 0 mismatched, >= 26 matched")
    return "ok"


WORKLOADS: dict[str, tuple[Case, ...]] = {
    "search": (
        Case("theta_cat", ("cat", "{theta}", "--budget", "20000"),
             _verdict("cat", 2, 0), "cat",
             "cat is 2 (fold to C8) but the BFS runs out of its 20,000-state "
             "budget first; a whole-command budget or folding changes it"),
        Case("ring8_tail5_cat", ("cat", "{ring8_tail5}"),
             _verdict("cat", 2, 0), "cat",
             "cat 2 after folding the tail; dozens of BFS calls, millions of "
             "generated states"),
        Case("ring4x4_c2_cat", ("cat", "{ring4x4_c2}"),
             _verdict("cat", 2, 0), "cat",
             "the same question under c2, about a second of search"),
        Case("ring3x3_c2_contractible", ("contractible", "{ring3x3_c2}"),
             _verdict("contractible", True, 0), "contractible",
             "contractible, but every slide tears, so the BFS must find "
             "the goal"),
        Case("ring8_tail5_contractible", ("contractible", "{ring8_tail5}"),
             _verdict("contractible", False, 2), "contractible",
             "not contractible: the BFS exhausts the identity's class with "
             "no early exit"),
    ),
    "tables": (
        Case("hrot_product", ("group-product", "corpus:Hrot", "corpus:Hrot"),
             _group_product, None,
             "products of topological groups are topological; the "
             "4,096-point neighbour table dominates"),
        Case("scan_p6", ("group-scan", "-p", "6"), _group_scan, None,
             "6!/2 + 6!/6 = 480 labelled groups of order 6, none "
             "topological: a path has only 2 automorphisms"),
        Case("hrot_check", ("group-check", "corpus:Hrot"),
             _group_check, None,
             "the loop's rotation group is topological; tiny tables"),
    ),
    "sections": (
        Case("tc_h4", ("tc", "corpus:H", "-n", "4"), _tc_bounds, None,
             "TC_4 of the loop lies in [2, 8]; induced piece tables and a "
             "large section witness through fileio"),
        Case("genus_c14", ("genus", "corpus:cycle:14", "-n", "1",
                           "--m", "2"),
             _verdict("genus", 1, 0), None,
             "genus 1 (stand still); all time is backtracking waste"),
        Case("genus_c4_strong", ("genus", "corpus:cycle:4", "-n", "1",
                                 "--m", "5", "--mode", "strong"),
             _verdict("genus", 1, 0), None,
             "genus 1 under the strong step relation; millions of wedge "
             "adjacency tests"),
        Case("verify_paper", ("verify-paper",), _verify_paper, None,
             "the bundled reference rows: 0 mismatched, >= 26 matched"),
    ),
}
