"""A ratchet on where the solver stops: one case per row of the table
"Where the solver stops today" in ROADMAP.md.

Each case runs one CLI command in process and asserts that its answer is
at least as good as the row records: a lower bound no lower, an upper
bound no higher (`?` where the row has `?`, which a number may replace),
and an exit status no worse (an exit 1 may become an answer). Each case
also has a wall-time cap of about ten times the row's time, and at
least one second (half a second for the 48-cycle, whose "no" is a
certificate found in milliseconds), so a lost route fails the case but
host noise does not. Rows only ever tighten: a change that moves a row
tightens its case here and records the old and new answers in
CHANGES.md; no change loosens one.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from ditop.cli import main

# (command, lower, upper or "?", exit status, wall cap in seconds)
BOUNDS = [
    ("tc corpus:cycle:12 -n 2", 2, "?", 0, 1.0),
    ("tc corpus:cycle:12 -n 3", 2, "?", 0, 1.0),
    ("tc corpus:cycle:12 -n 4", 2, "?", 0, 1.0),
    ("tc corpus:cycle:12 -n 5", 2, "?", 0, 1.0),
    ("tc corpus:cycle:20 -n 3", 2, "?", 0, 1.0),
    ("tc corpus:H -n 4", 2, 8, 0, 1.0),
    ("tc corpus:H -n 5", 2, 16, 0, 4.5),
]

# commands that exit 1 today, each within one second
REFUSED = [
    "genus corpus:cycle:4 -n 2 --m 2",
    "genus corpus:H -n 2 --m 4",
    "group-scan corpus:cycle:8",
    "group-scan corpus:cycle:16",
    "group-scan -p 7",
    "group-scan corpus:interval:0:6 --mode strong",
]


def _run(capsys, command: str, cap: float) -> tuple[int, str]:
    t0 = time.perf_counter()
    code = main(command.split() + ["--json"])
    elapsed = time.perf_counter() - t0
    assert elapsed < cap, (command, elapsed)
    return code, capsys.readouterr().out


def _no_looser(lower, upper, want_lower, want_upper) -> None:
    assert lower >= want_lower
    if want_upper != "?":
        assert upper != "?" and upper <= want_upper
    assert upper == "?" or lower <= upper


@pytest.mark.parametrize("command, lower, upper, status, cap", BOUNDS)
def test_tc_bounds_never_loosen(capsys, command, lower, upper, status, cap):
    code, out = _run(capsys, command, cap)
    assert code == status
    results = json.loads(out)["results"]
    _no_looser(results["tc_lower"], results["tc_upper"], lower, upper)


def test_the_long_cycle_stays_non_contractible(capsys):
    # a cocycle certificate names a 48-step closed walk; the search that
    # said "no" before took about 0.4 s, under a 4 s cap
    code, out = _run(capsys, "contractible corpus:cycle:48", 0.5)
    assert code == 2
    doc = json.loads(out)
    assert doc["results"]["contractible"] is False
    (note,) = doc["notes"]
    assert note.startswith("not contractible: a cocycle takes the value ")
    walk = re.findall(r"\(\d+, \d+\)", note.split("closed walk ")[1])
    assert len(walk) == 49 and walk[0] == walk[-1]


@pytest.mark.parametrize("command", REFUSED)
def test_refused_commands_may_only_become_answers(capsys, command):
    code, _ = _run(capsys, command, 1.0)
    assert code in (0, 1, 2)


def test_the_paper_table_keeps_tc3_of_the_loop_within_its_bound(capsys):
    code, out = _run(capsys, "verify-paper", 1.0)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["mismatched"] == 0
    assert doc["results"]["matched"] >= 26
    (row,) = [n for n in doc["notes"] if n.startswith("TC_3 of the loop")]
    lower, upper = map(int, re.search(r"got \[(\d+), (\d+)\]", row).groups())
    _no_looser(lower, upper, 2, 4)
