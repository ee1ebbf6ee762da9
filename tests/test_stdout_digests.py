"""Byte stability: the `--json` stdout of fixed commands, pinned by digest.

The commands run every caller of `maps.backtrack` (the map graph behind
`cat` and `contractible`, the section search behind `genus` and `tc`,
the group enumeration behind `group-scan`). Inputs are corpus images, so
no file path reaches the report. A digest changes only with the bytes of
the report; when a change means to alter them, record the new digest and
say why.
"""

from __future__ import annotations

import hashlib

import pytest

from ditop.cli import main

DIGESTS = {
    "genus corpus:cycle:14 -n 1 --m 2":
        (0, "8d483c2684a2d979eabead76f57b1d2c67fb0a6bb6473153c63f1b7343647f01"),
    "genus corpus:interval:1 -n 2 --m 1":
        (0, "0dc7754cc7513c065b6430c04202be1e8a29a05b04b46b2ca78eb3c83e3653c8"),
    "group-scan -p 5":
        (0, "e722091242237cc053704139de97216b8d9369facaaab82dfa2f099a51db3a0d"),
    "cat corpus:H":
        (0, "2205248cda61f7b9c76e2beab68b43ea699e3bd8036531fda37147dfca8b48d9"),
    "contractible corpus:H":
        (2, "33b38bb40b013ad3406a85bd8fe628ad8eb6e6d526c26f073f2ebd910b44f1e3"),
    "tc corpus:H -n 3":
        (0, "ccd9d4e90893629de5f727f0dbec1073c0f327f7234b9ab905069b02ed4badb1"),
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_json_stdout_matches_its_recorded_digest(capsys, command):
    code = main(command.split() + ["--json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) \
        == DIGESTS[command]
