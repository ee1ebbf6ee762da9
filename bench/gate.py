"""Timed in-process CLI calls and the known-answer gate.

Imported by run.py after `src/` is on `sys.path` and `setup_s` has been
measured. Every case is an in-process `ditop.cli.main(argv)` call, one at
a time (one client, closed loop, no threads). Gate checks (verdicts,
witness re-verification) run after a pass, outside the timed region and
after the tracer's counts are read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import ditop.cli
from ditop.fileio import parse_cover, parse_homotopy, parse_image
from ditop.homotopy import verify_homotopy
from ditop.images import induced_subimage
from ditop.maps import DigitalMap

from cases import Case, WrongAnswer
from speed import Clock

CASE_CAP_S = 60.0  # a verdict later than this counts as not arriving


def _call_main(argv: list[str], out: io.StringIO):
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return ditop.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed case, not a dead run
        return f"raised {type(exc).__name__}: {exc}"


def run_case(case: Case, images: dict[str, str], clock: Clock) -> dict:
    """`seconds` is the call's time at the reference host speed (see
    speed.py), `raw_s` its wall time."""
    argv = case.command(images) + ["--json"]
    out = io.StringIO()
    code, raw_s, seconds = clock.time(lambda: _call_main(argv, out))
    return {"case": case.name, "seconds": seconds, "raw_s": raw_s,
            "code": code, "stdout": out.getvalue()}


def _recheck_witness(kind: str, input_path: str, doc: dict) -> None:
    """Parse the report's witnesses back through fileio and re-verify
    every homotopy against the map it claims to start from."""
    wit = doc["witnesses"]
    with open(input_path, encoding="utf-8") as fh:
        given = parse_image(fh.read())
    image = parse_image(wit["image.img"])
    if image.points != given.points:
        raise WrongAnswer("witness image differs from the input image")
    images = {"image.img": image}
    if kind == "contractible":
        homotopies = [(image, wit["contraction"])]
    else:
        pieces = parse_cover(wit["cover"])
        if len(pieces) != doc["results"]["cat"]:
            raise WrongAnswer("cover size differs from the reported cat")
        covered = set()
        homotopies = []
        for k, piece in enumerate(pieces):
            sub = parse_image(wit[f"piece{k}.img"])
            if sub.points != induced_subimage(image, piece).points:
                raise WrongAnswer(f"piece{k}.img is not cover piece {k}")
            images[f"piece{k}.img"] = sub
            homotopies.append((sub, wit[f"piece{k}.contraction"]))
            covered.update(piece)
        if covered != set(image.points):
            raise WrongAnswer("cover pieces miss a point")
    for domain, text in homotopies:
        w = parse_homotopy(text, images.__getitem__)
        ok, why = verify_homotopy(w, DigitalMap.inclusion(domain, image))
        if not ok:
            raise WrongAnswer(f"witness homotopy fails: {why}")
        if not w.end.is_constant():
            raise WrongAnswer("witness homotopy does not end at a constant")


def gate(case: Case, images: dict[str, str], rec: dict) -> None:
    """Adds status ("ok", "unknown", "failed", "wrong") and the stdout
    digest; a wrong verdict or a witness that fails also gets a "wrong"
    message."""
    stdout = rec.pop("stdout")
    rec["digest"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    code = rec["code"]
    if not isinstance(code, int) or code == 1:
        rec["status"] = "failed"
        return
    doc = json.loads(stdout)
    try:
        rec["status"] = case.check(doc["results"], code)
        if rec["status"] == "ok" and case.witness and code == 0:
            image_ref = next(a for a in case.argv if a.startswith("{"))
            _recheck_witness(case.witness, image_ref.format(**images), doc)
    except WrongAnswer as exc:
        rec["status"] = "wrong"
        rec["wrong"] = f"{case.name}: {exc}"


def run_pass(cases, images, clock: Clock) -> list[dict]:
    return [run_case(c, images, clock) for c in cases]


def check_pass(cases, images, records, capped: bool) -> bool:
    """Gates every record of a pass; True when no verdict was wrong."""
    for case, rec in zip(cases, records):
        gate(case, images, rec)
        if capped and rec["status"] == "ok" and rec["seconds"] > CASE_CAP_S:
            rec["status"] = "failed"
    return all(rec["status"] != "wrong" for rec in records)

