"""Structured run reports for the command line.

A report collects what was run, digests of what it consumed, the
settings that color every numeric claim (adjacency mode, arm length,
the k-sets counting convention), results, and re-verifiable witnesses.
Serialization is deterministic — two runs with the same inputs and
flags produce byte-identical documents — so timing goes to stderr, not
into the report.
"""

from __future__ import annotations

import hashlib
import json


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Report:
    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.settings: dict = {}
        self.results: dict = {}
        self.witnesses: dict = {}
        self.notes: list = []

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "settings": self.settings,
            "results": self.results,
            "witnesses": self.witnesses,
            "notes": list(self.notes),
        }
        return json.dumps(doc, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for ref in sorted(self.inputs):
            lines.append(f"input: {ref} sha256 {self.inputs[ref][:16]}")
        if self.settings:
            pairs = " ".join(f"{k}={self.settings[k]}"
                             for k in sorted(self.settings))
            lines.append(f"settings: {pairs}")
        for key in sorted(self.results):
            lines.append(f"{key}: {self.results[key]}")
        for name in sorted(self.witnesses):
            text = self.witnesses[name]
            n = len(text.splitlines())
            lines.append(f"witness {name}: {n} line(s)")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
