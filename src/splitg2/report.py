"""Check records and report rendering for the command-line tools.

A report is a flat list of records, each carrying a stable anchor id, a
short human-readable name, a status, and the computed/expected value
texts.  Output is byte-stable for a fixed configuration: records are
sorted by anchor, scalars are rendered canonically, and no timestamps or
environment details are embedded.

Every small immutable record of the package (check records, torsion
sets, scenarios, run options) is a `collections.namedtuple`: its fields
are declared once, bind by position or keyword, refuse assignment, and
compare, hash, print, copy and pickle by value.  A record with methods
subclasses its namedtuple with `__slots__ = ()`, except `textio.Scenario`,
whose instance `__dict__` holds its cached values and which refuses every
assignment itself.  `Record` checks its status in `__new__`; `_make` and
`_replace` skip that check, and the package calls neither.  Callers read
records by attribute only: none indexes, iterates or unpacks one.
"""

from collections import namedtuple
from typing import List, Optional

SCHEMA_VERSION = 1

_STATUSES = ("pass", "fail", "info")


class Record(namedtuple("Record", ("anchor", "name", "status", "computed",
                                   "expected"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        return self


class Report:
    """Accumulates records for one command run."""

    def __init__(self, command: str, scenario: str, seed: Optional[int] = None):
        self.command = command
        self.scenario = scenario
        self.seed = seed
        self.notes: List[str] = []
        self.records: List[Record] = []
        # extra JSON-only content, e.g. solved torsions as structured data
        self.payload: dict = {}

    def add(self, anchor: str, name: str, ok, computed, expected="") -> Record:
        """Append one record; ok=None marks an informational entry."""
        status = "info" if ok is None else ("pass" if ok else "fail")
        rec = Record(anchor, name, status, str(computed), str(expected))
        self.records.append(rec)
        return rec

    def note(self, text: str) -> None:
        self.notes.append(text)

    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def counts(self) -> dict:
        out = {status: 0 for status in _STATUSES}
        for r in self.records:
            out[r.status] += 1
        return out

    def _sorted(self) -> List[Record]:
        return sorted(self.records, key=lambda r: (r.anchor, r.name))

    def to_text(self) -> str:
        lines = [f"splitg2 {self.command}"]
        lines.append(f"schema-version: {SCHEMA_VERSION}")
        lines.append(f"scenario: {self.scenario}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        for r in self._sorted():
            lines.append(f"[{r.status}] {r.anchor} :: {r.name}")
            lines.append(f"       computed: {r.computed}")
            if r.expected:
                lines.append(f"       expected: {r.expected}")
        lines.append("")
        c = self.counts()
        verdict = "pass" if self.passed() else "fail"
        lines.append(
            f"result: {verdict} ({len(self.records)} checks: "
            f"{c['pass']} pass, {c['fail']} fail, {c['info']} info)"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # only JSON output needs it; a text run skips the import

        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "notes": self.notes,
            "records": [r._asdict() for r in self._sorted()],
            "counts": self.counts(),
            "result": "pass" if self.passed() else "fail",
        }
        doc.update(self.payload)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()
