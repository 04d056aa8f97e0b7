"""Check records and report rendering for the command-line tools.

A report is a flat list of records, each carrying a stable anchor id, a
short human-readable name, a status, and the computed/expected value
texts.  Output is byte-stable for a fixed configuration: records are
sorted by anchor, scalars are rendered canonically, and no timestamps or
environment details are embedded.

`Frozen` is the base of every small immutable record in the package:
check records, torsion sets, scenarios, run options.  A record declares
its fields once, in `_fields`; `Frozen` supplies the one constructor.
"""

from typing import List, Optional

SCHEMA_VERSION = 1

_STATUSES = ("pass", "fail", "info")


class Frozen:
    """Base of the package's immutable records.

    A record names its fields in `_fields`; it defines no constructor of
    its own.  `Frozen(*args, **kwargs)` binds positional arguments to the
    fields in order and keywords by name, and raises TypeError for an
    extra positional argument, an unknown keyword, a field given twice or
    a field left out.  Assigning or deleting an attribute afterwards
    raises AttributeError.  Records compare and hash by class and field
    values, print as a constructor call, and copy and pickle through the
    constructor."""

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"fields, got {len(args)} positional arguments")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() is missing field "
                                f"{name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:  # what is left was given twice or is no field
            name = next(iter(kwargs))
            raise TypeError(f"{type(self).__name__}() got field {name!r} twice"
                            if name in fields else
                            f"{type(self).__name__}() has no field {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the
        # fields in `_fields` order; restoring slots would assign them
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Record(Frozen):
    __slots__ = _fields = ("anchor", "name", "status", "computed", "expected")

    def __init__(self, *args, **kwargs):
        Frozen.__init__(self, *args, **kwargs)
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")


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
            "records": [dict(zip(r._fields, r._values())) for r in self._sorted()],
            "counts": self.counts(),
            "result": "pass" if self.passed() else "fail",
        }
        doc.update(self.payload)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()
