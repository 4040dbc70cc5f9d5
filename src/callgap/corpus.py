"""Type-usage data model, corpus container with bucket index, and file I/O.

A type-usage is one variable's view of an API: the variable's declared type,
the signature of the enclosing method (its "context"), and the set of methods
invoked on it. A corpus is an immutable collection of type-usages indexed by
(type, context) bucket so that similarity queries touch only one bucket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed."""


@dataclass(frozen=True)
class TypeUsage:
    """One variable's (type, context, call-set) triple.

    ``calls`` may be empty (a variable that is only passed around).
    Constructor invocations appear as the literal name ``<init>`` with no
    special treatment. ``origin`` is a free-form locator (e.g. "File.java:42")
    carried through to reports.
    """

    id: str
    type_name: str
    context: str
    calls: frozenset[str]
    origin: str | None = None


class Corpus:
    """Immutable, ordered collection of type-usages with bucket indexes.

    ``bucket_index`` maps (type_name, context) to the ids sharing that pair;
    ``type_index`` maps type_name alone to ids (used when the context-equality
    condition is switched off). Input order is preserved everywhere and serves
    as the final tie-breaker for deterministic output.
    """

    def __init__(self, usages: Iterable[TypeUsage]):
        self.usages: list[TypeUsage] = list(usages)
        self.by_id: dict[str, TypeUsage] = {}
        self.bucket_index: dict[tuple[str, str], list[str]] = {}
        self.type_index: dict[str, list[str]] = {}
        for u in self.usages:
            if not u.type_name or not u.context:
                raise ValueError(
                    f"usage {u.id!r}: type_name and context must be non-empty"
                )
            if u.id in self.by_id:
                raise ValueError(f"duplicate usage id {u.id!r}")
            self.by_id[u.id] = u
            self.bucket_index.setdefault((u.type_name, u.context), []).append(u.id)
            self.type_index.setdefault(u.type_name, []).append(u.id)

    def __len__(self) -> int:
        return len(self.usages)

    def __iter__(self):
        return iter(self.usages)

    def get(self, usage_id: str) -> TypeUsage:
        try:
            return self.by_id[usage_id]
        except KeyError:
            raise KeyError(f"unknown usage id {usage_id!r}") from None

    def bucket(self, type_name: str, context: str) -> list[str]:
        """Ids of all usages with exactly this (type, context) pair."""
        return self.bucket_index.get((type_name, context), [])


def _parse_records(text: str, fields_of) -> Corpus:
    """The record loop both line formats share.

    Lines starting with ``#`` and blank lines are skipped. ``fields_of(line,
    lineno)`` splits a record line into (id, type, context, calls, origin)
    strings, calls a list of strings. Every field is stripped; an empty id is
    auto-assigned ``u<ordinal>`` in record order, empty call names are
    dropped and duplicates collapse (calls form a set), an empty origin is
    None.
    """
    usages: list[TypeUsage] = []
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        uid, type_name, context, calls, origin = fields_of(line, lineno)
        uid = uid.strip() or f"u{len(usages) + 1}"
        type_name = type_name.strip()
        context = context.strip()
        if not type_name or not context:
            raise CorpusFormatError(f"line {lineno}: empty type or context field")
        if uid in id_lines:
            raise CorpusFormatError(
                f"line {lineno}: duplicate id {uid!r} (first seen on line {id_lines[uid]})"
            )
        id_lines[uid] = lineno
        try:
            calls = frozenset(filter(None, map(str.strip, calls)))
        except TypeError:
            raise CorpusFormatError(f"line {lineno}: call names must be strings") from None
        usages.append(TypeUsage(uid, type_name, context, calls, origin.strip() or None))
    return Corpus(usages)


def _tsv_fields(line: str, lineno: int):
    fields = line.split("\t")
    if len(fields) not in (4, 5):
        raise CorpusFormatError(
            f"line {lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}"
        )
    origin = fields[4] if len(fields) == 5 else ""
    return fields[0], fields[1], fields[2], fields[3].split(","), origin


def _jsonl_fields(line: str, lineno: int):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise CorpusFormatError(f"line {lineno}: expected a JSON object")
    calls = rec.get("calls", [])
    if not isinstance(calls, list):
        raise CorpusFormatError(f"line {lineno}: 'calls' must be a list")
    uid, type_name, context, origin = map(rec.get, ("id", "type", "context", "origin"))
    return ("" if uid is None else str(uid), "" if type_name is None else str(type_name),
            "" if context is None else str(context), calls,
            "" if origin is None else str(origin))


def parse_corpus(text: str) -> Corpus:
    """Parse the tab-separated corpus line format.

    One record per line: ``id <TAB> type <TAB> context <TAB> calls [<TAB> origin]``,
    calls comma-separated.
    """
    return _parse_records(text, _tsv_fields)


def parse_corpus_jsonl(text: str) -> Corpus:
    """Parse the JSON-lines mirror (keys: id, type, context, calls, origin)."""
    return _parse_records(text, _jsonl_fields)


def _writable(u: TypeUsage, field: str, value: str, separators: str = "\t") -> str:
    """``value`` if the line format reads it back unchanged, else ValueError
    naming the usage and the field."""
    if not value or value != value.strip():
        why = "it is empty or has surrounding whitespace"
    elif value.splitlines() != [value]:  # the parser splits lines the same way
        why = "it contains a line break"
    elif any(c in separators for c in value):
        why = f"it contains {next(c for c in value if c in separators)!r}"
    else:
        return value
    raise ValueError(f"usage {u.id!r}: cannot write {field} {value!r}: {why}")


def write_corpus(corpus: Corpus) -> str:
    """Serialize to the canonical line format, calls sorted lexicographically.

    Round trip preserves everything except call ordering within a record.
    A usage the format cannot carry back unchanged raises ValueError: a field
    that is empty (calls may be), padded with whitespace, or holds a tab or
    line break, a call name holding a comma, or an id starting with ``#``
    (it would read back as a comment).
    """
    lines = []
    for u in corpus:
        if u.id.startswith("#"):
            raise ValueError(
                f"usage {u.id!r}: cannot write id {u.id!r}: it would read back as a comment"
            )
        fields = [_writable(u, "id", u.id), _writable(u, "type", u.type_name),
                  _writable(u, "context", u.context),
                  ",".join(sorted(_writable(u, "call", c, "\t,") for c in u.calls))]
        if u.origin is not None:
            fields.append(_writable(u, "origin", u.origin))
        lines.append("\t".join(fields))
    return "".join(line + "\n" for line in lines)


def load_corpus(path: str) -> Corpus:
    """Read a corpus file, dispatching on extension (.jsonl vs tab format)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".jsonl"):
        return parse_corpus_jsonl(text)
    return parse_corpus(text)
