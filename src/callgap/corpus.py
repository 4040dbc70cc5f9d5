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

    ``bucket_index`` maps (type_name, context) to the usages sharing that
    pair; ``type_index`` maps type_name alone to its usages. ``bucket`` is the
    one lookup that picks between them. Input order is preserved everywhere
    and serves as the final tie-breaker for deterministic output.

    Every usage needs a non-empty type and context and an id of its own; a
    usage that breaks either rule is a ValueError naming its record number.
    """

    def __init__(self, usages: Iterable[TypeUsage]):
        self.usages: list[TypeUsage] = list(usages)
        self.by_id: dict[str, TypeUsage] = {u.id: u for u in self.usages}
        self.bucket_index: dict[tuple[str, str], list[TypeUsage]] = {}
        self.type_index: dict[str, list[TypeUsage]] = {}
        for u in self.usages:
            self.bucket_index.setdefault((u.type_name, u.context), []).append(u)
            self.type_index.setdefault(u.type_name, []).append(u)
        if len(self.by_id) < len(self.usages) or any(not t or not c for t, c in self.bucket_index):
            raise ValueError(_broken_rule(self.usages, lambda i: f"record {i + 1}"))

    def __len__(self) -> int:
        return len(self.usages)

    def __iter__(self):
        return iter(self.usages)

    def get(self, usage_id: str) -> TypeUsage:
        try:
            return self.by_id[usage_id]
        except KeyError:
            raise KeyError(f"unknown usage id {usage_id!r}") from None

    def bucket(self, type_name: str, context: str, use_context: bool = True) -> list[TypeUsage]:
        """The usages a query with this type and context is matched against,
        in corpus order: its (type, context) bucket, or every usage of the
        type when ``use_context`` is off."""
        if use_context:
            return self.bucket_index.get((type_name, context), [])
        return self.type_index.get(type_name, [])


def _broken_rule(usages: list[TypeUsage], where) -> str | None:
    """The first record rule ``usages`` breaks, located by ``where(index)``."""
    first: dict[str, int] = {}
    for i, u in enumerate(usages):
        if not u.type_name or not u.context:
            return f"{where(i)}: empty type or context field"
        if first.setdefault(u.id, i) != i:
            return f"{where(i)}: duplicate id {u.id!r} (first seen on {where(first[u.id])})"


def _parse_records(lines: list[str], fields_of) -> Corpus:
    """The record loop both line formats share.

    Blank lines and lines starting with ``#`` are skipped. ``fields_of(line,
    lineno)`` splits a record line into (id, type, context, calls, origin)
    strings, calls a list of strings. Every field is stripped; an empty id is
    auto-assigned ``u<ordinal>`` in record order, empty call names are
    dropped and duplicates collapse (calls form a set), an empty origin is
    None. A record that breaks a ``Corpus`` rule is reported by line number.
    """
    records = [(n, line) for n, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")]
    usages: list[TypeUsage] = []
    for lineno, line in records:
        uid, type_name, context, calls, origin = fields_of(line, lineno)
        try:
            calls = frozenset(filter(None, map(str.strip, calls)))
        except TypeError:
            raise CorpusFormatError(f"line {lineno}: call names must be strings") from None
        usages.append(TypeUsage(uid.strip() or f"u{len(usages) + 1}", type_name.strip(),
                                context.strip(), calls, origin.strip() or None))
    try:
        return Corpus(usages)
    except ValueError:
        raise CorpusFormatError(_broken_rule(usages, lambda i: f"line {records[i][0]}")) from None


def _tsv_fields(line: str, lineno: int):
    fields = line.split("\t")
    if len(fields) not in (4, 5):
        raise CorpusFormatError(
            f"line {lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}"
        )
    origin = fields[4] if len(fields) == 5 else ""
    return fields[0], fields[1], fields[2], fields[3].split(","), origin


def _jsonl_value(rec: dict, key: str, lineno: int, kind=str, missing=""):
    """``rec[key]``, or ``missing`` when the key is absent or null. Any other
    value that is not a ``kind`` (a bool never counts as an int) is a
    CorpusFormatError naming the line and the key."""
    value = rec.get(key)
    if value is None:
        return missing
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    what = {str: "a string", list: "a list", (str, int): "a string or an integer"}[kind]
    raise CorpusFormatError(f"line {lineno}: {key!r} must be {what}")


def _jsonl_fields(line: str, lineno: int):
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long to convert
        raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise CorpusFormatError(f"line {lineno}: expected a JSON object")
    return (str(_jsonl_value(rec, "id", lineno, (str, int))), _jsonl_value(rec, "type", lineno),
            _jsonl_value(rec, "context", lineno), _jsonl_value(rec, "calls", lineno, list, []),
            _jsonl_value(rec, "origin", lineno))


def parse_corpus(text: str) -> Corpus:
    """Parse the tab-separated corpus line format.

    One record per line: ``id <TAB> type <TAB> context <TAB> calls [<TAB> origin]``,
    calls comma-separated.
    """
    return _parse_records(text.splitlines(), _tsv_fields)


def parse_corpus_jsonl(text: str) -> Corpus:
    """Parse the JSON-lines mirror (keys: id, type, context, calls, origin).

    Records are split at line feeds only: a JSON string may hold other line
    breaks, such as U+2028, raw."""
    return _parse_records(text.split("\n"), _jsonl_fields)


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
    """Read a UTF-8 corpus file, with or without a byte-order mark,
    dispatching on extension (.jsonl vs tab format)."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if str(path).endswith(".jsonl"):
        return parse_corpus_jsonl(text)
    return parse_corpus(text)
