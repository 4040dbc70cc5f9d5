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


@dataclass(frozen=True, slots=True)
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


_NO_BUCKET: tuple = ([], {}, {})


class Corpus:
    """Immutable, ordered collection of type-usages with bucket indexes.

    ``bucket_index`` maps (type_name, context) to the usages sharing that
    pair; ``type_index`` maps type_name alone to its usages. ``bucket`` picks
    between them by ``bucket_key``, and ``callset_index`` indexes a bucket by
    call-set, by call and by call-set size. Input order is kept everywhere as
    the final tie-breaker of deterministic output.

    Every usage needs a non-empty type and context and an id of its own; a
    usage that breaks either rule is a ValueError naming its record number.
    """

    def __init__(self, usages: Iterable[TypeUsage]):
        self.usages: list[TypeUsage] = list(usages)
        self.by_id: dict[str, TypeUsage] = {u.id: u for u in self.usages}
        self.bucket_index: dict[tuple[str, str], list[TypeUsage]] = {}
        self.type_index: dict[str, list[TypeUsage]] = {}
        self._callsets: dict[bool, dict] = {}
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

    @staticmethod
    def bucket_key(type_name: str, context: str, use_context: bool = True):
        """What a query is matched on: (type, context), or the type alone."""
        return (type_name, context) if use_context else type_name

    def bucket(self, type_name: str, context: str, use_context: bool = True) -> list[TypeUsage]:
        """The usages a query with this type and context is matched against,
        in corpus order: its (type, context) bucket, or every usage of the
        type when ``use_context`` is off."""
        index = self.bucket_index if use_context else self.type_index
        return index.get(self.bucket_key(type_name, context, use_context), [])

    def callset_index(self, type_name: str, context: str,
                      use_context: bool = True) -> tuple[list[TypeUsage], dict, dict]:
        """``bucket`` and its call-set index (bucket, by_set, masks), whose
        values are ints with bit i set for bucket positions i: by_set maps a
        call-set to the positions holding exactly it, masks a call to those
        having it and a size s >= 1 to those with at least s calls. Made for
        every bucket at the first call in each mode. It holds no ids: a
        query's ``exclude_id`` is looked up in ``by_id``."""
        index = self._callsets.get(use_context)
        if index is None:
            index = self._callsets[use_context] = {}
            for key, usages in (self.bucket_index if use_context else self.type_index).items():
                by_set, masks, sizes = {}, {}, {}
                for i, u in enumerate(usages):
                    by_set[u.calls] = by_set.get(u.calls, 0) | 1 << i
                for calls, bits in by_set.items():
                    sizes[len(calls)] = sizes.get(len(calls), 0) | bits
                    for m in calls:
                        masks[m] = masks.get(m, 0) | bits
                for s in range(max(sizes), 0, -1):  # at least s calls: size s or larger
                    masks[s] = masks.get(s + 1, 0) | sizes.get(s, 0)
                index[key] = (usages, by_set, masks)
        return index.get(self.bucket_key(type_name, context, use_context), _NO_BUCKET)


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
    strings, calls either comma-separated text or a tuple of strings. Every
    field is stripped; an empty id is auto-assigned ``u<ordinal>`` in record
    order, empty call names are dropped and duplicates collapse (calls form a
    set), an empty origin is None. Usages whose calls fields read the same
    share one ``frozenset``, built at the field's first record. A record that
    breaks a ``Corpus`` rule is reported by line number.
    """
    usages: list[TypeUsage] = []
    linenos: list[int] = []
    callsets: dict = {}  # calls field as read -> its frozenset
    for lineno, line in enumerate(lines, start=1):
        if not (head := line.lstrip()) or head[0] == "#":
            continue
        uid, type_name, context, calls, origin = fields_of(line, lineno)
        try:
            names = callsets.get(calls)
            if names is None:
                names = callsets[calls] = frozenset(filter(None, map(
                    str.strip, calls.split(",") if isinstance(calls, str) else calls)))
        except TypeError:  # a JSONL call name that is not a string
            raise CorpusFormatError(f"line {lineno}: call names must be strings") from None
        linenos.append(lineno)
        usages.append(TypeUsage(uid.strip() or f"u{len(usages) + 1}", type_name.strip(),
                                context.strip(), names, origin.strip() or None))
    try:
        return Corpus(usages)
    except ValueError:
        raise CorpusFormatError(_broken_rule(usages, lambda i: f"line {linenos[i]}")) from None


def _tsv_fields(line: str, lineno: int):
    fields = line.split("\t")
    if len(fields) not in (4, 5):
        raise CorpusFormatError(
            f"line {lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}"
        )
    origin = fields[4] if len(fields) == 5 else ""
    return fields[0], fields[1], fields[2], fields[3], origin


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
            _jsonl_value(rec, "context", lineno), tuple(_jsonl_value(rec, "calls", lineno, list, [])),
            _jsonl_value(rec, "origin", lineno))


def parse_corpus(text: str) -> Corpus:
    """Parse the tab-separated corpus line format.

    One record per line: ``id <TAB> type <TAB> context <TAB> calls [<TAB> origin]``,
    calls comma-separated. A leading byte-order mark is skipped.
    """
    return _parse_records(text.removeprefix("\ufeff").splitlines(), _tsv_fields)


def parse_corpus_jsonl(text: str) -> Corpus:
    """Parse the JSON-lines mirror (keys: id, type, context, calls, origin).

    Records are split at line feeds only: a JSON string may hold other line
    breaks, such as U+2028, raw. A leading byte-order mark is skipped."""
    return _parse_records(text.removeprefix("\ufeff").split("\n"), _jsonl_fields)


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
    """Read a UTF-8 corpus file, dispatching on extension (.jsonl vs tab
    format). A byte that is not UTF-8 is a CorpusFormatError naming its line."""
    jsonl = str(path).endswith(".jsonl")
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # read line ends as text mode does; no UTF-8 sequence holds CR or LF
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8") + "."  # "." holds the bad byte's place
        lineno = head.count("\n") + 1 if jsonl else len(head.splitlines())  # as the parser counts
        raise CorpusFormatError(
            f"line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    return parse_corpus_jsonl(text) if jsonl else parse_corpus(text)
