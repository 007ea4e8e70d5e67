"""The two passes that ``transcript._read`` replaced, kept as a reference for
tests.

``reference_records`` splits a document into records of (line, key, value)
triples: it right-strips every line, strips it again to test for a blank, and
only then splits off the key.  ``reference_fields`` then builds each record's
``key -> (line, value)`` dict.  ``reference_read`` composes them, with the
header's keys for the first record and the event keys after it.  ``_read``
does both in one pass and must give the same records and, once sorted by line
as ``parse`` reports them, the same issues.
"""

from commonground.errors import ParseIssue
from commonground.transcript import EVENT_KEYS, HEADER_KEYS


def reference_records(text: str):
    """Split into records of (line_number, key, value) triples."""
    record: list[tuple[int, str, str]] = []
    issues: list[ParseIssue] = []
    records: list[list[tuple[int, str, str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            if record:
                records.append(record)
                record = []
            continue
        key, sep, value = line.partition(":")
        if not sep:
            issues.append(ParseIssue(lineno, "bad-line", f"expected 'key: value', got {line!r}"))
            continue
        record.append((lineno, key.strip(), value.strip()))
    if record:
        records.append(record)
    return records, issues


def reference_fields(record, allowed, issues):
    fields: dict[str, tuple[int, str]] = {}
    for lineno, key, value in record:
        if key not in allowed:
            issues.append(ParseIssue(lineno, "unknown-field", f"unknown key {key!r}"))
            continue
        if key in fields:
            issues.append(ParseIssue(lineno, "duplicate-field", f"repeated key {key!r}"))
            continue
        fields[key] = (lineno, value)
    return fields


def reference_read(text: str):
    """Records as (first line, fields), and the issues: every bad line, then
    each record's field issues."""
    records, issues = reference_records(text)
    read = [(record[0][0], reference_fields(record, EVENT_KEYS if i else HEADER_KEYS, issues))
            for i, record in enumerate(records)]
    return read, issues
