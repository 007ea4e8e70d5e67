"""The line reader that ``transcript._records`` replaced, kept as a reference
for tests.

It right-strips every line, strips it again to test for a blank, and only
then splits off the key.  ``_records`` reads each line with one partition and
must give the same records and the same issues, in the same order.
"""

from commonground.errors import ParseIssue


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
