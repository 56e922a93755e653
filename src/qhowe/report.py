"""Check records and their pass/fail folds: the one place a check's outcome
becomes a status.

A check record is a plain dict: the ``relation`` it verifies, the caller's
identifying fields (``indices``, ``pair``, ``generator``, ...) and a
``status`` of "pass" or "fail".  A ``witness`` is attached only to a failed
check.  A report is a header dict whose status folds its ``checks``, one flat
list of records: a function that decides one identity returns one record, a
function that decides several returns a report.
"""

from __future__ import annotations


def status(ok):
    return "pass" if ok else "fail"


def check(relation, ok, witness=None, **fields):
    """One check record; the witness is kept only when the check fails."""
    record = {"relation": relation, **fields, "status": status(ok)}
    if not ok and witness is not None:
        record["witness"] = witness
    return record


def column(relation, c, label, **fields):
    """The record of a matrix check whose first differing column is c (None:
    the check passes); the witness is label(c), the basis state of c."""
    return check(relation, c is None, None if c is None else label(c), **fields)


def match(relation, lhs, rhs, label, **fields):
    """The record of the operator identity lhs == rhs (SparseMatrix or
    OperatorExpr values), with the first differing column as the witness."""
    return column(relation, lhs.first_difference(rhs), label, **fields)


def commute(relation, x, y, label, shift=0, **fields):
    """The record of x * y == q^shift y * x, the same as match(relation,
    x * y, (y * x).scale(q^shift), label, **fields), decided by the
    operators' first_noncommuting: on Clifford words it composes no pair
    of words on disjoint positions that cancels between the two products."""
    return column(relation, x.first_noncommuting(y, shift), label, **fields)


def passed(parts):
    """True when every record or report in parts has status pass."""
    return all(part["status"] == "pass" for part in parts)


def finish(checks, **header):
    """The report {**header, status, checks} with the status of all checks."""
    return {**header, "status": status(passed(checks)), "checks": checks}


def tagged(suite, /, **fields):
    """The records of the report suite, each with fields added: the target,
    suite or flavor that tells it apart in a section that joins suites."""
    return [{**record, **fields} for record in suite["checks"]]


# The identifying fields a record's line names, in this order, between its
# relation and its witness.
_NAMED = ("target", "suite", "flavor", "mu", "indices", "pair", "generator")


def describe(record):
    """A record as one line: its relation, its identifying fields in the
    order of _NAMED, then its witness."""
    return " ".join([record["relation"]]
                    + [str(record[key]) for key in (*_NAMED, "witness") if key in record])
