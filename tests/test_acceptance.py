"""Acceptance criteria: one test per criterion of `acceptance.table`.

Run one by its id, e.g. ``pytest "tests/test_acceptance.py::test_criterion[7a]" -s``;
``-s`` shows the line ``polsqueeze verify`` prints.  Criteria with a known
reference defect are strict xfails, for the reason the table gives.
"""

import pytest

from polsqueeze import acceptance as acc

_ROWS = acc.table(acc.SHOTS, acc.SEED)


@pytest.fixture(scope="module")
def results():
    return {}  # row -> its results by cid, so a check deciding two criteria runs once


@pytest.mark.parametrize(
    "row, cid",
    [
        pytest.param(
            row, c.cid, id=c.cid,
            marks=[pytest.mark.xfail(strict=True, reason=c.known_defect)] if c.known_defect else [],
        )
        for row in _ROWS
        for c in row[1]
    ],
)
def test_criterion(row, cid, results):
    if row not in results:
        results[row] = {r.cid: r for r in acc.run(*row)}
    r = results[row][cid]
    acc.print_table([r])
    assert r.met, r.detail
