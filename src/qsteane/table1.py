"""Reproduction of the published parameter table.

Each row records (n, k, k', d, d', K, d_quantum).  The inner self-dual
code C is never given explicitly, so it is recovered from C' by the
isotropic-subspace search; the two rows without a published C' fall
back to the standard even-weight codes (see fixtures/README.md).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .distances import min_distance, second_gdw
from .gf2 import (
    DEFAULT_ENUM_CAP,
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    even_weight_code,
    parse_matrix,
)
from .steane import QuantumCode, certified_enlarge, find_self_dual_subcode, is_stabilizer_code


@dataclass(frozen=True)
class Table1Row:
    n: int
    k: int
    kprime: int
    d: int
    dprime: int
    K: int
    d_quantum: int
    remark: str = ""

    def __post_init__(self):
        assert self.K == self.k + self.kprime - self.n


TABLE1_ROWS = (
    Table1Row(8, 4, 7, 4, 2, 3, 3),
    Table1Row(12, 6, 10, 4, 2, 4, 3),
    Table1Row(12, 6, 11, 4, 2, 5, 3),
    Table1Row(14, 7, 9, 4, 2, 2, 4, "d2'=4"),
    Table1Row(14, 7, 10, 4, 2, 3, 4, "d2'=4"),
    Table1Row(18, 9, 12, 6, 4, 3, 6, "optimal"),
)


@functools.lru_cache(maxsize=None)
def load_fixture(name: str) -> LinearCode:
    """The shipped code `name`, parsed once per process."""
    text = resources.files("qsteane.fixtures").joinpath(name).read_text()
    return LinearCode(*parse_matrix(text))


@functools.lru_cache(maxsize=None)
def _self_dual_from_fixture(name: str, cap: int) -> LinearCode:
    return find_self_dual_subcode(load_fixture(name), cap=cap)


# The C' fixture of each row, keyed by (n, k'); rows without one use
# the even-weight code.
_ROW_FIXTURES = {
    (12, 10): "c12_10_2a.txt",
    (14, 9): "c14_9_2.txt",
    (14, 10): "c14_10_2.txt",
    (18, 12): "c18_12_4.txt",
}


def enlargement_code_for_row(row: Table1Row) -> LinearCode:
    """The C' used for a row: appendix fixture or even-weight fallback."""
    name = _ROW_FIXTURES.get((row.n, row.kprime))
    if name is not None:
        return load_fixture(name)
    return even_weight_code(row.n)


def self_dual_code_for_row(row: Table1Row, cap: int = DEFAULT_ENUM_CAP) -> LinearCode:
    """The self-dual C of a row, found by a search that `cap` bounds."""
    if (row.n, row.kprime) == (12, 11):
        # No search target: any self-dual code is automatically inside
        # the even-weight code, so reuse the one found for k'=10.
        return _self_dual_from_fixture("c12_10_2a.txt", cap)
    name = _ROW_FIXTURES.get((row.n, row.kprime))
    if name is not None:
        return _self_dual_from_fixture(name, cap)
    return find_self_dual_subcode(even_weight_code(row.n), cap=cap)


@dataclass(frozen=True)
class RowCheck:
    row: Table1Row
    quantum: Optional[QuantumCode]
    ok: bool
    details: str


def check_row(row: Table1Row, cap: int = DEFAULT_ENUM_CAP) -> RowCheck:
    """Rebuild the row's quantum code and verify every printed value."""
    Cp = enlargement_code_for_row(row)
    try:
        C = self_dual_code_for_row(row, cap=cap)
    except CodeConstructionError as exc:
        return RowCheck(row=row, quantum=None, ok=False, details=f"no self-dual C: {exc}")
    failures = []
    if C.k != row.k:
        failures.append(f"k={C.k}!={row.k}")
    if Cp.k != row.kprime:
        failures.append(f"k'={Cp.k}!={row.kprime}")
    d1 = min_distance(C, cap=cap).value
    if d1 != row.d:
        failures.append(f"d={d1}!={row.d}")
    dp = min_distance(Cp, cap=cap).value
    if dp != row.dprime:
        failures.append(f"d'={dp}!={row.dprime}")
    d2p = second_gdw(Cp, cap=cap).value
    Q = certified_enlarge(C, Cp, d_lower=min(d1, d2p), cap=cap)
    if Q.K != row.K:
        failures.append(f"K={Q.K}!={row.K}")
    if not is_stabilizer_code(Q):
        failures.append("not a stabilizer code")
    if Q.d_exact is None:
        raise EnumerationCapError(f"stabiliser enumeration over 2^{2 * Q.n - Q.num_generators} elements exceeds cap {cap}")
    if Q.d_exact != row.d_quantum:
        failures.append(f"d_exact={Q.d_exact}!={row.d_quantum}")
    details = "; ".join(failures) if failures else f"d2'={d2p}"
    return RowCheck(row=row, quantum=Q, ok=not failures, details=details)


def check_all_rows(cap: int = DEFAULT_ENUM_CAP) -> list[RowCheck]:
    return [check_row(row, cap=cap) for row in TABLE1_ROWS]
