#!/usr/bin/env python3
"""Rebuild every published table row and print a verification report.

Like `qsteane table1`, one PASS/FAIL line per row, and under it the
enlargement code C' as [n, k', d] with its d2, then either the built
[[n, K, d]] code and whether its distance bound is proven by the
construction or certified by exhaustive scan, or why the row is
refused.  Exits 1 when any row fails.
"""

from __future__ import annotations

from qsteane.distances import min_distance, second_gdw
from qsteane.table1 import TABLE1_ROWS, check_row, enlargement_code_for_row


def main() -> int:
    all_ok = True
    for row in TABLE1_ROWS:
        check = check_row(row)
        all_ok &= check.ok
        status = "PASS" if check.ok else "FAIL"
        print(f"row n={row.n} k={row.k} k'={row.kprime} "
              f"(published [[{row.n},{row.K},{row.d_quantum}]]): {status}")
        Cp = enlargement_code_for_row(row)
        dp = min_distance(Cp)
        print(f"  C' = [{Cp.n},{Cp.k},{dp.value}], d2' = {second_gdw(Cp).value}")
        if check.quantum is None:
            print(f"  {check.details}")
            continue
        Q = check.quantum
        print(f"  built [[{Q.n},{Q.K},{Q.d_exact}]] "
              f"({'bound proven' if Q.bound_proven else 'exhaustively certified'})")
        if not check.ok:
            print(f"  {check.details}")
    print("overall:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
