#!/usr/bin/env python3
"""Enumerate every valid quantum-code family member up to a given m.

One line per member: "F m=M ell=L: " and then the line that
`qsteane family F M L --build` prints for it (`family F5 M L` for F5,
which has no build).  A member that cannot be built gets its
parameters and the reason.  Exits with the worst code of
the members' lines: 1 if any prints "FAIL" or "unverified", else 0."""

from __future__ import annotations

import argparse

from qsteane.bch import FAMILIES, FamilySpec, family_params
from qsteane.cli import family_line
from qsteane.gf2 import CodeConstructionError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=8)
    args = parser.parse_args()

    worst = 0
    for m in range(2, args.max_m + 1):
        for family in FAMILIES:
            for ell in range(0, 1 << m):
                spec = FamilySpec(family, m, ell)
                if not spec.condition():
                    continue
                try:
                    line, code = family_line(spec, build=family != "F5")
                    worst = max(worst, code)
                except CodeConstructionError as exc:
                    n, K, d = family_params(spec)
                    line = f"[[{n},{K},{d}]] ({exc})"
                print(f"{family} m={m} ell={ell}: {line}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
