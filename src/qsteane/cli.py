"""Command-line surface: verify | steane | table1 | family | bounds.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bch import FamilySpec, build_family_code, family_params
from .bounds import emit_curve, write_curve_csv
from .distances import min_distance, quantum_distance_exact, second_gdw
from .gf2 import (
    DEFAULT_ENUM_CAP,
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    MatrixParseError,
    is_dual_containing,
    parse_matrix,
)
from .steane import certified_enlarge, find_self_dual_subcode
from .table1 import check_all_rows

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2


def _load_code(path: str) -> LinearCode:
    with open(path) as fh:
        return LinearCode(*parse_matrix(fh.read()))


def cmd_verify(args) -> int:
    C = _load_code(args.matrix_file)
    parts = [f"n={C.n}", f"k={C.k}"]
    if C.k >= 1 and C.k <= args.cap:
        parts.append(f"d={min_distance(C, cap=args.cap).value}")
    if C.k >= 2 and C.k <= args.cap:
        parts.append(f"d2={second_gdw(C, cap=args.cap).value}")
    contains_dual = is_dual_containing(C)
    parts.append(f"dual_containing={'yes' if contains_dual else 'no'}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_steane(args) -> int:
    Cp = _load_code(args.cp_file)
    if args.auto:
        C = find_self_dual_subcode(Cp, cap=args.cap)
    elif args.c_file:
        C = _load_code(args.c_file)
    else:
        raise CodeConstructionError("provide a C matrix file or --auto")
    Q = certified_enlarge(C, Cp, cap=args.cap)
    line = f"[[{Q.n},{Q.K},{Q.d_lower}]]"
    if args.exact:
        if Q.d_exact is None:
            Q.d_exact = quantum_distance_exact(Q, cap=args.cap).value
        line += f" exact d={Q.d_exact}"
    print(line)
    return EXIT_OK


def cmd_table1(args) -> int:
    checks = check_all_rows(cap=args.cap)
    all_ok = True
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        all_ok &= c.ok
        built = f"[[{c.quantum.n},{c.quantum.K},{c.quantum.d_exact}]] " if c.quantum else ""
        remark = f" {c.row.remark}" if c.row.remark else ""
        print(
            f"n={c.row.n} k={c.row.k} k'={c.row.kprime}: "
            f"{built}{status} ({c.details}){remark}"
        )
    print("table1: PASS" if all_ok else "table1: FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_family(args) -> int:
    spec = FamilySpec(args.family.upper(), args.m, args.ell)
    n, K, d = family_params(spec)
    if not args.build:
        suffix = " (params only)" if spec.family == "F5" else ""
        print(f"[[{n},{K},{d}]]{suffix}")
        return EXIT_OK
    Q = build_family_code(spec, cap=args.cap)
    line = f"[[{Q.n},{Q.K},{Q.d_lower}]]"
    if Q.d_exact is None and Q.num_generators <= args.cap:
        Q.d_exact = quantum_distance_exact(Q, cap=args.cap).value
    if Q.d_exact is not None:
        line += f" exact d={Q.d_exact}"
        if Q.d_exact < Q.d_lower:
            print(line + " FAIL")
            return EXIT_VERIFY_FAIL
        print(line + " verified")
    elif Q.bound_proven:
        print(line + " bound holds by construction")
    else:
        print(line + " distance bound unverified")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_bounds(args) -> int:
    points = emit_curve(args.delta_min, args.delta_max, args.step)
    with open(args.out, "w") as fh:
        write_curve_csv(points, fh)
    print(f"wrote {len(points)} points to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: callers
    parse with it and never modify it."""
    parser = argparse.ArgumentParser(
        prog="qsteane",
        description="Quantum codes from binary codes: enlargement "
        "construction, exact distance verification, BCH families, rate bounds.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="enumeration cap: refuse scans over more than 2^CAP words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="report n, k, d, d2 and dual containment")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("steane", help="build the enlargement quantum code")
    p.add_argument("c_file", nargs="?", help="generator matrix of the inner code C")
    p.add_argument("cp_file", help="generator matrix of the enlargement C'")
    p.add_argument("--auto", action="store_true", help="recover C from C' by search")
    p.add_argument("--exact", action="store_true", help="also compute the exact distance")
    p.set_defaults(func=cmd_steane)

    p = sub.add_parser("table1", help="recompute every published table row")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("family", help="family parameters, optionally built and verified")
    p.add_argument("family", choices=["F0", "F2", "F3", "F4", "F5", "f0", "f2", "f3", "f4", "f5"])
    p.add_argument("m", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--build", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bounds", help="emit the four rate-bound curves as CSV")
    p.add_argument("delta_min", type=float)
    p.add_argument("delta_max", type=float)
    p.add_argument("step", type=float)
    p.add_argument("out")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixParseError, EnumerationCapError, CodeConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
