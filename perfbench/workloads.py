"""Seeded inputs, job lists and output checks for the four workloads.

Each workload is a fixed list of CLI jobs on fixed codes: the shipped
fixtures, and random codes drawn once from a seed of their own (BASE).
The --seed relabels them: it permutes their coordinates and replaces
their generator rows by a random basis of the same span (the algebra
codes are drawn afresh per seed, as their cost depends on shape alone).
The files then differ from seed to seed, while the weights the scans
walk through, and with them the work per pass, stay the same. Every job here gets an exact, fully certified
answer from the program: jobs that end in "bound holds by construction"
or "distance bound unverified" (the F0/F2/F3/F4 members at m = 5) are
left out, because a later change that certifies them would read as a
slowdown.

The checks never trust the program for a value the benchmark can work
out itself: code dimensions are known by construction, classical
minimum distances come from an independent numpy span, and dual
containment from a null-space test. The remaining values are checked
against bounds that hold for every seed, and, for the default seed,
against outputs recorded in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
# Seed of the random codes that every --seed relabels.
BASE = "base"
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "qsteane" / "fixtures"

# One line each on why the workload exists, and the layer it stresses.
WORKLOADS = {
    "table1": {
        "why": "cold table1 plus steane --auto on seed-permuted [14,9] and [14,10] C' fixtures: "
               "the self-dual subspace search dominates",
        "stresses": "steane.find_self_dual_subcode and rref_subspaces (ROADMAP item 4)",
    },
    "quantum": {
        "why": "family F3/F4 m=3,4 --build and steane on seed-relabelled C<C' pairs, k+k'=22..26: quantum scan "
               "and k'=k+1 loop; m=5 members left out, not fully certified",
        "stresses": "distances.quantum_distance_exact and steane.certified_enlarge (ROADMAP item 2)",
    },
    "classical": {
        "why": "verify on seed-relabelled random codes, n=36 with k=17 and n=64-128 with k=10-12: "
               "d, d2 and lex_key on both sides of the n=63 split",
        "stresses": "distances.min_distance, distances.second_gdw, gf2.lex_key (ROADMAP items 3 and 5)",
    },
    "algebra": {
        "why": "verify on seeded dual-containing codes, n=256..1024 with k above the cap, plus a bounds CSV: "
               "gf2 algebra and bounds, no scan runs",
        "stresses": "gf2 rref_ints, dual, is_subcode, parse_matrix; bounds.emit_curve",
    },
}

# Published table rows rebuilt by `qsteane table1`. Row (18, 12) fails by
# design: the shipped [18,12,4] matrix is not dual-containing.
TABLE1_STDOUT = """\
n=8 k=4 k'=7: [[8,3,3]] PASS (d2'=3)
n=12 k=6 k'=10: [[12,4,3]] PASS (d2'=3)
n=12 k=6 k'=11: [[12,5,3]] PASS (d2'=3)
n=14 k=7 k'=9: [[14,2,4]] PASS (d2'=4) d2'=4
n=14 k=7 k'=10: [[14,3,4]] PASS (d2'=4) d2'=4
n=18 k=9 k'=12: FAIL (no self-dual C: C' is not dual-containing) optimal
table1: FAIL
"""

# Family members with an exact distance. The closed forms give
# F3 = [[2^m, 2^m-m-2, 3]] and F4 = [[2^m, 2^m-2m-1, 4]] at ell = 0; F4
# reaches only d = 3 at m = 3 and 4 (every coset choice was scanned), so
# FAIL with exit code 1 is the expected verdict there.
FAMILY_JOBS = (
    (("F3", "3", "0"), "[[8,3,3]] exact d=3 verified\n", 0),
    (("F3", "4", "0"), "[[16,10,3]] exact d=3 verified\n", 0),
    (("F4", "3", "0"), "[[8,1,4]] exact d=3 FAIL\n", 1),
    (("F4", "4", "0"), "[[16,7,4]] exact d=3 FAIL\n", 1),
)

# C' fixtures whose self-dual subcode `steane --auto` recovers, with the
# [[n, K, d_lower]] the enlargement prints (the published rows). The
# costly searches (c12_10_2a/b, even-weight [10,9]) are left out: `table1`
# already runs the c12_10_2a search cold in every pass, and passes of about
# two seconds give each run enough samples on this noisy two-core machine.
AUTO_CODES = (
    ("c14_9_2", (14, 2, 4)),
    ("c14_10_2", (14, 3, 4)),
)

# (n, k, k') of the seeded dual-containing pairs C < C'. k + k' stays
# within the enumeration cap of 26; two pairs take the k' = k + 1 path.
QUANTUM_PAIRS = ((20, 10, 12), (20, 11, 12), (24, 12, 13), (24, 12, 14))

# (n, k) of the random codes: numpy split path (n <= 63, k >= 17) and the
# big-int path (n >= 64). With n - k below 20 the d2 pair loop stays
# short; a k = 18 code would double the pass and halve the samples per run.
CLASSICAL_CODES = ((36, 17), (64, 12), (96, 11), (128, 10))

# (n, t): dual-containing codes of dimension n/2 + t.
ALGEBRA_CODES = ((1024, 100), (1024, 190), (1024, 280), (1024, 370), (1024, 460), (512, 100), (512, 200), (256, 60))
BOUNDS_POINTS = 20000

# --- GF(2) helpers, independent of the program under test -------------------


def rank(rows):
    pivots = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                break
            v ^= pivots[p]
    return len(pivots)


def nullspace(rows, n):
    """Basis of {v : v.r = 0 for every r in rows}."""
    work, pivots, r = list(rows), [], 0
    for col in range(n):
        p = next((i for i in range(r, len(work)) if work[i] >> col & 1), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(len(work)):
            if i != r and work[i] >> col & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    pivset, out = set(pivots), []
    for col in range(n):
        if col in pivset:
            continue
        v = 1 << col
        for row, p in zip(work[:r], pivots):
            if row >> col & 1:
                v |= 1 << p
        out.append(v)
    return out


def is_dual_containing(rows, n):
    perp = nullspace(rows, n)
    return all((a & b).bit_count() % 2 == 0 for a in perp for b in perp)


def min_weight(rows, n):
    """Minimum weight over the nonzero span of independent rows, n <= 128."""
    lo = np.zeros(1, dtype=np.uint64)
    hi = np.zeros(1, dtype=np.uint64)
    mask = (1 << 64) - 1
    for r in rows:
        lo = np.concatenate([lo, lo ^ np.uint64(r & mask)])
        hi = np.concatenate([hi, hi ^ np.uint64(r >> 64)])
    weights = np.bitwise_count(lo) + np.bitwise_count(hi)
    return int(weights[1:].min())


def to_bits(rows, n):
    """0/1 matrix (one uint8 row per int row, bit i in column i)."""
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n]


def from_bits(bits):
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in bits]


def render(rows, n):
    chars = to_bits(rows, n) + np.uint8(ord("0"))
    return "".join(row.tobytes().decode() + "\n" for row in chars)


def parse(text):
    rows, n = [], 0
    for line in text.splitlines():
        digits = line.strip().replace(" ", "")
        if digits and not digits.startswith("#"):
            n = len(digits)
            rows.append(sum(1 << i for i, ch in enumerate(digits) if ch == "1"))
    return rows, n


def permute(rows, perm, n):
    """Move coordinate i to perm[i]."""
    out = np.zeros((len(rows), n), dtype=np.uint8)
    out[:, perm] = to_bits(rows, n)
    return from_bits(out)


def mix_rows(rng, rows, n):
    """Same span, denser rows: each row plus a random set of later rows
    (about 16 of them, or half of them for small codes), in random order.
    The change of basis is unitriangular, so the rank is kept."""
    gen = np.random.default_rng(rng.getrandbits(64))
    k, width = len(rows), (n + 63) // 64 * 8
    limbs = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint64).reshape(k, -1)
    pick = np.triu(gen.random((k, k)) < min(0.5, 16 / k), 1)
    mixed = [int.from_bytes((limbs[i] ^ np.bitwise_xor.reduce(limbs[pick[i]], axis=0)).tobytes(), "little")
             for i in range(k)]
    return [mixed[i] for i in gen.permutation(k)]


def relabel(rng, rows, n):
    """An equivalent code: coordinates permuted, rows replaced by another
    basis of the same span."""
    perm = list(range(n))
    rng.shuffle(perm)
    return mix_rows(rng, permute(rows, perm, n), n)


def random_code(rng, n, k):
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        if rank(rows) == k:
            return rows


def self_orthogonal(rng, n, s):
    rows = []
    while len(rows) < s:
        v = rng.getrandbits(n)
        if v.bit_count() % 2 or any((v & u).bit_count() % 2 for u in rows) or rank(rows + [v]) == len(rows):
            continue
        rows.append(v)
    return rows


def dual_containing_pair(rng, n, k, kp):
    """C = S-perp for a random self-orthogonal S, and C' = C + random rows."""
    while True:
        C = nullspace(self_orthogonal(rng, n, n - k), n)
        if min_weight(C, n) >= 2:
            break
    while True:
        Cp = C + [rng.getrandbits(n) for _ in range(kp - k)]
        if rank(Cp) == kp:
            return C, Cp


def big_dual_containing(rng, n, t):
    """[n, n/2 + t] code holding its dual: span{(y|y)} + {(z_j|0)}.

    Its dual {(x|x) : x orthogonal to every z_j} lies inside it. The
    coordinates are permuted and the rows mixed so that no structure shows.
    """
    m = n // 2
    zs = random_code(rng, m, t)
    rows = [(1 << i) | (1 << (i + m)) for i in range(m)] + zs
    perm = list(range(n))
    rng.shuffle(perm)
    return mix_rows(rng, permute(rows, perm, n), n)


# --- workloads ---------------------------------------------------------------


def generate(workload, seed):
    """Return ({file name: text}, [job]) for a workload and seed.

    A job is {"id", "argv", "check"}; file arguments are bare names
    relative to the directory the files are written to.
    """
    rng = random.Random(f"{workload}/{seed}")
    base = random.Random(f"{workload}/{BASE}")
    files, jobs = {}, []
    if workload == "table1":
        jobs.append({"id": "table1", "argv": ["table1"], "check": {"kind": "exact", "stdout": TABLE1_STDOUT, "rc": 1}})
        for name, params in AUTO_CODES:
            rows, n = parse((FIXTURES / f"{name}.txt").read_text())
            files[f"{name}.txt"] = render(relabel(rng, rows, n), n)
            jobs.append({"id": f"auto-{name}", "argv": ["steane", "--auto", f"{name}.txt", "--exact"],
                         "check": {"kind": "auto", "params": params}})
    elif workload == "quantum":
        for args, stdout, rc in FAMILY_JOBS:
            jobs.append({"id": "family-" + "-".join(args), "argv": ["family", *args, "--build"],
                         "check": {"kind": "exact", "stdout": stdout, "rc": rc}})
        for i, (n, k, kp) in enumerate(QUANTUM_PAIRS):
            C, Cp = dual_containing_pair(base, n, k, kp)
            # One permutation for both codes keeps C inside C'.
            perm = list(range(n))
            rng.shuffle(perm)
            C, Cp = permute(C, perm, n), permute(Cp, perm, n)
            files[f"pair{i}_c.txt"] = render(mix_rows(rng, C, n), n)
            files[f"pair{i}_cp.txt"] = render(mix_rows(rng, Cp, n), n)
            dp = min_weight(Cp, n)
            jobs.append({"id": f"pair{i}", "argv": ["steane", f"pair{i}_c.txt", f"pair{i}_cp.txt", "--exact"],
                         "check": {"kind": "pair", "n": n, "k": k, "kp": kp, "d": min_weight(C, n),
                                   "d2_min": dp + (dp + 1) // 2}})
    elif workload == "classical":
        for i, (n, k) in enumerate(CLASSICAL_CODES):
            rows = relabel(rng, random_code(base, n, k), n)
            files[f"code{i}.txt"] = render(rows, n)
            jobs.append({"id": f"verify{i}", "argv": ["verify", f"code{i}.txt"],
                         "check": {"kind": "verify", "n": n, "k": k, "d": min_weight(rows, n),
                                   "dual": is_dual_containing(rows, n)}})
    elif workload == "algebra":
        for i, (n, t) in enumerate(ALGEBRA_CODES):
            files[f"big{i}.txt"] = render(big_dual_containing(rng, n, t), n)
            jobs.append({"id": f"verify{i}", "argv": ["verify", f"big{i}.txt"],
                         "check": {"kind": "exact", "stdout": f"n={n} k={n // 2 + t} dual_containing=yes\n", "rc": 0}})
        lo = rng.randrange(0, 500) / 10000
        step = (0.5 - lo) / BOUNDS_POINTS
        jobs.append({"id": "bounds", "argv": ["bounds", repr(lo), "0.5", repr(step), "bounds.csv"],
                     "check": {"kind": "bounds", "lo": lo}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, jobs


def input_digest(files, jobs):
    """sha256 over every input file and the job list (which holds the
    seeded bounds arguments)."""
    h = hashlib.sha256(json.dumps(jobs, sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


# --- checks --------------------------------------------------------------------

_QUANTUM_LINE = re.compile(r"\[\[(\d+),(\d+),(\d+)\]\] exact d=(\d+)\n\Z")
_VERIFY_LINE = re.compile(r"n=(\d+) k=(\d+) d=(\d+) d2=(\d+) dual_containing=(yes|no)\n\Z")


def output_record(job, result, workdir):
    """What the golden file stores for a job: exit code, stdout, file hash."""
    rec = {"rc": result["rc"], "stdout": result["stdout"]}
    if job["check"]["kind"] == "bounds":
        rec["csv_sha256"] = hashlib.sha256((workdir / "bounds.csv").read_bytes()).hexdigest()
    return rec


def check_job(job, result, workdir, golden):
    """Return None when the job's output is correct, else the reason."""
    if result.get("exception"):
        return f"exception: {result['exception']}"
    out, rc, chk = result["stdout"], result["rc"], job["check"]
    if "cap" in result["stderr"]:
        return f"cap refusal: {result['stderr'].strip()}"
    kind = chk["kind"]
    if kind == "exact":
        if rc != chk["rc"] or out != chk["stdout"]:
            return f"rc={rc} stdout={out!r}"
    elif rc != 0:
        return f"rc={rc} stderr={result['stderr'].strip()!r}"
    elif kind == "auto":
        m = _QUANTUM_LINE.match(out)
        if not m:
            return f"stdout={out!r}"
        n, K, dl, d = map(int, m.groups())
        if (n, K, dl) != tuple(chk["params"]) or d < dl:
            return f"stdout={out!r}"
    elif kind == "pair":
        m = _QUANTUM_LINE.match(out)
        if not m:
            return f"stdout={out!r}"
        n, K, dl, d = map(int, m.groups())
        proven = chk["kp"] - chk["k"] >= 2
        if n != chk["n"] or K != chk["k"] + chk["kp"] - chk["n"]:
            return f"stdout={out!r}"
        # d_lower = min(d(C), d2(C')) and d2(C') >= d(C') + ceil(d(C')/2).
        if not min(chk["d"], chk["d2_min"]) <= dl <= chk["d"] or d < 1 or (proven and d < dl):
            return f"stdout={out!r}"
    elif kind == "verify":
        m = _VERIFY_LINE.match(out)
        if not m:
            return f"stdout={out!r}"
        n, k, d, d2 = map(int, m.groups()[:4])
        dual = m.group(5) == "yes"
        if (n, k, d, dual) != (chk["n"], chk["k"], chk["d"], chk["dual"]):
            return f"stdout={out!r}"
        if not d + (d + 1) // 2 <= d2 <= n - k + 2:
            return f"stdout={out!r}"
    elif kind == "bounds":
        reason = _check_bounds_csv(out, workdir / "bounds.csv", chk["lo"])
        if reason:
            return reason
    if golden is not None:
        rec = output_record(job, result, workdir)
        if rec != golden:
            return f"differs from the recorded default-seed output: {rec} != {golden}"
    return None


def _check_bounds_csv(out, path, lo):
    lines = path.read_text().splitlines()
    rows = len(lines) - 1
    if out != f"wrote {rows} points to bounds.csv\n" or abs(rows - BOUNDS_POINTS - 1) > 1:
        return f"stdout={out!r} with {rows} rows"
    if lines[0] != "delta,gf4,cs,steane,thm4":
        return f"header {lines[0]!r}"
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if abs(table[0, 0] - lo) > 1e-6 or abs(table[-1, 0] - 0.5) > 1e-6:
        return "delta range"
    if np.any(np.diff(table[:, 0]) <= 0):
        return "delta not increasing"
    rates = table[:, 1:]
    # Every bound is a decreasing function of delta on [0, 1/2], clamped at 0.
    if np.any(rates < 0) or np.any(rates > 1) or np.any(np.diff(rates, axis=0) > 0):
        return "rates out of range or increasing"
    return None
