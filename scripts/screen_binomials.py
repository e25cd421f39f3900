"""Survey the screening verdicts of all binomials x^d + c*x^e over GF(2^n).

Writes one CSV row per (d, e, c) with the verdict status, cited theorem, and
whether the verdict replays.  Intended for eyeballing how much of the binomial
space each criterion settles, e.g.:

    python scripts/screen_binomials.py --n 5 --max-degree 33
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter

from apnforge import UniPoly, create_field, replay_trace, screen_exceptional
from apnforge.field import MAX_DEGREE


def survey(n: int, max_degree: int, coefficients: tuple[int, ...]):
    ctx = create_field(n)
    for d in range(3, max_degree + 1):
        for e in range(1, d):
            for c in coefficients:
                f = UniPoly(ctx, {d: 1, e: c})
                verdict = screen_exceptional(f)
                replayed = replay_trace(f, verdict)
                yield {
                    "poly": f.render(),
                    "d": d,
                    "e": e,
                    "status": verdict.status,
                    "theorem": verdict.theorem or "",
                    "heuristic": verdict.heuristic,
                    "replays": replayed,
                }


def _field_degree(text: str) -> int:
    n = int(text)
    if not 1 <= n <= MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"n must be in 1..{MAX_DEGREE}, got {n}")
    return n


def _hex_list(text: str) -> tuple[int, ...]:
    return tuple(int(c, 16) for c in text.split(","))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=_field_degree, default=5)
    ap.add_argument("--max-degree", type=int, default=33)
    ap.add_argument(
        "--coeffs",
        type=_hex_list,
        default=(1,),
        help="comma-separated hex coefficients for the trailing term, each in 1..2^n-1",
    )
    args = ap.parse_args()

    for c in args.coeffs:
        if not 1 <= c < 1 << args.n:
            ap.error(f"argument --coeffs: {c:#x} is not a nonzero element of GF(2^{args.n})")

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["poly", "d", "e", "status", "theorem", "heuristic", "replays"])
    tally: Counter[str] = Counter()
    bad_replays = 0
    for row in survey(args.n, args.max_degree, args.coeffs):
        writer.writerow([row[k] for k in ("poly", "d", "e", "status", "theorem", "heuristic", "replays")])
        tally[row["status"]] += 1
        bad_replays += row["replays"] is False

    print(f"totals: {dict(sorted(tally.items()))}", file=sys.stderr)
    if bad_replays:
        print(f"WARNING: {bad_replays} verdicts failed to replay", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
