"""The benchmark's workloads: inputs made from a seed, one library call per
item, and the checks on every answer.

The library only ever sees the generated polynomials.  Every library call
goes through the ``apnforge`` package namespace at call time, so a traced
pass sees it.  The reasons behind each workload are in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import apnforge

RAISED = "raised"

SURVEY_N = 5
SURVEY_MAX_DEGREE = 65

# Supports of the seeded spectrum inputs; the seed draws the coefficients.
# Fixed supports keep an item's cost the same from seed to seed: the value
# table costs one pow per term, and the row scan the same for every input.
SPECTRUM_SUPPORTS = {
    "power": ((7,), (21,), (11,)),  # not APN on GF(2^8), GF(2^9) or GF(2^10)
    "quadratic": ((3, 5), (1, 6, 17), (10, 12, 34)),  # exponents of weight <= 2
    "general": ((3, 7), (1, 5, 11, 13), (14, 19)),  # 7, 11, 13, 14, 19: weight 3
}
# Field degree -> seeded inputs per class.  The weight on GF(2^10) puts the
# median item inside the run of GF(2^9) items and the tail item inside the
# run of GF(2^10) items, away from the gaps between the two.
SPECTRUM_SEEDED = {8: 1, 9: 2, 10: 3}

CRITERION_10 = {9: 1, 7: 1}
CRITERION_10_N = 5
CRITERION_10_COUNT = 1058  # projective points of x^9 + x^7 over GF(2^5)
POINTS_MONOMIALS = {5: (3, 5, 7, 9, 11, 13), 6: (3, 5, 7), 7: (3, 5)}
POINTS_BINOMIALS = {
    5: (
        (17, 4), (17, 9), (17, 1), (16, 3), (15, 6), (15, 2), (14, 5),
        (13, 7), (13, 4), (12, 3), (12, 10), (11, 2), (11, 6), (10, 5),
        (10, 7), (9, 3), (9, 8), (8, 5), (7, 6), (6, 3),
    ),
    6: ((12, 3), (10, 5), (9, 5), (6, 3)),
    7: ((6, 3),),
}


@dataclass
class Item:
    """One timed library call on one generated polynomial."""

    op: str  # "screen", "diff_spectrum", "is_apn" or "points"
    f: apnforge.UniPoly
    cls: str = ""  # spectrum input class: power, quadratic or general
    named: bool = False  # a named APN-family instance


def run_item(item: Item):
    f = item.f
    if item.op == "screen":
        verdict = apnforge.screen_exceptional(f)
        return verdict, apnforge.replay_trace(f, verdict)
    if item.op == "diff_spectrum":
        return apnforge.diff_spectrum(f, jobs=1)
    if item.op == "is_apn":
        return apnforge.is_apn(f)
    return apnforge.projective_point_count(f)


def span_label(item: Item, answer) -> str | None:
    """Label for the item's span, so a traced pass can split ddt time."""
    if item.op == "diff_spectrum":
        return item.cls
    if item.op == "is_apn":
        return "apn" if answer is True else "non_apn"
    return None


@dataclass
class Checked:
    """Outcome of the output checks on one pass.

    ``failed`` counts items that were wrong, rejected or raised; ``wrong``
    counts those that make the pass incorrect.  The one known replay
    rejection is failed but not wrong; the digest still pins it.
    """

    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    rows: list = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def bad(self, note: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 20:
            self.notes.append(note)

    @property
    def digest(self) -> str:
        text = json.dumps(self.rows, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# --- survey -----------------------------------------------------------------


def survey_inputs(rng: random.Random) -> list[Item]:
    """a*x^d + c*x^e over GF(2^5) for 3 <= d <= 65, 1 <= e < d: 2079 items."""
    ctx = apnforge.create_field(SURVEY_N)
    q = ctx.order
    return [
        Item("screen", apnforge.UniPoly(ctx, {d: rng.randrange(1, q), e: rng.randrange(1, q)}))
        for d in range(3, SURVEY_MAX_DEGREE + 1)
        for e in range(1, d)
    ]


def known_replay_defect(f: apnforge.UniPoly, verdict) -> bool:
    """The one rejection known at this tree: a*x^5 + c*x^4 over GF(2^5) (k = 2).

    The screen records boundary_term_obstruction with odd_core 2 and
    replay_trace rejects it, on every seed.  Fixing it is a library change.
    """
    return (
        f.ctx.n == SURVEY_N
        and sorted(f.terms) == [4, 5]
        and any(
            step["test"] == "boundary_term_obstruction" and step["inputs"]["odd_core"] == 2
            for step in verdict.trace
        )
    )


def survey_check(items: list[Item], answers: list) -> Checked:
    """Every verdict must replay; a rejection other than the known one is wrong."""
    out = Checked()
    decided = rejected = 0
    for item, answer in zip(items, answers):
        text = item.f.render()
        if answer is RAISED:
            out.bad(f"raised: {text}")
            out.rows.append([text, RAISED])
            continue
        verdict, replayed = answer
        decided += verdict.status != "Inconclusive"
        if not replayed:
            rejected += 1
            known = known_replay_defect(item.f, verdict)
            kind = "known defect" if known else "WRONG"
            out.bad(f"replay rejected ({kind}): {text} ({verdict.status})", wrong=not known)
        out.rows.append([text, verdict.status, verdict.theorem, verdict.heuristic, replayed])
    out.extra["screen.replay_rejected"] = rejected
    out.extra["screen.decided_ratio"] = decided / len(items)
    return out


# --- spectrum ---------------------------------------------------------------


def _named_specs(n: int) -> list[apnforge.FamilySpec]:
    r = next(r for r in range(2, n) if math.gcd(r, n) == 1)
    specs = [apnforge.FamilySpec("gold", n, 1), apnforge.FamilySpec("gold", n, r)]
    if n % 2:
        half = (n - 1) // 2
        specs += [
            apnforge.FamilySpec("kasami-welch", n, 2),
            apnforge.FamilySpec("welch", n, half),
            apnforge.FamilySpec("inverse", n, half),
        ]
    return specs


def spectrum_inputs(rng: random.Random) -> list[Item]:
    """Per field GF(2^8..2^10): power, quadratic and general polynomials.

    Named APN-family instances are monic; the others have seeded
    coefficients.  Each polynomial gives two items, diff_spectrum then
    is_apn.
    """
    polys: list[tuple[str, bool, apnforge.UniPoly]] = []
    for n, seeded in SPECTRUM_SEEDED.items():
        ctx = apnforge.create_field(n)
        polys += [("power", True, apnforge.family_poly(s)) for s in _named_specs(n)]
        for cls, supports in SPECTRUM_SUPPORTS.items():
            for support in supports[:seeded]:
                terms = {e: rng.randrange(1, ctx.order) for e in support}
                polys.append((cls, False, apnforge.UniPoly(ctx, terms)))
        if n == 10:
            u = rng.choice(apnforge.ekp_admissible_u(ctx))
            polys.append(("quadratic", True, apnforge.UniPoly(ctx, {3: 1, 36: u})))
    return [
        Item(op, f, cls, named)
        for cls, named, f in polys
        for op in ("diff_spectrum", "is_apn")
    ]


def spectrum_check(items: list[Item], answers: list) -> Checked:
    out = Checked()
    for i in range(0, len(items), 2):
        item, spectrum, apn = items[i], answers[i], answers[i + 1]
        text = f"GF(2^{item.f.ctx.n}) {item.f.render()}"
        if spectrum is RAISED:
            out.bad(f"diff_spectrum raised: {text}")
        elif item.named and spectrum.uniformity != 2:
            out.bad(f"named APN instance has uniformity {spectrum.uniformity}: {text}")
        if apn is RAISED:
            out.bad(f"is_apn raised: {text}")
        elif spectrum is not RAISED and apn != spectrum.is_apn():
            out.bad(f"is_apn disagrees with diff_spectrum: {text}")
        hist = RAISED if spectrum is RAISED else spectrum.histogram()
        out.rows.append([item.f.ctx.n, item.f.render(), hist, apn])
    return out


# --- points -----------------------------------------------------------------


def points_inputs(rng: random.Random) -> list[Item]:
    """x^9 + x^7, monomials and seeded binomials over GF(2^5..2^7)."""
    items = []
    for n in (5, 6, 7):
        ctx = apnforge.create_field(n)
        q = ctx.order
        if n < 7:
            items.append(Item("points", apnforge.UniPoly(ctx, CRITERION_10)))
        items += [Item("points", apnforge.UniPoly(ctx, {d: 1})) for d in POINTS_MONOMIALS[n]]
        items += [
            Item("points", apnforge.UniPoly(ctx, {d: rng.randrange(1, q), e: rng.randrange(1, q)}))
            for d, e in POINTS_BINOMIALS[n]
        ]
    return items


def points_check(items: list[Item], answers: list) -> Checked:
    """Runs is_apn on each input, so call it after the timed loop."""
    out = Checked()
    for item, count in zip(items, answers):
        f = item.f
        text = f"GF(2^{f.ctx.n}) {f.render()}"
        out.rows.append([f.ctx.n, f.render(), count])
        if count is RAISED:
            out.bad(f"raised: {text}")
            continue
        bound = apnforge.corollary_bound(f.degree(), f.ctx.order)
        if count > bound and apnforge.is_apn(f):
            out.bad(f"APN but {count} points exceed the bound {bound}: {text}")
        if f.ctx.n == CRITERION_10_N and f.terms == CRITERION_10 and count != CRITERION_10_COUNT:
            out.bad(f"{count} points, expected {CRITERION_10_COUNT}: {text}")
    return out


# Workload -> (inputs, checks, reference loop of calibration.py).
WORKLOADS = {
    "survey": (survey_inputs, survey_check, "products"),
    "spectrum": (spectrum_inputs, spectrum_check, "row_scan"),
    "points": (points_inputs, points_check, "products"),
}
