"""apnforge benchmark: three workloads, end-to-end metrics or a traced split.

    python3 perfbench/run.py [--workload survey|spectrum|points|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a sequence of passes.  A pass is one fresh interpreter
(perfbench/one_pass.py) that imports apnforge from src/, makes the inputs
from the seed and times every item, one at a time, in one thread with
jobs=1.  A run makes at least MIN_PASSES passes, one after another, and
starts new ones until ``--seconds`` have gone by.  Item times are scaled to
a reference machine speed measured between items (calibration.py).  Every
metric is the median over the passes, so one disturbed pass does not move
it.

With ``--trace 0`` the end-to-end metrics named in BENCHMARK.json are
printed.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics, and the difference of the two kinds
of pass is the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The default seed's answers are compared with
digests recorded from this tree.

Exits 2 without a result when the checkout has no src/apnforge or no
BENCHMARK.json, or when a pass fails to run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("survey", "spectrum", "points")
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 170
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# An item's time is scaled by the reference samples taken within this many
# seconds of it, and by at least MIN_REF_SAMPLES of the nearest ones.
LOCAL_WINDOW_S = 0.2
MIN_REF_SAMPLES = 5

# Digests of the default seed's answers (verdicts, spectra, point counts).
# A change that alters answers on purpose records new digests here.
DIGESTS = {
    "survey": "f7e26668da10368bed3c6b1d88a19e6d967550283446a8d1e2dfbca78fba4cc2",
    "spectrum": "537d8c5d96e50f025a77fcdcb072bbbdbad0e0d56a841615fa1881cea05e6c9b",
    "points": "e13bcbd59422982e023205211b626dc0e5591cf473d94d5f640a7670ec13061e",
}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    ref, nominal = result["ref_s"], result["ref_nominal_s"]
    # perf_counter is CLOCK_MONOTONIC, shared by both processes
    result["setup_s"] = result["t_ready"] - spawned
    result["scale"] = nominal / statistics.median(ref)
    result["scaled"] = scaled_times(result)
    result["traced"] = traced
    return result


def scaled_times(p: dict) -> list[float]:
    """Item times at the reference speed, each scaled by the samples near it."""
    at, ref, nominal = p["ref_at"], p["ref_s"], p["ref_nominal_s"]
    out = []
    for start, took in zip(p["starts"], p["times"]):
        lo = bisect.bisect_left(at, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(at, start + took + LOCAL_WINDOW_S)
        while hi - lo < MIN_REF_SAMPLES and (lo > 0 or hi < len(at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(at))
        out.append(took * nominal / statistics.median(ref[lo:hi]))
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced))
        if len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            return passes


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Medians over passes, at the reference speed unless ``scaled`` is false."""
    med = statistics.median
    times = [p["scaled"] if scaled else p["times"] for p in passes]
    return {
        "setup_s": med(p["setup_s"] * (p["scale"] if scaled else 1.0) for p in passes),
        "items_per_s": med(len(t) / sum(t) for t in times),
        "item_p50_ms": med(med(t) for t in times) * 1e3,
        "item_tail_ms": med(tail(t)[0] for t in times) * 1e3,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Medians over traced passes; every ``*_s`` value scaled to the reference speed."""
    med = statistics.median
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    merged = []
    for p in traced:
        values = dict(p["layers"], **p["extra"])
        values["bench.import_s"] = p["import_s"]
        values["bench.inputs_s"] = p["inputs_s"]
        merged.append({
            name: value * p["scale"] if name.endswith("_s") else value
            for name, value in values.items()
        })
    names = set().union(*merged)
    out = {name: med(m.get(name, 0) for m in merged) for name in names}
    out["trace.traced_loop_s"] = med(sum(p["scaled"]) for p in traced)
    out["trace.untraced_loop_s"] = med(sum(p["scaled"]) for p in plain)
    out["trace.overhead_s"] = out["trace.traced_loop_s"] - out["trace.untraced_loop_s"]
    return out


def environment(passes: list[dict]) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "apnforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "field_moduli": passes[0]["fields"],
    }


def report(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    passes = run_passes(workload, seed, seconds, trace)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    digests = {p["digest"] for p in passes}
    expected = DIGESTS[workload] if seed == DEFAULT_SEED else None
    digest_ok = expected is None or digests == {expected}
    correct = wrong == 0 and digest_ok and len(digests) == 1

    size = len(passes[0]["times"])
    _, pct = tail(passes[0]["times"])
    print(f"# workload {workload}: seed {seed}, {len(passes)} passes, {size} items per pass")
    print(f"# env {json.dumps(environment(passes))}")
    if len(digests) > 1:
        print("# answer digest DIFFERS between passes")
    elif expected is None:
        print(f"# answer digest {min(digests)} (compared only on seed {DEFAULT_SEED})")
    else:
        print(f"# answer digest {'matches' if digest_ok else 'DIFFERS FROM'} the recorded one")
    notes = sorted({note for p in passes for note in p["notes"]})
    print(f"# checks {'passed' if correct else 'FAILED'}; {failed} of {attempted} items failed")
    for note in notes:
        print(f"#   {note}")

    if trace:
        values = per_layer(passes)
        metrics = spec["per_layer"]
    else:
        plain = [p for p in passes if not p["traced"]]
        values = end_to_end(plain)
        metrics = spec["end_to_end"]
    out = {}
    for m in metrics:
        value = values.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value!r} {m['unit']}")
    if not trace:
        raw = end_to_end(plain, scaled=False)
        print(f"  {'item_tail_ms is':<48} p{pct:.2f} of {size} items per pass")
        print(f"  {'machine speed vs reference':<48} {statistics.median(p['scale'] for p in plain)!r}")
        print(f"  {'unscaled':<48} {json.dumps(raw)}")
        print(f"  {'failed_ratio':<48} {failed / attempted!r} ({failed}/{attempted})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload; benchmark runners pass run_seconds "
                    "from BENCHMARK.json here, which is also the default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "apnforge" / "__init__.py").is_file():
        print(f"no apnforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [report(name, args.seed, seconds, bool(args.trace), spec) for name in names]
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
