"""One pass of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/one_pass.py <workload> <seed> <traced 0|1>

Imports apnforge from the checkout's src/, makes the inputs from the seed,
times every item, checks the answers after the timed loop and prints one
JSON object as its last line of stdout.  Between items, once REF_EVERY_S
or REF_EVERY_ITEMS have gone by, it times the reference loop of
calibration.py.  Exits 2 if the package cannot be imported from src/.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
REF_EVERY_S = 0.02
REF_EVERY_ITEMS = 50


def main(argv: list[str]) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import apnforge
    except ImportError as exc:
        print(f"cannot import apnforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(apnforge.__file__).resolve().parents:
        print(f"apnforge was imported from {apnforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibration
    import tracing
    import workloads

    t_imported = time.perf_counter()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(apnforge)
    make_inputs, check, loop = workloads.WORKLOADS[name]
    items = make_inputs(random.Random(seed))
    t_ready = time.perf_counter()

    starts = []
    times = []
    answers = []
    ref_at = [time.perf_counter()]
    ref_s = [calibration.sample(loop)]
    last_ref = time.perf_counter()
    since_ref = 0
    for item in items:
        span = tracer.open("bench.item") if tracer else None
        t0 = time.perf_counter()
        try:
            answer = workloads.run_item(item)
        except Exception:
            traceback.print_exc()
            answer = workloads.RAISED
        t1 = time.perf_counter()
        if tracer:
            tracer.close(span, workloads.span_label(item, answer))
        starts.append(t0)
        times.append(t1 - t0)
        answers.append(answer)
        since_ref += 1
        if t1 - last_ref >= REF_EVERY_S or since_ref >= REF_EVERY_ITEMS:
            ref_at.append(t1)
            ref_s.append(calibration.sample(loop))
            last_ref = time.perf_counter()
            since_ref = 0
    ref_at.append(time.perf_counter())
    ref_s.append(calibration.sample(loop))

    layers = None
    if tracer:
        layers = tracer.summary()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{name}.json")
    checked = check(items, answers)
    fields = {str(it.f.ctx.n): f"0x{it.f.ctx.modulus:x}" for it in items}
    result = {
        "t_ready": t_ready,
        "import_s": t_imported - t_start,
        "inputs_s": t_ready - t_imported,
        "starts": starts,
        "times": times,
        "ref_at": ref_at,
        "ref_s": ref_s,
        "ref_nominal_s": calibration.LOOPS[loop][1],
        "failed": checked.failed,
        "wrong": checked.wrong,
        "notes": checked.notes,
        "digest": checked.digest,
        "extra": checked.extra,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fields": dict(sorted(fields.items(), key=lambda kv: int(kv[0]))),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
