"""One benchmark sample: a single run_analyze/run_subcorpus call in a fresh
process, so its peak memory belongs to that run alone.

    python3 perfbench/sample.py SPEC.json RESULT.json

SPEC holds the AnalyzeConfig fields, the output directory and whether to
trace.  RESULT receives the wall time, the host speed factor measured just
before and after the run (calibrate.py), peak RSS, per-file SHA-256 digests
of the outputs, the parsed summary.json, the number of records the chunk
loop processed and, for traced runs, the spans.  A
run that raises is reported with ok=false and its traceback.  With
``setup_reps`` in SPEC the process instead times the set-up loads that many
times.  The package is found on PYTHONPATH, which the caller points at the
checkout's src/.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from datetime import date
from pathlib import Path

import calibrate
import spans


def _config(spec: dict):
    from tweetlex.report import AnalyzeConfig

    fields = dict(spec["config"])
    for key in ("date_from", "date_to"):
        if key in fields:
            fields[key] = date.fromisoformat(fields[key])
    out_dir = Path(spec["out_dir"])
    if "emit_tags" in fields:
        fields["emit_tags"] = str(out_dir / fields["emit_tags"])
    return AnalyzeConfig(out_dir=str(out_dir), **fields)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    """Max resident set of this process and its reaped pool workers.

    This process's own peak is read from VmHWM: its getrusage ru_maxrss
    also holds the peak of the process that spawned it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kib, workers_kib) / 1024


def run(spec: dict) -> dict:
    from tweetlex.report import run_analyze, run_subcorpus

    config = _config(spec)
    entry = run_subcorpus if config.mention is not None else run_analyze
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    try:
        before = calibrate.measure()
        t0 = time.perf_counter()
        result = entry(config)
        wall_s = time.perf_counter() - t0
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}
    finally:
        if tracer is not None:
            tracer.uninstall()

    out_dir = Path(spec["out_dir"])
    out = {
        "ok": True,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": {str(p.relative_to(out_dir)): _digest(p)
                    for p in sorted(result.written)},
        "emit_bytes": sum(p.stat().st_size for p in result.written),
        "matched": result.part.matched,
        "distinct_keys": (result.part.mentions.distinct_keys
                          + result.part.hashtags.distinct_keys),
        "summary": json.loads((out_dir / "summary.json").read_text("utf-8")),
    }
    if tracer is not None:
        out["trace"] = tracer.export()
    # Calibrate again on a heap like the one before the run.
    del result
    gc.collect()
    out["factor"] = calibrate.speed_factor(before, calibrate.measure())
    return out


def setup(spec: dict) -> dict:
    """load_lexicon + load_stopwords + load_gazetteer on the workload's
    files, ``setup_reps`` times, each between two speed calibrations."""
    from tweetlex.lexicon import load_lexicon
    from tweetlex.preprocess import default_stopwords_path, load_stopwords
    from tweetlex.spatial import default_gazetteer_path, load_gazetteer

    times, factors = [], []
    before = calibrate.measure()
    for _ in range(spec["setup_reps"]):
        t0 = time.perf_counter()
        load_lexicon(spec["config"]["lexicon_path"])
        load_stopwords(default_stopwords_path())
        load_gazetteer(default_gazetteer_path())
        times.append(time.perf_counter() - t0)
        after = calibrate.measure()
        factors.append(calibrate.speed_factor(before, after))
        before = after
    return {"ok": True, "setup_s": times, "factors": factors}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    result = setup(spec) if spec.get("setup_reps") else run(spec)
    Path(result_path).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
