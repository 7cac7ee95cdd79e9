"""End-to-end and per-layer benchmark of tweetlex.report.run_analyze.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tweetlex checkout.  The benchmark generates the
workload from the seed (workloads.py), times the program's set-up on its
own, then runs whole batch runs in a closed loop with one client: each
sample is one run_analyze (or run_subcorpus) call in a fresh child process
(sample.py), started only after the previous one has finished, for
``--seconds`` seconds after one discarded warm-up.  Every run's outputs
are checked: summary.json against the generator's own counts, each output
file's digest against the first run's, and one --oracle pass per run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` samples alternate untraced and traced, and it carries
the per-layer metrics (spans.py).  The lines before it give every metric
with its unit and sample count, failed_frac, and the run's metadata.
README.md next to this file says why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REQUIRED = ("src/tweetlex/report.py", "tests/corpus_gen.py")

WORKLOADS = ("bulk_1w", "bulk_nproc", "longtail_tags", "window_subcorpus")

END_TO_END = {
    "wall_s": "s",
    "lines_per_s": "lines/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "ingest.read_s": "s",
    "ingest.lines": "count",
    "ingest.admitted": "count",
    "ingest.admit_ratio": "ratio",
    "lexicon.load_s": "s",
    "lexicon.entries": "count",
    "preprocess.self_s": "s",
    "preprocess.calls": "count",
    "preprocess.tokens": "count",
    "kernels.tokenize_s": "s",
    "kernels.count_masks_s": "s",
    "tagger.self_s": "s",
    "tagger.calls": "count",
    "spatial.resolve_s": "s",
    "spatial.calls": "count",
    "spatial.repeat_ratio": "ratio",
    "spatial.aggregate_s": "s",
    "temporal.add_s": "s",
    "temporal.merge_s": "s",
    "entities.update_s": "s",
    "entities.distinct_keys": "count",
    "report.emit_s": "s",
    "report.emit_bytes": "bytes",
    "report.pool_wait_s": "s",
    "report.unattributed_s": "s",
    "reference.run_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_REPS = 7
MIN_SAMPLES = 3
#: No child may outlive this many seconds from the start of the run, so a
#: hung run still ends the benchmark well inside three minutes.
RUN_BUDGET_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Children:
    """Starts sample processes one at a time and collects their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, TMPDIR=str(work),
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(self, config: dict, trace: bool, setup_reps: int = 0) -> dict:
        self.count += 1
        sample_dir = self.work / f"sample-{self.count}"
        sample_dir.mkdir()
        spec = sample_dir / "spec.json"
        result = sample_dir / "result.json"
        spec.write_text(json.dumps({
            "config": config, "trace": trace, "setup_reps": setup_reps,
            "out_dir": str(sample_dir / "out")}), "utf-8")
        # A session of its own lets a timeout stop the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "sample.py"), str(spec), str(result)],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            _out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            err = b"sample timed out"
        try:
            if proc.returncode != 0 or not result.exists():
                tail = err.decode("utf-8", "replace").strip()[-2000:]
                return {"ok": False,
                        "error": f"exit {proc.returncode}: {tail}"}
            return json.loads(result.read_text("utf-8"))
        finally:
            shutil.rmtree(sample_dir)


def summary_problems(summary: dict, exp, subcorpus: bool,
                     yielded: dict) -> list[str]:
    """Differences between summary.json and the generator's counts.

    ``yielded`` maps a description to a count of admitted records taken
    apart from summary.json: the records the chunk loop processed
    (analyze runs) and the records the reader yielded (traced runs).
    """
    e = exp.as_dict()
    rejected = sum(e["rejected"].values())
    want = {
        "records_read": e["lines"],
        "records_rejected": rejected,
        "rejected_reasons": e["rejected"],
        "blanks_dropped": 0,
        "lexicon_entries": e["lexicon_entries"],
    }
    if subcorpus:
        want["subcorpus_tweets"] = e["mention_carriers"]
        want["tweets_tagged"] = e["mention_carriers"]
    else:
        unknown = exp.regions.get("UNKNOWN", 0)
        foreign = exp.regions.get("FOREIGN", 0)
        want["tweets_tagged"] = e["admitted"]
        want["mentions"] = {"distinct": e["distinct_mentions"],
                            "total_occurrences": e["mention_occurrences"]}
        want["hashtags"] = {"distinct": e["distinct_hashtags"],
                            "total_occurrences": e["hashtag_occurrences"]}
        want["locations"] = {"located": e["admitted"] - unknown,
                             "unknown": unknown,
                             "india_total": e["admitted"] - unknown - foreign,
                             "foreign": foreign}
    problems = []
    for key, value in want.items():
        got = summary.get(key)
        if isinstance(value, dict) and isinstance(got, dict):
            got = {k: got.get(k) for k in value}
        if got != value:
            problems.append(f"summary {key}: got {got!r}, expected {value!r}")
    for what, count in yielded.items():
        if count != e["admitted"]:
            problems.append(f"records_read != yielded + rejected: {count} "
                            f"{what}, expected {e['admitted']}")
    return problems


class Gate:
    """Correctness gate: every run is checked, failures feed failed_frac."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict | None = None
        self.summary: dict | None = None

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(problems))
        return not problems

    def check(self, label: str, res: dict, oracle: bool = False) -> bool:
        if not res["ok"]:
            return self.record(label, [res["error"].strip().splitlines()[-1]])
        problems = []
        summary = dict(res["summary"])
        digests = dict(res["digests"])
        if oracle:
            if summary.pop("oracle_check", None) != "ok":
                problems.append("oracle pass did not report ok")
            digests.pop("summary.json")
        yielded = {}
        if not self.workload.subcorpus:
            yielded["records processed"] = res["matched"]
        if "trace" in res and not oracle:  # the reference reads it again
            yielded["records yielded"] = res["trace"]["yielded"]
        problems += summary_problems(summary, self.workload.expected,
                                     self.workload.subcorpus, yielded)
        if self.digests is None and not oracle:
            self.digests, self.summary = digests, summary
        elif self.digests is not None:
            want = dict(self.digests)
            if oracle:
                want.pop("summary.json")
                if summary != self.summary:
                    problems.append("oracle summary differs")
            if digests != want:
                bad = sorted(k for k in set(want) | set(digests)
                             if want.get(k) != digests.get(k))
                problems.append(f"output digests differ: {bad}")
        return self.record(label, problems)


def layer_figures(res: dict) -> dict:
    """Per-layer figures of one traced sample, times in reference seconds."""
    import spans

    fig = spans.layer_metrics(res["trace"], res["wall_s"])
    fig["trace.wall_s"] = res["wall_s"]
    fig = {name: value * res["factor"] if name.endswith("_s") else value
           for name, value in fig.items()}
    summary = res["summary"]
    lines = summary["records_read"]
    admitted = fig.pop("ingest.yielded")
    fig.update({
        "ingest.lines": lines,
        "ingest.admitted": admitted,
        "ingest.admit_ratio": admitted / lines,
        "lexicon.entries": summary["lexicon_entries"],
        "entities.distinct_keys": res["distinct_keys"],
        "report.emit_bytes": res["emit_bytes"],
    })
    return fig


def bench(args, work: Path):
    deadline = time.monotonic() + RUN_BUDGET_S
    sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]
    import workloads
    from tweetlex import _kernels

    workers = nproc()
    wl = workloads.generate(args.workload, args.seed, work / "inputs", workers)
    children = Children(work, deadline)
    gate = Gate(wl)
    expected = wl.expected.as_dict()

    setup = children.run(wl.config, False, setup_reps=SETUP_REPS)
    gate.record("set-up", [] if setup["ok"]
                else [setup["error"].strip().splitlines()[-1]])
    gate.check("warm-up", children.run(wl.config, False))
    if wl.config["workers"] > 1:
        one = dict(wl.config, workers=1)
        gate.check("one-worker pair run", children.run(one, False))
    oracle = children.run(dict(wl.config, oracle=True), bool(args.trace))
    gate.check("oracle pass", oracle, oracle=True)

    raw, walls, rates, rss, factors, layers = [], [], [], [], [], []
    sampling_ends = time.monotonic() + args.seconds
    min_samples = MIN_SAMPLES * (1 + args.trace)
    k = 0
    while time.monotonic() < sampling_ends or k < min_samples:
        traced = bool(args.trace) and k % 2 == 1
        res = children.run(wl.config, traced)
        label = f"sample {k}"
        k += 1
        if not gate.check(label, res):
            continue
        if not traced:
            wall = res["wall_s"] * res["factor"]
            raw.append(res["wall_s"])
            walls.append(wall)
            rates.append(res["summary"]["records_read"] / wall)
            rss.append(res["peak_rss_mb"])
            factors.append(res["factor"])
            continue
        fig = layer_figures(res)
        seen = fig["spatial.distinct_locations"]
        if fig["spatial.calls"] and seen != expected["distinct_locations"]:
            gate.failed += 1
            gate.errors.append(f"{label}: traced {seen} distinct locations,"
                               f" expected {expected['distinct_locations']}")
            continue
        layers.append(fig)

    e2e = {"wall_s": walls, "lines_per_s": rates, "peak_rss_mb": rss,
           "setup_s": [t * f for t, f in zip(setup.get("setup_s", []),
                                              setup.get("factors", []))]}
    per_layer: dict = {}
    if layers and walls:
        per_layer = {name: [fig[name] for fig in layers]
                     for name in layers[0]}
        per_layer["trace.overhead_s"] = [
            statistics.median(per_layer["trace.wall_s"])
            - statistics.median(walls)]
        if oracle["ok"]:
            per_layer["reference.run_s"] = [
                layer_figures(oracle)["reference.run_s"]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": workers,
        "workers": wl.config["workers"],
        "lines": dict(workloads.SIZES),
        "expected": expected,
        "client": "closed loop, 1 client, one run per fresh process",
        "raw_wall_s": statistics.median(raw) if raw else None,
        "raw_setup_s": (statistics.median(setup["setup_s"])
                        if setup["ok"] else None),
        "speed_factor": statistics.median(factors) if factors else None,
        "runs_attempted": gate.attempted,
        "runs_failed": gate.failed,
        "errors": gate.errors,
    }
    return e2e, per_layer, meta, gate


def report(e2e: dict, per_layer: dict, meta: dict, gate, trace: bool) -> dict:
    """Print every metric with unit and sample count; return the final
    metrics object for the requested mode."""
    failed_frac = gate.failed / gate.attempted
    print(f"# {meta['workload']} seed={meta['seed']} backend={meta['backend']}"
          f" python={meta['python']} nproc={meta['nproc']}"
          f" workers={meta['workers']} git={meta['git_sha']}")
    rows = [(name, unit, e2e[name]) for name, unit in END_TO_END.items()]
    if trace:
        rows += [(name, unit, per_layer.get(name, []))
                 for name, unit in PER_LAYER.items()]
    medians = {}
    walls = per_layer.get("trace.wall_s")
    traced_wall = statistics.median(walls) if walls else None
    for name, unit, values in rows:
        if not values:
            print(f"{name:24s} {'n/a':>14s} {unit}")
            continue
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        medians[name] = median
        share = ""
        if name in PER_LAYER and unit == "s" and traced_wall and not (
                name.startswith(("reference.", "trace."))):
            share = f", {median / traced_wall:.1%} of trace.wall_s"
        print(f"{name:24s} {median:14.6f} {unit:8s} median of {len(values)}"
              f" (q1 {q1:.6g}, q3 {q3:.6g}){share}")
    print(f"{'failed_frac':24s} {failed_frac:14.6f} {'ratio':8s}"
          f" {gate.failed} of {gate.attempted} runs")
    print(f"# times in reference seconds; raw medians: wall_s "
          f"{meta['raw_wall_s']}, setup_s {meta['raw_setup_s']}; "
          f"host speed factor {meta['speed_factor']}")
    if trace and meta["workers"] > 1:
        print(f"# main-process spans only: the spans of the "
              f"{meta['workers']} pool workers are lost with them, so the "
              f"per-record layers they run (preprocess, kernels, tagger, "
              f"spatial resolve and aggregate, temporal add, entities "
              f"update) read 0 here")
    for error in gate.errors:
        print(f"# FAILED {error}")
    print(json.dumps({"meta": meta}))
    wanted = PER_LAYER if trace else END_TO_END
    return {name: {"value": medians.get(name), "unit": unit}
            for name, unit in wanted.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a tweetlex checkout; missing {missing}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        e2e, per_layer, meta, gate = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = report(e2e, per_layer, meta, gate, bool(args.trace))
    correct = gate.failed == 0 and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
