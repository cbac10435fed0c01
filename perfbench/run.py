"""Seeded end-to-end benchmark of the term-set retrieval engine.

Run from the repository root:

    python3 perfbench/run.py --workload search-10k-b100 --seed 1 --seconds 38 --trace 0

It generates the workload's inputs from --seed, times set-ups alternating
with a closed-loop search phase with one client, checks every result, and prints
a report followed by one JSON line {correct, attempted, failed, metrics}.
With --trace 1 it instead runs set-up plus one pass over the evaluation
queries twice, untraced and traced, and reports per-layer metrics from the
traced pass. Workload parameters and pinned input digests live in
perfbench/workloads.json; the metric names and units in BENCHMARK.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

import checks  # noqa: E402  (sibling modules; HERE is sys.path[0])
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_BEYOND = 10  # samples that must lie above the reported tail percentile
# Reported tail percentiles, highest first. p90 and p99 are left out: at the
# sample counts these workloads reach (about 100, 135 and 1800 queries a
# run) they would sit on a threshold, so the reported percentile would change
# from run to run, and p99 of the pipeline is set by a few host stalls.
TAIL_PERCENTILES = (95.0, 75.0, 50.0)


def import_package():
    """Import termset_retrieval from ./src of the checkout being measured, nothing else."""
    src = ROOT / "src"
    if not (src / "termset_retrieval" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no termset_retrieval package under {src}")
    sys.path.insert(0, str(src))
    import termset_retrieval
    import termset_retrieval.synthetic  # noqa: F401  (not imported by the package itself)

    if Path(termset_retrieval.__file__).resolve().parent != (src / "termset_retrieval").resolve():
        raise SystemExit(f"perfbench: termset_retrieval resolved outside {src}")
    return termset_retrieval


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Highest of TAIL_PERCENTILES (nearest rank) with MIN_BEYOND samples above it.

    Returns (value, percentile, samples beyond it).
    """
    n = len(samples)
    ordered = sorted(samples)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)  # 1-based nearest rank
        if n - rank >= MIN_BEYOND:
            return ordered[rank - 1], percentile, n - rank
    raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} beyond it")


class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def output_digest(pairs) -> str:
    """sha256 of the concatenated SearchResult.canonical() outputs, in query order."""
    h = hashlib.sha256()
    for query, result in pairs:
        text = f"raised {result!r}" if isinstance(result, Exception) else result.canonical()
        h.update(f"{query.query_id}\n{text}\n".encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def timed_setup(tr, spec, inputs, seed, workdir, ledger):
    """One set-up; returns (Ready or None, seconds)."""
    started = time.perf_counter()
    try:
        ready = workloads.SETUPS[spec["setup"]](tr, spec, inputs, seed, workdir)
    except Exception as exc:  # a failed operation is counted, not fatal
        ledger.op([f"set-up raised {exc!r}"])
        return None, time.perf_counter() - started
    elapsed = time.perf_counter() - started
    ledger.op([])
    return ready, elapsed


def serve(tr, query, ready, beam):
    """Search one query; returns (query, SearchResult or the exception, seconds)."""
    started = time.perf_counter()
    try:
        result = tr.search(query, ready.searchable, ready.scorer, beam)
    except Exception as exc:  # counted as a failed query by check_served
        result = exc
    return query, result, time.perf_counter() - started


def check_served(tr, spec, served, ready, ledger, reference=None):
    """Correctness checks on every served query; one ledger operation each.

    `reference` holds earlier results for the same queries (the first pass,
    or the untraced run), which a later result must reproduce byte for byte.
    """
    first = {}
    for i, (query, result, _) in enumerate(served):
        if isinstance(result, Exception):
            ledger.op([f"{query.query_id}: search raised {result!r}"])
            continue
        problems = checks.check_result(result, ready.searchable)
        if i < spec["score_check_queries"]:
            problems += checks.check_scores(tr, result, query, ready.searchable, ready.scorer)
        earlier = (reference or {}).get(query.query_id, first.get(query.query_id))
        if earlier is not None:
            problems += checks.check_same(result, earlier, "an earlier search of the same query")
        first.setdefault(query.query_id, result)
        ledger.op(problems)


def identical(result, reference) -> bool:
    """Both are results (not exceptions) with byte-identical canonical output."""
    if isinstance(result, Exception) or isinstance(reference, Exception):
        return False
    return result is reference or result.canonical() == reference.canonical()


def check_roundtrip(tr, spec, queries, ready, ledger) -> None:
    """Search on the loaded index must match search on the index it was saved from."""
    if ready.built is None:
        return
    for query in queries[: spec["roundtrip_check_queries"]]:
        _, loaded, _ = serve(tr, query, ready, spec["beam"])
        try:
            built = tr.search(query, ready.built, ready.scorer, spec["beam"])
            problems = checks.check_same(loaded, built, "search on the built index")
        except Exception as exc:  # counted as a failed check
            problems = [f"{query.query_id}: round-trip check raised {exc!r}"]
        ledger.op(problems)


def quality(tr, served, judgments):
    """Recall@10 and MRR@10 via evaluate_run, over the evaluation queries."""
    run = {q.query_id: r.doc_ids() for q, r, _ in served if not isinstance(r, Exception)}
    report = tr.evaluate_run(run, judgments.restricted_to(q.query_id for q, _, _ in served), (10,))
    return report.recall[10], report.mrr[10]


class HostSpeed:
    """Corrects wall times for the current speed of the shared host.

    The host this benchmark was built on runs each CPU at a speed that swings
    by up to 2x over seconds to minutes, and the program slows with it, so
    raw times of the same code spread past any useful regression bound. A
    fixed pure-Python kernel (no package code; its one container is a small
    dict) is timed between the measured operations; an operation's wall
    time is scaled by `nominal_s` over the mean of the kernel times just
    before and just after it. A change to the program moves the corrected
    time exactly as it moves the raw one; a slower host moves only the raw.
    """

    KERNEL_ITERATIONS = 10_000
    REPEATS = 3  # a sample is the fastest of these, so one interrupt does not count

    def __init__(self, nominal_s: float, sample=None):
        self.nominal_s = nominal_s
        self.sample = sample or self.kernel_seconds
        self.samples: list[float] = []
        self.restart()

    @classmethod
    def kernel_seconds(cls) -> float:
        best = math.inf
        for _ in range(cls.REPEATS):
            started = time.perf_counter()
            table, total = {}, 0
            for i in range(cls.KERNEL_ITERATIONS):
                table[i & 1023] = total
                total += i * 3 % 7
            best = min(best, time.perf_counter() - started)
        return best

    def restart(self) -> None:
        """Take the sample that opens the next interval."""
        self.last = self.sample()
        self.samples.append(self.last)

    def factor(self) -> float:
        """Scale for the wall times measured since the previous sample; opens the next interval."""
        before = self.last
        self.restart()
        return 2 * self.nominal_s / (before + self.last)


CORRECTION_INTERVAL_S = 0.25  # search time between two host-speed samples


def run_untraced(tr, spec, inputs, seed, seconds, nominal_s, workdir, ledger):
    """Set-ups and search blocks in turn, spread over `seconds` of wall time.

    Each of the `setup_repeats` rounds times one set-up, then serves queries
    on its state until the round's share of the run has passed. Spreading
    the search over the whole run, rather than one stretch after the
    set-ups, lets every timing sample the same span of the host. Every
    timing is corrected by HostSpeed; the raw ones are reported beside them.
    """
    rounds = spec["setup_repeats"]
    n_eval = min(spec["eval_queries"], len(inputs.queries))
    speed = HostSpeed(nominal_s)
    setup_raw, setup_times, served, corrected, firsts = [], [], [], [], {}
    started = time.perf_counter()
    for i in range(rounds):
        ready = None  # release the previous state before timing the next set-up
        speed.restart()
        ready, elapsed = timed_setup(tr, spec, inputs, seed, workdir, ledger)
        if ready is None:
            continue
        setup_raw.append(elapsed)
        setup_times.append(elapsed * speed.factor())
        if i == 0:
            check_roundtrip(tr, spec, inputs.queries, ready, ledger)
        ready.built = None  # serve holding only what a server would
        last = i == rounds - 1
        deadline = started + seconds * (i + 1) / rounds
        pending = []
        speed.restart()
        # Closed loop, one client: the next query goes out when the previous
        # returns. The evaluation queries always complete, so quality covers
        # a fixed set.
        while time.perf_counter() < deadline or (last and len(served) < n_eval):
            query = inputs.queries[len(served) % len(inputs.queries)]
            query, result, seconds_taken = serve(tr, query, ready, spec["beam"])
            first = firsts.setdefault(query.query_id, result)
            if identical(result, first):
                result = first  # keep one copy, so memory does not grow with the run
            served.append((query, result, seconds_taken))
            pending.append(seconds_taken)
            if sum(pending) >= CORRECTION_INTERVAL_S:
                f = speed.factor()
                corrected += [t * f for t in pending]
                pending = []
        if pending:
            f = speed.factor()
            corrected += [t * f for t in pending]
    if ready is None or len(served) < n_eval:
        raise RuntimeError(f"set-up failed; served {len(served)} of {n_eval} evaluation queries")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_served(tr, spec, served, ready, ledger)
    failed = [isinstance(r, Exception) for _, r, _ in served]
    ok = [t for t, bad in zip(corrected, failed) if not bad]
    ok_raw = [t for (_, _, t), bad in zip(served, failed) if not bad]
    tail, tail_pct, beyond = tail_latency(ok)
    recall, mrr = quality(tr, served[:n_eval], inputs.judgments)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": statistics.median(ok) * 1e3,
        "query_tail_ms": tail * 1e3,
        "search_qps": len(ok) / sum(corrected),
        "recall_at_10": recall,
        "mrr_at_10": mrr,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_runs_s": setup_times,
        "queries_served": len(served),
        "query_tail_percentile": tail_pct,
        "query_tail_beyond": beyond,
        "eval_queries": n_eval,
        "raw_setup_s": statistics.median(setup_raw),
        "raw_query_p50_ms": statistics.median(ok_raw) * 1e3,
        "raw_query_tail_ms": tail_latency(ok_raw)[0] * 1e3,
        "raw_search_qps": len(ok) / sum(t for _, _, t in served),
        "host_kernel_ms": {
            "nominal": nominal_s * 1e3,
            "median": statistics.median(speed.samples) * 1e3,
            "min": min(speed.samples) * 1e3,
            "max": max(speed.samples) * 1e3,
            "samples": len(speed.samples),
        },
        "output_sha256": output_digest((q, r) for q, r, _ in served[:n_eval]),
    }
    return metrics, details


def run_traced(tr, spec, inputs, seed, workdir, ledger, spans_path):
    """Set-up and one pass over the evaluation queries, untraced and traced.

    The two sides alternate query by query, so drift in machine speed
    falls on both; the untraced results are the reference the traced
    ones must reproduce.
    """
    n_eval = min(spec["eval_queries"], len(inputs.queries))
    tracer = tracing.Tracer()
    plain, plain_setup_s = timed_setup(tr, spec, inputs, seed, workdir, ledger)
    with tracer.installed():
        ready, traced_setup_s = timed_setup(tr, spec, inputs, seed, workdir, ledger)
    if plain is None or ready is None:
        raise RuntimeError("set-up failed; nothing to trace")
    check_roundtrip(tr, spec, inputs.queries, ready, ledger)
    plain.built = ready.built = None
    untraced, served = [], []
    for i, query in enumerate(inputs.queries[:n_eval]):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                with tracer.installed():
                    tracer.query = query.query_id
                    served.append(serve(tr, query, ready, spec["beam"]))
            else:
                untraced.append(serve(tr, query, plain, spec["beam"]))
    untraced_wall = plain_setup_s + sum(t for _, _, t in untraced)
    traced_wall = traced_setup_s + sum(t for _, _, t in served)
    reference = {q.query_id: r for q, r, _ in untraced if not isinstance(r, Exception)}
    plain = untraced = None
    tracer.write_jsonl(spans_path)

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["index.memory_mb"] = 0.0
    if hasattr(ready.searchable, "memory_bytes"):
        metrics["index.memory_mb"] = ready.searchable.memory_bytes() / 1e6
    else:
        tracer.absent.append("index:Index.memory_bytes")
    metrics["index.file_mb"] = metrics["index.load_peak_mb"] = 0.0
    if ready.index_path is not None:
        metrics["index.file_mb"] = os.path.getsize(ready.index_path) / 1e6
        tracemalloc.start()
        try:
            tr.load_index(ready.index_path)
            metrics["index.load_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    metrics["evaluation.termset_recall_at_10"] = metrics["evaluation.sequence_recall_at_10"] = 0.0
    if inputs.ablation is not None:
        try:
            termset, sequence = workloads.ablation_recall(tr, spec, inputs)
        except Exception as exc:  # counted as a failed operation
            ledger.op([f"ablation raised {exc!r}"])
        else:
            ledger.op([])
            metrics["evaluation.termset_recall_at_10"] = termset
            metrics["evaluation.sequence_recall_at_10"] = sequence

    check_served(tr, spec, served, ready, ledger, reference)
    seen = {s.name for s in tracer.spans}
    details = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "absent_entry_points": tracer.absent,
        "idle_entry_points": sorted(
            ep.span for ep in tracing.ENTRY_POINTS if ep.span not in seen
        ),
        "eval_queries": n_eval,
        "output_sha256": output_digest((q, r) for q, r, _ in served),
    }
    return metrics, details


def check_inputs(tr, spec, inputs, seed, reference_seed, ledger) -> dict:
    """The generators must still produce the pinned inputs at the reference seed."""
    ref = inputs
    if seed != reference_seed:
        ref = workloads.generate(tr, spec, reference_seed, base=inputs)
    got = workloads.digest(ref)
    pinned = spec["reference_sha256"]
    ledger.op(
        []
        if got == pinned
        else [f"inputs at seed {reference_seed} hash to {got}, pinned {pinned}: generators changed"]
    )
    return {"inputs_sha256": workloads.digest(inputs), "reference_inputs_sha256": got}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tr = import_package()
    spec = config["workloads"][args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    outdir = ROOT / ".perfbench"
    workdir = outdir / tag
    workdir.mkdir(parents=True, exist_ok=True)

    ledger = Ledger()
    inputs = workloads.generate(tr, spec, args.seed)
    input_details = check_inputs(tr, spec, inputs, args.seed, config["reference_seed"], ledger)
    # The generated inputs stay alive for every set-up, but they are the
    # benchmark's, not the program's: freeze them out of the cyclic
    # collector, whose full passes would otherwise walk them during every
    # timed phase (holding the 100k registry unfrozen made every other query
    # about 90 ms slower).
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            measured, details = run_traced(
                tr, spec, inputs, args.seed, str(workdir), ledger, outdir / f"{tag}.spans.jsonl"
            )
            wanted = declared["per_layer"]
        else:
            measured, details = run_untraced(
                tr,
                spec,
                inputs,
                args.seed,
                args.seconds,
                config["host_kernel_nominal_ms"] / 1e3,
                str(workdir),
                ledger,
            )
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # the saved index; results stay
    details.update(input_details)
    error_rate = ledger.failed / ledger.attempted

    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        ledger.problems.append(f"non-finite metrics {bad}")
    correct = ledger.failed == 0 and not bad
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": metrics,
        "details": details,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": error_rate,
        "problems": ledger.problems[:50],
    }
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} (closed loop, 1 client)")
    better = {m["name"]: m["better"] for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} [{better[name]}]")
    print(f"  error_rate {error_rate:g} ({ledger.failed}/{ledger.attempted} operations)")
    for key, value in details.items():
        print(f"  {key}: {value}")
    for problem in ledger.problems[:20]:
        print(f"  PROBLEM {problem}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
