"""Retrieval metrics, generalization protocol, ablations, and efficiency reporting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Judgments, Query
from .decoder import search
from .errors import DataError, line_prefix, parse_values, read_lines
from .index import Index, SequenceView, naive_feasible_terms
from .scorer import Scorer


def mrr_at_k(ranked_doc_ids, relevant: set[str], k: int) -> float:
    """Reciprocal rank of the first relevant document within the top k, else 0."""
    if k < 1:
        raise DataError(f"cutoff must be >= 1, got {k}")
    if not relevant:
        raise DataError("empty relevant set")
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


def recall_at_k(ranked_doc_ids, relevant: set[str], k: int) -> float:
    """Fraction of the relevant documents present in the top k."""
    if k < 1:
        raise DataError(f"cutoff must be >= 1, got {k}")
    if not relevant:
        raise DataError("empty relevant set")
    return len(relevant.intersection(ranked_doc_ids[:k])) / len(relevant)


@dataclass
class MetricsReport:
    cutoffs: tuple[int, ...]
    mrr: dict[int, float]
    recall: dict[int, float]
    num_queries: int
    per_query: list[dict] = field(default_factory=list)
    unknown_run_queries: int = 0

    def headline(self) -> dict[str, float]:
        out = {}
        for k in self.cutoffs:
            out[f"MRR@{k}"] = self.mrr[k]
        for k in self.cutoffs:
            out[f"Recall@{k}"] = self.recall[k]
        return out

    def to_records(self) -> list[dict]:
        rows = [{"record": "summary", "num_queries": self.num_queries, **self.headline()}]
        rows.extend({"record": "query", **q} for q in self.per_query)
        return rows

    def format_table(self) -> str:
        headers = list(self.headline())
        values = [f"{v:.4f}" for v in self.headline().values()]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  ".join(v.rjust(w) for v, w in zip(values, widths)),
            f"queries evaluated: {self.num_queries} "
            f"(absent queries count as zero; {self.unknown_run_queries} unknown run queries skipped)",
        ]
        return "\n".join(lines)


def read_run(lines_or_path) -> dict[str, list[str]]:
    """Parse run lines into query -> docs ordered by rank; order of lines is irrelevant.

    Given a path, errors name its `path:line`.
    """
    path = None
    if isinstance(lines_or_path, (str, bytes)) or hasattr(lines_or_path, "__fspath__"):
        path, lines = lines_or_path, read_lines(lines_or_path)
    else:
        lines = list(lines_or_path)
    parsed: dict[str, list[tuple[int, str]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        bad = f"{line_prefix(path, lineno)}malformed run line {lineno}"
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{bad}: expected 6 fields")
        qid, _, doc_id, rank, _, _ = parts
        if (qid, doc_id) in seen:
            raise DataError(f"{bad}: duplicate ({qid}, {doc_id})")
        seen.add((qid, doc_id))
        (rank_int,) = parse_values(int, [rank], f"{bad}: rank")
        if rank_int < 1:
            raise DataError(f"{bad}: rank must be >= 1")
        parsed.setdefault(qid, []).append((rank_int, doc_id))
    return {qid: [d for _, d in sorted(docs)] for qid, docs in parsed.items()}


def evaluate_run(run, judgments: Judgments, cutoffs=(1, 10, 100)) -> MetricsReport:
    """Mean MRR@K / Recall@K over all judged queries; missing queries score zero."""
    if isinstance(run, dict):
        ranking = run
    else:
        ranking = read_run(run)
    cutoffs = tuple(sorted(set(int(k) for k in cutoffs)))
    unknown = sum(1 for qid in ranking if qid not in judgments)
    per_query = []
    mrr_sums = {k: 0.0 for k in cutoffs}
    recall_sums = {k: 0.0 for k in cutoffs}
    for qid in judgments.query_ids:
        ranked = ranking.get(qid, [])
        relevant = judgments.relevant(qid)
        row: dict = {"query_id": qid, "retrieved": len(ranked)}
        for k in cutoffs:
            m = mrr_at_k(ranked, relevant, k)
            r = recall_at_k(ranked, relevant, k)
            mrr_sums[k] += m
            recall_sums[k] += r
            row[f"MRR@{k}"] = m
            row[f"Recall@{k}"] = r
        per_query.append(row)
    n = max(len(judgments.query_ids), 1)
    return MetricsReport(
        cutoffs=cutoffs,
        mrr={k: mrr_sums[k] / n for k in cutoffs},
        recall={k: recall_sums[k] / n for k in cutoffs},
        num_queries=len(judgments.query_ids),
        per_query=per_query,
        unknown_run_queries=unknown,
    )


# ---------------------------------------------------------------------------
# Seen / unseen generalization protocol
# ---------------------------------------------------------------------------


@dataclass
class CorpusSplit:
    seen_doc_ids: set[str]
    unseen_doc_ids: set[str]
    train_query_ids: set[str]


def seen_unseen_split(
    corpus: Corpus, train_judgments: Judgments, fraction: float = 0.5, seed: int = 0
) -> CorpusSplit:
    """Partition documents and drop every training query touching the unseen half."""
    if not 0 < fraction < 1:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    doc_ids = sorted(corpus.doc_ids)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(doc_ids))
    n_seen = int(round(fraction * len(doc_ids)))
    seen = {doc_ids[i] for i in order[:n_seen]}
    unseen = set(doc_ids) - seen
    train_qids = {
        qid for qid in train_judgments.query_ids if train_judgments.relevant(qid) <= seen
    }
    return CorpusSplit(seen, unseen, train_qids)


class LabelledReport:
    """`MetricsReport`s under labels: the sides of a split or of an ablation.

    Printed as a `[label] (n queries)` line plus that report's table per
    label, and written as one record per label.
    """

    LABELS: tuple[tuple[str, str], ...]  # (attribute, printed label)
    RECORD: tuple[str, str]  # the records' "record" value, and the key naming the attribute

    def format_table(self) -> str:
        blocks = []
        for name, label in self.LABELS:
            report = getattr(self, name)
            blocks += [f"[{label}] ({report.num_queries} queries)", report.format_table()]
        return "\n".join(blocks)

    def to_records(self) -> list[dict]:
        kind, key = self.RECORD
        return [{"record": kind, key: name, **getattr(self, name).headline()}
                for name, _ in self.LABELS]


@dataclass
class SeenUnseenReport(LabelledReport):
    seen: MetricsReport
    unseen: MetricsReport
    combined: MetricsReport  # micro-average over every test query
    LABELS = (("seen", "Seen"), ("unseen", "Unseen"), ("combined", "Seen+Unseen"))
    RECORD = ("split", "side")


def evaluate_seen_unseen(
    run, test_judgments: Judgments, split: CorpusSplit, cutoffs=(10,)
) -> SeenUnseenReport:
    """Tripartite evaluation: seen-side queries, unseen-side queries, and all queries.

    A test query whose relevant documents touch the unseen half counts as
    unseen. Raises if either side ends up with no judged queries.
    """
    seen_qids, unseen_qids = [], []
    for qid in test_judgments.query_ids:
        if test_judgments.relevant(qid) <= split.seen_doc_ids:
            seen_qids.append(qid)
        else:
            unseen_qids.append(qid)
    if not seen_qids or not unseen_qids:
        raise DataError(
            f"split leaves a side without judged test queries "
            f"(seen={len(seen_qids)}, unseen={len(unseen_qids)})"
        )
    ranking = run if isinstance(run, dict) else read_run(run)
    return SeenUnseenReport(
        seen=evaluate_run(ranking, test_judgments.restricted_to(seen_qids), cutoffs),
        unseen=evaluate_run(ranking, test_judgments.restricted_to(unseen_qids), cutoffs),
        combined=evaluate_run(ranking, test_judgments, cutoffs),
    )


# ---------------------------------------------------------------------------
# Identifier-scheme ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationReport(LabelledReport):
    term_set: MetricsReport
    sequence: MetricsReport
    LABELS = (("term_set", "Term set"), ("sequence", "Sequence"))
    RECORD = ("ablation", "identifier")


def ablate_identifier_scheme(
    index: Index,
    scorer: Scorer,
    queries: list[Query],
    judgments: Judgments,
    beam_size: int = 10,
    cutoffs=(10,),
) -> AblationReport:
    """Same scorer, same identifiers; only the decoding constraint changes.

    Term-set mode admits any identifier permutation, sequence mode forces
    the stored importance order (a plain trie over the sequences).
    """
    sequence_view = SequenceView(index)
    termset_run: dict[str, list[str]] = {}
    sequence_run: dict[str, list[str]] = {}
    for query in queries:
        termset_run[query.query_id] = search(query, index, scorer, beam_size).doc_ids()
        sequence_run[query.query_id] = search(query, sequence_view, scorer, beam_size).doc_ids()
    return AblationReport(
        term_set=evaluate_run(termset_run, judgments, cutoffs),
        sequence=evaluate_run(sequence_run, judgments, cutoffs),
    )


# ---------------------------------------------------------------------------
# Efficiency reporting
# ---------------------------------------------------------------------------


@dataclass
class EfficiencyRow:
    beam_size: int
    mean_latency_s: float
    median_latency_s: float


@dataclass
class EfficiencyReport:
    memory_mb: float
    rows: list[EfficiencyRow]

    def format_table(self) -> str:
        lines = [
            f"{'Memory (MB)':>12}  {'beam size':>9}  {'mean latency (s)':>16}  {'median latency (s)':>18}"
        ]
        for i, row in enumerate(self.rows):
            mem = f"{self.memory_mb:.2f}" if i == 0 else ""
            lines.append(
                f"{mem:>12}  {row.beam_size:>9}  {row.mean_latency_s:>16.6f}  {row.median_latency_s:>18.6f}"
            )
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "record": "efficiency",
                "memory_mb": self.memory_mb,
                "beam_size": row.beam_size,
                "mean_latency_s": row.mean_latency_s,
                "median_latency_s": row.median_latency_s,
            }
            for row in self.rows
        ]


def efficiency_report(
    index: Index, scorer: Scorer, queries: list[Query], beam_sizes=(10, 100)
) -> EfficiencyReport:
    """Wall-time per query at each beam size plus the index's resident footprint.

    Absolute values are environment-specific; only the schema and the
    relative ordering are meaningful.
    """
    if not queries:
        raise DataError("need at least one query to time")
    rows = []
    for beam_size in beam_sizes:
        times = []
        for query in queries:
            start = time.perf_counter()
            search(query, index, scorer, beam_size)
            times.append(time.perf_counter() - start)
        rows.append(
            EfficiencyRow(
                beam_size=int(beam_size),
                mean_latency_s=float(np.mean(times)),
                median_latency_s=float(np.median(times)),
            )
        )
    return EfficiencyReport(memory_mb=index.memory_bytes() / 1e6, rows=rows)


@dataclass
class FeasibleSpeedup:
    postings_time_s: float
    naive_time_s: float

    @property
    def speedup(self) -> float:
        return self.naive_time_s / max(self.postings_time_s, 1e-12)


def benchmark_feasible_speedup(
    index: Index, num_prefixes: int = 200, seed: int = 0
) -> FeasibleSpeedup:
    """Time feasible-set computation: posting-list walk vs full-registry scan.

    Prefixes are random reachable ones (subsets of real identifiers). The
    walk intersects the prefix terms' postings, then takes the feasible set
    from one `expand` of that one-prefix beam. Both paths must agree on
    every prefix before their timings count.
    """
    if index.n < 2:
        raise DataError(f"no prefix of depth 1..n-1 to time at n={index.n}")
    rng = np.random.default_rng(seed)
    prefixes = []
    for _ in range(num_prefixes):
        row = index.sets[rng.integers(len(index.doc_ids))]
        depth = int(rng.integers(1, index.n))
        prefixes.append(tuple(int(t) for t in rng.choice(row, size=depth, replace=False)))

    def walk(prefix):
        docs = index.postings(prefix[0])
        for term_id in prefix[1:]:
            docs = np.intersect1d(docs, index.postings(term_id), assume_unique=True)
        return index.expand(np.array([prefix]), docs, np.array([0, len(docs)])).terms

    for prefix in prefixes[: min(20, num_prefixes)]:
        if not np.array_equal(walk(prefix), naive_feasible_terms(index, prefix)):
            raise DataError(f"feasible-set paths disagree on prefix {prefix}")

    start = time.perf_counter()
    for prefix in prefixes:
        walk(prefix)
    postings_time = time.perf_counter() - start

    start = time.perf_counter()
    for prefix in prefixes:
        naive_feasible_terms(index, prefix)
    naive_time = time.perf_counter() - start
    return FeasibleSpeedup(postings_time, naive_time)
