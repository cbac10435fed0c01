"""Metrics, golden fixture, seen/unseen protocol, ablation, efficiency."""

import re

import numpy as np
import pytest

from termset_retrieval.corpus import Corpus, Document, Judgments, Query, ingest_corpus
from termset_retrieval.errors import DataError
from termset_retrieval.evaluation import (
    AblationReport,
    SeenUnseenReport,
    ablate_identifier_scheme,
    benchmark_feasible_speedup,
    efficiency_report,
    evaluate_run,
    evaluate_seen_unseen,
    mrr_at_k,
    recall_at_k,
    read_run,
    seen_unseen_split,
)
from termset_retrieval.importance import ImportanceModel, build_identifiers
from termset_retrieval.index import SequenceView, build_index
from termset_retrieval.scorer import (
    STEP_FEATURES,
    FeatureScorer,
    UniformScorer,
    build_term_weights,
)
from termset_retrieval.synthetic import (
    make_order_noise_corpus,
    make_random_identifiers,
    split_by_wave,
)

from conftest import walk


class TestPointMetrics:
    def test_mrr_examples(self):
        assert mrr_at_k(["x", "rel", "y"], {"rel"}, 10) == 0.5
        assert mrr_at_k([f"d{i}" for i in range(10)] + ["rel"], {"rel"}, 10) == 0.0
        assert mrr_at_k(["rel"], {"rel"}, 10) == 1.0

    def test_recall_examples(self):
        assert recall_at_k(["a", "b", "rel"], {"rel"}, 10) == 1.0
        assert recall_at_k(["a", "r1"], {"r1", "r2"}, 10) == 0.5
        assert recall_at_k(["a", "b"], {"rel"}, 10) == 0.0

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(DataError, match="empty relevant"):
            mrr_at_k(["a"], set(), 10)
        with pytest.raises(DataError, match="empty relevant"):
            recall_at_k(["a"], set(), 10)

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(0)
        docs = [f"d{i}" for i in range(50)]
        for _ in range(25):
            ranking = list(rng.permutation(docs))
            relevant = set(rng.choice(docs, size=3, replace=False))
            mrrs = [mrr_at_k(ranking, relevant, k) for k in (1, 5, 10, 25, 50)]
            recalls = [recall_at_k(ranking, relevant, k) for k in (1, 5, 10, 25, 50)]
            assert mrrs == sorted(mrrs)
            assert recalls == sorted(recalls)


def golden_run_lines():
    """Five judged queries with hand-derived metric values.

    g1: relevant {da}; ranking [da, db, dc]          -> rr 1, r@1 1, r@10 1, r@100 1
    g2: relevant {db}; ranking [da, db]              -> rr 1/2, r@1 0, r@10 1
    g3: relevant {dc, dd}; ranking [dc, da, db]      -> rr 1, r@1 .5, r@10 .5
    g4: relevant {da}; da at rank 11 after fillers   -> rr@10 0, rr@100 1/11, r@100 1
    g5: relevant {dd}; ranking [db, dc, da, dd]      -> rr 1/4, r@1 0, r@10 1
    """
    lines = []

    def add(qid, docs):
        for rank, doc in enumerate(docs, start=1):
            lines.append(f"{qid} Q0 {doc} {rank} {-float(rank):.6f} golden")

    add("g1", ["da", "db", "dc"])
    add("g2", ["da", "db"])
    add("g3", ["dc", "da", "db"])
    add("g4", [f"f{i:02d}" for i in range(10)] + ["da"])
    add("g5", ["db", "dc", "da", "dd"])
    return lines


def golden_judgments():
    return Judgments.from_pairs(
        [("g1", "da"), ("g2", "db"), ("g3", "dc"), ("g3", "dd"), ("g4", "da"), ("g5", "dd")]
    )


class TestEvaluateRun:
    def test_mean_of_two_queries(self):
        run = {"q1": ["rel1", "x"], "q2": ["x", "rel2"]}
        judgments = Judgments.from_pairs([("q1", "rel1"), ("q2", "rel2")])
        report = evaluate_run(run, judgments, cutoffs=(10,))
        assert report.mrr[10] == pytest.approx(0.75)

    def test_missing_query_counts_as_zero(self):
        run = {"q1": ["rel1"], "q2": ["rel2"]}
        judgments = Judgments.from_pairs([("q1", "rel1"), ("q2", "rel2"), ("q3", "rel3")])
        report = evaluate_run(run, judgments, cutoffs=(10,))
        assert report.mrr[10] == pytest.approx(2 / 3)
        assert report.recall[10] == pytest.approx(2 / 3)

    def test_golden_fixture_hand_computed(self):
        report = evaluate_run(golden_run_lines(), golden_judgments(), cutoffs=(1, 10, 100))
        # means, in judged-query order g1..g5, exactly as derived by hand
        assert report.mrr[10] == (1.0 + 0.5 + 1.0 + 0.0 + 0.25) / 5
        assert report.mrr[100] == (1.0 + 0.5 + 1.0 + 1 / 11 + 0.25) / 5
        assert report.recall[1] == (1.0 + 0.0 + 0.5 + 0.0 + 0.0) / 5
        assert report.recall[10] == (1.0 + 1.0 + 0.5 + 0.0 + 1.0) / 5
        assert report.recall[100] == (1.0 + 1.0 + 0.5 + 1.0 + 1.0) / 5
        assert report.mrr[10] == 0.55
        assert report.recall[1] == 0.3
        assert report.recall[10] == 0.7
        assert report.recall[100] == 0.9
        assert report.num_queries == 5

    def test_line_order_invariance(self):
        lines = golden_run_lines()
        rng = np.random.default_rng(5)
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        a = evaluate_run(lines, golden_judgments(), cutoffs=(1, 10, 100))
        b = evaluate_run(shuffled, golden_judgments(), cutoffs=(1, 10, 100))
        assert a.headline() == b.headline()

    def test_unknown_query_warn_and_skip(self):
        lines = golden_run_lines() + ["ghost Q0 da 1 -1.000000 golden"]
        report = evaluate_run(lines, golden_judgments(), cutoffs=(10,))
        assert report.unknown_run_queries == 1
        assert report.mrr[10] == pytest.approx((1.0 + 0.5 + 1.0 + 0.0 + 0.25) / 5)

    def test_duplicate_pair_rejected(self):
        lines = ["q1 Q0 da 1 -1.0 t", "q1 Q0 da 2 -2.0 t"]
        with pytest.raises(DataError, match="duplicate"):
            read_run(lines)

    def test_rank_zero_rejected(self):
        with pytest.raises(DataError, match="rank"):
            read_run(["q1 Q0 da 0 -1.0 t"])

    def test_errors_from_a_file_name_its_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 da 1 -1.0 t\n\nq1 Q0 db 0 -2.0 t\n", encoding="utf-8")
        where = re.escape(f"{path}:3: malformed run line 3: rank")
        with pytest.raises(DataError, match="^" + where):
            read_run(path)
        with pytest.raises(DataError, match="^malformed run line 1: rank 'x' is not a valid int"):
            read_run(["q1 Q0 da x -1.0 t"])


class TestLabelledReportLayout:
    """The exact bytes `evaluate` / `ablate` print and write, on the golden run lines."""

    def test_seen_unseen_table(self):
        lines, judgments = golden_run_lines(), golden_judgments()
        report = SeenUnseenReport(
            seen=evaluate_run(lines, judgments.restricted_to(["g1", "g2"]), (1, 10)),
            unseen=evaluate_run(lines, judgments.restricted_to(["g3", "g4", "g5"]), (1, 10)),
            combined=evaluate_run(lines, judgments, (1, 10)),
        )
        assert report.format_table() == (
            "[Seen] (2 queries)\n"
            " MRR@1  MRR@10  Recall@1  Recall@10\n"
            "0.5000  0.7500    0.5000     1.0000\n"
            "queries evaluated: 2 (absent queries count as zero; 3 unknown run queries skipped)\n"
            "[Unseen] (3 queries)\n"
            " MRR@1  MRR@10  Recall@1  Recall@10\n"
            "0.3333  0.4167    0.1667     0.5000\n"
            "queries evaluated: 3 (absent queries count as zero; 2 unknown run queries skipped)\n"
            "[Seen+Unseen] (5 queries)\n"
            " MRR@1  MRR@10  Recall@1  Recall@10\n"
            "0.4000  0.5500    0.3000     0.7000\n"
            "queries evaluated: 5 (absent queries count as zero; 0 unknown run queries skipped)"
        )

    def test_ablation_table_and_records(self):
        lines, judgments = golden_run_lines(), golden_judgments()
        # the sequence side keeps only g1's and g2's lines
        report = AblationReport(term_set=evaluate_run(lines, judgments, (10,)),
                                sequence=evaluate_run(lines[:5], judgments, (10,)))
        assert report.format_table() == (
            "[Term set] (5 queries)\n"
            "MRR@10  Recall@10\n"
            "0.5500     0.7000\n"
            "queries evaluated: 5 (absent queries count as zero; 0 unknown run queries skipped)\n"
            "[Sequence] (5 queries)\n"
            "MRR@10  Recall@10\n"
            "0.3000     0.4000\n"
            "queries evaluated: 5 (absent queries count as zero; 0 unknown run queries skipped)"
        )
        assert report.to_records() == [
            {"record": "ablation", "identifier": "term_set", "MRR@10": 0.55, "Recall@10": 0.7},
            {"record": "ablation", "identifier": "sequence", "MRR@10": 0.3, "Recall@10": 0.4},
        ]


def split_fixture():
    docs = [
        {"doc_id": f"D{i:02d}", "title": f"title{i}", "body": f"common word{i} extra{i}"}
        for i in range(100)
    ]
    corpus = ingest_corpus(docs)
    train_j = Judgments.from_pairs([(f"tq{i}", f"D{i:02d}") for i in range(60)])
    test_j = Judgments.from_pairs([(f"xq{i}", f"D{i:02d}") for i in range(100)])
    return corpus, train_j, test_j


class TestSeenUnseenSplit:
    def test_even_partition(self):
        corpus, train_j, _ = split_fixture()
        split = seen_unseen_split(corpus, train_j, fraction=0.5, seed=0)
        assert len(split.seen_doc_ids) == 50
        assert len(split.unseen_doc_ids) == 50
        assert split.seen_doc_ids | split.unseen_doc_ids == set(corpus.doc_ids)
        assert not split.seen_doc_ids & split.unseen_doc_ids

    def test_reproducible(self):
        corpus, train_j, _ = split_fixture()
        a = seen_unseen_split(corpus, train_j, 0.5, seed=4)
        b = seen_unseen_split(corpus, train_j, 0.5, seed=4)
        assert a.seen_doc_ids == b.seen_doc_ids
        c = seen_unseen_split(corpus, train_j, 0.5, seed=5)
        assert a.seen_doc_ids != c.seen_doc_ids

    def test_zero_training_leakage(self):
        corpus, train_j, _ = split_fixture()
        split = seen_unseen_split(corpus, train_j, 0.5, seed=1)
        for qid in split.train_query_ids:
            assert train_j.relevant(qid) <= split.seen_doc_ids
        dropped = set(train_j.query_ids) - split.train_query_ids
        for qid in dropped:
            assert train_j.relevant(qid) & split.unseen_doc_ids

    def test_three_column_report(self):
        corpus, train_j, test_j = split_fixture()
        split = seen_unseen_split(corpus, train_j, 0.5, seed=2)
        run = {qid: sorted(test_j.relevant(qid)) for qid in test_j.query_ids}
        report = evaluate_seen_unseen(run, test_j, split, cutoffs=(10,))
        assert report.seen.num_queries + report.unseen.num_queries == report.combined.num_queries
        assert report.combined.num_queries == 100
        table = report.format_table()
        assert "Seen" in table and "Unseen" in table and "Seen+Unseen" in table

    def test_side_without_queries_rejected(self):
        corpus, train_j, _ = split_fixture()
        split = seen_unseen_split(corpus, train_j, 0.5, seed=3)
        seen_only = Judgments.from_pairs(
            [(f"xq{i}", doc) for i, doc in enumerate(sorted(split.seen_doc_ids))]
        )
        with pytest.raises(DataError, match="without judged test queries"):
            evaluate_seen_unseen({}, seen_only, split, cutoffs=(10,))

    def test_fraction_bounds(self):
        corpus, train_j, _ = split_fixture()
        with pytest.raises(DataError, match="fraction"):
            seen_unseen_split(corpus, train_j, 0.0, seed=0)


def order_noise_setup(seed=0):
    corpus, queries, judgments = make_order_noise_corpus(seed=seed)
    _, _, test_q, test_j = split_by_wave(queries, judgments, test_wave=1)
    model = ImportanceModel(np.array([1.0, 0, 0, 0, 0, 0]))  # frequency-driven order
    table = build_identifiers(corpus, model, n_min=3, n_max=6)
    index = build_index(table)
    scorer = FeatureScorer.zeros(index, build_term_weights(index, corpus, model))
    scorer.weights[0] = 4.0  # shared query-affinity scorer for both modes
    return index, scorer, test_q, test_j


class TestAblation:
    def test_sequence_mode_feasible_set_definition(self):
        index, _, _, _ = order_noise_setup()
        view = SequenceView(index)
        first = {index.dictionary.term_of(int(t)) for t in view.expand(*walk(view, [])).terms}
        assert first == {f"group{g:02d}a" for g in range(20)}
        beam = walk(view, [index.dictionary.id_of("group00a")])
        second = {index.dictionary.term_of(int(t)) for t in view.expand(*beam).terms}
        assert second == {"group00b"}

    def test_exhaustive_beam_retrieves_same_sets(self):
        index, _, test_q, _ = order_noise_setup()
        from termset_retrieval.decoder import search

        view = SequenceView(index)
        for q in test_q[:4]:
            a = set(search(q, index, UniformScorer(), beam_size=None).doc_ids())
            b = set(search(q, view, UniformScorer(), beam_size=None).doc_ids())
            assert a == b == set(index.doc_ids)

    def test_term_set_dominates_on_order_noise(self):
        index, scorer, test_q, test_j = order_noise_setup()
        report = ablate_identifier_scheme(index, scorer, test_q, test_j, beam_size=10,
                                          cutoffs=(10,))
        assert report.term_set.mrr[10] >= report.sequence.mrr[10]
        assert report.term_set.recall[10] >= report.sequence.recall[10]
        # the gap is structural, not a tie
        assert report.term_set.recall[10] - report.sequence.recall[10] > 0.2
        records = report.to_records()
        assert {r["identifier"] for r in records} == {"term_set", "sequence"}


class TestEfficiency:
    def test_report_schema_and_rows(self):
        table = make_random_identifiers(150, 80, 4, seed=0)
        index = build_index(table)
        rng = np.random.default_rng(0)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 1, len(index.dictionary)))
        queries = [Query.from_text(f"q{i}", "t01 t05") for i in range(3)]
        report = efficiency_report(index, scorer, queries, beam_sizes=(5, 20))
        assert [row.beam_size for row in report.rows] == [5, 20]
        assert report.memory_mb > 0
        for row in report.rows:
            assert row.mean_latency_s > 0
            assert row.median_latency_s > 0
        text = report.format_table()
        assert "Memory" in text and "beam size" in text

    def test_feasible_speedup_paths_agree(self):
        table = make_random_identifiers(500, 300, 5, seed=2)
        index = build_index(table)
        bench = benchmark_feasible_speedup(index, num_prefixes=50, seed=1)
        assert bench.postings_time_s > 0
        assert bench.naive_time_s > 0

    def test_feasible_speedup_refuses_an_index_of_n_1(self):
        index = build_index(make_random_identifiers(5, 8, 1, seed=0))
        with pytest.raises(DataError, match="no prefix of depth 1..n-1 to time at n=1"):
            benchmark_feasible_speedup(index, num_prefixes=5)
