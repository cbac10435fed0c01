"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from termset_retrieval.cli import main as cli_main, rerun_from_manifest
from termset_retrieval.corpus import Query, TrainingPair, sample_negatives
from termset_retrieval.decoder import brute_force_best_permutation, search
from termset_retrieval.evaluation import (
    ablate_identifier_scheme,
    benchmark_feasible_speedup,
    efficiency_report,
    evaluate_run,
    evaluate_seen_unseen,
    seen_unseen_split,
)
from termset_retrieval.importance import (
    ImportanceModel,
    build_identifiers,
    infonce_loss_and_grad,
    prepare_training_batch,
    score_terms,
    train_importance,
)
from termset_retrieval.index import build_index
from termset_retrieval.learning import TrainingConfig, make_dataset, run_training, validation_recall
from termset_retrieval.scorer import STEP_FEATURES, FeatureScorer, build_term_weights
from termset_retrieval.synthetic import (
    make_bridging_corpus,
    make_order_noise_corpus,
    make_random_identifiers,
    make_random_queries,
    split_by_wave,
)

from conftest import central_difference, max_relative_error


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def random_feature_scorer(index, seed):
    rng = np.random.default_rng(seed)
    return FeatureScorer(
        rng.normal(0, 1, size=len(STEP_FEATURES)),
        index.dictionary.terms,
        rng.uniform(0, 2, size=len(index.dictionary)),
    )


def test_criterion_01_feasible_set_oracle():
    """Posting-list feasible sets equal a brute-force registry scan exactly.

    A prefix's documents are its terms' postings intersected; its feasible
    set is one `expand` of that one-prefix beam.
    """
    table = make_random_identifiers(200, 500, 6, seed=42)
    index = build_index(table)
    sets = {d: frozenset(t) for d, t in table.terms_by_doc.items()}

    def oracle(prefix_terms):
        prefix = set(prefix_terms)
        out = set()
        for s in sets.values():
            if prefix <= s:
                out |= s - prefix
        return out

    rng = np.random.default_rng(7)
    started = time.perf_counter()
    for _ in range(1000):
        row = index.sets[rng.integers(len(index.doc_ids))]
        depth = int(rng.integers(0, index.n))
        prefix_ids = [int(t) for t in rng.choice(row, size=depth, replace=False)]
        docs = index.postings(prefix_ids[0]) if prefix_ids else index.all_docs
        for term_id in prefix_ids[1:]:
            docs = np.intersect1d(docs, index.postings(term_id), assume_unique=True)
        step = index.expand(np.array(prefix_ids, dtype=np.int64).reshape(1, depth), docs,
                            np.array([0, len(docs)]))
        fast = {index.dictionary.term_of(int(t)) for t in step.terms}
        slow = oracle({index.dictionary.term_of(t) for t in prefix_ids})
        assert fast == slow
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"criterion 01 PASS feasible-set oracle: 1000 prefixes equal brute force in {elapsed:.2f}s")


def test_criterion_02_decoder_optimality_oracle():
    """Exhaustive beam equals N! enumeration per document within 1e-9."""
    table = make_random_identifiers(30, 60, 4, seed=5)
    index = build_index(table)
    scorer = random_feature_scorer(index, seed=11)
    query = Query.from_text("q", "t05 t17 t33")
    started = time.perf_counter()
    result = search(query, index, scorer, beam_size=None)
    assert len(result.entries) == 30
    for entry in result.entries:
        _, best_ll = brute_force_best_permutation(query, entry.doc_id, scorer, index)
        assert abs(best_ll - entry.score) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"criterion 02 PASS decoder optimality: 30/30 docs match 4! enumeration in {elapsed:.2f}s")


def test_criterion_03_validity_suite():
    """1,000 randomized queries: permutations match registered sets, no dups, sorted scores."""
    table = make_random_identifiers(200, 500, 6, seed=42)
    index = build_index(table)
    scorer = random_feature_scorer(index, seed=3)
    queries = make_random_queries(table, 1000, seed=9)
    sets = {d: frozenset(t) for d, t in table.terms_by_doc.items()}
    checked = 0
    for query in queries:
        result = search(query, index, scorer, beam_size=10)
        docs = result.doc_ids()
        assert len(docs) == len(set(docs))
        scores = [e.score for e in result.entries]
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        for entry in result.entries:
            assert frozenset(entry.permutation) == sets[entry.doc_id]
            checked += 1
    report(f"criterion 03 PASS validity suite: {checked} permutations over 1000 queries all valid")


def test_criterion_04_gradient_checks():
    """Analytic gradients match central differences (step 1e-5) within 1e-4."""
    corpus, queries, judgments = make_bridging_corpus(num_docs=10, seed=2)
    pairs = [
        TrainingPair(
            q,
            sorted(judgments.relevant(q.query_id))[0],
            sorted(set(corpus.doc_ids) - judgments.relevant(q.query_id))[:4],
        )
        for q in queries[:6]
    ]
    batch = prepare_training_batch(pairs, corpus)
    rng = np.random.default_rng(0)
    worst_importance = 0.0
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, size=6) * rng.choice([-1, 1], size=6)
        _, analytic = infonce_loss_and_grad(w, batch, tau=1.0)
        numeric = central_difference(lambda x: infonce_loss_and_grad(x, batch, 1.0)[0], w)
        worst_importance = max(worst_importance, max_relative_error(analytic, numeric))
    assert worst_importance < 1e-4

    table = make_random_identifiers(25, 20, 4, seed=3)
    index = build_index(table)
    term_weights = rng.uniform(0, 2, len(index.dictionary))
    teacher_batch = []
    for i in range(6):
        row = index.order[rng.integers(len(index.doc_ids))]
        teacher_batch.append(
            (Query.from_text(f"q{i}", "t01 t05 t17"), [int(t) for t in rng.permutation(row)])
        )
    worst_scorer = 0.0
    for _ in range(20):
        weights = rng.normal(0, 1.5, size=len(STEP_FEATURES))
        scorer = FeatureScorer(weights, index.dictionary.terms, term_weights)
        _, analytic = scorer.loss_and_grad(teacher_batch, index)

        def loss_at(w):
            return FeatureScorer(w, index.dictionary.terms, term_weights).loss_and_grad(
                teacher_batch, index
            )[0]

        numeric = central_difference(loss_at, weights)
        worst_scorer = max(worst_scorer, max_relative_error(analytic, numeric))
    assert worst_scorer < 1e-4
    report(
        "criterion 04 PASS gradient checks: max rel err "
        f"importance {worst_importance:.2e}, scorer {worst_scorer:.2e} (20 points each)"
    )


def test_criterion_05_infonce_zero_point_and_bridging():
    """ln 5 at zero weights; trained bridge terms dominate; held-out Recall@1 >= 0.9."""
    docs = [{"doc_id": f"D{i}", "title": f"t{i}", "body": f"w{i} x{i}"} for i in range(5)]
    from termset_retrieval.corpus import ingest_corpus

    corpus0 = ingest_corpus(docs)
    pair = TrainingPair(Query.from_text("q", "nothing shared"), "D0", ["D1", "D2", "D3", "D4"])
    loss, _ = infonce_loss_and_grad(np.zeros(6), prepare_training_batch([pair], corpus0), tau=1.0)
    assert abs(loss - math.log(5)) < 1e-12

    corpus, queries, judgments = make_bridging_corpus(seed=0)
    train_q, train_j, test_q, test_j = split_by_wave(queries, judgments, test_wave=1)
    pairs = sample_negatives(train_q, train_j, corpus, m=4, seed=7)
    model = train_importance(pairs, corpus, tau=1.0, epochs=200, lr=0.05, seed=0)
    bridge, filler = [], []
    for doc in corpus.documents:
        for term, weight in score_terms(model, doc, corpus.stats).items():
            (bridge if term.startswith("bridge") else filler).append(weight)
    ratio = np.mean(bridge) / max(np.mean(filler), 1e-12)
    assert np.mean(bridge) >= 2 * np.mean(filler)

    table = build_identifiers(corpus, model, n_min=2, n_max=8)
    index = build_index(table)
    dataset = make_dataset(train_q, train_j, val_fraction=0.2, seed=1)
    scorer, _ = run_training(
        dataset,
        index,
        TrainingConfig(iterations=2, epochs=10, lr=0.5, seed=0),
        initial_scorer=FeatureScorer.zeros(index, build_term_weights(index, corpus, model)),
    )
    hits = 0.0
    for q in test_q:
        result = search(q, index, scorer, beam_size=10)
        relevant = test_j.relevant(q.query_id)
        hits += len(relevant.intersection(result.doc_ids()[:1])) / len(relevant)
    recall1 = hits / len(test_q)
    assert recall1 >= 0.9
    report(
        "criterion 05 PASS InfoNCE: zero-point ln5 exact, "
        f"bridge/filler ratio {ratio:.2f} (>=2), held-out Recall@1 {recall1:.2f} (>=0.9)"
    )


def test_criterion_06_identifier_scheme_ablation():
    """Term-set decoding at least matches fixed-sequence decoding on order noise."""
    started = time.perf_counter()
    corpus, queries, judgments = make_order_noise_corpus(seed=0)
    _, _, test_q, test_j = split_by_wave(queries, judgments, test_wave=1)
    model = ImportanceModel(np.array([1.0, 0, 0, 0, 0, 0]))
    table = build_identifiers(corpus, model, n_min=3, n_max=6)
    index = build_index(table)
    scorer = FeatureScorer.zeros(index, build_term_weights(index, corpus, model))
    scorer.weights[0] = 4.0  # same scorer for both modes
    rep = ablate_identifier_scheme(index, scorer, test_q, test_j, beam_size=10, cutoffs=(10,))
    assert rep.term_set.mrr[10] >= rep.sequence.mrr[10]
    assert rep.term_set.recall[10] >= rep.sequence.recall[10]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        "criterion 06 PASS ablation: term-set MRR@10 "
        f"{rep.term_set.mrr[10]:.3f} >= sequence {rep.sequence.mrr[10]:.3f}, "
        f"Recall@10 {rep.term_set.recall[10]:.3f} >= {rep.sequence.recall[10]:.3f} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_07_likelihood_adapted_learning():
    """Adaptive T=2 at least matches non-adaptive T=1; objective non-decreasing."""
    corpus, queries, judgments = make_bridging_corpus(seed=4)
    train_q, train_j, _, _ = split_by_wave(queries, judgments, test_wave=1)
    pairs = sample_negatives(train_q, train_j, corpus, m=4, seed=7)
    model = train_importance(pairs, corpus, epochs=150, lr=0.05, seed=0)
    table = build_identifiers(corpus, model, n_min=2, n_max=8)
    index = build_index(table)
    term_weights = build_term_weights(index, corpus, model)
    dataset = make_dataset(train_q, train_j, val_fraction=0.25, seed=1)

    adaptive, a_stats = run_training(
        dataset, index, TrainingConfig(iterations=2, epochs=8, lr=0.5, seed=5),
        initial_scorer=FeatureScorer.zeros(index, term_weights),
    )
    baseline, _ = run_training(
        dataset, index, TrainingConfig(iterations=1, epochs=8, lr=0.5, seed=5),
        initial_scorer=FeatureScorer.zeros(index, term_weights),
    )
    a_recall = validation_recall(adaptive, index, dataset.validation, beam_size=10)
    b_recall = validation_recall(baseline, index, dataset.validation, beam_size=10)
    assert a_recall >= b_recall
    assert len(a_stats) >= 2
    assert a_stats[1].mean_objective_logprob >= a_stats[0].mean_objective_logprob
    report(
        "criterion 07 PASS adaptive learning: val Recall@10 "
        f"{a_recall:.3f} >= {b_recall:.3f}, objective "
        f"{a_stats[0].mean_objective_logprob:.3f} -> {a_stats[1].mean_objective_logprob:.3f}"
    )


def test_criterion_08_metrics_golden_file():
    """Hand-computed five-query fixture reproduced exactly."""
    lines = []

    def add(qid, docs):
        for rank, doc in enumerate(docs, start=1):
            lines.append(f"{qid} Q0 {doc} {rank} {-float(rank):.6f} golden")

    add("g1", ["da", "db", "dc"])
    add("g2", ["da", "db"])
    add("g3", ["dc", "da", "db"])
    add("g4", [f"f{i:02d}" for i in range(10)] + ["da"])
    add("g5", ["db", "dc", "da", "dd"])
    from termset_retrieval.corpus import Judgments

    judgments = Judgments.from_pairs(
        [("g1", "da"), ("g2", "db"), ("g3", "dc"), ("g3", "dd"), ("g4", "da"), ("g5", "dd")]
    )
    rep = evaluate_run(lines, judgments, cutoffs=(1, 10, 100))
    assert rep.mrr[10] == (1.0 + 0.5 + 1.0 + 0.0 + 0.25) / 5 == 0.55
    assert rep.mrr[100] == (1.0 + 0.5 + 1.0 + 1 / 11 + 0.25) / 5
    assert rep.recall[1] == (1.0 + 0.0 + 0.5 + 0.0 + 0.0) / 5 == 0.3
    assert rep.recall[10] == (1.0 + 1.0 + 0.5 + 0.0 + 1.0) / 5 == 0.7
    assert rep.recall[100] == (1.0 + 1.0 + 0.5 + 1.0 + 1.0) / 5 == 0.9
    report("criterion 08 PASS metrics golden file: MRR@{10,100}, Recall@{1,10,100} exact")


def test_criterion_09_seen_unseen_protocol():
    """No training exposure of unseen documents; three-column report emitted."""
    corpus, queries, judgments = make_bridging_corpus(seed=6)
    train_q, train_j, test_q, test_j = split_by_wave(queries, judgments, test_wave=1)
    split = seen_unseen_split(corpus, train_j, fraction=0.5, seed=0)
    assert len(split.seen_doc_ids) == len(split.unseen_doc_ids) == len(corpus) // 2

    # leakage proof: surviving training queries never touch unseen docs
    for qid in split.train_query_ids:
        assert not train_j.relevant(qid) & split.unseen_doc_ids
    filtered_train_q = [q for q in train_q if q.query_id in split.train_query_ids]
    filtered_train_j = train_j.restricted_to(split.train_query_ids)

    pairs = sample_negatives(filtered_train_q, filtered_train_j, corpus, m=4, seed=7)
    model = train_importance(pairs, corpus, epochs=150, lr=0.05, seed=0)
    table = build_identifiers(corpus, model, n_min=2, n_max=8)
    index = build_index(table)
    dataset = make_dataset(filtered_train_q, filtered_train_j, val_fraction=0.2, seed=1)
    scorer, _ = run_training(
        dataset, index, TrainingConfig(iterations=1, epochs=8, lr=0.5, seed=0),
        initial_scorer=FeatureScorer.zeros(index, build_term_weights(index, corpus, model)),
    )
    run = {q.query_id: search(q, index, scorer, beam_size=10).doc_ids() for q in test_q}
    rep = evaluate_seen_unseen(run, test_j, split, cutoffs=(10,))
    assert rep.seen.num_queries > 0 and rep.unseen.num_queries > 0
    assert rep.combined.num_queries == rep.seen.num_queries + rep.unseen.num_queries
    table_text = rep.format_table()
    for column in ("Seen", "Unseen", "Seen+Unseen"):
        assert column in table_text
    report(
        "criterion 09 PASS seen/unseen: zero leakage, report columns Seen "
        f"({rep.seen.num_queries}q) / Unseen ({rep.unseen.num_queries}q) / Seen+Unseen "
        f"({rep.combined.num_queries}q)"
    )


def test_criterion_10_efficiency_property():
    """Posting-list feasible sets >=5x faster than registry scan; latency grows with beam."""
    table = make_random_identifiers(10_000, 2000, 6, seed=1)
    index = build_index(table)
    bench = benchmark_feasible_speedup(index, num_prefixes=300, seed=0)
    assert bench.speedup >= 5.0

    scorer = random_feature_scorer(index, seed=5)
    queries = make_random_queries(table, 8, seed=2)
    rep = efficiency_report(index, scorer, queries, beam_sizes=(10, 100))
    assert [row.beam_size for row in rep.rows] == [10, 100]
    assert rep.rows[1].mean_latency_s > rep.rows[0].mean_latency_s
    assert rep.memory_mb > 0
    table_text = rep.format_table()
    assert "Memory" in table_text and "beam size" in table_text
    report(
        f"criterion 10 PASS efficiency: feasible-set speedup {bench.speedup:.1f}x (>=5x), "
        f"latency bs=100 {rep.rows[1].mean_latency_s*1000:.1f}ms > "
        f"bs=10 {rep.rows[0].mean_latency_s*1000:.1f}ms at 10k docs"
    )


def test_criterion_11_determinism(tmp_path):
    """Every seeded pipeline stage re-run from its manifest is byte-identical."""
    data = Path(__file__).resolve().parent.parent / "src" / "termset_retrieval" / "data"

    def invoke(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    invoke("build-terms", "--corpus", data / "toy_corpus.jsonl",
           "--queries", data / "toy_queries.jsonl", "--qrels", data / "toy_qrels.tsv",
           "--output-dir", tmp_path / "terms", "--n-min", "2", "--n-max", "8", "--seed", "7")
    invoke("build-index", "--identifiers", tmp_path / "terms/identifiers.tsv",
           "--output", tmp_path / "index.txt")
    invoke("train", "--corpus", data / "toy_corpus.jsonl",
           "--queries", data / "toy_queries.jsonl", "--qrels", data / "toy_qrels.tsv",
           "--index", tmp_path / "index.txt", "--model", tmp_path / "terms/importance.model",
           "--output-dir", tmp_path / "train", "--seed", "7")
    invoke("search", "--index", tmp_path / "index.txt",
           "--scorer", tmp_path / "train/scorer.txt",
           "--queries", data / "toy_queries.jsonl", "--output", tmp_path / "run.txt",
           "--beam", "10")
    invoke("evaluate", "--run", tmp_path / "run.txt", "--qrels", data / "toy_qrels.tsv",
           "--output-dir", tmp_path / "eval")

    manifests = [
        tmp_path / "terms" / "build-terms.manifest.json",
        tmp_path / "index.txt.manifest.json",
        tmp_path / "train" / "train.manifest.json",
        tmp_path / "run.txt.manifest.json",
        tmp_path / "eval" / "evaluate.manifest.json",
    ]
    stages = 0
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
        assert rerun_from_manifest(manifest_path) == 0
        for p, content in before.items():
            assert Path(p).read_bytes() == content, f"{manifest['command']}: {p} changed"
        stages += 1
    report(f"criterion 11 PASS determinism: {stages} pipeline stages byte-identical on rerun")
