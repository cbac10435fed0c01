"""Term importance: features, InfoNCE training, identifier selection."""

import contextlib
import io
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval import importance
from termset_retrieval.corpus import (
    Corpus,
    Document,
    Query,
    TrainingPair,
    ingest_corpus,
    sample_negatives,
)
from termset_retrieval.cli import main
from termset_retrieval.errors import DataError, InvariantError, parse_values, read_lines
from termset_retrieval.importance import (
    PLACEHOLDER_MARK,
    TFIDF_FEATURES,
    IdentifierTable,
    ImportanceModel,
    build_identifiers,
    infonce_loss_and_grad,
    is_placeholder,
    load_model,
    prepare_training_batch,
    read_identifier_file,
    save_model,
    score_terms,
    train_importance,
    write_identifier_file,
)
from termset_retrieval.index import build_index
from termset_retrieval.scorer import build_term_weights
from termset_retrieval.synthetic import make_bridging_corpus, make_random_identifiers

from conftest import central_difference, file_mutations, max_relative_error, outcome


def small_corpus():
    return ingest_corpus(
        [
            {"doc_id": "D1", "title": "espresso machines", "body": "steam pressure espresso"},
            {"doc_id": "D2", "title": "garden soil", "body": "compost loam worms soil"},
            {"doc_id": "D3", "title": "espresso grinder", "body": "burr grinder settings"},
        ]
    )


def oracle_features(terms, title_terms, stats) -> dict[str, np.ndarray]:
    """The per-term featurizer the feature matrix replaced: one array per distinct term."""
    length = max(len(terms), 1)
    counts = Counter(terms)
    first: dict[str, int] = {}
    for pos, term in enumerate(terms):
        first.setdefault(term, pos)
    out: dict[str, np.ndarray] = {}
    for term, count in counts.items():
        idf = math.log(stats.num_docs / max(stats.df.get(term, 1), 1))
        out[term] = np.array([count / length, idf, 1.0 if term in title_terms else 0.0,
                              first[term] / length, len(term) / 10.0, 1.0])
    return out


def python_weight(features, weights) -> float:
    """clamp(features . weights) as a Python sum of rounded products, left to right."""
    z = float(features[0]) * float(weights[0])
    for f, w in zip(features[1:], weights[1:]):
        z = z + float(f) * float(w)
    return z if z > 0.0 else 0.0


def oracle_score_terms(weights, document, stats) -> dict[str, float]:
    feats = oracle_features(document.terms, document.title_terms, stats)
    return {t: python_weight(f, weights) for t, f in feats.items()}


def ranked_terms(document: Document, weights: dict[str, float]) -> list[str]:
    """All distinct terms, best first: weight desc, then first occurrence, then text."""
    first: dict[str, int] = {}
    for pos, term in enumerate(document.terms):
        first.setdefault(term, pos)
    return sorted(first, key=lambda t: (-weights.get(t, 0.0), first[t], t))


def select_identifier(document: Document, weights: dict[str, float], n: int) -> list[str]:
    """Top-n distinct terms by weight, padded with synthetic terms when short."""
    selected = ranked_terms(document, weights)[:n]
    pad = [f"{PLACEHOLDER_MARK}{document.doc_id}:{k}" for k in range(n - len(selected))]
    return selected + pad


def resolve_collisions(identifiers, ranked, n: int) -> IdentifierTable:
    """The frozenset collision repair the int-row rounds replaced.

    Within each group sharing the same term set, the smallest doc_id keeps
    its identifier; every other member drops its worst-ranked term for its
    next-ranked never-used term (a unique synthetic term once exhausted).
    """
    current = {d: list(terms) for d, terms in identifiers.items()}
    cursor = {d: n for d in current}
    placeholder_next = {d: sum(map(is_placeholder, terms)) for d, terms in current.items()}

    def reorder(doc_id, terms):
        pos = {t: i for i, t in enumerate(ranked[doc_id])}
        real = sorted((t for t in terms if not is_placeholder(t)), key=lambda t: pos[t])
        return real + sorted(t for t in terms if is_placeholder(t))

    while True:
        groups: dict[frozenset, list[str]] = {}
        for doc_id, terms in current.items():
            groups.setdefault(frozenset(terms), []).append(doc_id)
        colliding = [sorted(g) for g in groups.values() if len(g) > 1]
        if not colliding:
            return IdentifierTable(n, current)
        for group in sorted(colliding):
            for doc_id in group[1:]:
                ranks = ranked[doc_id]
                if cursor[doc_id] < len(ranks):
                    replacement = ranks[cursor[doc_id]]
                    cursor[doc_id] += 1
                else:
                    replacement = f"{PLACEHOLDER_MARK}{doc_id}:{placeholder_next[doc_id]}"
                    placeholder_next[doc_id] += 1
                current[doc_id] = reorder(doc_id, current[doc_id][:-1] + [replacement])


def oracle_build_identifiers(corpus, weights, n_min, n_max) -> IdentifierTable:
    """The per-document identifier scan, on `oracle_score_terms` weights."""
    scores = {d.doc_id: oracle_score_terms(weights, d, corpus.stats) for d in corpus.documents}
    ranked = {d.doc_id: ranked_terms(d, scores[d.doc_id]) for d in corpus.documents}
    best = None
    for n in range(n_min, n_max + 1):
        identifiers = {d.doc_id: select_identifier(d, scores[d.doc_id], n)
                       for d in corpus.documents}
        table = resolve_collisions(identifiers, ranked, n)
        if table.num_placeholders == 0:
            return table
        if best is None or table.num_placeholders < best.num_placeholders:
            best = table
    return best


def oracle_batch(pairs, corpus):
    """The per-pair stacking of shared-term features that `prepare_training_batch` replaced."""
    stats = corpus.stats
    query_feats, doc_feats, cand, first = [], [], [], [0]
    for pair in pairs:
        qf = oracle_features(pair.query.terms, set(), stats)
        candidates = [pair.positive] + list(pair.negatives)
        for c, doc_id in enumerate(candidates, start=first[-1]):
            doc = corpus[doc_id]
            df = oracle_features(doc.terms, doc.title_terms, stats)
            shared = sorted(set(qf) & set(df))
            query_feats += [qf[t] for t in shared]
            doc_feats += [df[t] for t in shared]
            cand += [c] * len(shared)
        first.append(first[-1] + len(candidates))
    dim = len(TFIDF_FEATURES)
    return (np.array(query_feats).reshape(-1, dim), np.array(doc_feats).reshape(-1, dim),
            np.array(cand, dtype=np.int64), np.array(first, dtype=np.int64))


def feature_rows(corpus, doc_id) -> dict[str, np.ndarray]:
    """The rows of the corpus feature matrix that belong to `doc_id`, by term."""
    rows = importance._corpus_rows(corpus)
    d = corpus.doc_ids.index(doc_id)
    span = range(rows.start[d], rows.start[d + 1])
    return {rows.terms[rows.term[i]]: rows.features[i] for i in span}


class TestFeaturize:
    def test_title_first_word(self):
        corpus = small_corpus()
        vec = feature_rows(corpus, "D1")["espresso"]
        assert vec[TFIDF_FEATURES.index("in_title")] == 1.0
        assert vec[TFIDF_FEATURES.index("first_pos")] == 0.0

    def test_idf_zero_when_everywhere(self):
        corpus = ingest_corpus(
            [{"doc_id": f"D{i}", "title": "common", "body": "common stuff"} for i in range(4)]
        )
        vec = feature_rows(corpus, "D0")["common"]
        assert vec[TFIDF_FEATURES.index("idf")] == 0.0

    def test_fixed_length(self):
        corpus = small_corpus()
        rows = importance._corpus_rows(corpus)
        assert rows.features.shape == (sum(len(set(d.terms)) for d in corpus.documents), 6)
        for doc in corpus.documents:
            assert sorted(feature_rows(corpus, doc.doc_id)) == sorted(set(doc.terms))

    def test_absent_term_rejected(self):
        # a term the document does not hold has no row, and so no weight
        corpus = small_corpus()
        assert "missing" not in feature_rows(corpus, "D1")
        assert "soil" not in score_terms(ImportanceModel.zeros(), corpus["D1"], corpus.stats)


def one_pair_batch(m=4):
    """Query and docs share no terms at all: every matching score is 0."""
    docs = [{"doc_id": f"D{i}", "title": f"t{i}", "body": f"w{i} x{i}"} for i in range(m + 1)]
    corpus = ingest_corpus(docs)
    query = Query.from_text("q", "unrelated words")
    pair = TrainingPair(query, "D0", [f"D{i}" for i in range(1, m + 1)])
    return prepare_training_batch([pair], corpus)


class TestInfoNCE:
    def test_zero_weights_loss_is_ln_candidates(self):
        batch = one_pair_batch(m=4)
        loss, _ = infonce_loss_and_grad(np.zeros(6), batch, tau=1.0)
        assert abs(loss - math.log(5)) < 1e-12

    def test_zero_loss_holds_with_shared_terms_too(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=8, seed=1)
        pair = TrainingPair(queries[0], "D000", ["D001", "D002", "D003", "D004"])
        batch = prepare_training_batch([pair], corpus)
        loss, _ = infonce_loss_and_grad(np.zeros(6), batch, tau=1.0)
        assert abs(loss - math.log(5)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=10, seed=2)
        pairs = [
            TrainingPair(q, sorted(judgments.relevant(q.query_id))[0],
                         sorted(set(corpus.doc_ids) - judgments.relevant(q.query_id))[:4])
            for q in queries[:6]
        ]
        batch = prepare_training_batch(pairs, corpus)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(0.05, 1.0, size=6) * rng.choice([-1, 1], size=6)
            _, analytic = infonce_loss_and_grad(w, batch, tau=1.0)
            numeric = central_difference(lambda x: infonce_loss_and_grad(x, batch, 1.0)[0], w)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_loss_non_increasing_on_bridging_corpus(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=15, seed=3)
        pairs = [
            TrainingPair(q, sorted(judgments.relevant(q.query_id))[0],
                         sorted(set(corpus.doc_ids) - judgments.relevant(q.query_id))[:4])
            for q in queries
        ]
        batch = prepare_training_batch(pairs, corpus)
        w = np.random.default_rng(0).uniform(0.001, 0.01, size=6)
        losses = []
        for _ in range(150):
            loss, grad = infonce_loss_and_grad(w, batch, tau=1.0)
            losses.append(loss)
            w = w - 0.02 * grad
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))
        assert losses[-1] < losses[0]

    def test_bridging_terms_outweigh_fillers(self):
        from termset_retrieval.corpus import sample_negatives

        corpus, queries, judgments = make_bridging_corpus(seed=0)
        pairs = sample_negatives(queries, judgments, corpus, m=4, seed=7)
        model = train_importance(pairs, corpus, tau=1.0, epochs=200, lr=0.05, seed=0)
        bridge, filler = [], []
        for doc in corpus.documents:
            for term, weight in score_terms(model, doc, corpus.stats).items():
                (bridge if term.startswith("bridge") else filler).append(weight)
        assert np.mean(bridge) >= 2 * np.mean(filler)

    def test_bad_temperature(self):
        with pytest.raises(DataError, match="temperature"):
            infonce_loss_and_grad(np.zeros(6), one_pair_batch(), tau=0.0)

    def test_determinism(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=8, seed=4)
        pairs = [
            TrainingPair(q, sorted(judgments.relevant(q.query_id))[0],
                         sorted(set(corpus.doc_ids) - judgments.relevant(q.query_id))[:3])
            for q in queries[:5]
        ]
        a = train_importance(pairs, corpus, epochs=30, lr=0.05, seed=9)
        b = train_importance(pairs, corpus, epochs=30, lr=0.05, seed=9)
        assert np.array_equal(a.weights, b.weights)


def per_pair_loss_and_grad(weights, pairs, corpus, tau):
    """The per-pair, per-candidate InfoNCE loop the stacked batch replaced."""
    stats, dim = corpus.stats, len(TFIDF_FEATURES)
    total_loss, total_grad = 0.0, np.zeros_like(weights)
    for pair in pairs:
        qf = oracle_features(pair.query.terms, set(), stats)
        scores, score_grads = [], []
        for doc_id in [pair.positive] + list(pair.negatives):
            doc = corpus[doc_id]
            df = oracle_features(doc.terms, doc.title_terms, stats)
            shared = sorted(set(qf) & set(df))
            fq = np.array([qf[t] for t in shared]).reshape(-1, dim)
            fd = np.array([df[t] for t in shared]).reshape(-1, dim)
            zq, zd = fq @ weights, fd @ weights
            wq, wd = np.maximum(zq, 0.0), np.maximum(zd, 0.0)
            scores.append(wq @ wd)
            score_grads.append(((zq > 0) * wd) @ fq + ((zd > 0) * wq) @ fd)
        shifted = np.array(scores) / tau
        shifted -= shifted.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        total_loss += -math.log(probs[0])
        dscore = probs.copy()
        dscore[0] -= 1.0
        for c, grad in enumerate(score_grads):
            total_grad += (dscore[c] / tau) * grad
    return total_loss / len(pairs), total_grad / len(pairs)


class TestStackedInfoNCE:
    def random_pairs(self, seed):
        corpus, queries, judgments = make_bridging_corpus(num_docs=12, seed=seed)
        pairs = sample_negatives(queries, judgments, corpus, m=4, seed=seed)
        # a query that shares no term with any document: every score is 0
        pairs.append(TrainingPair(Query.from_text("qx", "nothing shared"), "D000", ["D001"]))
        return corpus, pairs

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_pair_loop(self, seed):
        corpus, pairs = self.random_pairs(seed)
        batch = prepare_training_batch(pairs, corpus)
        rng = np.random.default_rng(seed)
        for tau in (0.5, 1.0, 3.0):
            w = rng.uniform(0.05, 1.0, size=6) * rng.choice([-1, 1], size=6)
            loss, grad = infonce_loss_and_grad(w, batch, tau)
            want_loss, want_grad = per_pair_loss_and_grad(w, pairs, corpus, tau)
            assert abs(loss - want_loss) <= 1e-12 * max(abs(want_loss), 1.0)
            assert np.abs(grad - want_grad).max() <= 1e-12 * max(np.abs(want_grad).max(), 1.0)

    def test_bridging_identifiers_unchanged(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=60, seed=0)
        pairs = sample_negatives(queries, judgments, corpus, m=4, seed=7)
        model = train_importance(pairs, corpus, epochs=40, lr=0.05, seed=0)
        weights = np.random.default_rng(0).uniform(0.001, 0.01, size=6)
        for _ in range(40):
            weights = weights - 0.05 * per_pair_loss_and_grad(weights, pairs, corpus, 1.0)[1]
        reference = ImportanceModel(weights)
        got = build_identifiers(corpus, model, n_min=2, n_max=8)
        want = build_identifiers(corpus, reference, n_min=2, n_max=8)
        assert got.terms_by_doc == want.terms_by_doc
        assert np.abs(model.weights - weights).max() <= 1e-12 * np.abs(weights).max()


class TestScoreTerms:
    def test_zero_model_gives_zero(self):
        corpus = small_corpus()
        weights = score_terms(ImportanceModel.zeros(), corpus["D1"], corpus.stats)
        assert set(weights.values()) == {0.0}

    def test_negative_preactivation_clamped(self):
        corpus = small_corpus()
        weights = np.full(6, -1.0)
        assert set(score_terms(ImportanceModel(weights), corpus["D1"], corpus.stats).values()) == {0.0}
        query = importance._featurize([Query.from_text("q", "espresso").terms], None, corpus.stats)
        assert (importance._term_weights(query.features, weights) == 0.0).all()

    def test_depends_only_on_frozen_stats(self):
        corpus = small_corpus()
        stats = corpus.stats
        other = ingest_corpus(
            [{"doc_id": "X", "title": "totally", "body": "different words here"}]
        )
        model = ImportanceModel(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5]))
        direct = score_terms(model, corpus["D1"], stats)
        assert build_term_weights(build_index(build_identifiers(other, model)), other, model).any()
        with_other_corpus_loaded = score_terms(model, corpus["D1"], stats)
        assert direct == with_other_corpus_loaded


def top_terms(corpus, weights, n):
    """`build_identifiers` at the one size n, under the model with these feature weights."""
    return build_identifiers(corpus, ImportanceModel(np.array(weights)), n, n).terms_by_doc


ONLY = {name: [1.0 if f == name else 0.0 for f in TFIDF_FEATURES] for name in TFIDF_FEATURES}


class TestSelectIdentifier:
    def test_top_n_by_weight(self):
        corpus = ingest_corpus([{"doc_id": "D", "title": "executive chef",
                                 "body": "the executive chef runs the white house kitchen"}])
        # weight is term length: white and house tie, and white occurs first
        assert top_terms(corpus, ONLY["term_len"], 4)["D"] == [
            "executive", "kitchen", "white", "house",
        ]

    def test_all_terms_in_importance_order(self):
        corpus = ingest_corpus([{"doc_id": "D", "title": "alpha", "body": "beta gamma"}])
        # every term weighs 1 but the title term, which weighs 0
        weights = [0.0, 0.0, -1.0, 0.0, 0.0, 1.0]
        assert top_terms(corpus, weights, 3)["D"] == ["beta", "gamma", "alpha"]

    def test_padding(self):
        corpus = ingest_corpus([{"doc_id": "D", "title": "alpha", "body": "beta"}])
        out = top_terms(corpus, ONLY["in_title"], 4)["D"]
        assert out[:2] == ["alpha", "beta"]
        assert out[2:] == ["⟂D:0", "⟂D:1"]

    def test_tie_break_first_occurrence_then_lexicographic(self):
        # a document's distinct terms never share a first position, so text never breaks a tie
        corpus = ingest_corpus([{"doc_id": "D", "title": "", "body": "zeta alpha beta"}])
        assert top_terms(corpus, ONLY["bias"], 2)["D"] == ["zeta", "alpha"]


# weight 1 - first_pos: a document's terms rank in the order they occur
IN_ORDER = [0.0, 0.0, 0.0, -1.0, 0.0, 1.0]


class TestResolveCollisions:
    def test_two_docs_sharing_top_two(self):
        corpus = ingest_corpus([{"doc_id": "A", "title": "", "body": "t1 t2 x"},
                                {"doc_id": "B", "title": "", "body": "t1 t2 y"}])
        table = top_terms(corpus, IN_ORDER, 2)
        # the smallest doc id keeps its set; the other drops its worst term for its next one
        assert table == {"A": ["t1", "t2"], "B": ["t1", "y"]}

    def test_no_collision_is_fixed_point(self):
        corpus = ingest_corpus([{"doc_id": "A", "title": "", "body": "a b"},
                                {"doc_id": "B", "title": "", "body": "c d"}])
        assert top_terms(corpus, IN_ORDER, 2) == {"A": ["a", "b"], "B": ["c", "d"]}

    def test_identical_docs_get_one_placeholder(self):
        corpus = ingest_corpus([{"doc_id": "B", "title": "", "body": "t1 t2"},
                                {"doc_id": "A", "title": "", "body": "t1 t2"}])
        table = build_identifiers(corpus, ImportanceModel(np.array(IN_ORDER)), 2, 2)
        assert table.num_placeholders == 1
        assert table.terms_by_doc["A"] == ["t1", "t2"]
        assert table.terms_by_doc["B"] == ["t1", "⟂B:0"]


WORDS = ("alpha", "beta", "b", "café", "東京", "über", "x1", "zz")


@st.composite
def term_corpora(draw):
    """A small corpus with repeated, title-only and non-ASCII terms and identical documents.

    Returns (corpus, training pairs); the pairs' queries hold terms that no
    document holds (df 0).
    """
    words = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)
    bodies = st.lists(st.sampled_from(WORDS), min_size=1, max_size=7).map(" ".join)
    records = [{"doc_id": f"D{i}", "title": title, "body": body}
               for i, (title, body) in enumerate(draw(st.lists(st.tuples(words, bodies),
                                                               min_size=1, max_size=8)))]
    for k, source in enumerate(draw(st.lists(st.sampled_from(records), max_size=3))):
        records.append({**source, "doc_id": f"C{k}"})  # an identical document
    corpus = ingest_corpus(records)
    ids = corpus.doc_ids
    query_words = st.lists(st.sampled_from(WORDS + ("unseen", "ñandú")), max_size=5)
    pairs = []
    for k in range(draw(st.integers(0, 4))):
        positive = draw(st.sampled_from(ids))
        negatives = [d for d in draw(st.lists(st.sampled_from(ids), max_size=3)) if d != positive]
        pairs.append(TrainingPair(Query.from_text(f"q{k}", " ".join(draw(query_words))),
                                  positive, negatives))
    return corpus, pairs


MODEL_WEIGHTS = st.lists(st.sampled_from([0.0, 1.0, -0.5])
                         | st.floats(-3, 3, allow_nan=False, allow_subnormal=False),
                         min_size=6, max_size=6).map(np.array)


class TestFeatureMatrix:
    """The matrix path against the per-term forms it replaced, on random corpora."""

    @settings(max_examples=100, deadline=None)
    @given(case=term_corpora(), weights=MODEL_WEIGHTS, n_min=st.integers(1, 4),
           extra=st.integers(0, 4))
    def test_equals_the_per_term_oracles(self, case, weights, n_min, extra):
        corpus, pairs = case
        stats = corpus.stats
        for doc in corpus.documents:
            want = oracle_features(doc.terms, doc.title_terms, stats)
            got = feature_rows(corpus, doc.doc_id)
            assert sorted(got) == sorted(want)
            assert all(got[t].tobytes() == want[t].tobytes() for t in want)
        queries = importance._featurize([p.query.terms for p in pairs], None, stats)
        for k, pair in enumerate(pairs):
            want = oracle_features(pair.query.terms, set(), stats)
            span = range(queries.start[k], queries.start[k + 1])
            got = {queries.terms[queries.term[i]]: queries.features[i] for i in span}
            assert {t: f.tobytes() for t, f in got.items()} == {t: f.tobytes() for t, f in want.items()}
        # weights: a Python sum of the same products, left to right, bit for bit
        rows = importance._corpus_rows(corpus)
        got = importance._term_weights(rows.features, weights)
        want = np.array([python_weight(f, weights) for f in rows.features])
        assert got.tobytes() == want.reshape(got.shape).tobytes()
        model = ImportanceModel(weights)
        for doc in corpus.documents:
            assert list(score_terms(model, doc, stats).items()) == list(
                oracle_score_terms(weights, doc, stats).items())
        # identifiers: the per-document scan with frozenset repair
        got = build_identifiers(corpus, model, n_min, n_min + extra)
        want = oracle_build_identifiers(corpus, weights, n_min, n_min + extra)
        assert (got.n, list(got.terms_by_doc.items())) == (want.n, list(want.terms_by_doc.items()))
        # term weights: the corpus maximum per dictionary term, 0 for placeholders
        index = build_index(got)
        table = np.zeros(len(index.dictionary))
        for doc in corpus.documents:
            for term, weight in oracle_score_terms(weights, doc, stats).items():
                if term in index.dictionary:
                    tid = index.dictionary.id_of(term)
                    table[tid] = max(table[tid], weight)
        assert build_term_weights(index, corpus, model).tobytes() == table.tobytes()
        # the training batch: the same rows, in the same order
        batch = prepare_training_batch(pairs, corpus)
        got = (batch.query_feats, batch.doc_feats, batch.cand, batch.first)
        for a, b in zip(got, oracle_batch(pairs, corpus)):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBuildIdentifiers:
    def test_invariants_on_random_corpora(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{i:02d}" for i in range(25)]
        for trial in range(5):
            records = []
            for d in range(40):
                words = [vocab[i] for i in rng.integers(0, 25, size=rng.integers(4, 12))]
                records.append(
                    {"doc_id": f"D{d:02d}", "title": words[0], "body": " ".join(words[1:])}
                )
            corpus = ingest_corpus(records)
            model = ImportanceModel(np.array([1.0, 1.0, 0.5, -0.2, 0.1, 0.0]))
            table = build_identifiers(corpus, model, n_min=2, n_max=10)
            IdentifierTable(table.n, table.terms_by_doc)  # constructing a table checks its rows
            seen = set()
            for doc_id, terms in table.terms_by_doc.items():
                assert len(terms) == table.n
                assert len(set(terms)) == table.n
                key = frozenset(terms)
                assert key not in seen
                seen.add(key)
                for term in terms:
                    assert is_placeholder(term) or term in corpus[doc_id].terms

    def test_scan_stops_at_smallest_clean_n(self):
        corpus = ingest_corpus(
            [
                {"doc_id": "A", "title": "", "body": "x y one"},
                {"doc_id": "B", "title": "", "body": "x y two"},
            ]
        )
        model = ImportanceModel(np.array([1.0, 0, 0, -0.1, 0, 0]))
        table = build_identifiers(corpus, model, n_min=1, n_max=6)
        assert table.num_placeholders == 0

    def test_identical_two_term_docs_resolve_without_placeholder(self):
        corpus = ingest_corpus(
            [
                {"doc_id": "A", "title": "", "body": "x y"},
                {"doc_id": "B", "title": "", "body": "x y"},
            ]
        )
        model = ImportanceModel(np.array([1.0, 0, 0, 0, 0, 0]))
        table = build_identifiers(corpus, model, n_min=1, n_max=4)
        # the scan finds the collision-free assignment {x} / {y} at n=1
        assert table.num_placeholders == 0
        assert table.n == 1

    def test_duplicate_docs_warned_via_placeholder(self):
        # single distinct term each: no n can separate them without a synthetic term
        corpus = ingest_corpus(
            [
                {"doc_id": "A", "title": "", "body": "x x"},
                {"doc_id": "B", "title": "", "body": "x"},
            ]
        )
        model = ImportanceModel(np.array([1.0, 0, 0, 0, 0, 0]))
        table = build_identifiers(corpus, model, n_min=1, n_max=4)
        assert table.num_placeholders == 1
        assert table.terms_by_doc["A"] == ["x"]
        assert table.terms_by_doc["B"] == ["⟂B:0"]

    def test_collision_table_rejects_duplicates(self):
        with pytest.raises(InvariantError, match="collision"):
            IdentifierTable(2, {"A": ["x", "y"], "B": ["y", "x"]})


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        model = ImportanceModel(np.array([0.1, -0.2, 0.3, 0.0, 1.25, -7.5]), tau=0.7)
        path = tmp_path / "imp.model"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.tau == model.tau
        save_model(loaded, tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    def test_model_bad_header(self, tmp_path):
        path = tmp_path / "imp.model"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a termset-importance"):
            load_model(path)

    def test_identifier_file_round_trip(self, tmp_path):
        # the second table's " " row is written as the line " \t ", which is not blank
        for table in (IdentifierTable(2, {"B": ["x", "y"], "A": ["x", "z"], "C,1": ["x y", "z"]}),
                      IdentifierTable(1, {"A": ["x"], " ": [" "]})):
            path = tmp_path / "ids.tsv"
            write_identifier_file(table, path)
            loaded = read_identifier_file(path)
            assert loaded.n == table.n
            assert loaded.terms_by_doc == table.terms_by_doc
            write_identifier_file(loaded, tmp_path / "again.tsv")
            assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"A": ["x"], "B\tC": ["y"]}, r"document id 'B\\tC' holds '\\t'"),
            ({"A": ["x"], "B": ["y,z"]}, r"term 'y,z' holds ','"),
            ({"A": ["x"], "B": ["y\nz"]}, r"term 'y\\nz' holds '\\n'"),
            ({"A": ["x"], "B": ["y\tz"]}, r"term 'y\\tz' holds '\\t'"),
            ({"A\r": ["x"], "B": ["y"]}, r"document id 'A\\r' holds '\\r'"),
            ({"A": ["x\u2028"], "B": ["y"]}, r"term 'x\\u2028' holds '\\u2028'"),
        ],
        ids=["doc-tab", "term-comma", "term-newline", "term-tab", "doc-return", "term-line-separator"],
    )
    def test_unreadable_id_is_refused_before_writing(self, tmp_path, rows, message):
        with pytest.raises(DataError, match=message):
            write_identifier_file(IdentifierTable(1, rows), tmp_path / "ids.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_refused_line_breaks_are_those_the_reader_splits_on(self):
        breaks = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
        assert "".join(breaks) == importance._LINE_BREAKS

    @pytest.mark.parametrize("rows, error", [("B\tx,y\nA\tx,z\n", None),
                                             ("B\tx,y\nA\ty,x\n", "3: identifier collision between B and A")],
                             ids=["good", "bad-row"])
    def test_read_encodes_once(self, tmp_path, monkeypatch, rows, error):
        path = tmp_path / "ids.tsv"
        path.write_text(f"termset-identifiers/1\t2\n{rows}", "utf-8")
        calls = []
        encode = importance._encode_identifiers
        monkeypatch.setattr(importance, "_encode_identifiers", lambda *a: calls.append(a) or encode(*a))
        if error:
            with pytest.raises(DataError, match=f"ids.tsv:{error}$"):
                read_identifier_file(path)
        else:
            assert read_identifier_file(path).doc_ids == ["A", "B"]
        assert len(calls) == 1

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "imp.model"
        save_model(ImportanceModel(np.ones(6)), path)
        path.write_text(path.read_text("utf-8").replace("tfidf/1", "embedding/1"), "utf-8")
        with pytest.raises(DataError, match="unknown feature schema 'embedding/1'"):
            load_model(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model-fuzz") / "importance.model"
    save_model(ImportanceModel(np.array([0.1, -0.2, 0.3, 0.0, 1.25, -7.5]), tau=0.7), path)
    return path


class TestModelFileFuzz:
    """A mutated importance model loads as a model, or is a DataError naming the file."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_loads_or_names_the_path(self, model_file, data):
        mutated = model_file.read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(file_mutations(mutated))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "importance.model"
            path.write_bytes(mutated)
            kind, got = outcome(load_model, path)
        if kind == "ok":
            assert got.weights.shape == (len(TFIDF_FEATURES),)
            assert np.isfinite(got.weights).all() and math.isfinite(got.tau)
        else:
            assert kind == "DataError", got
            assert got.startswith(f"{path}"), got


def oracle_read_identifier_file(path) -> IdentifierTable:
    """The identifiers reader that checked rows with frozensets, one row at a time.

    Its header checks are the current reader's: the format tag compared
    exactly, a size of at least 1 and at least one row.
    """
    lines = read_lines(path)
    header = lines[0].split("\t") if lines else [""]
    if header[0] != "termset-identifiers/1":
        raise DataError(f"{path}: not a termset-identifiers/1 file")
    if len(header) != 2:
        raise DataError(f"{path}: malformed identifier header")
    (n,) = parse_values(int, [header[1]], f"{path}:1: identifier size")
    if n < 1:
        raise DataError(f"{path}:1: identifier size must be >= 1, got {n}")
    terms_by_doc: dict[str, list[str]] = {}
    linenos: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() and "\t" not in line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: malformed identifier line")
        doc_id, terms = parts
        if doc_id in terms_by_doc:
            raise DataError(f"{path}:{lineno}: duplicate doc_id {doc_id}")
        terms_by_doc[doc_id] = terms.split(",")
        linenos[doc_id] = lineno
    if not terms_by_doc:
        raise DataError(f"{path}: empty registry")
    seen: dict[frozenset, str] = {}
    for doc_id, terms in terms_by_doc.items():
        where = f"{path}:{linenos[doc_id]}"
        if len(terms) != n:
            raise DataError(f"{where}: identifier of {doc_id} has {len(terms)} terms, want {n}")
        key = frozenset(terms)
        if len(key) != n:
            raise DataError(f"{where}: identifier of {doc_id} repeats a term")
        if key in seen:
            raise DataError(f"{where}: identifier collision between {seen[key]} and {doc_id}")
        seen[key] = doc_id
    return IdentifierTable(n, terms_by_doc)


@pytest.fixture(scope="module")
def identifiers_file(tmp_path_factory):
    """A 30-document identifiers file over 12 terms, three terms each."""
    path = tmp_path_factory.mktemp("identifiers-fuzz") / "ids.tsv"
    write_identifier_file(make_random_identifiers(30, 12, 3, seed=1), path)
    return path


@st.composite
def identifier_mutations(draw, data: bytes):
    """A `file_mutations` edit, or a term edit of one row.

    The edit replaces one term by a registry term, which may repeat a term,
    or gives the row another row's terms, reversed.
    """
    lines = data.split(b"\n")
    rows = [k for k in range(1, len(lines)) if lines[k].count(b"\t") == 1]
    if not rows or draw(st.booleans()):
        return draw(file_mutations(data))
    i, j = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    doc_id, terms = lines[i].split(b"\t")
    terms = terms.split(b",")
    if draw(st.booleans()):
        terms[draw(st.integers(0, len(terms) - 1))] = b"t%02d" % draw(st.integers(0, 11))
    else:
        terms = lines[j].split(b"\t")[1].split(b",")[::-1]
    lines[i] = doc_id + b"\t" + b",".join(terms)
    return b"\n".join(lines)


def mutate(data, draw) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        data = draw(identifier_mutations(data))
    return data


class TestIdentifierFileFuzz:
    """Mutated identifiers files: the int-matrix row check agrees with the frozenset reader."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_read_matches_the_frozenset_reader(self, identifiers_file, data):
        original = identifiers_file.read_bytes()
        mutated = mutate(original, data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ids.tsv"
            path.write_bytes(mutated)
            got = outcome(read_identifier_file, path)
            want = outcome(oracle_read_identifier_file, path)
        assert got[0] == want[0], (got[1], want[1])
        if got[0] == "ok":
            assert got[1].n == want[1].n
            assert list(got[1].terms_by_doc.items()) == list(want[1].terms_by_doc.items())
            return
        assert got[0] == "DataError"
        assert got[1].startswith(f"{path}:") and want[1].startswith(f"{path}:")
        # with several bad rows the two may name different ones; one edited row is the only bad one
        before = original.decode().splitlines()
        after = mutated.decode(errors="replace").splitlines()
        if len(before) == len(after) and sum(map(str.__ne__, before, after)) <= 1:
            assert got[1] == want[1]

    @pytest.mark.parametrize("target, source", [(4, 20), (20, 4)], ids=["later-row", "earlier-row"])
    def test_a_row_given_another_rows_set_is_named_as_before(self, identifiers_file, tmp_path,
                                                             target, source):
        lines = identifiers_file.read_text(encoding="utf-8").splitlines()
        docs = [line.split("\t")[0] for line in lines]
        terms = lines[source].split("\t")[1].split(",")
        lines[target] = f"{docs[target]}\t{','.join(reversed(terms))}"
        (tmp_path / "ids.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        first, second = sorted([target, source])  # lines[k] is line k + 1
        want = f"ids.tsv:{second + 1}: identifier collision between {docs[first]} and {docs[second]}"
        for read in (read_identifier_file, oracle_read_identifier_file):
            with pytest.raises(DataError) as exc:
                read(tmp_path / "ids.tsv")
            assert str(exc.value) == str(tmp_path / want)

    def test_several_bad_rows_name_the_first_check_that_fails(self, tmp_path):
        path = tmp_path / "ids.tsv"
        path.write_text("termset-identifiers/1\t2\nA\tx,y\nB\tx,x\nC\ty,x\nD\tz\n", "utf-8")
        # width, then repeated term, then repeated set: not the first bad line
        with pytest.raises(DataError, match=r"ids.tsv:5: identifier of D has 1 terms, want 2"):
            read_identifier_file(path)
        with pytest.raises(DataError, match=r"ids.tsv:3: identifier of B repeats a term"):
            oracle_read_identifier_file(path)
        path.write_text("termset-identifiers/1\t2\nA\tx,y\nB\ty,x\nC\tz,z\n", "utf-8")
        with pytest.raises(DataError, match=r"ids.tsv:4: identifier of C repeats a term"):
            read_identifier_file(path)
        with pytest.raises(DataError, match=r"ids.tsv:3: identifier collision between A and B"):
            oracle_read_identifier_file(path)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_mutated_identifiers_exit_0_or_2_without_traceback(self, identifiers_file, data):
        mutated = mutate(identifiers_file.read_bytes(), data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ids.tsv"
            path.write_bytes(mutated)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["build-index", "--identifiers", str(path),
                           "--output", str(Path(tmp) / "index.txt")])
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


def oracle_first_bad_row(sets: np.ndarray, num_terms: int):
    """`_first_bad_row` as it was before the row hash: one stable argsort of every row's bytes."""
    outside = ((sets[:, :1] < 0) | (sets[:, -1:] >= num_terms)).any(axis=1)
    if outside.any():
        return "range", int(outside.argmax()), -1
    repeats = (sets[:, 1:] == sets[:, :-1]).any(axis=1)
    if repeats.any():
        return "term", int(repeats.argmax()), -1
    if len(sets) < 2:
        return None
    if not sets.shape[1]:
        return "set", 1, 0
    row_bytes = np.dtype((np.void, sets.itemsize * sets.shape[1]))
    ranked = np.argsort(sets.view(row_bytes).ravel(), kind="stable")
    same = (sets[ranked[1:]] == sets[ranked[:-1]]).all(axis=1)
    if same.any():
        later, earlier = ranked[1:][same], ranked[:-1][same]
        first = later.argmin()
        return "set", int(later[first]), int(earlier[first])
    return None


@st.composite
def id_rows(draw):
    """Row-sorted term-id rows over a small vocabulary: many repeated sets, some bad ids.

    Rows are drawn from a few distinct sets; with small probabilities an id is
    repeated within its row or pushed outside [0, vocab).
    """
    vocab = draw(st.integers(1, 8))
    width = draw(st.integers(0, min(vocab, 4)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    sets = draw(st.integers(1, 6))
    pool = [sorted(draw(st.permutations(range(vocab)))[:width]) for _ in range(sets)]
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        row = list(draw(st.sampled_from(pool)))
        if row and draw(st.integers(0, 9)) == 0:
            at = draw(st.integers(0, len(row) - 1))
            row[at] = draw(st.sampled_from([-1, vocab, vocab + 3, row[at - 1]]))
        rows.append(row)
    return np.sort(np.array(rows, dtype=dtype).reshape(len(rows), width), axis=1), vocab


class TestRowHash:
    """The hashed repeated-set check returns the byte-sort oracle's (check, row, earlier)."""

    @pytest.mark.parametrize(
        "row_hash",
        [importance._row_hash, lambda sets: np.zeros(len(sets), dtype=np.uint64)],
        ids=["row-hash", "constant-hash"],
    )
    @settings(max_examples=300, deadline=None)
    @given(case=id_rows())
    def test_equals_the_byte_sort(self, row_hash, case):
        sets, vocab = case
        with mock.patch.object(importance, "_row_hash", row_hash):
            assert importance._first_bad_row(sets, vocab) == oracle_first_bad_row(sets, vocab)

    def test_distinct_sets_of_a_large_registry_do_not_collide(self):
        sets = build_index(make_random_identifiers(20000, 3000, 8, seed=3)).sets
        assert len(np.unique(importance._row_hash(sets))) == len(sets)
