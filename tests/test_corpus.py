"""Corpus ingestion, tokenization, and negative sampling."""

import json
from unittest import mock

import numpy as np
import pytest

from termset_retrieval import corpus as corpus_module
from termset_retrieval.corpus import (
    Corpus,
    Document,
    Judgments,
    Query,
    ingest_corpus,
    load_corpus,
    load_judgments,
    load_queries,
    sample_negatives,
    tokenize,
)
from termset_retrieval.decoder import format_run_lines
from termset_retrieval.errors import DataError
from termset_retrieval.importance import _corpus_rows


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Who cooks for the President?") == [
            "who", "cooks", "for", "the", "president",
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_dash_is_punctuation(self):
        assert tokenize("Cristeta Comerford — Executive Chef") == [
            "cristeta", "comerford", "executive", "chef",
        ]

    def test_digits_kept_underscore_splits(self):
        assert tokenize("route_66 b2b") == ["route", "66", "b2b"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcXYZ012 .,;!?—'\"-_éß中")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestIngest:
    def records(self):
        return [
            {"doc_id": "D1", "title": "Alpha", "body": "alpha beta"},
            {"doc_id": "D2", "title": "Beta", "body": "beta gamma"},
            {"doc_id": "D3", "title": "Gamma", "body": "gamma alpha beta"},
        ]

    def test_builds_corpus_with_df(self):
        corpus = ingest_corpus(self.records())
        assert len(corpus) == 3
        assert corpus.df == {"alpha": 2, "beta": 3, "gamma": 2}

    def test_duplicate_doc_id(self):
        records = self.records() + [{"doc_id": "D1", "title": "x", "body": "y"}]
        with pytest.raises(DataError, match="duplicate doc_id D1"):
            ingest_corpus(records)

    def test_missing_field_reports_line(self):
        records = self.records()
        del records[1]["body"]
        with pytest.raises(DataError, match="line 2"):
            ingest_corpus(records)

    def test_untokenizable_document_rejected(self):
        with pytest.raises(DataError, match="no terms"):
            ingest_corpus([{"doc_id": "D1", "title": "...", "body": "!!!"}])

    def test_title_terms_come_first(self):
        corpus = ingest_corpus(self.records())
        assert corpus["D3"].terms == ["gamma", "gamma", "alpha", "beta"]

    def test_title_is_tokenized_once_per_document(self, monkeypatch):
        """`from_text` keeps the title's terms; featurizing the corpus tokenizes nothing again."""
        tokens = mock.Mock(side_effect=tokenize)
        monkeypatch.setattr(corpus_module, "tokenize", tokens)
        corpus = ingest_corpus(self.records())
        _corpus_rows(corpus)
        assert tokens.call_count == 2 * len(corpus)  # each title and each body, at ingestion
        want = [frozenset(tokenize(record["title"])) for record in self.records()]
        assert [doc.title_terms for doc in corpus.documents] == want

    def test_df_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(40)]
        records = []
        for d in range(60):
            words = [vocab[i] for i in rng.integers(0, 40, size=rng.integers(3, 15))]
            records.append({"doc_id": f"D{d}", "title": words[0], "body": " ".join(words[1:])})
        corpus = ingest_corpus(records)
        for term in vocab:
            expected = sum(1 for doc in corpus.documents if term in doc.terms)
            assert corpus.df.get(term, 0) == expected


class TestFileLoading:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"doc_id": f"D{i}", "title": f"t{i}", "body": "some words"})
                for i in range(3)
            ),
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert corpus.doc_ids == ["D0", "D1", "D2"]

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "D1", "title": "t", "body": "b"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_queries(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query_id": "q1", "text": "Hello, world"}\n', encoding="utf-8")
        queries = load_queries(path)
        assert queries[0].terms == ["hello", "world"]

    def test_judgments_tsv(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tD1\t1\nq1\tD2\t2\nq2\tD2\t1\n", encoding="utf-8")
        judgments = load_judgments(path)
        assert judgments.relevant("q1") == {"D1", "D2"}
        assert judgments.grade("q1", "D2") == 2

    def test_judgments_unknown_doc(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tNOPE\t1\n", encoding="utf-8")
        corpus = ingest_corpus([{"doc_id": "D1", "title": "t", "body": "b"}])
        with pytest.raises(DataError, match="unknown doc_id NOPE"):
            load_judgments(path, corpus)

    def test_judgments_bad_relevance(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tD1\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="relevance must be >= 1"):
            load_judgments(path)

    @pytest.mark.parametrize(
        "read, name, text, where",
        [
            (load_corpus, "c.jsonl", '{"doc_id": "D1", "title": "t", "body": "b"}\n\n{oops\n',
             "c.jsonl:3: malformed record at line 3"),
            (load_corpus, "c.jsonl", '\n["D1"]\n',
             "c.jsonl:2: malformed record at line 2: expected"),
            (load_corpus, "c.jsonl", '\n\n{"doc_id": "D1", "title": "t"}\n',
             "c.jsonl:3: malformed record at line 3: missing field(s) body"),
            (load_corpus, "c.jsonl", '{"doc_id": "D1", "title": "t", "body": "b"}\n'
             '{"doc_id": "D1", "title": "t", "body": "b"}\n', "c.jsonl:2: duplicate doc_id D1"),
            (load_corpus, "c.jsonl", '{"doc_id": "D 1", "title": "t", "body": "b"}\n',
             "c.jsonl:1: malformed record at line 1: doc_id"),
            (load_corpus, "c.jsonl", '{"doc_id": "D1", "title": "", "body": "!"}\n',
             "c.jsonl:1: document D1 has no terms"),
            (load_queries, "q.jsonl", '\n{"query_id": "q1"}\n',
             "q.jsonl:2: malformed record at line 2: missing field(s) text"),
            (load_queries, "q.jsonl", '7\n',
             "q.jsonl:1: malformed record at line 1: expected object"),
            (load_queries, "q.jsonl",
             '{"query_id": "q1", "text": "a"}\n{"query_id": "q1", "text": "b"}\n',
             "q.jsonl:2: duplicate query_id q1"),
            (load_judgments, "qrels.tsv", "q1\tD1\t1\n\nq1\tD2\n",
             "qrels.tsv:3: malformed judgment at line 3: expected 3"),
            (load_judgments, "qrels.tsv", "q1\tD1\tx\n",
             "qrels.tsv:1: malformed judgment at line 1: relevance"),
        ],
        ids=["corpus-json", "corpus-not-object", "corpus-missing-field", "corpus-duplicate",
             "corpus-doc-id", "corpus-no-terms", "queries-missing-field", "queries-not-object",
             "queries-duplicate", "qrels-fields", "qrels-relevance"],
    )
    def test_errors_name_the_file_and_line(self, tmp_path, read, name, text, where):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            read(path)
        assert str(exc.value).startswith(f"{tmp_path / where}")

    @pytest.mark.parametrize("space", ["\xa0", "\x1c", "\u3000"], ids=["nbsp", "fs", "ideographic"])
    def test_ids_holding_unicode_whitespace_are_refused(self, tmp_path, space):
        name = f"a{space}b"
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": name, "title": "t", "body": "b"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_corpus(path)
        assert str(exc.value) == (f"{path}:1: malformed record at line 1: doc_id must be "
                                  "nonempty and free of whitespace and commas")
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps({"query_id": name, "text": "a"}) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_queries(path)
        assert str(exc.value) == (f"{path}:1: malformed record at line 1: query_id must be "
                                  "nonempty and free of whitespace")
        with pytest.raises(DataError) as exc:
            format_run_lines([], tag=name)
        assert str(exc.value) == f"run tag {name!r} must be non-empty, without whitespace"


def _three_doc_setup():
    corpus = ingest_corpus(
        [
            {"doc_id": "D1", "title": "one", "body": "alpha"},
            {"doc_id": "D2", "title": "two", "body": "beta"},
            {"doc_id": "D3", "title": "three", "body": "gamma"},
        ]
    )
    queries = [Query.from_text("q1", "gamma")]
    judgments = Judgments.from_pairs([("q1", "D3")])
    return corpus, queries, judgments


def oracle_sample_negatives(queries, judgments, corpus, m, seed):
    """The per-query scan of the whole corpus that `sample_negatives` replaced."""
    by_id = {q.query_id: q for q in queries}
    all_docs = sorted(corpus.doc_ids)
    rng = np.random.default_rng(seed)
    pairs = []
    for qid in judgments.query_ids:
        relevant = judgments.relevant(qid)
        pool = [d for d in all_docs if d not in relevant]
        for positive in sorted(relevant):
            picks = rng.choice(len(pool), size=m, replace=False)
            pairs.append((by_id[qid].query_id, positive, [pool[i] for i in picks]))
    return pairs


class TestSampleNegatives:
    def test_equals_the_corpus_scan(self):
        """The same draws as scanning the corpus per query; relevant ids need not be documents."""
        rng = np.random.default_rng(5)
        for trial in range(20):
            num_docs = int(rng.integers(4, 40))
            ids = [f"D{i}" for i in rng.permutation(num_docs)]  # not in sorted order
            corpus = ingest_corpus([{"doc_id": d, "title": "t", "body": "b"} for d in ids])
            queries = [Query.from_text(f"q{i}", "b") for i in range(6)]
            pairs = []
            for q in queries:
                size = int(rng.integers(1, 4))
                picks = rng.choice(num_docs + 3, size, replace=False)
                pairs += [(q.query_id, f"D{j}") for j in picks]
            judgments = Judgments.from_pairs(pairs)
            m = int(rng.integers(1, num_docs - 3))
            got = sample_negatives(queries, judgments, corpus, m=m, seed=trial)
            want = oracle_sample_negatives(queries, judgments, corpus, m, trial)
            assert [(p.query.query_id, p.positive, p.negatives) for p in got] == want

    @pytest.mark.parametrize("num_docs", [2, 50, 700])
    def test_equals_the_pool_at_several_sizes(self, num_docs):
        """Dense and sparse relevant sets, the first and last ids among them, m up to the pool."""
        records = [{"doc_id": f"D{i:04d}", "title": "t", "body": "b"} for i in range(num_docs)]
        corpus = ingest_corpus(records)
        for seed in range(4):
            rng = np.random.default_rng([num_docs, seed])
            queries = [Query.from_text(f"q{i}", "b") for i in range(5)]
            pairs = [("q0", "D0000"), ("q1", f"D{num_docs - 1:04d}"), ("q2", "X")]
            for q in queries[3:]:
                held = rng.choice(num_docs, int(rng.integers(1, num_docs)), replace=False)
                pairs += [(q.query_id, f"D{j:04d}") for j in held]
            judgments = Judgments.from_pairs(pairs)
            pool = num_docs - max(len(judgments.relevant(q.query_id)) for q in queries)
            m = pool if seed == 0 else int(rng.integers(1, pool + 1))
            got = sample_negatives(queries, judgments, corpus, m=m, seed=seed)
            want = oracle_sample_negatives(queries, judgments, corpus, m, seed)
            assert [(p.query.query_id, p.positive, p.negatives) for p in got] == want

    def test_only_possible_set(self):
        corpus, queries, judgments = _three_doc_setup()
        pairs = sample_negatives(queries, judgments, corpus, m=2, seed=7)
        assert len(pairs) == 1
        assert pairs[0].positive == "D3"
        assert sorted(pairs[0].negatives) == ["D1", "D2"]

    def test_infeasible_m(self):
        corpus, queries, judgments = _three_doc_setup()
        with pytest.raises(DataError, match="only 2 non-relevant"):
            sample_negatives(queries, judgments, corpus, m=3, seed=7)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(10)
        records = [
            {"doc_id": f"D{i}", "title": f"t{i}", "body": f"w{rng.integers(5)}"} for i in range(30)
        ]
        corpus = ingest_corpus(records)
        queries = [Query.from_text(f"q{i}", f"w{i % 5}") for i in range(8)]
        judgments = Judgments.from_pairs([(f"q{i}", f"D{i}") for i in range(8)])
        first = sample_negatives(queries, judgments, corpus, m=5, seed=123)
        second = sample_negatives(queries, judgments, corpus, m=5, seed=123)
        assert [(p.query.query_id, p.positive, p.negatives) for p in first] == [
            (p.query.query_id, p.positive, p.negatives) for p in second
        ]
        third = sample_negatives(queries, judgments, corpus, m=5, seed=124)
        assert [p.negatives for p in first] != [p.negatives for p in third]

    def test_never_relevant_and_exact_m(self):
        rng = np.random.default_rng(2)
        records = [{"doc_id": f"D{i}", "title": "t", "body": "body words"} for i in range(25)]
        corpus = ingest_corpus(records)
        queries = [Query.from_text(f"q{i}", "body") for i in range(6)]
        judgments = Judgments.from_pairs(
            [(f"q{i}", f"D{j}") for i in range(6) for j in rng.choice(25, size=3, replace=False)]
        )
        for seed in range(5):
            for pair in sample_negatives(queries, judgments, corpus, m=4, seed=seed):
                relevant = judgments.relevant(pair.query.query_id)
                assert len(pair.negatives) == 4
                assert len(set(pair.negatives)) == 4
                assert not relevant.intersection(pair.negatives)
                assert pair.positive in relevant
