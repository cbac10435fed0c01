"""Corpus ingestion: documents, queries, relevance judgments, training pairs.

File formats (all UTF-8):
  corpus   line-delimited JSON records with fields doc_id / title / body
  queries  line-delimited JSON records with fields query_id / text
  qrels    tab-separated lines "query_id<TAB>doc_id<TAB>relevance", relevance >= 1
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, line_prefix, read_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric terms, dropping punctuation.

    Deterministic and idempotent: underscores and all non-alphanumeric
    characters act as separators, digits are kept, order is preserved.
    """
    if not text:
        return []
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Document:
    doc_id: str
    title: str
    body: str
    terms: list[str] = field(default_factory=list)
    title_terms: frozenset[str] = frozenset()

    @classmethod
    def from_text(cls, doc_id: str, title: str, body: str) -> "Document":
        # Title terms come first so early-position features favor them.
        head = tokenize(title)
        return cls(doc_id, title, body, head + tokenize(body), frozenset(head))


@dataclass
class Query:
    query_id: str
    text: str
    terms: list[str] = field(default_factory=list)

    @classmethod
    def from_text(cls, query_id: str, text: str) -> "Query":
        return cls(query_id, text, tokenize(text))


@dataclass(frozen=True)
class CorpusStats:
    """Frozen collection statistics used by the term featurizer."""

    num_docs: int
    df: dict[str, int]


class Corpus:
    """Immutable collection of tokenized documents plus document-frequency stats."""

    def __init__(self, documents: list[Document]):
        self.documents = documents
        self._by_id = {d.doc_id: d for d in documents}
        df: dict[str, int] = {}
        for doc in documents:
            for term in set(doc.terms):
                df[term] = df.get(term, 0) + 1
        self.df = df

    def __len__(self):
        return len(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    @property
    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]

    @property
    def stats(self) -> CorpusStats:
        return CorpusStats(num_docs=len(self.documents), df=self.df)


def ingest_corpus(records) -> Corpus:
    """Build a Corpus from an iterable of {doc_id, title, body} dicts.

    Raises DataError on duplicate doc_ids, missing fields, or documents
    that tokenize to nothing (they could never be retrieved).
    """
    return _ingest(enumerate(records, start=1))


def _ingest(numbered, path=None) -> Corpus:
    """`ingest_corpus` of (line number, record) pairs; errors name `path:line` when given."""
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, rec in numbered:
        at = line_prefix(path, lineno)
        if not isinstance(rec, dict):
            raise DataError(f"{at}malformed record at line {lineno}: expected object")
        missing = [k for k in ("doc_id", "title", "body") if k not in rec]
        if missing:
            raise DataError(
                f"{at}malformed record at line {lineno}: missing field(s) {', '.join(missing)}"
            )
        doc_id = str(rec["doc_id"])
        if doc_id in seen:
            raise DataError(f"{at}duplicate doc_id {doc_id}")
        if "," in doc_id or doc_id.split() != [doc_id]:
            raise DataError(f"{at}malformed record at line {lineno}: doc_id must be nonempty "
                            "and free of whitespace and commas")
        seen.add(doc_id)
        doc = Document.from_text(doc_id, str(rec["title"]), str(rec["body"]))
        if not doc.terms:
            raise DataError(f"{at}document {doc_id} has no terms after tokenization")
        docs.append(doc)
    return Corpus(docs)


def load_corpus(path) -> Corpus:
    return _ingest(_iter_jsonl(path), path)


def load_queries(path) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, rec in _iter_jsonl(path):
        at = line_prefix(path, lineno)
        if not isinstance(rec, dict):
            raise DataError(f"{at}malformed record at line {lineno}: expected object")
        missing = [k for k in ("query_id", "text") if k not in rec]
        if missing:
            raise DataError(
                f"{at}malformed record at line {lineno}: missing field(s) {', '.join(missing)}"
            )
        qid = str(rec["query_id"])
        if qid in seen:
            raise DataError(f"{at}duplicate query_id {qid}")
        if qid.split() != [qid]:
            raise DataError(f"{at}malformed record at line {lineno}: query_id must be nonempty "
                            "and free of whitespace")
        seen.add(qid)
        queries.append(Query.from_text(qid, str(rec["text"])))
    return queries


def _iter_jsonl(path):
    """(line number, parsed record) of every non-blank line of a JSONL file."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            at = line_prefix(path, lineno)
            raise DataError(f"{at}malformed record at line {lineno}: {exc.msg}") from exc
        except RecursionError as exc:  # the decoder recurses once per nested array or object
            at = line_prefix(path, lineno)
            raise DataError(f"{at}malformed record at line {lineno}: nested too deeply") from exc
        yield lineno, record


class Judgments:
    """Relevance labels: query_id -> set of relevant doc_ids, with optional grades."""

    def __init__(self, grades: dict[str, dict[str, int]]):
        for qid, docs in grades.items():
            if not docs:
                raise DataError(f"query {qid} has no relevant documents")
        self._grades = grades

    @classmethod
    def from_pairs(cls, pairs) -> "Judgments":
        """Build from (query_id, doc_id) or (query_id, doc_id, grade) tuples."""
        grades: dict[str, dict[str, int]] = {}
        for tup in pairs:
            qid, did = tup[0], tup[1]
            grade = tup[2] if len(tup) > 2 else 1
            grades.setdefault(qid, {})[did] = int(grade)
        return cls(grades)

    @property
    def query_ids(self) -> list[str]:
        return sorted(self._grades)

    def __len__(self):
        return len(self._grades)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._grades

    def relevant(self, query_id: str) -> set[str]:
        return set(self._grades[query_id])

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades[query_id].get(doc_id, 0)

    def validate_against(self, corpus: Corpus) -> None:
        for qid, docs in self._grades.items():
            for did in docs:
                if did not in corpus:
                    raise DataError(f"judgment for query {qid} references unknown doc_id {did}")

    def restricted_to(self, query_ids) -> "Judgments":
        keep = set(query_ids)
        return Judgments({q: dict(d) for q, d in self._grades.items() if q in keep})


def load_judgments(path, corpus: Corpus | None = None) -> Judgments:
    triples = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        bad = f"{line_prefix(path, lineno)}malformed judgment at line {lineno}"
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{bad}: expected 3 tab-separated fields")
        qid, did, rel = parts
        try:
            rel_int = int(rel)
        except ValueError as exc:
            raise DataError(f"{bad}: relevance not an integer") from exc
        if rel_int < 1:
            raise DataError(f"{bad}: relevance must be >= 1")
        triples.append((qid, did, rel_int))
    judgments = Judgments.from_pairs(triples)
    if corpus is not None:
        judgments.validate_against(corpus)
    return judgments


@dataclass
class TrainingPair:
    query: Query
    positive: str
    negatives: list[str]

    def __post_init__(self):
        if self.positive in self.negatives:
            raise DataError(f"positive {self.positive} listed among negatives")


def sample_negatives(
    queries: list[Query],
    judgments: Judgments,
    corpus: Corpus,
    m: int,
    seed: int,
) -> list[TrainingPair]:
    """Draw M irrelevant documents per (query, positive) pair, uniformly without replacement.

    Deterministic for a fixed seed: pairs are visited in sorted
    (query_id, doc_id) order against a single seeded generator. A query's
    pool is the sorted corpus ids without its relevant ones; draw i is its
    i-th entry, found without building the pool: it is i plus the number
    of relevant positions r_j at or below it, that is, of r_j - j <= i.
    """
    if m < 1:
        raise DataError(f"need m >= 1, got {m}")
    by_id = {q.query_id: q for q in queries}
    all_docs = sorted(corpus.doc_ids)
    position = {doc_id: i for i, doc_id in enumerate(all_docs)}
    rng = np.random.default_rng(seed)
    pairs: list[TrainingPair] = []
    for qid in judgments.query_ids:
        if qid not in by_id:
            raise DataError(f"judgments reference unknown query_id {qid}")
        relevant = judgments.relevant(qid)
        held = np.sort(np.array([position[d] for d in relevant if d in position], dtype=np.int64))
        pool = len(all_docs) - len(held)
        if pool < m:
            raise DataError(f"query {qid}: only {pool} non-relevant docs available, need {m}")
        below = held - np.arange(len(held))  # pool entries before each relevant position
        for positive in sorted(relevant):
            picks = rng.choice(pool, size=m, replace=False)
            picks += below.searchsorted(picks, side="right")
            pairs.append(TrainingPair(by_id[qid], positive, [all_docs[i] for i in picks.tolist()]))
    return pairs
