"""Synthetic corpora used by tests, benchmarks, and the demo scripts.

Three families: a bridging-term corpus where one rare term links each
query to its document (exercises importance training end to end), an
order-noise corpus where fixed-sequence identifiers suffer early pruning
(exercises the identifier-scheme ablation), and raw random identifier
registries for index/decoder oracles at any scale.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Corpus, Document, Judgments, Query
from .errors import DataError
from .importance import IdentifierTable


def make_bridging_corpus(
    num_docs: int = 30,
    fillers: int = 12,
    fillers_per_doc: int = 6,
    queries_per_doc: int = 2,
    noise_terms: int = 3,
    seed: int = 0,
):
    """Corpus where exactly one rare "bridge" term ties each query to its document.

    Bridge terms are unique (high idf, in the title); fillers are common
    across documents. Query noise terms are drawn from outside the positive
    document, so the bridge is the only query/positive overlap while
    fillers still collide with negatives. Returns (corpus, queries,
    judgments); queries come in `queries_per_doc` waves per document so
    callers can split train/test by wave.
    """
    rng = np.random.default_rng(seed)
    filler_vocab = [f"filler{i:03d}" for i in range(fillers)]
    docs, queries, pairs = [], [], []
    for d in range(num_docs):
        bridge = f"bridge{d:03d}"
        doc_id = f"D{d:03d}"
        picks = rng.choice(fillers, size=fillers_per_doc, replace=False)
        body_terms = [filler_vocab[i] for i in picks]
        docs.append(Document.from_text(doc_id, bridge, " ".join(body_terms)))
        outside = [f for f in filler_vocab if f not in body_terms]
        for wave in range(queries_per_doc):
            noise = [outside[i] for i in rng.choice(len(outside), size=noise_terms, replace=False)]
            qid = f"Q{d:03d}w{wave}"
            queries.append(Query.from_text(qid, " ".join([bridge] + noise)))
            pairs.append((qid, doc_id))
    return Corpus(docs), queries, Judgments.from_pairs(pairs)


def split_by_wave(queries: list[Query], judgments: Judgments, test_wave: int):
    """Separate one query wave of a bridging corpus as the held-out test set."""
    suffix = f"w{test_wave}"
    train_q = [q for q in queries if not q.query_id.endswith(suffix)]
    test_q = [q for q in queries if q.query_id.endswith(suffix)]
    train_j = judgments.restricted_to(q.query_id for q in train_q)
    test_j = judgments.restricted_to(q.query_id for q in test_q)
    return train_q, train_j, test_q, test_j


def make_order_noise_corpus(
    num_groups: int = 20,
    docs_per_group: int = 3,
    queries_per_doc: int = 2,
    seed: int = 0,
):
    """Corpus punishing fixed-order identifiers.

    Documents in a group share two heavily repeated group terms; each
    document adds one unique term. Term frequency puts the group terms at
    the head of every stored identifier, but each query names only the
    unique term plus another group's terms as noise, so a sequence decoder
    must survive two unattractive steps before the query-matching term
    appears. Queries come in waves like the bridging corpus.
    """
    rng = np.random.default_rng(seed)
    docs, queries, pairs = [], [], []
    for g in range(num_groups):
        for j in range(docs_per_group):
            d = g * docs_per_group + j
            doc_id = f"D{d:03d}"
            unique = f"uniq{d:03d}"
            head_a, head_b = f"group{g:02d}a", f"group{g:02d}b"
            body = " ".join([head_a] * 4 + [head_b] * 3 + [unique])
            docs.append(Document.from_text(doc_id, head_a, body))
            for wave in range(queries_per_doc):
                noise_group = int(rng.integers(num_groups))
                while noise_group == g:
                    noise_group = int(rng.integers(num_groups))
                qid = f"Q{d:03d}w{wave}"
                text = f"{unique} group{noise_group:02d}a group{noise_group:02d}b"
                queries.append(Query.from_text(qid, text))
                pairs.append((qid, doc_id))
    return Corpus(docs), queries, Judgments.from_pairs(pairs)


def make_random_identifiers(
    num_docs: int, vocab_size: int, n: int, seed: int = 0
) -> IdentifierTable:
    """Random registry of unique n-term identifiers over a synthetic vocabulary."""
    if vocab_size < n:
        raise DataError(f"vocabulary of {vocab_size} cannot fill identifiers of size {n}")
    capacity = math.comb(vocab_size, n)
    if num_docs > capacity:
        raise DataError(
            f"only {capacity} distinct {n}-term identifiers exist over {vocab_size} terms, "
            f"{num_docs} requested"
        )
    rng = np.random.default_rng(seed)
    width = len(str(vocab_size - 1))
    terms_by_doc: dict[str, list[str]] = {}
    seen: set[frozenset] = set()
    d = 0
    while len(terms_by_doc) < num_docs:
        picks = rng.choice(vocab_size, size=n, replace=False)
        key = frozenset(int(p) for p in picks)
        if key in seen:
            continue
        seen.add(key)
        terms_by_doc[f"D{d:05d}"] = [f"t{int(p):0{width}d}" for p in picks]
        d += 1
    return IdentifierTable(n, terms_by_doc)


def make_random_queries(
    table: IdentifierTable, num_queries: int, seed: int = 0
) -> list[Query]:
    """Queries mixing real identifier terms with out-of-vocabulary noise."""
    rng = np.random.default_rng(seed)
    vocab = sorted({t for terms in table.terms_by_doc.values() for t in terms})
    queries = []
    for q in range(num_queries):
        k = int(rng.integers(2, 6))
        picks = [vocab[i] for i in rng.choice(len(vocab), size=k, replace=False)]
        if rng.random() < 0.3:
            picks.append(f"noise{int(rng.integers(1000)):03d}")
        queries.append(Query(f"Q{q:05d}", " ".join(picks), picks))
    return queries
