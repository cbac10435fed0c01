"""From raw documents to unique term-set identifiers.

Walks the first stage of the pipeline on the bundled toy corpus: tokenize,
learn per-term importance weights with the InfoNCE objective, then pick
each document's top-N terms and repair collisions.
"""

from importlib.resources import files

import numpy as np

from termset_retrieval import (
    build_identifiers,
    load_corpus,
    load_judgments,
    load_queries,
    sample_negatives,
    score_terms,
    tokenize,
    train_importance,
)
from termset_retrieval.importance import TFIDF_FEATURES

data = files("termset_retrieval") / "data"
corpus = load_corpus(data / "toy_corpus.jsonl")
queries = load_queries(data / "toy_queries.jsonl")
judgments = load_judgments(data / "toy_qrels.tsv", corpus)

print(f"corpus: {len(corpus)} documents, {len(queries)} queries")
print("tokenize('Keepers of the Harbor Lighthouse!') ->",
      tokenize("Keepers of the Harbor Lighthouse!"))

# Each training pair is (query, its relevant doc, M sampled irrelevant docs).
pairs = sample_negatives(queries, judgments, corpus, m=4, seed=7)
print(f"\ntraining pairs: {len(pairs)} (4 negatives each)")

# The importance model scores a term by relu(features . weights); training
# pushes up weights of terms that bridge a query to its relevant document.
model = train_importance(pairs, corpus, tau=1.0, epochs=200, lr=0.05, seed=7)
print("learned feature weights:")
for name, w in zip(TFIDF_FEATURES, model.weights):
    print(f"  {name:>10}: {w:+.3f}")

doc = corpus["sourdough"]
weights = score_terms(model, doc, corpus.stats)
print(f"\ntop terms of '{doc.doc_id}':")
for term, w in sorted(weights.items(), key=lambda kv: -kv[1])[:6]:
    print(f"  {term:>10}: {w:.3f}")

# Scan identifier sizes upward until every document is uniquely identified.
table = build_identifiers(corpus, model, n_min=4, n_max=8)
print(f"\nidentifier size n={table.n}, placeholders={table.num_placeholders}")
for doc_id in table.doc_ids[:5]:
    print(f"  {doc_id:>10}: {', '.join(table.terms_by_doc[doc_id])}")

sets = [frozenset(t) for t in table.terms_by_doc.values()]
assert len(sets) == len(set(sets)), "identifiers must be pairwise distinct"
print("\nall identifier sets are pairwise distinct")
