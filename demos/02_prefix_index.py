"""The prefix -> postings index behind constrained decoding.

Shows how posting lists shrink as a prefix grows, why the feasible set is
cheap to compute from the surviving documents, and how much faster the
posting-list walk is than rescanning the whole registry.
"""

import time

import numpy as np

from termset_retrieval import build_index, naive_feasible_terms
from termset_retrieval.synthetic import make_random_identifiers

# A registry of 10,000 random six-term identifiers over a 2,000-term vocabulary.
table = make_random_identifiers(num_docs=10_000, vocab_size=2000, n=6, seed=1)
index = build_index(table)
print(f"index: {len(index.doc_ids)} docs, vocabulary {len(index.dictionary)}, n={index.n}")

# Walk one identifier term by term and watch the pruning: a prefix's
# documents are its terms' postings intersected, and its feasible set comes
# from one `expand` of that one-prefix beam.
def feasible(prefix, docs):
    seqs = np.array(prefix, dtype=np.int64).reshape(1, len(prefix))
    return index.expand(seqs, docs, np.array([0, len(docs)])).terms


def holders(prefix):
    docs = index.postings(prefix[0])
    for term_id in prefix[1:]:
        docs = np.intersect1d(docs, index.postings(term_id), assume_unique=True)
    return docs


doc_id = index.doc_ids[4321]
print(f"\nwalking the identifier of {doc_id}:")
prefix, docs = [], index.all_docs
print(f"  depth 0: postings {len(docs):>6}, feasible {len(feasible(prefix, docs)):>5}")
for term_id in index.identifier_ids(doc_id, ordered=True).tolist():
    postings = index.postings(term_id)
    docs = np.intersect1d(docs, postings, assume_unique=True) if prefix else postings
    prefix.append(term_id)
    term = index.dictionary.term_of(term_id)
    print(f"  +{term}: postings {len(docs):>6}, feasible {len(feasible(prefix, docs)):>5}")
assert [index.doc_ids[d] for d in docs] == [doc_id]
print(f"  complete -> {index.doc_ids[docs[0]]}")

# Nearly all documents disappear after one or two terms, which is exactly
# what makes the per-step feasible computation cheap.

rng = np.random.default_rng(0)
prefixes = []
for _ in range(300):
    row = index.sets[rng.integers(len(index.doc_ids))]
    depth = int(rng.integers(1, index.n))
    prefixes.append([int(t) for t in rng.choice(row, size=depth, replace=False)])

start = time.perf_counter()
for prefix in prefixes:
    feasible(prefix, holders(prefix))
walk_time = time.perf_counter() - start

start = time.perf_counter()
for prefix in prefixes:
    naive_feasible_terms(index, prefix)
scan_time = time.perf_counter() - start

print(f"\nfeasible sets for 300 random prefixes:")
print(f"  posting-list walk: {walk_time * 1000:.1f} ms")
print(f"  full registry scan: {scan_time * 1000:.1f} ms")
print(f"  speedup: {scan_time / walk_time:.1f}x")
