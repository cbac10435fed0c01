"""Identifier registry and the prefix -> postings inverted index.

Term-level posting lists are global and immutable once built; prefix nodes
are materialized lazily per query while decoding, so only visited prefixes
ever exist. A prefix node knows the documents whose identifiers contain
every prefix term, and its feasible set is the union of those documents'
remaining identifier terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError, InvariantError
from .importance import IdentifierTable

_INDEX_FORMAT = "termset-index/1"


class TermDictionary:
    """Bijection between term strings and dense ids, assigned in sorted order."""

    def __init__(self, terms):
        self.terms = sorted(terms)
        self._ids = {t: i for i, t in enumerate(self.terms)}
        if len(self._ids) != len(self.terms):
            raise InvariantError("duplicate terms in dictionary")

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def id_of(self, term: str) -> int:
        return self._ids[term]

    def term_of(self, term_id: int) -> str:
        return self.terms[term_id]


class Expansion(NamedTuple):
    """Every one-term extension of a prefix, aligned by position.

    terms: feasible term ids, ascending. sizes: documents left after
    appending each term. leads: the first (lowest) such document position.
    """

    terms: np.ndarray
    sizes: np.ndarray
    leads: np.ndarray


class Index:
    """Built once from an IdentifierTable; shared read-only across queries.

    doc_ids must be strictly ascending: document positions then order
    documents exactly as their ids do, which the decoder's tie rule uses.
    """

    def __init__(self, dictionary: TermDictionary, doc_ids: list[str], order: np.ndarray):
        if not _strictly_ascending(doc_ids):
            raise InvariantError("document ids must be unique and in sorted order")
        self.dictionary = dictionary
        self.doc_ids = doc_ids
        self._doc_index = {d: i for i, d in enumerate(doc_ids)}
        self.order = order  # (docs, n) term ids, importance-descending
        self.sets = np.sort(order, axis=1)  # row-sorted set view
        self.n = order.shape[1]
        repeats = np.flatnonzero((self.sets[:, 1:] == self.sets[:, :-1]).any(axis=1))
        if len(repeats):
            raise InvariantError(f"identifier of {doc_ids[repeats[0]]} repeats a term")
        # term-level postings: term_id -> sorted array of doc positions; the
        # stable sort keeps each term's documents in position order
        self.postings: list[np.ndarray] = []
        ids = np.repeat(np.arange(len(doc_ids), dtype=np.int32), self.n)
        flat = self.sets.ravel()
        sort = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(flat[sort], np.arange(len(dictionary) + 1))
        for t in range(len(dictionary)):
            self.postings.append(ids[sort[bounds[t] : bounds[t + 1]]])
        self.posting_sizes = np.diff(bounds)
        self.all_docs = np.arange(len(doc_ids), dtype=np.int32)
        self.root_feasible = np.flatnonzero(self.posting_sizes > 0).astype(np.int32)
        self.root_expansion = Expansion(
            self.root_feasible,
            self.posting_sizes[self.root_feasible],
            ids[sort[bounds[self.root_feasible]]],
        )

    def __len__(self):
        return len(self.doc_ids)

    def root(self) -> "PrefixNode":
        return PrefixNode(self, (), self.all_docs)

    def doc_position(self, doc_id: str) -> int:
        return self._doc_index[doc_id]

    def identifier_ids(self, doc_id: str, ordered: bool = False) -> np.ndarray:
        row = self.order if ordered else self.sets
        return row[self._doc_index[doc_id]]

    def identifier_terms(self, doc_id: str) -> list[str]:
        return [self.dictionary.term_of(int(t)) for t in self.order[self._doc_index[doc_id]]]

    def memory_bytes(self) -> int:
        arrays = self.order.nbytes + self.sets.nbytes + sum(p.nbytes for p in self.postings)
        strings = sum(len(t.encode("utf-8")) for t in self.dictionary.terms)
        strings += sum(len(d.encode("utf-8")) for d in self.doc_ids)
        return arrays + strings


class PrefixNode:
    """One generated prefix and the documents whose identifiers contain it."""

    def __init__(self, index: Index, prefix_ids: tuple[int, ...], postings: np.ndarray):
        self.index = index
        self.prefix_ids = prefix_ids
        self.postings = postings
        self._expansion: Expansion | None = None

    @property
    def depth(self) -> int:
        return len(self.prefix_ids)

    def expansion(self) -> Expansion:
        """Feasible terms with their child sizes and leading docs, from one unique pass."""
        if self._expansion is None:
            if self.depth == 0:
                self._expansion = self.index.root_expansion
            else:
                n = self.index.n
                terms, first, sizes = np.unique(
                    self.index.sets[self.postings], return_index=True, return_counts=True
                )
                # every surviving document holds every prefix term
                keep = np.ones(len(terms), dtype=bool)
                keep[np.searchsorted(terms, self.prefix_ids)] = False
                self._expansion = Expansion(
                    terms[keep], sizes[keep], self.postings[first[keep] // n]
                )
        return self._expansion

    def feasible_terms(self) -> np.ndarray:
        """Terms extending this prefix inside at least one identifier, repeats excluded."""
        return self.expansion().terms

    def child_sizes(self, candidates: np.ndarray) -> np.ndarray:
        """Child sizes of `candidates`, each of which must be feasible here."""
        terms, sizes, _ = self.expansion()
        candidates = np.asarray(candidates)
        pos = np.searchsorted(terms, candidates)
        found = pos < len(terms)
        found[found] = terms[pos[found]] == candidates[found]
        if not found.all():
            bad = int(candidates[np.argmin(found)])
            raise DataError(f"term id {bad} is not feasible after prefix {self.prefix_ids}")
        return sizes[pos]

    def extend(self, term_id: int) -> "PrefixNode":
        if term_id in self.prefix_ids:
            raise DataError(f"term id {term_id} already generated in this prefix")
        child = self.index.postings[term_id]
        if self.depth > 0:
            child = np.intersect1d(self.postings, child, assume_unique=True)
        if len(child) == 0:
            term = self.index.dictionary.term_of(term_id)
            raise DataError(f"term {term!r} is not feasible after prefix {self.prefix_ids}")
        return PrefixNode(self.index, self.prefix_ids + (term_id,), child)

    def complete_doc(self) -> str | None:
        if self.depth < self.index.n:
            return None
        if len(self.postings) != 1:
            raise InvariantError(
                f"full-length prefix maps to {len(self.postings)} documents, expected 1"
            )
        return self.index.doc_ids[int(self.postings[0])]


def _strictly_ascending(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


def build_index(table: IdentifierTable) -> Index:
    if not table.terms_by_doc:
        raise DataError("empty registry")
    table.validate()
    doc_ids = table.doc_ids
    dictionary = TermDictionary({t for terms in table.terms_by_doc.values() for t in terms})
    order = np.array(
        [[dictionary.id_of(t) for t in table.terms_by_doc[d]] for d in doc_ids],
        dtype=np.int32,
    )
    return Index(dictionary, doc_ids, order)


def naive_feasible_terms(index: Index, prefix_ids) -> np.ndarray:
    """Full-registry scan: check every document for prefix containment, then union.

    Kept as the reference path the posting-list walk is benchmarked against.
    """
    prefix = np.asarray(sorted(prefix_ids), dtype=index.sets.dtype)
    if len(prefix) == 0:
        return np.unique(index.sets)
    hits = np.isin(index.sets, prefix).sum(axis=1) == len(prefix)
    if not hits.any():
        return np.empty(0, dtype=index.sets.dtype)
    union = np.unique(index.sets[hits])
    return np.setdiff1d(union, prefix, assume_unique=True)


# ---------------------------------------------------------------------------
# Fixed-sequence view (identifier-scheme ablation)
# ---------------------------------------------------------------------------


class SequenceView:
    """Decoding constraints for fixed-order identifiers over the same registry.

    The feasible set at depth i is each surviving document's i-th stored
    term, i.e. a trie over the importance-ordered sequences.
    """

    def __init__(self, index: Index):
        self.index = index
        self.n = index.n
        self.dictionary = index.dictionary
        self.doc_ids = index.doc_ids

    def root(self) -> "SequenceNode":
        return SequenceNode(self, (), self.index.all_docs)


class SequenceNode(PrefixNode):
    """A prefix of the stored sequences: only the next stored term may follow."""

    def __init__(self, view: SequenceView, prefix_ids: tuple[int, ...], postings: np.ndarray):
        super().__init__(view.index, prefix_ids, postings)
        self.view = view

    def expansion(self) -> Expansion:
        if self._expansion is None:
            terms, first, sizes = np.unique(
                self.index.order[self.postings, self.depth], return_index=True, return_counts=True
            )
            self._expansion = Expansion(terms, sizes, self.postings[first])
        return self._expansion

    def extend(self, term_id: int) -> "SequenceNode":
        child = self.postings[self.index.order[self.postings, self.depth] == term_id]
        if len(child) == 0:
            term = self.index.dictionary.term_of(term_id)
            raise DataError(f"term {term!r} does not continue any stored sequence")
        return SequenceNode(self.view, self.prefix_ids + (term_id,), child)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: Index, path) -> None:
    """Versioned text serialization; byte-stable for identical inputs."""
    lines = [
        _INDEX_FORMAT,
        f"n\t{index.n}",
        f"docs\t{len(index.doc_ids)}",
        f"terms\t{len(index.dictionary)}",
    ]
    for term in index.dictionary.terms:
        lines.append(f"T\t{term}")
    for doc_id, row in zip(index.doc_ids, index.order):
        lines.append(f"D\t{doc_id}\t{','.join(str(int(t)) for t in row)}")
    for term_id, posting in enumerate(index.postings):
        lines.append(f"P\t{term_id}\t{','.join(str(int(d)) for d in posting)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path) -> Index:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _INDEX_FORMAT:
        raise DataError(f"{path}: not a {_INDEX_FORMAT} file")
    try:
        header = dict(line.split("\t", 1) for line in lines[1:4])
        n, num_docs, num_terms = (int(header[k]) for k in ("n", "docs", "terms"))
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}: malformed index header") from exc
    terms, doc_rows, posting_rows = [], [], []
    for line in lines[4:]:
        if not line:
            continue
        tag, _, rest = line.partition("\t")
        if tag == "T":
            terms.append(rest)
        elif tag == "D":
            doc_id, _, ids = rest.partition("\t")
            doc_rows.append((doc_id, [int(x) for x in ids.split(",")]))
        elif tag == "P":
            term_id, _, docs = rest.partition("\t")
            posting_rows.append((int(term_id), [int(x) for x in docs.split(",")] if docs else []))
        else:
            raise DataError(f"{path}: unknown record tag {tag!r}")
    if len(terms) != num_terms or len(doc_rows) != num_docs or len(posting_rows) != num_terms:
        raise DataError(f"{path}: header counts do not match records")
    dictionary = TermDictionary(terms)
    if dictionary.terms != terms:
        raise DataError(f"{path}: term dictionary not in sorted order")
    doc_ids = [d for d, _ in doc_rows]
    if not _strictly_ascending(doc_ids):
        raise DataError(f"{path}: documents not unique and in sorted order")
    order = np.array([row for _, row in doc_rows], dtype=np.int32)
    if order.shape != (num_docs, n):
        raise DataError(f"{path}: identifier rows are not uniformly length {n}")
    index = Index(dictionary, doc_ids, order)
    for term_id, stored in posting_rows:
        if not np.array_equal(index.postings[term_id], np.array(stored, dtype=np.int32)):
            raise DataError(f"{path}: stored postings for term {term_id} are inconsistent")
    return index
