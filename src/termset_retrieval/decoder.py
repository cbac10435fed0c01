"""Validity-constrained beam search over term-set identifiers.

At every step each surviving hypothesis is extended with every feasible
term, the extensions are scored globally, and the top K by cumulative
log-likelihood survive. After exactly N steps every hypothesis names one
document; documents reached through several permutations are scored by the
maximum likelihood among them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import atomic
from .corpus import Query
from .errors import DataError, InvariantError
from .index import root_beam
from .scorer import Scorer, sequence_logprob


@dataclass
class RankedDoc:
    doc_id: str
    score: float
    permutation: tuple[str, ...]


@dataclass
class SearchResult:
    query_id: str
    entries: list[RankedDoc] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def canonical(self) -> str:
        """Stable textual form, used by determinism checks."""
        return "\n".join(
            f"{e.doc_id}\t{e.score!r}\t{','.join(e.permutation)}" for e in self.entries
        )


def constrained_beam_search(
    query: Query,
    searchable,
    scorer: Scorer,
    beam_size: int | None = 100,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run N constrained decoding steps and return the completed hypotheses.

    `searchable` is an index-like object exposing all_docs, expand(), n,
    doc_ids and a dictionary; beam_size=None keeps every valid extension
    (exhaustive). Order variants of one prefix set stay distinct
    hypotheses, because the scorer rates them differently: each order
    passes through children of different sizes (`log1p_postings`) and is
    normalized over different feasible sets.

    The beam is held as arrays: one (hypotheses x N) array of term ids,
    filled up to the current depth, and the postings as CSR (flat doc
    positions plus offsets). The scorer's step function is made once per
    query (`step_scorer`). Each step expands the whole beam with one
    `np.sort` (`expand`; none once every prefix names one document),
    scores it with one call of that function and keeps the survivors with
    `top_k_cut`. Returns the completed hypotheses as arrays, best first:
    their term-id sequences (one row each), log-likelihoods and document
    positions.
    """
    if beam_size is not None and beam_size < 1:
        raise DataError(f"beam size must be >= 1, got {beam_size}")
    _, docs, ptr = root_beam(searchable)
    seqs = np.empty((1, searchable.n), dtype=np.int64)  # hypothesis h's terms: seqs[h, :depth]
    lls = np.zeros(1)
    rank = np.zeros(1, dtype=np.int64)  # place of each sequence in lexicographic order
    step_logprobs = scorer.step_scorer(query)
    for depth in range(searchable.n):
        step = searchable.expand(seqs[:, :depth], docs, ptr)
        step_ll = lls[step.parents] + step_logprobs(step)
        order = top_k_cut(step, step_ll, rank, beam_size)
        kept_parents, kept_terms = step.parents[order], step.terms[order]
        docs, ptr = step.children(order)
        seqs = seqs[kept_parents]
        seqs[:, depth] = kept_terms
        lls = step_ll[order]
        kept_rank = rank[kept_parents]
        rank = np.empty(len(order), dtype=np.int64)
        rank[np.lexsort((kept_terms, kept_rank))] = np.arange(len(order))
    held = np.diff(ptr)
    if (held != 1).any():
        raise InvariantError(
            f"full-length prefix maps to {held[np.argmax(held != 1)]} documents, expected 1"
        )
    return seqs, lls, docs


def top_k_cut(step, step_ll, rank, beam_size) -> np.ndarray:
    """Positions of the step's surviving extensions, best first.

    `step_ll` holds each extension's cumulative log-likelihood and `rank`
    each beam hypothesis's place in lexicographic order. The tie rule is
    likelihood desc, then leading child doc, then the extended sequence
    (parent's rank, then term): doc positions follow sorted doc ids and
    term ids follow sorted terms, so positions and ids order exactly as the
    strings do.

    Only extensions at or above the K-th largest log-likelihood can make
    the cut, so when the step has more than K, `np.partition` finds that
    value and only those rows, ties included, are sorted: they are exactly
    the head of the full order. A NaN log-likelihood is the one exception:
    `np.partition` counts NaN as the largest value, which no `>=` holds
    for, so fewer than K rows may pass; then the whole step is sorted,
    NaN last.
    """
    if beam_size is not None and len(step_ll) > beam_size:
        kth = np.partition(step_ll, -beam_size)[-beam_size]
        top = np.flatnonzero(step_ll >= kth)
        if len(top) >= beam_size:
            return _sort_rows(step, step_ll, rank, top)[:beam_size]
    return _sort_rows(step, step_ll, rank, np.arange(len(step_ll)))[:beam_size]


def _sort_rows(step, step_ll, rank, rows) -> np.ndarray:
    """`rows` (ascending positions) in the tie-rule order."""
    parents, terms = step.parents[rows], step.terms[rows]
    return rows[np.lexsort((terms, rank[parents], step.leads[rows], -step_ll[rows]))]


def rank_documents(
    seqs: np.ndarray,
    lls: np.ndarray,
    docs: np.ndarray,
    searchable,
    query_id: str = "",
) -> SearchResult:
    """Group completed hypotheses by document and keep each one's best permutation.

    Completed hypothesis h is the term-id sequence seqs[h], with
    log-likelihood lls[h], naming document position docs[h]. One lexsort
    by (doc, -score, sequence) groups them: each document keeps its best
    log-likelihood and, of hypotheses tied on it, the smallest sequence.
    Documents are ranked by (-score, doc id), that is, by (-score, doc
    position), since positions follow sorted doc ids.
    """
    if seqs.shape[1] != searchable.n:
        raise InvariantError("cannot rank an incomplete hypothesis")
    order = np.lexsort((*seqs.T[::-1], -lls, docs))
    first = np.ones(len(order), dtype=bool)
    first[1:] = docs[order[1:]] != docs[order[:-1]]
    best = order[first]
    best = best[np.lexsort((docs[best], -lls[best]))]
    term_of, doc_ids = searchable.dictionary.term_of, searchable.doc_ids
    entries = [
        RankedDoc(doc_ids[doc], ll, tuple(term_of(t) for t in seq))
        for doc, ll, seq in zip(docs[best].tolist(), lls[best].tolist(), seqs[best].tolist())
    ]
    return SearchResult(query_id, entries)


def search(
    query: Query,
    searchable,
    scorer: Scorer,
    beam_size: int | None = 100,
) -> SearchResult:
    seqs, lls, docs = constrained_beam_search(query, searchable, scorer, beam_size)
    return rank_documents(seqs, lls, docs, searchable, query.query_id)


def brute_force_best_permutation(
    query: Query,
    doc_id: str,
    scorer: Scorer,
    index,
    max_n: int = 8,
) -> tuple[tuple[str, ...], float]:
    """Exact argmax over all N! identifier orderings; the decoder's test oracle."""
    if index.n > max_n:
        raise DataError(f"refusing {index.n}! permutations (limit n <= {max_n})")
    ids = [int(t) for t in index.identifier_ids(doc_id)]
    best_seq: tuple[int, ...] | None = None
    best_ll = -np.inf
    for perm in itertools.permutations(sorted(ids)):
        ll = sequence_logprob(scorer, query, perm, index)
        if ll > best_ll:
            best_ll, best_seq = ll, perm
    terms = tuple(index.dictionary.term_of(t) for t in best_seq)
    return terms, float(best_ll)


# ---------------------------------------------------------------------------
# Run output ("query_id Q0 doc_id rank score run_tag")
# ---------------------------------------------------------------------------


def format_run_lines(results: list[SearchResult], tag: str = "termset") -> list[str]:
    if not tag or any(c.isspace() for c in tag):
        raise DataError(f"run tag {tag!r} must be non-empty, without whitespace")
    lines = []
    for result in results:
        for rank, entry in enumerate(result.entries, start=1):
            lines.append(
                f"{result.query_id} Q0 {entry.doc_id} {rank} {entry.score:.6f} {tag}"
            )
    return lines


def write_run_file(results: list[SearchResult], path, tag: str = "termset") -> None:
    lines = format_run_lines(results, tag)
    atomic.write_text(path, "\n".join(lines) + ("\n" if lines else ""))
