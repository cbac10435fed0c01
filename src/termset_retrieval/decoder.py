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
from .index import DenseStep, root_beam
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

    `searchable` is an index-like object exposing all_docs, expand(),
    remaining(), n, doc_ids and a dictionary; beam_size=None keeps every
    valid extension (exhaustive). Order variants of one prefix set stay
    distinct hypotheses, because the scorer rates them differently: each
    order passes through children of different sizes (`log1p_postings`)
    and is normalized over different feasible sets.

    The beam is held as arrays: one (hypotheses x N) array of term ids,
    filled up to the current depth, its rows in lexicographic order, and
    the postings as CSR (flat doc positions plus offsets). The scorer's
    step function is made once per query (`step_scorer`). Each step
    expands the whole beam with one `np.sort` (`expand`), scores it with
    one call of that function and keeps the survivors with `top_k_cut`, in
    step order, which keeps the rows in lexicographic order. Once every
    hypothesis holds one document, the remaining depths are decoded on one
    block (`_dense_tail`). Returns the completed hypotheses as arrays, best
    first: their term-id sequences (one row each), log-likelihoods and
    document positions.
    """
    if beam_size is not None and beam_size < 1:
        raise DataError(f"beam size must be >= 1, got {beam_size}")
    _, docs, ptr = root_beam(searchable)
    seqs = np.empty((1, searchable.n), dtype=np.int64)  # hypothesis h's terms: seqs[h, :depth]
    lls = np.zeros(1)
    step_logprobs = scorer.step_scorer(query)
    for depth in range(searchable.n):
        if ptr[-1] == len(seqs):  # every hypothesis holds one document
            return _dense_tail(searchable, step_logprobs, (seqs, lls, docs), depth, beam_size)
        step = searchable.expand(seqs[:, :depth], docs, ptr)
        step_ll = lls[step.parents] + step_logprobs(step)
        order = top_k_cut(step, step_ll, beam_size)
        if depth + 1 < searchable.n:
            order.sort()  # step order; the last depth keeps the best first
        docs, ptr = step.children(order)
        seqs = seqs[step.parents[order]]
        seqs[:, depth] = step.terms[order]
        lls = step_ll[order]
    held = np.diff(ptr)
    if (held != 1).any():
        raise InvariantError(
            f"full-length prefix maps to {held[np.argmax(held != 1)]} documents, expected 1"
        )
    return seqs, lls, docs


def _dense_tail(searchable, step_logprobs, beam, depth, beam_size):
    """Decode from `depth` a beam (seqs, lls, docs) whose hypothesis h holds one document, docs[h].

    No retrieval is left: hypothesis h may only place its document's terms
    that its prefix lacks (`remaining`), each with child size 1 and lead
    docs[h]. They form one block, a row per hypothesis and a column per
    term to place, built once. Each depth scores the candidate columns
    (`DenseStep`) and cuts as `constrained_beam_search` does, then takes
    the kept rows without each one's picked column, in one gather: row p
    of `drop` lists every column but p.
    """
    seqs, lls, docs = beam
    block, free = searchable.remaining(seqs[:, :depth], docs)
    cols = np.arange(block.shape[1] - 1)
    drop = cols + (cols >= np.arange(block.shape[1])[:, None])  # drop[p]: the columns but p
    for depth in range(depth, searchable.n):
        width = block.shape[1] if free else 1
        step = DenseStep(searchable, seqs[:, :depth], docs, block[:, :width])
        step_ll = lls.repeat(width) + step_logprobs(step)
        order = top_k_cut(step, step_ll, beam_size)
        if depth + 1 < searchable.n:
            order.sort()
        parents, picked = np.divmod(order, width)
        seqs = seqs[parents]
        seqs[:, depth] = block[parents, picked]
        lls, docs = step_ll[order], docs[parents]
        block = block[parents[:, None], drop[picked, : block.shape[1] - 1]]
    return seqs, lls, docs


def top_k_cut(step, step_ll, beam_size) -> np.ndarray:
    """Positions of the step's surviving extensions, best first.

    `step_ll` holds each extension's cumulative log-likelihood. The tie
    rule is likelihood desc, then leading child doc, then the extended
    sequence: doc positions follow sorted doc ids and term ids follow
    sorted terms, so positions and ids order exactly as the strings do.
    The beam's rows are in lexicographic order, so the step's positions,
    which go by (parent, term), are the extended sequences' order.

    Only extensions at or above the K-th largest log-likelihood can make
    the cut, so when the step has more than 4K, `np.partition` finds that
    value and only those rows, ties included, are sorted: they are exactly
    the head of the full order. On smaller steps the pre-pass costs more
    than it saves, and the whole step is sorted. Leads are derived only
    for the rows sorted (`Step.leads`). A NaN log-likelihood is the one
    exception: `np.partition` counts NaN as the largest value, which no
    `>=` holds for, so fewer than K rows may pass; then the whole step is
    sorted, NaN last.
    """
    if beam_size is not None and len(step_ll) > 4 * beam_size:
        kth = np.partition(step_ll, -beam_size)[-beam_size]
        top = np.flatnonzero(step_ll >= kth)
        if len(top) >= beam_size:
            return _sort_rows(step, step_ll, top)[:beam_size]
    return _sort_rows(step, step_ll, np.arange(len(step_ll)))[:beam_size]


def _sort_rows(step, step_ll, rows) -> np.ndarray:
    """`rows` (ascending positions) in the tie-rule order: the lexsort is stable, so
    rows tied on likelihood and lead keep their position order."""
    return rows[np.lexsort((step.leads(rows), -step_ll[rows]))]


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


def check_run_tag(tag: str) -> None:
    if tag.split() != [tag]:
        raise DataError(f"run tag {tag!r} must be non-empty, without whitespace")


def format_run_lines(results: list[SearchResult], tag: str = "termset") -> list[str]:
    check_run_tag(tag)
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
