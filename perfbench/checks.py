"""Correctness checks on search results, run outside every timed region.

Each check returns a list of problems (empty when the result is correct),
so the caller can count a failed check against the query it belongs to.
"""

from __future__ import annotations

import math


def check_result(result, searchable) -> list[str]:
    """Every entry is a permutation of its document's identifier; sorted; no repeats."""
    problems = []
    seen = set()
    previous = math.inf
    for rank, entry in enumerate(result.entries, start=1):
        if entry.doc_id in seen:
            problems.append(f"{result.query_id}: document {entry.doc_id} repeated at rank {rank}")
        seen.add(entry.doc_id)
        if not entry.score <= previous:
            problems.append(f"{result.query_id}: rank {rank} scores above rank {rank - 1}")
        previous = entry.score
        identifier = searchable.identifier_terms(entry.doc_id)
        perm = list(entry.permutation)
        if len(perm) != len(identifier) or sorted(perm) != sorted(identifier):
            problems.append(
                f"{result.query_id}: {entry.doc_id} permutation {perm} is not a "
                f"permutation of its identifier {identifier}"
            )
    return problems


def check_scores(tr, result, query, searchable, scorer, tolerance: float = 1e-9) -> list[str]:
    """Each entry's score equals sequence_logprob recomputed along its permutation."""
    problems = []
    dictionary = searchable.dictionary
    for entry in result.entries:
        ids = [dictionary.id_of(t) for t in entry.permutation]
        expected = tr.sequence_logprob(scorer, query, ids, searchable)
        if not abs(expected - entry.score) <= tolerance:
            problems.append(
                f"{result.query_id}: {entry.doc_id} scored {entry.score!r}, "
                f"sequence_logprob gives {expected!r}"
            )
    return problems


def check_same(result, reference, what: str) -> list[str]:
    """Byte-identical canonical output against a reference result."""
    if result.canonical() == reference.canonical():
        return []
    return [f"{result.query_id}: output differs from {what}"]
