"""Prefix-postings index: feasible sets, pruning, persistence."""

import contextlib
import gc
import io
import itertools
import json
import math
import re
import struct
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval import importance
from termset_retrieval import index as index_module
from termset_retrieval.cli import main
from termset_retrieval.corpus import Query, ingest_corpus
from termset_retrieval.decoder import rank_documents, search
from termset_retrieval.errors import DataError, InvariantError
from termset_retrieval.importance import IdentifierTable, ImportanceModel, build_identifiers
from termset_retrieval.index import (
    DenseStep,
    Index,
    SequenceView,
    Step,
    TermDictionary,
    _expand,
    build_index,
    load_index,
    naive_feasible_terms,
    root_beam,
    save_index,
)
from termset_retrieval.scorer import (
    STEP_FEATURES,
    FeatureScorer,
    UniformScorer,
    save_scorer,
    sequence_logprob,
)
from termset_retrieval.synthetic import make_random_identifiers

from conftest import file_mutations, holders, outcome, term_ids, walk


def oracle_feasible(table: IdentifierTable, prefix: set[str]) -> set[str]:
    """Brute-force scan over the registry with plain python sets."""
    out = set()
    for terms in table.terms_by_doc.values():
        s = set(terms)
        if prefix <= s:
            out |= s - prefix
    return out


def feasible(searchable, prefix) -> np.ndarray:
    """Feasible terms after `prefix`, reached by `walk`: one `expand` of its beam."""
    return searchable.expand(*walk(searchable, prefix)).terms


def doc_names(searchable, docs) -> set[str]:
    return {searchable.doc_ids[i] for i in docs}


def names(index, term_ids) -> set[str]:
    return {index.dictionary.term_of(int(t)) for t in term_ids}


def assert_refuses(searchable, prefix, term_id):
    """`term_id` is no extension of `prefix`: locate misses it and forcing it raises."""
    step = searchable.expand(*walk(searchable, prefix))
    assert step.locate(np.zeros(1, dtype=np.int64), np.array([term_id])).tolist() == [-1]
    assert walk(searchable, [*prefix, term_id]) is None
    with pytest.raises(DataError, match="infeasible"):
        sequence_logprob(UniformScorer(), Query.from_text("q", ""), [*prefix, term_id], searchable)


class TestBuild:
    def test_root_feasible_is_union(self, tiny_index):
        assert names(tiny_index, feasible(tiny_index, [])) == {"a", "b", "c", "d", "e", "f", "g"}

    def test_empty_registry(self):
        with pytest.raises(DataError, match="empty registry"):
            build_index(IdentifierTable(1, {}))

    def test_term_postings(self, tiny_index):
        a = tiny_index.dictionary.id_of("a")
        start, end = tiny_index.posting_ptr[a : a + 2]
        docs = {tiny_index.doc_ids[i] for i in tiny_index.posting_docs[start:end]}
        assert docs == {"D1", "D2"}

    @pytest.mark.parametrize("doc_ids", [["D2", "D1"], ["D1", "D1"]], ids=["unsorted", "repeated"])
    def test_doc_ids_must_ascend_strictly(self, doc_ids):
        """A table sorts its doc ids, which a dict cannot repeat; a file must hold them so."""
        table = IdentifierTable(2, dict(zip(doc_ids, [["a", "b"], ["c", "d"]])))
        assert table.doc_ids == sorted(set(doc_ids))
        data = index_bytes(2, ["a", "b", "c", "d"], doc_ids, [[0, 1], [2, 3]])
        with pytest.raises(DataError, match="documents not unique and in sorted order"):
            load_bytes(data)


class TestExtend:
    def test_extend_with_a(self, tiny_index):
        (a,) = term_ids(tiny_index, "a")
        seqs, docs, _ = walk(tiny_index, [a])
        assert seqs.tolist() == [[a]]
        assert doc_names(tiny_index, docs) == {"D1", "D2"}
        assert names(tiny_index, feasible(tiny_index, [a])) == {"b", "c", "d"}

    def test_full_prefix_has_empty_feasible(self, tiny_index):
        a, c, b = term_ids(tiny_index, "a", "c", "b")
        _, docs, _ = walk(tiny_index, [a, c, b])
        assert doc_names(tiny_index, docs) == {"D1"}
        assert len(feasible(tiny_index, [a, c, b])) == 0

    def test_infeasible_extension(self, tiny_index):
        a, e = term_ids(tiny_index, "a", "e")
        assert_refuses(tiny_index, [a], e)

    def test_repeat_extension(self, tiny_index):
        (a,) = term_ids(tiny_index, "a")
        assert_refuses(tiny_index, [a], a)


class TestFeasibleOracle:
    def test_small_random_corpora(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            table = make_random_identifiers(50, 40, 4, seed=trial)
            index = build_index(table)
            for _ in range(150):
                row = index.sets[rng.integers(len(index.doc_ids))]
                depth = int(rng.integers(0, index.n + 1))
                prefix = [int(t) for t in rng.choice(row, size=depth, replace=False)]
                fast = feasible(index, prefix)
                slow = oracle_feasible(table, {index.dictionary.term_of(t) for t in prefix})
                assert names(index, fast) == slow
                assert np.array_equal(fast, naive_feasible_terms(index, prefix))

    def test_feasible_empty_iff_full_depth(self):
        table = make_random_identifiers(30, 25, 3, seed=9)
        index = build_index(table)
        for doc_id, terms in table.terms_by_doc.items():
            prefix = []
            for term in terms:
                assert len(feasible(index, prefix)) > 0
                prefix.append(index.dictionary.id_of(term))
            assert len(feasible(index, prefix)) == 0
            assert walk(index, prefix)[1].tolist() == [index.doc_position(doc_id)]

    def test_random_registry_refuses_more_docs_than_distinct_sets(self):
        assert len(make_random_identifiers(10, 5, 3).terms_by_doc) == math.comb(5, 3)
        with pytest.raises(DataError, match="only 10 distinct"):
            make_random_identifiers(11, 5, 3)


@st.composite
def registry_and_prefix(draw):
    """A small random registry and a prefix drawn from one of its identifiers."""
    n = draw(st.integers(1, 4))
    vocab = draw(st.integers(n + 1, 20))
    docs = draw(st.integers(1, min(30, math.comb(vocab, n))))
    table = make_random_identifiers(docs, vocab, n, seed=draw(st.integers(0, 99)))
    index = build_index(table)
    row = index.sets[draw(st.integers(0, len(index) - 1))]
    prefix = draw(st.permutations([int(t) for t in row]))[: draw(st.integers(0, n))]
    return index, prefix


@st.composite
def beams(draw):
    """A random registry, a searchable view of it and a beam of equal-depth prefixes.

    Each prefix is drawn from one registered identifier (any order under
    `Index`, the stored order under `SequenceView`); prefixes may repeat.
    """
    n = draw(st.integers(1, 4))
    vocab = draw(st.integers(n + 1, 20))
    docs = draw(st.integers(1, min(30, math.comb(vocab, n))))
    index = build_index(make_random_identifiers(docs, vocab, n, seed=draw(st.integers(0, 99))))
    sequence = draw(st.booleans())
    depth = draw(st.integers(0, n - 1))
    rows = draw(st.lists(st.integers(0, len(index) - 1), min_size=1, max_size=6)) if depth else [0]
    prefixes = [
        index.order[r, :depth] if sequence else draw(st.permutations(list(index.sets[r])))[:depth]
        for r in rows
    ]
    seqs = np.array(prefixes, dtype=np.int64).reshape(len(rows), depth)
    return (SequenceView(index) if sequence else index), seqs


class TestStepKernel:
    @settings(max_examples=100, deadline=None)
    @given(beams())
    def test_matches_brute_force_over_the_registry(self, case):
        searchable, seqs = case
        sequence = isinstance(searchable, SequenceView)
        index = searchable.index if sequence else searchable
        held = [holders(searchable, prefix) for prefix in seqs]
        ptr = np.cumsum([0] + [len(h) for h in held])
        step = searchable.expand(seqs, np.concatenate(held).astype(np.int32), ptr)

        want = []  # (parent, term, child postings), in (parent, term) order
        for h, (prefix, docs) in enumerate(zip(seqs, held)):
            if sequence:
                nexts = index.order[docs, len(prefix)][:, None]
            else:
                nexts = index.sets[docs]
            for term in np.setdiff1d(nexts, prefix):
                want.append((h, term, docs[(nexts == term).any(axis=1)]))
        assert step.parents.tolist() == [h for h, _, _ in want]
        assert step.terms.tolist() == [t for _, t, _ in want]
        assert step.sizes.tolist() == [len(c) for _, _, c in want]
        assert step.leads(np.arange(len(want))).tolist() == [c[0] for _, _, c in want]
        per_parent = [sum(p == h for p, _, _ in want) for h in range(len(seqs))]
        assert np.diff(step.offsets).tolist() == per_parent
        picks = np.arange(len(want))[::-1]  # any order, as the top-K cut picks them
        child_docs, child_ptr = step.children(picks)
        for i, pick in enumerate(picks):
            assert child_docs[child_ptr[i] : child_ptr[i + 1]].tolist() == want[pick][2].tolist()


def argsort_expand(searchable, seqs, docs, ptr, columns) -> Step:
    """The stable argsort over (hypothesis, term) keys that `_expand`'s one
    sort replaced, kept as its oracle. Its keys are the documents' positions."""
    vocab, width = len(searchable.dictionary), columns.shape[1]
    offsets = (np.arange(len(seqs)) * vocab).repeat(ptr[1:] - ptr[:-1])
    keys = (columns + offsets[:, None]).ravel()
    sort = keys.argsort(kind="stable")
    keys = keys[sort]
    positions = np.arange(len(docs)).repeat(width)[sort]
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = edges.nonzero()[0]
    starts = bounds[:-1]
    parents, terms = np.divmod(keys[starts], vocab)
    keep = ~(seqs[parents] == terms[:, None]).any(axis=1)
    starts, parents = starts[keep], parents[keep]
    layout = np.zeros(len(seqs), dtype=np.int64)  # every origin is 0: the keys are positions
    return Step(
        searchable, seqs, docs, parents, terms[keep].astype(columns.dtype),
        (bounds[1:] - bounds[:-1])[keep], positions, starts, layout, layout,
        np.searchsorted(parents, np.arange(len(seqs) + 1)),
    )


def expand_columns(searchable, seqs, docs):
    """The `columns` that `expand` hands `_expand`: the terms each document may add."""
    if isinstance(searchable, SequenceView):
        depth = seqs.shape[1]
        return searchable.index.order[docs, depth : depth + 1]
    return searchable.sets[docs]


def assert_same_step(got, want):
    """Equal `Step` arrays, values and dtypes; equal derived leads and, where `got`
    has keys, lead positions (each run's first key minus its origin); and equal
    child postings of every extension, picked in step order and reversed."""
    rows = np.arange(len(want.terms))
    for name in ("parents", "terms", "sizes", "offsets", "leads"):
        a, b = getattr(got, name), getattr(want, name)
        a, b = (a(rows), b(rows)) if name == "leads" else (a, b)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name
    if not isinstance(got, DenseStep):
        positions = got.keys[got.starts] - got.origins(rows)
        assert positions.tolist() == (want.keys[want.starts] - want.origins(rows)).tolist()
    for picks in (rows, rows[::-1]):
        for a, b in zip(got.children(picks), want.children(picks)):
            assert a.dtype == b.dtype, "children"
            assert a.tolist() == b.tolist(), "children"


@st.composite
def exhaustive_beams(draw):
    """Every distinct prefix of one depth of a random registry, as one beam."""
    n = draw(st.integers(1, 4))
    vocab = draw(st.integers(n + 1, 20))
    docs = draw(st.integers(1, min(30, math.comb(vocab, n))))
    index = build_index(make_random_identifiers(docs, vocab, n, seed=draw(st.integers(0, 99))))
    depth = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        prefixes = {tuple(row[:depth]) for row in index.order.tolist()}
        searchable = SequenceView(index)
    else:
        prefixes = {p for row in index.sets.tolist() for p in itertools.permutations(row, depth)}
        searchable = index
    return searchable, np.array(sorted(prefixes), dtype=np.int64).reshape(len(prefixes), depth)


class TestExpandOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(beams(), exhaustive_beams()))
    def test_equals_the_stable_argsort_expand(self, case):
        searchable, seqs = case
        held = [holders(searchable, prefix) for prefix in seqs]
        ptr = np.cumsum([0] + [len(h) for h in held])
        docs = np.concatenate(held).astype(np.int32)
        columns = expand_columns(searchable, seqs, docs)
        want = argsort_expand(searchable, seqs, docs, ptr, columns)
        assert_same_step(searchable.expand(seqs, docs, ptr), want)

    @pytest.mark.parametrize("bits", [31, 63])
    @pytest.mark.parametrize("num_docs", [2, 3, 1000])
    def test_keys_up_to_docs_times_vocabulary(self, bits, num_docs):
        """A beam of D documents over V terms sorts keys below 2 * D * V, below
        D * V with one document per hypothesis: int32 keys while D * V <= 2**31
        there, int64 beyond, and a refusal once D * V passes 2**63."""
        vocab = (1 << bits) // num_docs
        rng = np.random.default_rng(num_docs)
        pool = np.array([0, 1, vocab // 2, vocab - 2, vocab - 1])
        columns = np.array([np.sort(rng.choice(pool, 3, replace=False)) for _ in range(num_docs)])
        columns = columns.astype(np.int32 if bits == 31 else np.int64)
        cuts = np.sort(rng.choice(np.arange(1, num_docs), min(num_docs - 1, 4), replace=False))
        ptr = np.concatenate([[0], cuts, [num_docs]])
        seqs = rng.choice(pool, (len(ptr) - 1, 1))
        docs = np.arange(num_docs, dtype=np.int32)
        for v in (vocab, vocab + 1):
            searchable = SimpleNamespace(dictionary=range(v))
            if v * num_docs > 1 << 63:
                with pytest.raises(InvariantError, match="overflow the sort key"):
                    _expand(searchable, seqs, docs, ptr, columns)
                continue
            got = _expand(searchable, seqs, docs, ptr, columns)
            assert len(got.keys) == columns.size  # sorted, at 2 and 3 documents too
            if len(ptr) == num_docs + 1:  # one document per hypothesis: the keys' top is D * V
                assert got.keys.dtype == (np.int32 if v * num_docs <= 1 << 31 else np.int64)
            assert_same_step(got, argsort_expand(searchable, seqs, docs, ptr, columns))


@st.composite
def single_document_beams(draw):
    """A beam in which every hypothesis holds one document: (searchable, seqs, docs).

    Hypothesis h extends a prefix of depth 1..n-1 of document docs[h]'s
    identifier (any order under `Index`, the stored order under
    `SequenceView`). Documents may repeat, each time with its own prefix.
    """
    n = draw(st.integers(2, 5))
    vocab = draw(st.integers(n + 1, 20))
    num_docs = draw(st.integers(1, min(30, math.comb(vocab, n))))
    index = build_index(make_random_identifiers(num_docs, vocab, n, seed=draw(st.integers(0, 99))))
    sequence = draw(st.booleans())
    depth = draw(st.integers(1, n - 1))
    docs = draw(st.lists(st.integers(0, num_docs - 1), min_size=1, max_size=8))
    prefixes = [
        index.order[d, :depth] if sequence else draw(st.permutations(list(index.sets[d])))[:depth]
        for d in docs
    ]
    seqs = np.array(prefixes, dtype=np.int64).reshape(len(docs), depth)
    return (SequenceView(index) if sequence else index), seqs, np.array(docs, dtype=np.int32)


class TestDenseStep:
    @settings(max_examples=100, deadline=None)
    @given(single_document_beams())
    def test_equals_the_sort_path(self, case):
        """The dense tail's step, from `remaining`, equals `expand`'s sorted one."""
        searchable, seqs, docs = case
        remaining, free = searchable.remaining(seqs, docs)
        assert remaining.shape == (len(docs), searchable.n - seqs.shape[1])
        dense = DenseStep(searchable, seqs, docs, remaining if free else remaining[:, :1])
        assert_same_step(dense, searchable.expand(seqs, docs, np.arange(len(docs) + 1)))
        picks = np.arange(len(dense.terms))[::-1]
        child_docs, child_ptr = dense.children(picks)
        assert child_docs.dtype == docs.dtype
        assert child_docs.tolist() == dense.beam_docs[dense.parents[picks]].tolist()
        assert child_ptr.tolist() == list(range(len(picks) + 1))

    def test_as_many_documents_as_hypotheses_but_not_one_each_is_sorted(self, tiny_index):
        a, b, c, d, e = term_ids(tiny_index, "a", "b", "c", "d", "e")
        seqs = np.array([[a], [e]])  # D1 and D2 hold {a}; {e}'s one holder is left out
        docs, ptr = np.array([0, 1], dtype=np.int32), np.array([0, 2, 2])
        step = tiny_index.expand(seqs, docs, ptr)
        assert step.parents.tolist() == [0, 0, 0]
        assert step.terms.tolist() == [b, c, d]
        assert step.sizes.tolist() == [2, 1, 1]
        assert step.offsets.tolist() == [0, 3, 3]


class TestRootStep:
    FIELDS = ("parents", "terms", "sizes", "keys", "starts", "scale", "rowbase", "offsets",
              "lead_docs")

    def test_root_arrays_are_built_once_and_read_only(self, tiny_index):
        first, second = (tiny_index.expand(*root_beam(tiny_index)) for _ in range(2))
        assert first is not second
        for name in self.FIELDS:
            array = getattr(first, name)
            assert array is getattr(second, name), name
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_root_leads_are_the_first_postings(self, tiny_index):
        step = tiny_index.expand(*root_beam(tiny_index))
        rows = np.arange(len(step.terms))
        assert step.origins(rows).tolist() == [0] * len(rows)
        first = [tiny_index.postings(t)[0] for t in step.terms]
        assert step.leads(rows).tolist() == first
        assert Step.leads(step, rows).tolist() == first  # as derived from its keys

    def test_index_is_freed_by_reference_counting_after_a_search(self):
        """No reference cycle runs through the index: with the cyclic
        collector off, the last reference going frees it."""
        index = build_index(make_random_identifiers(40, 15, 3, seed=2))
        scorer = FeatureScorer.zeros(index)
        query = Query.from_text("q", " ".join(index.dictionary.terms[:2]))
        gone, collecting = weakref.ref(index), gc.isenabled()
        gc.disable()
        try:
            assert search(query, index, scorer, 5).entries
            del index
            assert gone() is None
        finally:
            if collecting:
                gc.enable()


class TestLog1pSizes:
    @pytest.mark.parametrize("num_docs, vocab, n, seed", [(1, 3, 3, 0), (300, 12, 4, 2)])
    def test_equals_np_log1p_up_to_the_largest_posting(self, num_docs, vocab, n, seed):
        index = build_index(make_random_identifiers(num_docs, vocab, n, seed=seed))
        sizes = np.arange(index.posting_sizes.max() + 1)
        assert len(index.log1p_sizes) == len(sizes)
        assert index.log1p_sizes.tobytes() == np.log1p(sizes).tobytes()
        for size in sizes.tolist():  # one at a time too, off the array loop
            assert index.log1p_sizes[size] == np.log1p(np.array([size]))[0], size
        with pytest.raises(ValueError, match="read-only"):
            index.log1p_sizes[:1] = 0

    def test_sequence_view_shares_the_index_table(self, tiny_index):
        assert SequenceView(tiny_index).log1p_sizes is tiny_index.log1p_sizes


def owning_arrays(index) -> list[np.ndarray]:
    """The distinct arrays owning a buffer reachable from the index's attributes or root step."""
    owners = []
    for array in (*vars(index).values(), *index._root):
        if not isinstance(array, np.ndarray):
            continue
        while isinstance(array.base, np.ndarray):
            array = array.base
        if not any(array is owner for owner in owners):
            owners.append(array)
    return owners


class TestMemoryBytes:
    @pytest.mark.parametrize("loaded", [False, True])
    def test_counts_every_buffer_once(self, tmp_path, loaded):
        index = build_index(make_random_identifiers(200, 30, 4, seed=3))
        if loaded:
            save_index(index, tmp_path / "index.bin")
            index = load_index(tmp_path / "index.bin")
        owners = owning_arrays(index)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(owners, 2))
        held = (index.order, index.sets, index.posting_docs, index.posting_ptr,
                index.posting_sizes, index.all_docs, index.root_feasible, index.log1p_sizes)
        for array in held + index._root:
            assert any(np.shares_memory(array, owner) for owner in owners)
        strings = sum(len(t.encode()) for t in index.dictionary.terms)
        strings += sum(len(d.encode()) for d in index.doc_ids)
        assert index.memory_bytes() == sum(owner.nbytes for owner in owners) + strings
        # the root step's keys are the postings and its terms the root feasible set
        once = sum(a.nbytes for a in held + index._root)
        once -= index.posting_docs.nbytes + index.root_feasible.nbytes
        assert index.memory_bytes() == once + strings


class TestExpansion:
    @settings(max_examples=60, deadline=None)
    @given(registry_and_prefix())
    def test_matches_brute_force_over_sets(self, case):
        index, prefix = case
        step = index.expand(*walk(index, prefix))
        terms, sizes = step.terms, step.sizes
        assert np.array_equal(terms, naive_feasible_terms(index, prefix))
        survivors = holders(index, prefix)
        for term, size in zip(terms, sizes):
            assert size == len(survivors[(index.sets[survivors] == term).any(axis=1)])
        at = step.locate(np.zeros(len(terms), dtype=np.int64), terms[::-1])
        assert np.array_equal(step.sizes[at], sizes[::-1])

    def test_locate_misses_an_infeasible_candidate(self, tiny_index):
        a, b, e = term_ids(tiny_index, "a", "b", "e")
        step = tiny_index.expand(*walk(tiny_index, [a]))
        hyps = np.zeros(5, dtype=np.int64)
        got = step.locate(hyps, np.array([b, e, a, -1, len(tiny_index.dictionary)]))
        assert got[0] >= 0 and step.terms[got[0]] == b
        assert got[1:].tolist() == [-1] * 4  # e is elsewhere, a is in the prefix
        view = SequenceView(tiny_index)
        assert view.expand(*root_beam(view)).locate(hyps[:1], np.array([b])).tolist() == [-1]


class TestCompleteAndPruning:
    def test_partial_prefix_returns_none(self, tiny_index):
        a, b = term_ids(tiny_index, "a", "b")
        seqs, docs, _ = walk(tiny_index, [a, b])
        assert doc_names(tiny_index, docs) == {"D1", "D2"}
        with pytest.raises(InvariantError, match="incomplete"):
            rank_documents(seqs, np.zeros(1), docs[:1], tiny_index)

    def test_full_prefix_names_unique_doc(self, tiny_index):
        a, b, c = term_ids(tiny_index, "a", "b", "c")
        seqs, docs, _ = walk(tiny_index, [a, b, c])
        assert doc_names(tiny_index, docs) == {"D1"}
        assert rank_documents(seqs, np.zeros(1), docs, tiny_index).doc_ids() == ["D1"]

    def test_exhaustive_walk_reaches_single_posting(self):
        table = make_random_identifiers(20, 15, 3, seed=4)
        index = build_index(table)

        def visit(seqs, docs, ptr):
            if seqs.shape[1] == index.n:
                assert len(docs) == 1
                assert index.doc_ids[docs[0]] in table.terms_by_doc
                return
            step = index.expand(seqs, docs, ptr)
            for i in range(len(step.terms)):
                child_seqs, child_docs, child_ptr, _ = step.descend(np.array([i]))
                assert len(child_docs) >= 1
                assert set(child_docs.tolist()) <= set(docs.tolist())
                visit(child_seqs, child_docs, child_ptr)

        visit(*root_beam(index))

    def test_postings_monotonically_shrink(self):
        table = make_random_identifiers(80, 50, 5, seed=6)
        index = build_index(table)
        rng = np.random.default_rng(1)
        for _ in range(50):
            row = index.sets[rng.integers(len(index.doc_ids))]
            order = rng.permutation(index.n)
            sizes = [len(walk(index, row[order][:depth])[1]) for depth in range(index.n + 1)]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[-1] == 1


class TestSequenceView:
    def test_feasible_is_next_stored_terms(self, tiny_index):
        view = SequenceView(tiny_index)
        assert names(tiny_index, feasible(view, [])) == {"a", "e"}  # D1 and D2 start with "a"
        (a,) = term_ids(tiny_index, "a")
        assert names(tiny_index, feasible(view, [a])) == {"b"}

    def test_complete_follows_stored_order(self, tiny_index):
        view = SequenceView(tiny_index)
        a, b, d = term_ids(tiny_index, "a", "b", "d")
        assert doc_names(view, walk(view, [a, b, d])[1]) == {"D2"}

    def test_wrong_order_is_infeasible(self, tiny_index):
        view = SequenceView(tiny_index)
        (b,) = term_ids(tiny_index, "b")
        assert_refuses(view, [], b)

    def test_every_stored_sequence_reachable(self):
        table = make_random_identifiers(25, 20, 4, seed=2)
        index = build_index(table)
        view = SequenceView(index)
        for doc_id in table.doc_ids:
            prefix = [index.dictionary.id_of(term) for term in table.terms_by_doc[doc_id]]
            assert walk(view, prefix)[1].tolist() == [index.doc_position(doc_id)]


MAGIC = b"termset-index/3\n"
HEADER = struct.Struct("<5Q")  # n, docs, terms, then the terms' and doc ids' byte lengths
START = len(MAGIC) + HEADER.size


def index_bytes(n: int, terms: list[str], doc_ids: list[str], order) -> bytes:
    """A `termset-index/3` file assembled field by field from the README's layout."""
    term_text, doc_text = "\n".join(terms).encode(), "\n".join(doc_ids).encode()
    head = MAGIC + HEADER.pack(n, len(doc_ids), len(terms), len(term_text), len(doc_text))
    strings = head + term_text + doc_text
    return strings + bytes(-len(strings) % 8) + np.asarray(order, dtype="<i4").tobytes()


def layout(data: bytes) -> dict[str, int]:
    """Where each section of a well-formed index file starts, and its length."""
    n, docs, _, terms_size, docs_size = HEADER.unpack_from(data, len(MAGIC))
    pad = START + terms_size + docs_size
    order = pad + -pad % 8
    return {"magic": 0, "header": len(MAGIC), "terms": START, "docs": START + terms_size, "pad": pad,
            "order": order, "rows": [order + 4 * n * r for r in range(1, docs)], "end": len(data)}


def with_header(data: bytes, **fields) -> bytes:
    """`data` with some header fields (n, docs, terms, terms_size, docs_size) replaced."""
    names = ("n", "docs", "terms", "terms_size", "docs_size")
    values = dict(zip(names, HEADER.unpack_from(data, len(MAGIC))), **fields)
    return MAGIC + HEADER.pack(*(values[k] for k in names)) + data[START:]


def with_ids(data: bytes, edit) -> bytes:
    """`data` with its term-id section replaced by `edit(ids)` of a copy of its flat ids."""
    at = layout(data)["order"]
    ids = np.frombuffer(data, "<i4", offset=at).astype(np.int64)
    return data[:at] + np.asarray(edit(ids), dtype="<i4").tobytes()


def set_id(k: int, value: int):
    def edit(ids):
        ids[k] = value
        return ids
    return edit


def save_bytes(index: Index) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "index.bin")
        return (Path(tmp) / "index.bin").read_bytes()


def load_bytes(data: bytes) -> Index:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "index.bin").write_bytes(data)
        return load_index(Path(tmp) / "index.bin")


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, tiny_index):
        path_a = tmp_path / "index_a.bin"
        path_b = tmp_path / "index_b.bin"
        save_index(tiny_index, path_a)
        loaded = load_index(path_a)
        save_index(loaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_bytes() == index_bytes(3, list("abcdefg"), ["D1", "D2", "D3"],
                                                  [[0, 1, 2], [0, 1, 3], [4, 5, 6]])
        assert_same_index(loaded, tiny_index)
        assert loaded.order.flags.owndata  # a copy: the index does not pin the file's bytes

    def test_round_trip_random(self, tmp_path):
        table = make_random_identifiers(60, 45, 4, seed=8)
        renamed = {f"d\u00f3c\t{d}": [f"t\u00e9rmino {t}" for t in terms]
                   for d, terms in table.terms_by_doc.items()}
        for index in (build_index(table), build_index(IdentifierTable(4, renamed))):
            save_index(index, tmp_path / "i.bin")
            loaded = load_index(tmp_path / "i.bin")
            assert_same_index(loaded, index)
            save_index(loaded, tmp_path / "j.bin")
            assert (tmp_path / "i.bin").read_bytes() == (tmp_path / "j.bin").read_bytes()

    def test_zero_width_identifier_saves(self, tmp_path):
        save_index(build_index(IdentifierTable(0, {"a": []})), tmp_path / "index.bin")
        data = (tmp_path / "index.bin").read_bytes()
        assert data == MAGIC + HEADER.pack(0, 1, 0, 0, 1) + b"a" + bytes(7)
        loaded = load_index(tmp_path / "index.bin")
        assert (loaded.n, loaded.doc_ids, loaded.dictionary.terms) == (0, ["a"], [])
        assert save_bytes(loaded) == data

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_text("something-else/9\nn\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a termset-index/3 file"):
            load_index(path)

    def test_truncated_records(self, tiny_index):
        data = save_bytes(tiny_index)
        where = layout(data)
        cuts = [where[k] for k in ("header", "terms", "docs", "pad", "order")] + where["rows"]
        cuts += [where["end"] - 1, 0, len(MAGIC) - 1, START - 1]
        assert len(set(cuts)) == len(cuts)
        for cut in cuts:
            message = f"the header gives {len(data)} bytes, the file has {cut}"
            if cut < START:
                message = "not a termset-index/3" if cut < len(MAGIC) else "truncated header"
            with pytest.raises(DataError, match=message):
                load_bytes(data[:cut])

    def test_no_postings_section(self, tiny_index):
        """The file holds the header, the strings, the padding and `order`, and nothing after."""
        data = save_bytes(tiny_index)
        where = layout(data)
        assert where["order"] % 8 == 0 and where["order"] - where["pad"] < 8
        assert where["end"] == where["order"] + tiny_index.order.nbytes
        with pytest.raises(DataError, match="the file has"):
            load_bytes(data + bytes(8))

    # the tiny index file: the terms a-g (bytes 56-68), the doc ids (69-76), three bytes of
    # padding, then the term ids D1 = 0,1,2 (ids 0-2), D2 = 0,1,3 (3-5) and D3 = 4,5,6 (6-8)
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:-2], "the header gives 116 bytes, the file has 114"),
            (lambda data: with_ids(data, set_id(2, 99)), r"'D1': term id outside \[0, 7\)"),
            (lambda data: with_ids(data, set_id(2, -1)), r"'D1': term id outside \[0, 7\)"),
            (lambda data: with_ids(data, set_id(2, 2**31 - 1)), r"'D1': term id outside \[0, 7\)"),
            (lambda data: with_ids(data, set_id(2, 1)), "'D1': identifier repeats a term"),
            (lambda data: with_ids(data, lambda ids: [0, 1, 2, 2, 1, 0, 4, 5, 6]),
             "'D2': identifier set repeats that of document 'D1'"),
            (lambda data: data[:-4], "the header gives 116 bytes, the file has 112"),
            (lambda data: data.replace(b"D1\nD2", b"D1\tD2"),
             "the header counts 3 documents, the file holds 2"),
            (lambda data: data.replace(b"a\nb", b"b\na"), "terms not unique and in sorted order"),
            (lambda data: data.replace(b"D1\nD2", b"D2\nD1"), "documents not unique and in sorted order"),
            (lambda data: data[:77] + b"\0\1\0" + data[80:], "padding before the term ids is not zero"),
        ],
        ids=["id-not-int", "id-too-large", "id-negative", "id-overflows", "repeated-term",
             "colliding-set", "short-row", "no-separator", "terms-unsorted", "docs-unsorted",
             "padding"],
    )
    def test_malformed_record_is_data_error(self, tmp_path, tiny_index, edit, message):
        path = tmp_path / "index.bin"
        save_index(tiny_index, path)
        ids = np.frombuffer(path.read_bytes(), "<i4", offset=80)
        assert ids.tolist() == [0, 1, 2, 0, 1, 3, 4, 5, 6]
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: (document )?{message}"):
            load_index(path)

    @pytest.mark.parametrize("field", ["n", "docs", "terms", "terms_size", "docs_size"])
    @pytest.mark.parametrize("value", [2**40, 2**63, 2**64 - 1])
    def test_inflated_header_counts_are_data_errors(self, tiny_index, field, value):
        with pytest.raises(DataError, match="the header (gives|counts)"):
            load_bytes(with_header(save_bytes(tiny_index), **{field: value}))

    def test_inflated_document_count_of_zero_width_rows(self):
        """With n = 0 the rows take no bytes, so the doc ids must refuse the count."""
        data = with_header(save_bytes(build_index(IdentifierTable(0, {"a": []}))), docs=2**40)
        with pytest.raises(DataError, match=f"the header counts {2**40} documents, the file holds 1"):
            load_bytes(data)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"D1": ["a", "b"], "D\n2": ["a", "c"]}, r"document id 'D\\n2' holds a newline"),
            ({"D1": ["a", "b"], "D2": ["a", "c\nd"]}, r"term 'c\\nd' holds a newline"),
        ],
        ids=["doc-newline", "term-newline"],
    )
    def test_unwritable_id_is_refused_before_writing(self, tmp_path, rows, message):
        index = build_index(IdentifierTable(2, rows))
        with pytest.raises(DataError, match=message):
            save_index(index, tmp_path / "index.bin")
        assert list(tmp_path.iterdir()) == []

    def test_load_and_build_check_each_row_once(self, tmp_path, monkeypatch):
        """`load_index` checks the file's rows once; `build_index` checks none, nor encodes."""
        table = make_random_identifiers(20, 10, 3, seed=5)
        save_index(build_index(table), tmp_path / "index.bin")
        calls = []
        check = index_module._first_bad_row
        monkeypatch.setattr(index_module, "_first_bad_row", lambda *a: calls.append(a) or check(*a))
        for name in ("_first_bad_row", "_encode_identifiers"):
            monkeypatch.setattr(importance, name, mock.Mock(side_effect=AssertionError))
        assert_same_index(load_index(tmp_path / "index.bin"), build_index(table))
        assert len(calls) == 1


def oracle_load_index(path) -> Index:
    """A field-by-field `termset-index/3` reader: one string, one id, one row at a time."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a termset-index/3 file (rebuild it with build-index)")
    if len(data) < START:
        raise DataError(f"{path}: truncated header")
    n, num_docs, num_terms, terms_size, docs_size = HEADER.unpack(data[len(MAGIC) : START])
    strings_end = START + terms_size + docs_size
    order_at = strings_end + (8 - strings_end % 8) % 8
    if order_at + 4 * n * num_docs != len(data):
        raise DataError(f"{path}: the header gives {order_at + 4 * n * num_docs} bytes, "
                        f"the file has {len(data)}")
    if data[strings_end:order_at] != bytes(order_at - strings_end):
        raise DataError(f"{path}: padding before the term ids is not zero")
    if num_docs == 0:
        raise DataError(f"{path}: empty registry")
    sections = []
    for at, size, count, what in [(START, terms_size, num_terms, "terms"),
                                  (START + terms_size, docs_size, num_docs, "documents")]:
        strings, start = [], at
        for i in range(at, at + size + 1):
            if i == at + size or data[i] == ord("\n"):
                try:
                    strings.append(data[start:i].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: byte {start + exc.start} is not UTF-8 text") from None
                start = i + 1
        if size == 0 and count == 0:
            strings = []
        if len(strings) != count:
            raise DataError(f"{path}: the header counts {count} {what}, the file holds {len(strings)}")
        sections.append(strings)
    terms, doc_ids = sections
    if not all(a < b for a, b in zip(terms, terms[1:])):
        raise DataError(f"{path}: terms not unique and in sorted order")
    if not all(a < b for a, b in zip(doc_ids, doc_ids[1:])):
        raise DataError(f"{path}: documents not unique and in sorted order")
    rows = [[struct.unpack_from("<i", data, order_at + 4 * (d * n + k))[0] for k in range(n)]
            for d in range(num_docs)]
    for d, row in enumerate(rows):
        if not all(0 <= t < num_terms for t in row):
            raise DataError(f"{path}: document {doc_ids[d]!r}: term id outside [0, {num_terms})")
    for d, row in enumerate(rows):
        if len(set(row)) < n:
            raise DataError(f"{path}: document {doc_ids[d]!r}: identifier repeats a term")
    first_holder = {}
    for d, row in enumerate(rows):
        earlier = first_holder.setdefault(frozenset(row), d)
        if earlier != d:
            raise DataError(f"{path}: document {doc_ids[d]!r}: identifier set repeats that of "
                            f"document {doc_ids[earlier]!r}")
    order = np.array(rows, dtype=np.int32).reshape(num_docs, n)
    return Index(IdentifierTable._checked(n, TermDictionary(terms), doc_ids, order, np.sort(order, 1)))


INDEX_ARRAYS = ("order", "sets", "posting_docs", "posting_ptr", "posting_sizes", "root_feasible",
                "all_docs")


def assert_same_index(a: Index, b: Index):
    assert a.doc_ids == b.doc_ids
    assert a.dictionary.terms == b.dictionary.terms
    for name in INDEX_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    """A saved 30-document index with a scorer and queries for it."""
    out = tmp_path_factory.mktemp("index-fuzz")
    index = build_index(make_random_identifiers(30, 12, 3, seed=1))
    save_index(index, out / "index.bin")
    rng = np.random.default_rng(0)
    terms = index.dictionary.terms
    scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms, rng.uniform(0, 2, len(terms)))
    save_scorer(scorer, out / "scorer.txt")
    queries = [{"query_id": f"q{i}", "text": " ".join(terms[i : i + 2])} for i in range(3)]
    (out / "queries.jsonl").write_text("".join(json.dumps(q) + "\n" for q in queries), "utf-8")
    return out


def assert_loads_as_the_oracle(data: bytes):
    """`load_index` and `oracle_load_index` give equal indexes, or DataErrors with one message.

    A file either loads and saves back to the same bytes, or is refused.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        path.write_bytes(data)
        got, want = outcome(load_index, path), outcome(oracle_load_index, path)
    assert got[0] == want[0], (got[1], want[1])
    if got[0] == "ok":
        assert_same_index(got[1], want[1])
        assert save_bytes(got[1]) == data
    else:
        assert got[0] == "DataError"
        assert got[1] == want[1]


@st.composite
def id_field_edits(draw, data: bytes):
    """A saved index with its term-id section edited: one id set, two swapped, or a row copied.

    Set ids sit on the edges the row checks guard: just inside and outside
    the dictionary, negative, and the extremes of `<i4`.
    """
    n, _, num_terms, _, _ = HEADER.unpack_from(data, len(MAGIC))
    kind = draw(st.sampled_from(["set", "swap", "copy-row"]))

    def edit(ids):
        i, j = (draw(st.integers(0, len(ids) - 1)) for _ in range(2))
        if kind == "set":
            edges = st.sampled_from([-(2**31), 2**31 - 1])
            ids[i] = draw(st.one_of(st.integers(-2, num_terms + 1), edges))
        elif kind == "swap":
            ids[i], ids[j] = ids[j], ids[i]
        else:
            rows = ids.reshape(-1, n)
            rows[j // n] = draw(st.permutations(rows[i // n].tolist()))
        return ids

    return with_ids(data, edit)


@st.composite
def header_edits(draw, data: bytes):
    """A saved index with one header field moved by one or set to a count that fits no file."""
    names = ("n", "docs", "terms", "terms_size", "docs_size")
    k = draw(st.integers(0, len(names) - 1))
    value = HEADER.unpack_from(data, len(MAGIC))[k]
    new = draw(st.sampled_from([max(value - 1, 0), value + 1, 0, 2**40, 2**64 - 1]))
    return with_header(data, **{names[k]: new})


class TestIndexFileFuzz:
    """Mutated index files: the bulk reader agrees with the field-by-field oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_id_field_edits_load_as_the_record_by_record_reader(self, index_file, data):
        mutated = (index_file / "index.bin").read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(id_field_edits(mutated))
        assert_loads_as_the_oracle(mutated)

    def test_a_range_error_is_named_before_an_earlier_repeated_term(self, tmp_path, tiny_index):
        """Each check runs over every row before the next check: the first failing check wins."""
        save_index(tiny_index, tmp_path / "index.bin")
        data = with_ids((tmp_path / "index.bin").read_bytes(), lambda ids: [0, 1, 1, 0, 1, 3, 4, 5, 99])
        (tmp_path / "index.bin").write_bytes(data)
        for load in (load_index, oracle_load_index):
            with pytest.raises(DataError, match=r"index\.bin: document 'D3': term id outside \[0, 7\)"):
                load(tmp_path / "index.bin")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_load_matches_the_record_by_record_reader(self, index_file, data):
        saved = (index_file / "index.bin").read_bytes()
        mutated = data.draw(st.one_of(st.just(saved), header_edits(saved)))
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(file_mutations(mutated))
        assert_loads_as_the_oracle(mutated)

    @pytest.mark.parametrize(
        "rename",
        [
            lambda s: "" if s == "t00" else s,  # the empty term: a blank line of the terms section
            lambda s: s + " " * (1 + int(s[-1]) % 2),
            lambda s: s + "\t",
            lambda s: s.replace("0", " "),
            lambda s: s.replace("1", "\u0661"),
            lambda s: s[:2] + "\r\x0c\x85\u2028"[int(s[-1]) % 4] + s[2:],  # `str.splitlines` breaks
        ],
        ids=["blank-line", "trailing-blanks", "trailing-tab", "spaces", "arabic-digit", "line-breaks"],
    )
    def test_unusual_valid_files_load_as_before(self, tmp_path, rename):
        """Ids that broke text records round-trip: the strings hold anything but a newline."""
        table = make_random_identifiers(30, 12, 3, seed=1)
        renamed = {rename(d): [rename(t) for t in terms] for d, terms in table.terms_by_doc.items()}
        index = build_index(IdentifierTable(3, renamed))
        assert index.dictionary.terms != sorted({t for ts in table.terms_by_doc.values() for t in ts})
        save_index(index, tmp_path / "index.bin")
        assert_same_index(load_index(tmp_path / "index.bin"), index)
        assert_loads_as_the_oracle((tmp_path / "index.bin").read_bytes())

    def test_bare_t_record_is_the_empty_term(self, tmp_path, tiny_index):
        """A blank first line of the terms section is the empty term, held by no document."""
        data = save_bytes(tiny_index)
        where = layout(data)
        n, docs, terms, terms_size, docs_size = HEADER.unpack_from(data, len(MAGIC))
        head = MAGIC + HEADER.pack(n, docs, terms + 1, terms_size + 1, docs_size)
        head += b"\n" + data[START : where["pad"]]
        ids = np.frombuffer(data, "<i4", offset=where["order"]) + 1  # each id past the empty term
        data = head + bytes(-len(head) % 8) + ids.astype("<i4").tobytes()
        (tmp_path / "index.bin").write_bytes(data)
        loaded = load_index(tmp_path / "index.bin")
        assert loaded.dictionary.terms == ["", *tiny_index.dictionary.terms]
        for doc in tiny_index.doc_ids:
            assert loaded.identifier_terms(doc) == tiny_index.identifier_terms(doc)
        assert_loads_as_the_oracle(data)

    @pytest.mark.parametrize("docs, message", [(0, "empty registry"), (3, "header counts")])
    def test_file_without_document_records(self, tmp_path, tiny_index, docs, message):
        data = save_bytes(tiny_index)
        where = layout(data)
        strings = data[: where["docs"]]  # the header and the terms; no doc ids
        order = data[where["order"] :] if docs else b""
        data = strings + bytes(-len(strings) % 8) + order
        (tmp_path / "index.bin").write_bytes(with_header(data, docs=docs, docs_size=0))
        for load in (load_index, oracle_load_index):
            with pytest.raises(DataError, match=message):
                load(tmp_path / "index.bin")

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_mutated_index_exits_0_or_2_without_traceback(self, index_file, data):
        saved = (index_file / "index.bin").read_bytes()
        edits = st.one_of(file_mutations(saved), id_field_edits(saved), header_edits(saved))
        mutated = data.draw(edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.bin"
            path.write_bytes(mutated)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["search", "--index", str(path), "--scorer", str(index_file / "scorer.txt"),
                           "--queries", str(index_file / "queries.jsonl"),
                           "--output", str(Path(tmp) / "run.txt")])
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


def argsort_postings(index: Index) -> dict[str, np.ndarray]:
    """Term postings from a stable argsort of the flat set matrix, as built before the key sort."""
    ids = np.repeat(np.arange(len(index.doc_ids), dtype=np.int32), index.n)
    flat = index.sets.ravel()
    sort = np.argsort(flat, kind="stable")
    ptr = np.searchsorted(flat[sort], np.arange(len(index.dictionary) + 1))
    sizes = np.diff(ptr)
    return {"posting_docs": ids[sort], "posting_ptr": ptr, "posting_sizes": sizes,
            "root_feasible": np.flatnonzero(sizes > 0).astype(np.int32)}


def encoded(terms_by_doc: dict[str, list[str]]) -> dict[str, object]:
    """A registry encoded by hand: sorted terms, then each row's ids and postings in doc-id order."""
    doc_ids = sorted(terms_by_doc)
    terms = sorted({t for ts in terms_by_doc.values() for t in ts})
    rows = [[terms.index(t) for t in terms_by_doc[d]] for d in doc_ids]
    postings = [[d for d, row in enumerate(rows) if t in row] for t in range(len(terms))]
    sizes = [len(docs) for docs in postings]
    return {
        "doc_ids": doc_ids,
        "terms": terms,
        "order": np.array(rows, dtype=np.int32),
        "sets": np.array([sorted(row) for row in rows], dtype=np.int32),
        "posting_docs": np.array([d for docs in postings for d in docs], dtype=np.int32),
        "posting_ptr": np.array([0, *itertools.accumulate(sizes)], dtype=np.int64),
    }


def registry_case(case: str) -> tuple[IdentifierTable, dict[str, list[str]]]:
    """A table and the strings it was built from, in an insertion order that is not sorted."""
    if case == "placeholders":
        bodies = {"B": "t1 t2", "A": "t1 t2", "D": "t1 t2", "C": "t3 t4"}
        corpus = ingest_corpus([{"doc_id": d, "title": "", "body": b} for d, b in bodies.items()])
        # weight 1 - first position: a document's terms rank in the order they occur
        model = ImportanceModel(np.array([0.0, 0.0, 0.0, -1.0, 0.0, 1.0]))
        rows = {"B": ["t1", "\u27c2B:0"], "A": ["t1", "t2"], "D": ["t1", "\u27c2D:0"], "C": ["t3", "t4"]}
        return build_identifiers(corpus, model, 2, 2), rows
    base = make_random_identifiers(60, 45, 4, seed=8).terms_by_doc
    if case == "unicode-and-tab":  # the ids of `test_round_trip_random`, last document first
        rows = {f"d\u00f3c\t{d}": [f"t\u00e9rmino {t}" for t in terms] for d, terms in base.items()}
        rows = dict(reversed(rows.items()))
    else:
        doc_ids = list(base)
        rows = {doc_ids[i]: base[doc_ids[i]] for i in np.random.default_rng(0).permutation(60)}
    return IdentifierTable(4, rows), rows


class TestBuildOracle:
    @pytest.mark.parametrize("case", ["shuffled", "unicode-and-tab", "placeholders"])
    def test_build_equals_an_encode_in_doc_id_order(self, case):
        table, rows = registry_case(case)
        assert list(rows) != sorted(rows)
        index, want = build_index(table), encoded(rows)
        assert (index.doc_ids, index.dictionary.terms) == (want.pop("doc_ids"), want.pop("terms"))
        for name, array in want.items():
            got = getattr(index, name)
            assert got.dtype == array.dtype and np.array_equal(got, array), name
        assert table.terms_by_doc == rows

    def test_index_shares_the_tables_read_only_arrays(self):
        table = make_random_identifiers(30, 12, 3, seed=2)
        index = build_index(table)
        for name in ("dictionary", "doc_ids", "order", "sets"):
            assert getattr(index, name) is getattr(table, name), name
        for array in (table.order, table.sets):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    @pytest.mark.parametrize("num_docs, vocab, n, seed",
                             [(1, 3, 3, 0), (40, 10, 2, 1), (300, 40, 4, 2), (500, 25, 6, 3)])
    def test_postings_equal_the_stable_argsort(self, num_docs, vocab, n, seed):
        table = make_random_identifiers(num_docs, vocab, n, seed=seed)
        index = build_index(table)
        want = np.array([[index.dictionary.id_of(t) for t in table.terms_by_doc[d]]
                         for d in table.doc_ids], dtype=np.int32)
        assert index.order.dtype == want.dtype and np.array_equal(index.order, want)
        for name, array in argsort_postings(index).items():
            assert getattr(index, name).dtype == array.dtype, name
            assert np.array_equal(getattr(index, name), array), name

    def test_unused_dictionary_terms_have_empty_postings(self):
        """A loaded file's dictionary may name terms no row holds."""
        table = make_random_identifiers(50, 9, 3, seed=4)
        built = build_index(table)
        wider = ["!", *built.dictionary.terms, "~"]
        order = built.order + 1  # the same terms, one place on in the wider dictionary
        index = load_bytes(index_bytes(3, wider, built.doc_ids, order))
        assert np.array_equal(index.order, order)
        for name, array in argsort_postings(index).items():
            assert getattr(index, name).dtype == array.dtype, name
            assert np.array_equal(getattr(index, name), array), name
        assert index.posting_sizes[[0, -1]].tolist() == [0, 0]

    def test_term_ids_outside_the_dictionary(self, tiny_index):
        data = index_bytes(3, tiny_index.dictionary.terms, tiny_index.doc_ids, tiny_index.order + 1)
        with pytest.raises(DataError, match=r"document 'D3': term id outside \[0, 7\)"):
            load_bytes(data)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda rows: rows["D00007"].append("t99"), "identifier of D00007 has 4 terms, want 3"),
            (lambda rows: rows["D00007"].__setitem__(2, rows["D00007"][0]),
             "identifier of D00007 repeats a term"),
            (lambda rows: rows.__setitem__("D00011", rows["D00004"][::-1]),
             "identifier collision between D00004 and D00011"),
        ],
        ids=["wrong-length", "repeated-term", "colliding-set"],
    )
    def test_table_mutated_after_construction_is_refused(self, tmp_path, mutate, message):
        """An edited `terms_by_doc` view is refused as a table, and leaves its own table as it was."""
        table = make_random_identifiers(20, 10, 3, seed=5)
        before = build_index(table)
        importance.write_identifier_file(table, tmp_path / "before.tsv")
        mutate(table.terms_by_doc)
        with pytest.raises(InvariantError, match=message):
            IdentifierTable(table.n, table.terms_by_doc)
        assert_same_index(build_index(table), before)
        importance.write_identifier_file(table, tmp_path / "after.tsv")
        assert (tmp_path / "after.tsv").read_bytes() == (tmp_path / "before.tsv").read_bytes()

    def test_build_does_not_revalidate_the_table(self, monkeypatch):
        table = make_random_identifiers(20, 10, 3, seed=5)
        for name in ("_first_bad_row", "_encode_identifiers"):
            monkeypatch.setattr(importance, name, mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(index_module, "_first_bad_row", mock.Mock(side_effect=AssertionError))
        assert len(build_index(table)) == 20
