"""Prefix-postings index: feasible sets, pruning, persistence."""

import contextlib
import io
import itertools
import json
import math
import tempfile
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
from termset_retrieval.corpus import Query
from termset_retrieval.decoder import rank_documents
from termset_retrieval.errors import DataError, InvariantError, parse_values, read_lines
from termset_retrieval.importance import IdentifierTable
from termset_retrieval.index import (
    Index,
    SequenceView,
    Step,
    TermDictionary,
    _dense_step,
    _expand,
    _sort_step,
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
        dictionary = TermDictionary(["a", "b", "c", "d"])
        order = np.array([[0, 1], [2, 3]], dtype=np.int32)
        with pytest.raises(InvariantError, match="sorted order"):
            Index(dictionary, doc_ids, order)


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
        assert step.leads.tolist() == [c[0] for _, _, c in want]
        per_parent = [sum(p == h for p, _, _ in want) for h in range(len(seqs))]
        assert np.diff(step.offsets).tolist() == per_parent
        picks = np.arange(len(want))[::-1]  # any order, as the top-K cut picks them
        child_docs, child_ptr = step.children(picks)
        for i, pick in enumerate(picks):
            assert child_docs[child_ptr[i] : child_ptr[i + 1]].tolist() == want[pick][2].tolist()


def argsort_expand(searchable, seqs, docs, ptr, columns) -> Step:
    """The stable argsort over (hypothesis, term) keys that `_expand`'s one
    sort replaced, kept as its oracle."""
    vocab, width = len(searchable.dictionary), columns.shape[1]
    offsets = (np.arange(len(seqs)) * vocab).repeat(ptr[1:] - ptr[:-1])
    keys = (columns + offsets[:, None]).ravel()
    sort = keys.argsort(kind="stable")
    keys = keys[sort]
    run_docs = docs.repeat(width)[sort]
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = edges.nonzero()[0]
    starts = bounds[:-1]
    parents, terms = np.divmod(keys[starts], vocab)
    keep = ~(seqs[parents] == terms[:, None]).any(axis=1)
    starts, parents = starts[keep], parents[keep]
    return Step(
        searchable, seqs, docs, ptr, parents, terms[keep].astype(columns.dtype),
        (bounds[1:] - bounds[:-1])[keep], run_docs[starts], run_docs, starts,
        np.searchsorted(parents, np.arange(len(seqs) + 1)),
    )


def expand_columns(searchable, seqs, docs):
    """The `columns` that `expand` hands `_expand`: the terms each document may add."""
    if isinstance(searchable, SequenceView):
        depth = seqs.shape[1]
        return searchable.index.order[docs, depth : depth + 1]
    return searchable.sets[docs]


def assert_same_step(got, want):
    """Equal `Step` arrays, values and dtypes."""
    for name in ("parents", "terms", "sizes", "leads", "run_docs", "starts", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


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
        """A beam of D documents over V terms sorts keys in [0, D * V): int32
        keys up to D * V = 2**31, int64 keys beyond, and a refusal past 2**63."""
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
            want = argsort_expand(searchable, seqs, docs, ptr, columns)
            assert_same_step(_expand(searchable, seqs, docs, ptr, columns), want)


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
        searchable, seqs, docs = case
        ptr = np.arange(len(docs) + 1)
        columns = expand_columns(searchable, seqs, docs)
        dense = _dense_step(searchable, seqs, docs, ptr, columns)
        assert_same_step(dense, _sort_step(searchable, seqs, docs, ptr, columns))
        with mock.patch.object(index_module, "_sort_step", side_effect=AssertionError("sorted")):
            assert_same_step(searchable.expand(seqs, docs, ptr), dense)
        picks = np.arange(len(dense.terms))[::-1]
        child_docs, child_ptr = dense.children(picks)
        assert child_docs.dtype == docs.dtype
        assert child_docs.tolist() == dense.run_docs[dense.starts[picks]].tolist()
        assert child_ptr.tolist() == list(range(len(picks) + 1))

    def test_as_many_documents_as_hypotheses_but_not_one_each_is_sorted(self, tiny_index):
        a, b, c, d, e = term_ids(tiny_index, "a", "b", "c", "d", "e")
        seqs = np.array([[a], [e]])  # D1 and D2 hold {a}; {e}'s one holder is left out
        docs, ptr = np.array([0, 1], dtype=np.int32), np.array([0, 2, 2])
        with mock.patch.object(index_module, "_dense_step", side_effect=AssertionError("dense")):
            step = tiny_index.expand(seqs, docs, ptr)
        assert step.parents.tolist() == [0, 0, 0]
        assert step.terms.tolist() == [b, c, d]
        assert step.sizes.tolist() == [2, 1, 1]
        assert step.offsets.tolist() == [0, 3, 3]


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


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, tiny_index):
        path_a = tmp_path / "index_a.txt"
        path_b = tmp_path / "index_b.txt"
        save_index(tiny_index, path_a)
        loaded = load_index(path_a)
        save_index(loaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert loaded.doc_ids == tiny_index.doc_ids
        assert np.array_equal(loaded.order, tiny_index.order)

    def test_round_trip_random(self, tmp_path):
        table = make_random_identifiers(60, 45, 4, seed=8)
        index = build_index(table)
        save_index(index, tmp_path / "i.txt")
        loaded = load_index(tmp_path / "i.txt")
        save_index(loaded, tmp_path / "j.txt")
        assert (tmp_path / "i.txt").read_bytes() == (tmp_path / "j.txt").read_bytes()

    def test_zero_width_identifier_saves(self, tmp_path):
        save_index(build_index(IdentifierTable(0, {"a": []})), tmp_path / "index.txt")
        text = (tmp_path / "index.txt").read_text(encoding="utf-8")
        assert text == "termset-index/2\nn\t0\ndocs\t1\nterms\t0\nD\ta\t\n"

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else/9\nn\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a termset-index"):
            load_index(path)

    def test_truncated_records(self, tmp_path, tiny_index):
        path = tmp_path / "trunc.txt"
        save_index(tiny_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="header counts"):
            load_index(path)

    def test_no_postings_section(self, tmp_path, tiny_index):
        path = tmp_path / "index.txt"
        save_index(tiny_index, path)
        tags = {line.split("\t", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()[4:]}
        assert tags == {"T", "D"}

    # the tiny index file: a header of four lines, seven T records (lines
    # 5-11), then D1 = 0,1,2 on line 12, D2 = 0,1,3 on 13 and D3 = 4,5,6 on 14
    @pytest.mark.parametrize(
        "lineno, text, message",
        [
            (12, "D\tD1\t0,x,2", ":12: term ids '0 x 2' is not a valid int"),
            (12, "D", ":12: document record"),
            (12, "D\tD1\t0,1,99", ":12: term id outside"),
            (12, "D\tD1\t0,1,-1", ":12: term id outside"),
            (12, "D\tD1\t0,1," + "9" * 20, ":12: term id outside"),
            (12, "D\tD1\t0,1,1", ":12: identifier repeats a term"),
            (13, "D\tD2\t2,1,0", ":13: identifier set repeats"),
            (14, "D\tD3\t4,5", ":14: expected 3 term ids"),
        ],
        ids=["id-not-int", "no-tab", "id-too-large", "id-negative", "id-overflows", "repeated-term",
             "colliding-set", "short-row"],
    )
    def test_malformed_record_is_data_error(self, tmp_path, tiny_index, lineno, text, message):
        path = tmp_path / "index.txt"
        save_index(tiny_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[11:14] == ["D\tD1\t0,1,2", "D\tD2\t0,1,3", "D\tD3\t4,5,6"]
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_index(path)


def oracle_load_index(path) -> Index:
    """The record-by-record `termset-index/2` reader that the bulk `load_index` replaced."""
    lines = read_lines(path)
    if not lines or lines[0] != "termset-index/2":
        raise DataError(f"{path}: not a termset-index/2 file")
    try:
        header = dict(line.split("\t", 1) for line in lines[1:4])
        n, num_docs, num_terms = (int(header[k]) for k in ("n", "docs", "terms"))
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}: malformed index header") from exc
    terms, doc_ids, rows, linenos = [], [], [], []
    for lineno, line in enumerate(lines[4:], start=5):
        if not line:
            continue
        tag, _, rest = line.partition("\t")
        if tag == "T":
            terms.append(rest)
        elif tag == "D":
            doc_id, tab, ids = rest.partition("\t")
            if not tab:
                raise DataError(f"{path}:{lineno}: document record is not 'D<TAB>doc<TAB>ids'")
            row = parse_values(int, ids.split(","), f"{path}:{lineno}: term ids")
            if len(row) != n:
                raise DataError(f"{path}:{lineno}: expected {n} term ids, got {len(row)}")
            doc_ids.append(doc_id)
            rows.append(row)
            linenos.append(lineno)
        else:
            raise DataError(f"{path}:{lineno}: unknown record tag {tag!r}")
    if len(terms) != num_terms or len(rows) != num_docs:
        raise DataError(f"{path}: header counts do not match records")
    if not rows:
        raise DataError(f"{path}: empty registry")
    if not all(a < b for a, b in zip(terms, terms[1:])):
        raise DataError(f"{path}: terms not unique and in sorted order")
    if not all(a < b for a, b in zip(doc_ids, doc_ids[1:])):
        raise DataError(f"{path}: documents not unique and in sorted order")
    try:
        order = np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        lineno = next(k for k, row in zip(linenos, rows) if max(map(abs, row)) >= 2**63)
        raise DataError(f"{path}:{lineno}: term id outside [0, {num_terms})") from exc
    sets = np.sort(order, axis=1)
    ranked = np.lexsort(sets.T[::-1])  # stable: of two equal sets, the later row ranks second
    repeated_set = np.zeros(len(order), dtype=bool)
    repeated_set[ranked[1:]] = (sets[ranked[1:]] == sets[ranked[:-1]]).all(axis=1)
    for bad, message in [
        (((order < 0) | (order >= num_terms)).any(axis=1), f"term id outside [0, {num_terms})"),
        ((sets[:, 1:] == sets[:, :-1]).any(axis=1), "identifier repeats a term"),
        (repeated_set, "identifier set repeats an earlier document's"),
    ]:
        if bad.any():
            raise DataError(f"{path}:{linenos[bad.argmax()]}: {message}")
    return Index(TermDictionary(terms), doc_ids, order.astype(np.int32))


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
    save_index(index, out / "index.txt")
    rng = np.random.default_rng(0)
    terms = index.dictionary.terms
    scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms, rng.uniform(0, 2, len(terms)))
    save_scorer(scorer, out / "scorer.txt")
    queries = [{"query_id": f"q{i}", "text": " ".join(terms[i : i + 2])} for i in range(3)]
    (out / "queries.jsonl").write_text("".join(json.dumps(q) + "\n" for q in queries), "utf-8")
    return out


def assert_loads_as_the_oracle(data: bytes):
    """`load_index` and `oracle_load_index` give equal indexes, or DataErrors with one message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.txt"
        path.write_bytes(data)
        got, want = outcome(load_index, path), outcome(oracle_load_index, path)
    assert got[0] == want[0], (got[1], want[1])
    if got[0] == "ok":
        assert_same_index(got[1], want[1])
    else:
        assert got[0] == "DataError"
        assert got[1] == want[1]


ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # U+0660-0669


@st.composite
def id_field_edits(draw, text: str):
    """A saved index with one `D` record's term ids respelled, or its id list broken.

    The edits sit on the edge of `save_index`'s spelling: ids of 19-25 digits,
    leading zeros, a sign, a space, non-ASCII digits, an underscore, an empty
    field, a trailing or doubled comma, and an empty id list.
    """
    lines = text.split("\n")
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("D\t")]))
    head, _, ids = lines[at].rpartition("\t")
    fields = ids.split(",")
    k = draw(st.integers(0, len(fields) - 1))
    value = fields[k]
    kind = draw(st.sampled_from(["padded", "long", "zeros", "plus", "space", "arabic", "underscore",
                                 "missing", "trailing-comma", "doubled-comma", "empty"]))
    if kind == "missing":  # an empty field between its commas
        fields[k] = ""
    elif kind == "padded":  # a small id spelled with 19-25 digits
        fields[k] = value.zfill(draw(st.integers(19, 25)))
    elif kind == "long":
        width = draw(st.integers(19, 25))
        fields[k] = str(draw(st.integers(10 ** (width - 1), 10**width - 1)))
    elif kind == "zeros":
        fields[k] = "0" * draw(st.integers(1, 3)) + value
    elif kind == "plus":
        fields[k] = "+" + value
    elif kind == "space":
        fields[k] = " " + value
    elif kind == "arabic":
        fields[k] = value.translate(ARABIC_DIGITS)
    elif kind == "underscore":
        fields[k] = value[0] + "_" + value[1:] if len(value) > 1 else "0_" + value
    ids = ",".join(fields)
    if kind == "trailing-comma":
        ids += ","
    elif kind == "doubled-comma":
        ids = ids.replace(",", ",,", 1) if "," in ids else ",," + ids
    elif kind == "empty":
        ids = ""
    lines[at] = f"{head}\t{ids}"
    return "\n".join(lines)


class TestIndexFileFuzz:
    """Mutated index files: the bulk reader agrees with the record-by-record oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_id_field_edits_load_as_the_record_by_record_reader(self, index_file, data):
        mutated = (index_file / "index.txt").read_text(encoding="utf-8")
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(id_field_edits(mutated))
        assert_loads_as_the_oracle(mutated.encode())

    def test_an_overflowing_id_is_named_after_an_earlier_id_outside_the_dictionary(
        self, tmp_path, tiny_index
    ):
        save_index(tiny_index, tmp_path / "index.txt")
        lines = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()
        lines[11] = "D\tD1\t0,1," + "1" * 19  # below 2**63, outside the dictionary
        lines[13] = "D\tD3\t4,5," + "9" * 20  # not an int64
        (tmp_path / "index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for load in (load_index, oracle_load_index):
            with pytest.raises(DataError, match=r"index\.txt:14: term id outside \[0, 7\)"):
                load(tmp_path / "index.txt")

    def test_saved_ids_are_parsed_without_the_int_fallback(self, tmp_path, index_file, monkeypatch):
        saved = load_index(index_file / "index.txt")

        def refuse(text):
            raise AssertionError("the int fallback read a save_index file")

        monkeypatch.setattr("termset_retrieval.index._int_ids", refuse)
        assert_same_index(load_index(index_file / "index.txt"), saved)
        save_index(saved, tmp_path / "index.txt")
        assert_same_index(load_index(tmp_path / "index.txt"), saved)
        # a spelling only `int` reads still takes the fallback
        lines = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()
        head, _, ids = lines[-1].rpartition("\t")
        lines[-1] = f"{head}\t+{ids}"
        (tmp_path / "index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AssertionError, match="int fallback"):
            load_index(tmp_path / "index.txt")

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_load_matches_the_record_by_record_reader(self, index_file, data):
        mutated = (index_file / "index.txt").read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(file_mutations(mutated))
        assert_loads_as_the_oracle(mutated)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:5] + [""] + lines[5:],  # a blank line among the terms
            lambda lines: lines[:4] + lines[11:] + lines[4:11],  # D records before T records
            lambda lines: lines + ["", ""],  # trailing blank lines
            lambda lines: lines[:13] + [lines[13] + "\t"],  # int() strips the tab
            lambda lines: lines[:13] + [lines[13].replace(",", ", ")],  # and spaces
            lambda lines: lines[:13] + [lines[13].replace("6", "\u0666")],  # and reads any digit
        ],
        ids=["blank-line", "docs-first", "trailing-blanks", "trailing-tab", "spaces",
             "arabic-digit"],
    )
    def test_unusual_valid_files_load_as_before(self, tmp_path, tiny_index, edit):
        save_index(tiny_index, tmp_path / "index.txt")
        lines = edit((tmp_path / "index.txt").read_text(encoding="utf-8").splitlines())
        (tmp_path / "index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_same_index(load_index(tmp_path / "index.txt"), oracle_load_index(tmp_path / "index.txt"))
        assert_same_index(load_index(tmp_path / "index.txt"), tiny_index)

    def test_bare_t_record_is_the_empty_term(self, tmp_path, tiny_index):
        save_index(tiny_index, tmp_path / "index.txt")
        lines = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()
        lines[3] = "terms\t8"
        (tmp_path / "index.txt").write_text("\n".join(lines[:4] + ["T"] + lines[4:]) + "\n", "utf-8")
        loaded = load_index(tmp_path / "index.txt")
        assert loaded.dictionary.terms == ["", *tiny_index.dictionary.terms]
        assert_same_index(loaded, oracle_load_index(tmp_path / "index.txt"))

    @pytest.mark.parametrize("docs, message", [(0, "empty registry"), (3, "header counts")])
    def test_file_without_document_records(self, tmp_path, tiny_index, docs, message):
        save_index(tiny_index, tmp_path / "index.txt")
        lines = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()[:11]
        lines[2] = f"docs\t{docs}"
        (tmp_path / "index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for load in (load_index, oracle_load_index):
            with pytest.raises(DataError, match=message):
                load(tmp_path / "index.txt")

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_mutated_index_exits_0_or_2_without_traceback(self, index_file, data):
        mutated = data.draw(file_mutations((index_file / "index.txt").read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.txt"
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


class TestBuildOracle:
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
        table = make_random_identifiers(50, 9, 3, seed=4)
        built = build_index(table)
        wider = TermDictionary(["!", *built.dictionary.terms, "~"])
        order = built.order + 1  # the same terms, one place on in the wider dictionary
        index = Index(wider, built.doc_ids, order)
        for name, array in argsort_postings(index).items():
            assert getattr(index, name).dtype == array.dtype, name
            assert np.array_equal(getattr(index, name), array), name
        assert index.posting_sizes[[0, -1]].tolist() == [0, 0]

    def test_term_ids_outside_the_dictionary(self, tiny_index):
        with pytest.raises(InvariantError, match="outside"):
            Index(tiny_index.dictionary, tiny_index.doc_ids, tiny_index.order + 1)

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
    def test_table_mutated_after_construction_is_refused(self, mutate, message):
        table = make_random_identifiers(20, 10, 3, seed=5)
        mutate(table.terms_by_doc)
        with pytest.raises(InvariantError, match=message):
            build_index(table)

    def test_build_does_not_revalidate_the_table(self, monkeypatch):
        table = make_random_identifiers(20, 10, 3, seed=5)
        calls = []
        check = importance._first_bad_row
        monkeypatch.setattr(importance, "_first_bad_row", lambda *args: calls.append(args) or check(*args))
        assert len(build_index(table)) == 20
        assert len(calls) == 1  # the row check runs once: no table is rebuilt or re-checked
