"""Prefix-postings index: feasible sets, pruning, persistence."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval.corpus import Query
from termset_retrieval.decoder import rank_documents
from termset_retrieval.errors import DataError, InvariantError
from termset_retrieval.importance import IdentifierTable
from termset_retrieval.index import (
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
from termset_retrieval.scorer import UniformScorer, sequence_logprob
from termset_retrieval.synthetic import make_random_identifiers

from conftest import holders, term_ids, walk


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
    starts = starts[keep]
    return Step(
        searchable, seqs, docs, ptr, parents[keep], terms[keep].astype(columns.dtype),
        (bounds[1:] - bounds[:-1])[keep], run_docs[starts], run_docs, starts,
    )


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
        if isinstance(searchable, SequenceView):
            depth = seqs.shape[1]
            columns = searchable.index.order[docs, depth : depth + 1]
        else:
            columns = searchable.sets[docs]
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
