"""Constrained beam search, ranking, and the permutation oracle."""

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval import decoder
from termset_retrieval.corpus import Query
from termset_retrieval.decoder import (
    brute_force_best_permutation,
    constrained_beam_search,
    format_run_lines,
    rank_documents,
    search,
)
from termset_retrieval.errors import DataError, InvariantError
from termset_retrieval.evaluation import read_run, recall_at_k
from termset_retrieval.importance import IdentifierTable, TermDictionary
from termset_retrieval.index import DenseStep, SequenceView, Step, build_index, root_beam
from termset_retrieval.scorer import (
    STEP_FEATURES,
    FeatureScorer,
    Scorer,
    UniformScorer,
    sequence_logprob,
)
from termset_retrieval.synthetic import make_random_identifiers

from conftest import holders, one_step


def query(text=""):
    return Query.from_text("q", text)


def random_scorer(index, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    return FeatureScorer(
        rng.normal(0, spread, size=len(STEP_FEATURES)),
        index.dictionary.terms,
        rng.uniform(0, 2, size=len(index.dictionary)),
    )


def reference_beam_search(query, searchable, scorer, beam_size):
    """The per-extension decoding loop, kept as the oracle for the batched step.

    Hypotheses are (term ids, log-likelihood) pairs; each is scored on its
    own one-row step. Returns the completed beam as `constrained_beam_search`
    does: sequences, log-likelihoods and document positions.
    """
    beam = [((), 0.0)]
    for _ in range(searchable.n):
        extensions = []
        for term_ids, ll in beam:
            step = one_step(searchable, term_ids)
            logprobs = scorer.step_scorer(query)(step)
            for term_id, lp in zip(step.terms.tolist(), logprobs):
                extensions.append((term_ids + (term_id,), ll + float(lp)))
        extensions.sort(key=_extension_order(searchable))
        if beam_size is not None:
            extensions = extensions[:beam_size]
        beam = extensions
    docs = [holders(searchable, term_ids) for term_ids, _ in beam]
    assert all(len(held) == 1 for held in docs)
    seqs = np.array([term_ids for term_ids, _ in beam], dtype=np.int64)
    return seqs, np.array([ll for _, ll in beam]), np.concatenate(docs)


def ranked(searchable, hypotheses, query_id=""):
    """`rank_documents` of a (seqs, lls, docs) triple."""
    return rank_documents(*hypotheses, searchable, query_id)


def _extension_order(searchable):
    """Likelihood desc (NaN last, as numpy sorts it), then the leading child doc's id,
    then the term-id sequence."""
    doc_ids = searchable.doc_ids

    def key(ext):
        term_ids, ll = ext
        nan = math.isnan(ll)
        return (nan, 0.0 if nan else -ll, doc_ids[int(holders(searchable, term_ids)[0])], term_ids)

    return key


class DepthScorer(Scorer):
    """Implements only segment_logprobs, so the beam goes through the base step_scorer."""

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        out = []
        for a, b in zip(ptr[:-1], ptr[1:]):
            scores = np.cos(step.terms[ext[a:b]] * (step.depth + 1.7))
            out.append(scores - np.log(np.exp(scores).sum()))
        return np.concatenate(out)


class NaNScorer(DepthScorer):
    """DepthScorer, but every fourth term id scores NaN."""

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        scores = super().segment_logprobs(queries, step, seg_query, ext, ptr)
        return np.where(step.terms[ext] % 4 == 1, np.nan, scores)


@st.composite
def search_cases(draw):
    """A small random registry, a searchable view of it, a scorer and a query.

    Identifiers run to six terms, so the deeper steps of a search mostly
    extend prefixes that each name one document (`DenseStep`).
    """
    n = draw(st.integers(1, 6))
    vocab = draw(st.integers(n + 1, 16))
    docs = draw(st.integers(1, min(25, math.comb(vocab, n))))
    index = build_index(make_random_identifiers(docs, vocab, n, seed=draw(st.integers(0, 999))))
    searchable = SequenceView(index) if draw(st.booleans()) else index
    if draw(st.booleans()):
        scorer = random_scorer(index, seed=draw(st.integers(0, 999)), spread=2.0)
    else:
        scorer = UniformScorer()
    words = draw(st.lists(st.sampled_from(index.dictionary.terms + ["zz"]), max_size=3))
    return searchable, scorer, Query.from_text("q", " ".join(words))


class TestBatchedStepOracle:
    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_matches_the_per_extension_loop(self, case):
        searchable, scorer, q = case
        exhaustive = (None,) if searchable.n <= 4 else ()  # the loop visits every permutation
        for beam in (1, 3, 10, *exhaustive):
            got = ranked(searchable, constrained_beam_search(q, searchable, scorer, beam))
            want = ranked(searchable, reference_beam_search(q, searchable, scorer, beam))
            assert got.canonical() == want.canonical(), beam

    def test_scorer_with_only_segment_logprobs(self):
        index = build_index(make_random_identifiers(40, 30, 4, seed=5))
        q = query("t03")
        for beam in (1, 5, None):
            got = search(q, index, DepthScorer(), beam_size=beam)
            want = ranked(index, reference_beam_search(q, index, DepthScorer(), beam), "q")
            assert got.canonical() == want.canonical()
            for entry in got.entries:
                ids = [index.dictionary.id_of(t) for t in entry.permutation]
                assert entry.score == pytest.approx(sequence_logprob(DepthScorer(), q, ids, index))


def record_sorts(monkeypatch):
    """Record (rows sorted, extensions in the step) per sort of the cut."""
    calls = []
    sort_rows = decoder._sort_rows

    def recording(step, step_ll, rows):
        order = sort_rows(step, step_ll, rows)
        calls.append((len(rows), len(step_ll)))
        return order

    monkeypatch.setattr(decoder, "_sort_rows", recording)
    return calls


class TestTopKCut:
    def test_ties_at_the_kth_value(self, monkeypatch):
        # the uniform scorer ties every extension of a parent, so many rows
        # share the K-th log-prob and all of them are sorted; at every beam,
        # depth 1 holds more than 4K rows, so the cut takes its pre-pass
        index = build_index(make_random_identifiers(150, 25, 3, seed=4))
        calls = record_sorts(monkeypatch)
        for beam in (2, 5, 13, 40):
            calls.clear()
            got = constrained_beam_search(query(), index, UniformScorer(), beam)
            want = reference_beam_search(query(), index, UniformScorer(), beam)
            assert ranked(index, got).canonical() == ranked(index, want).canonical()
            assert any(beam < rows < total for rows, total in calls), (beam, calls)

    @pytest.mark.parametrize("beam", [1, 3, 10])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_pre_pass_starts_above_4k_rows(self, monkeypatch, beam, extra):
        """At 4K rows the cut sorts the whole step, at 4K + 1 only the rows at or
        above the K-th value; both equal the full sort's head."""
        rows = 4 * beam + extra
        rng = np.random.default_rng(rows)
        step_ll = -rng.permutation(np.arange(rows) // 2).astype(float)  # pairs tie
        leads = rng.integers(0, 3, rows)
        step = SimpleNamespace(leads=lambda picks: leads[picks])
        full = decoder._sort_rows(step, step_ll, np.arange(rows))
        calls = record_sorts(monkeypatch)
        assert decoder.top_k_cut(step, step_ll, beam).tolist() == full[:beam].tolist()
        if extra:
            assert len(calls) == 1 and beam <= calls[0][0] < rows, calls
        else:
            assert calls == [(rows, rows)]

    @pytest.mark.parametrize(
        "num_docs, vocab, n, seed", [(20, 6, 3, 12), (21, 11, 4, 13), (10, 7, 3, 19), (19, 9, 4, 45)]
    )
    def test_uniform_ties_follow_the_sequence_across_parents(self, num_docs, vocab, n, seed):
        # every extension of a uniform step ties: past the lead, the cut orders
        # them by position, which is the sequence order only while the beam's
        # rows stay in lexicographic order
        index = build_index(make_random_identifiers(num_docs, vocab, n, seed=seed))
        for beam in (2, 3, 5, 8):
            seqs, lls, docs = constrained_beam_search(query(), index, UniformScorer(), beam)
            want = reference_beam_search(query(), index, UniformScorer(), beam)
            assert seqs.tolist() == want[0].tolist(), beam
            assert lls.tolist() == want[1].tolist() and docs.tolist() == want[2].tolist(), beam

    def test_nan_log_likelihoods_fall_back_to_the_full_sort(self, monkeypatch):
        # np.partition counts NaN as the largest value, which no `>=` holds
        # for, so the rows at or above the K-th value may be fewer than K
        index = build_index(make_random_identifiers(40, 30, 4, seed=5))
        step_logprobs = NaNScorer().step_scorer(query())
        root = index.expand(*root_beam(index))
        docs, ptr = root.children(np.arange(len(root.terms)))
        step = index.expand(root.terms[:, None].astype(np.int64), docs, ptr)
        step_ll = step_logprobs(root)[step.parents] + step_logprobs(step)
        finite = int(np.isfinite(step_ll).sum())
        assert 0 < finite < len(step_ll)
        full = decoder._sort_rows(step, step_ll, np.arange(len(step_ll)))
        calls = record_sorts(monkeypatch)
        for beam in (1, 2, 7, finite - 1, finite, finite + 1, finite + 5, len(step_ll) - 1):
            calls.clear()
            got = decoder.top_k_cut(step, step_ll, beam)
            assert got.tolist() == full[:beam].tolist(), beam
            if beam > finite:
                assert calls[-1] == (len(step_ll), len(step_ll)), (beam, calls)
        assert np.isnan(step_ll[full[finite:]]).all()


def record_tails(monkeypatch):
    """Record the first `DenseStep` each search steps into: a sorted step's successor.

    `DenseStep` makes its own successors, so `Step.next` builds only the first."""
    calls = []
    step_next = Step.next

    def recording(self, kept):
        got = step_next(self, kept)
        if isinstance(got, DenseStep):
            calls.append(got)
        return got

    monkeypatch.setattr(Step, "next", recording)
    return calls


class TestDenseTail:
    def test_expand_is_not_called_once_the_beam_is_dense(self, monkeypatch):
        index = build_index(make_random_identifiers(40, 30, 4, seed=5))
        scorer, q = random_scorer(index, seed=3), query("t03 t07")
        tails = record_tails(monkeypatch)
        expand, dense = index.expand, []

        def counted(seqs, docs, ptr):
            dense.append(ptr[-1] == len(seqs))
            return expand(seqs, docs, ptr)

        for beam in (1, 3, 10):
            tails.clear()
            dense.clear()
            with mock.patch.object(index, "expand", side_effect=counted) as calls:
                got = constrained_beam_search(q, index, scorer, beam)
            (tail,) = tails
            depth = tail.depth
            assert 0 < depth < index.n, beam
            assert calls.call_count == depth and not any(dense), beam
            want = reference_beam_search(q, index, scorer, beam)
            assert ranked(index, got).canonical() == ranked(index, want).canonical(), beam

    def test_nan_at_a_dense_depth_takes_the_full_sort(self, monkeypatch):
        index = build_index(make_random_identifiers(40, 30, 4, seed=5))
        full_sorts = []
        sort_rows = decoder._sort_rows

        def recording(step, step_ll, rows):
            if isinstance(step, DenseStep) and len(rows) == len(step_ll):
                full_sorts.append((len(rows), bool(np.isnan(step_ll).any())))
            return sort_rows(step, step_ll, rows)

        monkeypatch.setattr(decoder, "_sort_rows", recording)
        for beam in (2, 3):
            full_sorts.clear()
            seqs, lls, docs = constrained_beam_search(query(), index, NaNScorer(), beam)
            assert any(rows > beam and nan for rows, nan in full_sorts), beam
            want = reference_beam_search(query(), index, NaNScorer(), beam)
            assert seqs.tolist() == want[0].tolist() and docs.tolist() == want[2].tolist()
            assert np.array_equal(lls, want[1], equal_nan=True)
            nan = np.isnan(lls)
            assert nan.any() and nan[np.argmax(nan) :].all()  # NaN last
            assert ranked(index, (seqs, lls, docs)).canonical() == ranked(index, want).canonical()

    def test_order_variants_of_one_document_are_both_kept(self, monkeypatch):
        # after one term every prefix names one document: the tail orders the rest
        index = build_index(IdentifierTable(3, {"D1": ["a", "b", "c"], "D2": ["d", "e", "f"]}))
        tails = record_tails(monkeypatch)
        ids = {t: index.dictionary.id_of(t) for t in "abcdef"}
        for beam, kept in ((4, "abcd"), (None, "abcdef")):
            tails.clear()
            seqs, lls, docs = constrained_beam_search(query(), index, UniformScorer(), beam)
            (tail,) = tails
            assert tail.depth == 1
            assert tail.seqs[:, 0].tolist() == [ids[t] for t in kept]
            assert tail.beam_docs.tolist().count(0) == 3  # a, b and c each hold D1
            want = reference_beam_search(query(), index, UniformScorer(), beam)
            assert seqs.tolist() == want[0].tolist()
            if beam is None:
                perms = {p for row in ("abc", "def") for p in itertools.permutations(row)}
                terms = {tuple(index.dictionary.term_of(t) for t in row) for row in seqs.tolist()}
                assert terms == perms
            else:
                assert docs.tolist() == [0] * 4 and len(set(map(tuple, seqs.tolist()))) == 4

    @pytest.mark.parametrize("sequence", [False, True])
    def test_sequence_view_and_the_exhaustive_beam(self, monkeypatch, sequence):
        # every 3-term prefix of this registry names one document: the exhaustive beam turns dense
        index = build_index(make_random_identifiers(30, 30, 4, seed=0))
        searchable = SequenceView(index) if sequence else index
        scorer, q = random_scorer(index, seed=4, spread=2.0), query("t01 t05")
        tails = record_tails(monkeypatch)
        for beam in (None, 1, 3):
            tails.clear()
            got = constrained_beam_search(q, searchable, scorer, beam)
            assert len(tails) == 1 and tails[0].depth < searchable.n, beam
            want = reference_beam_search(q, searchable, scorer, beam)
            assert ranked(searchable, got).canonical() == ranked(searchable, want).canonical()


class TestBeamSearch:
    def test_k1_produces_one_registered_identifier(self, tiny_index, tiny_table):
        seqs, _, docs = constrained_beam_search(query(), tiny_index, UniformScorer(), beam_size=1)
        assert len(seqs) == len(docs) == 1
        terms = frozenset(tiny_index.dictionary.term_of(t) for t in seqs[0].tolist())
        assert terms == frozenset(tiny_table.terms_by_doc[tiny_index.doc_ids[docs[0]]])

    def test_every_hypothesis_is_full_depth_and_valid(self, tiny_index, tiny_table):
        seqs, _, docs = constrained_beam_search(query(), tiny_index, UniformScorer(), beam_size=5)
        sets = {d: frozenset(t) for d, t in tiny_table.terms_by_doc.items()}
        assert seqs.shape == (len(docs), tiny_index.n)
        for term_ids, doc in zip(seqs.tolist(), docs.tolist()):
            assert len(set(term_ids)) == tiny_index.n
            terms = frozenset(tiny_index.dictionary.term_of(t) for t in term_ids)
            assert terms == sets[tiny_index.doc_ids[doc]]

    def test_exhaustive_beam_matches_brute_force(self):
        table = make_random_identifiers(12, 18, 3, seed=2)
        index = build_index(table)
        scorer = random_scorer(index, seed=4)
        q = Query.from_text("q", "t03 t10")
        result = ranked(index, constrained_beam_search(q, index, scorer, beam_size=None), "q")
        assert len(result.entries) == 12
        for entry in result.entries:
            perm, ll = brute_force_best_permutation(q, entry.doc_id, scorer, index)
            assert abs(ll - entry.score) < 1e-9

    def test_beam_entries_unique_and_order_variants_retained(self, tiny_index):
        # orders differ in child sizes (log1p_postings): same set, different scores
        scorer = random_scorer(tiny_index, seed=8)
        beam = [((), 0.0)]
        seen_any_order_pair = False
        for _ in range(tiny_index.n):
            extensions = []
            for term_ids, ll in beam:
                step = one_step(tiny_index, term_ids)
                lps = scorer.step_scorer(query("a b"))(step)
                for t, lp in zip(step.terms.tolist(), lps):
                    extensions.append((term_ids + (t,), ll + float(lp)))
            extensions.sort(key=lambda e: -e[1])
            beam = extensions[:6]
            sequences = [term_ids for term_ids, _ in beam]
            assert len(sequences) == len(set(sequences))
            by_set = {}
            for term_ids in sequences:
                by_set.setdefault(frozenset(term_ids), []).append(term_ids)
            if any(len(v) > 1 for v in by_set.values()):
                seen_any_order_pair = True
        assert seen_any_order_pair

    def test_a_registry_that_repeats_a_set_is_an_invariant_error(self):
        """Tables and index files refuse one; built around their checks, its full-length
        prefixes name two documents, which search and the teacher walk refuse."""
        order = np.array([[0, 1], [1, 0]], dtype=np.int32)
        index = build_index(IdentifierTable._checked(2, TermDictionary(["a", "b"]), ["D1", "D2"],
                                                     order, np.sort(order, axis=1)))
        with pytest.raises(InvariantError, match="full-length prefix maps to more than one"):
            constrained_beam_search(query(), index, UniformScorer(), None)
        with pytest.raises(InvariantError, match="full-length prefix maps to more than one"):
            sequence_logprob(UniformScorer(), query(), [0, 1], index)

    def test_beam_size_validation(self, tiny_index):
        with pytest.raises(DataError, match="beam size"):
            constrained_beam_search(query(), tiny_index, UniformScorer(), beam_size=0)

    def test_cumulative_logprob_non_increasing(self, tiny_index):
        seqs, lls, _ = constrained_beam_search(query(), tiny_index, UniformScorer(), beam_size=None)
        for term_ids, ll in zip(seqs.tolist(), lls.tolist()):
            partial = 0.0
            for depth, term_id in enumerate(term_ids):
                step = one_step(tiny_index, term_ids[:depth])
                lp = UniformScorer().step_scorer(query())(step)
                partial += float(lp[int(np.searchsorted(step.terms, term_id))])
                assert partial <= 1e-12
            assert partial == pytest.approx(ll)


class TestRankDocuments:
    def hypotheses(self, index, spec):
        """spec: list of (terms, logprob); each sequence's document is found by a scan."""
        seqs = np.array([[index.dictionary.id_of(t) for t in terms] for terms, _ in spec],
                        dtype=np.int64).reshape(len(spec), index.n)
        docs = np.array([holders(index, row)[0] for row in seqs], dtype=np.int64)
        return seqs, np.array([ll for _, ll in spec]), docs

    def test_example_ranking(self, tiny_index):
        # per-document maxima -12.8 / -16.5 / -31.0 rank D3 > D1 > D2
        hyps = self.hypotheses(
            tiny_index,
            [(["e", "f", "g"], -12.8), (["a", "b", "c"], -16.5), (["a", "b", "d"], -31.0)],
        )
        result = rank_documents(*hyps, tiny_index, "q")
        assert result.doc_ids() == ["D3", "D1", "D2"]
        assert [e.score for e in result.entries] == [-12.8, -16.5, -31.0]

    def test_max_aggregation_over_permutations(self, tiny_index):
        hyps = self.hypotheses(
            tiny_index, [(["a", "b", "c"], -3.0), (["b", "a", "c"], -2.0)]
        )
        result = rank_documents(*hyps, tiny_index, "q")
        assert len(result.entries) == 1
        assert result.entries[0].score == -2.0
        assert result.entries[0].permutation == ("b", "a", "c")

    def test_exact_tie_keeps_the_smaller_sequence(self, tiny_index):
        # term ids follow sorted terms, so (c, a, b) < (c, b, a), whichever comes first
        for spec in ([(["c", "b", "a"], -4.0), (["c", "a", "b"], -4.0)],
                     [(["c", "a", "b"], -4.0), (["c", "b", "a"], -4.0)]):
            result = rank_documents(*self.hypotheses(tiny_index, spec), tiny_index, "q")
            assert [(e.doc_id, e.score, e.permutation) for e in result.entries] == [
                ("D1", -4.0, ("c", "a", "b"))
            ]

    def test_equal_scores_tie_by_doc_id(self, tiny_index):
        hyps = self.hypotheses(
            tiny_index, [(["a", "b", "d"], -5.0), (["e", "f", "g"], -5.0), (["a", "b", "c"], -5.0)]
        )
        result = rank_documents(*hyps, tiny_index, "q")
        assert result.doc_ids() == ["D1", "D2", "D3"]

    def test_empty_input(self, tiny_index):
        result = rank_documents(*self.hypotheses(tiny_index, []), tiny_index, "q")
        assert result.entries == []


class TestBruteForce:
    def test_single_term_identifier(self):
        index = build_index(IdentifierTable(1, {"D1": ["only"], "D2": ["other"]}))
        scorer = UniformScorer()
        perm, ll = brute_force_best_permutation(query(), "D1", scorer, index)
        assert perm == ("only",)
        assert ll == pytest.approx(math.log(1 / 2))

    def test_uniform_scorer_ties_equal_any_sequence(self, tiny_index):
        perm, ll = brute_force_best_permutation(query(), "D1", UniformScorer(), tiny_index)
        ids = [tiny_index.dictionary.id_of(t) for t in perm]
        assert ll == pytest.approx(sequence_logprob(UniformScorer(), query(), ids, tiny_index))

    def test_refuses_large_n(self):
        table = make_random_identifiers(3, 30, 9, seed=0)
        index = build_index(table)
        with pytest.raises(DataError, match="refusing"):
            brute_force_best_permutation(query(), "D00000", UniformScorer(), index)


class TestSearchProperties:
    def test_determinism(self):
        table = make_random_identifiers(40, 35, 4, seed=3)
        index = build_index(table)
        scorer = random_scorer(index, seed=5)
        q = Query.from_text("q", "t07 t21 t00")
        first = search(q, index, scorer, beam_size=7)
        second = search(q, index, scorer, beam_size=7)
        assert first.canonical() == second.canonical()

    def test_validity_bijection_random(self):
        table = make_random_identifiers(60, 40, 4, seed=11)
        index = build_index(table)
        sets = {d: frozenset(t) for d, t in table.terms_by_doc.items()}
        for seed in range(4):
            scorer = random_scorer(index, seed=seed)
            q = Query.from_text("q", "t05 t12 t30")
            result = search(q, index, scorer, beam_size=12)
            docs = result.doc_ids()
            assert len(docs) == len(set(docs))
            scores = [e.score for e in result.entries]
            assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
            for entry in result.entries:
                assert frozenset(entry.permutation) == sets[entry.doc_id]
                assert len(entry.permutation) == index.n

    def test_recall_non_decreasing_in_beam_on_fixed_fixtures(self):
        # Beam search guarantees no subset relation between beams, so this
        # weaker form checks recall over the retrieved set on fixtures known
        # to behave, with the query-blind uniform scorer.
        for seed in (3, 7):
            table = make_random_identifiers(30, 26, 3, seed=seed)
            index = build_index(table)
            for probe in range(5):
                doc = table.doc_ids[probe * 5]
                q = Query.from_text("q", " ".join(table.terms_by_doc[doc]))
                recalls = []
                for beam in (1, 2, 4, 8, 16, 32, 64, None):
                    result = search(q, index, UniformScorer(), beam_size=beam)
                    recalls.append(recall_at_k(result.doc_ids(), {doc}, beam or 10**6))
                assert recalls == sorted(recalls), (seed, doc, recalls)
                assert recalls[-1] == 1.0  # exhaustive beam retrieves everything


class TestRunOutput:
    def test_format_and_round_trip(self, tiny_index):
        entries = search(query("a b"), tiny_index, UniformScorer(), beam_size=5)
        lines = format_run_lines([entries], tag="tagx")
        for rank, line in enumerate(lines, start=1):
            fields = line.split(" ")
            assert len(fields) == 6
            assert fields[1] == "Q0"
            assert int(fields[3]) == rank
            assert fields[5] == "tagx"
        parsed = read_run(lines)
        assert parsed["q"] == [e.doc_id for e in entries.entries]

    def test_tag_validation(self, tiny_index):
        result = search(query(), tiny_index, UniformScorer(), beam_size=1)
        for tag in ["bad tag", ""]:  # an empty tag leaves run lines of 5 fields
            with pytest.raises(DataError, match="tag"):
                format_run_lines([result], tag=tag)
