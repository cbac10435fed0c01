"""Step probabilities, sequence likelihoods, teacher-forced training."""

import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval import scorer as scorer_module
from termset_retrieval.corpus import Query
from termset_retrieval.decoder import constrained_beam_search
from termset_retrieval.errors import DataError
from termset_retrieval.importance import IdentifierTable
from termset_retrieval.index import SequenceView, build_index, load_index, root_beam, save_index
from termset_retrieval.scorer import (
    STEP_FEATURES,
    FeatureScorer,
    Scorer,
    UniformScorer,
    _log_softmax,
    _query_slots,
    check_compatible,
    load_scorer,
    save_scorer,
    sequence_logprob,
    sequence_logprobs,
)
from termset_retrieval.synthetic import make_random_identifiers

from conftest import (
    STEM_WORDS,
    central_difference,
    max_relative_error,
    one_step,
    term_ids,
    word_registry,
)


def query(text=""):
    return Query.from_text("q", text)


def logsumexp(scores):
    """One segment's log-sum-exp, as a pairwise `.sum()` and `math.log`."""
    m = scores.max()
    return m + math.log(np.exp(scores - m).sum())


class TestStepLogprob:
    def test_uniform_over_seven(self, tiny_index):
        step = one_step(tiny_index, [])
        lps = UniformScorer().step_scorer(query())(step)
        assert np.allclose(lps, math.log(1 / 7))
        zeros = FeatureScorer.zeros(tiny_index)
        lps2 = zeros.step_scorer(query())(step)
        assert np.allclose(lps2, math.log(1 / 7))

    def test_single_candidate_is_certain(self, tiny_index):
        a, c = term_ids(tiny_index, "a", "c")
        scorer = FeatureScorer.zeros(tiny_index)
        lps = scorer.step_scorer(query())(one_step(tiny_index, [a, c]))
        assert lps.shape == (1,)
        assert lps[0] == 0.0

    def test_constant_score_shift_changes_nothing(self, tiny_index):
        step = one_step(tiny_index, [])
        rng = np.random.default_rng(3)
        weights = rng.normal(0, 1, size=len(STEP_FEATURES))
        scorer = FeatureScorer(weights, tiny_index.dictionary.terms,
                               rng.uniform(0, 1, len(tiny_index.dictionary)))
        base = scorer.step_scorer(query("a c"))(step)
        # term_weight is a feature, so this adds one constant to every score
        shifted = FeatureScorer(weights, scorer.terms, scorer.term_weights + 13.7)
        after = shifted.step_scorer(query("a c"))(step)
        assert np.allclose(base, after, atol=1e-12)

    def test_probabilities_sum_to_one_and_logprobs_nonpositive(self):
        table = make_random_identifiers(40, 30, 4, seed=5)
        index = build_index(table)
        rng = np.random.default_rng(7)
        scorer = FeatureScorer(rng.normal(0, 2, size=len(STEP_FEATURES)),
                               index.dictionary.terms,
                               rng.uniform(0, 3, len(index.dictionary)))
        q = query("t03 t11 nonsense")
        for _ in range(40):
            row = index.sets[rng.integers(len(index.doc_ids))]
            depth = int(rng.integers(0, index.n))
            lps = scorer.step_scorer(q)(one_step(index, rng.choice(row, size=depth, replace=False)))
            assert abs(np.exp(lps).sum() - 1.0) < 1e-9
            assert np.all(lps <= 0.0)

    def test_empty_candidates_rejected(self, tiny_index):
        # a full-length prefix has no extension: its segment is empty
        full = one_step(tiny_index, term_ids(tiny_index, "a", "b", "c"))
        none = (np.zeros(1, dtype=np.int64), np.arange(0), np.array([0, 0]))
        for scorer in (UniformScorer(), FeatureScorer.zeros(tiny_index)):
            with pytest.raises(DataError, match="empty candidate"):
                scorer.step_scorer(query())(full)
            with pytest.raises(DataError, match="empty candidate"):
                scorer.segment_logprobs([query()], one_step(tiny_index, []), *none)


def isin_features(scorer, query, candidates, sizes):
    """The two `np.isin` calls the per-query lookup replaced, kept as its oracle."""
    exact = [i for i, t in enumerate(scorer.terms) if t in query.terms]
    stems = {t[:4] for t in query.terms}
    prefix = [i for i, t in enumerate(scorer.terms) if t[:4] in stems]
    feats = np.empty((len(candidates), len(STEP_FEATURES)))
    feats[:, 0] = np.isin(candidates, exact)
    feats[:, 1] = np.isin(candidates, prefix)
    feats[:, 2] = scorer.term_weights[candidates]
    feats[:, 3] = np.log1p(sizes)
    return feats


# stems of at most four characters make prefix-4 collisions likely
WORDS = st.builds(
    str.__add__,
    st.sampled_from(["brid", "fill", "ab", "t00"]),
    st.sampled_from(["", "ge", "s", "1x"]),
)


@st.composite
def lookup_cases(draw):
    terms = sorted(set(draw(st.lists(WORDS, min_size=1, max_size=12))))
    # query words repeat, and may be out of vocabulary; the query may be empty
    words = draw(st.lists(st.one_of(st.sampled_from(terms), WORDS, st.just("zz")), max_size=6))
    candidates = draw(st.lists(st.integers(0, len(terms) - 1), max_size=20))
    seed = draw(st.integers(0, 999))
    return terms, Query("q", " ".join(words), words), np.array(candidates, dtype=np.int64), seed


def row_scores(scorer, feats):
    """Each row's weighted feature sum, added in STEP_FEATURES order."""
    w = scorer.weights
    return ((feats[:, 0] * w[0] + feats[:, 1] * w[1]) + feats[:, 2] * w[2]) + feats[:, 3] * w[3]


class TestQueryLookup:
    @settings(max_examples=200, deadline=None)
    @given(lookup_cases())
    def test_features_equal_the_isin_formulation_bitwise(self, case):
        terms, q, candidates, seed = case
        rng = np.random.default_rng(seed)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms,
                               rng.uniform(0, 2, len(terms)))
        sizes = rng.integers(1, 50, len(candidates))
        want = isin_features(scorer, q, candidates, sizes)
        # one segment of the candidates, as a step's extensions
        step = SimpleNamespace(terms=candidates, sizes=sizes, offsets=np.array([0, len(sizes)]))
        if not len(candidates):
            with pytest.raises(DataError, match="empty candidate"):
                scorer.step_scorer(q)(step)
            return
        scores = row_scores(scorer, want)
        expected = _log_softmax(scores, step.offsets)
        assert scorer.step_scorer(q)(step).tobytes() == expected.tobytes()


class TestSegmentNormalization:
    def test_equals_logsumexp_per_segment_bitwise(self):
        """Normalizing a segment among others gives what it gives alone, and
        its sum of exps is the pairwise `.sum()` of the segment."""
        rng = np.random.default_rng(11)
        lengths = [1, 7, 8, 9, 128, 129, 257, 9, 1, 128, 7, 257, 8, 129, 1000]
        offsets = np.cumsum([0] + lengths)
        scores = rng.normal(0, 3, size=offsets[-1])
        got = _log_softmax(scores, offsets)
        for a, b in zip(offsets[:-1], offsets[1:]):
            segment = scores[a:b].copy()
            assert got[a:b].tobytes() == _log_softmax(segment, np.array([0, b - a])).tobytes()
            m = segment.max()
            assert got[a:b].tobytes() == (segment - (m + np.log(np.exp(segment - m).sum()))).tobytes()
            assert np.allclose(got[a:b], segment - logsumexp(segment), rtol=0, atol=1e-14)


    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 127, 128, 129, 1007, 5000])
    def test_equal_widths_normalize_as_one_block_bitwise(self, rows, width):
        """Segments of one width, normalized as the rows of one block, equal
        each row's pairwise-sum log-sum-exp and the segment-by-segment path."""
        rng = np.random.default_rng(rows * 10_000 + width)
        offsets = np.arange(rows + 1) * width
        scores = rng.normal(0, 3, size=offsets[-1])
        got = _log_softmax(scores, offsets)
        for a, b in zip(offsets[:-1], offsets[1:]):
            row = scores[a:b].copy()
            m = row.max()
            assert got[a:b].tobytes() == (row - (m + np.log(np.exp(row - m).sum()))).tobytes()
        # one more segment of another width sends the same segments through reduceat
        extra = rng.normal(0, 3, size=width + 1)
        mixed = _log_softmax(np.concatenate([scores, extra]), np.append(offsets, offsets[-1] + width + 1))
        assert got.tobytes() == mixed[: len(scores)].tobytes()

    @pytest.mark.parametrize("offsets", [[0, 0], [0, 0, 0], [0, 3, 3], [0, 3, 3, 6]])
    def test_an_empty_segment_is_refused(self, offsets):
        with pytest.raises(DataError, match="empty candidate"):
            _log_softmax(np.zeros(offsets[-1]), np.array(offsets))


class TestSequenceLogprob:
    def test_abc_path(self, tiny_index):
        ids = term_ids(tiny_index, "a", "b", "c")
        ll = sequence_logprob(UniformScorer(), query(), ids, tiny_index)
        assert ll == pytest.approx(math.log(1 / 42), abs=1e-12)

    def test_efg_path(self, tiny_index):
        ids = term_ids(tiny_index, "e", "f", "g")
        expected = math.log(1 / 7) + math.log(1 / 2) + math.log(1 / 1)
        ll = sequence_logprob(UniformScorer(), query(), ids, tiny_index)
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_infeasible_sequence(self, tiny_index):
        a, e = term_ids(tiny_index, "a", "e")
        with pytest.raises(DataError, match="infeasible"):
            sequence_logprob(UniformScorer(), query(), [a, e], tiny_index)

    def test_non_increasing_along_prefix(self, tiny_index):
        ids = term_ids(tiny_index, "a", "b", "d")
        partials = [
            sequence_logprob(UniformScorer(), query(), ids[:k], tiny_index) for k in range(4)
        ]
        assert all(partials[i + 1] <= partials[i] for i in range(3))


def teacher_walk(searchable, term_ids):
    """Walk `term_ids` one prefix at a time, yielding each step before taking it.

    Yields (the prefix's one-row step, position of the next term among its
    extensions); a term that is not feasible raises DataError. The per-pair
    walk the teacher kernel replaced, kept as its oracle.
    """
    for depth, term_id in enumerate(term_ids):
        step = one_step(searchable, term_ids[:depth])
        pos = int(np.searchsorted(step.terms, term_id))
        if pos >= len(step.terms) or step.terms[pos] != term_id:
            raise DataError(f"term id {int(term_id)} infeasible at prefix {tuple(term_ids[:depth])}")
        yield step, pos


def walk_logprob(scorer, query, term_ids, searchable):
    total = 0.0
    for step, pos in teacher_walk(searchable, term_ids):
        total += float(scorer.step_scorer(query)(step)[pos])
    return total


def walk_loss_and_grad(scorer, batch, searchable):
    """The per-pair teacher-forcing loop `loss_and_grad` replaced."""
    total_loss = 0.0
    grad = np.zeros_like(scorer.weights)
    for query, target in batch:
        for step, pos in teacher_walk(searchable, target):
            feats = isin_features(scorer, query, step.terms, step.sizes)
            scores = feats @ scorer.weights
            logprobs = scores - logsumexp(scores)
            total_loss -= logprobs[pos]
            grad += np.exp(logprobs) @ feats - feats[pos]
    return total_loss / len(batch), grad / len(batch)


class SizeScorer(Scorer):
    """Implements only segment_logprobs, from the step's child sizes, depth and queries."""

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        counts = np.diff(ptr)
        scores = np.log1p(step.sizes[ext]) * (step.depth + 0.5)
        scores += 0.1 * np.repeat([len(queries[q].terms) for q in seg_query.tolist()], counts)
        return _log_softmax(scores, ptr)


@st.composite
def teacher_cases(draw):
    """A registry with shared 4-character stems, a view of it, a scorer and a batch.

    Rows share query objects, may repeat a target, and may stop short of N.
    """
    n = draw(st.integers(1, 4))
    vocab = draw(st.integers(n + 1, len(STEM_WORDS)))
    docs = draw(st.integers(1, min(20, math.comb(vocab, n))))
    index = build_index(word_registry(docs, vocab, n, seed=draw(st.integers(0, 999))))
    sequence_view = draw(st.booleans())
    searchable = SequenceView(index) if sequence_view else index
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    kind = draw(st.sampled_from(["feature", "uniform", "size"]))
    if kind == "feature":
        scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
    else:
        scorer = UniformScorer() if kind == "uniform" else SizeScorer()
    words = st.lists(st.sampled_from(STEM_WORDS + ("zz",)), max_size=4)
    pool = [Query.from_text(f"q{i}", " ".join(draw(words))) for i in range(draw(st.integers(1, 3)))]
    queries, targets = [], []
    for _ in range(draw(st.integers(1, 8))):
        row = index.order[int(rng.integers(len(index)))]
        seq = row if sequence_view else rng.permutation(row)
        queries.append(pool[int(rng.integers(len(pool)))])
        targets.append([int(t) for t in seq[: draw(st.integers(0, n))]])
    return searchable, scorer, queries, targets


def close(got, want):
    """Within 1e-12 of the larger of max|want| and 1."""
    return np.abs(np.asarray(got) - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


class TestTeacherKernel:
    @settings(max_examples=150, deadline=None)
    @given(teacher_cases())
    def test_matches_the_per_pair_walk(self, case):
        searchable, scorer, queries, targets = case
        got = sequence_logprobs(scorer, queries, targets, searchable)
        want = [walk_logprob(scorer, q, t, searchable) for q, t in zip(queries, targets)]
        assert got.tolist() == want  # bit for bit
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", 1):
            assert sequence_logprobs(scorer, queries, targets, searchable).tolist() == want
        if isinstance(scorer, FeatureScorer):
            batch = list(zip(queries, targets))
            loss, grad = scorer.loss_and_grad(batch, searchable)
            want_loss, want_grad = walk_loss_and_grad(scorer, batch, searchable)
            assert close(loss, want_loss) and close(grad, want_grad)
            with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", 1):
                one_loss, one_grad = scorer.loss_and_grad(batch, searchable)
            assert close(one_loss, want_loss) and close(one_grad, want_grad)

    def test_plug_in_scorers_take_the_default_segment_path(self):
        assert Scorer.__abstractmethods__ == frozenset({"segment_logprobs"})
        assert UniformScorer.step_scorer is Scorer.step_scorer
        assert SizeScorer.step_scorer is Scorer.step_scorer
        assert FeatureScorer.step_scorer is not Scorer.step_scorer

    def test_infeasible_term_in_a_batch_names_its_prefix(self, tiny_index):
        a, b, c, e = term_ids(tiny_index, "a", "b", "c", "e")
        with pytest.raises(DataError, match=rf"term id {e} infeasible at prefix \({a}, {b}\)"):
            sequence_logprobs(UniformScorer(), [query()] * 2, [[a, b, c], [a, b, e]], tiny_index)
        with pytest.raises(DataError, match="infeasible"):
            sequence_logprobs(UniformScorer(), [query()], [[len(tiny_index.dictionary)]],
                              tiny_index)


ORACLE_CHUNK_ROWS = 1 << 13  # the teacher kernel's chunk bound when the oracle was copied


def oracle_chunks(searchable, qidx, sequences):
    """The teacher kernel before the root block: every depth cut into keyed segments."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    seqs = np.full((len(sequences), lengths.max(initial=0)), -1, dtype=np.int64)
    for row, seq in zip(seqs, sequences):
        row[: len(seq)] = seq
    beam = root_beam(searchable)
    hyp = np.zeros(len(seqs), dtype=np.int64)
    for depth in range(seqs.shape[1]):
        rows = np.flatnonzero(lengths > depth)
        step = searchable.expand(*beam)
        picks = step.locate(hyp[rows], seqs[rows, depth])
        if (picks < 0).any():
            row = rows[np.argmax(picks < 0)]
            prefix = tuple(seqs[row, :depth].tolist())
            raise DataError(f"term id {int(seqs[row, depth])} infeasible at prefix {prefix}")
        row_query, row_hyp, offsets = qidx[rows], hyp[rows], step.offsets
        keys, row_seg = np.unique(row_query * len(step.seqs) + row_hyp, return_inverse=True)
        seg_query, seg_hyp = np.divmod(keys, len(step.seqs))
        sizes = offsets[seg_hyp + 1] - offsets[seg_hyp]
        ends = np.cumsum(sizes)
        weight = np.bincount(row_seg, minlength=len(keys))
        order = np.argsort(row_seg, kind="stable")
        row_bounds = np.searchsorted(row_seg[order], np.arange(len(keys) + 1))
        a = 0
        while a < len(keys):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + ORACLE_CHUNK_ROWS,
                                               "right")))
            ptr = np.zeros(b - a + 1, dtype=np.int64)
            np.cumsum(sizes[a:b], out=ptr[1:])
            ext = np.repeat(offsets[seg_hyp[a:b]] - ptr[:-1], sizes[a:b]) + np.arange(ptr[-1])
            mine = order[row_bounds[a] : row_bounds[b]]
            at = ptr[row_seg[mine] - a] + picks[mine] - offsets[row_hyp[mine]]
            yield step, seg_query[a:b], ext, ptr, weight[a:b], rows[mine], at
            a = b
        *beam, hyp[rows] = step.descend(picks)


def oracle_features(scorer, queries, step, seg_query, ext, ptr):
    """`FeatureScorer._segment_features` before the flat (slot, id) pass: keys per query."""
    term_id = {t: i for i, t in enumerate(scorer.terms)}
    stem_id = {stem: g for g, stem in enumerate(dict.fromkeys(t[:4] for t in scorer.terms))}
    term_stem = np.array([stem_id[t[:4]] for t in scorer.terms], dtype=np.int64)
    vocab, stems = len(scorer.terms), len(stem_id)
    term_keys, stem_keys = [], []
    for q in np.unique(seg_query).tolist():
        words = queries[q].terms
        term_keys += [q * vocab + term_id[t] for t in words if t in term_id]
        stem_keys += [q * stems + stem_id[t[:4]] for t in words if t[:4] in stem_id]
    row_query = np.repeat(seg_query, np.diff(ptr))
    terms = step.terms[ext]
    feats = np.empty((len(ext), len(STEP_FEATURES)))
    feats[:, 0] = np.isin(row_query * vocab + terms, term_keys)
    feats[:, 1] = np.isin(row_query * stems + term_stem[terms], stem_keys)
    feats[:, 2] = scorer.term_weights[terms]
    feats[:, 3] = np.log1p(step.sizes[ext])
    return feats


def oracle_sequence_logprobs(scorer, queries, sequences, searchable):
    """`sequence_logprobs` before the root block: one `segment_logprobs` call per chunk."""
    slots, qidx = _query_slots(queries)
    total = np.zeros(len(sequences))
    for step, seg_query, ext, ptr, _, rows, at in oracle_chunks(searchable, qidx, sequences):
        total[rows] += scorer.segment_logprobs(slots, step, seg_query, ext, ptr)[at]
    return total


def oracle_loss_and_grad(scorer, batch, searchable):
    """`FeatureScorer.loss_and_grad` before the root block: a feature matrix per chunk."""
    queries, qidx = _query_slots([query for query, _ in batch])
    total_loss = 0.0
    grad = np.zeros_like(scorer.weights)
    for chunk in oracle_chunks(searchable, qidx, [target for _, target in batch]):
        step, seg_query, ext, ptr, weight, _, at = chunk
        feats = oracle_features(scorer, queries, step, seg_query, ext, ptr)
        logprobs = _log_softmax(row_scores(scorer, feats), ptr)
        total_loss -= logprobs[at].sum()
        weighted = np.exp(logprobs) * np.repeat(weight, np.diff(ptr))
        grad += weighted @ feats - feats[at].sum(axis=0)
    return total_loss / len(batch), grad / len(batch)


class TestTeacherOracle:
    """The root-block teacher kernel against a copy of the keyed-row kernel it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(teacher_cases(), st.sampled_from([1, 5, 64, None]))
    def test_equals_the_keyed_row_kernel(self, case, chunk_rows):
        searchable, scorer, queries, targets = case
        rows = scorer_module.TEACHER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", rows):
            got = sequence_logprobs(scorer, queries, targets, searchable)
            want = oracle_sequence_logprobs(scorer, queries, targets, searchable)
            assert got.tobytes() == want.tobytes()
            if isinstance(scorer, FeatureScorer):
                batch = list(zip(queries, targets))
                loss, grad = scorer.loss_and_grad(batch, searchable)
                want_loss, want_grad = oracle_loss_and_grad(scorer, batch, searchable)
                assert close(loss, want_loss) and close(grad, want_grad)

    def test_many_queries_over_several_root_chunks(self):
        """A batch whose root block spans several chunks, on a registry of 300 documents."""
        index = build_index(word_registry(300, len(STEM_WORDS), 3, seed=4))
        rng = np.random.default_rng(8)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
        pool = [Query.from_text(f"q{i}", " ".join(rng.choice(STEM_WORDS + ("zz",), 3)))
                for i in range(60)]
        batch = [(pool[int(rng.integers(len(pool)))],
                  [int(t) for t in rng.permutation(index.order[int(rng.integers(len(index)))])])
                 for _ in range(200)]
        queries, targets = [q for q, _ in batch], [t for _, t in batch]
        for rows in (len(STEM_WORDS) * 7, scorer_module.TEACHER_CHUNK_ROWS):
            with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", rows):
                got = sequence_logprobs(scorer, queries, targets, index)
                assert got.tobytes() == oracle_sequence_logprobs(scorer, queries, targets,
                                                                 index).tobytes()
                loss, grad = scorer.loss_and_grad(batch, index)
                want_loss, want_grad = oracle_loss_and_grad(scorer, batch, index)
                assert close(loss, want_loss) and close(grad, want_grad)

    @settings(max_examples=100, deadline=None)
    @given(teacher_cases(), st.data())
    def test_root_override_equals_the_base_root_method_bytewise(self, case, data):
        """Any slots, repeated and out of order, score alike through both root methods."""
        searchable, _, queries, _ = case
        index = searchable.index if isinstance(searchable, SequenceView) else searchable
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
        slots, _ = _query_slots(queries)
        picked = data.draw(st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=6))
        picked = np.array(picked, dtype=np.int64)
        root = searchable.expand(*root_beam(searchable))
        got = scorer.root_logprobs(slots, root, picked)
        want = Scorer.root_logprobs(scorer, slots, root, picked)
        assert got.shape == (len(picked), len(root.terms))
        assert got.tobytes() == want.tobytes()

    def test_plug_in_scorers_take_the_default_root_method(self):
        assert UniformScorer.root_logprobs is Scorer.root_logprobs
        assert SizeScorer.root_logprobs is Scorer.root_logprobs
        assert FeatureScorer.root_logprobs is not Scorer.root_logprobs


@st.composite
def search_cases(draw):
    """A registry with shared 4-character stems, a view of it, a feature scorer, a query, a beam."""
    n = draw(st.integers(1, 4))
    vocab = draw(st.integers(n + 1, len(STEM_WORDS)))
    docs = draw(st.integers(1, min(20, math.comb(vocab, n))))
    index = build_index(word_registry(docs, vocab, n, seed=draw(st.integers(0, 999))))
    searchable = SequenceView(index) if draw(st.booleans()) else index
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                           rng.uniform(0, 2, len(index.dictionary)))
    words = draw(st.lists(st.sampled_from(STEM_WORDS + ("zz",)), max_size=4))
    beam = draw(st.sampled_from([1, 3, 10, None]))
    return searchable, scorer, Query.from_text("q", " ".join(words)), beam


class TestStepContract:
    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_fast_paths_equal_the_segment_contract_bytewise(self, case):
        """At every depth of a search, the term-table override equals one
        `segment_logprobs` call, and the uniform scorer gives -log(count)."""
        searchable, scorer, q, beam = case
        depths = []

        def checked(query):
            fast = FeatureScorer.step_scorer(scorer, query)
            base = Scorer.step_scorer(scorer, query)
            uniform = UniformScorer().step_scorer(query)

            def step_logprobs(step):
                got = fast(step)
                assert got.tobytes() == base(step).tobytes()
                want = [-math.log(c) for c in np.diff(step.offsets).tolist() for _ in range(c)]
                assert uniform(step).tobytes() == np.array(want).tobytes()
                depths.append(step.depth)
                return got

            return step_logprobs

        with mock.patch.object(scorer, "step_scorer", checked):
            constrained_beam_search(q, searchable, scorer, beam)
        assert depths == list(range(searchable.n))

    @settings(max_examples=100, deadline=None)
    @given(search_cases(), st.data())
    def test_each_segment_scores_as_it_does_alone(self, case, data):
        """A hypothesis's log-probs do not depend on the rest of the beam:
        each segment of a search step equals, bit for bit, its own one-row
        step, through `step_scorer` and through `segment_logprobs`, and the
        search's log-likelihoods equal `sequence_logprobs`."""
        searchable, feature, q, beam = case
        steps = []

        def kept(query):
            step_logprobs = FeatureScorer.step_scorer(feature, query)

            def record(step):
                steps.append(step)
                return step_logprobs(step)

            return record

        with mock.patch.object(feature, "step_scorer", kept):
            seqs, lls, _ = constrained_beam_search(q, searchable, feature, beam)
        got = sequence_logprobs(feature, [q] * len(seqs), seqs.tolist(), searchable)
        assert got.tobytes() == lls.tobytes()
        for scorer in (feature, UniformScorer()):
            for step in steps:
                h = data.draw(st.integers(0, len(step.seqs) - 1))
                a, b = step.offsets[h], step.offsets[h + 1]
                alone = one_step(searchable, step.seqs[h])
                assert alone.terms.tolist() == step.terms[a:b].tolist()
                whole = scorer.step_scorer(q)(step)[a:b]
                assert whole.tobytes() == scorer.step_scorer(q)(alone).tobytes()
                one_segment = (np.zeros(1, dtype=np.int64), np.arange(a, b), np.array([0, b - a]))
                segment = scorer.segment_logprobs([q], step, *one_segment)
                assert segment.tobytes() == whole.tobytes()


class TestTraining:
    def single_candidate_setup(self):
        # one document: after the first forced term every step has one candidate
        table = IdentifierTable(3, {"D1": ["a", "b", "c"]})
        index = build_index(table)
        return index

    def test_single_candidate_steps_zero_loss_and_gradient(self):
        index = self.single_candidate_setup()
        scorer = FeatureScorer.zeros(index)
        target = [index.dictionary.id_of(t) for t in ["a", "b", "c"]]
        # root has 3 candidates, so force single-candidate steps only
        loss, grad = scorer.loss_and_grad([(query(), target[1:])], index)
        assert loss != 0.0  # sanity: the b-after-root step is not single-candidate

        assert len(one_step(index, target[:1]).terms) == 2

        single = IdentifierTable(1, {"D1": ["a"]})
        idx = build_index(single)
        sc = FeatureScorer.zeros(idx)
        loss, grad = sc.loss_and_grad([(query(), [idx.dictionary.id_of("a")])], idx)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        table = make_random_identifiers(25, 20, 4, seed=3)
        index = build_index(table)
        rng = np.random.default_rng(1)
        term_weights = rng.uniform(0, 2, len(index.dictionary))
        batch = []
        for i in range(6):
            row = index.order[rng.integers(len(index.doc_ids))]
            perm = [int(t) for t in rng.permutation(row)]
            batch.append((Query.from_text(f"q{i}", "t01 t05 t17"), perm))
        for _ in range(20):
            weights = rng.normal(0, 1.5, size=len(STEP_FEATURES))
            scorer = FeatureScorer(weights, index.dictionary.terms, term_weights)
            _, analytic = scorer.loss_and_grad(batch, index)

            def loss_at(w):
                probe = FeatureScorer(w, index.dictionary.terms, term_weights)
                return probe.loss_and_grad(batch, index)[0]

            numeric = central_difference(loss_at, weights)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_repeated_steps_monotone_loss(self, tiny_index):
        scorer = FeatureScorer.zeros(tiny_index)
        target = [tiny_index.dictionary.id_of(t) for t in ["a", "b", "c"]]
        batch = [(query("a c"), target)]
        losses = [scorer.train_step(batch, tiny_index, lr=0.05) for _ in range(50)]
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(49))

    def test_infeasible_target_rejected(self, tiny_index):
        scorer = FeatureScorer.zeros(tiny_index)
        a, e = term_ids(tiny_index, "a", "e")
        with pytest.raises(DataError, match="infeasible"):
            scorer.train_step([(query(), [a, e])], tiny_index, lr=0.1)


class TestPermutationCovariance:
    def test_renaming_non_query_terms_preserves_logprobs(self):
        base = IdentifierTable(3, {
            "D1": ["apple", "marmot", "quartz"],
            "D2": ["apple", "marmot", "violet"],
            "D3": ["breeze", "quartz", "violet"],
        })
        # renames leave query overlap and 4-char prefixes with the query alone
        renamed = IdentifierTable(3, {
            "D1": ["apple", "zebra", "quartz"],
            "D2": ["apple", "zebra", "violet"],
            "D3": ["breeze", "quartz", "violet"],
        })
        q = Query.from_text("q", "apple breeze")
        weights = np.array([1.3, 0.7, 0.9, -0.4])
        tw = {"apple": 1.0, "marmot": 0.5, "zebra": 0.5, "quartz": 0.2, "violet": 0.9,
              "breeze": 0.1}

        def build(table):
            index = build_index(table)
            arr = np.array([tw[t] for t in index.dictionary.terms])
            return index, FeatureScorer(weights, index.dictionary.terms, arr)

        index_a, scorer_a = build(base)
        index_b, scorer_b = build(renamed)
        rename = {"marmot": "zebra"}
        for doc_id, terms in base.terms_by_doc.items():
            seq_a = [index_a.dictionary.id_of(t) for t in terms]
            seq_b = [index_b.dictionary.id_of(rename.get(t, t)) for t in terms]
            ll_a = sequence_logprob(scorer_a, q, seq_a, index_a)
            ll_b = sequence_logprob(scorer_b, q, seq_b, index_b)
            assert ll_a == pytest.approx(ll_b, abs=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path, tiny_index):
        rng = np.random.default_rng(0)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)),
                               tiny_index.dictionary.terms,
                               rng.uniform(0, 1, len(tiny_index.dictionary)))
        path = tmp_path / "scorer.txt"
        save_scorer(scorer, path)
        loaded = load_scorer(path)
        assert np.array_equal(loaded.weights, scorer.weights)
        assert loaded.terms == scorer.terms
        assert np.array_equal(loaded.term_weights, scorer.term_weights)
        save_scorer(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_term_with_a_line_break_is_refused_before_writing(self, tmp_path):
        # U+2028 is no "\n", so the binary index keeps it, but `str.splitlines` splits there
        index_path = tmp_path / "index.bin"
        save_index(build_index(IdentifierTable(1, {"A": ["x\u2028y"], "B": ["z"]})), index_path)
        path = tmp_path / "scorer.txt"
        with pytest.raises(DataError, match=re.escape(repr("x\u2028y"))):
            save_scorer(FeatureScorer.zeros(load_index(index_path)), path)
        assert not path.exists()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("garbage\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a termset-scorer"):
            load_scorer(path)

    @pytest.mark.parametrize(
        "lineno, text, message",
        [
            (2, "features in_query query_prefix4", ":2: header line"),
            (3, "weights\t1.0 x 0 0", ":3: step weights"),
            (3, "weights\t1.0 0.0", ":3: 2 step weights, expected 4"),
            (4, "terms\tseven", ":4: term count"),
            (5, "a 0.5", ":5: term line"),
            (5, "a\theavy", ":5: term weight"),
        ],
        ids=["features-no-tab", "weight-not-float", "weight-count", "count-not-int", "term-no-tab",
             "term-weight-not-float"],
    )
    def test_malformed_line_is_data_error(self, tmp_path, tiny_index, lineno, text, message):
        path = tmp_path / "scorer.txt"
        save_scorer(FeatureScorer.zeros(tiny_index), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_scorer(path)

    def test_missing_header_line_is_data_error(self, tmp_path):
        path = tmp_path / "scorer.txt"
        path.write_text("termset-scorer/2\nterms\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing 'features'"):
            load_scorer(path)

    def test_vocabulary_compatibility(self, tiny_index):
        scorer = FeatureScorer.zeros(tiny_index)
        check_compatible(scorer, tiny_index)
        other = build_index(IdentifierTable(2, {"D9": ["zz", "yy"]}))
        with pytest.raises(DataError, match="vocabulary mismatch"):
            check_compatible(scorer, other)

    @pytest.mark.parametrize(
        "weights, term_weight, finite",
        [
            ([3.0, 0.5, 1.0, 0.5], 2.0, True),
            ([1e307, 0.0, 0.0, 1e307], 0.0, True),
            ([0.0, 0.0, 1e308, 0.0], 2.0, False),  # term_weight * w2 overflows
            ([0.0, 0.0, 1e308, 0.0], -2.0, False),  # to -inf
            ([1e308, 1e308, 0.0, 0.0], 0.0, False),  # in_query + query_prefix4 overflows
            ([0.0, 0.0, 0.0, 1.7e308], 0.0, False),  # log1p(2) * w3 overflows
            ([1e308, -1e308, 0.0, 0.0], 0.0, False),  # finite scores, infinite spread
            ([1e308, 0.0, 0.0, 0.0], 0.0, False),  # one step finite, three steps not
        ],
        ids=["ordinary", "large", "term-weight", "negative-term-weight", "flags", "postings",
             "spread", "sequence"],
    )
    def test_scorer_that_can_reach_a_non_finite_score(self, tiny_index, weights, term_weight, finite):
        terms = tiny_index.dictionary.terms
        scorer = FeatureScorer(np.array(weights), terms, np.full(len(terms), term_weight))
        if finite:
            check_compatible(scorer, tiny_index)
        else:
            with pytest.raises(DataError, match="non-finite step score"):
                check_compatible(scorer, tiny_index)
