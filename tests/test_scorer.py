"""Step probabilities, sequence likelihoods, teacher-forced training."""

import math
import re
import tracemalloc
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
)
from termset_retrieval.synthetic import make_random_identifiers

from conftest import (
    STEM_WORDS,
    central_difference,
    max_relative_error,
    one_step,
    prepared_rows,
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
                scorer.segment_logprobs(scorer.prepare([query()]), one_step(tiny_index, []), *none)


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
        # one segment of the candidates, as a step's extensions below the root
        searchable = SimpleNamespace(log1p_sizes=np.log1p(np.arange(50)))
        step = SimpleNamespace(searchable=searchable, terms=candidates, sizes=sizes, depth=1,
                               offsets=np.array([0, len(sizes)]))
        if not len(candidates):
            with pytest.raises(DataError, match="empty candidate"):
                scorer.step_scorer(q)(step)
            return
        scores = row_scores(scorer, want)
        expected = _log_softmax(scores, step.offsets)
        assert scorer.step_scorer(q)(step).tobytes() == expected.tobytes()


class TestFlagCodes:
    @settings(max_examples=200, deadline=None)
    @given(lookup_cases())
    def test_in_query_implies_query_prefix4(self, case):
        """A term in the query shares its own first four characters with it, so the
        two query flags are one of three codes: (0, 0), (0, 1) or (1, 1), never (1, 0)."""
        terms, q, _, _ = case
        scorer = FeatureScorer(np.zeros(len(STEP_FEATURES)), terms, np.zeros(len(terms)))
        feats = isin_features(scorer, q, np.arange(len(terms)), np.ones(len(terms), dtype=np.int64))
        assert not ((feats[:, 0] == 1) & (feats[:, 1] == 0)).any()


def padded_log_softmax(scores, offsets):
    """`_log_softmax`'s earlier unequal-width path, kept as its oracle: the
    scores are first padded with a -inf ahead of each segment, then shifted
    and exponentiated, so each segment's `np.add.reduceat` starts at exp(-inf) = 0."""
    counts = offsets[1:] - offsets[:-1]
    heads = offsets[:-1] + np.arange(len(counts))
    m = np.maximum.reduceat(scores, offsets[:-1])
    shifted = np.full(len(scores) + len(counts), -np.inf)
    body = np.ones(len(shifted), dtype=bool)
    body[heads] = False
    shifted[body] = scores - np.repeat(m, counts)
    return scores - np.repeat(m + np.log(np.add.reduceat(np.exp(shifted), heads)), counts)


@st.composite
def segment_layouts(draw):
    """Scores in segments of random widths (1-element ones included), some all of
    one width, drawn from normal values, ±0.0 and ±1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        widths = [draw(st.integers(1, 40))] * draw(st.integers(1, 8))
    else:
        widths = draw(st.lists(st.sampled_from([1, 1, 2, 3, 7, 8, 9, 31, 129]), min_size=1, max_size=12))
    offsets = np.cumsum([0] + widths)
    scores = rng.normal(0, 3, offsets[-1])
    special = rng.random(len(scores)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    scores[special] = rng.choice([0.0, -0.0, 1e300, -1e300], special.sum())
    return scores, offsets


class TestSegmentNormalization:
    @settings(max_examples=200, deadline=None)
    @given(segment_layouts())
    def test_equals_the_padded_oracle_bytewise(self, case):
        scores, offsets = case
        assert _log_softmax(scores, offsets).tobytes() == padded_log_softmax(scores, offsets).tobytes()

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

    @pytest.mark.parametrize("where", [0, 1])
    def test_a_minus_one_term_is_infeasible_not_padding(self, tiny_index, where):
        """A list row is padded with -1, but a -1 of its own, trailing too, is no term."""
        ids = term_ids(tiny_index, "a")
        ids.insert(where, -1)
        with pytest.raises(DataError, match="infeasible"):
            sequence_logprob(UniformScorer(), query(), ids, tiny_index)

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


ROOT_ULPS = 16
EPS = np.finfo(float).eps


def feature_scales(scorer, searchable):
    """The largest |value| of each step feature: 1, 1, max|term weight|, log1p(largest child)."""
    return np.array([1.0, 1.0, np.abs(scorer.term_weights).max(initial=0.0),
                     searchable.log1p_sizes[-1]])


def root_bound(scorer, searchable):
    """How far a root log-prob of the root normalizer may lie from the dense oracle's.

    S = 1 + sum_k |w_k| * (feature k's largest |value|) bounds every |score|, and S + log V
    every |log-sum-exp|. The oracle shifts a row by its max and sums its exps pairwise; the
    root normalizer shifts by group tops and sums a few positive pieces, each a sum of exps
    or a difference that keeps at least DENSE_SHARE of what it subtracts from, where that
    could reach the row's sum. Either way each exp's argument is rounded within an ulp of S,
    so the two sums agree to a few relative ulps and their logs to a few ulps of S + log V.
    The worst seen over 600 random roots, with weights of scale up to 40, both dense sums
    taken thousands of times and negative term weights, was 4 such ulps; the bound is
    ROOT_ULPS = 16.
    """
    scale = 1.0 + (np.abs(scorer.weights) * feature_scales(scorer, searchable)).sum()
    return ROOT_ULPS * np.spacing(scale + math.log(max(len(scorer.terms), 2)))


def within_root_bound(got, want, scorer, searchable):
    """Sequence log-likelihoods that differ only in their root step's log-sum-exp: by at
    most the root bound, plus one rounding of each of at most 8 later additions."""
    slack = root_bound(scorer, searchable) + 8 * np.spacing(np.abs(want))
    return (np.abs(np.asarray(got) - want) <= slack).all()


def forced_close(got, want, scorer, searchable):
    """A loss and gradient whose root log-probs lie within the root bound b of the oracle's.

    The mean loss moves by at most b, plus the rounding of sums grouped otherwise (64 ulps
    of the loss). Each root probability moves by a factor within exp(+-b), its exponent
    being off by at most b, so each expected feature, a mean of the rows' expectations,
    moves by at most b times the feature's largest |value|; the pieces' sums, grouped
    otherwise, add 64 ulps of that scale and of the gradient.
    """
    (loss, grad), (want_loss, want_grad) = got, want
    b, scales = root_bound(scorer, searchable), feature_scales(scorer, searchable)
    loss_ok = abs(loss - want_loss) <= b + 64 * EPS * max(1.0, abs(want_loss))
    slack = (b + 64 * EPS) * scales + 64 * EPS * np.maximum(1.0, np.abs(want_grad))
    return loss_ok and (np.abs(grad - want_grad) <= slack).all()


class TestTeacherKernel:
    @settings(max_examples=150, deadline=None)
    @given(teacher_cases())
    def test_matches_the_per_pair_walk(self, case):
        searchable, scorer, queries, targets = case
        rows = prepared_rows(scorer, queries)
        got = scorer.sequence_logprobs(*rows, targets, searchable)
        want = [walk_logprob(scorer, q, t, searchable) for q, t in zip(queries, targets)]
        if isinstance(scorer, FeatureScorer):
            # search's step function is the dense oracle's at every depth, bit for bit;
            # training's root log-sum-exp is the root normalizer's, within the root bound
            dense = oracle_sequence_logprobs(scorer, queries, targets, searchable)
            assert dense.tolist() == want
            assert within_root_bound(got, want, scorer, searchable)
        else:
            assert got.tolist() == want  # bit for bit
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", 1):
            assert scorer.sequence_logprobs(*rows, targets, searchable).tolist() == got.tolist()
        # the same rows as one -1-padded int64 array, as training passes them: bit for bit
        padded = np.full((len(targets), max(map(len, targets))), -1, dtype=np.int64)
        for row, target in zip(padded, targets):
            row[: len(target)] = target
        for method in (type(scorer).sequence_logprobs, Scorer.sequence_logprobs):
            want_rows = method(scorer, *rows, targets, searchable).tolist()
            assert method(scorer, *rows, padded, searchable).tolist() == want_rows
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
            UniformScorer().sequence_logprobs([query()], np.zeros(2, dtype=np.int64),
                                              [[a, b, c], [a, b, e]], tiny_index)
        with pytest.raises(DataError, match="infeasible"):
            UniformScorer().sequence_logprobs([query()], np.zeros(1, dtype=np.int64),
                                              [[len(tiny_index.dictionary)]], tiny_index)


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
    """`Scorer.sequence_logprobs` before the root block: one `segment_logprobs` call per chunk."""
    prepared, qidx = prepared_rows(scorer, queries)
    total = np.zeros(len(sequences))
    for step, seg_query, ext, ptr, _, rows, at in oracle_chunks(searchable, qidx, sequences):
        total[rows] += scorer.segment_logprobs(prepared, step, seg_query, ext, ptr)[at]
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
    """The root teacher kernel against a copy of the keyed-row kernel it replaced.

    A plug-in scorer's root is still its dense rows, so it agrees bit for bit; the feature
    scorer's root log-sum-exp comes from the root normalizer, within the root bound."""

    @settings(max_examples=150, deadline=None)
    @given(teacher_cases(), st.sampled_from([1, 5, 64, None]))
    def test_equals_the_keyed_row_kernel(self, case, chunk_rows):
        searchable, scorer, queries, targets = case
        rows = scorer_module.TEACHER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", rows):
            got = scorer.sequence_logprobs(*prepared_rows(scorer, queries), targets, searchable)
            want = oracle_sequence_logprobs(scorer, queries, targets, searchable)
            if isinstance(scorer, FeatureScorer):
                assert within_root_bound(got, want, scorer, searchable)
            else:
                assert got.tobytes() == want.tobytes()
            if isinstance(scorer, FeatureScorer):
                batch = list(zip(queries, targets))
                loss, grad = scorer.loss_and_grad(batch, searchable)
                want_loss, want_grad = oracle_loss_and_grad(scorer, batch, searchable)
                assert close(loss, want_loss) and close(grad, want_grad)

    def test_many_queries_over_several_root_chunks(self):
        """200 rows of 60 queries on a registry of 300 documents: the base sequence method
        scores the root rows in several chunks of whole rows, and deeper steps come in
        several chunks."""
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
                for plug_in in (UniformScorer(), SizeScorer()):
                    got = plug_in.sequence_logprobs(*prepared_rows(plug_in, queries), targets,
                                                    index)
                    want = oracle_sequence_logprobs(plug_in, queries, targets, index)
                    assert got.tobytes() == want.tobytes()
                got = scorer.sequence_logprobs(*prepared_rows(scorer, queries), targets, index)
                want = oracle_sequence_logprobs(scorer, queries, targets, index)
                assert within_root_bound(got, want, scorer, index)
                loss, grad = scorer.loss_and_grad(batch, index)
                want_loss, want_grad = oracle_loss_and_grad(scorer, batch, index)
                assert close(loss, want_loss) and close(grad, want_grad)

    @settings(max_examples=100, deadline=None)
    @given(teacher_cases(), st.data())
    def test_root_override_equals_the_base_root_method_within_the_bound(self, case, data):
        """One-term rows under any slots, repeated and out of order, and any root terms: the
        override's root, the root normalizer's, lies within the root bound of the base
        sequence method's; search scores every row's root step as the base method does,
        bit for bit."""
        searchable, _, queries, _ = case
        index = searchable.index if isinstance(searchable, SequenceView) else searchable
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
        slots, _ = _query_slots(queries)
        seg_query = data.draw(st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=6))
        seg_query = np.array(seg_query, dtype=np.int64)
        root = searchable.expand(*root_beam(searchable))
        seg = rng.integers(0, len(seg_query), data.draw(st.integers(0, 12)))
        picks = rng.integers(0, len(root.terms), len(seg))
        rows = (scorer.prepare(slots), seg_query[seg], [[t] for t in root.terms[picks].tolist()],
                searchable)
        got = scorer.sequence_logprobs(*rows)
        want = Scorer.sequence_logprobs(scorer, *rows)
        assert got.shape == (len(seg),)
        assert (np.abs(got - want) <= root_bound(scorer, searchable)).all()
        searched = [scorer.step_scorer(slots[q])(root) for q in seg_query[seg].tolist()]
        assert want.tobytes() == np.array([row[p] for row, p in zip(searched, picks)]).tobytes()

    def test_plug_in_scorers_take_the_default_sequence_method(self):
        assert UniformScorer.sequence_logprobs is Scorer.sequence_logprobs
        assert SizeScorer.sequence_logprobs is Scorer.sequence_logprobs
        assert FeatureScorer.sequence_logprobs is not Scorer.sequence_logprobs
        assert not hasattr(Scorer, "root_logprobs")


def teacher_chunks(searchable, qidx, sequences):
    """The base sequence method's chunks: every depth's, the root's whole rows included."""
    seqs = scorer_module._padded(sequences)
    for step, hyp, rows, picks in scorer_module._teacher_walk(searchable, seqs):
        yield from scorer_module._segment_chunks(step, qidx, hyp, rows, picks)


def unforced_loss_and_grad(scorer, batch, searchable):
    """`FeatureScorer.loss_and_grad` before the forced batch: each call walks the
    teacher kernel, whose root chunks are whole root rows, and derives every
    segment's features as `isin_features` does. Each chunk's expected and target
    value of each feature is one pairwise `.sum()` over its extensions, or its
    target rows, in order, with no sum through BLAS."""
    queries, qidx = _query_slots([query for query, _ in batch])
    total_loss = 0.0
    grad = np.zeros_like(scorer.weights)
    for chunk in teacher_chunks(searchable, qidx, [target for _, target in batch]):
        step, ext, ptr, at = chunk.step, chunk.ext, chunk.ptr, chunk.at
        feats = np.concatenate([
            isin_features(scorer, queries[q], step.terms[ext[a:b]], step.sizes[ext[a:b]])
            for q, a, b in zip(chunk.seg_query.tolist(), ptr[:-1], ptr[1:])
        ])
        logprobs = _log_softmax(row_scores(scorer, feats), ptr)
        weighted = np.exp(logprobs) * np.repeat(chunk.weight, np.diff(ptr))
        expected = np.array([(weighted * column).sum() for column in feats.T])
        target = np.array([column.sum() for column in feats[at].T])
        total_loss -= logprobs[at].sum()
        grad += expected - target
    return total_loss / len(batch), grad / len(batch)


def feature_case(case, seed):
    """A teacher case's searchable, queries and targets, with a feature scorer of its vocabulary."""
    searchable, _, queries, targets = case
    index = searchable.index if isinstance(searchable, SequenceView) else searchable
    rng = np.random.default_rng(seed)
    scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                           rng.uniform(0, 2, len(index.dictionary)))
    return searchable, scorer, queries, targets


class TestForcedBatch:
    """A batch forced once, read under any weights, against the kernel that forces every call."""

    @settings(max_examples=150, deadline=None)
    @given(teacher_cases(), st.sampled_from([1, 5, 64, None]), st.integers(0, 999))
    def test_logprobs_equal_the_streamed_kernel(self, case, chunk_rows, seed):
        """The kept batch and the streamed override read the same pieces: the same bits.
        Both lie within the root bound of the base sequence method, the dense kernel."""
        searchable, scorer, queries, targets = feature_case(case, seed)
        rows = scorer_module.TEACHER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", rows):
            prepared, qidx = prepared_rows(scorer, queries)
            streamed = scorer.sequence_logprobs(prepared, qidx, targets, searchable)
            dense = Scorer.sequence_logprobs(scorer, prepared, qidx, targets, searchable)
            batch = scorer.force(prepared, qidx, targets, searchable)
            assert scorer.forced_logprobs(batch).tobytes() == streamed.tobytes()
            assert scorer.forced_logprobs(batch).tobytes() == streamed.tobytes()  # read again
            assert within_root_bound(streamed, dense, scorer, searchable)

    @settings(max_examples=150, deadline=None)
    @given(teacher_cases(), st.sampled_from([1, 5, 64, None]), st.integers(0, 999))
    def test_loss_and_grad_equal_the_unforced_kernel_under_two_weights(self, case, chunk_rows,
                                                                       seed):
        """Against the kernel that forces every call and scores the root densely: within the
        root bound (`forced_close`); forcing once or per call gives the same bits."""
        searchable, scorer, queries, targets = feature_case(case, seed)
        if not targets:
            return
        batch = list(zip(queries, targets))
        other = np.random.default_rng(seed + 1).normal(0, 2, len(STEP_FEATURES))
        rows = scorer_module.TEACHER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", rows):
            forced = scorer.force(*prepared_rows(scorer, queries), targets, searchable)
            for weights in (scorer.weights.copy(), other):
                scorer.weights = weights
                loss, grad = scorer.forced_loss_and_grad(forced)
                want = unforced_loss_and_grad(scorer, batch, searchable)
                assert forced_close((loss, grad), want, scorer, searchable)
                again_loss, again_grad = scorer.loss_and_grad(batch, searchable)
                assert np.float64(again_loss).tobytes() == np.float64(loss).tobytes()
                assert again_grad.tobytes() == grad.tobytes()

    def test_no_kept_array_is_a_queries_by_vocabulary_block(self):
        """300 queries over a vocabulary of 2,000 terms. The root keeps its stem groups, one
        entry per root term, its queries' flags, one pair per distinct flagged group or term
        of a query, and its target rows' int8 codes, term weights and log1p sizes; deeper
        chunks keep int8 codes, term weights and log1p sizes, one per extension, and integer
        layouts. One read allocates well under a (queries x vocabulary) float block: the
        root is read from per-group sums."""
        index = build_index(make_random_identifiers(3000, 2100, 3, seed=4))
        terms = index.dictionary.terms
        assert len(terms) >= 2000
        rng = np.random.default_rng(8)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms,
                               rng.uniform(0, 2, len(terms)))
        queries = [Query.from_text(f"q{i}", " ".join(rng.choice(terms, 3)) + " zz")
                   for i in range(300)]
        targets = [[int(t) for t in rng.permutation(index.order[int(rng.integers(len(index)))])]
                   for _ in queries]
        block = len(queries) * len(terms)
        batch = scorer.force(*prepared_rows(scorer, queries), targets, index)
        root, *chunks = batch.pieces
        assert isinstance(root, scorer_module._ForcedRoot)
        assert len(root.groups.terms) == len(terms) and root.flags.rows == len(queries)
        for array in (*root.groups, *root.flags[1:], root.weight, root.rows, root.seg,
                      root.codes, root.term_weights, root.log_sizes):
            assert array.ndim == 1 and array.size < block
        assert root.codes.dtype == np.int8 and len(root.codes) == len(targets)
        # one pair per distinct flagged group, and per distinct flagged term, of a query
        words = [set(q.terms) & set(terms) for q in queries]
        assert len(root.flags.group) == sum(len({t[:4] for t in w}) for w in words)
        assert len(root.flags.term_pos) == sum(len(w) for w in words)
        for chunk in chunks:
            assert chunk.codes.dtype == np.int8
            assert (len(chunk.codes) == len(chunk.term_weights) == len(chunk.log_sizes)
                    == chunk.ptr[-1])
            for array in (chunk.codes, chunk.term_weights, chunk.log_sizes):
                assert array.ndim == 1 and array.size < block
            for array in (chunk.ptr, chunk.weight, chunk.rows, chunk.at):
                assert array.ndim == 1 and array.dtype.kind != "f" and array.size < block
            assert chunk.target.shape == (len(STEP_FEATURES),)
        tracemalloc.start()
        try:
            scorer.forced_loss_and_grad(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block * 8 / 4  # a quarter of one (queries x vocabulary) float block

    def test_the_sequence_override_holds_one_piece_at_a_time(self):
        """With one segment per chunk, 4N rows make about four times as many chunks below the
        root as N rows of the same registry. From N to 4N rows, the override's tracemalloc
        peak grows by no more than a quarter over the base sequence method's, which scores
        each chunk as it is cut and keeps none: the walk's own arrays grow with the rows in
        both. A method that kept every forced piece before reading them grows by about
        three times as much here."""
        index = build_index(make_random_identifiers(1000, 300, 4, seed=3))
        terms = index.dictionary.terms
        rng = np.random.default_rng(5)
        scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms,
                               rng.uniform(0, 2, len(terms)))
        prepared = scorer.prepare([Query.from_text("q", " ".join(terms[:3]))])
        docs = rng.permutation(len(index))

        def peak(method, rows):
            args = (prepared, np.zeros(rows, dtype=np.int64),
                    [[int(t) for t in index.order[d]] for d in docs[:rows]], index)
            method(*args)  # warm: the index's root arrays and tables are built once
            tracemalloc.start()
            try:
                method(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def growth(method):
            return peak(method, 400) - peak(method, 100)

        with mock.patch.object(scorer_module, "TEACHER_CHUNK_ROWS", 1):
            base = growth(lambda *args: Scorer.sequence_logprobs(scorer, *args))
            assert growth(scorer.sequence_logprobs) <= 1.25 * base

    def test_an_empty_batch_forces_and_scores_nothing_but_has_no_loss(self, tiny_index):
        scorer = FeatureScorer.zeros(tiny_index)
        batch = scorer.force(scorer.prepare([]), np.zeros(0, dtype=np.int64), [], tiny_index)
        assert batch.pieces == [] and batch.rows == 0
        assert scorer.forced_logprobs(batch).shape == (0,)
        with pytest.raises(DataError, match="empty training batch"):
            scorer.train_step(batch, lr=0.1)
        with pytest.raises(DataError, match="empty training batch"):
            scorer.loss_and_grad([], tiny_index)


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
        """At every depth of a search, the root included, the term-table override equals
        one `segment_logprobs` call bit for bit; the uniform scorer gives -log(count)."""
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
        step, through `step_scorer` and through `segment_logprobs`. The
        search's log-likelihoods equal the dense oracle's bit for bit, and
        `FeatureScorer.sequence_logprobs`', whose root is the root normalizer's,
        within the root bound."""
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
        got = feature.sequence_logprobs(feature.prepare([q]), np.zeros(len(seqs), dtype=np.int64),
                                        seqs.tolist(), searchable)
        dense = oracle_sequence_logprobs(feature, [q] * len(seqs), seqs.tolist(), searchable)
        assert dense.tobytes() == lls.tobytes()
        assert within_root_bound(got, lls, feature, searchable)
        for scorer in (feature, UniformScorer()):
            for step in steps:
                h = data.draw(st.integers(0, len(step.seqs) - 1))
                a, b = step.offsets[h], step.offsets[h + 1]
                alone = one_step(searchable, step.seqs[h])
                assert alone.terms.tolist() == step.terms[a:b].tolist()
                whole = scorer.step_scorer(q)(step)[a:b]
                assert whole.tobytes() == scorer.step_scorer(q)(alone).tobytes()
                one_segment = (np.zeros(1, dtype=np.int64), np.arange(a, b), np.array([0, b - a]))
                segment = scorer.segment_logprobs(scorer.prepare([q]), step, *one_segment)
                assert segment.tobytes() == whole.tobytes()

    def test_search_after_an_in_place_weight_update_equals_a_fresh_scorer(self):
        """`train_step` changes `weights` in place between validation searches: search's
        kept term table (`_weighted`) must follow, so every search equals a fresh scorer's
        byte for byte."""
        index = build_index(word_registry(40, len(STEM_WORDS), 3, seed=2))
        rng = np.random.default_rng(11)
        scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
        queries = [Query.from_text(f"q{i}", " ".join(rng.choice(STEM_WORDS, 2))) for i in range(4)]
        batch = [(q, [int(t) for t in index.order[int(rng.integers(len(index)))]]) for q in queries]
        forced = scorer.force(*prepared_rows(scorer, [q for q, _ in batch]),
                              [t for _, t in batch], index)
        before = None
        for _ in range(3):
            weights = scorer.weights
            got = [constrained_beam_search(q, index, scorer, 5) for q in queries]
            fresh = FeatureScorer(scorer.weights.copy(), scorer.terms, scorer.term_weights)
            want = [constrained_beam_search(q, index, fresh, 5) for q in queries]
            for one, other in zip(got, want):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(one, other))
            assert before is None or any(a[1].tobytes() != b[1].tobytes()
                                         for a, b in zip(got, before))
            before = got
            scorer.train_step(forced, lr=5.0)
            assert scorer.weights is weights  # updated in place


def stem_registry():
    """Five two-term documents over stems aaaa (three terms), bbbb (two) and solo (one)."""
    return IdentifierTable(2, {
        "D1": ["aaaa1", "bbbb1"], "D2": ["aaaa2", "bbbb2"], "D3": ["aaaa3", "solo"],
        "D4": ["bbbb1", "solo"], "D5": ["aaaa1", "aaaa2"],
    })


class TestRootNormalizer:
    """Constructed roots: the root normalizer against the dense oracle."""

    FIRST = np.zeros(1, dtype=np.int64)  # slot 0 of a one-query list

    @staticmethod
    def check(scorer, searchable, texts):
        """Every root term under each query, as one-term rows: search's root step equal bit
        for bit to the base sequence method's dense rows, and the override's within the
        root bound of them; the loss and gradient of those rows, the root alone, within the
        bound of the dense kernel's."""
        queries = [Query.from_text(f"q{i}", text) for i, text in enumerate(texts)]
        root = searchable.expand(*root_beam(searchable))
        rows = (scorer.prepare(queries), np.arange(len(queries)).repeat(len(root.terms)),
                [[t] for t in root.terms.tolist()] * len(queries), searchable)
        got = scorer.sequence_logprobs(*rows)
        want = Scorer.sequence_logprobs(scorer, *rows)
        searched = np.concatenate([scorer.step_scorer(q)(root) for q in queries])
        assert searched.tobytes() == want.tobytes()
        assert (np.abs(got - searched) <= root_bound(scorer, searchable)).all()
        batch = [(q, [t]) for q in queries for t in root.terms.tolist()]
        loss_and_grad = scorer.loss_and_grad(batch, searchable)
        assert forced_close(loss_and_grad, unforced_loss_and_grad(scorer, batch, searchable),
                            scorer, searchable)
        return got

    def test_ties_across_groups(self):
        index = build_index(stem_registry())
        scorer = FeatureScorer(np.array([0.7, -0.3, 1.0, 0.0]), index.dictionary.terms,
                               np.ones(len(index.dictionary)))
        root = index.expand(*root_beam(index))
        sums = scorer._group_sums(scorer._root_groups(root.terms, root.sizes, index.log1p_sizes))
        assert len(sums.top) == 3 and (sums.top == sums.top[0]).all()  # every top ties
        self.check(scorer, index, ["aaaa1", "", "bbbb2 aaaa3", "solo bbbb1"])

    def test_a_dominant_query_term_takes_the_dense_sums(self):
        """aaaa1 holds nearly all of its group's base mass and of the base row's, and a
        strongly negative in_query weight takes it out of the query's row: both differences
        would cancel, so the group's other terms and the unflagged groups are summed densely.
        Subtracting there instead loses the group's other terms altogether."""
        index = build_index(stem_registry())
        terms = index.dictionary.terms
        term_weights = np.where(np.array(terms) == "aaaa1", 20.0, 0.0)
        scorer = FeatureScorer(np.array([-60.0, 0.0, 2.0, 0.0]), terms, term_weights)
        root = index.expand(*root_beam(index))
        groups = scorer._root_groups(root.terms, root.sizes, index.log1p_sizes)
        sums = scorer._group_sums(groups)
        prepared = scorer.prepare([Query.from_text("q", "aaaa1")])
        flags = scorer._root_flags(prepared, self.FIRST, groups)
        held = sums.exps[0, groups.rank[flags.term_pos]]
        assert held > scorer_module.DENSE_SHARE * sums.mass[0, flags.group]
        with mock.patch.object(scorer_module, "_unflagged",
                               wraps=scorer_module._unflagged) as unflagged:
            got = self.check(scorer, index, ["aaaa1"])
        assert unflagged.call_count >= 2  # the batch form and the loss
        every = (prepared, np.zeros(len(root.terms), dtype=np.int64),
                 [[t] for t in root.terms.tolist()], index)
        want = Scorer.sequence_logprobs(scorer, *every)
        with mock.patch.object(scorer_module, "DENSE_SHARE", math.inf):  # never the dense group
            cancelled = scorer.sequence_logprobs(*every)
        assert np.abs(cancelled - want).max() > 0.1 and np.abs(got - want).max() < 1e-12

    def test_a_query_that_flags_every_group(self):
        """With every group flagged, the base total less the flagged groups' base sums, the
        two summed in different orders, is zero or an ulp or so either side of it, and under
        w1 = -50 the flagged pieces lie below that ulp: the query's sum can round to zero or
        below. It is thin, so its unflagged groups, none, are summed densely instead, with
        no invalid or divide-by-zero operation."""
        cases = ((stem_registry(), "aaaa1 bbbb1 solo"),
                 (word_registry(20, len(STEM_WORDS), 2, seed=0), " ".join(STEM_WORDS)))
        for registry, text in cases:
            index = build_index(registry)
            terms, rng = index.dictionary.terms, np.random.default_rng(8)
            for _ in range(20):
                weights = np.array([rng.normal(0, 3), -50.0, rng.normal(0, 3), rng.normal(0, 2)])
                scorer = FeatureScorer(weights, terms, rng.uniform(-1, 2, len(terms)))
                with np.errstate(all="raise"):
                    self.check(scorer, index, [text, ""])

    def test_an_all_out_of_vocabulary_query(self):
        index = build_index(stem_registry())
        rng = np.random.default_rng(3)
        scorer = FeatureScorer(rng.normal(0, 3, 4), index.dictionary.terms,
                               rng.uniform(-1, 2, len(index.dictionary)))
        root = index.expand(*root_beam(index))
        groups = scorer._root_groups(root.terms, root.sizes, index.log1p_sizes)
        query = Query.from_text("q", "zzzz qqqq xx")
        flags = scorer._root_flags(scorer.prepare([query]), self.FIRST, groups)
        assert len(flags.group) == len(flags.term_pos) == 0
        self.check(scorer, index, [query.text, "aaaa2"])

    def test_a_group_of_one_term(self):
        """solo is its stem's one term: flagged, it holds all of its group's mass."""
        index = build_index(stem_registry())
        rng = np.random.default_rng(4)
        for scale in (0.5, 5.0, 30.0):
            scorer = FeatureScorer(rng.normal(0, scale, 4), index.dictionary.terms,
                                   rng.uniform(0, 2, len(index.dictionary)))
            self.check(scorer, index, ["solo", "solo aaaa1", "bbbb2 solo"])

    def test_repeated_words(self):
        index = build_index(stem_registry())
        rng = np.random.default_rng(5)
        scorer = FeatureScorer(rng.normal(0, 2, 4), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
        once, repeated = self.check(scorer, index, ["aaaa1 bbbb2", "aaaa1 aaaa1 bbbb2 bbbb2"]
                                    ).reshape(2, -1)
        assert once.tobytes() == repeated.tobytes()

    def test_a_sequence_view_root(self):
        """A fixed-order view's root holds each document's first term only, not the whole
        vocabulary; query words off that root flag nothing there."""
        view = SequenceView(build_index(stem_registry()))
        root = view.expand(*root_beam(view))
        assert root.terms.tolist() == term_ids(view.index, "aaaa1", "aaaa2", "aaaa3", "bbbb1")
        rng = np.random.default_rng(6)
        for scale in (0.5, 5.0):
            scorer = FeatureScorer(rng.normal(0, scale, 4), view.dictionary.terms,
                                   rng.uniform(0, 2, len(view.dictionary)))
            self.check(scorer, view, ["solo", "bbbb2", "aaaa3 bbbb1", "", "solo aaaa1 zz"])


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
        q = query("a c")
        batch = scorer.force(scorer.prepare([q]), np.zeros(1, dtype=np.int64), [target],
                             tiny_index)  # forced once, read 50 times
        losses = [scorer.train_step(batch, lr=0.05) for _ in range(50)]
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(49))

    def test_infeasible_target_rejected(self, tiny_index):
        scorer = FeatureScorer.zeros(tiny_index)
        a, e = term_ids(tiny_index, "a", "e")
        with pytest.raises(DataError, match="infeasible"):
            scorer.force(scorer.prepare([query()]), np.zeros(1, dtype=np.int64), [[a, e]],
                         tiny_index)
        with pytest.raises(DataError, match="infeasible"):
            scorer.loss_and_grad([(query(), [a, e])], tiny_index)


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

    def test_flag_pair_no_extension_has_is_not_bounded(self):
        """in_query implies query_prefix4, so (1, 0) is no code: weights that
        only overflow there leave every reachable score finite."""
        index = build_index(IdentifierTable(1, {"D1": ["apple"], "D2": ["berry"]}))
        scorer = FeatureScorer(np.array([1e308, -1e308, 0.0, 0.0]), index.dictionary.terms,
                               np.zeros(2))
        check_compatible(scorer, index)
        _, lls, _ = constrained_beam_search(Query.from_text("q", "apple"), index, scorer, 10)
        assert np.allclose(lls, math.log(0.5))

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
