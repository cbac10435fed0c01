"""Initialization policies, permutation sampling, and the adaptive loop."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval.corpus import Query, sample_negatives
from termset_retrieval.errors import DataError, InvariantError
from termset_retrieval.importance import IdentifierTable, train_importance, build_identifiers
from termset_retrieval.index import build_index
from termset_retrieval.learning import (
    TrainingConfig,
    _derived_seed,
    _keyed_uniforms,
    _sample_pairs,
    _select_objectives,
    init_permutation,
    make_dataset,
    run_training,
)
from termset_retrieval.scorer import (
    STEP_FEATURES,
    FeatureScorer,
    UniformScorer,
    build_term_weights,
    sequence_logprob,
)
from termset_retrieval.synthetic import make_bridging_corpus, split_by_wave

from conftest import STEM_WORDS, one_step, prepared_rows, word_registry


def query(text=""):
    return Query.from_text("q", text)


@pytest.fixture
def four_term_index():
    table = IdentifierTable(
        4,
        {
            "D1": ["executive", "chef", "white", "house"],
            "D2": ["granite", "lighthouse", "harbor", "keeper"],
        },
    )
    return build_index(table)


def sample_pairs(prepared, qidx, queries, doc_ids, index, scorer, samples, topk, seed):
    """`_sample_pairs` of the pairs (queries[i], doc_ids[i]), keyed and ordered as training
    keys and orders them."""
    keys = [_derived_seed("sample", seed, q.query_id, d) for q, d in zip(queries, doc_ids)]
    ordered = index.order[[index.doc_position(d) for d in doc_ids]].astype(np.int64)
    return _sample_pairs(prepared, qidx, np.array(keys, dtype=np.uint64), ordered, index, scorer,
                         samples, topk)


class TestInitPermutation:
    def test_importance_policy_is_stored_order(self, four_term_index):
        perm = init_permutation("D1", four_term_index, "importance")
        terms = [four_term_index.dictionary.term_of(t) for t in perm]
        assert terms == ["executive", "chef", "white", "house"]

    def test_random_policy_reproducible(self, four_term_index):
        first = init_permutation("D1", four_term_index, "random", seed=5)
        second = init_permutation("D1", four_term_index, "random", seed=5)
        assert first == second
        other_seed = init_permutation("D1", four_term_index, "random", seed=6)
        other_doc = init_permutation("D2", four_term_index, "random", seed=5)
        assert len({first, other_seed}) + len({first}) >= 2  # seeds differ somewhere
        assert sorted(first) == sorted(init_permutation("D1", four_term_index, "importance"))
        assert sorted(other_doc) != sorted(first)

    def test_likelihood_policy_uniform_falls_back_to_stored_order(self, four_term_index):
        perm = init_permutation("D1", four_term_index, "likelihood", scorer=UniformScorer())
        assert perm == init_permutation("D1", four_term_index, "importance")

    def test_likelihood_policy_requires_scorer(self, four_term_index):
        with pytest.raises(DataError, match="requires a scorer"):
            init_permutation("D1", four_term_index, "likelihood")

    def test_likelihood_policy_follows_scorer(self, four_term_index):
        scorer = FeatureScorer.zeros(four_term_index)
        scorer.weights[0] = 5.0  # strong in-query preference
        q = Query.from_text("q", "white chef")
        perm = init_permutation("D1", four_term_index, "likelihood", scorer=scorer, query=q)
        terms = [four_term_index.dictionary.term_of(t) for t in perm]
        assert set(terms[:2]) == {"white", "chef"}
        # ties inside/outside the query resolve by stored order
        assert terms[:2] == ["chef", "white"]


class TestSamplePermutations:
    def test_topk_one_is_greedy_and_seed_independent(self, four_term_index):
        q = Query.from_text("q", "house")
        scorer = FeatureScorer.zeros(four_term_index)
        scorer.weights[0] = 3.0
        rows = prepared_rows(scorer, [q])
        (a,) = sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, samples=3, topk=1, seed=1)
        (b,) = sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, samples=3, topk=1, seed=99)
        assert a.shape == (3, 4) and np.array_equal(a, b)
        assert len(set(map(tuple, a.tolist()))) == 1
        terms = [four_term_index.dictionary.term_of(t) for t in a[0]]
        assert terms[0] == "house"

    def test_single_term_identifier(self):
        index = build_index(IdentifierTable(1, {"D1": ["solo"], "D2": ["duo"]}))
        q, scorer = query(), UniformScorer()
        (out,) = sample_pairs(*prepared_rows(scorer, [q]), [q], ["D1"], index, scorer, samples=4,
                              topk=1, seed=0)
        assert out.tolist() == [[index.dictionary.id_of("solo")]] * 4

    def test_every_sample_is_permutation(self, four_term_index):
        q, scorer = query(), UniformScorer()
        (out,) = sample_pairs(*prepared_rows(scorer, [q]), [q], ["D1"], four_term_index, scorer,
                              samples=20, topk=4, seed=3)
        expected = frozenset(four_term_index.identifier_ids("D1").tolist())
        for seq in out:
            assert frozenset(seq) == expected
            assert len(seq) == 4

    def test_first_step_uniform_within_binomial_bounds(self, four_term_index):
        # uniform scorer, topk = n: the first sampled term is uniform over 4
        q, scorer = query(), UniformScorer()
        (out,) = sample_pairs(*prepared_rows(scorer, [q]), [q], ["D1"], four_term_index, scorer,
                              samples=10_000, topk=4, seed=7)
        counts = {}
        for seq in out:
            counts[seq[0]] = counts.get(seq[0], 0) + 1
        expect = 10_000 / 4
        sigma = (10_000 * 0.25 * 0.75) ** 0.5
        for term_id, count in counts.items():
            assert abs(count - expect) <= 3 * sigma

    def test_seed_reproducibility(self, four_term_index):
        q, scorer = query("x"), UniformScorer()
        rows = prepared_rows(scorer, [q])
        (a,) = sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, 5, 3, seed=11)
        (b,) = sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, 5, 3, seed=11)
        assert a.shape == (5, 4) and np.array_equal(a, b)


def registry(index, *doc_ids):
    """The registry rows (sorted term ids) of `doc_ids`, one per pair."""
    return np.array([index.identifier_ids(d) for d in doc_ids])


class TestSelectObjective:
    def test_picks_highest_likelihood(self, four_term_index):
        scorer = FeatureScorer.zeros(four_term_index)
        scorer.weights[0] = 4.0
        q = Query.from_text("q", "house")
        ordered = tuple(four_term_index.identifier_ids("D1", ordered=True).tolist())
        house_first = tuple(
            [four_term_index.dictionary.id_of("house")]
            + [t for t in ordered if four_term_index.dictionary.term_of(t) != "house"]
        )
        (best,), (ll,) = _select_objectives(np.array([[ordered, house_first]]),
                                            registry(four_term_index, "D1"),
                                            *prepared_rows(scorer, [q]), scorer, four_term_index)
        assert tuple(best.tolist()) == house_first
        assert ll == pytest.approx(sequence_logprob(scorer, q, house_first, four_term_index))

    def test_single_candidate(self, four_term_index):
        ordered = tuple(four_term_index.identifier_ids("D1", ordered=True).tolist())
        scorer = UniformScorer()
        (best,), _ = _select_objectives(np.array([[ordered]]), registry(four_term_index, "D1"),
                                        *prepared_rows(scorer, [query()]), scorer, four_term_index)
        assert tuple(best.tolist()) == ordered

    def test_selected_at_least_as_good_as_included_initialization(self, four_term_index):
        q = Query.from_text("q", "white house")
        scorer = FeatureScorer.zeros(four_term_index)
        scorer.weights[0] = 2.0
        init = init_permutation("D1", four_term_index, "importance")
        rows = prepared_rows(scorer, [q])
        (candidates,) = sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, 6, 3, seed=2)
        (best,), (best_ll,) = _select_objectives(np.vstack([candidates, [init]])[None],
                                                 registry(four_term_index, "D1"), *rows, scorer,
                                                 four_term_index)
        init_ll = sequence_logprob(scorer, q, init, four_term_index)
        assert best_ll >= init_ll

    def test_rejects_non_permutation(self, four_term_index):
        ordered = tuple(four_term_index.identifier_ids("D1", ordered=True).tolist())
        other = tuple(four_term_index.identifier_ids("D2", ordered=True).tolist())
        scorer = UniformScorer()
        rows = prepared_rows(scorer, [query()])
        for bad in (ordered[:-1] + ordered[:1], other):  # a repeated term; another document's row
            with pytest.raises(InvariantError, match="not a permutation"):
                _select_objectives(np.array([[ordered, bad]]), registry(four_term_index, "D1"),
                                   *rows, scorer, four_term_index)


MASK64 = (1 << 64) - 1


def splitmix64(state, count):
    """`count` outputs of SplitMix64 from `state`, in Python ints: the reference generator."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestKeyedUniforms:
    def test_the_reference_reproduces_the_published_vector(self):
        assert splitmix64(1234567, 5) == [6457827717110365317, 3203168211198807973,
                                          9817491932198370423, 4593380528125082431,
                                          16408922859458223821]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, MASK64]) | st.integers(0, MASK64), max_size=6),
           st.integers(0, 40))
    def test_each_key_draws_the_reference_stream_in_unit_interval(self, keys, count):
        with np.errstate(all="raise"):  # uint64 arrays wrap; nothing may overflow a float
            got = _keyed_uniforms(np.array(keys, dtype=np.uint64), count)
        assert got.shape == (len(keys), count) and got.dtype == np.float64
        assert ((0.0 <= got) & (got < 1.0)).all()
        assert got.tolist() == [[(z >> 11) * 2.0**-53 for z in splitmix64(k, count)] for k in keys]


def rollout_permutations(query, doc_id, index, scorer, samples, topk, seed=0):
    """The per-pair, per-sample rollout `_sample_pairs` replaced, kept as its oracle.

    Sample s's pick at depth d reads draw s * n + d + 1 of the reference SplitMix64 from
    the pair's key, and takes the first term whose cumulative probability exceeds it."""
    ordered = [int(t) for t in index.identifier_ids(doc_id, ordered=True)]
    draws = splitmix64(_derived_seed("sample", seed, query.query_id, doc_id), samples * index.n)
    uniforms = iter([(z >> 11) * 2.0**-53 for z in draws])
    out = []
    for _ in range(samples):
        remaining = list(ordered)
        seq = []
        while remaining:
            # score the remaining terms, in stored order, as one segment of the prefix's step
            step = one_step(index, seq)
            ext = step.locate(np.zeros(len(remaining), dtype=np.int64), np.array(remaining))
            logprobs = scorer.segment_logprobs(
                scorer.prepare([query]), step, np.zeros(1, dtype=np.int64), ext,
                np.array([0, len(ext)])
            )
            k = min(topk, len(remaining))
            top = np.argsort(-logprobs, kind="stable")[:k]
            shifted = logprobs[top] - logprobs[top].max()
            probs = np.exp(shifted)
            probs /= probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            pick = remaining[int(top[np.searchsorted(cdf, next(uniforms), side="right")])]
            seq.append(pick)
            remaining.remove(pick)
        out.append(tuple(seq))
    return out


def pick_objective(candidates, query, scorer, index):
    """The per-candidate selection loop `_select_objectives` replaced."""
    best_seq, best_ll = None, -math.inf
    for seq in candidates:
        ll = sequence_logprob(scorer, query, seq, index)
        if ll > best_ll or (ll == best_ll and seq < best_seq):
            best_seq, best_ll = seq, ll
    return best_seq, best_ll


@st.composite
def sampling_cases(draw):
    """A registry with shared 4-character stems, a scorer, and pairs over shared queries."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6]))
    vocab = draw(st.integers(n + 1, len(STEM_WORDS)))
    docs = draw(st.integers(1, min(12, math.comb(vocab, n))))
    index = build_index(word_registry(docs, vocab, n, seed=draw(st.integers(0, 999))))
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    if draw(st.booleans()):
        scorer = FeatureScorer(rng.normal(0, 2, len(STEP_FEATURES)), index.dictionary.terms,
                               rng.uniform(0, 2, len(index.dictionary)))
    else:
        scorer = UniformScorer()
    words = st.lists(st.sampled_from(STEM_WORDS + ("zz",)), max_size=4)
    pool = [Query.from_text(f"q{i}", " ".join(draw(words))) for i in range(draw(st.integers(1, 3)))]
    pairs = [
        (pool[int(rng.integers(len(pool)))], index.doc_ids[int(rng.integers(len(index)))])
        for _ in range(draw(st.integers(1, 4)))
    ]
    samples, topk = draw(st.integers(1, 4)), draw(st.integers(1, n + 1))
    return index, scorer, pairs, samples, topk, draw(st.integers(0, 2**32))


class TestSamplingKernel:
    @settings(max_examples=120, deadline=None)
    @given(sampling_cases())
    def test_batched_sampling_equals_the_per_pair_rollout(self, case):
        index, scorer, pairs, samples, topk, seed = case
        want = [rollout_permutations(q, d, index, scorer, samples, topk, seed) for q, d in pairs]
        queries, doc_ids = [q for q, _ in pairs], [d for _, d in pairs]
        rows = prepared_rows(scorer, queries)
        got = sample_pairs(*rows, queries, doc_ids, index, scorer, samples, topk, seed)
        assert got.shape == (len(pairs), samples, index.n) and got.dtype == np.int64
        assert [list(map(tuple, block)) for block in got.tolist()] == want
        q, d = pairs[0]  # one pair alone
        alone = sample_pairs(*prepared_rows(scorer, [q]), [q], [d], index, scorer, samples, topk,
                             seed)
        assert [list(map(tuple, block)) for block in alone.tolist()] == want[:1]

    @settings(max_examples=60, deadline=None)
    @given(sampling_cases())
    def test_batched_selection_equals_the_per_candidate_loop(self, case):
        index, scorer, pairs, samples, topk, seed = case
        queries, doc_ids = [q for q, _ in pairs], [d for _, d in pairs]
        rows = prepared_rows(scorer, queries)
        sampled = sample_pairs(*rows, queries, doc_ids, index, scorer, samples, topk, seed)
        ordered = np.array([index.identifier_ids(d, ordered=True) for d in doc_ids])
        candidates = np.concatenate([sampled, ordered[:, None]], axis=1)
        want = [pick_objective(list(map(tuple, c)), q, scorer, index)
                for c, q in zip(candidates.tolist(), queries)]
        best, lls = _select_objectives(candidates, registry(index, *doc_ids), *rows, scorer, index)
        assert list(map(tuple, best.tolist())) == [seq for seq, _ in want]
        assert lls.tolist() == [ll for _, ll in want]  # bit for bit

    def test_nan_scores_raise_arithmetic_error(self, four_term_index):
        scorer = FeatureScorer.zeros(four_term_index)
        scorer.weights[:] = np.nan
        q = Query.from_text("q", "white")
        ordered = tuple(four_term_index.identifier_ids("D1", ordered=True).tolist())
        rows = prepared_rows(scorer, [q])
        with pytest.raises(ArithmeticError, match="non-finite"):
            _select_objectives(np.array([[ordered, ordered[::-1]]]),
                               registry(four_term_index, "D1"), *rows, scorer, four_term_index)
        with pytest.raises(ArithmeticError, match="non-finite"):
            sample_pairs(*rows, [q], ["D1"], four_term_index, scorer, samples=2, topk=2, seed=1)


def bridging_setup(seed=0):
    corpus, queries, judgments = make_bridging_corpus(num_docs=20, seed=seed)
    train_q, train_j, test_q, test_j = split_by_wave(queries, judgments, test_wave=1)
    pairs = sample_negatives(train_q, train_j, corpus, m=4, seed=7)
    model = train_importance(pairs, corpus, epochs=150, lr=0.05, seed=0)
    table = build_identifiers(corpus, model, n_min=2, n_max=6)
    index = build_index(table)
    term_weights = build_term_weights(index, corpus, model)
    dataset = make_dataset(train_q, train_j, val_fraction=0.25, seed=1)
    return corpus, index, term_weights, dataset, test_q, test_j


class TestRunTraining:
    def test_full_reproducibility(self):
        corpus, index, tw, dataset, _, _ = bridging_setup()
        config = TrainingConfig(iterations=2, epochs=5, lr=0.5, seed=3)
        s1, st1 = run_training(dataset, index, config, FeatureScorer.zeros(index, tw))
        s2, st2 = run_training(dataset, index, config, FeatureScorer.zeros(index, tw))
        assert np.array_equal(s1.weights, s2.weights)
        assert st1 == st2

    def test_targets_are_valid_permutations_and_stats_complete(self):
        corpus, index, tw, dataset, _, _ = bridging_setup(seed=2)
        config = TrainingConfig(iterations=3, epochs=4, lr=0.5, seed=0)
        scorer, stats = run_training(dataset, index, config, FeatureScorer.zeros(index, tw))
        assert 1 <= len(stats) <= 3
        assert [s.iteration for s in stats] == list(range(1, len(stats) + 1))
        assert stats[0].target_churn == 0.0
        for s in stats:
            assert s.num_pairs == len(dataset.train)
            assert np.isfinite(s.mean_objective_logprob)

    def test_iteration1_targets_follow_importance_order(self):
        """Iteration 1 forces one int64 array, whose rows are `init_permutation`'s targets."""
        corpus, index, tw, dataset, _, _ = bridging_setup(seed=3)
        with mock.patch.object(FeatureScorer, "force", autospec=True,
                               side_effect=FeatureScorer.force) as force:
            run_training(dataset, index, TrainingConfig(iterations=1, epochs=1),
                         FeatureScorer.zeros(index, tw))
        (targets,) = [call.args[3] for call in force.call_args_list]
        assert targets.dtype == np.int64
        assert list(map(tuple, targets.tolist())) == [
            init_permutation(pair.doc_id, index, "importance") for pair in dataset.train
        ]

    def test_adaptive_objective_non_decreasing_and_recall_at_least_non_adaptive(self):
        corpus, index, tw, dataset, test_q, test_j = bridging_setup(seed=4)
        adaptive_cfg = TrainingConfig(iterations=2, epochs=8, lr=0.5, seed=5)
        baseline_cfg = TrainingConfig(iterations=1, epochs=8, lr=0.5, seed=5)
        adaptive, a_stats = run_training(dataset, index, adaptive_cfg, FeatureScorer.zeros(index, tw))
        baseline, b_stats = run_training(dataset, index, baseline_cfg, FeatureScorer.zeros(index, tw))
        if len(a_stats) >= 2:
            assert a_stats[1].mean_objective_logprob >= a_stats[0].mean_objective_logprob
        assert a_stats[-1].val_recall is not None
        # shared iteration 1 under identical seeds
        assert a_stats[0] == b_stats[0]
        from termset_retrieval.learning import validation_recall

        a_recall = validation_recall(adaptive, index, dataset.validation, beam_size=10)
        b_recall = validation_recall(baseline, index, dataset.validation, beam_size=10)
        assert a_recall >= b_recall

    @pytest.mark.parametrize("init", ["importance", "likelihood"])
    def test_forcing_once_equals_forcing_every_epoch_afresh(self, init):
        """Weights and every stats field, byte for byte, against a loop that forces the
        targets again at every epoch; the run prepares its query list once."""
        corpus, index, tw, dataset, _, _ = bridging_setup(seed=5)
        config = TrainingConfig(iterations=3, samples=3, epochs=4, lr=0.5, seed=2, init=init)
        initial = FeatureScorer(np.array([1.0, 0.5, 0.3, -0.2]), index.dictionary.terms, tw)
        force = FeatureScorer.force

        class FreshBatch:
            """Forces its rows afresh at every read of its pieces."""

            def __init__(self, scorer, queries, qidx, sequences, searchable):
                self.args, self.rows = (scorer, queries, qidx, sequences, searchable), len(sequences)

            @property
            def pieces(self):
                return force(*self.args).pieces

        with mock.patch.object(FeatureScorer, "force", lambda *args: FreshBatch(*args)):
            want, want_stats = run_training(dataset, index, config, initial)
        with mock.patch.object(FeatureScorer, "prepare", autospec=True,
                               side_effect=FeatureScorer.prepare) as prepared:
            got, stats = run_training(dataset, index, config, initial)
        assert prepared.call_count == 1  # the run's query list, prepared once
        assert got.weights.tobytes() == want.weights.tobytes()
        assert len(stats) == len(want_stats) >= 2
        for s, w in zip(stats, want_stats):
            for f in dataclasses.fields(s):
                assert repr(getattr(s, f.name)) == repr(getattr(w, f.name)), f.name
        # iteration 1's objective is read before its first epoch, under the initial weights
        queries, doc_ids = [p.query for p in dataset.train], [p.doc_id for p in dataset.train]
        rows = prepared_rows(initial, queries)
        if init == "likelihood":
            targets = sample_pairs(*rows, queries, doc_ids, index, initial, 1, 1, 0)[:, 0]
        else:
            targets = [init_permutation(d, index, init) for d in doc_ids]
        lls = initial.sequence_logprobs(*rows, targets, index)
        assert stats[0].mean_objective_logprob == sum(lls.tolist()) / len(targets)

    @pytest.mark.parametrize("source, init", [("order", "importance"),
                                              ("_sample_pairs", "likelihood"),
                                              ("_sample_pairs", "importance")])
    def test_a_bad_target_from_either_source_is_refused_before_it_is_forced(
        self, four_term_index, source, init
    ):
        """An initial target that repeats a term, or sampled candidates that order another
        document's identifier, raise InvariantError; no iteration forces them."""
        from termset_retrieval import learning

        q = Query.from_text("q", "white harbor")
        dataset = learning.LearningDataset([learning.LearningPair(q, "D1"),
                                            learning.LearningPair(q, "D2")])
        config = TrainingConfig(iterations=2, samples=2, epochs=1, init=init)
        if source == "order":  # the importance targets are the stored order's rows
            owner = four_term_index
            bad = four_term_index.order.copy()
            bad[0, 1] = bad[0, 0]  # D1's initial target repeats its first term
        else:
            owner, sample = learning, learning._sample_pairs

            def bad(*args):
                return sample(*args)[::-1]  # each pair gets the other's document
        with mock.patch.object(owner, source, bad), \
                mock.patch.object(FeatureScorer, "force", autospec=True,
                                  side_effect=FeatureScorer.force) as force:
            with pytest.raises(InvariantError, match="not a permutation"):
                run_training(dataset, four_term_index, config,
                             FeatureScorer.zeros(four_term_index))
        # sampling runs at iteration 1 only under likelihood; at 2, after 1 was forced
        assert force.call_count == (source == "_sample_pairs" and init == "importance")

    def test_empty_dataset_rejected(self, four_term_index):
        from termset_retrieval.learning import LearningDataset

        with pytest.raises(DataError, match="empty dataset"):
            run_training(LearningDataset([], []), four_term_index,
                         TrainingConfig(), FeatureScorer.zeros(four_term_index))

    def test_config_validation(self):
        with pytest.raises(DataError):
            TrainingConfig(iterations=0)
        with pytest.raises(DataError):
            TrainingConfig(init="nonsense")
        with pytest.raises(DataError, match="beam_eval must all be >= 1"):
            TrainingConfig(beam_eval=0)
        for lr in (0.0, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DataError, match="lr positive and finite"):
                TrainingConfig(lr=lr)
        cfg = TrainingConfig.from_mapping(
            {"iterations": "3", "lr": "0.25", "init": "random", "ignored_key": "x"}
        )
        assert cfg.iterations == 3 and cfg.lr == 0.25 and cfg.init == "random"


class TestMakeDataset:
    def test_split_holds_out_validation_queries(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=10, seed=1)
        dataset = make_dataset(queries, judgments, val_fraction=0.3, seed=2)
        train_qids = {p.query.query_id for p in dataset.train}
        val_qids = {q.query_id for q, _ in dataset.validation}
        assert not train_qids & val_qids
        assert len(val_qids) == round(0.3 * len(judgments.query_ids))

    def test_pseudo_pairs_tagged(self):
        corpus, queries, judgments = make_bridging_corpus(num_docs=6, seed=1)
        pseudo = [(Query.from_text("pq1", "bridge003 extra"), "D003")]
        dataset = make_dataset(queries, judgments, val_fraction=0.2, seed=0, pseudo_pairs=pseudo)
        assert sum(1 for p in dataset.train if p.pseudo) == 1
