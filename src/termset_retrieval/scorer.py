"""Conditional term-generation probabilities Pr(next term | prefix, query).

A scorer has one required method, `segment_logprobs`: it scores segments
of one decoding step (`index.Step`), each holding the feasible extensions
of one prefix under one query, and normalizes each over its candidates.
The reference implementation is a linear model over cheap query/prefix
features with an exact softmax, so gradients are analytic and the whole
pipeline stays deterministic. Neural plug-ins can implement the same
method and normalize however they like.

The teacher kernel (`sequence_logprobs`, `FeatureScorer.loss_and_grad`)
scores the root step apart from the deeper ones: every query's root
segment is the same step, so `root_logprobs` scores it as one dense
(queries x root terms) block per group of queries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from . import atomic
from .corpus import Corpus, Query
from .errors import DataError, parse_values, read_lines
from .importance import ImportanceModel, _corpus_weights, _find, _refuse_separators
from .index import Index, root_beam

# Each feature varies across a step's candidates: a constant one cancels in
# the candidate softmax, so its gradient is identically zero.
STEP_FEATURES = (
    "in_query",
    "query_prefix4",
    "term_weight",
    "log1p_postings",
)

_SCORER_FORMAT = "termset-scorer/2"

# Extension rows the teacher-forcing kernel scores at once. At the root every
# query's segment holds the whole root step, so an unchunked batch would
# build (queries x vocabulary) blocks.
TEACHER_CHUNK_ROWS = 1 << 14


class Scorer(ABC):
    """Per-step log-probabilities over a candidate term set.

    Plug-in contract: implementations receive the feasible candidate set
    but may normalize over their own (larger) vocabulary; the reference
    implementation normalizes over the candidates. A scorer built on a
    subword model must treat its term-separator symbol as the term
    boundary and return each candidate term's total log-probability.
    Only segment_logprobs is required: search calls step_scorer once per
    query, whose step function defaults to one segment_logprobs call per
    step; training calls root_logprobs at the root, which defaults to one
    segment_logprobs call, and segment_logprobs directly below it.
    """

    @abstractmethod
    def segment_logprobs(self, queries, step, seg_query, ext, ptr) -> np.ndarray:
        """Score segments of one step, each under its own query.

        `step` is an `index.Step`. Segment s holds the step extensions
        ext[ptr[s]:ptr[s + 1]], which all extend one hypothesis, and is
        normalized over them under queries[seg_query[s]]. A scorer reads
        the candidates from the step: their terms `step.terms[ext]`, child
        sizes `step.sizes[ext]` and hypotheses `step.parents[ext]`, whose
        prefixes are rows of `step.seqs`, all of length `step.depth`. The
        result holds one log-probability per entry of `ext`. An empty
        segment raises DataError.
        """

    def step_scorer(self, query: Query):
        """The function that scores a decoding step of a whole beam under `query`.

        It scores one segment per hypothesis, holding all of its extensions,
        and returns one log-probability per extension, in step order. Search
        calls this once per query, so per-query tables belong here.
        """

        def step_logprobs(step) -> np.ndarray:
            seg_query = np.zeros(len(step.seqs), dtype=np.int64)
            ext = np.arange(len(step.terms))
            return self.segment_logprobs([query], step, seg_query, ext, step.offsets)

        return step_logprobs

    def root_logprobs(self, queries, step, slots) -> np.ndarray:
        """The root step under each query of `slots`, as a (len(slots), len(step.terms)) block.

        `step` is the depth-0 step, one hypothesis holding every root term.
        Row i is its one segment normalized under queries[slots[i]], as
        `segment_logprobs` scores it.
        """
        width = len(step.terms)
        ext = np.tile(np.arange(width), len(slots))
        ptr = np.arange(len(slots) + 1) * width
        return self.segment_logprobs(queries, step, slots, ext, ptr).reshape(len(slots), width)


class UniformScorer(Scorer):
    """Every feasible candidate equally likely; handy for oracles and ties."""

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        counts = np.diff(ptr)
        if not counts.all():
            raise DataError("empty candidate set")
        return np.repeat([-math.log(count) for count in counts.tolist()], counts)


class FeatureScorer(Scorer):
    """Linear softmax over step features, trainable by teacher forcing.

    `terms` mirrors the index dictionary (sorted); `term_weights` holds the
    corpus-max importance weight per term. Both are fixed at construction,
    only `weights` learns. An extension's score is its features' weighted
    sum, added in STEP_FEATURES order row by row, so it depends only on
    the extension, wherever it sits in a batch.
    """

    def __init__(self, weights: np.ndarray, terms: list[str], term_weights: np.ndarray):
        if len(terms) != len(term_weights):
            raise DataError("term list and term weight table differ in length")
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(STEP_FEATURES),):
            raise DataError(f"expected {len(STEP_FEATURES)} step weights")
        self.terms = list(terms)
        self.term_weights = np.asarray(term_weights, dtype=float)
        self._term_id = {t: i for i, t in enumerate(self.terms)}
        # a query flag column per term (its id) and per distinct first-four-
        # character stem (V + the stem's id), and every term's stem column
        self._stem_col: dict[str, int] = {}
        stems = [self._stem_col.setdefault(t[:4], len(self.terms) + len(self._stem_col))
                 for t in self.terms]
        self._term_stem = np.array(stems, dtype=np.int64)

    @classmethod
    def zeros(cls, index: Index, term_weights: np.ndarray | None = None) -> "FeatureScorer":
        if term_weights is None:
            term_weights = np.zeros(len(index.dictionary))
        return cls(np.zeros(len(STEP_FEATURES)), index.dictionary.terms, term_weights)

    def copy(self) -> "FeatureScorer":
        return FeatureScorer(self.weights.copy(), self.terms, self.term_weights)

    def step_scorer(self, query):
        """Bit-identical to the base step function, from a per-query term table.

        A score's first three terms, (in_query * w0 + query_prefix4 * w1) +
        term_weight * w2, depend only on the term: the query's row of the
        root block's `_tables`, taken over the whole vocabulary and gathered
        by term id, replaces `_segment_features`.
        """
        words = self._query_words([query], np.zeros(1, dtype=np.int64))
        table = self._tables(words, 1, slice(len(self.terms)))[2][0]

        def step_logprobs(step) -> np.ndarray:
            scores = table.take(step.terms) + np.log1p(step.sizes) * self.weights[3]
            return _log_softmax(scores, step.offsets)

        return step_logprobs

    def root_logprobs(self, queries, step, slots):
        """Bit-identical to the base root block, from one term table per query."""
        group, inverse = np.unique(slots, return_inverse=True)
        return self._root_block(self._query_words(queries, group), step, len(group))[2][inverse]

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        """One feature matrix for all segments, normalized segment by segment."""
        group, seg_row = np.unique(seg_query, return_inverse=True)
        feats = self._segment_features(self._query_words(queries, group), step, seg_row, ext, ptr)
        return _log_softmax(self._scores(feats), ptr)

    def _scores(self, feats) -> np.ndarray:
        """Each row's score, summed in the order `step_scorer` sums it."""
        f, w = feats.T, self.weights
        return ((f[0] * w[0] + f[1] * w[1]) + f[2] * w[2]) + f[3] * w[3]

    def _query_words(self, queries, slots) -> np.ndarray:
        """The words of each slot's query as (row, flag column) pairs, in one flat pass.

        A (2, k) array; row i holds the words of queries[slots[i]]. Column
        c < V flags term c (`in_query`), column V + g flags stem g
        (`query_prefix4`); each word gives its term's pair and its stem's,
        if the vocabulary has them. Repeated words repeat a pair.
        """
        term_id, stem_col = self._term_id.get, self._stem_col.get
        pairs = [(row, column) for row, slot in enumerate(slots.tolist())
                 for t in queries[slot].terms
                 for column in (term_id(t, -1), stem_col(t[:4], -1)) if column >= 0]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    def _tables(self, words, rows, terms):
        """in_query, query_prefix4 and partial score of `terms` under each of `rows` queries.

        `words` holds the rows' `_query_words` pairs; `terms` holds term
        ids, or is a slice of them, which keeps the gathers views. Each
        result is a (rows, len(terms)) block, gathered from one scatter of
        the rows' flag columns. The partial score is (in_query * w0 +
        query_prefix4 * w1) + term_weight * w2, the first three terms of a
        step score, summed as `_scores` sums them.
        """
        flags = np.zeros((rows, len(self.terms) + len(self._stem_col)))
        flags[tuple(words)] = 1.0
        in_query, prefix4 = flags[:, terms], flags.take(self._term_stem[terms], axis=1)
        w = self.weights
        partial = (in_query * w[0] + prefix4 * w[1]) + self.term_weights[terms] * w[2]
        return in_query, prefix4, partial

    def _root_block(self, words, step, rows):
        """`root_logprobs` of `rows` queries (see `_tables`), with their two query flags.

        One dense block: each row's partial scores plus log1p(size) * w3,
        flattened and normalized row by row. No per-row feature matrix is built.
        """
        in_query, prefix4, table = self._tables(words, rows, step.terms)
        scores = table + np.log1p(step.sizes) * self.weights[3]
        logprobs = _log_softmax(scores.ravel(), np.arange(rows + 1) * scores.shape[1])
        return in_query, prefix4, logprobs.reshape(scores.shape)

    def _segment_features(self, words, step, seg_row, ext, ptr) -> np.ndarray:
        """The features of every segment's extensions under the segment's query.

        Segment s is scored under the query of row seg_row[s] of `words`.
        Instead of one dense vector per query (`step_scorer`), the query
        flags are looked up by key, row * C + flag column with C columns,
        in one sorted array of the `_query_words` pairs' keys.
        """
        row, column = words
        width = len(self.terms) + len(self._stem_col)
        keys = np.unique(row * width + column)
        row_key = np.repeat(seg_row, np.diff(ptr)) * width
        terms = step.terms[ext]
        feats = np.empty((len(ext), len(STEP_FEATURES)))
        feats[:, 0] = _find(keys, row_key + terms) >= 0
        feats[:, 1] = _find(keys, row_key + self._term_stem[terms]) >= 0
        feats[:, 2] = self.term_weights[terms]
        feats[:, 3] = np.log1p(step.sizes[ext])
        return feats

    # -- training -----------------------------------------------------------

    def loss_and_grad(self, batch, searchable):
        """Teacher-forced cross-entropy over (query, target id sequence) pairs.

        Loss is the mean negative sequence log-likelihood; the gradient is
        the usual softmax difference E_p[features] - features[target],
        summed over every step of every target. The batch is forced through
        the teacher kernel (`_teacher_chunks`): one expand per depth for
        all targets, each distinct (query, prefix) segment scored once and
        weighted by the number of targets passing through it, in chunks of
        at most TEACHER_CHUNK_ROWS extensions. The query words are paired
        with their slots once. Root chunks are dense blocks (`_root_block`):
        their expected features are column sums of the weighted
        probabilities, so no per-row feature matrix is built there.
        """
        if not batch:
            raise DataError("empty training batch")
        queries, qidx = _query_slots([query for query, _ in batch])
        words = self._query_words(queries, np.arange(len(queries)))
        total_loss = 0.0
        grad = np.zeros_like(self.weights)
        for chunk in _teacher_chunks(searchable, qidx, [target for _, target in batch]):
            if chunk.ext is None:
                logprobs, expected, target = self._root_terms(words, chunk)
            else:
                feats = self._segment_features(words, *chunk[:4])
                logprobs = _log_softmax(self._scores(feats), chunk.ptr)
                weighted = np.exp(logprobs) * np.repeat(chunk.weight, np.diff(chunk.ptr))
                expected, target = weighted @ feats, feats[chunk.at]
            total_loss -= logprobs[chunk.at].sum()
            grad += expected - target.sum(axis=0)
        return total_loss / len(batch), grad / len(batch)

    def _root_terms(self, words, chunk):
        """A root chunk's flat log-probs, weighted expected features and target rows' features.

        `words` pairs every query slot's words. The expected features are
        sums over the weighted probability block P: of P * in_query and P *
        query_prefix4, and the column sums of P times each root term's
        term_weight and log1p_postings.
        """
        step, group = chunk.step, chunk.seg_query  # distinct slots, ascending
        slot, column = words
        row = _find(group, slot)
        hit = row >= 0
        in_query, prefix4, logprobs = self._root_block((row[hit], column[hit]), step, len(group))
        weighted = np.exp(logprobs) * chunk.weight[:, None]
        mass = weighted.sum(axis=0)
        term_weights, log_sizes = self.term_weights[step.terms], np.log1p(step.sizes)
        expected = np.array([(weighted * in_query).sum(), (weighted * prefix4).sum(),
                             mass @ term_weights, mass @ log_sizes])
        seg, pick = np.divmod(chunk.at, logprobs.shape[1])
        target = np.column_stack([in_query[seg, pick], prefix4[seg, pick],
                                  term_weights[pick], log_sizes[pick]])
        return logprobs.ravel(), expected, target

    def train_step(self, batch, searchable, lr: float) -> float:
        """One full-batch gradient step; returns the pre-update loss.

        A non-finite loss or update raises ArithmeticError: training diverged.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = self.loss_and_grad(batch, searchable)
            update = lr * grad
        if not (math.isfinite(loss) and np.isfinite(update).all()):
            raise ArithmeticError(f"non-finite teacher-forcing loss {loss} or update (lr={lr})")
        self.weights -= update
        return loss


def _log_softmax(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment scores[offsets[i]:offsets[i + 1]] minus its log-sum-exp.

    A segment's max and sum of exps depend only on its own scores, so it
    normalizes bit for bit alike alone or among others. Segments of one
    width are normalized as the rows of one block, whose row sums are the
    pairwise `.sum()` of each row. `np.add.reduceat` adds a segment's first
    element to the pairwise sum of the rest; a leading exp(-inf) = 0 makes
    that the pairwise `.sum()` of the segment.
    """
    counts = offsets[1:] - offsets[:-1]
    if not counts.all():
        raise DataError("empty candidate set")
    if len(counts) and (counts == counts[0]).all():
        block = scores.reshape(len(counts), counts[0])
        m = block.max(axis=1, keepdims=True)
        return (block - (m + np.log(np.exp(block - m).sum(axis=1, keepdims=True)))).ravel()
    heads = offsets[:-1] + np.arange(len(counts))  # the leading 0s
    m = np.maximum.reduceat(scores, offsets[:-1])
    shifted = np.full(len(scores) + len(counts), -np.inf)
    body = np.ones(len(shifted), dtype=bool)
    body[heads] = False
    shifted[body] = scores - np.repeat(m, counts)
    return scores - np.repeat(m + np.log(np.add.reduceat(np.exp(shifted), heads)), counts)


def _query_slots(queries):
    """The distinct query objects, and each entry's slot among them."""
    slots: dict[int, int] = {}
    qidx = np.array([slots.setdefault(id(q), len(slots)) for q in queries], dtype=np.int64)
    return list({id(q): q for q in queries}.values()), qidx


class _Chunk(NamedTuple):
    """Whole (query, prefix) segments of one teacher-forcing step.

    Segment s scores all extensions of its prefix, ext[ptr[s]:ptr[s + 1]],
    under query slot seg_query[s]; `weight[s]` rows pass through it. Row
    rows[i] continues with extension ext[at[i]]. At the root every segment
    holds the whole one-hypothesis step in order, so `ext` is None: the
    chunk is a dense (segments x root terms) block, and at[i] is the row's
    segment times the root terms plus its extension.
    """

    step: object
    seg_query: np.ndarray
    ext: np.ndarray | None
    ptr: np.ndarray
    weight: np.ndarray
    rows: np.ndarray
    at: np.ndarray


def _teacher_chunks(searchable, qidx, sequences):
    """Force every row's sequence from the root, one `expand` per depth.

    Row r walks sequences[r] under query slot qidx[r]. At each depth the
    rows' distinct prefixes form one beam, expanded at once; each row's
    next term is located among its prefix's extensions (an infeasible term
    raises DataError). The rows' distinct (query, prefix) segments are
    yielded in `_Chunk`s of at most TEACHER_CHUNK_ROWS extensions, or one
    segment when that alone is larger. Root chunks come first.
    """
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    seqs = np.full((len(sequences), lengths.max(initial=0)), -1, dtype=np.int64)
    for row, seq in zip(seqs, sequences):
        row[: len(seq)] = seq
    beam = root_beam(searchable)
    hyp = np.zeros(len(seqs), dtype=np.int64)  # each row's prefix in the beam
    for depth in range(seqs.shape[1]):
        rows = np.flatnonzero(lengths > depth)
        step = searchable.expand(*beam)
        picks = step.locate(hyp[rows], seqs[rows, depth])
        if (picks < 0).any():
            row = rows[np.argmax(picks < 0)]
            prefix = tuple(seqs[row, :depth].tolist())
            raise DataError(f"term id {int(seqs[row, depth])} infeasible at prefix {prefix}")
        yield from _segment_chunks(step, qidx[rows], hyp[rows], rows, picks)
        *beam, hyp[rows] = step.descend(picks)


def _segment_chunks(step, row_query, row_hyp, rows, picks):
    """Group rows into (query, prefix) segments and cut them into `_Chunk`s."""
    offsets = step.offsets
    keys, row_seg = np.unique(row_query * len(step.seqs) + row_hyp, return_inverse=True)
    seg_query, seg_hyp = np.divmod(keys, len(step.seqs))
    sizes = offsets[seg_hyp + 1] - offsets[seg_hyp]
    ends = np.cumsum(sizes)
    weight = np.bincount(row_seg, minlength=len(keys))
    order = np.argsort(row_seg, kind="stable")
    row_bounds = np.searchsorted(row_seg[order], np.arange(len(keys) + 1))
    a = 0
    while a < len(keys):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + TEACHER_CHUNK_ROWS, "right")))
        ptr = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum(sizes[a:b], out=ptr[1:])
        ext = None
        if step.depth:
            ext = np.repeat(offsets[seg_hyp[a:b]] - ptr[:-1], sizes[a:b]) + np.arange(ptr[-1])
        mine = order[row_bounds[a] : row_bounds[b]]
        at = ptr[row_seg[mine] - a] + picks[mine] - offsets[row_hyp[mine]]
        yield _Chunk(step, seg_query[a:b], ext, ptr, weight[a:b], rows[mine], at)
        a = b


def sequence_logprobs(scorer: Scorer, queries, sequences, searchable) -> np.ndarray:
    """`sequence_logprob` of every (queries[r], sequences[r]) through the teacher kernel.

    Each distinct (query, prefix) step is scored once, with one
    `root_logprobs` call per root chunk and one `segment_logprobs` call per
    deeper chunk, and each row sums its steps in order, so the results are
    bit-identical to scoring row by row.
    """
    slots, qidx = _query_slots(queries)
    total = np.zeros(len(sequences))
    for chunk in _teacher_chunks(searchable, qidx, sequences):
        if chunk.ext is None:
            logprobs = scorer.root_logprobs(slots, chunk.step, chunk.seg_query).ravel()
        else:
            logprobs = scorer.segment_logprobs(slots, *chunk[:4])
        total[chunk.rows] += logprobs[chunk.at]
    return total


def sequence_logprob(scorer: Scorer, query: Query, term_ids, searchable) -> float:
    """Sum of step log-probabilities along a valid identifier prefix."""
    return float(sequence_logprobs(scorer, [query], [list(term_ids)], searchable)[0])


def build_term_weights(index: Index, corpus: Corpus, model: ImportanceModel) -> np.ndarray:
    """Corpus-max importance weight per dictionary term (0 for synthetic terms)."""
    rows, weights = _corpus_weights(corpus, model)
    slot = _find(np.array(index.dictionary.terms, dtype=object), np.array(rows.terms, dtype=object))
    slot = slot[rows.term]  # each row's dictionary id, -1 for a term no identifier holds
    held = slot >= 0
    table = np.zeros(len(index.dictionary))
    np.maximum.at(table, slot[held], weights[held])
    return table


def save_scorer(scorer: FeatureScorer, path) -> None:
    """A term holding a line break is a DataError before writing: `load_scorer` would split it."""
    _refuse_separators(scorer.terms, "term")
    lines = [
        _SCORER_FORMAT,
        "features\t" + " ".join(STEP_FEATURES),
        "weights\t" + " ".join(repr(float(w)) for w in scorer.weights),
        f"terms\t{len(scorer.terms)}",
    ]
    for term, weight in zip(scorer.terms, scorer.term_weights):
        lines.append(f"{term}\t{float(weight)!r}")
    atomic.write_text(path, "\n".join(lines) + "\n")


def load_scorer(path) -> FeatureScorer:
    lines = read_lines(path)
    if not lines or lines[0] != _SCORER_FORMAT:
        raise DataError(f"{path}: not a {_SCORER_FORMAT} file")
    header: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(lines[1:4], start=2):
        key, tab, value = line.partition("\t")
        if not tab:
            raise DataError(f"{path}:{lineno}: header line is not 'key<TAB>value'")
        header[key] = (lineno, value)
    for key in ("features", "weights", "terms"):
        if key not in header:
            raise DataError(f"{path}: missing {key!r} header line")
    lineno, value = header["features"]
    if value != " ".join(STEP_FEATURES):
        raise DataError(f"{path}:{lineno}: unexpected step-feature schema")
    lineno, value = header["weights"]
    weights = np.array(parse_values(float, value.split(" "), f"{path}:{lineno}: step weights"))
    if len(weights) != len(STEP_FEATURES):
        raise DataError(f"{path}:{lineno}: {len(weights)} step weights, expected {len(STEP_FEATURES)}")
    if not np.isfinite(weights).all():
        raise DataError(f"{path}:{lineno}: step weights {value!r} are not all finite")
    lineno, value = header["terms"]
    (count,) = parse_values(int, [value], f"{path}:{lineno}: term count")
    terms, term_weights = [], []
    for lineno, line in enumerate(lines[4:], start=5):
        if not line:
            continue
        term, tab, weight = line.rpartition("\t")
        if not tab:
            raise DataError(f"{path}:{lineno}: term line is not 'term<TAB>weight'")
        (value,) = parse_values(float, [weight], f"{path}:{lineno}: term weight")
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: term weight {weight!r} is not finite")
        terms.append(term)
        term_weights.append(value)
    if len(terms) != count:
        raise DataError(f"{path}: vocabulary count mismatch")
    return FeatureScorer(weights, terms, np.array(term_weights))


def check_compatible(scorer: FeatureScorer, index: Index) -> None:
    """Refuse a scorer for another vocabulary, or one that can reach a non-finite score.

    A step score is monotone in each feature, so it lies between its values
    at the features' extremes: in_query and query_prefix4 at 0 and 1, the
    lowest and highest term_weight, and log1p_postings at a child size of 1
    and at the largest posting. These are summed as `FeatureScorer._tables`
    and `_scores` sum them, in search and training alike. The lowest
    log-likelihood of an identifier, n steps each at most the score spread
    plus log V below 0, must be finite too.
    """
    if scorer.terms != index.dictionary.terms:
        raise DataError("vocabulary mismatch between index and scorer")
    w, flag = scorer.weights, np.array([0.0, 1.0])
    weights = np.append(scorer.term_weights, 0.0)  # 0 too, which keeps an empty vocabulary defined
    term_weight = np.array([weights.min(), weights.max()])
    log_sizes = np.log1p([1, index.posting_sizes.max(initial=1)])
    with np.errstate(over="ignore", invalid="ignore"):
        table = (flag[:, None, None] * w[0] + flag[None, :, None] * w[1]) + term_weight * w[2]
        scores = table[..., None] + log_sizes * w[3]
        floor = index.n * ((scores.min() - scores.max()) - math.log(max(len(scorer.terms), 1)))
    if not (np.isfinite(scores).all() and math.isfinite(floor)):
        raise DataError(f"scorer weights {w.tolist()} can give a non-finite step score")
