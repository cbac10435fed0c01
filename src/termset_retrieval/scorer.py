"""Conditional term-generation probabilities Pr(next term | prefix, query).

A scorer has one required method, `segment_logprobs`: it scores segments
of one decoding step (`index.Step`), each holding the feasible extensions
of one prefix under one query, and normalizes each over its candidates.
Queries reach it in the form its `prepare` makes of a query list, once per
list: the list itself by default. Neural plug-ins can implement the same
method and normalize however they like.

The reference implementation, `FeatureScorer`, is a linear model over four
step features with an exact softmax, so gradients are analytic and the
whole pipeline stays deterministic. A query word's term always has a stem
column, so `in_query` implies `query_prefix4`, and an extension's two query
flags are one of three codes: 0 = (0, 0), 1 = (0, 1), 2 = (1, 1). Every
score, in search and in training, is one formula on (code, term, child
size), `FeatureScorer._scores`:

    (C[code] + term_weight[term] * w2) + log1p(size) * w3,
    C[code] = in_query * w0 + query_prefix4 * w1.

Codes are derived from the query words' flag columns in two ways: a dense
scatter for segments that are each a whole one-hypothesis root step
(search's per-query term table, the teacher kernel's root chunks), and a
lookup in the sorted keys that `FeatureScorer.prepare` makes of a query
list for any other segments.

`FeatureScorer.force` walks a batch through the teacher kernel once and
keeps what does not depend on the weights (`ForcedBatch`): a deeper chunk's
int8 codes, terms and child sizes, a root chunk's query flags as (row, flag
column) pairs, and each chunk's target feature sums. `forced_logprobs` and
`forced_loss_and_grad` then score the batch under the weights of the
moment, so training forces each iteration's targets once for all of its
epochs. The gradient is four code and column sums per chunk, with no sum
through BLAS.
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
from .index import DenseStep, Index, root_beam

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

_LOG1P_ONE = np.log1p(np.ones(1))


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
    segment_logprobs call, and segment_logprobs directly below it. Every
    kernel hands them its query list as `prepare` made it.
    """

    @abstractmethod
    def segment_logprobs(self, queries, step, seg_query, ext, ptr) -> np.ndarray:
        """Score segments of one step, each under its own query.

        `queries` is what `prepare` made of a query list, and `step` an
        `index.Step`. Segment s holds the step extensions ext[ptr[s]:ptr[s +
        1]], which all extend one hypothesis, and is normalized over them
        under query seg_query[s] of the list. A scorer reads the candidates
        from the step: their terms `step.terms[ext]`, child sizes
        `step.sizes[ext]` and hypotheses `step.parents[ext]`, whose prefixes
        are rows of `step.seqs`, all of length `step.depth`. The result holds
        one log-probability per entry of `ext`. An empty segment raises
        DataError.
        """

    def prepare(self, queries: list[Query]):
        """The form of a query list that every kernel hands this scorer: the list itself.

        A run prepares its query list once and names each row's query by its
        position in the list, so a scorer that reads queries through a table
        of its own builds it here, once.
        """
        return queries

    def step_scorer(self, query: Query):
        """The function that scores a decoding step of a whole beam under `query`.

        It scores one segment per hypothesis, holding all of its extensions,
        and returns one log-probability per extension, in step order. Search
        calls this once per query, so per-query tables belong here.
        """
        prepared = self.prepare([query])

        def step_logprobs(step) -> np.ndarray:
            seg_query = np.zeros(len(step.seqs), dtype=np.int64)
            ext = np.arange(len(step.terms))
            return self.segment_logprobs(prepared, step, seg_query, ext, step.offsets)

        return step_logprobs

    def root_logprobs(self, queries, step, slots) -> np.ndarray:
        """The root step under each query of `slots`, as a (len(slots), len(step.terms)) block.

        `step` is the depth-0 step, one hypothesis holding every root term.
        Row i is its one segment normalized under query slots[i] of the
        prepared `queries`, as `segment_logprobs` scores it.
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
    only `weights` learns. An extension's score (`_scores`) depends only on
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
        self._width = len(self.terms) + len(self._stem_col)  # flag columns

    @classmethod
    def zeros(cls, index: Index, term_weights: np.ndarray | None = None) -> "FeatureScorer":
        if term_weights is None:
            term_weights = np.zeros(len(index.dictionary))
        return cls(np.zeros(len(STEP_FEATURES)), index.dictionary.terms, term_weights)

    def copy(self) -> "FeatureScorer":
        return FeatureScorer(self.weights.copy(), self.terms, self.term_weights)

    def prepare(self, queries) -> np.ndarray:
        """The query list's word flags, as sorted keys slot * C + flag column.

        C is the number of flag columns (`_columns`), and slot i is
        queries[i]. Repeated words give one key.
        """
        keys = {slot * self._width + c for slot, q in enumerate(queries) for c in self._columns(q)}
        return np.array(sorted(keys), dtype=np.int64)

    def step_scorer(self, query):
        """Bit-identical to the base step function, from a per-query term table.

        A score's first two terms, C[code] + term_weight * w2, depend only on
        the term under the query, so `_scores` of the query's codes for every
        term (`_code_block`) is one vocabulary-length table, gathered by term
        id at every step. The last, log1p_postings * w3, gathers log1p(size)
        from the searchable's `log1p_sizes`, a table of log1p(0..largest
        posting size) bit-equal to `np.log1p`, and is added to the gathered
        table (a sum of two floats is commutative). A `DenseStep` is scored
        as its block of terms: every child holds one document, and every row
        is one segment.
        """
        codes = self._code_block((0, self._columns(query)), 1, slice(len(self.terms)))[0]
        table = self._scores(codes, self.term_weights)
        single = _LOG1P_ONE * self.weights[3]  # log1p_postings * w3 of a size-1 child

        def step_logprobs(step) -> np.ndarray:
            if isinstance(step, DenseStep):
                return _row_log_softmax(table.take(step.block) + single).ravel()
            scores = step.searchable.log1p_sizes.take(step.sizes)
            scores *= self.weights[3]
            scores += table.take(step.terms)
            return _log_softmax(scores, step.offsets)

        return step_logprobs

    def root_logprobs(self, queries, step, slots):
        """Bit-identical to the base root block, with the codes of one dense scatter."""
        group, inverse = np.unique(slots, return_inverse=True)
        codes = self._code_block(self._pairs(queries, group), len(group), step.terms)[inverse]
        log_sizes = step.searchable.log1p_sizes.take(step.sizes)
        return _row_log_softmax(self._scores(codes, self.term_weights[step.terms], log_sizes))

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        """All segments' codes by one key lookup, normalized segment by segment."""
        terms = step.terms[ext]
        codes = self._lookup(queries, seg_query, terms, ptr)
        log_sizes = step.searchable.log1p_sizes.take(step.sizes[ext])
        return _log_softmax(self._scores(codes, self.term_weights[terms], log_sizes), ptr)

    def _scores(self, codes, term_weights, log_sizes=None) -> np.ndarray:
        """The score formula, (C[code] + term_weight * w2) + log1p(size) * w3.

        Each extension's code, its term's weight and its child size's log1p.
        C[code] = in_query * w0 + query_prefix4 * w1 of the code's two flags,
        so every score is summed in STEP_FEATURES order. Without `log_sizes`,
        C[code] + term_weight * w2: search's per-query term table. Arrays
        broadcast: a root chunk's (segments, root terms) codes take the root
        step's term weights and log1p sizes.
        """
        w0, w1, w2, w3 = self.weights.tolist()  # Python floats multiply as float64 does
        code_scores = np.array([0.0 * w0 + 0.0 * w1, 0.0 * w0 + 1.0 * w1, 1.0 * w0 + 1.0 * w1])
        scores = code_scores.take(codes) + term_weights * w2
        if log_sizes is not None:
            scores += log_sizes * w3
        return scores

    def _columns(self, query) -> list[int]:
        """The flag columns of the words of `query`.

        Column c < V flags term c (`in_query`), column V + g flags stem g
        (`query_prefix4`); each word gives its term's column and its stem's,
        if the vocabulary has them, so a term's column comes with its stem's.
        Repeated words repeat a column.
        """
        term_id, stem_col = self._term_id.get, self._stem_col.get
        return [c for t in query.terms for c in (term_id(t, -1), stem_col(t[:4], -1)) if c >= 0]

    def _pairs(self, keys, group) -> tuple[np.ndarray, np.ndarray]:
        """The word flags of queries `group` as (row, flag column) pairs, row i query group[i].

        `keys` is `prepare`'s; `group` holds distinct slots, ascending.
        """
        width = self._width
        lo, hi = keys.searchsorted([group[0] * width, group[-1] * width + width])
        mine = keys[lo:hi]
        slot, column = np.divmod(mine, width)
        row = _find(group, slot)
        hit = row >= 0
        return row[hit], column[hit]

    def _code_block(self, pairs, rows, terms) -> np.ndarray:
        """The codes of `terms` under `rows` queries, flagged by (row, flag column) `pairs`.

        The dense scatter: the pairs are set in one (rows, flag columns) int8
        block, and each term's code is its own column plus its stem's. A
        (rows, len(terms)) int8 block.
        """
        flags = np.zeros((rows, self._width), dtype=np.int8)
        flags[pairs] = 1
        return flags[:, terms] + flags.take(self._term_stem[terms], axis=1)

    def _lookup(self, keys, seg_query, terms, ptr) -> np.ndarray:
        """The code of every segment's terms[ptr[s]:ptr[s + 1]] under query seg_query[s], as int8.

        The key lookup: each extension's two keys, slot * C + its term's
        column and slot * C + its stem's column, are found in `prepare`'s
        sorted keys.
        """
        row_key = np.repeat(seg_query * self._width, np.diff(ptr))
        codes = (_find(keys, row_key + terms) >= 0).astype(np.int8)
        codes += _find(keys, row_key + self._term_stem[terms]) >= 0
        return codes

    # -- training -----------------------------------------------------------

    def force(self, queries, qidx, sequences, searchable) -> "ForcedBatch":
        """Force every row r, sequences[r] under query qidx[r], through the teacher kernel once.

        `_teacher_chunks` is walked once. A deeper chunk keeps its codes
        (`_lookup`), terms and child sizes; a root chunk, whose every segment
        is the whole root step, keeps its queries' flags as (row, flag
        column) pairs, which `_code_block` scatters at each read, and the
        root step's terms and sizes. Each chunk also keeps its target rows'
        four feature sums, each one pairwise `.sum()` over them in order.
        Nothing kept depends on the weights, so the batch can be read under
        any of them.
        """
        log1p_sizes, chunks = searchable.log1p_sizes, []
        for chunk in _teacher_chunks(searchable, qidx, sequences):
            step, seg_query = chunk.step, chunk.seg_query
            if chunk.ext is None:
                pairs, terms, sizes = self._pairs(queries, seg_query), step.terms, step.sizes
                codes = self._code_block(pairs, len(seg_query), terms)
            else:
                pairs, terms, sizes = None, step.terms[chunk.ext], step.sizes[chunk.ext]
                codes = self._lookup(queries, seg_query, terms, chunk.ptr)
            # each target row's extension: at[i] in the flat chunk, whose
            # terms and sizes repeat per segment at the root
            picked, pick = codes.ravel()[chunk.at], chunk.at % codes.shape[-1]
            target = np.array([(picked == 2).sum(), (picked >= 1).sum(),
                               self.term_weights[terms[pick]].sum(),
                               log1p_sizes.take(sizes[pick]).sum()])
            kept = codes if pairs is None else None
            chunks.append(_Forced(pairs, kept, terms, sizes, *chunk[3:], target))
        return ForcedBatch(chunks, len(sequences), log1p_sizes)

    def _read(self, chunk, log1p_sizes):
        """A forced chunk's codes, term weights, log1p sizes and flat log-probs."""
        codes = chunk.codes
        if codes is None:  # a root chunk
            codes = self._code_block(chunk.pairs, len(chunk.weight), chunk.terms)
        term_weights, log_sizes = self.term_weights[chunk.terms], log1p_sizes.take(chunk.sizes)
        logprobs = _log_softmax(self._scores(codes, term_weights, log_sizes).ravel(), chunk.ptr)
        return codes, term_weights, log_sizes, logprobs

    def forced_logprobs(self, batch: "ForcedBatch") -> np.ndarray:
        """Every row's sequence log-likelihood under the current weights.

        The same bits as `sequence_logprobs`: each chunk is scored as
        `root_logprobs` or `segment_logprobs` scores it, and each row sums
        its steps in order.
        """
        total = np.zeros(batch.rows)
        for chunk in batch.chunks:
            total[chunk.rows] += self._read(chunk, batch.log1p_sizes)[3][chunk.at]
        return total

    def loss_and_grad(self, batch, searchable):
        """Teacher-forced cross-entropy over (query, target id sequence) pairs.

        The batch is forced (`force`) and read once (`forced_loss_and_grad`).
        """
        slots, qidx = _query_slots([query for query, _ in batch])
        targets = [target for _, target in batch]
        return self.forced_loss_and_grad(self.force(self.prepare(slots), qidx, targets, searchable))

    def forced_loss_and_grad(self, batch: "ForcedBatch"):
        """Loss and gradient of a forced batch under the current weights.

        Loss is the mean negative sequence log-likelihood; the gradient is
        the usual softmax difference E_p[features] - features[target],
        summed over every step of every target. Each distinct (query,
        prefix) segment is scored once and weighted by the number of
        targets passing through it.

        No sum goes through BLAS. A chunk's expected value of each feature is
        one pairwise `.sum()` of its weighted probabilities times the feature
        (code 2, code >= 1, term weight, log1p size), over the chunk's
        extensions in order; its target sums were taken when it was forced.
        Root and deeper chunks sum alike, and the chunks' differences are
        added in chunk order.
        """
        if not batch.rows:
            raise DataError("empty training batch")
        total_loss = 0.0
        grad = np.zeros_like(self.weights)
        for chunk in batch.chunks:
            codes, term_weights, log_sizes, logprobs = self._read(chunk, batch.log1p_sizes)
            weighted = np.exp(logprobs) * np.repeat(chunk.weight, np.diff(chunk.ptr))
            weighted = weighted.reshape(codes.shape)
            columns = (codes == 2, codes >= 1, term_weights, log_sizes)
            total_loss -= logprobs[chunk.at].sum()
            grad += np.array([(weighted * column).sum() for column in columns]) - chunk.target
        return total_loss / batch.rows, grad / batch.rows

    def train_step(self, batch: "ForcedBatch", lr: float) -> float:
        """One full-batch gradient step on a forced batch; returns the pre-update loss.

        A non-finite loss or update raises ArithmeticError: training diverged.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = self.forced_loss_and_grad(batch)
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
    element to the pairwise sum of the rest, so the shifted exps are
    written into a zero-filled buffer one slot apart per segment: with its
    leading 0, each segment's reduceat is the pairwise `.sum()` of its exps.
    """
    counts = offsets[1:] - offsets[:-1]
    if not counts.all():
        raise DataError("empty candidate set")
    if len(counts) and (counts == counts[0]).all():
        return _row_log_softmax(scores.reshape(len(counts), counts[0])).ravel()
    heads = offsets[:-1] + np.arange(len(counts))  # the leading 0s
    m = np.maximum.reduceat(scores, offsets[:-1])
    exps = np.zeros(len(scores) + len(counts))
    body = np.ones(len(exps), dtype=bool)
    body[heads] = False
    exps[body] = np.exp(scores - np.repeat(m, counts))
    return scores - np.repeat(m + np.log(np.add.reduceat(exps, heads)), counts)


def _row_log_softmax(block: np.ndarray) -> np.ndarray:
    """Each row of a block minus its log-sum-exp."""
    if not block.shape[1]:
        raise DataError("empty candidate set")
    m = block.max(axis=1, keepdims=True)
    return block - (m + np.log(np.exp(block - m).sum(axis=1, keepdims=True)))


def _query_slots(queries):
    """The distinct query objects, and each entry's slot among them."""
    slots: dict[int, int] = {}
    qidx = np.array([slots.setdefault(id(q), len(slots)) for q in queries], dtype=np.int64)
    return list({id(q): q for q in queries}.values()), qidx


class _Chunk(NamedTuple):
    """Whole (query, prefix) segments of one teacher-forcing step.

    Segment s scores all extensions of its prefix, ext[ptr[s]:ptr[s + 1]],
    under query seg_query[s] of the prepared list; `weight[s]` rows pass
    through it. Row rows[i] continues with extension ext[at[i]]. At the
    root every segment holds the whole one-hypothesis step in order, so
    `ext` is None: the chunk is a dense (segments x root terms) block, and
    at[i] is the row's segment times the root terms plus its extension.
    """

    step: object
    seg_query: np.ndarray
    ext: np.ndarray | None
    ptr: np.ndarray
    weight: np.ndarray
    rows: np.ndarray
    at: np.ndarray


class _Forced(NamedTuple):
    """A `_Chunk` with what scoring it needs that does not depend on the weights.

    A deeper chunk keeps its extensions' int8 `codes`, `terms` and child
    `sizes`, `pairs` None. A root chunk keeps its queries' flags as (row,
    flag column) `pairs` over its `len(weight)` segments, `codes` None, and
    the root step's `terms` and `sizes`. `target` holds the target rows'
    four feature sums. `ptr`, `weight`, `rows` and `at` are the chunk's.
    """

    pairs: tuple | None
    codes: np.ndarray | None
    terms: np.ndarray
    sizes: np.ndarray
    ptr: np.ndarray
    weight: np.ndarray
    rows: np.ndarray
    at: np.ndarray
    target: np.ndarray


class ForcedBatch(NamedTuple):
    """`rows` (query, sequence) rows forced through the teacher kernel (`FeatureScorer.force`).

    `chunks` holds their `_Forced` chunks in `_teacher_chunks` order, read
    by every epoch of a training iteration; `log1p_sizes` is the
    searchable's table of log1p(child size).
    """

    chunks: list
    rows: int
    log1p_sizes: np.ndarray


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


def sequence_logprobs(scorer: Scorer, queries, qidx, sequences, searchable) -> np.ndarray:
    """`sequence_logprob` of every row r, sequences[r] under query qidx[r], in one teacher walk.

    `queries` is the scorer's `prepare` of a query list. Each distinct
    (query, prefix) step is scored once, with one `root_logprobs` call per
    root chunk and one `segment_logprobs` call per deeper chunk, and each
    row sums its steps in order, so the results are bit-identical to
    scoring row by row.
    """
    total = np.zeros(len(sequences))
    for chunk in _teacher_chunks(searchable, qidx, sequences):
        if chunk.ext is None:
            logprobs = scorer.root_logprobs(queries, chunk.step, chunk.seg_query).ravel()
        else:
            logprobs = scorer.segment_logprobs(queries, *chunk[:4])
        total[chunk.rows] += logprobs[chunk.at]
    return total


def sequence_logprob(scorer: Scorer, query: Query, term_ids, searchable) -> float:
    """Sum of step log-probabilities along a valid identifier prefix."""
    first = np.zeros(1, dtype=np.int64)  # the one row's query: slot 0
    return float(sequence_logprobs(scorer, scorer.prepare([query]), first, [list(term_ids)],
                                   searchable)[0])


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
    at the features' extremes: each of the three flag codes, the lowest and
    highest term_weight, and log1p_postings at a child size of 1 and at the
    largest posting, scored by `FeatureScorer._scores`, the formula search
    and training use. The lowest log-likelihood of an identifier, n steps
    each at most the score spread plus log V below 0, must be finite too.
    """
    if scorer.terms != index.dictionary.terms:
        raise DataError("vocabulary mismatch between index and scorer")
    weights = np.append(scorer.term_weights, 0.0)  # 0 too, which keeps an empty vocabulary defined
    term_weight = [weights.min(), weights.max()]
    log_sizes = np.log1p([1, index.posting_sizes.max(initial=1)])
    grid = np.meshgrid(np.arange(3), term_weight, log_sizes, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = scorer._scores(*grid)
        floor = index.n * ((scores.min() - scores.max()) - math.log(max(len(scorer.terms), 1)))
    if not (np.isfinite(scores).all() and math.isfinite(floor)):
        raise DataError(f"scorer weights {scorer.weights.tolist()} can give a non-finite step score")
