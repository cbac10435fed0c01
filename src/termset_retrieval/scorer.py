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

Codes are derived from the query words' flag columns in two ways: search's
per-query term table patches the base row, every term at code 0, at the
terms of the query's stem groups (code 1) and at its own terms (code 2);
any other segments look their codes up in the sorted keys that
`FeatureScorer.prepare` makes of a query list.

Search normalizes every step, the root too, as `segment_logprobs` does: any
term may start an identifier, so search builds each query's whole root row
anyway and normalizes it like any segment. Training normalizes the root
without a (queries x root terms) pass, since every query's root segment is
the whole root step and its row differs from the base row only at the
query's flagged stem groups and its own terms. Per read, the root's base
scores are summed per stem group (`_group_sums`); per query, its
log-sum-exp and expected features follow from those sums and its few
flagged groups and terms (`_root_normalizer`), summed densely wherever a
difference could lose bits that show in the query's sum (`DENSE_SHARE`).
`FeatureScorer`'s teacher forcing subtracts this log-sum-exp, which is
within a few ulps of the dense row's that search subtracts (the tests'
`root_bound`): one constant per query, which cannot reorder that query's
hypotheses.

One teacher walk (`_teacher_walk`) treats every depth alike, the root
included, cut into chunks by `_segment_chunks`. `FeatureScorer` forces it
into pieces that keep what does not depend on the weights (`_forced`), the
root's first: `force` keeps them in one list (`ForcedBatch`), so training
forces each iteration's targets once for all of its epochs, and
`sequence_logprobs` reads each as it is made. Per epoch: the root's group
sums and normalizer, the deeper chunks' scores and normalization, and the
gradient's four feature sums, none of them through BLAS.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from itertools import chain
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

# Extension rows the teacher-forcing kernel scores at once: at the root, a
# chunk of TEACHER_CHUNK_ROWS // V whole root rows (at least one).
TEACHER_CHUNK_ROWS = 1 << 14

# The root normalizer sums a (query, group) densely when the query's terms
# hold more than this share of the group's base mass, and a query's
# unflagged groups densely when its row sums to less than this share of the
# base row's: where it subtracts, a difference keeps all but one bit of
# what it subtracts from, or of the query's sum.
DENSE_SHARE = 0.5

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
    step; training scores sequences with sequence_logprobs, which defaults
    to segment_logprobs calls on the chunks of every depth, whole root rows
    at the root. Every kernel hands them its query list as `prepare` made
    it. Overrides may sum otherwise: `FeatureScorer`'s step function equals
    segment_logprobs bit for bit at every depth, root included, while its
    sequence_logprobs, whose root comes from per-stem-group sums, lies
    within a few ulps of the base method's.
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

    def sequence_logprobs(self, queries, qidx, sequences, searchable) -> np.ndarray:
        """`sequence_logprob` of every row r, sequences[r] under query qidx[r], in one teacher walk.

        `sequences` is a list of term-id rows, or their -1-padded int64
        array (`_padded`). `queries` is what `prepare` made of a query list. Each distinct (query,
        prefix) segment of every depth, the root included, is scored once, one
        `segment_logprobs` call per chunk, and each row sums its steps in order:
        the bits of scoring row by row.
        """
        total = np.zeros(len(sequences))
        for step, hyp, rows, picks in _teacher_walk(searchable, _padded(sequences)):
            for chunk in _segment_chunks(step, qidx, hyp, rows, picks):
                total[chunk.rows] += self.segment_logprobs(queries, *chunk[:4])[chunk.at]
        return total


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
        # the stem groups: stem g's terms are
        # _stem_terms[_stem_ptr[g]:_stem_ptr[g + 1]], ascending
        stem_ids = self._term_stem - len(self.terms)
        self._stem_terms = np.argsort(stem_ids, kind="stable")
        self._stem_ptr = np.zeros(len(self._stem_col) + 1, dtype=np.int64)
        np.cumsum(np.bincount(stem_ids, minlength=len(self._stem_col)), out=self._stem_ptr[1:])
        # search's tables under the weights of the moment (`_weighted`)
        self._weights_memo = None

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
        """Bit-identical to the base step function at every depth, from a per-query term table.

        A score's first two terms, C[code] + term_weight * w2, depend only on
        the term under the query, so they are one vocabulary-length table
        (`_term_table`), gathered by term id at every step. The last,
        log1p_postings * w3, gathers log1p(size) from the searchable's
        `log1p_sizes`, a table of log1p(0..largest posting size) bit-equal to
        `np.log1p`, and is added to the gathered table (a sum of two floats
        is commutative). A `DenseStep` is scored as its block of terms: every
        child holds one document, and every row is one segment. The root
        step is one segment, the whole root row, normalized like any other;
        teacher forcing subtracts the root normalizer's log-sum-exp instead,
        within a few ulps of this one's.
        """
        vocab, columns = len(self.terms), set(self._columns(query))
        stems = sorted(c - vocab for c in columns if c >= vocab)
        own = sorted(c for c in columns if c < vocab)
        table = self._term_table(stems, own)
        single = _LOG1P_ONE * self.weights[3]  # log1p_postings * w3 of a size-1 child

        def step_logprobs(step) -> np.ndarray:
            if isinstance(step, DenseStep):
                return _row_log_softmax(table.take(step.block) + single).ravel()
            scores = step.searchable.log1p_sizes.take(step.sizes)
            scores *= self.weights[3]
            scores += table.take(step.terms)
            return _log_softmax(scores, step.offsets)

        return step_logprobs

    def segment_logprobs(self, queries, step, seg_query, ext, ptr):
        """All segments' codes by one key lookup, normalized segment by segment."""
        terms = step.terms[ext]
        codes = self._lookup(queries, seg_query, terms, ptr)
        log_sizes = step.searchable.log1p_sizes.take(step.sizes[ext])
        return _log_softmax(self._scores(codes, self.term_weights[terms], log_sizes), ptr)

    def _code_scores(self) -> np.ndarray:
        """C[code] = in_query * w0 + query_prefix4 * w1 of each code's two flags."""
        w0, w1 = self.weights[:2].tolist()  # Python floats multiply as float64 does
        return np.array([0.0 * w0 + 0.0 * w1, 0.0 * w0 + 1.0 * w1, 1.0 * w0 + 1.0 * w1])

    def _scores(self, codes, term_weights, log_sizes=None) -> np.ndarray:
        """The score formula, (C[code] + term_weight * w2) + log1p(size) * w3.

        Each extension's code, its term's weight and its child size's log1p,
        so every score is summed in STEP_FEATURES order. Without `log_sizes`,
        C[code] + term_weight * w2: search's per-query term table. Arrays
        broadcast, and a code may be one number for all.
        """
        w2, w3 = self.weights[2:].tolist()
        scores = self._code_scores().take(codes) + term_weights * w2
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

        `keys` is `prepare`'s; `group` holds distinct slots, ascending. The
        pairs are in (row, column) order.
        """
        width = self._width
        lo, hi = keys.searchsorted([group[0] * width, group[-1] * width + width])
        mine = keys[lo:hi]
        slot, column = np.divmod(mine, width)
        row = _find(group, slot)
        hit = row >= 0
        return row[hit], column[hit]

    def _term_table(self, stems, own) -> np.ndarray:
        """Every term's C[code] + term_weight * w2 under a query of stem ids `stems`, terms `own`.

        The base row, every term at code 0, is patched at the terms of the
        query's stem groups (code 1) and then at the query's own terms (code
        2), each entry as `_scores` gives it for its code.
        """
        _, codes, weighted, base = self._weighted()
        table = base.copy()
        if stems:
            ptr = self._stem_ptr
            grouped = np.concatenate([self._stem_terms[ptr[g] : ptr[g + 1]] for g in stems])
            table[grouped] = weighted[grouped] + codes[1]
        if own:
            table[own] = weighted[own] + codes[2]
        return table

    def _weighted(self):
        """The weights and C[code] as Python floats, term_weight * w2, and the base row.

        The base row is C[0] + term_weight * w2 (a sum of two floats is
        commutative). Kept while the weights stay the same.
        """
        weights = self.weights.tolist()
        if self._weights_memo is None or self._weights_memo[0] != weights:
            codes = self._code_scores().tolist()
            weighted = self.term_weights * weights[2]
            self._weights_memo = (weights, codes, weighted, weighted + codes[0])
        return self._weights_memo

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

    # -- the root normalizer ------------------------------------------------

    def _root_groups(self, terms, sizes, log1p_sizes) -> "_RootGroups":
        """The root terms (ascending) grouped by stem, in the stem layout's order."""
        if not len(terms):
            raise DataError("empty candidate set")
        position = np.full(len(self.terms), -1, dtype=np.int64)
        position[terms] = np.arange(len(terms))
        order = position[self._stem_terms]
        order = order[order >= 0]
        stems = self._term_stem[terms[order]] - len(self.terms)
        heads = np.flatnonzero(np.diff(stems, prepend=-1))
        bounds = np.append(heads, len(order))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        group = np.arange(len(heads)).repeat(np.diff(bounds))[rank]
        stem_group = np.full(len(self._stem_col), -1, dtype=np.int64)
        stem_group[stems[heads]] = np.arange(len(heads))
        return _RootGroups(terms, log1p_sizes.take(sizes), order, bounds, rank, group, position,
                           stem_group)

    def _root_flags(self, keys, slots, groups) -> "_RootFlags":
        """The flagged groups and terms of queries `slots` (distinct, ascending) at the root."""
        row, column = self._pairs(keys, slots)
        vocab = len(self.terms)
        stem = column >= vocab
        group = groups.stem_group[column[stem] - vocab]
        group_row, group = row[stem][group >= 0], group[group >= 0]
        pos = groups.position[column[~stem]]
        term_row, term_pos = row[~stem][pos >= 0], pos[pos >= 0]
        width = len(groups.bounds) - 1  # a term's stem is flagged with it
        term_pair = _find(group_row * width + group, term_row * width + groups.group[term_pos])
        return _RootFlags(len(slots), group_row, group, term_row, term_pos, term_pair)

    def _group_sums(self, groups, gradient=False) -> "_GroupSums":
        """The root's base scores, every term at code 0, summed per stem group.

        Group g's largest base score top[g], and its terms' exp(base - top[g])
        summed alone and, for the gradient, times each term's weight and
        log1p size: one `np.add.reduceat` per sum, in the groups' order.
        """
        term_weights = self.term_weights[groups.terms[groups.order]]
        log_sizes = groups.log_sizes[groups.order]
        base = self._scores(0, term_weights, log_sizes)
        heads = groups.bounds[:-1]
        top = np.maximum.reduceat(base, heads)
        exps = np.exp(base - top.repeat(np.diff(groups.bounds)))
        exps = np.array([exps, exps * term_weights, exps * log_sizes]) if gradient else exps[None]
        mass = np.add.reduceat(exps, heads, axis=1)
        peak = top.max()
        scale = np.exp(top - peak)
        totals = (scale * mass).sum(axis=1)
        return _GroupSums(top, exps, mass, peak, scale, totals,
                          peak + np.log(DENSE_SHARE * totals[0]))

    def _dense_group(self, groups, code1, g, flagged, moments):
        """One (segment, group) piece, summed term by term: group g's terms but `flagged`.

        `code1` holds each root term's `_scores` of code 1. The offset is the
        largest of those terms' scores (-inf when there are none), and the
        value their exps after that shift, summed alone and, with three
        `moments`, times each term's weight and log1p size.
        """
        mine = groups.order[groups.bounds[g] : groups.bounds[g + 1]]
        mine = mine[~np.isin(mine, flagged)]
        at = code1[mine].max(initial=-np.inf)
        exps = np.exp(code1[mine] - at)
        term_weights = self.term_weights[groups.terms[mine]]
        columns = [exps, exps * term_weights, exps * groups.log_sizes[mine]]
        return at, np.array([column.sum() for column in columns[:moments]])

    def _root_normalizer(self, groups, sums, flags, weight=None):
        """Each root segment's log-sum-exp and, given `weight`, its expected features.

        Segment s's row is the base row but at its flagged groups (code 1)
        and flagged terms (code 2). Its sum of exps is a few pieces, each a
        value times exp(offset), in this order:
        - its unflagged groups: the base total less its flagged groups' base
          sums, at the peak;
        - each flagged group but its flagged terms, ascending: the group's
          base sums less theirs, at the group's top plus C[1] - C[0];
        - each flagged term, ascending: 1, at its `_scores` of code 2.
        A difference loses bits when what it subtracts holds most of what it
        subtracts from, so it is summed densely where that could reach a
        segment's sum. A group whose flagged terms hold more than DENSE_SHARE
        of its base mass sums its other terms' `_scores` of code 1 instead,
        one (segment, group) at a time (`_dense_group`). A segment whose sum
        is less than DENSE_SHARE of the base row's or not positive, where the
        base total's rounding could show, sums its unflagged groups one by
        one (`_unflagged`). Every sum within a segment is sequential, from
        0.0 in that order (`np.bincount`), so a segment's log-sum-exp has the
        same bits in any batch and alone. Training alone reads it: search
        normalizes the dense root row like any segment, and this log-sum-exp
        lies within a few ulps of that row's (the tests' `root_bound`). With
        `weight[s]` rows through segment s, the expected features (code 2,
        code >= 1, term weight, log1p size) are summed over the segments,
        each one pairwise `.sum()` over every piece.
        """
        top, mass, rows, group = sums.top, sums.mass, flags.rows, flags.group
        codes = self._code_scores()
        # each flagged group's flagged terms, in the group's exp(top) units
        own = sums.exps[:, groups.rank[flags.term_pos]]
        held = np.array([np.bincount(flags.term_pair, s, minlength=len(group)) for s in own])
        # every segment's unflagged groups, in exp(peak) units
        scaled = sums.scale[group] * mass[:, group]
        flagged = np.array([np.bincount(flags.group_row, s, minlength=rows) for s in scaled])
        # each flagged group but its flagged terms
        group_at, group_value = top[group] + (codes[1] - codes[0]), mass[:, group] - held
        dense = np.flatnonzero(held[0] > DENSE_SHARE * mass[0, group])
        if len(dense):
            code1 = self._scores(1, self.term_weights[groups.terms], groups.log_sizes)
            for k in dense.tolist():
                group_at[k], group_value[:, k] = self._dense_group(
                    groups, code1, group[k], flags.term_pos[flags.term_pair == k], len(mass))
        pos = flags.term_pos
        term_weights, log_sizes = self.term_weights[groups.terms[pos]], groups.log_sizes[pos]
        # the pieces, segment by segment: each segment's rest comes first
        seg = np.concatenate([np.arange(rows), flags.group_row, flags.term_row])
        at = np.concatenate([np.full(rows, sums.peak), group_at,
                             self._scores(2, term_weights, log_sizes)])
        terms_value = [np.ones(len(pos)), term_weights, log_sizes][: len(mass)]
        value = np.concatenate([sums.totals[:, None] - flagged, group_value, terms_value], axis=1)
        order = np.argsort(seg, kind="stable")
        seg, at, value = seg[order], at[order], value[:, order]
        counts = np.bincount(seg, minlength=rows)
        heads = np.cumsum(counts) - counts
        lse = _sequential_lse(seg, at, value[0], heads, rows)
        thin = np.flatnonzero(lse < sums.floor)
        for s, head in zip(thin.tolist(), heads[thin].tolist()):
            at[head], value[:, head] = _unflagged(sums, group[flags.group_row == s])
        if len(thin):
            lse = _sequential_lse(seg, at, value[0], heads, rows)
        if weight is None:
            return lse, None
        share = np.exp(at - lse[seg]) * weight[seg]
        code_two = order >= rows + len(group)  # the flagged terms' pieces
        code_any = np.where(order < rows, 0.0, value[0])  # every piece's mass but the rest's
        columns = (code_two, code_any, value[1], value[2])
        return lse, np.array([(share * column).sum() for column in columns])

    # -- training -----------------------------------------------------------

    def force(self, queries, qidx, sequences, searchable) -> "ForcedBatch":
        """Rows r, sequences[r] under query qidx[r], forced once: `_forced`'s pieces, root first."""
        return ForcedBatch(list(self._forced(queries, qidx, sequences, searchable)), len(sequences))

    def _forced(self, queries, qidx, sequences, searchable):
        """The teacher walk's pieces as they are made: the root's (`_ForcedRoot`), then each
        deeper chunk's (`_Forced`). No piece depends on the weights."""
        force_chunk = partial(self._force_chunk, queries)
        for step, hyp, rows, picks in _teacher_walk(searchable, _padded(sequences)):
            if step.depth:  # map holds no chunk while its piece is read
                yield from map(force_chunk, _segment_chunks(step, qidx, hyp, rows, picks))
            else:
                yield self._force_root(queries, step, qidx[rows], rows, picks)

    def _force_root(self, queries, step, row_query, rows, picks) -> "_ForcedRoot":
        """The root step as one piece: per distinct query, ascending, one whole-step segment."""
        seg_query, row_seg = np.unique(row_query, return_inverse=True)
        order = np.argsort(row_seg, kind="stable")
        seg, picks = row_seg[order], picks[order]
        groups = self._root_groups(step.terms, step.sizes, step.searchable.log1p_sizes)
        terms, log_sizes = step.terms[picks], groups.log_sizes[picks]
        codes = self._lookup(queries, seg_query[seg], terms, np.arange(len(terms) + 1))
        term_weights = self.term_weights[terms]
        return _ForcedRoot(groups, self._root_flags(queries, seg_query, groups),
                           np.bincount(row_seg), rows[order], seg, codes, term_weights, log_sizes,
                           _target_sums(codes, term_weights, log_sizes))

    def _force_chunk(self, queries, chunk) -> "_Forced":
        """A deeper chunk as one piece."""
        step, at = chunk.step, chunk.at
        terms = step.terms[chunk.ext]
        codes = self._lookup(queries, chunk.seg_query, terms, chunk.ptr)
        term_weights = self.term_weights[terms]
        log_sizes = step.searchable.log1p_sizes.take(step.sizes[chunk.ext])
        target = _target_sums(codes[at], term_weights[at], log_sizes[at])
        return _Forced(codes, term_weights, log_sizes, *chunk[3:], target)

    def _read(self, piece, gradient=False):
        """A forced piece's target log-probs, in `piece.rows` order, and given `gradient` its
        expected features: the root's from `_root_normalizer`, a chunk's one pairwise `.sum()` per
        feature (code 2, code >= 1, term weight, log1p size) of its weighted probabilities."""
        scores = self._scores(piece.codes, piece.term_weights, piece.log_sizes)
        if isinstance(piece, _ForcedRoot):
            sums = self._group_sums(piece.groups, gradient)
            weight = piece.weight if gradient else None
            lse, expected = self._root_normalizer(piece.groups, sums, piece.flags, weight)
            return scores - lse[piece.seg], expected
        logprobs = _log_softmax(scores, piece.ptr)
        if not gradient:
            return logprobs[piece.at], None
        weighted = np.exp(logprobs) * np.repeat(piece.weight, np.diff(piece.ptr))
        columns = (piece.codes == 2, piece.codes >= 1, piece.term_weights, piece.log_sizes)
        return logprobs[piece.at], np.array([(weighted * column).sum() for column in columns])

    def forced_logprobs(self, batch: "ForcedBatch") -> np.ndarray:
        """Every row's log-likelihood under the current weights, as `sequence_logprobs` reads it."""
        return self._sum_rows(batch.pieces, batch.rows)

    def sequence_logprobs(self, queries, qidx, sequences, searchable):
        """The base method's results, from `_forced`'s pieces, each read and dropped as made.

        Below the root the bits are the base method's; the root subtracts the
        root normalizer's log-sum-exp, within `root_bound` of the dense row's.
        """
        return self._sum_rows(self._forced(queries, qidx, sequences, searchable), len(sequences))

    def _sum_rows(self, pieces, rows) -> np.ndarray:
        """Each of `rows` rows' target log-probs, summed over forced `pieces` in order."""
        total = np.zeros(rows)
        for piece in pieces:
            total[piece.rows] += self._read(piece)[0]
            del piece  # a streamed piece is not held while the next one is forced
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

        No sum goes through BLAS. Each piece's expected features come from `_read`,
        its target sums from forcing; both are added piece by piece, the root first.
        """
        if not batch.rows:
            raise DataError("empty training batch")
        total_loss = 0.0
        grad = np.zeros_like(self.weights)
        for piece in batch.pieces:
            logprobs, expected = self._read(piece, gradient=True)
            total_loss -= logprobs.sum()
            grad += expected - piece.target
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


def _sequential_lse(seg, at, value, heads, rows):
    """Each segment's log-sum-exp of value * exp(at), pieces in segment order.

    Segment s's pieces start at heads[s] (`seg` gives each piece's); its
    sum is sequential from 0.0, as `np.bincount` adds, after a shift by its
    largest offset. A sum that is not positive, where a difference rounded
    to zero or below, gives -inf.
    """
    peak = np.maximum.reduceat(at, heads)
    total = np.bincount(seg, value * np.exp(at - peak[seg]), minlength=rows)
    return peak + np.log(total, out=np.full(rows, -np.inf), where=total > 0.0)


def _unflagged(sums, flagged):
    """The offset and sums of a root's groups but `flagged`, summed group by group.

    The offset is their largest top, -inf when there are none.
    """
    keep = np.ones(len(sums.top), dtype=bool)
    keep[flagged] = False
    at = sums.top[keep].max(initial=-np.inf)
    return at, (np.exp(sums.top[keep] - at) * sums.mass[:, keep]).sum(axis=1)


def _target_sums(codes, term_weights, log_sizes) -> np.ndarray:
    """Target rows' four feature sums, each one pairwise `.sum()` over the rows in order."""
    return np.array([(codes == 2).sum(), (codes >= 1).sum(), term_weights.sum(), log_sizes.sum()])


def _query_slots(queries):
    """The distinct query objects, and each entry's slot among them."""
    slots: dict[int, int] = {}
    qidx = np.array([slots.setdefault(id(q), len(slots)) for q in queries], dtype=np.int64)
    return list({id(q): q for q in queries}.values()), qidx


class _RootGroups(NamedTuple):
    """A root step's terms grouped by stem: what the root normalizer sums by.

    `terms` are the root step's, ascending, and `log_sizes` their children's
    log1p sizes. `order` lists root positions group by group, ascending
    within each, the groups in stem order: group g is
    order[bounds[g]:bounds[g + 1]]. Root position p is order[rank[p]], in
    group `group[p]`; term t is at root position `position[t]`, and stem g
    is group `stem_group[g]`, each -1 where the root has none.
    """

    terms: np.ndarray
    log_sizes: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    rank: np.ndarray
    group: np.ndarray
    position: np.ndarray
    stem_group: np.ndarray


class _RootFlags(NamedTuple):
    """The query flags of `rows` root segments, by the root's groups and positions.

    Flagged groups are (group_row, group) pairs, and flagged terms (term_row,
    term_pos) pairs, each ascending; flagged term i lies in flagged group
    pair term_pair[i].
    """

    rows: int
    group_row: np.ndarray
    group: np.ndarray
    term_row: np.ndarray
    term_pos: np.ndarray
    term_pair: np.ndarray


class _GroupSums(NamedTuple):
    """A root's base scores summed per stem group, under one set of weights (`_group_sums`).

    `top[g]` is group g's largest base score. Row 0 of `exps` holds each
    term's exp(base - its group's top), in `_RootGroups.order`; with the
    gradient, rows 1 and 2 hold it times the term's weight and log1p size.
    `mass` sums each row per group. `peak` is the largest top, `scale` is
    exp(top - peak), and `totals` sums each row of `mass` times `scale`.
    `floor` is DENSE_SHARE of the base row's sum of exps, as a log.
    """

    top: np.ndarray
    exps: np.ndarray
    mass: np.ndarray
    peak: float
    scale: np.ndarray
    totals: np.ndarray
    floor: float


class _Chunk(NamedTuple):
    """Whole (query, prefix) segments of one teacher-forcing step.

    Segment s scores all extensions of its prefix, ext[ptr[s]:ptr[s + 1]],
    under query seg_query[s] of the prepared list; `weight[s]` rows pass
    through it. Row rows[i] continues with extension ext[at[i]].
    """

    step: object
    seg_query: np.ndarray
    ext: np.ndarray
    ptr: np.ndarray
    weight: np.ndarray
    rows: np.ndarray
    at: np.ndarray


class _ForcedRoot(NamedTuple):
    """The root step, forced: what scoring it needs that does not depend on the weights.

    Segment s is the whole root step under the root's s-th distinct query;
    `weight[s]` rows pass through it, and row rows[i] is in segment seg[i].
    It keeps its `groups`, its queries' `flags`, and its target rows' int8
    `codes`, `term_weights` and `log_sizes`, whose four feature sums are `target`.
    """

    groups: _RootGroups
    flags: _RootFlags
    weight: np.ndarray
    rows: np.ndarray
    seg: np.ndarray
    codes: np.ndarray
    term_weights: np.ndarray
    log_sizes: np.ndarray
    target: np.ndarray


class _Forced(NamedTuple):
    """A `_Chunk` with what scoring it needs that does not depend on the weights.

    Its extensions' int8 `codes`, `term_weights` and log1p child sizes
    (`log_sizes`); `target` holds the target rows' four feature sums.
    `ptr`, `weight`, `rows` and `at` are the chunk's.
    """

    codes: np.ndarray
    term_weights: np.ndarray
    log_sizes: np.ndarray
    ptr: np.ndarray
    weight: np.ndarray
    rows: np.ndarray
    at: np.ndarray
    target: np.ndarray


class ForcedBatch(NamedTuple):
    """`rows` (query, sequence) rows forced through the teacher walk (`FeatureScorer.force`).

    `pieces` lists the forced pieces in walk order, read by every epoch of a
    training iteration: the root's `_ForcedRoot` first, then the deeper
    `_Forced` chunks. It is empty when no row has a term.
    """

    pieces: list
    rows: int


def _padded(sequences) -> np.ndarray:
    """Term-id rows as the teacher walk takes them: one (rows, width) int64 array, each row
    -1-padded. An array is taken as it is; a list of rows is padded once, as a whole."""
    if isinstance(sequences, np.ndarray):
        return sequences
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    seqs = np.full((len(sequences), lengths.max(initial=0)), -1, dtype=np.int64)
    held = np.arange(seqs.shape[1]) < lengths[:, None]
    seqs[held] = list(chain.from_iterable(sequences))
    if (seqs[held] == -1).any():  # the walk would read it as padding
        raise DataError("term id -1 infeasible: -1 pads a row")
    return seqs


def _teacher_walk(searchable, seqs):
    """Walk every row r of `seqs` (see `_padded`), its terms but its trailing -1s, from the
    root, one `expand` per depth.

    At each depth the rows' distinct prefixes form one beam, expanded at
    once; each row's next term is located among its prefix's extensions
    (an infeasible term raises DataError). Each depth, the root first,
    yields (step, hyp, rows, picks): row r's prefix is hypothesis hyp[r] of
    the step, and row rows[i] (ascending) goes on with extension picks[i].
    """
    lengths = np.count_nonzero(seqs != -1, axis=1)  # any other negative id is infeasible
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
        yield step, hyp, rows, picks
        *beam, hyp[rows] = step.descend(picks)


def _segment_chunks(step, qidx, hyp, rows, picks):
    """Group one depth's `rows` into (query, prefix) segments and cut them into `_Chunk`s.

    Row r is under query slot qidx[r] at hypothesis hyp[r] of `step`. A chunk
    holds at most TEACHER_CHUNK_ROWS extensions, or one segment if larger.
    """
    offsets, row_query, row_hyp = step.offsets, qidx[rows], hyp[rows]
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
        mine = order[row_bounds[a] : row_bounds[b]]
        at = ptr[row_seg[mine] - a] + picks[mine] - offsets[row_hyp[mine]]
        # the chunk alone holds its extensions, so a consumer that drops it frees them
        yield _Chunk(step, seg_query[a:b],
                     np.repeat(offsets[seg_hyp[a:b]] - ptr[:-1], sizes[a:b]) + np.arange(ptr[-1]),
                     ptr, weight[a:b], rows[mine], at)
        a = b


def sequence_logprob(scorer: Scorer, query: Query, term_ids, searchable) -> float:
    """Sum of step log-probabilities along a valid identifier prefix."""
    first = np.zeros(1, dtype=np.int64)  # the one row's query: slot 0
    return float(scorer.sequence_logprobs(scorer.prepare([query]), first, [list(term_ids)],
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
