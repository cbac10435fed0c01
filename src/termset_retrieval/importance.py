"""Term-importance estimation and document identifier construction.

A linear feature model with a ReLU clamp produces nonnegative per-term
weights for documents and queries. It is trained with an InfoNCE loss over
(query, positive, negatives) pairs where the matching score of a pair is
the sum of w_q(t) * w_d(t) over shared distinct terms. Each document's
identifier is its top-N terms by weight, deduplicated against collisions.

The corpus is featurized once, as one row per (document, distinct term),
and every stage reads that matrix: training gathers its rows, the
identifier scan ranks its weights and the scorer's term weights take the
corpus maximum of them.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import weakref
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import atomic
from .corpus import Corpus, CorpusStats, Document, TrainingPair
from .errors import DataError, InvariantError, parse_values, read_lines

PLACEHOLDER_MARK = "⟂"  # prepended to synthetic per-document filler terms

TFIDF_FEATURES = ("tf_norm", "idf", "in_title", "first_pos", "term_len", "bias")
_SCHEMA = "tfidf/1"


@dataclass
class ImportanceModel:
    """Linear term-importance model: weight(term) = relu(features . weights)."""

    weights: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        _check_tau(self.tau)

    @classmethod
    def zeros(cls, tau: float = 1.0) -> "ImportanceModel":
        return cls(np.zeros(len(TFIDF_FEATURES)), tau)


def _check_tau(tau: float) -> None:
    if not 0 < tau < math.inf:  # NaN fails both comparisons
        raise DataError(f"temperature tau must be positive and finite, got {tau}")


@dataclass
class _TermRows:
    """Term lists featurized, one row per (owner, distinct term), by owner and then term id.

    Owner o's rows are start[o] .. start[o + 1] - 1. Term ids index `terms`, the
    sorted vocabulary of the lists; `first` is a term's first position in its list.
    """

    terms: list[str]
    start: np.ndarray
    owner: np.ndarray
    term: np.ndarray
    first: np.ndarray
    features: np.ndarray  # (rows, len(TFIDF_FEATURES))


def _featurize(term_lists: list[list[str]], titles: list[set[str]] | None,
               stats: CorpusStats) -> _TermRows:
    """The TFIDF_FEATURES of every distinct term of every list; `titles` is None for queries.

    df is 0 for a term no document holds; it is clamped to 1, so idf stays finite.
    """
    lengths = np.fromiter(map(len, term_lists), dtype=np.int64, count=len(term_lists))
    flat = list(chain.from_iterable(term_lists))
    terms = sorted(set(flat))
    ids = {t: i for i, t in enumerate(terms)}
    width = max(len(terms), 1)
    keys = np.repeat(np.arange(len(term_lists)), lengths) * width
    keys += np.fromiter(map(ids.__getitem__, flat), dtype=np.int64, count=len(flat))
    keys, at, counts = np.unique(keys, return_index=True, return_counts=True)  # at: first seen
    owner, term = np.divmod(keys, width)
    first = at - (np.cumsum(lengths) - lengths)[owner]
    length = np.maximum(lengths, 1)[owner]
    idf = np.array([math.log(stats.num_docs / max(stats.df.get(t, 1), 1)) for t in terms])
    in_title = np.zeros(len(keys))
    if titles is not None:
        held = [o * width + ids[t] for o, title in enumerate(titles) for t in title if t in ids]
        at = _find(keys, np.array(held, dtype=np.int64))  # not np.isin: it imports numpy.ma
        in_title[at[at >= 0]] = 1.0
    features = np.column_stack([
        counts / length,
        idf[term],
        in_title,
        first / length,
        np.array([len(t) for t in terms])[term] / 10.0,  # keep comparable to the other features
        np.ones(len(keys)),
    ])
    start = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(term_lists)))])
    return _TermRows(terms, start, owner, term, first, features)


def _row_sums(features: np.ndarray, weights) -> np.ndarray:
    """Each row's features . weights, summed ((f0*w0 + f1*w1) + f2*w2) + ... left to right.

    Each product and sum is rounded on its own, so no result depends on how
    a BLAS kernel orders or fuses a dot product.
    """
    columns = zip(features.T, weights, strict=True)
    column, weight = next(columns)
    z = column * weight
    for column, weight in columns:
        z += column * weight
    return z


def _column_sums(coef: np.ndarray, features: np.ndarray) -> np.ndarray:
    """coef . features[:, j] for each column j, each one pairwise `.sum()` of its products."""
    return np.array([(coef * column).sum() for column in features.T])


def _term_weights(features: np.ndarray, weights) -> np.ndarray:
    """The scoring rule: each row's clamp(features . weights), as one fixed sum (`_row_sums`).

    A finite model whose sum overflows is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = _row_sums(features, weights)
    if not np.isfinite(z).all():
        raise DataError(f"importance weights {[float(w) for w in weights]} overflow a term's score")
    return np.where(z > 0.0, z, 0.0)


_CORPUS_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _corpus_rows(corpus: Corpus) -> _TermRows:
    """The corpus's documents featurized, once per corpus."""
    rows = _CORPUS_ROWS.get(corpus)
    if rows is None:
        docs = corpus.documents
        rows = _featurize([d.terms for d in docs], [d.title_terms for d in docs], corpus.stats)
        _CORPUS_ROWS[corpus] = rows
    return rows


def _corpus_weights(corpus: Corpus, model: ImportanceModel) -> tuple[_TermRows, np.ndarray]:
    """The corpus's term rows and their weights under `model`."""
    rows = _corpus_rows(corpus)
    return rows, _term_weights(rows.features, model.weights)


def _find(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of each of `values` in `sorted_values`, or -1 where it does not occur."""
    at = np.searchsorted(sorted_values, values)
    found = at < len(sorted_values)
    found[found] = sorted_values[at[found]] == values[found]
    return np.where(found, at, -1)


def score_terms(model: ImportanceModel, document: Document, stats: CorpusStats) -> dict[str, float]:
    """Nonnegative weight per distinct document term, in first-occurrence order."""
    rows = _featurize([document.terms], [document.title_terms], stats)
    weights = _term_weights(rows.features, model.weights)
    return {rows.terms[rows.term[i]]: float(weights[i]) for i in np.argsort(rows.first)}


# ---------------------------------------------------------------------------
# InfoNCE training
# ---------------------------------------------------------------------------


@dataclass
class _TrainingBatch:
    """Shared-term features of every (pair, candidate), stacked once.

    Row i of `query_feats` and `doc_feats` holds one term shared by a query
    and one of its candidates, candidate `cand[i]`. Pair p's candidates are
    first[p] .. first[p + 1] - 1, its positive first. A candidate that shares
    no term with its query has no rows.
    """

    query_feats: np.ndarray  # (rows, dim)
    doc_feats: np.ndarray
    cand: np.ndarray
    first: np.ndarray  # (pairs + 1,)


def prepare_training_batch(pairs: list[TrainingPair], corpus: Corpus) -> _TrainingBatch:
    """Gather the shared-term rows of the featurized corpus and of the batch's queries.

    The queries are featurized once per batch, with no title. A candidate's
    rows are the terms it shares with its query, in term order (by text).
    """
    docs = _corpus_rows(corpus)
    queries = _featurize([pair.query.terms for pair in pairs], None, corpus.stats)
    row_of = {doc_id: i for i, doc_id in enumerate(corpus.doc_ids)}
    candidates = [row_of[d] for pair in pairs for d in (pair.positive, *pair.negatives)]
    sizes = np.array([1 + len(pair.negatives) for pair in pairs], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(sizes)])
    # each candidate meets every row of its query, in term order
    starts = queries.start[:-1].repeat(sizes)
    reach = np.diff(queries.start).repeat(sizes)
    cand = np.repeat(np.arange(len(candidates)), reach)
    qrow = np.arange(len(cand)) + (starts - (np.cumsum(reach) - reach)).repeat(reach)
    term = _find(np.array(docs.terms, dtype=object), np.array(queries.terms, dtype=object))
    term = term[queries.term[qrow]]  # -1: no document holds it
    width = max(len(docs.terms), 1)
    keys = np.where(term >= 0, np.array(candidates, dtype=np.int64)[cand] * width + term, -1)
    drow = _find(docs.owner * width + docs.term, keys)
    shared = drow >= 0
    # column-major, as the InfoNCE sums read them: each column one contiguous run. Each
    # row-major gather is freed once copied, so at most one is held beside the batch.
    fq = np.asfortranarray(queries.features[qrow[shared]])
    fd = np.asfortranarray(docs.features[drow[shared]])
    return _TrainingBatch(fq, fd, cand[shared], first)


def infonce_loss_and_grad(weights: np.ndarray, batch: _TrainingBatch, tau: float):
    """Mean InfoNCE loss over the batch and its analytic gradient.

    Candidate 0 of each pair is the positive. The matching score of a
    candidate is sum over shared terms of relu(fq.w) * relu(fd.w); the loss
    is the negative log-softmax (temperature tau) of the positive's score.
    Scores are summed per candidate with `bincount` and normalized per pair
    with `reduceat` over the stacked rows. No sum goes through BLAS: fq.w and
    fd.w are `_row_sums`, and the gradient is `_column_sums`, so the trained
    weights do not depend on the CPU's BLAS kernel.
    """
    _check_tau(tau)
    fq, fd, cand, first = batch.query_feats, batch.doc_feats, batch.cand, batch.first
    num_pairs = len(first) - 1
    if not num_pairs:
        return 0.0, np.zeros_like(weights)
    zq, zd = _row_sums(fq, weights), _row_sums(fd, weights)
    wq, wd = np.maximum(zq, 0.0), np.maximum(zd, 0.0)
    scores = np.bincount(cand, weights=wq * wd, minlength=first[-1])
    counts = np.diff(first)
    shifted = scores / tau
    shifted -= np.repeat(np.maximum.reduceat(shifted, first[:-1]), counts)
    logits = np.exp(shifted)
    probs = logits / np.repeat(np.add.reduceat(logits, first[:-1]), counts)
    loss = -np.log(probs[first[:-1]]).sum()
    dscore = probs
    dscore[first[:-1]] -= 1.0
    coef = (dscore / tau)[cand]
    grad = _column_sums(coef * (zq > 0) * wd, fq) + _column_sums(coef * (zd > 0) * wq, fd)
    return float(loss) / num_pairs, grad / num_pairs


def train_importance(
    pairs: list[TrainingPair],
    corpus: Corpus,
    tau: float = 1.0,
    epochs: int = 50,
    lr: float = 0.05,
    seed: int = 0,
) -> ImportanceModel:
    """Fit the importance model by full-batch gradient descent on the InfoNCE loss.

    Weights start from a small seeded positive perturbation: all features
    are nonnegative, so this keeps every ReLU alive, whereas at (or below)
    zero the clamp kills every gradient path.
    """
    if not pairs:
        raise DataError("no training pairs")
    rng = np.random.default_rng(seed)
    model = ImportanceModel(rng.uniform(0.001, 0.01, size=len(TFIDF_FEATURES)), tau)
    batch = prepare_training_batch(pairs, corpus)
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, grad = infonce_loss_and_grad(model.weights, batch, tau)
            update = lr * grad
        if not (math.isfinite(loss) and np.isfinite(update).all()):
            raise ArithmeticError(
                f"non-finite InfoNCE loss {loss} or update at epoch {epoch} (lr={lr}, tau={tau})"
            )
        model.weights = model.weights - update
    return model


# ---------------------------------------------------------------------------
# Identifier selection
# ---------------------------------------------------------------------------


class TermDictionary:
    """Bijection between term strings and dense ids, assigned in sorted order."""

    def __init__(self, terms):
        self.terms = sorted(terms)
        self._ids = {t: i for i, t in enumerate(self.terms)}
        if len(self._ids) != len(self.terms):
            raise InvariantError("duplicate terms in dictionary")

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def id_of(self, term: str) -> int:
        return self._ids[term]

    def ids_of(self, terms: list[str]) -> np.ndarray:
        return np.fromiter(map(self._ids.__getitem__, terms), dtype=np.int32, count=len(terms))

    def term_of(self, term_id: int) -> str:
        return self.terms[term_id]


def _first_bad_row(sets: np.ndarray, num_terms: int) -> tuple[str, int, int] | None:
    """The first identifier-row check that fails, as (check, row, earlier), or None.

    `sets` holds each row's term ids, sorted. The checks, in order, each naming its first
    bad row: "range", every id lies in [0, num_terms); "term", no row repeats a term; "set",
    no row's set repeats an earlier row's, `earlier` being the first that holds it (else -1).
    """
    outside = (sets[:, :1] < 0) | (sets[:, -1:] >= num_terms)  # one column, or none
    if outside.any():
        return "range", int(outside.argmax()), -1
    repeats = sets[:, 1:] == sets[:, :-1]
    if repeats.any():  # flat: the first True in row-major order lies in the first bad row
        return "term", int(repeats.argmax()) // repeats.shape[1], -1
    if len(sets) < 2:
        return None
    if not sets.shape[1]:  # every zero-width row holds the empty set
        return "set", 1, 0
    later, earlier = _repeated_sets(sets)
    if not len(later):
        return None
    first = later.argmin()  # the second row of its set, so `earlier` is the first
    return "set", int(later[first]), int(earlier[first])


def _repeated_sets(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(later, earlier): each row whose set an earlier row holds, and the row before it that does.

    `sets` holds each row's non-negative term ids, sorted. Equal sets hash
    alike, so only rows that share a hash are compared exactly; one sort of
    the hashes, cheaper than their argsort, finds whether any two are equal.
    """
    hashes = _row_hash(sets)
    ascending = np.sort(hashes)
    if not (ascending[1:] == ascending[:-1]).any():  # no two hashes equal: no two sets
        return (np.zeros(0, dtype=np.intp),) * 2
    ranked = np.argsort(hashes)  # any order of equal hashes: the suspects are re-sorted below
    shared = hashes[ranked[1:]] == hashes[ranked[:-1]]
    suspects = np.zeros(len(sets), dtype=bool)
    suspects[ranked[1:][shared]] = suspects[ranked[:-1][shared]] = True
    rows = np.flatnonzero(suspects)  # ascending, so the exact sort below keeps row order
    # a stable sort of those rows as bytes: equal sets are neighbours, earlier row first
    row_bytes = np.dtype((np.void, sets.itemsize * sets.shape[1]))
    ranked = rows[np.argsort(sets[rows].view(row_bytes).ravel(), kind="stable")]
    same = (sets[ranked[1:]] == sets[ranked[:-1]]).all(axis=1)
    return ranked[1:][same], ranked[:-1][same]


def _row_hash(sets: np.ndarray) -> np.ndarray:
    """One uint64 per row of non-negative term ids: each id mixed, then folded in, wrapping."""
    hashes = np.zeros(len(sets), dtype=np.uint64)
    for column in sets.T:
        mixed = column.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        hashes *= np.uint64(0xBF58476D1CE4E5B9)
        hashes += mixed
    return hashes


def _encode_identifiers(rows: list[list[str]], n: int):
    """Identifier rows as term ids over their own dictionary: (dictionary, order, sets, bad).

    `sets` is `order` row-sorted. `bad` is ("width", row, -1) for a row without n terms
    (none encoded), else `_first_bad_row`'s.
    """
    widths = list(map(len, rows))
    if widths.count(n) != len(rows):
        return None, None, None, ("width", next(i for i, w in enumerate(widths) if w != n), -1)
    flat = list(chain.from_iterable(rows))
    dictionary = TermDictionary(set(flat))
    order = dictionary.ids_of(flat).reshape(len(rows), n)
    sets = np.sort(order, axis=1)
    return dictionary, order, sets, _first_bad_row(sets, len(dictionary))


def _identifier_problem(bad: tuple[str, int, int], doc_ids, rows, n: int) -> str:
    """The message for a row that failed the "width", "term" or "set" check; rows[row] holds it."""
    check, row, earlier = bad
    if check == "width":
        return f"identifier of {doc_ids[row]} has {len(rows[row])} terms, want {n}"
    if check == "set":
        return f"identifier collision between {doc_ids[earlier]} and {doc_ids[row]}"
    return f"identifier of {doc_ids[row]} repeats a term"


class IdentifierTable:
    """The checked registry: per-document identifiers of exactly n distinct terms.

    Its rows are encoded and checked once, when it is built, and kept in
    ascending doc-id order: `dictionary` names their terms, and the
    read-only int32 `order` holds each row importance-descending and `sets`
    holds it sorted. An `Index` shares these arrays.
    """

    def __init__(self, n: int, terms_by_doc: dict[str, list[str]]):
        if n < 1:
            raise DataError(f"identifier size must be >= 1, got {n}")
        doc_ids, rows = list(terms_by_doc), list(terms_by_doc.values())
        dictionary, order, sets, bad = _encode_identifiers(rows, n)
        if bad:
            raise InvariantError(_identifier_problem(bad, doc_ids, rows, n))
        self._keep(n, dictionary, *_by_doc_id(doc_ids, order, sets))

    @classmethod
    def _checked(cls, n, dictionary, doc_ids, order, sets) -> IdentifierTable:
        """A table of strictly ascending doc ids and rows checked as the constructor checks them."""
        return cls.__new__(cls)._keep(n, dictionary, doc_ids, order, sets)

    def _keep(self, n, dictionary, doc_ids, order, sets) -> IdentifierTable:
        order.flags.writeable = sets.flags.writeable = False
        self.n, self.dictionary, self.doc_ids, self.order, self.sets = n, dictionary, doc_ids, order, sets
        return self

    def _term_rows(self) -> list[list[str]]:
        """Each row's terms, importance-descending, in doc-id order."""
        return np.array(self.dictionary.terms, dtype=object)[self.order].tolist()

    @functools.cached_property
    def terms_by_doc(self) -> dict[str, list[str]]:
        """Each document's terms, best first; editing this dict leaves the table as it is."""
        return dict(zip(self.doc_ids, self._term_rows()))

    @property
    def num_placeholders(self) -> int:
        held = np.fromiter(map(is_placeholder, self.dictionary.terms), bool, len(self.dictionary))
        return int(held[self.order].sum())


def _strictly_ascending(items) -> bool:
    return all(map(operator.lt, items, islice(items, 1, None)))


def _by_doc_id(doc_ids: list[str], order: np.ndarray, sets: np.ndarray):
    """(doc_ids, order, sets) with the rows in ascending order of their unique doc ids."""
    if _strictly_ascending(doc_ids):
        return doc_ids, order, sets
    by_id = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    return [doc_ids[i] for i in by_id], order[by_id], sets[by_id]


def is_placeholder(term: str) -> bool:
    return term.startswith(PLACEHOLDER_MARK)


def _placeholder(doc_id: str, k: int) -> str:
    return f"{PLACEHOLDER_MARK}{doc_id}:{k}"



def _identifier_rows(ranked, start, count, by_id, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every document's identifier at size n, collisions repaired: (term ids, placeholders).

    Row d holds document d's n - fill[d] best-ranked terms, then -1 in the
    places of its placeholders ⟂doc:0 .. ⟂doc:fill[d]-1. A row with a
    placeholder names its document, so only full rows can repeat a set. In
    each round, every row whose set a smaller doc id holds drops its last
    (worst-ranked) term for its next-ranked unused term, or for ⟂doc:0 once
    its terms run out; the rounds end when no set repeats.
    """
    cols = np.arange(n)
    real = cols < np.minimum(count, n)[:, None]
    ident = np.full(real.shape, -1, dtype=np.int64)
    ident[real] = ranked[(start[:-1, None] + cols)[real]]
    fill = n - real.sum(axis=1)
    live = by_id[fill[by_id] == 0]  # the full rows, in doc-id order
    cursor = np.full(len(live), n)
    while True:
        later, _ = _repeated_sets(np.sort(ident[live], axis=1))
        if not len(later):
            return ident, fill
        docs, more = live[later], cursor[later] < count[live[later]]
        ident[docs[more], -1] = ranked[start[docs[more]] + cursor[later[more]]]
        cursor[later[more]] += 1
        spent = docs[~more]
        ident[spent, -1], fill[spent] = -1, 1
        keep = np.ones(len(live), dtype=bool)
        keep[later[~more]] = False
        live, cursor = live[keep], cursor[keep]


def build_identifiers(
    corpus: Corpus,
    model: ImportanceModel,
    n_min: int = 1,
    n_max: int = 12,
) -> IdentifierTable:
    """Scan identifier sizes upward; stop at the first n needing no synthetic terms.

    If every n in [n_min, n_max] needs placeholders (duplicate or tiny
    documents), the table with the fewest placeholders wins, smallest n
    breaking ties. Callers should warn when the result still has
    placeholders.
    """
    if not len(corpus):
        raise DataError("empty corpus")
    if not 1 <= n_min <= n_max:
        raise DataError(f"bad identifier size range [{n_min}, {n_max}]")
    rows, weights = _corpus_weights(corpus, model)
    # best first: weight descending, then first occurrence, which no two terms of a document share
    ranked = rows.term[np.lexsort((rows.first, -weights, rows.owner))]
    doc_ids = corpus.doc_ids
    by_id = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.int64)
    best = None
    for n in range(n_min, n_max + 1):
        ident, fill = _identifier_rows(ranked, rows.start, np.diff(rows.start), by_id, n)
        if best is None or fill.sum() < best[2].sum():
            best = n, ident, fill
        if not fill.any():
            break
    n, ident, fill = best
    return IdentifierTable(n, {
        doc_id: [rows.terms[t] for t in row[: n - k]] + [_placeholder(doc_id, j) for j in range(k)]
        for doc_id, row, k in zip(doc_ids, ident.tolist(), fill.tolist())
    })



# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "termset-importance/1"
_IDENTIFIER_FORMAT = "termset-identifiers/1"


def save_model(model: ImportanceModel, path) -> None:
    lines = [_MODEL_FORMAT, f"schema\t{_SCHEMA}", f"tau\t{model.tau!r}"]
    for name, value in zip(TFIDF_FEATURES, model.weights):
        lines.append(f"feature\t{name}\t{float(value)!r}")
    atomic.write_text(path, "\n".join(lines) + "\n")


def _finite(text: str, what: str) -> float:
    """`text` as a float; DataError about `what` unless it is a finite one."""
    (value,) = parse_values(float, [text], what)
    if not math.isfinite(value):
        raise DataError(f"{what} {text!r} is not finite")
    return value


def load_model(path) -> ImportanceModel:
    lines = read_lines(path)
    if not lines or lines[0] != _MODEL_FORMAT:
        raise DataError(f"{path}: not a {_MODEL_FORMAT} file")
    fields = {}
    features: list[tuple[str, float]] = []
    tau = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, tab, value = line.partition("\t")
        if not tab:
            raise DataError(f"{path}:{lineno}: model line is not 'key<TAB>value'")
        if key == "feature":
            name, _, text = value.partition("\t")
            features.append((name, _finite(text, f"{path}:{lineno}: feature weight")))
        elif key == "tau":
            tau = _finite(value, f"{path}:{lineno}: tau")
        else:
            fields[key] = value
    schema = fields.get("schema", "")
    if schema != _SCHEMA:
        raise DataError(f"{path}: unknown feature schema {schema!r}")
    if tuple(name for name, _ in features) != TFIDF_FEATURES:
        raise DataError(f"{path}: feature names do not match schema {schema}")
    if tau is None:
        raise DataError(f"{path}: missing 'tau' line")
    weights = np.array([value for _, value in features])
    return ImportanceModel(weights, tau)


_LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"  # where `str.splitlines` splits


def _refuse_separators(strings, what: str, ends: str = "") -> None:
    """A DataError naming the first of `strings` holding a line break or a character of `ends`."""
    bad = next(filter(None, map(re.compile(f"[{ends}{_LINE_BREAKS}]").search, strings)), None)
    if bad:
        raise DataError(f"{what} {bad.string!r} holds {bad[0]!r}, a separator of the file")


def write_identifier_file(table: IdentifierTable, path) -> None:
    """One line per document; a separator in a doc id or term is a DataError before writing."""
    _refuse_separators(table.doc_ids, "document id", "\t")
    _refuse_separators(table.dictionary.terms, "term", ",\t")
    lines = [f"{_IDENTIFIER_FORMAT}\t{table.n}"]
    lines += [f"{doc_id}\t{','.join(row)}" for doc_id, row in zip(table.doc_ids, table._term_rows())]
    atomic.write_text(path, "\n".join(lines) + "\n")


def read_identifier_file(path) -> IdentifierTable:
    """Read an identifiers file; a row that breaks the identifier rule is refused at its line."""
    lines = read_lines(path)
    header = lines[0].split("\t") if lines else [""]
    if header[0] != _IDENTIFIER_FORMAT:
        raise DataError(f"{path}: not a {_IDENTIFIER_FORMAT} file")
    if len(header) != 2:
        raise DataError(f"{path}: malformed identifier header")
    (n,) = parse_values(int, [header[1]], f"{path}:1: identifier size")
    if n < 1:
        raise DataError(f"{path}:1: identifier size must be >= 1, got {n}")
    terms_by_doc: dict[str, list[str]] = {}
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() and "\t" not in line:  # " \t " is a row: id " ", term " "
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: malformed identifier line")
        doc_id, terms = parts
        if doc_id in terms_by_doc:
            raise DataError(f"{path}:{lineno}: duplicate doc_id {doc_id}")
        terms_by_doc[doc_id] = terms.split(",")
        linenos.append(lineno)
    if not terms_by_doc:
        raise DataError(f"{path}: empty registry")
    doc_ids, rows = list(terms_by_doc), list(terms_by_doc.values())
    dictionary, order, sets, bad = _encode_identifiers(rows, n)  # in file order
    if bad:
        raise DataError(f"{path}:{linenos[bad[1]]}: {_identifier_problem(bad, doc_ids, rows, n)}")
    return IdentifierTable._checked(n, dictionary, *_by_doc_id(doc_ids, order, sets))
