"""Term-importance estimation and document identifier construction.

A linear feature model with a ReLU clamp produces nonnegative per-term
weights for documents and queries. It is trained with an InfoNCE loss over
(query, positive, negatives) pairs where the matching score of a pair is
the sum of w_q(t) * w_d(t) over shared distinct terms. Each document's
identifier is its top-N terms by weight, deduplicated against collisions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import atomic
from .corpus import Corpus, CorpusStats, Document, Query, TrainingPair
from .errors import DataError, InvariantError, parse_values, read_lines, read_text

PLACEHOLDER_MARK = "⟂"  # prepended to synthetic per-document filler terms

TFIDF_FEATURES = ("tf_norm", "idf", "in_title", "first_pos", "term_len", "bias")


class TfidfFeaturizer:
    """Fixed six-feature schema computed from the text and corpus stats."""

    schema = "tfidf/1"
    names = TFIDF_FEATURES

    @property
    def dim(self) -> int:
        return len(self.names)

    def features(self, terms: list[str], title_terms: set[str], stats: CorpusStats):
        """Feature vector per distinct term of a term sequence."""
        length = max(len(terms), 1)
        counts = Counter(terms)
        first: dict[str, int] = {}
        for pos, term in enumerate(terms):
            first.setdefault(term, pos)
        out: dict[str, np.ndarray] = {}
        for term, count in counts.items():
            # df can be 0 for query-only terms; clamp so idf stays finite
            idf = math.log(stats.num_docs / max(stats.df.get(term, 1), 1))
            out[term] = np.array(
                [
                    count / length,
                    idf,
                    1.0 if term in title_terms else 0.0,
                    first[term] / length,
                    len(term) / 10.0,  # keep comparable to the other features
                    1.0,
                ]
            )
        return out


class EmbeddingFeaturizer:
    """Adapter for externally computed term embeddings (plus a bias slot).

    Terms missing from the table fall back to a zero vector, so only the
    bias contributes for them.
    """

    schema = "embedding/1"

    def __init__(self, table: dict[str, np.ndarray]):
        if not table:
            raise DataError("empty embedding table")
        dims = {len(v) for v in table.values()}
        if len(dims) != 1:
            raise DataError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self.embedding_dim = dims.pop()
        self.table = {t: np.asarray(v, dtype=float) for t, v in table.items()}
        self.names = tuple(f"e{i}" for i in range(self.embedding_dim)) + ("bias",)

    @property
    def dim(self) -> int:
        return self.embedding_dim + 1

    def features(self, terms: list[str], title_terms: set[str], stats: CorpusStats):
        zero = np.zeros(self.embedding_dim)
        out: dict[str, np.ndarray] = {}
        for term in set(terms):
            out[term] = np.append(self.table.get(term, zero), 1.0)
        return out


def load_term_embeddings(path) -> dict[str, np.ndarray]:
    """Read "term<TAB>v1,v2,..." lines into an embedding table."""
    table: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        bad = f"{path}:{lineno}: malformed embedding at line {lineno}"
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(bad)
        table[parts[0]] = np.array(parse_values(float, parts[1].split(","), f"{bad}: vector"))
    return table


@dataclass
class ImportanceModel:
    """Linear term-importance model: weight(term) = relu(features . weights)."""

    weights: np.ndarray
    tau: float = 1.0
    featurizer: TfidfFeaturizer | EmbeddingFeaturizer = field(default_factory=TfidfFeaturizer)

    @classmethod
    def zeros(cls, tau: float = 1.0, featurizer=None) -> "ImportanceModel":
        featurizer = featurizer or TfidfFeaturizer()
        return cls(np.zeros(featurizer.dim), tau, featurizer)


def featurize_term(term: str, document: Document, stats: CorpusStats, featurizer=None) -> np.ndarray:
    if term not in document.terms:
        raise DataError(f"term {term!r} does not occur in document {document.doc_id}")
    featurizer = featurizer or TfidfFeaturizer()
    return featurizer.features(document.terms, document.title_terms, stats)[term]


def score_terms(model: ImportanceModel, document: Document, stats: CorpusStats) -> dict[str, float]:
    """Nonnegative weight per distinct document term."""
    feats = model.featurizer.features(document.terms, document.title_terms, stats)
    return {t: float(max(f @ model.weights, 0.0)) for t, f in feats.items()}


def score_query_terms(model: ImportanceModel, query: Query, stats: CorpusStats) -> dict[str, float]:
    """Query-side weights; queries have no title, otherwise same featurization."""
    feats = model.featurizer.features(query.terms, set(), stats)
    return {t: float(max(f @ model.weights, 0.0)) for t, f in feats.items()}


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


def prepare_training_batch(
    pairs: list[TrainingPair],
    corpus: Corpus,
    featurizer=None,
    stats: CorpusStats | None = None,
) -> _TrainingBatch:
    """Precompute shared-term feature matrices; features are static during training."""
    featurizer = featurizer or TfidfFeaturizer()
    stats = stats or corpus.stats
    doc_cache: dict[str, dict[str, np.ndarray]] = {}

    def doc_features(doc_id: str) -> dict[str, np.ndarray]:
        if doc_id not in doc_cache:
            doc = corpus[doc_id]
            doc_cache[doc_id] = featurizer.features(doc.terms, doc.title_terms, stats)
        return doc_cache[doc_id]

    query_feats, doc_feats, cand, first = [], [], [], [0]
    for pair in pairs:
        qf = featurizer.features(pair.query.terms, set(), stats)
        candidates = [pair.positive] + list(pair.negatives)
        for c, doc_id in enumerate(candidates, start=first[-1]):
            df = doc_features(doc_id)
            shared = sorted(set(qf) & set(df))
            query_feats += [qf[t] for t in shared]
            doc_feats += [df[t] for t in shared]
            cand += [c] * len(shared)
        first.append(first[-1] + len(candidates))
    dim = featurizer.dim
    return _TrainingBatch(
        np.array(query_feats).reshape(-1, dim),
        np.array(doc_feats).reshape(-1, dim),
        np.array(cand, dtype=np.int64),
        np.array(first, dtype=np.int64),
    )


def infonce_loss_and_grad(weights: np.ndarray, batch: _TrainingBatch, tau: float):
    """Mean InfoNCE loss over the batch and its analytic gradient.

    Candidate 0 of each pair is the positive. The matching score of a
    candidate is sum over shared terms of relu(fq.w) * relu(fd.w); the loss
    is the negative log-softmax (temperature tau) of the positive's score.
    Scores are summed per candidate with `bincount` and normalized per pair
    with `reduceat` over the stacked rows.
    """
    if tau <= 0:
        raise DataError(f"temperature must be positive, got {tau}")
    fq, fd, cand, first = batch.query_feats, batch.doc_feats, batch.cand, batch.first
    num_pairs = len(first) - 1
    if not num_pairs:
        return 0.0, np.zeros_like(weights)
    zq, zd = fq @ weights, fd @ weights
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
    grad = (coef * (zq > 0) * wd) @ fq + (coef * (zd > 0) * wq) @ fd
    return float(loss) / num_pairs, grad / num_pairs


def train_importance(
    pairs: list[TrainingPair],
    corpus: Corpus,
    tau: float = 1.0,
    epochs: int = 50,
    lr: float = 0.05,
    seed: int = 0,
    featurizer=None,
) -> ImportanceModel:
    """Fit the importance model by full-batch gradient descent on the InfoNCE loss.

    Weights start from a small seeded positive perturbation: all features
    are nonnegative, so this keeps every ReLU alive, whereas at (or below)
    zero the clamp kills every gradient path.
    """
    if not pairs:
        raise DataError("no training pairs")
    featurizer = featurizer or TfidfFeaturizer()
    batch = prepare_training_batch(pairs, corpus, featurizer)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.001, 0.01, size=featurizer.dim)
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, grad = infonce_loss_and_grad(weights, batch, tau)
            update = lr * grad
        if not (math.isfinite(loss) and np.isfinite(update).all()):
            raise ArithmeticError(
                f"non-finite InfoNCE loss {loss} or update at epoch {epoch} (lr={lr}, tau={tau})"
            )
        weights = weights - update
    return ImportanceModel(weights, tau, featurizer)


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


def _first_bad_term(sets: np.ndarray, num_terms: int) -> tuple[str, int, int] | None:
    """The "range" and "term" checks of `_first_bad_row`, on its row-sorted term ids."""
    outside = ((sets[:, :1] < 0) | (sets[:, -1:] >= num_terms)).any(axis=1)
    if outside.any():
        return "range", int(outside.argmax()), -1
    repeats = (sets[:, 1:] == sets[:, :-1]).any(axis=1)
    if repeats.any():
        return "term", int(repeats.argmax()), -1
    return None


def _first_bad_row(sets: np.ndarray, num_terms: int) -> tuple[str, int, int] | None:
    """The first identifier-row check that fails, as (check, row, earlier), or None.

    `sets` holds each row's term ids, sorted. The checks, in order, each naming its first
    bad row: "range", every id lies in [0, num_terms); "term", no row repeats a term; "set",
    no row's set repeats an earlier row's, `earlier` being the first that holds it (else -1).
    """
    bad = _first_bad_term(sets, num_terms)
    if bad or len(sets) < 2:
        return bad
    if not sets.shape[1]:  # every zero-width row holds the empty set
        return "set", 1, 0
    # equal sets hash alike, so only rows that share a hash can repeat a set
    hashes = _row_hash(sets)
    ranked = np.argsort(hashes, kind="stable")
    shared = hashes[ranked[1:]] == hashes[ranked[:-1]]
    if not shared.any():
        return None
    suspects = np.zeros(len(sets), dtype=bool)
    suspects[ranked[1:][shared]] = suspects[ranked[:-1][shared]] = True
    rows = np.flatnonzero(suspects)  # ascending, so the exact sort below keeps row order
    # a stable sort of those rows as bytes: equal sets are neighbours, earlier row first
    row_bytes = np.dtype((np.void, sets.itemsize * sets.shape[1]))
    ranked = rows[np.argsort(sets[rows].view(row_bytes).ravel(), kind="stable")]
    same = (sets[ranked[1:]] == sets[ranked[:-1]]).all(axis=1)
    if same.any():
        later, earlier = ranked[1:][same], ranked[:-1][same]
        first = later.argmin()  # the second row of its set, so `earlier` is the first
        return "set", int(later[first]), int(earlier[first])
    return None


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


@dataclass
class IdentifierTable:
    """Per-document identifier: exactly n distinct terms, importance-descending."""

    n: int
    terms_by_doc: dict[str, list[str]]

    def __post_init__(self):
        rows = list(self.terms_by_doc.values())
        bad = _encode_identifiers(rows, self.n)[-1]
        if bad:
            raise InvariantError(_identifier_problem(bad, list(self.terms_by_doc), rows, self.n))

    @property
    def doc_ids(self) -> list[str]:
        return sorted(self.terms_by_doc)

    @property
    def num_placeholders(self) -> int:
        return sum(map(is_placeholder, chain.from_iterable(self.terms_by_doc.values())))


def is_placeholder(term: str) -> bool:
    return term.startswith(PLACEHOLDER_MARK)


def _placeholder(doc_id: str, k: int) -> str:
    return f"{PLACEHOLDER_MARK}{doc_id}:{k}"


def ranked_terms(document: Document, weights: dict[str, float]) -> list[str]:
    """All distinct terms, best first: weight desc, then first occurrence, then text."""
    first: dict[str, int] = {}
    for pos, term in enumerate(document.terms):
        first.setdefault(term, pos)
    return sorted(first, key=lambda t: (-weights.get(t, 0.0), first[t], t))


def select_identifier(document: Document, weights: dict[str, float], n: int) -> list[str]:
    """Top-n distinct terms by weight, padded with synthetic terms when short."""
    if n < 1:
        raise DataError(f"identifier size must be >= 1, got {n}")
    selected = ranked_terms(document, weights)[:n]
    return selected + [_placeholder(document.doc_id, k) for k in range(n - len(selected))]


def resolve_collisions(
    identifiers: dict[str, list[str]],
    ranked: dict[str, list[str]],
    n: int,
) -> IdentifierTable:
    """Repair colliding identifier sets while keeping every identifier at length n.

    Within each group sharing the same term set, the smallest doc_id keeps
    its identifier; every other member drops its worst-ranked term for its
    next-ranked never-used term (a unique synthetic term once exhausted).
    The consumed-rank cursor only moves forward, so the loop terminates.
    """
    current = {d: list(terms) for d, terms in identifiers.items()}
    cursor = {d: n for d in current}
    placeholder_next = {d: sum(map(is_placeholder, terms)) for d, terms in current.items()}

    def reorder(doc_id: str, terms: list[str]) -> list[str]:
        pos = {t: i for i, t in enumerate(ranked[doc_id])}
        real = sorted((t for t in terms if not is_placeholder(t)), key=lambda t: pos[t])
        fillers = sorted(t for t in terms if is_placeholder(t))
        return real + fillers

    while True:
        groups: dict[frozenset, list[str]] = {}
        for doc_id, terms in current.items():
            groups.setdefault(frozenset(terms), []).append(doc_id)
        colliding = [sorted(g) for g in groups.values() if len(g) > 1]
        if not colliding:
            break
        for group in sorted(colliding):
            for doc_id in group[1:]:
                terms = current[doc_id]
                ranks = ranked[doc_id]
                if cursor[doc_id] < len(ranks):
                    replacement = ranks[cursor[doc_id]]
                    cursor[doc_id] += 1
                else:
                    replacement = _placeholder(doc_id, placeholder_next[doc_id])
                    placeholder_next[doc_id] += 1
                # the worst-ranked term sits last in the ordered identifier
                current[doc_id] = reorder(doc_id, terms[:-1] + [replacement])
    return IdentifierTable(n, current)


def build_identifiers(
    corpus: Corpus,
    model: ImportanceModel,
    n_min: int = 1,
    n_max: int = 12,
    stats: CorpusStats | None = None,
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
    stats = stats or corpus.stats
    weights = {d.doc_id: score_terms(model, d, stats) for d in corpus.documents}
    ranked = {d.doc_id: ranked_terms(d, weights[d.doc_id]) for d in corpus.documents}
    best: IdentifierTable | None = None
    for n in range(n_min, n_max + 1):
        identifiers = {
            d.doc_id: select_identifier(d, weights[d.doc_id], n) for d in corpus.documents
        }
        table = resolve_collisions(identifiers, ranked, n)
        if table.num_placeholders == 0:
            return table
        if best is None or table.num_placeholders < best.num_placeholders:
            best = table
    return best


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "termset-importance/1"
_IDENTIFIER_FORMAT = "termset-identifiers/1"


def save_model(model: ImportanceModel, path) -> None:
    lines = [_MODEL_FORMAT, f"schema\t{model.featurizer.schema}", f"tau\t{model.tau!r}"]
    for name, value in zip(model.featurizer.names, model.weights):
        lines.append(f"feature\t{name}\t{float(value)!r}")
    atomic.write_text(path, "\n".join(lines) + "\n")


def _finite(text: str, what: str) -> float:
    """`text` as a float; DataError about `what` unless it is a finite one."""
    (value,) = parse_values(float, [text], what)
    if not math.isfinite(value):
        raise DataError(f"{what} {text!r} is not finite")
    return value


def load_model(path, embedding_table: dict[str, np.ndarray] | None = None) -> ImportanceModel:
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
    if schema == TfidfFeaturizer.schema:
        featurizer = TfidfFeaturizer()
    elif schema == EmbeddingFeaturizer.schema:
        if embedding_table is None:
            raise DataError(f"{path}: schema {schema} needs an embedding table to load")
        featurizer = EmbeddingFeaturizer(embedding_table)
    else:
        raise DataError(f"{path}: unknown feature schema {schema!r}")
    if tuple(name for name, _ in features) != tuple(featurizer.names):
        raise DataError(f"{path}: feature names do not match schema {schema}")
    if tau is None:
        raise DataError(f"{path}: missing 'tau' line")
    weights = np.array([value for _, value in features])
    return ImportanceModel(weights, tau, featurizer)


def write_identifier_file(table: IdentifierTable, path) -> None:
    lines = [f"{_IDENTIFIER_FORMAT}\t{table.n}"]
    lines += [f"{doc_id}\t{','.join(table.terms_by_doc[doc_id])}" for doc_id in table.doc_ids]
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
        if not line.strip():
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
    try:
        return IdentifierTable(n, terms_by_doc)
    except InvariantError as exc:  # the table checks its rows in file order; find the bad one
        _, row, _ = _encode_identifiers(list(terms_by_doc.values()), n)[-1]
        raise DataError(f"{path}:{linenos[row]}: {exc}") from None
