"""Identifier registry and the prefix -> postings inverted index.

Term-level posting lists are global and immutable once built. Prefixes
are never stored: a decoding step holds a beam of prefixes with the
documents whose identifiers contain every prefix term, and `expand` turns
it into a `Step`, whose extensions of each prefix are the union of its
documents' remaining identifier terms.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import atomic
from .errors import DataError, InvariantError
from .importance import IdentifierTable, TermDictionary, _find, _first_bad_row, _strictly_ascending

_INDEX_FORMAT = "termset-index/3"


@dataclass
class Step:
    """Every one-term extension of a whole beam of equal-depth prefixes.

    The beam: row h of `seqs` is hypothesis h's prefix, and `beam_docs`
    lists the documents that hold each prefix, hypothesis by hypothesis
    (ascending within each). Extensions are ordered by (parent, term):
    `parents` and `terms` name them and `sizes` count their child
    documents. Extension i's child postings, ascending, are
    beam_docs[k - origin] for the keys k of its run, keys[starts[i]:][:sizes[i]],
    where its origin is terms[i] * scale[h] + rowbase[h] for its parent h;
    its lead, the lowest child document, is the run's first. Origins and
    leads are derived only for the extensions asked for (`origins`,
    `leads`): a step holds thousands, and the cut keeps K.
    `offsets[h]:offsets[h + 1]` are hypothesis h's extensions.
    """

    searchable: object
    seqs: np.ndarray
    beam_docs: np.ndarray
    parents: np.ndarray
    terms: np.ndarray
    sizes: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    scale: np.ndarray
    rowbase: np.ndarray
    offsets: np.ndarray

    @property
    def depth(self) -> int:
        return self.seqs.shape[1]

    @property
    def n(self) -> int:
        return self.searchable.n

    def origins(self, rows) -> np.ndarray:
        """The origin of each extension in `rows`: its run's keys minus it are beam positions."""
        parents = self.parents[rows]
        terms = self.terms[rows].astype(self.rowbase.dtype, copy=False)
        return terms * self.scale[parents] + self.rowbase[parents]

    def leads(self, rows) -> np.ndarray:
        """The lowest child document of each extension in `rows`."""
        return self.beam_docs.take(self.keys[self.starts[rows]] - self.origins(rows))

    def children(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Child postings of extensions `picks`, as flat docs and offsets."""
        sizes = self.sizes[picks]
        ptr = np.zeros(len(picks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        if ptr[-1] == len(picks):  # every child is one document, its lead
            return self.leads(picks), ptr
        gather = np.repeat(self.starts[picks] - ptr[:-1], sizes) + np.arange(ptr[-1])
        return self.beam_docs.take(self.keys[gather] - np.repeat(self.origins(picks), sizes)), ptr

    def locate(self, hyps: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Position of extension (hyps[i], terms[i]) in the step, -1 where there is none."""
        vocab = len(self.searchable.dictionary)
        keys = self.parents * vocab + self.terms  # ascending: extensions go by (parent, term)
        return np.where((terms >= 0) & (terms < vocab), _find(keys, hyps * vocab + terms), -1)

    def descend(self, picks: np.ndarray):
        """The next beam: one hypothesis per distinct extension among `picks`.

        Returns its prefixes, its postings (flat docs and offsets), and each
        pick's hypothesis in it.
        """
        kept, inverse = np.unique(picks, return_inverse=True)
        docs, ptr = self.children(kept)
        seqs = np.column_stack([self.seqs[self.parents[kept]], self.terms[kept]])
        return seqs, docs, ptr, inverse


@dataclass
class RootStep(Step):
    """The depth-0 step: its leads, each root term's first posting, are built with the index.

    At the root a cut may sort nearly every term (many tie on their score),
    so the leads are read, not derived.
    """

    lead_docs: np.ndarray

    def leads(self, rows) -> np.ndarray:
        return self.lead_docs[rows]


def root_beam(searchable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The depth-0 beam, as `expand` takes it: the empty prefix, held by every document."""
    docs = searchable.all_docs
    return np.empty((1, 0), dtype=np.int64), docs, np.array([0, len(docs)])


def _expand(searchable, seqs, docs, ptr, columns) -> Step:
    """The beam's extensions (see `Step`), from the terms each document may add, by one sort.

    `columns[i]` holds the distinct terms, ascending, that may follow the
    prefix for document docs[i]; terms of the hypothesis's own prefix are
    dropped. The sort's keys are unique per (hypothesis, term, document):
    hypothesis h's c documents (ascending) take s = bit_length(c - 1) row
    bits, and the document in row r among them gets the keys base[h] +
    (term << s) + r, base[h] being the sum of V << s over the hypotheses
    before h. Sorted, they go by (hypothesis, term, document), and all lie
    below base[H] < 2 * len(docs) * V. Each run of one (hypothesis, term)
    is one extension: its length is the child size, and it lists the child
    postings in order, lead first. Only the terms are decoded for every
    key, to find the runs, and the hypothesis at run starts. The layout is
    kept per hypothesis: scale[h] = 2**s and rowbase[h] = base[h] - ptr[h],
    from which `Step.origins` finds the beam position of any key.
    """
    vocab, width = len(searchable.dictionary), columns.shape[1]
    if len(docs) * vocab > 1 << 63:  # the sort's keys lie below 2 x docs x V, and 2**64
        raise InvariantError(f"{len(docs)} beam documents x {vocab} terms overflow the sort key")
    counts = ptr[1:] - ptr[:-1]
    rowbits = np.frexp(counts - 1)[1]  # bit_length(c - 1): a row among c documents
    slots = np.left_shift(counts > 0, rowbits, dtype=np.uint64, casting="unsafe")  # per term
    ends = slots.cumsum() * np.uint64(vocab)  # where each hypothesis's keys end
    top = int(ends[-1])
    dtype = np.int32 if top <= 1 << 31 else np.int64 if top <= 1 << 63 else np.uint64
    shifts = rowbits.astype(dtype)
    base = np.zeros(len(counts), dtype=dtype)
    base[1:] = ends[:-1]
    rowbase = base - ptr[:-1].astype(dtype)  # base[h] + r = rowbase[h] + position
    # flat, per key: hypothesis h's documents hold its keys, before and after the sort
    per_key = counts * width
    key_shift = shifts.repeat(per_key)
    keys = np.left_shift(columns.astype(dtype, copy=False).ravel(), key_shift)
    keys += (rowbase.repeat(counts) + np.arange(len(docs), dtype=dtype)).repeat(width)
    keys.sort()
    terms = np.subtract(keys, base.repeat(per_key))
    terms = np.right_shift(terms, key_shift, out=terms)
    spans = ptr * width  # each hypothesis's keys, as positions in `keys`
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(terms[1:], terms[:-1], out=edges[1:-1])
    edges[spans[1:-1]] = True
    bounds = edges.nonzero()[0]  # run starts, then the end
    runs = bounds[:-1].searchsorted(spans)
    runs = runs[1:] - runs[:-1]  # runs per hypothesis
    terms = terms[bounds[:-1]].astype(columns.dtype, copy=False)  # each run's term
    keep = np.ones(len(terms), dtype=bool)
    for column in seqs.T.astype(terms.dtype):  # drop the prefix's own terms
        keep &= column.repeat(runs) != terms
    sizes, starts = (bounds[1:] - bounds[:-1])[keep], bounds[:-1][keep]
    del bounds, edges  # freed before the step's arrays are made, at its peak memory
    offsets = starts.searchsorted(spans)
    parents = np.arange(len(seqs)).repeat(offsets[1:] - offsets[:-1])
    return Step(
        searchable, seqs, docs, parents, terms[keep], sizes, keys, starts,
        slots.astype(dtype), rowbase, offsets,
    )


class DenseStep(Step):
    """The step of a beam in which hypothesis h holds one document, docs[h].

    Search's dense tail builds it from `remaining`. Its extensions are
    block[h], ascending: terms of that document, each with child size 1
    and lead docs[h], so there are no keys. Every array follows from the
    block's shape and is made when first read.
    """

    def __init__(self, searchable, seqs, docs, block):
        self.searchable, self.seqs, self.beam_docs, self.block = searchable, seqs, docs, block

    parents = cached_property(lambda self: np.arange(len(self.block)).repeat(self.block.shape[1]))
    terms = cached_property(lambda self: self.block.ravel())
    sizes = cached_property(lambda self: np.ones_like(self.parents))
    offsets = cached_property(lambda self: np.arange(len(self.block) + 1) * self.block.shape[1])
    _leads = cached_property(lambda self: self.beam_docs.repeat(self.block.shape[1]))

    def leads(self, rows) -> np.ndarray:
        return self._leads[rows]


class Index:
    """The prefix index of an `IdentifierTable`; shared read-only across queries.

    It shares the table's dictionary, doc ids and read-only `order` and
    `sets` rows, which the table checked when it was built. The doc ids
    ascend strictly: document positions then order documents exactly as
    their ids do, which the decoder's tie rule uses.
    """

    def __init__(self, table: IdentifierTable):
        self.dictionary, self.doc_ids, self.n = table.dictionary, table.doc_ids, table.n
        self.order, self.sets = table.order, table.sets  # importance-descending, sorted
        num_docs, vocab = len(self.doc_ids), len(self.dictionary)
        # term-level postings as CSR: term t's documents are
        # posting_docs[posting_ptr[t]:posting_ptr[t + 1]], in position
        # order: the keys term * docs + doc are unique, so one sort orders them
        keys = self.sets.astype(np.int64) * num_docs + np.arange(num_docs)[:, None]
        self.posting_docs = (np.sort(keys, axis=None) % num_docs).astype(np.int32)
        self.posting_ptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.sets.ravel(), minlength=vocab), out=self.posting_ptr[1:])
        self.posting_sizes = np.diff(self.posting_ptr)
        self.all_docs = np.arange(num_docs, dtype=np.int32)
        self.root_feasible = terms = np.flatnonzero(self.posting_sizes > 0).astype(np.int32)
        self.log1p_sizes = np.log1p(np.arange(self.posting_sizes.max(initial=0) + 1))
        # the root step's arrays but its beam (see `expand`); not the Step
        # itself, whose `searchable` would tie a cycle back to this index.
        # Its keys are the postings, so every origin is 0 (scale and rowbase)
        starts = self.posting_ptr[terms]
        self._root = (
            np.zeros(len(terms), dtype=np.int64), terms, self.posting_sizes[terms],
            self.posting_docs, starts, np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32),
            np.array([0, len(terms)]), self.posting_docs[starts],
        )
        for array in (self.log1p_sizes, *self._root):
            array.flags.writeable = False

    def __len__(self):
        return len(self.doc_ids)

    def postings(self, term_id: int) -> np.ndarray:
        return self.posting_docs[self.posting_ptr[term_id] : self.posting_ptr[term_id + 1]]

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam (see `Step`).

        The only depth-0 beam is the root (`root_beam`), whose children are
        the term postings: its step is built once, with the index.
        """
        if seqs.shape[1] == 0:
            return RootStep(self, seqs, docs, *self._root)
        return _expand(self, seqs, docs, ptr, self.sets.take(docs, axis=0))

    def remaining(self, seqs: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, bool]:
        """The terms left to place when hypothesis h holds one document, docs[h].

        Row h of the block holds the n - depth terms of docs[h] outside its
        prefix seqs[h], ascending; the flag is True: any may come next.
        """
        terms = self.sets.take(docs, axis=0)
        keep = np.ones(terms.shape, dtype=bool)
        for column in seqs.T:
            keep &= terms != column[:, None]
        return terms[keep].reshape(len(docs), self.n - seqs.shape[1]), True

    def doc_position(self, doc_id: str) -> int:
        """The position of a document, by bisection of the ascending `doc_ids`."""
        pos = bisect_left(self.doc_ids, doc_id)
        if pos == len(self.doc_ids) or self.doc_ids[pos] != doc_id:
            raise DataError(f"document {doc_id!r} is not in the index")
        return pos

    def identifier_ids(self, doc_id: str, ordered: bool = False) -> np.ndarray:
        row = self.order if ordered else self.sets
        return row[self.doc_position(doc_id)]

    def identifier_terms(self, doc_id: str) -> list[str]:
        return [self.dictionary.term_of(int(t)) for t in self.order[self.doc_position(doc_id)]]

    def memory_bytes(self) -> int:
        """Bytes of every array buffer the index holds, each counted once, and of its strings."""
        owners = {}
        for array in (*vars(self).values(), *self._root):
            if isinstance(array, np.ndarray):
                while isinstance(array.base, np.ndarray):  # a view holds its base's buffer
                    array = array.base
                owners[id(array)] = array.nbytes
        strings = sum(len(t.encode("utf-8")) for t in self.dictionary.terms)
        strings += sum(len(d.encode("utf-8")) for d in self.doc_ids)
        return sum(owners.values()) + strings


def build_index(table: IdentifierTable) -> Index:
    """Index a registry; its rows were checked when the table was built."""
    if not table.doc_ids:
        raise DataError("empty registry")
    return Index(table)


def naive_feasible_terms(index: Index, prefix_ids) -> np.ndarray:
    """Full-registry scan: check every document for prefix containment, then union.

    Kept as the reference path the posting-list walk is benchmarked against.
    """
    prefix = np.asarray(sorted(prefix_ids), dtype=index.sets.dtype)
    if len(prefix) == 0:
        return np.unique(index.sets)
    hits = np.isin(index.sets, prefix).sum(axis=1) == len(prefix)
    if not hits.any():
        return np.empty(0, dtype=index.sets.dtype)
    union = np.unique(index.sets[hits])
    return np.setdiff1d(union, prefix, assume_unique=True)


# ---------------------------------------------------------------------------
# Fixed-sequence view (identifier-scheme ablation)
# ---------------------------------------------------------------------------


class SequenceView:
    """Decoding constraints for fixed-order identifiers over the same registry.

    The feasible set at depth i is each surviving document's i-th stored
    term, i.e. a trie over the importance-ordered sequences.
    """

    def __init__(self, index: Index):
        self.index = index
        self.n = index.n
        self.dictionary = index.dictionary
        self.doc_ids = index.doc_ids
        self.all_docs = index.all_docs
        self.log1p_sizes = index.log1p_sizes

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam: each document's next stored term."""
        depth = seqs.shape[1]
        return _expand(self, seqs, docs, ptr, self.index.order[docs, depth : depth + 1])

    def remaining(self, seqs: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, bool]:
        """`Index.remaining` in stored order; the flag is False: only the first may come next."""
        return self.index.order[docs, seqs.shape[1] :], False


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# the magic line, then n, docs, terms and the byte lengths of the terms and
# doc-id sections as little-endian uint64; the sections start at _START
_MAGIC = f"{_INDEX_FORMAT}\n".encode()
_HEADER = struct.Struct("<5Q")
_START = len(_MAGIC) + _HEADER.size


def save_index(index: Index, path) -> None:
    """Header, terms, doc ids, then `order` as `<i4` rows 8-byte aligned; byte-stable.

    A term or doc id holding a newline, which separates them in the file,
    is a DataError, raised before anything is written.
    """
    terms, docs = _joined(index.dictionary.terms, "term"), _joined(index.doc_ids, "document id")
    header = _HEADER.pack(index.n, len(index.doc_ids), len(index.dictionary), len(terms), len(docs))
    pad = bytes(-(_START + len(terms) + len(docs)) % 8)
    order = index.order.astype("<i4").tobytes()
    atomic.write_bytes(path, b"".join([_MAGIC, header, terms, docs, pad, order]))


def _joined(strings: list[str], what: str) -> bytes:
    """`strings` joined by newlines, as UTF-8."""
    text = "\n".join(strings)
    if text.count("\n") > max(len(strings) - 1, 0):
        bad = next(s for s in strings if "\n" in s)
        raise DataError(f"{what} {bad!r} holds a newline")
    return text.encode("utf-8")


def load_index(path) -> Index:
    """Rebuild an index from its file, checking every section and row once.

    Section sizes are checked against the file length before any array is
    made. A bad file is a DataError naming `path`, and a bad row also names
    its document.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC):
        raise DataError(f"{path}: not a {_INDEX_FORMAT} file (rebuild it with build-index)")
    if len(data) < _START:
        raise DataError(f"{path}: truncated header")
    n, num_docs, num_terms, terms_size, docs_size = _HEADER.unpack_from(data, len(_MAGIC))
    docs_at = _START + terms_size
    order_at = -(-(docs_at + docs_size) // 8) * 8
    size = order_at + 4 * num_docs * n
    if size != len(data):
        raise DataError(f"{path}: the header gives {size} bytes, the file has {len(data)}")
    if any(data[docs_at + docs_size : order_at]):
        raise DataError(f"{path}: padding before the term ids is not zero")
    if not num_docs:
        raise DataError(f"{path}: empty registry")
    terms = _split(path, data, _START, terms_size, num_terms, "terms")
    doc_ids = _split(path, data, docs_at, docs_size, num_docs, "documents")
    if not _strictly_ascending(terms):
        raise DataError(f"{path}: terms not unique and in sorted order")
    if not _strictly_ascending(doc_ids):
        raise DataError(f"{path}: documents not unique and in sorted order")
    # a copy: the index does not pin the file's bytes
    order = np.frombuffer(data, "<i4", num_docs * n, order_at).reshape(num_docs, n).astype(np.int32)
    sets = np.sort(order, axis=1)
    bad = _first_bad_row(sets, num_terms)
    if bad:
        check, row, earlier = bad
        message = {
            "range": f"term id outside [0, {num_terms})",
            "term": "identifier repeats a term",
            "set": f"identifier set repeats that of document {doc_ids[earlier]!r}",
        }[check]
        raise DataError(f"{path}: document {doc_ids[row]!r}: {message}")
    return Index(IdentifierTable._checked(n, TermDictionary(terms), doc_ids, order, sets))


def _split(path, data: bytes, at: int, size: int, count: int, what: str) -> list[str]:
    """The `count` newline-separated UTF-8 strings in data[at:at + size]."""
    try:
        text = data[at : at + size].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {at + exc.start} is not UTF-8 text") from None
    strings = text.split("\n") if text or count else []
    if len(strings) != count:
        raise DataError(f"{path}: the header counts {count} {what}, the file holds {len(strings)}")
    return strings
