"""Identifier registry and the prefix -> postings inverted index.

Term-level posting lists are global and immutable once built. Prefixes
are never stored: a decoding step holds a beam of prefixes with the
documents whose identifiers contain every prefix term, and `expand` turns
it into a `Step`, whose extensions of each prefix are the union of its
documents' remaining identifier terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import NoReturn

import numpy as np

from . import atomic
from .errors import DataError, InvariantError, parse_values, read_lines
from .importance import IdentifierTable, TermDictionary
from .importance import _encode_identifiers, _first_bad_row, _first_bad_term, _identifier_problem

_INDEX_FORMAT = "termset-index/2"


@dataclass
class Step:
    """Every one-term extension of a whole beam of equal-depth prefixes.

    The beam: row h of `seqs` is hypothesis h's prefix, held by documents
    beam_docs[beam_ptr[h]:beam_ptr[h + 1]] (ascending). Extensions are
    ordered by (parent, term): `parents` and `terms` name them, `sizes`
    count their child documents, `leads` hold the lowest child document,
    and extension i's child postings are run_docs[starts[i]:][:sizes[i]],
    ascending. `offsets[h]:offsets[h + 1]` are hypothesis h's extensions.
    """

    searchable: object
    seqs: np.ndarray
    beam_docs: np.ndarray
    beam_ptr: np.ndarray
    parents: np.ndarray
    terms: np.ndarray
    sizes: np.ndarray
    leads: np.ndarray
    run_docs: np.ndarray
    starts: np.ndarray
    offsets: np.ndarray

    @property
    def depth(self) -> int:
        return self.seqs.shape[1]

    @property
    def n(self) -> int:
        return self.searchable.n

    def children(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Child postings of extensions `picks`, as flat docs and offsets."""
        sizes = self.sizes[picks]
        ptr = np.zeros(len(picks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        if ptr[-1] == len(picks):  # every child is one document, its lead
            return self.leads[picks], ptr
        gather = np.repeat(self.starts[picks] - ptr[:-1], sizes) + np.arange(ptr[-1])
        return self.run_docs[gather], ptr

    def locate(self, hyps: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Position of extension (hyps[i], terms[i]) in the step, -1 where there is none."""
        vocab = len(self.searchable.dictionary)
        keys = self.parents * vocab + self.terms  # ascending: extensions go by (parent, term)
        want = hyps * vocab + terms
        pos = np.searchsorted(keys, want)
        found = (terms >= 0) & (terms < vocab) & (pos < len(keys))
        found[found] = keys[pos[found]] == want[found]
        return np.where(found, pos, -1)

    def descend(self, picks: np.ndarray):
        """The next beam: one hypothesis per distinct extension among `picks`.

        Returns its prefixes, its postings (flat docs and offsets), and each
        pick's hypothesis in it.
        """
        kept, inverse = np.unique(picks, return_inverse=True)
        docs, ptr = self.children(kept)
        seqs = np.column_stack([self.seqs[self.parents[kept]], self.terms[kept]])
        return seqs, docs, ptr, inverse


def root_beam(searchable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The depth-0 beam, as `expand` takes it: the empty prefix, held by every document."""
    docs = searchable.all_docs
    return np.empty((1, 0), dtype=np.int64), docs, np.array([0, len(docs)])


def _expand(searchable, seqs, docs, ptr, columns) -> Step:
    """The beam's extensions (see `Step`), from the terms each document may add.

    `columns[i]` holds the distinct terms, ascending, that may follow the
    prefix for document docs[i]; terms of the hypothesis's own prefix are
    dropped. A beam whose every hypothesis holds one document is expanded
    as a dense block (`_dense_step`), any other by one sort (`_sort_step`);
    both give the same arrays.
    """
    vocab = len(searchable.dictionary)
    if len(docs) * vocab > 1 << 63:  # the sort's keys lie in [0, docs x V)
        raise InvariantError(f"{len(docs)} beam documents x {vocab} terms overflow the sort key")
    if len(docs) == len(seqs) and (ptr[1:] - ptr[:-1] == 1).all():
        return _dense_step(searchable, seqs, docs, ptr, columns)
    return _sort_step(searchable, seqs, docs, ptr, columns)


def _sort_step(searchable, seqs, docs, ptr, columns) -> Step:
    """`_expand` by one sort of keys unique per (hypothesis, term, document).

    Hypothesis h's c documents (ascending) get the keys ptr[h] * V + term *
    c + row, row being the document's place among them: sorted, they go by
    (hypothesis, term, document) and decode back. Each run of one
    (hypothesis, term) is one extension: its length is the child size, and
    it lists the child postings in order, lead first.
    """
    vocab, width = len(searchable.dictionary), columns.shape[1]
    top = len(docs) * vocab  # the keys lie in [0, top)
    beam_ptr = np.asarray(ptr, dtype=np.int32 if top <= 1 << 31 else np.int64)
    counts = beam_ptr[1:] - beam_ptr[:-1]
    first, size = beam_ptr[:-1].repeat(counts), counts.repeat(counts)  # per document
    rows = first * (vocab - 1) + np.arange(len(docs), dtype=first.dtype)  # ptr[h] * V + row
    keys = np.sort(columns * size[:, None] + rows[:, None], axis=None)
    first, size = first.repeat(width), size.repeat(width)  # h keeps its block of keys
    terms, rows = np.divmod(keys - first * vocab, size)
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(terms[1:], terms[:-1], out=edges[1:-1])
    edges[beam_ptr[1:-1] * width] = True
    bounds = edges.nonzero()[0]  # run starts, then the end
    parents = np.arange(len(seqs)).repeat(counts * width)[bounds[:-1]]
    terms = terms[bounds[:-1]]
    keep = ~(seqs[parents] == terms[:, None]).any(axis=1)
    starts, parents = bounds[:-1][keep], parents[keep]
    run_docs = docs[first + rows]  # rows: each sorted key's place in its hypothesis
    return Step(
        searchable, seqs, docs, ptr, parents, terms[keep].astype(columns.dtype),
        (bounds[1:] - bounds[:-1])[keep], run_docs[starts], run_docs, starts,
        np.searchsorted(parents, np.arange(len(seqs) + 1)),
    )


def _dense_step(searchable, seqs, docs, ptr, columns) -> Step:
    """`_expand` of a beam in which hypothesis h holds one document, docs[h].

    Its extensions are that document's terms, columns[h], bar the prefix's:
    each has child size 1 and lead docs[h]. The arrays equal the sort's,
    which puts h's keys at h * width + j in term order, so its runs list
    docs[h] width times.
    """
    width = columns.shape[1]
    keep = (columns[:, :, None] != seqs[:, None, :]).all(axis=2)
    parents, column = keep.nonzero()
    return Step(
        searchable, seqs, docs, ptr, parents, columns[keep], np.ones_like(parents),
        docs[parents], docs.repeat(width), parents * width + column,
        np.searchsorted(parents, np.arange(len(seqs) + 1)),
    )


class Index:
    """Built once from an IdentifierTable; shared read-only across queries.

    doc_ids must be strictly ascending: document positions then order
    documents exactly as their ids do, which the decoder's tie rule uses.
    """

    def __init__(self, dictionary: TermDictionary, doc_ids: list[str], order: np.ndarray):
        if not _strictly_ascending(doc_ids):
            raise InvariantError("document ids must be unique and in sorted order")
        self.dictionary = dictionary
        self.doc_ids = doc_ids
        self._doc_index = dict(zip(doc_ids, range(len(doc_ids))))
        self.order = order  # (docs, n) term ids, importance-descending
        self.sets = np.sort(order, axis=1)  # row-sorted set view
        self.n = order.shape[1]
        num_docs, vocab = len(doc_ids), len(dictionary)
        bad = _first_bad_term(self.sets, vocab)
        if bad and bad[0] == "range":
            raise InvariantError(f"term ids outside [0, {vocab})")
        if bad:
            raise InvariantError(_identifier_problem(bad, doc_ids, order, self.n))
        # term-level postings as CSR: term t's documents are
        # posting_docs[posting_ptr[t]:posting_ptr[t + 1]], in position
        # order: the keys term * docs + doc are unique, so one sort orders them
        keys = self.sets.astype(np.int64) * num_docs + np.arange(num_docs)[:, None]
        self.posting_docs = (np.sort(keys, axis=None) % num_docs).astype(np.int32)
        self.posting_ptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.sets.ravel(), minlength=vocab), out=self.posting_ptr[1:])
        self.posting_sizes = np.diff(self.posting_ptr)
        self.all_docs = np.arange(num_docs, dtype=np.int32)
        self.root_feasible = np.flatnonzero(self.posting_sizes > 0).astype(np.int32)

    def __len__(self):
        return len(self.doc_ids)

    def postings(self, term_id: int) -> np.ndarray:
        return self.posting_docs[self.posting_ptr[term_id] : self.posting_ptr[term_id + 1]]

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam (see `Step`).

        The only depth-0 beam is the root, whose children are the term postings.
        """
        if seqs.shape[1] == 0:
            terms = self.root_feasible
            starts = self.posting_ptr[terms]
            return Step(
                self, seqs, docs, ptr, np.zeros(len(terms), dtype=np.int64), terms,
                self.posting_sizes[terms], self.posting_docs[starts], self.posting_docs, starts,
                np.array([0, len(terms)]),
            )
        return _expand(self, seqs, docs, ptr, self.sets[docs])

    def doc_position(self, doc_id: str) -> int:
        return self._doc_index[doc_id]

    def identifier_ids(self, doc_id: str, ordered: bool = False) -> np.ndarray:
        row = self.order if ordered else self.sets
        return row[self._doc_index[doc_id]]

    def identifier_terms(self, doc_id: str) -> list[str]:
        return [self.dictionary.term_of(int(t)) for t in self.order[self._doc_index[doc_id]]]

    def memory_bytes(self) -> int:
        arrays = self.order.nbytes + self.sets.nbytes
        arrays += self.posting_docs.nbytes + self.posting_ptr.nbytes
        strings = sum(len(t.encode("utf-8")) for t in self.dictionary.terms)
        strings += sum(len(d.encode("utf-8")) for d in self.doc_ids)
        return arrays + strings


def _strictly_ascending(items) -> bool:
    return all(map(operator.lt, items, islice(items, 1, None)))


def build_index(table: IdentifierTable) -> Index:
    """Index a registry, checking its rows as `IdentifierTable` and `load_index` do."""
    if not table.terms_by_doc:
        raise DataError("empty registry")
    doc_ids = table.doc_ids
    rows = list(map(table.terms_by_doc.__getitem__, doc_ids))
    dictionary, order, bad = _encode_identifiers(rows, table.n)
    if bad:
        raise InvariantError(_identifier_problem(bad, doc_ids, rows, table.n))
    return Index(dictionary, doc_ids, order)


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

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam: each document's next stored term."""
        depth = seqs.shape[1]
        return _expand(self, seqs, docs, ptr, self.index.order[docs, depth : depth + 1])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: Index, path) -> None:
    """Versioned text of `T` (term) and `D` (identifier) records; byte-stable."""
    lines = [
        _INDEX_FORMAT,
        f"n\t{index.n}",
        f"docs\t{len(index.doc_ids)}",
        f"terms\t{len(index.dictionary)}",
    ]
    lines += map("T\t".__add__, index.dictionary.terms)
    # one cell per string of the D records: "\nD<TAB>doc<TAB>", then the
    # term ids from a per-id string table, with commas between them
    names = np.array(list(map(str, range(len(index.dictionary)))), dtype=object)
    cells = np.full((len(index.doc_ids), max(2 * index.n, 1)), ",", dtype=object)
    cells[:, 0] = list(map("\nD\t{}\t".format, index.doc_ids))
    cells[:, 1::2] = names[index.order]
    atomic.write_text(path, "\n".join(lines) + "".join(cells.ravel().tolist()) + "\n")


def load_index(path) -> Index:
    """Rebuild an index from its `T` and `D` records, checking every record.

    The records are parsed and checked in bulk. When a check fails, one
    pass over the records names the first bad `path:line`.
    """
    lines = read_lines(path)
    if not lines or lines[0] != _INDEX_FORMAT:
        raise DataError(f"{path}: not a {_INDEX_FORMAT} file")
    try:
        header = dict(line.split("\t", 1) for line in lines[1:4])
        n, num_docs, num_terms = (int(header[k]) for k in ("n", "docs", "terms"))
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}: malformed index header") from exc
    records = _parse_records(lines[4:], n)
    if records is None:
        _raise_first_bad_record(path, lines, n)
    terms, doc_ids, values = records
    if len(terms) != num_terms or len(doc_ids) != num_docs:
        raise DataError(f"{path}: header counts do not match records")
    if not doc_ids:
        raise DataError(f"{path}: empty registry")
    if not _strictly_ascending(terms):
        raise DataError(f"{path}: terms not unique and in sorted order")
    if not _strictly_ascending(doc_ids):
        raise DataError(f"{path}: documents not unique and in sorted order")
    try:
        order = np.asarray(values, dtype=np.int64).reshape(num_docs, n)
    except OverflowError as exc:
        row = next(i for i, value in enumerate(values) if abs(value) >= 2**63) // n
        raise DataError(f"{path}:{_doc_linenos(lines)[row]}: term id outside [0, {num_terms})") from exc
    bad = _first_bad_row(np.sort(order, axis=1), num_terms)
    if bad:
        check, row, _ = bad
        message = {
            "range": f"term id outside [0, {num_terms})",
            "term": "identifier repeats a term",
            "set": "identifier set repeats an earlier document's",
        }[check]
        raise DataError(f"{path}:{_doc_linenos(lines)[row]}: {message}")
    return Index(TermDictionary(terms), doc_ids, order.astype(np.int32))


def _parse_records(lines: list[str], n: int) -> tuple[list, list, list | np.ndarray] | None:
    """Terms, document ids and flat term ids of the records, or None if one is bad.

    A record is bad when its tag is unknown, a `D` record lacks its second
    tab, or its term ids are not n `int`s. Blank lines are skipped. Ids
    spelled as `save_index` writes them are parsed in bulk; `int` reads
    any other spelling, one id at a time.
    """
    records = list(filter(None, lines))
    is_doc = list(map(str.startswith, records, repeat("D\t")))
    terms = list(compress(records, map(operator.not_, is_doc)))
    if sum(map(str.startswith, terms, repeat("T\t"))) + terms.count("T") != len(terms):
        return None
    docs = list(compress(records, is_doc))
    tabs = list(map(str.find, docs, repeat("\t"), repeat(2)))  # each `D` record's second tab
    if -1 in tabs:
        return None
    ids = [doc[tab + 1 :] for doc, tab in zip(docs, tabs)]
    if list(map(str.count, ids, repeat(","))).count(n - 1) != len(ids):
        return None
    joined = ",".join(ids)
    values = _canonical_ids(joined) if ids else []
    if values is None:
        try:
            values = _int_ids(joined)
        except ValueError:
            return None
    return [term[2:] for term in terms], [doc[2:tab] for doc, tab in zip(docs, tabs)], values


def _canonical_ids(text: str) -> np.ndarray | None:
    """Ids spelled as `save_index` writes them, parsed in one call; None for any other spelling.

    `np.fromstring` also takes spaces and signs, and clamps an id that overflows,
    so it reads only text whose every comma-separated field is 1 to 18 ASCII
    digits, which keeps each id below 2**63.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    digit = raw - ord("0") < 10  # uint8 wraps below "0"
    if not (digit | (raw == ord(","))).all():
        return None
    # no empty field: a digit at both ends, and no two commas side by side
    if not (len(digit) and digit[0] and digit[-1] and (digit[1:] | digit[:-1]).all()):
        return None
    # no field over 18 digits: run[i] ends up true where text[i:i + 19] is all digits
    run = digit
    for shift in (1, 2, 4, 8, 3):  # runs of 2, 4, 8, 16, then 19 digits
        run = run[:-shift] & run[shift:]
    if run.any():
        return None
    return np.fromstring(text, dtype=np.int64, sep=",")


def _int_ids(text: str) -> list[int]:
    """Comma-separated ids in any spelling `int` reads; ValueError for one it does not."""
    return list(map(int, text.split(",")))


def _raise_first_bad_record(path, lines: list[str], n: int) -> NoReturn:
    """Check the records one by one; raise DataError naming the first bad one."""
    for lineno, line in enumerate(lines[4:], start=5):
        if not line:
            continue
        tag, _, rest = line.partition("\t")
        if tag == "D":
            _, tab, ids = rest.partition("\t")
            if not tab:
                raise DataError(f"{path}:{lineno}: document record is not 'D<TAB>doc<TAB>ids'")
            row = parse_values(int, ids.split(","), f"{path}:{lineno}: term ids")
            if len(row) != n:
                raise DataError(f"{path}:{lineno}: expected {n} term ids, got {len(row)}")
        elif tag != "T":
            raise DataError(f"{path}:{lineno}: unknown record tag {tag!r}")
    raise InvariantError(f"{path}: the bulk record checks failed, but no record fails alone")


def _doc_linenos(lines: list[str]) -> list[int]:
    """Line numbers of the `D` records of a file whose records all passed `_parse_records`."""
    return [lineno for lineno, line in enumerate(lines[4:], start=5) if line.startswith("D\t")]
