"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed or inconsistent input data (bad records, missing ids, infeasible requests)."""


class InvariantError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def parse_values(convert, texts, what: str) -> list:
    """Apply `convert` to each text, reporting a failure as DataError about `what`."""
    try:
        return [convert(text) for text in texts]
    except ValueError as exc:
        raise DataError(f"{what} {' '.join(texts)!r} is not a valid {convert.__name__}") from exc


def line_prefix(path, lineno: int) -> str:
    """A message prefix naming a record's file and line, `path:line: `; empty without a file."""
    return "" if path is None else f"{path}:{lineno}: "


def read_text(path) -> str:
    """A UTF-8 text file, newlines read as text mode reads them; other bytes raise DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not UTF-8 text") from exc


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split by `str.splitlines`; other bytes raise DataError."""
    return read_text(path).splitlines()
