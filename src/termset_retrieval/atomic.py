"""Atomic file output: a reader sees the old file or the whole new one.

Every artifact the package writes goes through `write_text`, so an
interrupted command never leaves a truncated file with a valid header that
the next stage would accept. Manifests are written last, after the outputs
they hash.
"""

from __future__ import annotations

import os


def write_text(path, text: str) -> None:
    """Write `text` (UTF-8) to a temporary file beside `path`, then rename it over `path`.

    `os.replace` is atomic within one directory. On any failure the
    temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
