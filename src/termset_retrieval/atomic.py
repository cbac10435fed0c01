"""Atomic file output: a reader sees the old file or the whole new one.

Every artifact the package writes goes through `write_bytes`, so an
interrupted command never leaves a truncated file with a valid header that
the next stage would accept. Manifests are written last, after the outputs
they hash.
"""

from __future__ import annotations

import os


def write_bytes(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over `path`.

    `os.replace` is atomic within one directory. On any failure the
    temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """`write_bytes` of `text` encoded as UTF-8."""
    write_bytes(path, text.encode("utf-8"))
