"""
Persistent on-disk copy of lr.lr_cache (a dict, lr.MemoDict, so that it
can be persisted), for library callers: the qweyl command keeps no state
between runs, and `import qweyl` does not load this module.  It stays only
while the benchmark measures the cache (its cache.* metrics); with them
gone it can be deleted with its tests.

Format: a magic+version header, the repr of the sorted list of
(key, value) entries, and a trailing CRC32 of everything before it.  A
missing file is a cold start; anything malformed, a file of an older
version included, raises CorruptCacheError.
"""

__all__ = ["cache_save", "cache_load", "CorruptCacheError"]

import os
import zlib

from . import lr

MAGIC = b"QWEYLC02"


class CorruptCacheError(Exception):
    """The cache file exists but cannot be trusted."""


def cache_save(path: str) -> None:
    """Write the memo table; compacts any previous file."""
    blob = MAGIC + repr(sorted(lr.lr_cache.items())).encode()
    blob += zlib.crc32(blob).to_bytes(4, "little")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def cache_load(path: str) -> None:
    """Merge a previously saved cache; missing file is a no-op."""
    import ast  # here, not at module level: only loading parses

    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or not blob.startswith(MAGIC):
        raise CorruptCacheError(f"{path}: bad header")
    body = blob[:-4]
    if zlib.crc32(body) != int.from_bytes(blob[-4:], "little"):
        raise CorruptCacheError(f"{path}: checksum mismatch")
    try:
        entries = ast.literal_eval(body[len(MAGIC):].decode())
        # (key, integer) pairs only: a bool or a float is no coefficient
        if not (type(entries) is list and all(
                type(e) is tuple and len(e) == 2 and type(e[1]) is int for e in entries)):
            raise ValueError("not a list of (key, integer) pairs")
        table = dict(entries)  # a TypeError here is an unhashable key
    except (ValueError, TypeError, SyntaxError, RecursionError) as exc:
        raise CorruptCacheError(f"{path}: malformed ({exc})") from exc
    for key, value in table.items():
        lr.lr_cache.setdefault(key, value)
