"""
Persistent on-disk copy of one memo table, for library callers: the
qweyl command keeps no state between runs.

The table is a dict (lr.MemoDict) so that it can be persisted:
lr.lr_cache, the Littlewood-Richardson coefficients.  The module stays
only while the benchmark measures the cache (its cache.* metrics); with
them gone it can be deleted with its tests.

Binary format: magic+version header, one length-prefixed record per
entry (repr of the key, signed integer value), and a trailing CRC32 of
everything before it.  A missing file is a cold start; anything
malformed raises CorruptCacheError.
"""

__all__ = ["cache_save", "cache_load", "CorruptCacheError"]

import os
import struct
import zlib

from . import lr

MAGIC = b"QWEYLC01"


class CorruptCacheError(Exception):
    """The cache file exists but cannot be trusted."""


def _sections() -> list[tuple[str, dict]]:
    return [("lr", lr.lr_cache)]


def cache_save(path: str) -> None:
    """Write the memo table; compacts any previous file."""
    body = bytearray()
    for name, table in _sections():
        tag = name.encode()
        body += struct.pack("<B", len(tag)) + tag
        body += struct.pack("<I", len(table))
        for key in sorted(table, key=repr):
            kb = repr(key).encode()
            body += struct.pack("<Hq", len(kb), table[key]) + kb
    blob = MAGIC + bytes(body)
    blob += struct.pack("<I", zlib.crc32(blob))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def cache_load(path: str) -> None:
    """Merge a previously saved cache; missing file is a no-op."""
    import ast  # here, not at module level: only loading parses keys

    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or not blob.startswith(MAGIC):
        raise CorruptCacheError(f"{path}: bad header")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CorruptCacheError(f"{path}: checksum mismatch")
    tables = dict(_sections())
    pos = len(MAGIC)
    try:
        while pos < len(body):
            (tlen,) = struct.unpack_from("<B", body, pos)
            pos += 1
            name = body[pos : pos + tlen].decode()
            pos += tlen
            (count,) = struct.unpack_from("<I", body, pos)
            pos += 4
            table = tables[name]
            for _ in range(count):
                klen, val = struct.unpack_from("<Hq", body, pos)
                pos += 10
                key = ast.literal_eval(body[pos : pos + klen].decode())
                pos += klen
                table.setdefault(key, val)
    except (struct.error, KeyError, ValueError, SyntaxError, UnicodeDecodeError) as exc:
        raise CorruptCacheError(f"{path}: truncated or malformed ({exc})") from exc
    if pos != len(body):
        raise CorruptCacheError(f"{path}: trailing garbage")
