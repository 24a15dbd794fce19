"""
Persistent on-disk copy of two memo tables, and the statistics of every
memo table in the process.

Two tables are dicts (lr.MemoDict) so that they can be persisted:
lr.lr_cache (the Littlewood-Richardson coefficients) and pieri._memo
(the values of stable_pieri; pieri_expand does not fill it).  The other
process-wide tables are functools.cache functions, which cannot list or
insert entries: rootsystems.rho_doubled, qkostant._table,
branching._sym_decomposition (the memo of sym_decomposition_finite),
branching._sym_mult (the stable S^k(g) multiplicities),
recurrence._k_finite, recurrence._k_limit, recurrence._morris_step (the
terms of one stable recurrence step per (family, nu, mu_1)),
pieri._pieri_support (the memo of pieri_expand) and
partitions._partitions_in_class (the memo of enumerate_partitions).
table_stats() reports hits, misses and size for all eleven.

Binary format: magic+version header, one length-prefixed record per
entry (repr of the key, signed integer value), and a trailing CRC32 of
everything before it.  A missing file is a cold start; anything
malformed raises CorruptCacheError.
"""

__all__ = ["cache_save", "cache_load", "table_stats", "CorruptCacheError", "DEFAULT_CACHE_ENV"]

import ast
import os
import struct
import zlib

from . import lr, pieri
from .branching import _sym_decomposition, _sym_mult
from .partitions import _partitions_in_class
from .qkostant import _table
from .recurrence import _k_finite, _k_limit, _morris_step
from .rootsystems import rho_doubled

MAGIC = b"QWEYLC01"
DEFAULT_CACHE_ENV = "QWEYL_CACHE"


class CorruptCacheError(Exception):
    """The cache file exists but cannot be trusted."""


def _sections() -> list[tuple[str, dict]]:
    return [("lr", lr.lr_cache), ("pieri", pieri._memo)]


# held here, so that a wrapper bound over a module attribute later does
# not hide cache_info()
_CACHED = (rho_doubled, _table, _sym_decomposition, _sym_mult, _k_finite, _k_limit,
           _morris_step, pieri._pieri_support, _partitions_in_class)


def table_stats() -> dict[str, dict[str, int]]:
    """{table: {"hits", "misses", "size"}} for every process-wide memo table."""
    out = {}
    for fn in _CACHED:
        info = fn.cache_info()
        name = f"{fn.__module__.removeprefix('qweyl.')}.{fn.__qualname__}"
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    for name, table in (("lr.lr_cache", lr.lr_cache), ("pieri._memo", pieri._memo)):
        out[name] = {"hits": table.hits, "misses": table.misses, "size": len(table)}
    return out


def default_cache_path() -> str | None:
    return os.environ.get(DEFAULT_CACHE_ENV)


def cache_save(path: str) -> None:
    """Write both memo tables; compacts any previous file."""
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
