"""Write-once JSON result cache, content-addressed by computation key.

Entries are keyed by (kind, key-dict); the file name is the sha256 of the
canonical JSON encoding, so identical computations land on identical paths.
Writes go to a temp file followed by an atomic rename, which keeps a cache
directory safe under concurrent scanners.  cache_put never rewrites an
existing entry; cached writes a recomputed value over an entry it could not
use, and never rewrites one it could.

Layout: one flat directory per kind, ``<root>/<kind>/<sha256>.json``.  There
is no shard level below the kind: a directory costs an inode allocation, as
a file does, and the file creates are already the cost of a cold scan.  A
shard level of ``<xx>/`` made scan(3) create 363 directories of 1-8 entries
each besides its 1109 entry files.  Entries written under that older layout
are not read; they are recomputed once and stored flat.
"""

from __future__ import annotations

import json
import os

FORMAT = 1


def cache_digest(kind, key):
    # imported on use, as tempfile in _write: a cacheless run never maps OpenSSL
    import hashlib

    canon = json.dumps({"kind": kind, "key": key}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _Key(dict):
    """A key of one kind that carries its digest, taken once.

    cached reads and writes one entry under such a copy of its key, so the
    entry's path is hashed once; it encodes, and compares, as the plain key.
    """

    __slots__ = ("kind", "digest")

    def __init__(self, kind, key):
        super().__init__(key)
        self.kind = kind
        self.digest = cache_digest(kind, key)


def cache_path(root, kind, key):
    h = key.digest if isinstance(key, _Key) and key.kind == kind else cache_digest(kind, key)
    return os.path.join(root, kind, h + ".json")


def cache_get(root, kind, key):
    """The stored payload, or None on miss, stale format, or corruption."""
    path = cache_path(root, kind, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(data, dict) or data.get("format") != FORMAT
            or data.get("kind") != kind or data.get("key") != key):
        return None
    return data.get("payload")


def cache_put(root, kind, key, payload):
    """Store payload unless the entry already exists.  Returns True if written."""
    path = cache_path(root, kind, key)
    if os.path.exists(path):
        return False
    _write(path, kind, key, payload)
    return True


def _write(path, kind, key, payload):
    """Write the entry at path through a temp file and an atomic rename."""
    # dumps encodes in C in one call; dump would feed the file chunk by chunk
    # from the pure-Python iterencode
    text = json.dumps(
        {"format": FORMAT, "kind": kind, "key": key, "payload": payload},
        sort_keys=True, separators=(",", ":"),
    )
    import tempfile

    folder = os.path.dirname(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    except FileNotFoundError:
        # the kind directory is made once, on its first entry
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached(root, kind, key, field, decode, compute):
    """The value stored under payload[field], or compute() stored there.

    decode turns the stored JSON back into a value, and a computed value is
    stored as value.to_json().  A missing entry is a miss, and so is one
    that cache_get rejects or whose payload lacks field or does not decode:
    the value is computed and stored, over such an entry too.  An entry
    cached can use is never rewritten.  The entry's digest is taken once,
    for every read and write of it (_Key).  With root None there is no cache:
    compute() is returned and nothing is read or written.
    """
    if root is None:
        return compute()
    key = _Key(kind, key)
    payload = cache_get(root, kind, key)
    if payload is not None:
        try:
            return decode(payload[field])
        except (LookupError, TypeError, ValueError):
            pass
    value = compute()
    payload = {field: value.to_json()}
    if not cache_put(root, kind, key, payload):
        # cache_put keeps the entry that was there, which could not be used
        _write(cache_path(root, kind, key), kind, key, payload)
    return value
