"""Write-once JSON result cache, content-addressed by computation key.

Entries are keyed by (kind, key-dict); the file name is the sha256 of the
canonical JSON encoding, so identical computations land on identical paths.
Writes go to a temp file followed by an atomic rename, which keeps a cache
directory safe under concurrent scanners.  Existing entries are never
rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

FORMAT = 1


def cache_digest(kind, key):
    canon = json.dumps({"kind": kind, "key": key}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def cache_path(root, kind, key):
    h = cache_digest(kind, key)
    return os.path.join(root, kind, h[:2], h + ".json")


def cache_get(root, kind, key):
    """The stored payload, or None on miss, stale format, or corruption."""
    path = cache_path(root, kind, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if data.get("format") != FORMAT or data.get("kind") != kind or data.get("key") != key:
        return None
    return data.get("payload")


def cache_put(root, kind, key, payload):
    """Store payload unless the entry already exists.  Returns True if written."""
    path = cache_path(root, kind, key)
    if os.path.exists(path):
        return False
    # dumps encodes in C in one call; dump would feed the file chunk by chunk
    # from the pure-Python iterencode
    text = json.dumps(
        {"format": FORMAT, "kind": kind, "key": key, "payload": payload},
        sort_keys=True, separators=(",", ":"),
    )
    shard = os.path.dirname(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
    except FileNotFoundError:
        # the shard directory is made once, on its first entry
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return True


def cached(root, kind, key, field, decode, compute):
    """The value stored under payload[field], or compute() stored there.

    decode turns the stored JSON back into a value, and a computed value is
    stored as value.to_json().  With root None there is no cache: compute()
    is returned and nothing is read or written.
    """
    if root is None:
        return compute()
    payload = cache_get(root, kind, key)
    if payload is not None:
        return decode(payload[field])
    value = compute()
    cache_put(root, kind, key, {field: value.to_json()})
    return value
