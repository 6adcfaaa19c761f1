"""Zero-copy serialization: encode a message once, share it everywhere.

The substrate's object mode originally paid one ``pickle.dumps`` per
message per destination: a linear broadcast on *P* ranks pickled the same
object *P-1* times at the root, and a binomial-tree broadcast unpickled
and re-pickled the payload at every relay hop.  This module provides the
single abstraction that removes all of that redundant work:

:class:`Blob` — one *immutable* encoded payload.  A blob is created once
per logical message and may then be attached to any number of envelopes:

* **pickle-once fan-out** — the root of a fan-out (broadcast, the bcast
  half of ``gather_bcast`` allgather, ...) encodes the object into one
  blob and every destination envelope shares the same bytes;
* **relay-without-reencode** — a tree relay forwards the *received* blob
  verbatim to its children and decodes only if it needs the value itself
  (decode is lazy, paid only on final delivery);
* **array fast path** — a contiguous numpy array is "encoded" as a
  read-only private snapshot (one ``memcpy``, no pickling at all) and
  decoded into a writable private copy on final delivery, so the value
  semantics of distributed memory are preserved end to end.

Because a blob is immutable after construction, sharing it across
envelopes, threads, and relay hops is safe by construction: senders that
mutate their object after a send mutate *their* object, receivers that
mutate a decoded value mutate *their private copy*.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

#: Pickle protocol used for every object-mode message.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class Blob:
    """One immutable encoded message payload, shareable across envelopes.

    ``kind`` is ``"pickle"`` (``data`` is ``bytes``) or ``"array"``
    (``data`` is a private, read-only numpy snapshot).  ``nbytes`` is the
    encoded size, used for traffic accounting and ``Status.count``.

    Construct through :meth:`encode`; decode through :meth:`decode`.
    """

    # __weakref__ lets the shm transport key page-pool caches and
    # release-finalizers off a blob without extending its lifetime.
    __slots__ = ("kind", "data", "nbytes", "__weakref__")

    def __init__(self, kind: str, data, nbytes: int):
        self.kind = kind
        self.data = data
        self.nbytes = nbytes

    @classmethod
    def encode(cls, obj: Any, allow_array: bool = True) -> "Blob":
        """Encode *obj* into a blob.

        With *allow_array* true, a plain numpy array of a non-object dtype
        is snapshotted (one copy, made read-only) instead of pickled — the
        zero-pickle path for numerical payloads.  Everything else is
        pickled.  Either way the result is a private, immutable encoding:
        later mutation of *obj* cannot affect it.
        """
        if allow_array and type(obj) is np.ndarray and not obj.dtype.hasobject:
            snap = np.array(obj, copy=True)  # contiguous private snapshot
            snap.flags.writeable = False
            return cls("array", snap, snap.nbytes)
        data = pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
        return cls("pickle", data, len(data))

    def decode(self) -> Any:
        """Materialise the payload as a private value for final delivery.

        Array blobs return a *writable* copy (receivers own their data);
        pickle blobs unpickle.  Each call returns an independent value, so
        one blob can serve many receivers.
        """
        if self.kind == "array":
            return self.data.copy()
        return pickle.loads(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Blob {self.kind} {self.nbytes}B>"


def payload_nbytes(payload: Any) -> int:
    """Wire size of an envelope payload of any supported type.

    Handles :class:`Blob`, raw pickled ``bytes`` (legacy / tests that
    build envelopes by hand), and numpy arrays (buffer-mode messages).
    """
    if isinstance(payload, Blob):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return 0
