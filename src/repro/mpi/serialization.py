"""Zero-copy serialization: encode a message once, share it everywhere.

The substrate's object mode originally paid one ``pickle.dumps`` per
message per destination: a linear broadcast on *P* ranks pickled the same
object *P-1* times at the root, and every relay hop unpickled and
re-pickled what it forwarded.  This module provides the single
abstraction that removes all of that redundant work, and the one place
that knows what a message payload is:

:class:`Blob` — one *immutable* encoded payload, and the only thing an
:class:`~repro.mpi.mailbox.Envelope` ever carries, in object mode and
buffer mode alike.  A blob is created once per logical message and may
then be attached to any number of envelopes:

* **pickle-once fan-out** — the root of a fan-out (broadcast, the bcast
  half of ``gather_bcast`` allgather, ...) encodes the object into one
  blob and every destination envelope shares the same bytes;
* **relay-without-reencode** — a node representative forwards the
  *received* blob verbatim to its node-mates and decodes only if it needs
  the value itself (decode is lazy, paid only on final delivery);
* **array fast path** — a numpy array is "encoded" as a read-only,
  C-contiguous private snapshot (one ``memcpy``, no pickling at all) and
  decoded into a writable private copy on final delivery, so the value
  semantics of distributed memory are preserved end to end.  The
  buffer-mode verbs (``Send``, ``Bcast``, ...) send such blobs and
  receive through :func:`buffer_array`, which copies nothing: they copy
  out of the snapshot into the caller's buffer themselves.

Because a blob is immutable after construction, sharing it across
envelopes, threads, and relay hops is safe by construction: senders that
mutate their object after a send mutate *their* object, receivers that
mutate a decoded value mutate *their private copy*.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from repro.errors import TruncationError

#: Pickle protocol used for every object-mode message.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class Blob:
    """One immutable encoded message payload, shareable across envelopes.

    ``kind`` is ``"pickle"`` (``data`` is ``bytes``) or ``"array"``
    (``data`` is a private, read-only, C-contiguous numpy snapshot).
    ``nbytes`` is the encoded size, used for traffic accounting and
    ``Status.count``.

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
    def encode(cls, obj: Any) -> "Blob":
        """Encode *obj* into a blob.

        A plain numpy array of a non-object dtype is snapshotted (one
        copy, made read-only) instead of pickled — the zero-pickle path
        for numerical payloads.  Everything else, object-dtype arrays and
        ndarray subclasses included, is pickled.  Either way the result
        is a private, immutable encoding: later mutation of *obj* cannot
        affect it.
        """
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            snap = np.array(obj, copy=True, order="C")
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


def buffer_array(blob: Blob, what: str) -> np.ndarray:
    """The array a buffer-mode receive takes from *blob*.

    An array blob hands over its read-only snapshot itself: the receive
    copies out of it into the caller's buffer, so nothing is copied here.
    Any other blob is an object-mode message, which must decode to an
    ndarray; anything else raises :class:`~repro.errors.TruncationError`
    naming the receive (*what*).
    """
    if blob.kind == "array":
        return blob.data
    obj = blob.decode()
    if not isinstance(obj, np.ndarray):
        raise TruncationError(
            f"{what} matched an object-mode message of type {type(obj).__name__}"
        )
    return obj
