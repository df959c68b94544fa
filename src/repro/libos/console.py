"""Per-path console capture and scripted console input.

Guest writes to stdout/stderr are part of the *path's* state: two sibling
extensions must each see only their own output (Figure 1 prints one board
per solution path).  A snapshot keeps the console of the path that took
it, and each extension restored from it forks that console at its first
write, the way the address space and the file table copy on write.

Console *input* (:class:`InputSource`) is the opposite: a stream from
outside the search, consumed in execution order across the whole tree.
Which path sees which bytes therefore depends on exploration order —
that is precisely the DT001 nondeterminism the analyzer flags, and the
record/replay recorder (:mod:`repro.core.recorder`) is what makes reads
from it repeatable.
"""

from __future__ import annotations

from repro.core.errors import InputExhaustedError


class InputSource:
    """Scripted stdin for guests that read fd 0.

    ``read(n)`` hands out up to *n* bytes from the script.  Once the
    script runs dry, behaviour follows ``on_exhausted``:

    * ``"eof"`` (default) — return ``b""`` forever, like a closed pipe;
    * ``"error"`` — raise :class:`InputExhaustedError`, for harnesses
      that consider reading past the script a bug in the guest.
    """

    __slots__ = ("_data", "_pos", "on_exhausted")

    def __init__(self, data: bytes = b"", on_exhausted: str = "eof"):
        if on_exhausted not in ("eof", "error"):
            raise ValueError(
                f"on_exhausted must be 'eof' or 'error', got {on_exhausted!r}"
            )
        self._data = bytes(data)
        self._pos = 0
        self.on_exhausted = on_exhausted

    def read(self, length: int) -> bytes:
        if length <= 0:
            return b""
        if self._pos >= len(self._data):
            if self.on_exhausted == "error":
                raise InputExhaustedError(
                    "guest read past the end of its scripted input",
                    consumed=self._pos,
                )
            return b""
        chunk = self._data[self._pos:self._pos + length]
        self._pos += len(chunk)
        return chunk

    @property
    def remaining(self) -> int:
        """Bytes of script not yet consumed."""
        return len(self._data) - self._pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InputSource({self._pos}/{len(self._data)} consumed)"


class Console:
    """An append-only output buffer with cheap forking.

    Forks share the already-written chunks (they are immutable bytes) and
    append independently, mirroring how the COW layers share history and
    diverge from the snapshot point.
    """

    __slots__ = ("_chunks",)

    def __init__(self, _chunks: tuple[bytes, ...] = ()):
        self._chunks: list[bytes] = list(_chunks)

    def write(self, data: bytes) -> int:
        """Append guest output; returns the byte count (like write(2))."""
        if data:
            self._chunks.append(bytes(data))
        return len(data)

    def fork_cow(self) -> "Console":
        """Fork the console at the current output position."""
        return Console(tuple(self._chunks))

    @property
    def data(self) -> bytes:
        """Everything written along this path so far."""
        return b"".join(self._chunks)

    @property
    def text(self) -> str:
        """Output decoded as UTF-8 (replacement on invalid bytes)."""
        return self.data.decode("utf-8", errors="replace")

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Console({len(self)} bytes)"
