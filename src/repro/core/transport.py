"""Pluggable cluster transports: duplex pipes and framed TCP.

The paper's sharding lever — a task is just its decision prefix, a few
hundred bytes — means tasks migrate over a socket exactly as cheaply as
over a pipe.  This module splits the *transport* concern out of
:mod:`repro.core.cluster` so the coordinator's scheduling loop is written
once against a small interface and the wire underneath is swappable:

* :class:`PipeTransport` — today's behaviour, bit-compatibly: one
  ``multiprocessing.Pipe`` per local worker process, pickle framing done
  by the pipe itself, worker death observed as a closed pipe.
* :class:`TcpTransport` — non-blocking sockets served inside
  :meth:`~TcpTransport.poll` on the coordinator's own thread, with
  every deadline read from the coordinator's clock: length-prefixed
  CRC32-framed pickle messages, per-connection heartbeat deadlines that
  catch *half-open* peers no EOF will ever announce, a reconnect grace
  window so a transient disconnect is not a death, and elastic
  membership: a worker started anywhere with ``run_guest --connect``
  does a ``hello`` handshake and joins the pool mid-run.
* :class:`LocalTransport` — degraded mode: one in-process endpoint
  whose batches run synchronously inside :meth:`~LocalTransport.poll`.

Failure model.  The transport reports, it never decides: every observed
anomaly surfaces as a :class:`TransportEvent` (``kind="down"``) and the
engine's supervisor applies the same blame/retry/poison policy whichever
wire delivered it.  Crucially, a TCP endpoint reported down may still be
*alive and computing* (partition, stalled network) — which is why the
engine layers lease fencing (:mod:`repro.core.lease`) on top: transports
only ever guarantee "no more messages from this endpoint will be
*trusted*", not "the process stopped".

Framing.  ``MAGIC | length | crc32 | pickle-payload`` with both length
and checksum validated before unpickling; a flipped bit or truncated
write yields :class:`FrameError`, never a misparsed message.  The
worker side answers frame corruption by dropping the connection and
re-handshaking — the stream is unrecoverable past a bad header.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import select
import socket
import struct
import threading
import time
import zlib
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing.process import BaseProcess
from types import SimpleNamespace
from typing import Any, Callable, Optional

#: Version of the hello/welcome handshake; bumped on incompatible
#: protocol changes so mixed deployments fail loudly at join time.
PROTOCOL_VERSION = 1

#: Frame header: magic, payload length, payload CRC32.
MAGIC = b"RPF1"
_HEADER = struct.Struct("!4sII")
HEADER_SIZE = _HEADER.size

#: Refuse frames claiming more than this many payload bytes: a flipped
#: bit in the length field must not make the decoder buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: TCP timings, in seconds.  A worker whose connection was lost has
#: ``RECONNECT_GRACE_S`` to redial under its worker id; either side of a
#: new connection waits ``HANDSHAKE_TIMEOUT_S`` for the other's
#: handshake frame (a worker's connect too); a coordinator send that the
#: peer does not take within ``SEND_TIMEOUT_S`` loses the connection;
#: workers ping every ``PING_INTERVAL_S``, inside the heartbeat timeout.
RECONNECT_GRACE_S = 2.0
HANDSHAKE_TIMEOUT_S = 5.0
SEND_TIMEOUT_S = 5.0
PING_INTERVAL_S = 1.0
#: A worker redials ``RECONNECT_ATTEMPTS`` times after losing its
#: connection, waiting ``BACKOFF_BASE_S * 2**(k-1)``, at most
#: ``BACKOFF_MAX_S``, before the k-th.
RECONNECT_ATTEMPTS = 6
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 1.0


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class FrameError(TransportError):
    """A frame failed validation (bad magic, length or checksum)."""


class EndpointDown(TransportError):
    """Attempted to use an endpoint the transport already gave up on."""


def encode_frame(obj: Any) -> bytes:
    """One message as bytes: header (magic, length, CRC32) + pickle."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, len(payload), crc) + payload


def decode_payload(payload: bytes) -> Any:
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"unpicklable payload: {exc}") from exc


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed chunks as they arrive; :meth:`frames` yields each complete,
    checksum-verified payload.  Any corruption — wrong magic, oversized
    length, CRC mismatch — raises :class:`FrameError`; a truncated tail
    simply waits for more bytes (and is refused by the connection
    teardown if more bytes never come).  No partially validated frame is
    ever surfaced.
    """

    def __init__(self):
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def frames(self):
        """Yield every complete payload currently buffered."""
        while True:
            if len(self._buf) < HEADER_SIZE:
                return
            magic, length, crc = _HEADER.unpack_from(self._buf, 0)
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {magic!r}")
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"frame length {length} exceeds cap")
            if len(self._buf) < HEADER_SIZE + length:
                return
            payload = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise FrameError("frame checksum mismatch")
            del self._buf[:HEADER_SIZE + length]
            yield payload

    def messages(self):
        """Yield decoded objects (see :meth:`frames`)."""
        for payload in self.frames():
            yield decode_payload(payload)


class TransportEvent:
    """One observation surfaced by :meth:`Transport.poll`.

    ``kind`` is ``"msg"`` (payload holds the worker's message),
    ``"down"`` (the endpoint is no longer trusted; ``fail_kind`` is
    ``"crash"`` or ``"timeout"``, ``protocol_error`` marks undecodable
    traffic), ``"join"`` (an external worker completed the handshake;
    the endpoint is fresh and idle) or ``"net_fault"`` (the TCP chaos
    seam acted on one of the endpoint's frames; payload is
    ``(action, direction, seq)``).
    """

    __slots__ = ("kind", "endpoint", "payload", "fail_kind", "detail",
                 "protocol_error")

    def __init__(self, kind: str, endpoint, payload: Any = None,
                 fail_kind: str = "crash", detail: str = "",
                 protocol_error: bool = False):
        self.kind = kind
        self.endpoint = endpoint
        self.payload = payload
        self.fail_kind = fail_kind
        self.detail = detail
        self.protocol_error = protocol_error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wid = getattr(self.endpoint, "wid", None)
        return f"TransportEvent({self.kind!r}, wid={wid}, {self.detail!r})"


# ----------------------------------------------------------------------
# Pipe transport (local worker processes over multiprocessing pipes)
# ----------------------------------------------------------------------


class PipeEndpoint:
    """A local worker process reached over a duplex mp pipe."""

    #: A pipe never detaches: the pill reaches the child's end.
    attached = True

    def __init__(self, wid: int, proc, conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.closed = False

    def send(self, msg: Any) -> None:
        if self.closed:
            raise EndpointDown(f"worker {self.wid} endpoint closed")
        try:
            self.conn.send(msg)
        except (OSError, ValueError) as exc:
            raise EndpointDown(str(exc)) from exc

    def alive(self) -> bool:
        return not self.closed and self.proc.is_alive()

    def poison(self) -> None:
        """Best-effort graceful-stop request (the ``None`` pill)."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass

    def kill(self) -> None:
        """Hard-stop: close the pipe and terminate the process (the
        transport's close reaps it)."""
        self.close()
        if self.proc.is_alive():
            self.proc.terminate()

    def close(self) -> None:
        self.closed = True
        try:
            self.conn.close()
        except OSError:
            pass


class PipeTransport:
    """Today's duplex-pipe protocol behind the Transport interface.

    Wire behaviour is bit-compatible with the pre-split engine: one
    ``multiprocessing.Pipe(duplex=True)`` per worker, the child owning
    its end, worker death surfacing as EOF on the coordinator's end.
    """

    def __init__(self, ctx, worker_main: Callable, start_wid: int = 0):
        self._ctx = ctx
        self._worker_main = worker_main
        self._next_wid = start_wid
        self._endpoints: list[PipeEndpoint] = []
        self._program = None
        self._config = None

    @property
    def address(self):
        return None

    def start(self, program, config) -> "PipeTransport":
        self._program = program
        self._config = config
        return self

    def spawn(self) -> PipeEndpoint:
        wid = self._next_wid
        self._next_wid += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A forked child inherits the coordinator's end of its own pipe
        # and of every live worker's.  It must close them: while any
        # copy stays open, no worker sees EOF when the coordinator dies.
        inherited = (
            [parent_conn] + [ep.conn for ep in self._endpoints if not ep.closed]
            if self._ctx.get_start_method() == "fork" else []
        )
        proc = self._ctx.Process(
            target=_close_then_run,
            args=(inherited, self._worker_main, wid, child_conn,
                  self._program, self._config),
            daemon=True,
            name=f"repro-cluster-w{wid}",
        )
        proc.start()
        child_conn.close()  # the child owns its end now
        ep = PipeEndpoint(wid, proc, parent_conn)
        self._endpoints.append(ep)
        return ep

    def poll(self, timeout: float) -> list[TransportEvent]:
        live = [ep for ep in self._endpoints if not ep.closed]
        if not live:
            if timeout > 0:
                time.sleep(timeout)
            return []
        waitmap = {ep.conn: ep for ep in live}
        ready = mp_connection.wait(list(waitmap), timeout=timeout)
        events: list[TransportEvent] = []
        for conn in ready:
            ep = waitmap[conn]
            if ep.closed:
                continue  # engine killed it earlier this sweep
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                events.append(TransportEvent(
                    "down", ep, fail_kind="crash",
                    detail="result pipe closed",
                ))
            except Exception as exc:
                # Garbage on the wire (chaos injection, or a corrupted
                # worker): the stream framing can no longer be trusted.
                events.append(TransportEvent(
                    "down", ep, fail_kind="crash",
                    detail=("undecodable result message: "
                            f"{type(exc).__name__}: {exc}"),
                    protocol_error=True,
                ))
            else:
                events.append(TransportEvent("msg", ep, payload=msg))
        return events

    def close(self) -> None:
        """Stop and reap every worker this transport spawned."""
        _reap(self._endpoints)
        for ep in self._endpoints:
            ep.close()
        self._endpoints.clear()


def _close_then_run(inherited, worker_main: Callable, *args) -> None:
    """Pipe worker entry: close the *inherited* coordinator-side pipe
    ends, then run *worker_main*."""
    for conn in inherited:
        conn.close()
    worker_main(*args)


def _reap(endpoints, grace: float = 2.0) -> None:
    """Stop every worker behind *endpoints*: poison -> terminate -> kill.

    Trusted endpoints get the poison pill.  The processes of endpoints
    the engine killed (crashed, stalled, busy at shutdown) are
    terminated at once, and so are those of local TCP endpoints detached
    at close: their pill would wait in an outbox that no later poll
    flushes.  Each stage shares one deadline across the pool, and the
    final join after SIGKILL reaps every local child.  An external
    worker has no local process: the pill is all it gets.
    """
    procs = []
    for ep in endpoints:
        if not ep.closed and (ep.attached or ep.proc is None):
            ep.poison()
        elif ep.proc is not None and ep.proc.is_alive():
            ep.proc.terminate()
        if ep.proc is not None:
            procs.append(ep.proc)
    for escalate in (BaseProcess.terminate, BaseProcess.kill):
        deadline = time.monotonic() + grace
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                escalate(proc)
    for proc in procs:
        proc.join()  # SIGKILL cannot be caught: this join terminates


# ----------------------------------------------------------------------
# Local transport (degraded mode: the coordinator serves its own tasks)
# ----------------------------------------------------------------------


class LocalTransport:
    """One in-process endpoint behind the Transport interface: the
    engine's degraded mode.  The transport is its own, only, endpoint.

    Each ``work`` message sent to it is served by ``serve(conn, work)``,
    which replies through ``conn.send`` exactly as a worker does over
    its pipe.  :meth:`poll` serves what was sent, synchronously, and
    delivers the replies, each batch followed by the endpoint's next
    ``steal``, which names the highest fence of the batch just served.
    An exception raised while serving propagates.
    """

    wid = -1

    def __init__(self, serve: Callable):
        self._serve = serve
        self.closed = False
        self._work: deque = deque()
        self._replies: list = []

    def start(self, program, config) -> "LocalTransport":
        return self

    def spawn(self) -> "LocalTransport":
        self._replies.append(("steal", self.wid, 0))
        return self

    def send(self, msg: Any) -> None:
        if self.closed:
            raise EndpointDown("in-process endpoint closed")
        self._work.append(msg)

    def alive(self) -> bool:
        return not self.closed

    def kill(self) -> None:
        self.closed = True

    close = kill

    def poll(self, timeout: float) -> list[TransportEvent]:
        conn = SimpleNamespace(send=self._replies.append)
        while self._work and not self.closed:
            work = self._work.popleft()
            self._serve(conn, work)
            self._replies.append(
                ("steal", self.wid, max(task.fence for task in work[1]))
            )
        replies, self._replies = self._replies, []
        return [TransportEvent("msg", self, payload=msg) for msg in replies]


# ----------------------------------------------------------------------
# TCP transport (framed sockets, elastic membership)
# ----------------------------------------------------------------------


class TcpEndpoint:
    """A worker reached over a framed TCP connection.

    May be *local* (spawned by the coordinator, ``proc`` set) or
    *external* (joined via the hello handshake, ``proc`` None).  A local
    endpoint's :meth:`kill` only severs trust — it closes the connection
    and stops accepting the worker's messages but defers process
    termination to transport close: a partitioned worker cannot be
    reached by SIGTERM either, and deferring makes the local transport
    faithfully model that (the resurface-with-stale-fence path is
    exercised rather than masked).
    """

    def __init__(self, transport: "TcpTransport", wid: int, proc=None):
        self._transport = transport
        self.wid = wid
        self.proc = proc
        self.closed = False
        #: The connection (None while detached) and its frame decoder.
        self.sock: Optional[socket.socket] = None
        self.decoder: Optional[FrameDecoder] = None
        #: Clock readings: when the last connection was lost (None
        #: before any was), when the last frame was delivered.
        self.detached_at: Optional[float] = None
        self.last_rx = 0.0
        self.down_emitted = False
        #: Frames sent while detached, flushed on reattach.
        self.outbox: deque[bytes] = deque()
        self.seq_in = 0
        self.seq_out = 0
        self.held_in: Optional[Any] = None
        self.held_out: Optional[bytes] = None

    @property
    def attached(self) -> bool:
        return self.sock is not None

    def send(self, msg: Any) -> None:
        if self.closed:
            raise EndpointDown(f"worker {self.wid} endpoint closed")
        self._transport._send_frame(self, encode_frame(msg))

    def alive(self) -> bool:
        if self.closed or self.down_emitted:
            return False
        if self.proc is not None and not self.proc.is_alive() \
                and not self.attached:
            return False
        return True

    def poison(self) -> None:
        """Send the pill past the chaos seam (which models the traffic
        recovery exercises, not shutdown), so a close never waits on a
        dropped, held or delayed pill; detached, it waits in the
        outbox."""
        self._transport._write_now(self, encode_frame(None))

    def kill(self) -> None:
        """Sever trust: close the connection, keep the process (if any)
        for transport-close reaping — see the class docstring."""
        self.closed = True
        self._transport._detach(self)


class TcpTransport:
    """Framed sockets behind the Transport interface, served by
    :meth:`poll` on the caller's thread.

    One :meth:`poll` waits once for socket IO, then accepts, reads every
    ready socket, answers hellos, delivers chaos-delayed frames that are
    due, and only then checks the deadlines, so a caller that was busy
    never calls a peer silent whose frames were waiting in its socket.
    Every deadline reads the injected ``clock``.  Sends write straight
    to the socket; one that cannot finish within :data:`SEND_TIMEOUT_S`
    counts as a disconnect.  Liveness per connection:

    * every delivered frame refreshes ``last_rx``; workers ping every
      :data:`PING_INTERVAL_S` even while computing, so a connection
      with no traffic for ``heartbeat_timeout`` seconds is *half-open*
      → ``down``;
    * a lost connection opens a :data:`RECONNECT_GRACE_S` window — the
      worker side reconnects with exponential backoff and resumes under
      the same wid; only an expired window surfaces ``down``;
    * an accepted socket that sends no hello within
      :data:`HANDSHAKE_TIMEOUT_S` is closed;
    * an unknown (or previously failed) wid completing the handshake
      surfaces ``join`` — elastic membership, also how a partitioned
      worker resurfaces (as a *new* endpoint whose stale results the
      engine fences off).

    ``net_hook`` is the chaos seam: called per frame per direction, it
    returns actions (drop/delay/duplicate/reorder) that the transport
    applies before delivery — see
    :meth:`repro.chaos.FaultPlan.net_hook` — and :meth:`poll` reports
    each applied fault as a ``net_fault`` event.
    """

    def __init__(self, ctx=None, host: str = "127.0.0.1", port: int = 0,
                 *, worker_entry: Optional[Callable] = None,
                 net_hook: Optional[Callable] = None,
                 heartbeat_timeout: float = 5.0,
                 start_wid: int = 0,
                 clock: Callable[[], float] = time.monotonic):
        self._ctx = ctx
        self._host = host
        self._port = port
        self._worker_entry = worker_entry
        self._net_hook = net_hook
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._next_wid = start_wid
        self._program = None
        self._config = None
        self._listener: Optional[socket.socket] = None
        #: Accepted sockets that have not said hello yet: their decoder
        #: and handshake deadline.
        self._handshakes: dict[socket.socket, tuple[FrameDecoder, float]] = {}
        #: Chaos-delayed deliveries, a heap of (due, seq, fn, args).
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._events: list[TransportEvent] = []
        #: wid -> most recent endpoint for it.  Every local process ever
        #: spawned is behind one of these, and is reaped at close.
        self._by_wid: dict[int, TcpEndpoint] = {}
        self.address: Optional[tuple] = None
        self.stats = {"reconnects": 0, "joins": 0, "frames_in": 0,
                      "frames_out": 0, "net_faults": 0}

    # -- lifecycle -----------------------------------------------------

    def start(self, program, config) -> "TcpTransport":
        self._program = program
        self._config = config
        self._listener = socket.create_server((self._host, self._port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        return self

    def spawn(self) -> TcpEndpoint:
        """Start a local worker process that dials back over TCP."""
        if self._worker_entry is None:
            raise TransportError("transport has no local worker entry")
        wid = self._alloc_wid()
        ep = self._by_wid[wid] = TcpEndpoint(self, wid)
        proc = self._ctx.Process(
            target=self._worker_entry,
            args=(self.address, wid),
            daemon=True,
            name=f"repro-cluster-w{wid}",
        )
        proc.start()
        ep.proc = proc
        return ep

    def _alloc_wid(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        return wid

    def poll(self, timeout: float) -> list[TransportEvent]:
        if self._timers:
            timeout = min(timeout, self._timers[0][0] - self._clock())
        conns = {ep.sock: ep for ep in self._by_wid.values()
                 if ep.sock is not None}
        ready = mp_connection.wait(
            [self._listener, *self._handshakes, *conns], max(0.0, timeout),
        )
        for sock in ready:
            if sock is self._listener:
                self._accept()
            elif sock in self._handshakes:
                self._handshake(sock)
            elif conns[sock].sock is sock:  # not superseded this sweep
                self._read(conns[sock])
        now = self._clock()
        while self._timers and self._timers[0][0] <= now:
            _, _, fn, args = heapq.heappop(self._timers)
            fn(*args)
        self._check_deadlines(now)
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        """Stop and reap every local worker (including those whose
        endpoints were killed mid-run and deliberately left running to
        model partitions), then close every socket."""
        if self._listener is None:
            return
        _reap(list(self._by_wid.values()))
        self._listener.close()
        self._listener = None
        for sock in self._handshakes:
            sock.close()
        self._handshakes.clear()
        for ep in self._by_wid.values():
            self._detach(ep)

    # -- connections ---------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError: no connection left
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handshakes[sock] = (
                FrameDecoder(), self._clock() + HANDSHAKE_TIMEOUT_S,
            )
            self._handshake(sock)  # the hello may be here already

    def _handshake(self, sock: socket.socket) -> None:
        """Read *sock*'s hello, if it has come, and answer it."""
        decoder, _ = self._handshakes[sock]
        open_ = _recv_into(sock, decoder)
        try:
            hello = next(decoder.messages(), None)
        except FrameError:
            hello, open_ = None, False
        if hello is None and open_:
            return
        del self._handshakes[sock]
        if (not isinstance(hello, tuple) or len(hello) != 3
                or hello[0] != "hello"):
            sock.close()
            return
        _, claimed_wid, version = hello
        if version != PROTOCOL_VERSION:
            try:
                _send_all(sock, encode_frame(
                    ("reject", f"protocol version {version} != "
                               f"{PROTOCOL_VERSION}")
                ))
            except OSError:
                pass
            sock.close()
            return

        ep = self._by_wid.get(claimed_wid) if claimed_wid is not None else None
        if ep is None or ep.closed or ep.down_emitted:
            # External join — or a presumed-dead worker resurfacing
            # after a partition.  Either way it enters as a *new*
            # endpoint: the engine grants it fresh leases and fences
            # off anything it still believes it owns.
            wid = claimed_wid if claimed_wid is not None else self._alloc_wid()
            old = self._by_wid.get(wid)
            ep = self._by_wid[wid] = TcpEndpoint(
                self, wid, proc=old.proc if old else None,
            )
            self.stats["joins"] += 1
            self._events.append(TransportEvent(
                "join", ep,
                detail="resurfaced" if old is not None else "external join",
            ))
        self._detach(ep)  # a redial supersedes the old connection
        if ep.detached_at is None:
            greeting = ("welcome", ep.wid, self._program, self._config)
        else:
            self.stats["reconnects"] += 1
            greeting = ("rewelcome", ep.wid)
        ep.sock, ep.decoder = sock, decoder
        ep.last_rx = self._clock()
        frames = [encode_frame(greeting), *ep.outbox]
        ep.outbox.clear()
        self._write(ep, b"".join(frames))

    def _read(self, ep: TcpEndpoint) -> None:
        open_ = _recv_into(ep.sock, ep.decoder)
        try:
            for msg in ep.decoder.messages():
                self._deliver(ep, msg)
        except FrameError as exc:
            self._emit_down(ep, "crash", f"undecodable frame: {exc}",
                            protocol_error=True)
            return
        if not open_:
            # A clean disconnect opens the reconnect grace window
            # instead of declaring death immediately.
            self._detach(ep)

    def _detach(self, ep: TcpEndpoint) -> None:
        if ep.sock is not None:
            ep.sock.close()
            ep.sock = None
            ep.detached_at = self._clock()

    def _emit_down(self, ep: TcpEndpoint, fail_kind: str, detail: str,
                   protocol_error: bool = False) -> None:
        ep.down_emitted = True
        self._detach(ep)
        self._events.append(TransportEvent(
            "down", ep, fail_kind=fail_kind, detail=detail,
            protocol_error=protocol_error,
        ))

    def _check_deadlines(self, now: float) -> None:
        for sock, (_, deadline) in list(self._handshakes.items()):
            if now > deadline:
                del self._handshakes[sock]
                sock.close()
        for ep in self._by_wid.values():
            if ep.closed or ep.down_emitted:
                continue
            if ep.attached:
                if now - ep.last_rx > self.heartbeat_timeout:
                    self._emit_down(
                        ep, "timeout",
                        f"no traffic for {self.heartbeat_timeout:.1f}s "
                        "(half-open connection)",
                    )
            elif ep.detached_at is not None:
                if now - ep.detached_at > RECONNECT_GRACE_S:
                    self._emit_down(
                        ep, "crash",
                        "connection lost (reconnect grace expired)",
                    )
            elif ep.proc is not None and not ep.proc.is_alive():
                self._emit_down(
                    ep, "crash", "worker died before first handshake",
                )

    # -- frames, through the chaos seam ----------------------------------

    def _later(self, delay: float, fn: Callable, *args) -> None:
        heapq.heappush(self._timers, (self._clock() + delay,
                                      next(self._timer_seq), fn, args))

    def _deliver(self, ep: TcpEndpoint, msg: Any) -> None:
        """Apply inbound chaos, refresh liveness, enqueue the message."""
        seq = ep.seq_in
        ep.seq_in += 1
        for action, delay in self._decide("w2c", ep, seq):
            if action == "drop":
                continue
            if action == "delay":
                self._later(delay, self._deliver_now, ep, msg)
                continue
            if action == "hold":
                # Reorder: park this message; it rides out behind the
                # next one that passes.
                prev, ep.held_in = ep.held_in, msg
                if prev is not None:
                    self._deliver_now(ep, prev)
                continue
            # "pass" delivers; "dup" is an extra delivery of the same
            # message (the hook emits it alongside a pass).
            self._deliver_now(ep, msg)
            if action == "pass" and ep.held_in is not None:
                held, ep.held_in = ep.held_in, None
                self._deliver_now(ep, held)

    def _deliver_now(self, ep: TcpEndpoint, msg: Any) -> None:
        if ep.closed or ep.down_emitted:
            return
        ep.last_rx = self._clock()
        self.stats["frames_in"] += 1
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "ping":
            return
        self._events.append(TransportEvent("msg", ep, payload=msg))

    def _decide(self, direction: str, ep: TcpEndpoint, seq: int):
        if self._net_hook is None:
            return (("pass", 0.0),)
        try:
            actions = self._net_hook(direction, ep.wid, seq)
        except Exception:  # pragma: no cover - chaos hook bug
            return (("pass", 0.0),)
        for action, _ in actions or ():
            if action != "pass":
                self.stats["net_faults"] += 1
                self._events.append(TransportEvent(
                    "net_fault", ep, payload=(action, direction, seq),
                ))
        return actions or (("pass", 0.0),)

    def _send_frame(self, ep: TcpEndpoint, frame: bytes) -> None:
        seq = ep.seq_out
        ep.seq_out += 1
        for action, delay in self._decide("c2w", ep, seq):
            if action == "drop":
                continue
            if action == "delay":
                self._later(delay, self._write_now, ep, frame)
                continue
            if action == "hold":
                prev, ep.held_out = ep.held_out, frame
                if prev is not None:
                    self._write_now(ep, prev)
                continue
            self._write_now(ep, frame)
            if action == "pass" and ep.held_out is not None:
                held, ep.held_out = ep.held_out, None
                self._write_now(ep, held)

    def _write_now(self, ep: TcpEndpoint, frame: bytes) -> None:
        if ep.closed:
            return
        self.stats["frames_out"] += 1
        self._write(ep, frame)

    def _write(self, ep: TcpEndpoint, data: bytes) -> None:
        """Write *data* to *ep*'s connection; keep it in the outbox for
        the next attach when there is none or the write fails."""
        if ep.sock is not None:
            try:
                _send_all(ep.sock, data)
                return
            except OSError:
                self._detach(ep)
        ep.outbox.append(data)


def _recv_into(sock: socket.socket, decoder: FrameDecoder) -> bool:
    """Feed every byte waiting on non-blocking *sock* to *decoder*;
    False once the peer has closed."""
    while True:
        try:
            data = sock.recv(65536)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not data:
            return False
        decoder.feed(data)


def _send_all(sock: socket.socket, data: bytes) -> None:
    """Write all of *data* to non-blocking *sock*, waiting at most
    :data:`SEND_TIMEOUT_S` (``TimeoutError``, an ``OSError``, past it)."""
    sock.settimeout(SEND_TIMEOUT_S)
    try:
        sock.sendall(data)
    finally:
        sock.setblocking(False)


# ----------------------------------------------------------------------
# Worker-side TCP connection (sync, mp.Connection-compatible surface)
# ----------------------------------------------------------------------


class TcpWorkerConnection:
    """The worker's side of a framed TCP link to the coordinator.

    Exposes the four methods ``_worker_main`` (and the heartbeat
    emitter) use on a multiprocessing connection — ``send``, ``recv``,
    ``poll``, ``close`` — so the worker body is transport-agnostic.
    Adds what a socket needs that a pipe never did: a handshake that
    fetches the program and config, reconnect with exponential backoff
    under the same wid, and a daemon ping thread so long CPU-bound
    explores don't trip the coordinator's heartbeat deadline.  The
    constructor returns once the coordinator has answered the hello,
    which it does inside its transport's ``poll``.
    """

    def __init__(self, address, wid: Optional[int] = None):
        self.address = tuple(address)
        self.wid = wid
        self.program = None
        self.config = None
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._inbox: deque = deque()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._connect(initial=True)
        self._pinger = threading.Thread(
            target=self._ping_loop, name="repro-tcp-ping", daemon=True,
        )
        self._pinger.start()

    # -- connection management -----------------------------------------

    def _connect(self, initial: bool = False) -> None:
        """(Re)establish the socket and complete the handshake."""
        with self._lock:
            last_exc: Optional[Exception] = None
            attempts = 1 if initial else RECONNECT_ATTEMPTS
            for attempt in range(attempts):
                if attempt:
                    time.sleep(min(BACKOFF_BASE_S * (2 ** (attempt - 1)),
                                   BACKOFF_MAX_S))
                try:
                    sock = socket.create_connection(
                        self.address, timeout=HANDSHAKE_TIMEOUT_S,
                    )
                    sock.settimeout(None)
                    sock.sendall(encode_frame(
                        ("hello", self.wid, PROTOCOL_VERSION)
                    ))
                    decoder = FrameDecoder()
                    reply = self._read_handshake(sock, decoder)
                except (OSError, FrameError, ConnectionError) as exc:
                    last_exc = exc
                    continue
                if reply[0] == "reject":
                    raise ConnectionError(f"coordinator rejected: {reply[1]}")
                if reply[0] == "welcome":
                    self.wid = reply[1]
                    self.program = reply[2]
                    self.config = reply[3]
                elif reply[0] != "rewelcome":
                    last_exc = FrameError(f"bad handshake reply {reply!r}")
                    continue
                old = self._sock
                self._sock = sock
                self._decoder = decoder
                if old is not None:
                    try:
                        old.close()
                    except OSError:
                        pass
                return
            raise ConnectionError(
                f"cannot reach coordinator at {self.address}: {last_exc}"
            )

    def _read_handshake(self, sock, decoder: FrameDecoder):
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        while True:
            for msg in decoder.messages():
                return msg
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConnectionError("handshake timed out")
            sock.settimeout(remaining)
            try:
                data = sock.recv(65536)
            finally:
                sock.settimeout(None)
            if not data:
                raise ConnectionError("coordinator closed during handshake")
            decoder.feed(data)

    # -- mp.Connection-compatible surface ------------------------------

    def send(self, msg: Any) -> None:
        frame = encode_frame(msg)
        with self._lock:
            try:
                self._sock.sendall(frame)
            except OSError:
                self._connect()  # raises ConnectionError when hopeless
                self._sock.sendall(frame)

    def send_bytes(self, data: bytes) -> None:
        """Write raw, unframed bytes into the stream (chaos: garbage
        injection).  The coordinator's frame decoder refuses the
        stream — bad magic or checksum — and declares this worker a
        protocol error, the TCP analog of writing junk into the result
        pipe."""
        with self._lock:
            try:
                self._sock.sendall(data)
            except OSError:
                pass  # the severed link is its own kind of garbage

    def poll(self, timeout: float = 0.0) -> bool:
        if self._inbox:
            return True
        if self._pump(blocking=False):
            return True
        sock = self._sock
        try:
            ready, _, _ = select.select([sock], [], [], max(0.0, timeout))
        except (OSError, ValueError):
            return True  # force recv() to notice and reconnect
        return bool(ready)

    def recv(self) -> Any:
        while True:
            if self._inbox:
                return self._inbox.popleft()
            self._pump(blocking=True)

    def _pump(self, blocking: bool) -> bool:
        """Read socket bytes into the inbox; True if anything arrived."""
        # Frames that came in behind a handshake reply (an outbox flushed
        # on reattach) are already buffered: deliver them first.
        if len(self._decoder) and self._unpack(b""):
            return True
        sock = self._sock
        try:
            if not blocking:
                sock.setblocking(False)
            try:
                data = sock.recv(65536)
            finally:
                if not blocking:
                    sock.setblocking(True)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            data = b""
        if not data:
            if not blocking:
                return False
            try:
                self._connect()
            except ConnectionError:
                raise EOFError("coordinator gone") from None
            return False
        return self._unpack(data)

    def _unpack(self, data: bytes) -> bool:
        """Feed *data* to the decoder and queue every complete message."""
        try:
            self._decoder.feed(data)
            got = False
            for msg in self._decoder.messages():
                if isinstance(msg, tuple) and msg and msg[0] in (
                    "rewelcome", "welcome",
                ):
                    continue
                self._inbox.append(msg)
                got = True
            return got
        except FrameError:
            # The stream is unrecoverable past a bad frame: drop the
            # connection and re-handshake on a clean one.
            try:
                self._connect()
            except ConnectionError:
                raise EOFError("coordinator gone") from None
            return False

    def close(self) -> None:
        self._stop.set()
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    # -- liveness ------------------------------------------------------

    def _ping_loop(self) -> None:
        while not self._stop.wait(PING_INTERVAL_S):
            with self._lock:
                sock = self._sock
                if sock is None:
                    return
                try:
                    sock.sendall(encode_frame(("ping", self.wid)))
                except OSError:
                    pass  # the main thread will reconnect on its next IO
