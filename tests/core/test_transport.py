"""Transport layer: frame codec properties, endpoints, TCP loopback.

The frame codec is the trust boundary of the TCP transport: everything
past it is unpickled and acted on, so the codec must refuse — never
misparse — any corrupted or truncated input.  The hypothesis suites
drive that with arbitrary payloads, arbitrary single-byte flips and
arbitrary truncation points.
"""

import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transport import (
    HANDSHAKE_TIMEOUT_S,
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    PROTOCOL_VERSION,
    RECONNECT_GRACE_S,
    PipeEndpoint,
    TcpEndpoint,
    TcpTransport,
    TcpWorkerConnection,
    _reap,
    decode_payload,
    encode_frame,
)

# A pool of picklable, equality-friendly message shapes mirroring what
# the cluster actually ships: tuples of ints, strings, bytes, lists.
message = st.recursive(
    st.one_of(
        st.integers(min_value=-2**40, max_value=2**40),
        st.text(max_size=24),
        st.binary(max_size=64),
        st.none(),
        st.booleans(),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
    ),
    max_leaves=12,
)


class TestFrameCodec:
    @given(message)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, msg):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(msg))
        out = list(decoder.messages())
        assert len(out) == 1
        assert out[0] == msg
        assert len(decoder) == 0

    @given(message, st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_byte_flip_is_refused_or_inert(self, msg, data):
        """Flipping any single byte can never silently change the
        decoded message: either the decoder raises FrameError, or (for
        a length-field flip that makes the frame look longer) it waits
        for bytes that never come and yields nothing."""
        frame = bytearray(encode_frame(msg))
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[pos] ^= 1 << bit
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        try:
            out = list(decoder.messages())
        except FrameError:
            return  # refused loudly: the desired outcome
        # Not refused: the only legal alternative is "incomplete, no
        # message surfaced" (a length flip upward).  A surfaced message
        # equal to the original is also fine in theory (flip in pickle
        # padding) but pickle has no padding — require emptiness.
        assert out == []

    @given(message, st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_yields(self, msg, data):
        frame = encode_frame(msg)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        decoder = FrameDecoder()
        decoder.feed(frame[:cut])
        assert list(decoder.messages()) == []  # waits, never misparses

    @given(st.lists(message, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_stream_reassembly_byte_at_a_time(self, msgs):
        stream = b"".join(encode_frame(m) for m in msgs)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            decoder.feed(stream[i:i + 1])
            out.extend(decoder.messages())
        assert out == msgs

    def test_bad_magic_refused(self):
        frame = bytearray(encode_frame(("task", 1)))
        frame[:4] = b"XXXX"
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(FrameError, match="magic"):
            list(decoder.messages())

    def test_length_cap_refused(self):
        import struct

        header = struct.pack("!4sII", MAGIC, MAX_FRAME_BYTES + 1, 0)
        decoder = FrameDecoder()
        decoder.feed(header)
        with pytest.raises(FrameError, match="cap"):
            list(decoder.messages())

    def test_unpicklable_payload_refused(self):
        import struct
        import zlib

        payload = b"\xde\xad\xbe\xef"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        frame = struct.pack("!4sII", MAGIC, len(payload), crc) + payload
        decoder = FrameDecoder()
        decoder.feed(frame)
        with pytest.raises(FrameError, match="unpicklable"):
            list(decoder.messages())

    def test_header_size_is_stable(self):
        # The wire format is a compatibility surface: magic(4) +
        # length(4) + crc32(4).
        assert HEADER_SIZE == 12
        assert decode_payload(pickle.dumps(42)) == 42


@pytest.fixture
def helper():
    """A thread for the worker side of a loopback test: a worker's
    constructor and redials wait for the coordinator's answer, which
    comes only while the test thread polls the transport."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


def _serve(transport, future, timeout=10.0):
    """Poll *transport* until the helper's *future* is done; returns its
    result and the events polled meanwhile."""
    events = []
    deadline = time.monotonic() + timeout
    while not future.done() and time.monotonic() < deadline:
        events.extend(transport.poll(0.05))
    return future.result(timeout=0), events


class TestTcpLoopback:
    """Coordinator transport and worker connection over real sockets."""

    def _start(self, **kw):
        transport = TcpTransport(host="127.0.0.1", port=0, **kw)
        transport.start(program="PROG", config={"k": 1})
        return transport

    def test_external_join_handshake_ships_program(self, helper):
        transport = self._start()
        try:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                assert conn.program == "PROG"
                assert conn.config == {"k": 1}
                assert conn.wid is not None
                kinds = [ev.kind for ev in events]
                assert "join" in kinds
                ep = events[kinds.index("join")].endpoint
                assert ep.proc is None
                # Worker -> coordinator.
                conn.send(("steal", conn.wid, 4))
                deadline = time.monotonic() + 5.0
                msg = None
                while time.monotonic() < deadline and msg is None:
                    for ev in transport.poll(0.2):
                        if ev.kind == "msg":
                            msg = ev.payload
                assert msg == ("steal", conn.wid, 4)
                # Coordinator -> worker.
                ep.send(("work", [1, 2], None, []))
                assert conn.poll(5.0)
                assert conn.recv() == ("work", [1, 2], None, [])
            finally:
                conn.close()
        finally:
            transport.close()

    def test_version_mismatch_rejected(self, helper):
        transport = self._start()
        try:
            sock = socket.create_connection(transport.address, timeout=5.0)
            try:
                sock.sendall(encode_frame(
                    ("hello", None, PROTOCOL_VERSION + 1)
                ))

                def read_reply():
                    decoder = FrameDecoder()
                    reply = None
                    sock.settimeout(5.0)
                    while reply is None:
                        data = sock.recv(65536)
                        if not data:
                            break
                        decoder.feed(data)
                        for msg in decoder.messages():
                            reply = msg
                            break
                    return reply

                reply, _ = _serve(transport, helper.submit(read_reply))
                assert reply is not None and reply[0] == "reject"
            finally:
                sock.close()
        finally:
            transport.close()

    def test_reconnect_resumes_same_wid(self, helper):
        transport = self._start()
        try:
            conn, _ = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                wid = conn.wid
                # Sever the socket underneath the worker; its next send
                # reconnects with backoff and lands a rewelcome.
                conn._sock.close()
                _, events = _serve(
                    transport, helper.submit(conn.send, ("steal", wid, 2))
                )
                assert conn.wid == wid
                deadline = time.monotonic() + 5.0
                got = None
                while time.monotonic() < deadline and got is None:
                    for ev in events + transport.poll(0.2):
                        if ev.kind == "msg" and ev.payload[0] == "steal":
                            got = ev
                    events = []
                assert got is not None
                assert got.endpoint.wid == wid
                assert transport.stats["reconnects"] >= 1
            finally:
                conn.close()
        finally:
            transport.close()

    def test_heartbeat_timeout_declares_half_open(self, helper):
        # Drop every worker->coordinator frame: the connection looks
        # connected but carries nothing, and poll() must declare it
        # down on the heartbeat deadline.
        transport = self._start(
            heartbeat_timeout=0.5,
            net_hook=lambda d, w, s: (
                [("drop", 0.0)] if d == "w2c" else [("pass", 0.0)]
            ),
        )
        try:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                deadline = time.monotonic() + 5.0
                down = None
                while time.monotonic() < deadline and down is None:
                    for ev in events + transport.poll(0.2):
                        if ev.kind == "down":
                            down = ev
                    events = []
                assert down is not None
                assert down.fail_kind == "timeout"
                assert "half-open" in down.detail
            finally:
                conn.close()
        finally:
            transport.close()

    def test_killed_endpoint_resurfaces_as_join(self, helper):
        transport = self._start()
        try:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                ep = next(ev.endpoint for ev in events if ev.kind == "join")
                wid = ep.wid
                ep.kill()  # sever trust; the remote peer lives on
                # The worker keeps announcing steals (as _worker_main
                # does every second); the failed send triggers its
                # reconnect, and the coordinator — which no longer
                # trusts wid — must surface it as a *new* endpoint.
                stop = threading.Event()

                def announce():
                    while not stop.wait(0.05):
                        try:
                            conn.send(("steal", wid, 1))
                        except (ConnectionError, OSError):
                            pass

                announcing = helper.submit(announce)
                deadline = time.monotonic() + 5.0
                rejoin = None
                try:
                    while time.monotonic() < deadline and rejoin is None:
                        for ev in transport.poll(0.2):
                            if ev.kind == "join":
                                rejoin = ev
                finally:
                    stop.set()
                    _serve(transport, announcing)
                assert rejoin is not None
                assert rejoin.endpoint is not ep
                assert rejoin.endpoint.wid == wid
                assert rejoin.detail == "resurfaced"
            finally:
                conn.close()
        finally:
            transport.close()

    def test_outbox_buffers_across_disconnect(self, helper):
        transport = self._start()
        try:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                ep = next(ev.endpoint for ev in events if ev.kind == "join")
                conn._sock.close()  # transient network blip
                # Poll until the coordinator notices the disconnect —
                # only a detached endpoint buffers to the outbox.
                deadline = time.monotonic() + 5.0
                while ep.attached and time.monotonic() < deadline:
                    transport.poll(0.05)
                assert not ep.attached
                ep.send(("work", ["t"], None, []))  # buffered in outbox
                # The worker's next IO re-establishes the link and the
                # outbox flushes on reattach.

                def next_frame():
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        if conn.poll(0.2):
                            return conn.recv()
                    return None

                got, _ = _serve(transport, helper.submit(next_frame))
                assert got == ("work", ["t"], None, [])
            finally:
                conn.close()
        finally:
            transport.close()

    def test_the_pill_passes_a_hook_that_drops_every_frame(self, helper):
        # The chaos seam models the traffic recovery code exercises, not
        # the transport's own shutdown: a close must not wait on a pill
        # the seam dropped.
        transport = self._start(
            net_hook=lambda d, w, s: (
                [("drop", 0.0)] if d == "c2w" else [("pass", 0.0)]
            ),
        )
        try:
            conn, events = _serve(
                transport, helper.submit(TcpWorkerConnection, transport.address)
            )
            try:
                ep = next(ev.endpoint for ev in events if ev.kind == "join")
                ep.send(("work", ["t"], None, []))  # dropped at the seam
                ep.poison()
                assert conn.poll(5.0)
                assert conn.recv() is None
            finally:
                conn.close()
        finally:
            transport.close()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _dial(address, wid=None):
    """A worker's socket that has sent its hello (it does not wait for
    the answer)."""
    sock = socket.create_connection(address, timeout=5.0)
    sock.sendall(encode_frame(("hello", wid, PROTOCOL_VERSION)))
    return sock


def _until(transport, kind):
    """Poll until an event of *kind* arrives.  Each round waits at most
    0.05 s of real time for socket IO; the fake clock does not move."""
    for _ in range(200):
        for ev in transport.poll(0.05):
            if ev.kind == kind:
                return ev
    raise AssertionError(f"no {kind!r} event")


def _w2c(action):
    """A net hook that applies *action* to every worker->coordinator
    frame."""
    return lambda d, w, s: [action] if d == "w2c" else [("pass", 0.0)]


class TestTcpDeadlines:
    """Every TCP deadline reads the transport's clock: these tests move
    a fake one and call poll(0).  Nothing sleeps."""

    @pytest.fixture
    def clock(self):
        return FakeClock()

    def _start(self, clock, **kw):
        return TcpTransport(clock=clock, **kw).start(program="P", config={})

    def test_dropped_frames_go_down_half_open_past_the_heartbeat_timeout(
            self, clock):
        transport = self._start(clock, heartbeat_timeout=5.0,
                                net_hook=_w2c(("drop", 0.0)))
        sock = _dial(transport.address)
        try:
            wid = _until(transport, "join").endpoint.wid
            sock.sendall(encode_frame(("ping", wid)))
            assert _until(transport, "net_fault").payload == (
                "drop", "w2c", 0)
            clock.now += 5.0
            assert transport.poll(0) == []
            clock.now += 0.1
            (down,) = transport.poll(0)
            assert (down.kind, down.fail_kind) == ("down", "timeout")
            assert "half-open" in down.detail
        finally:
            sock.close()
            transport.close()

    def test_a_detached_endpoint_goes_down_once_the_grace_has_passed(
            self, clock):
        transport = self._start(clock)
        sock = _dial(transport.address)
        try:
            ep = _until(transport, "join").endpoint
            sock.close()
            for _ in range(200):
                if not ep.attached:
                    break
                transport.poll(0.05)
            assert not ep.attached
            clock.now += RECONNECT_GRACE_S
            assert transport.poll(0) == []
            clock.now += 0.1
            (down,) = transport.poll(0)
            assert (down.kind, down.fail_kind) == ("down", "crash")
            assert down.endpoint is ep and "grace expired" in down.detail
        finally:
            transport.close()

    def test_a_socket_without_a_hello_is_dropped_after_the_handshake_timeout(
            self, clock):
        transport = self._start(clock)
        sock = socket.create_connection(transport.address, timeout=5.0)
        try:
            transport.poll(5.0)  # the listener is readable: accept
            clock.now += HANDSHAKE_TIMEOUT_S
            assert transport.poll(0) == []
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recv(1)  # still open
            clock.now += 0.1
            assert transport.poll(0) == []
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # closed by the transport
        finally:
            sock.close()
            transport.close()

    def test_a_delayed_frame_is_delivered_once_its_delay_has_passed(
            self, clock):
        transport = self._start(clock, net_hook=_w2c(("delay", 0.5)))
        sock = _dial(transport.address)
        try:
            wid = _until(transport, "join").endpoint.wid
            sock.sendall(encode_frame(("steal", wid, 0)))
            assert _until(transport, "net_fault").payload == (
                "delay", "w2c", 0)
            clock.now += 0.4
            assert transport.poll(0) == []
            clock.now += 0.2
            (msg,) = transport.poll(0)
            assert (msg.kind, msg.payload) == ("msg", ("steal", wid, 0))
        finally:
            sock.close()
            transport.close()


class _Recorder:
    """A worker process or pipe end that records what ``_reap`` does to
    it.  The process exits once it is joined after a pill, or once it is
    terminated."""

    def __init__(self):
        self.calls = []
        self.alive = True

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.calls.append("terminate")
        self.alive = False

    def join(self, timeout=None):
        self.calls.append("join")
        self.alive = self.alive and "pill" not in self.calls

    def send(self, msg):
        self.calls.append("pill" if msg is None else msg)


class TestReap:
    def test_a_detached_local_tcp_endpoint_is_terminated_at_once(self):
        transport = TcpTransport().start(program="P", config={})
        try:
            proc = _Recorder()
            ep = TcpEndpoint(transport, wid=7, proc=proc)
            assert not ep.attached
            _reap([ep])
            assert proc.calls == ["terminate", "join", "join", "join"]
            assert not ep.outbox
        finally:
            transport.close()

    def test_an_external_detached_endpoint_keeps_its_pill(self):
        transport = TcpTransport().start(program="P", config={})
        try:
            ep = TcpEndpoint(transport, wid=7)
            _reap([ep])
            assert list(ep.outbox) == [encode_frame(None)]
        finally:
            transport.close()

    def test_a_pipe_worker_gets_the_pill(self):
        proc = _Recorder()
        _reap([PipeEndpoint(0, proc, conn=proc)])
        assert proc.calls == ["pill", "join", "join", "join"]


def test_the_transport_starts_no_thread():
    before = set(threading.enumerate())
    transport = TcpTransport().start(program="P", config={})
    sock = _dial(transport.address)
    try:
        assert _until(transport, "join").endpoint.proc is None
        assert set(threading.enumerate()) <= before
    finally:
        sock.close()
        transport.close()


def test_a_redial_closes_the_connection_it_supersedes():
    transport = TcpTransport().start(program="P", config={})
    first = _dial(transport.address)
    try:
        ep = _until(transport, "join").endpoint
        second = _dial(transport.address, wid=ep.wid)
        try:
            for _ in range(200):
                if transport.stats["reconnects"]:
                    break
                transport.poll(0.05)
            assert transport.stats["reconnects"] == 1 and ep.attached
            # The first socket holds its welcome, then the stream's end.
            first.settimeout(5.0)
            decoder = FrameDecoder()
            while data := first.recv(65536):
                decoder.feed(data)
            assert [msg[0] for msg in decoder.messages()] == ["welcome"]
        finally:
            second.close()
    finally:
        first.close()
        transport.close()
