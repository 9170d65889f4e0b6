"""Asyncio session layer: frame loop, dispatch, disconnect watching.

Each TCP connection is one *session*: a frame loop reading length-prefixed
JSON requests (:mod:`repro.server.protocol`) and dispatching them to the
:class:`~repro.server.core.QueryServer` on its executor pool. The event
loop itself never executes a query — it only parses frames, checks
admission, and shuttles results — so one slow query cannot stall other
sessions' protocol handling.

**Disconnect watching.** While a query runs on an executor thread, the
session watches its socket: a client that hangs up mid-query trips the
query's cancel token, and the next evaluator checkpoint aborts the work —
an abandoned query must not keep burning a pool slot. The watcher reads
one byte; if the client was actually pipelining its next request, the
byte is pushed back and prefixed to the next frame read.

Sessions own their prepared-statement registry (integer handles), so one
session cannot execute — or stomp on — another's statements; the *plans*
behind the handles still share the server-wide adornment-keyed cache.
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import ReproError
from repro.server import protocol


class FrameReader:
    """An asyncio reader with one-shot pushback for the disconnect probe."""

    def __init__(self, reader):
        self._reader = reader
        self._pushback = b""

    def push_back(self, data):
        self._pushback = data + self._pushback

    async def readexactly(self, count):
        if self._pushback:
            taken, self._pushback = (
                self._pushback[:count],
                self._pushback[count:],
            )
            if len(taken) == count:
                return taken
            try:
                rest = await self._reader.readexactly(count - len(taken))
            except asyncio.IncompleteReadError as exc:
                raise asyncio.IncompleteReadError(
                    taken + exc.partial, count
                ) from None
            return taken + rest
        return await self._reader.readexactly(count)

    async def read(self, count):
        if self._pushback:
            taken, self._pushback = (
                self._pushback[:count],
                self._pushback[count:],
            )
            return taken
        return await self._reader.read(count)


class Session:
    def __init__(self, server, reader, writer):
        self.server = server
        self.reader = FrameReader(reader)
        self.writer = writer
        self.statements = {}
        self._next_statement = 1

    async def run(self):
        try:
            while True:
                try:
                    request = await protocol.read_frame(self.reader)
                except protocol.ProtocolError as exc:
                    # Framing is broken; report and drop the connection —
                    # there is no way to find the next frame boundary.
                    await self._send(protocol.error(None, exc))
                    return
                if request is None:
                    return
                if not await self._dispatch(request):
                    return
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request):
        """Handle one request; False ends the session."""
        op = request.get("op")
        request_id = request.get("id")
        try:
            if op == "ping":
                await self._send(protocol.ok(request_id, pong=True))
            elif op == "stats":
                await self._send(
                    protocol.ok(request_id, stats=self.server.handle_stats())
                )
            elif op == "close":
                await self._send(protocol.ok(request_id, closed=True))
                return False
            elif op == "query":
                await self._admitted(
                    request_id,
                    lambda cancel: self.server.handle_query(
                        request["sql"],
                        params=request.get("params"),
                        strategy=request.get("strategy"),
                        deadline=request.get("deadline"),
                        cancel_event=cancel,
                        fresh=bool(request.get("fresh")),
                    ),
                )
            elif op == "prepare":
                handle, description = self.server.handle_prepare(
                    request["sql"],
                    strategy=request.get("strategy"),
                )
                statement_id = self._next_statement
                self._next_statement += 1
                self.statements[statement_id] = handle
                await self._send(
                    protocol.ok(
                        request_id, statement=statement_id, **description
                    )
                )
            elif op == "execute":
                handle = self.statements.get(request.get("statement"))
                if handle is None:
                    raise ReproError(
                        "unknown statement %r (prepare it on this session "
                        "first)" % request.get("statement")
                    )
                await self._admitted(
                    request_id,
                    lambda cancel: self.server.handle_execute(
                        handle,
                        params=request.get("params"),
                        deadline=request.get("deadline"),
                        cancel_event=cancel,
                        fresh=bool(request.get("fresh")),
                    ),
                )
            elif op == "script":
                await self._admitted(
                    request_id,
                    lambda cancel: self.server.handle_script(request["sql"]),
                )
            else:
                raise ReproError("unknown op %r" % op)
        except Exception as exc:  # noqa: BLE001 — every error goes on the wire
            try:
                await self._send(protocol.error(request_id, exc))
            except (ConnectionError, OSError):
                return False
        return True

    async def _admitted(self, request_id, work):
        """Admission-gate ``work`` and run it on the executor pool with a
        disconnect watcher armed; replies with its result dict."""
        ticket = self.server.admission.try_admit()  # raises on shed
        cancel = threading.Event()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self.server.executor, lambda: work(cancel)
        )
        watcher = asyncio.ensure_future(self._watch_disconnect(cancel))
        try:
            response = await future
        finally:
            self.server.admission.release(ticket)
            # The watcher must be fully finished before the frame loop
            # reads again (two coroutines must never wait on one stream).
            # It may still win the race and grab a byte of a pipelined
            # request between the response and the cancel — push it back.
            watcher.cancel()
            try:
                pushback = await watcher
            except (asyncio.CancelledError, ConnectionError, OSError):
                pushback = b""
            if pushback:
                self.reader.push_back(pushback)
        await self._send(protocol.ok(request_id, **response))

    async def _watch_disconnect(self, cancel):
        """Probe the socket while a query runs. EOF → set the cancel token
        (the governor's next checkpoint aborts the query). A real byte
        means the client is pipelining: return it for pushback."""
        try:
            data = await self.reader.read(1)
        except (asyncio.CancelledError, ConnectionError, OSError):
            raise
        if not data:
            cancel.set()
            return b""
        return data

    async def _send(self, message):
        self.writer.write(protocol.encode_frame(message))
        await self.writer.drain()


async def serve(server, host=None, port=None):
    """Start the asyncio TCP server; returns the listening server object.

    ``await result.serve_forever()`` to block, or use it as a context
    manager in tests.
    """
    host = host if host is not None else server.config.host
    port = port if port is not None else server.config.port

    async def handler(reader, writer):
        try:
            await Session(server, reader, writer).run()
        except asyncio.CancelledError:
            # Event-loop teardown cancels sessions still waiting for a
            # frame (e.g. one whose peer's socket fd survives in a forked
            # worker, so EOF never arrives). A cancelled wait at shutdown
            # is a clean end, not an error to log.
            pass

    return await asyncio.start_server(handler, host=host, port=port)
