"""The query server's client: a blocking socket speaking the
length-prefixed JSON protocol.

Errors the server marks ``retryable`` (shed under load, cancelled,
transport drop) are retried with jittered exponential backoff
(:class:`~repro.resilience.retry.RetryPolicy`), honouring the server's
``retry_after`` hint as a floor. Non-retryable errors surface immediately
as :class:`ServerError`.
"""

from __future__ import annotations

import json
import socket
import struct
import time

from repro.errors import ReproError
from repro.resilience.retry import RetryPolicy
from repro.server import protocol


class ServerError(ReproError):
    """A structured error returned by the server."""

    def __init__(self, wire):
        super().__init__(
            "%s: %s" % (wire.get("type"), wire.get("message")),
            context=wire.get("context"),
        )
        self.wire = wire
        self.error_type = wire.get("type")
        self.retryable = bool(wire.get("retryable"))
        self.retry_after = wire.get("retry_after")


def _raise_or_return(response):
    if response.get("ok"):
        return response
    raise ServerError(response.get("error") or {})


class SyncQueryClient:
    """Blocking client on a raw socket; the convenience surface for
    scripts, benchmarks and the chaos harness."""

    def __init__(self, host="127.0.0.1", port=7474, retry=None,
                 connect_timeout=5.0):
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.connect_timeout = connect_timeout
        self._sock = None
        self._next_id = 1

    # -- transport ---------------------------------------------------------------

    def connect(self):
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            self._sock.settimeout(None)
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info):
        self.close()

    def _send_frame(self, message):
        self._sock.sendall(protocol.encode_frame(message))

    def _recv_exactly(self, count):
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self):
        (length,) = struct.unpack(">I", self._recv_exactly(4))
        if length > protocol.MAX_FRAME_BYTES:
            raise protocol.ProtocolError(
                "declared frame of %d bytes exceeds the limit" % length
            )
        return json.loads(self._recv_exactly(length).decode("utf-8"))

    # -- request/retry core ------------------------------------------------------

    def request_once(self, message):
        """One round trip, no retry. Reconnects if needed."""
        self.connect()
        request = dict(message)
        request["id"] = self._next_id
        self._next_id += 1
        try:
            self._send_frame(request)
            response = self._recv_frame()
        except (ConnectionError, OSError, struct.error):
            self.close()
            raise
        return _raise_or_return(response)

    def request(self, message):
        """Round trip with the retry policy applied to retryable errors."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.request_once(message)
            except Exception as exc:
                if not self.retry.should_retry(attempt, exc):
                    raise
                time.sleep(
                    self.retry.delay(
                        attempt, RetryPolicy.retry_after_from(exc)
                    )
                )

    # -- convenience ops ---------------------------------------------------------

    def query(self, sql, params=None, strategy=None, deadline=None,
              fresh=False):
        message = {"op": "query", "sql": sql}
        if params is not None:
            message["params"] = list(params)
        if strategy is not None:
            message["strategy"] = strategy
        if deadline is not None:
            message["deadline"] = deadline
        if fresh:
            # Bypass the server's cross-request result cache: the reply
            # must come from a real execution (oracle/chaos comparisons).
            message["fresh"] = True
        return self.request(message)

    def prepare(self, sql, strategy=None):
        message = {"op": "prepare", "sql": sql}
        if strategy is not None:
            message["strategy"] = strategy
        return self.request(message)

    def execute(self, statement, params=None, deadline=None, fresh=False):
        message = {"op": "execute", "statement": statement}
        if params is not None:
            message["params"] = list(params)
        if deadline is not None:
            message["deadline"] = deadline
        if fresh:
            message["fresh"] = True
        return self.request(message)

    def script(self, sql):
        return self.request({"op": "script", "sql": sql})

    def stats(self):
        return self.request({"op": "stats"})["stats"]

    def ping(self):
        return self.request({"op": "ping"})

