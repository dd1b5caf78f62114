"""repro.server: simulation-as-a-service over the runtime work queue.

A long-running ``repro serve`` process turns the runtime layer (JobSpec,
content-addressed :class:`~repro.runtime.cache.ResultCache`,
:class:`~repro.runtime.workqueue.WorkQueue`) into a local job server:
clients submit experiment/sweep jobs over a newline-delimited-JSON socket
protocol, identical in-flight requests are deduplicated by cache key,
chunk progress streams back live, and per-client quotas plus queue backpressure keep one greedy client
from starving the rest.  Results are bit-identical to local execution --
the server populates and reads the *same* cache under the *same* keys.

Layers (each independently testable):

* :mod:`~repro.server.protocol` -- canonical JSONL wire format + error codes.
* :mod:`~repro.server.service` -- :class:`ServerSession`, transport-free
  request handling (what the in-process test harness drives).
* :mod:`~repro.server.server` -- :class:`ReproServer`, the threaded TCP
  accept loop (``repro serve``).
* :mod:`~repro.server.client` -- :class:`ReproClient`, the typed client
  behind ``repro submit`` / ``repro jobs``.

The names below load on first use (:mod:`repro.utils.lazy`), so ``repro
submit`` and ``repro jobs`` import only the client and the protocol.

Quickstart
----------
Terminal 1::

    python -m repro serve --jobs 4

Terminal 2::

    python -m repro submit table1 --cycles 50000   # streams progress, prints the table
    python -m repro submit table1 --cycles 50000   # instant: served from cache
    python -m repro jobs --stats                   # queue counters
    python -m repro jobs --shutdown                # graceful drain + stop
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.server.client import ReproClient, ServerError
    from repro.server.protocol import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        PROTOCOL_VERSION,
        ProtocolError,
        decode_message,
        decode_response,
        default_address,
        encode_message,
    )
    from repro.server.server import ReproServer
    from repro.server.service import ServerSession

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.server.protocol": (
            "DEFAULT_HOST",
            "DEFAULT_PORT",
            "PROTOCOL_VERSION",
            "ProtocolError",
            "decode_message",
            "decode_response",
            "default_address",
            "encode_message",
        ),
        "repro.server.client": ("ReproClient", "ServerError"),
        "repro.server.server": ("ReproServer",),
        "repro.server.service": ("ServerSession",),
    },
)
