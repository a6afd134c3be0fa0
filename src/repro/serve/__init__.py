"""DSE-as-a-service: a sharded sweep server with a global result cache.

``repro.dse`` answers "evaluate this design space" as a one-shot CLI
run; this package turns it into a long-running service where many
overlapping sweeps pay for the union of their design points once:

* :mod:`repro.serve.server` — asyncio job-queue server: submit a sweep,
  get a job id; jobs move ``queued → running → done|failed|cancelled``
  through a bounded queue with backpressure, and their design points
  are sharded across the existing DSE worker pool
  (:func:`repro.dse.scheduler.run_tasks`);
* :mod:`repro.serve.cache` — global content-addressed result cache
  keyed on the sha256[:12] DesignPoint ids + benchmark + scale + the
  result fingerprint (:mod:`repro.fingerprint`), with single-flight so
  two concurrent jobs never compute the same point twice;
* :mod:`repro.serve.protocol` / :mod:`repro.serve.api` — newline-
  delimited JSON over a local socket; per-point events carry monotonic
  sequence numbers, making every stream resumable;
* :mod:`repro.serve.client` — blocking client whose ``watch`` stream
  survives disconnects (exponential backoff + jitter, resume from the
  last acked seq, exactly-once delivery);
* ``python -m repro.serve serve|submit|watch|status|frontier`` — the CLI.

Typical use::

    from repro.serve import ServeClient
    from repro.dse.space import preset

    client = ServeClient("unix:/tmp/serve.sock")
    job = client.submit(preset("smoke").to_dict(), ["crc32", "sha"])
    end = client.wait(job["id"])          # reconnects transparently
    frontier_inputs = client.results(job["id"])
"""

from repro.serve.api import JOB_STATES, Job, validate_submit
from repro.serve.cache import GlobalResultCache, SingleFlight
from repro.serve.client import ServeClient, ServeError, wait_until_up
from repro.serve.protocol import PROTOCOL, ProtocolError, parse_address
from repro.serve.server import ServeServer, default_socket_path

__all__ = [
    "GlobalResultCache",
    "JOB_STATES",
    "Job",
    "PROTOCOL",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "SingleFlight",
    "default_socket_path",
    "parse_address",
    "validate_submit",
    "wait_until_up",
]
