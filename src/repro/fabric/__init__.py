"""Distributed search fabric: shard sweeps across worker services.

The fabric runs one ``search()`` sweep on a cluster.  Everything about the
sweep itself is the search pipeline's code — the chunk layout and the
checkpoint journal (:mod:`repro.search.faults`), the chunk evaluator and
its record encoding and the result assembly
(:mod:`repro.search.execution_search`), the bounded top-k merge
(:mod:`repro.search.merge`) — so the fabric adds only what makes it a
fabric:

* :mod:`~repro.fabric.plan` — the problem statement on the wire and its
  content-addressed run key;
* :mod:`~repro.fabric.coordinator` / :mod:`~repro.fabric.server` — worker
  registration and barrier, leases (grant, expire, steal, stale submit),
  threshold gossip, fallback on exhausted leases, status and metrics, and
  their HTTP face (a grown ``repro.service`` server);
* :mod:`~repro.fabric.worker` — the pull-loop client;
* :mod:`~repro.fabric.cluster` — one-call local cluster
  (``repro fabric --workers N``).

Protocol and bit-identity argument: ``docs/FABRIC.md``.
"""

from .cluster import run_fabric
from .coordinator import FabricCoordinator, FabricError
from .plan import fabric_run_key, options_from_dict, options_to_dict
from .server import FabricHTTPServer, make_fabric_server
from .worker import FabricWorker, run_worker

__all__ = [
    "FabricCoordinator",
    "FabricError",
    "FabricHTTPServer",
    "FabricWorker",
    "fabric_run_key",
    "make_fabric_server",
    "options_from_dict",
    "options_to_dict",
    "run_fabric",
    "run_worker",
]
