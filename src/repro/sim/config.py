"""Cost calibration and run options for the simulated deployments.

All host-side service times live here so calibration is one file.  The
defaults target the paper's dev cluster (§4, DESIGN.md §5): LWFS object
creates around 0.2 ms at the owning server, Lustre-like MDS creates around
1.3 ms serialized at one node, and 4 MiB bulk chunks.

This module is also the single source of truth for *run configuration*:
:class:`RunOptions` holds every knob a trial accepts, and
:meth:`RunOptions.resolved` is the only code that reads a run knob from
the environment or decides which setting wins.  One rule covers every
knob:

1. an explicit value (``RunOptions(flow=True)``),
2. the corresponding ``REPRO_*`` environment variable,
3. the built-in default.

Everything downstream of a trial entry point receives plain resolved
values.  Every ``REPRO_*`` read routes through :func:`env_str` here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..units import KiB, MiB, USEC

__all__ = ["LWFSCosts", "PFSCosts", "RunOptions", "SimConfig", "env_str"]


def env_str(name: str, default: str = "") -> str:
    """The single gateway for ``REPRO_*`` environment reads.

    Keeping every read behind this function makes the resolution order
    auditable: grep for ``os.environ`` finds only this site.
    """
    return os.environ.get(name, default)


def _env_flag(name: str) -> Optional[bool]:
    """``REPRO_*`` boolean: ``0``/``false`` -> False, other non-empty -> True."""
    raw = env_str(name).strip().lower()
    if not raw:
        return None
    return raw not in ("0", "false", "no")


def _env_int(name: str) -> Optional[int]:
    """``REPRO_*`` integer knob; unset or unparsable -> ``None``."""
    raw = env_str(name).strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _load_spec(value, env_name: str, module: str, loader: str):
    """A spec-valued knob: explicit value > ``REPRO_*`` JSON path > None.

    A string (explicit or from the environment) is a JSON path loaded by
    *loader* in *module*, imported lazily to keep this module cycle-free.
    """
    if value is None:
        value = env_str(env_name).strip() or None
    if isinstance(value, str):
        from importlib import import_module

        value = getattr(import_module(module, __package__), loader)(value)
    return value


@dataclass(frozen=True)
class LWFSCosts:
    """Host CPU times (seconds) for LWFS service operations."""

    # Authentication / authorization service.
    get_cred: float = 300 * USEC
    verify_cred: float = 60 * USEC
    create_container: float = 120 * USEC
    get_caps: float = 150 * USEC
    verify_cap: float = 100 * USEC
    revoke_update: float = 60 * USEC

    # Storage service.
    create_obj_cpu: float = 80 * USEC  # + device meta_op
    remove_obj_cpu: float = 80 * USEC
    request_cpu: float = 50 * USEC  # per data request (header, matching)
    getattr_cpu: float = 40 * USEC
    setattr_cpu: float = 60 * USEC
    txn_op_cpu: float = 70 * USEC

    # Active storage (remote filtering, §6): server-side scan rate.
    filter_scan_rate: float = 1.2e9  # bytes/s on a 2006-era Opteron core

    # Naming service.
    name_op_cpu: float = 120 * USEC

    # Lock service.
    lock_op_cpu: float = 50 * USEC


@dataclass(frozen=True)
class PFSCosts:
    """Host CPU times (seconds) for the Lustre-like baseline.

    The MDS create includes the serialized journal commit that makes
    file creation the scaling bottleneck of Fig. 10.
    """

    mds_lookup: float = 150 * USEC
    mds_create_cpu: float = 450 * USEC
    mds_journal: float = 800 * USEC  # charged on the MDS node's disk
    mds_open_cpu: float = 150 * USEC
    mds_close_cpu: float = 100 * USEC
    ost_request_cpu: float = 80 * USEC  # per bulk RPC at the OST
    client_vfs_cpu: float = 120 * USEC  # kernel VFS path per call
    lock_rpc_cpu: float = 60 * USEC
    #: Extent-lock ownership switch forces the previous holder's dirty
    #: pages to be written back and the device to sync (seek+flush);
    #: charged on the OST device at each conflicting handoff.
    lock_switch_sync: bool = True


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by the simulated deployments."""

    chunk_bytes: int = 4 * MiB  # bulk transfer granularity (Lustre-era RPC)
    pipeline_depth: int = 2  # client-side outstanding bulk requests
    server_threads: int = 4  # concurrent I/O contexts per storage server
    buffer_pool_bytes: int = 64 * MiB  # pinned buffers per server (Fig. 6)
    request_bytes: int = 256  # wire size of control RPCs
    cap_bytes: int = 192  # wire size of a capability/credential
    rpc_timeout: float = 30.0  # failure detection for 2PC
    seed: int = 1234
    cost_jitter: float = 0.03  # relative sigma on service times
    #: Opt-in flow-level data path (repro.network.flow): the steady-state
    #: middle of a bulk write rides a fluid fair-share stream instead of
    #: per-chunk RPCs.  Trial entry points set it from ``RunOptions.flow``.
    flow: bool = False
    #: Fraction of each *service* node's capacity (CPU and journal
    #: device) available to this simulation.  Sharded runs
    #: (:mod:`repro.bench.shard`) give every shard a local replica of the
    #: shared MDS/authz nodes scaled by the shard's client share — the
    #: mean-field split keeps n clients at full rate equivalent to n/S
    #: clients at rate/S.  Storage and compute nodes are never scaled:
    #: server-group sharding gives each shard exclusive ownership of its
    #: storage servers.
    service_scale: float = 1.0
    #: Sharded runs only: the global-to-local server ratio (m / m_k).
    #: Client-driven 2PC serializes prepare/commit over *every* storage
    #: server in the transaction; a shard's local chain covers only its
    #: own servers, so the coordinator stretches the chain by this factor
    #: to reproduce the global critical path (see SimLWFSClient.end_txn).
    txn_fanout_scale: float = 1.0
    lwfs: LWFSCosts = field(default_factory=LWFSCosts)
    pfs: PFSCosts = field(default_factory=PFSCosts)

    def __post_init__(self) -> None:
        if self.chunk_bytes < 64 * KiB:
            raise ValueError("chunk_bytes unrealistically small")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if not 0.0 < self.service_scale <= 1.0:
            raise ValueError("service_scale must be in (0, 1]")
        if self.txn_fanout_scale < 1.0:
            raise ValueError("txn_fanout_scale must be >= 1")


@dataclass(frozen=True)
class RunOptions:
    """Typed run configuration: every knob a trial accepts, in one place.

    ``None`` means "unset": :meth:`resolved` fills it from the matching
    ``REPRO_*`` environment variable, then the default.  An explicit
    value always wins; no environment variable overrides one.

    =============== ========================== =======
    field           environment variable       default
    =============== ========================== =======
    collapse        ``REPRO_COLLAPSE``         False
    flow            ``REPRO_FLOW``             False
    trace           ``REPRO_TRACE``            False
    cache           ``REPRO_BENCH_CACHE``      True
    fastforward     ``REPRO_FASTFORWARD``      True
    metrics         ``REPRO_METRICS``          False
    tenant_collapse ``REPRO_TENANT_COLLAPSE``  True
    metrics_period  ``REPRO_METRICS_PERIOD``   None (auto)
    shards          ``REPRO_SHARD`` (int)      1
    faults          ``REPRO_FAULTS`` (path)    None
    workload        ``REPRO_WORKLOAD`` (path)  None
    tiers           ``REPRO_TIERS`` (path)     None
    =============== ========================== =======
    """

    collapse: Optional[bool] = None
    flow: Optional[bool] = None
    trace: Optional[bool] = None
    cache: Optional[bool] = None
    #: Analytic steady-state fast-forward in the flow engine
    #: (:mod:`repro.network.flow`); only observable on flow-mode runs.
    fastforward: Optional[bool] = None
    #: Time-series metrics sampling (:mod:`repro.metrics`): install the
    #: standard instrument pack and a simulated-time sampler, attach the
    #: exported document to the trial result.
    metrics: Optional[bool] = None
    #: Tenant-class collapsing in the open-loop workload engine
    #: (:mod:`repro.workload`): simulate one representative per tenant
    #: block with a multiplicity weight.  ``False`` pins the uncollapsed
    #: reference population (bit-identical when every multiplicity is
    #: already 1).
    tenant_collapse: Optional[bool] = None
    #: Explicit sampling period in simulated seconds; ``None`` derives a
    #: deterministic period from the analytic horizon
    #: (:func:`repro.metrics.sampler.default_period`).  Stays ``None``
    #: after :meth:`resolved` when unset — "auto" is a real state.
    metrics_period: Optional[float] = None
    #: Worker-process count for sharded simulation of one big run
    #: (:mod:`repro.bench.shard`); ``1`` (or ``0``) means single-process.
    shards: Optional[int] = None
    #: A :class:`repro.faults.FaultPlan` (or a JSON path, or ``None`` for
    #: a clean run).  A string resolves through
    #: :func:`repro.faults.load_plan` and :meth:`describe` folds the
    #: plan's content signature into the trial-cache key.
    faults: Optional[object] = None
    #: A :class:`repro.workload.WorkloadSpec` (or a JSON path, or ``None``
    #: when the trial is not an open-loop traffic run).  Follows the
    #: ``faults`` pattern through :func:`repro.workload.load_workload`.
    workload: Optional[object] = None
    #: A :class:`repro.storage.buffer.TierSpec` (or a JSON path, or
    #: ``None`` for the direct-to-OST path).  Follows the ``faults``
    #: pattern through :func:`repro.storage.buffer.load_tiers`.  A spec
    #: with ``mode: passthrough`` is kept but never interposes, and is
    #: bit-identical to ``tiers=None``.
    tiers: Optional[object] = None

    _ENV = {
        "collapse": "REPRO_COLLAPSE",
        "flow": "REPRO_FLOW",
        "trace": "REPRO_TRACE",
        "cache": "REPRO_BENCH_CACHE",
        "fastforward": "REPRO_FASTFORWARD",
        "metrics": "REPRO_METRICS",
        "tenant_collapse": "REPRO_TENANT_COLLAPSE",
    }
    _DEFAULTS = {
        "collapse": False,
        "flow": False,
        "trace": False,
        "cache": True,
        "fastforward": True,
        "metrics": False,
        "tenant_collapse": True,
    }

    def resolved(self) -> "RunOptions":
        """Every field concrete: explicit value > ``REPRO_*`` env > default."""
        values = {}
        for name, env_name in self._ENV.items():
            explicit = getattr(self, name)
            if explicit is not None:
                values[name] = bool(explicit)
                continue
            from_env = _env_flag(env_name)
            values[name] = self._DEFAULTS[name] if from_env is None else from_env
        period = self.metrics_period
        if period is None:
            raw_period = env_str("REPRO_METRICS_PERIOD").strip()
            if raw_period:
                try:
                    period = float(raw_period)
                except ValueError:
                    period = None
        if period is not None and period <= 0:
            period = None  # nonsense cadence -> auto
        shards = self.shards if self.shards is not None else _env_int("REPRO_SHARD")
        return RunOptions(
            faults=_load_spec(self.faults, "REPRO_FAULTS", "..faults.plan", "load_plan"),
            workload=_load_spec(
                self.workload, "REPRO_WORKLOAD", "..workload.spec", "load_workload"
            ),
            tiers=_load_spec(
                self.tiers, "REPRO_TIERS", "..storage.buffer.tier", "load_tiers"
            ),
            shards=1 if shards is None else max(1, int(shards)),
            metrics_period=period,
            **values,
        )

    def describe(self) -> dict:
        """A JSON-stable identity of the *resolved* options.

        Part of the bench trial-cache key: includes the fault plan's
        content hash, so a cached fault-free outcome can never answer for
        a fault-injected spec, and the accelerator knobs
        (``fastforward``/``shards``), so cached results never mix modes.
        """
        opts = self.resolved()
        doc = {name: getattr(opts, name) for name in self._ENV}
        doc["shards"] = opts.shards
        doc["metrics_period"] = opts.metrics_period
        doc["faults"] = opts.faults.signature() if opts.faults is not None else ""
        doc["workload"] = (
            opts.workload.signature() if opts.workload is not None else ""
        )
        doc["tiers"] = opts.tiers.signature() if opts.tiers is not None else ""
        return doc
