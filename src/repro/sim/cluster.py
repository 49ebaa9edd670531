"""Instantiate a simulated machine from a :class:`MachineSpec`.

A :class:`SimCluster` owns the environment, the fabric, and the node
objects, and hands out nodes by role.  Deployments (LWFS, the PFS
baseline) place their servers on I/O and service nodes and application
ranks on compute nodes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Dict, Optional

from ..machine.node import Node
from ..machine.spec import MachineSpec, NodeKind
from ..simkernel import Environment, RandomStreams
from ..network.fabric import Fabric
from ..storage.device import RaidDevice
from .config import RunOptions, SimConfig

__all__ = ["NodeRange", "SimCluster"]


class NodeRange(Sequence):
    """One role's nodes: a read-only sequence over a contiguous id range
    whose nodes are built on first index (see :meth:`SimCluster.node`)."""

    __slots__ = ("_node", "ids")

    def __init__(self, node: Callable[[int], Node], ids: range) -> None:
        self._node = node
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._node(i) for i in self.ids[index]]
        return self._node(self.ids[index])


class SimCluster:
    """The simulated machine: environment + fabric + nodes.

    Node ids are assigned contiguously: service nodes first, then I/O
    nodes, then compute nodes (so small experiments keep small id spaces
    and mesh coordinates put service/I/O nodes in one corner, as Red
    Storm does).  A node and its NIC are built the first time anyone
    asks for it, so a collapsed run pays only for its representatives.
    """

    def __init__(
        self,
        spec: MachineSpec,
        config: Optional[SimConfig] = None,
        compute_nodes: Optional[int] = None,
        io_nodes: Optional[int] = None,
        service_nodes: Optional[int] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.spec = spec
        self.config = config or SimConfig()
        self.options = options
        self.env = Environment()
        if options is not None:
            self.env.fastforward = options.fastforward
        self.rng = RandomStreams(self.config.seed)

        n_service = service_nodes if service_nodes is not None else spec.service_nodes
        n_io = io_nodes if io_nodes is not None else spec.io_nodes
        n_compute = compute_nodes if compute_nodes is not None else spec.compute_nodes
        total = n_service + n_io + n_compute

        self.fabric = Fabric(
            self.env,
            topology=spec.topology,
            hop_latency=spec.hop_latency,
            n_nodes_hint=total,
            resolve=self.node,
        )

        self.service_nodes = NodeRange(self.node, range(0, n_service))
        self.io_nodes = NodeRange(self.node, range(n_service, n_service + n_io))
        self.compute_nodes = NodeRange(self.node, range(n_service + n_io, total))
        self._by_id: Dict[int, Node] = {}

    # -- accessors ------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """The node with id *node_id*, built and attached on first use."""
        try:
            return self._by_id[node_id]
        except KeyError:
            if not 0 <= node_id < self.n_nodes:
                raise
        if node_id in self.service_nodes.ids:
            kind = NodeKind.SERVICE
        else:
            kind = NodeKind.IO if node_id in self.io_nodes.ids else NodeKind.COMPUTE
        node = self._by_id[node_id] = Node(self.env, node_id, self.spec.spec_for(kind))
        if kind is NodeKind.SERVICE:
            # Sharded runs: this worker owns its storage servers outright
            # but only a proportional slice of the shared MDS/authz
            # capacity (mean-field split; see repro.bench.shard).
            node.speed = self.config.service_scale
        self.fabric.attach(node)
        return node

    @property
    def n_nodes(self) -> int:
        """The population size, built or not."""
        return self.compute_nodes.ids.stop

    def make_raid(self, node: Node, name: str, bandwidth: Optional[float] = None) -> RaidDevice:
        """Attach a RAID volume to *node* using its kind's storage spec.

        Storage nodes may host several servers (the dev cluster ran two
        OSTs per node), each with its *own* volume, so this returns a new
        device per call rather than caching one per node.
        """
        storage_spec = node.spec.storage
        if storage_spec is None:
            raise ValueError(f"node {node.name} has no storage spec")
        if bandwidth is not None:
            from dataclasses import replace

            storage_spec = replace(storage_spec, bandwidth=bandwidth)
        if node.speed != 1.0:
            # A scaled (shared-service replica) node's volume serves at
            # the same fraction: streaming slows down, fixed ops stretch.
            from dataclasses import replace

            storage_spec = replace(
                storage_spec,
                bandwidth=storage_spec.bandwidth * node.speed,
                seek_time=storage_spec.seek_time / node.speed,
                sync_time=storage_spec.sync_time / node.speed,
                meta_op_time=storage_spec.meta_op_time / node.speed,
            )
        return RaidDevice(
            self.env,
            storage_spec,
            name=name,
            rng=self.rng,
            jitter=self.config.cost_jitter,
            node_id=node.node_id,
        )

    def jitter(self, stream: str, mean: float) -> float:
        """Jittered service cost (deterministic per seed)."""
        return self.rng.jitter(stream, mean, self.config.cost_jitter)

    def parallel_app(self, n_ranks: int, collapse=None):
        """A :class:`~repro.parallel.app.ParallelApp` on this cluster's
        compute nodes, optionally with a symmetric-client collapse plan
        (``[(representative_rank, multiplicity), ...]`` — see
        :func:`repro.sim.collapse.collapse_plan`)."""
        from ..parallel.app import ParallelApp

        return ParallelApp(
            self.env, self.fabric, self.compute_nodes, n_ranks=n_ranks, collapse=collapse
        )

    def kill_node(self, node: Node) -> None:
        """Failure injection: the node drops off the fabric."""
        node.kill()

    def run(self, until=None):
        return self.env.run(until)
