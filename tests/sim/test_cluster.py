"""SimCluster construction and role assignment."""

import pytest

from repro.errors import NetworkError
from repro.machine import NodeKind, dev_cluster, red_storm
from repro.sim import SimCluster, SimConfig


def test_default_counts_follow_spec():
    cluster = SimCluster(dev_cluster())
    assert len(cluster.compute_nodes) == 31
    assert len(cluster.io_nodes) == 8
    assert len(cluster.service_nodes) == 1
    assert cluster.n_nodes == 40


def test_overridden_counts():
    cluster = SimCluster(dev_cluster(), compute_nodes=3, io_nodes=2, service_nodes=1)
    assert cluster.n_nodes == 6


def test_node_ids_contiguous_service_first():
    cluster = SimCluster(dev_cluster(), compute_nodes=2, io_nodes=2, service_nodes=1)
    assert cluster.service_nodes[0].node_id == 0
    assert [n.node_id for n in cluster.io_nodes] == [1, 2]
    assert [n.node_id for n in cluster.compute_nodes] == [3, 4]
    for node in [*cluster.service_nodes, *cluster.io_nodes, *cluster.compute_nodes]:
        assert cluster.node(node.node_id) is node
        assert node.nic is not None


def test_roles_have_correct_kinds():
    cluster = SimCluster(dev_cluster(), compute_nodes=1, io_nodes=1, service_nodes=1)
    assert cluster.service_nodes[0].kind is NodeKind.SERVICE
    assert cluster.io_nodes[0].kind is NodeKind.IO
    assert cluster.compute_nodes[0].kind is NodeKind.COMPUTE


def test_make_raid_requires_storage_spec():
    cluster = SimCluster(dev_cluster(), compute_nodes=1, io_nodes=1, service_nodes=1)
    raid = cluster.make_raid(cluster.io_nodes[0], "r0")
    assert raid.spec.bandwidth == dev_cluster().io_spec.storage.bandwidth
    with pytest.raises(ValueError):
        cluster.make_raid(cluster.compute_nodes[0], "bad")


def test_make_raid_bandwidth_override():
    cluster = SimCluster(dev_cluster(), compute_nodes=1, io_nodes=1, service_nodes=1)
    raid = cluster.make_raid(cluster.io_nodes[0], "r0", bandwidth=123456.0)
    assert raid.spec.bandwidth == 123456.0


def test_jitter_depends_on_seed():
    c1 = SimCluster(dev_cluster(), SimConfig(seed=1), compute_nodes=1, io_nodes=1, service_nodes=1)
    c2 = SimCluster(dev_cluster(), SimConfig(seed=2), compute_nodes=1, io_nodes=1, service_nodes=1)
    c1b = SimCluster(dev_cluster(), SimConfig(seed=1), compute_nodes=1, io_nodes=1, service_nodes=1)
    assert c1.jitter("x", 1.0) == c1b.jitter("x", 1.0)
    assert c1.jitter("x", 1.0) != c2.jitter("x", 1.0)


def test_red_storm_cluster_scales_down():
    cluster = SimCluster(red_storm(), compute_nodes=16, io_nodes=4, service_nodes=2)
    assert cluster.n_nodes == 22
    assert cluster.fabric.topology.max_hops() >= 1


def _eager_nodes(spec, config, **counts):
    """What the eager build gave: ``(name, kind, spec, nic bandwidth,
    speed)`` per id, service ids first, each role from its kind's spec."""
    roles = [(NodeKind.SERVICE, counts["service_nodes"]), (NodeKind.IO, counts["io_nodes"]),
             (NodeKind.COMPUTE, counts["compute_nodes"])]
    out = []
    for kind, n in roles:
        node_spec = spec.spec_for(kind)
        speed = config.service_scale if kind is NodeKind.SERVICE else 1.0
        for _ in range(n):
            nid = len(out)
            out.append((f"{kind.value}{nid}", kind, node_spec, node_spec.nic.bandwidth, speed))
    return out


@pytest.mark.parametrize("config", [SimConfig(), SimConfig(service_scale=0.5)])
def test_lazy_nodes_match_eager_build(config):
    counts = dict(compute_nodes=6, io_nodes=3, service_nodes=2)
    cluster = SimCluster(red_storm(), config, **counts)
    assert len(cluster.fabric._nodes) == 0
    expected = _eager_nodes(red_storm(), config, **counts)
    assert cluster.n_nodes == len(expected)
    # Build in reverse id order through the fabric: ids, kinds and
    # speeds must not depend on who asks first.
    for nid in reversed(range(cluster.n_nodes)):
        node = cluster.fabric.node(nid)
        assert cluster.node(nid) is node
        assert node.node_id == nid
        assert (node.name, node.kind, node.spec, node.nic.bandwidth, node.speed) == expected[nid]
    assert len(cluster.fabric._nodes) == cluster.n_nodes
    roles = [*cluster.service_nodes, *cluster.io_nodes, *cluster.compute_nodes]
    assert roles == [cluster.node(i) for i in range(cluster.n_nodes)]


def test_node_ranges_behave_like_read_only_lists():
    cluster = SimCluster(red_storm(), compute_nodes=5, io_nodes=2, service_nodes=1)
    compute = cluster.compute_nodes
    assert len(compute) == 5 and compute and not SimCluster(
        red_storm(), compute_nodes=0, io_nodes=1, service_nodes=1).compute_nodes
    assert compute[-1] is compute[4] is cluster.node(7)
    assert compute[1:3] == [cluster.node(4), cluster.node(5)]
    assert compute[::-2] == [cluster.node(7), cluster.node(5), cluster.node(3)]
    assert list(compute) == [cluster.node(i) for i in range(3, 8)]
    assert cluster.node(3) in compute and cluster.node(0) not in compute
    with pytest.raises(TypeError):
        compute[0] = cluster.node(0)


def test_out_of_range_ids_raise():
    cluster = SimCluster(red_storm(), compute_nodes=2, io_nodes=1, service_nodes=1)
    for role in (cluster.service_nodes, cluster.io_nodes, cluster.compute_nodes):
        with pytest.raises(IndexError):
            role[len(role)]
        with pytest.raises(IndexError):
            role[-len(role) - 1]
    with pytest.raises(KeyError):
        cluster.node(cluster.n_nodes)
    with pytest.raises(KeyError):
        cluster.node(-1)
    for bad in (cluster.n_nodes, -1):
        with pytest.raises(NetworkError):
            cluster.fabric.node(bad)
    assert len(cluster.fabric._nodes) == 0


def test_nodes_are_built_on_first_use_only():
    cluster = SimCluster(red_storm())
    assert cluster.n_nodes == sum(
        (red_storm().service_nodes, red_storm().io_nodes, red_storm().compute_nodes))
    assert len(cluster.fabric._nodes) == 0
    node = cluster.compute_nodes[-1]
    assert cluster.fabric._nodes == {node.node_id: node}
    assert cluster.fabric.wire_latency(0, node.node_id) > 0
    assert len(cluster.fabric._nodes) == 2
