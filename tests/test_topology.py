import pytest

import hiroute
from hiroute.config import default_config
from hiroute.workload import build_workload
from hiroute.topology import TopologyError, build_topology
from hiroute.validation import check_loss_sweep
from tests.test_tracer_contract import load_tracer_module


def test_paper_scale_three_layer():
    topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
    assert topo.num_layers == 3
    assert topo.num_nodes == 7
    assert topo.node_ids == ("n1_0", "n1_1", "n1_2", "n1_3", "n2_0", "n2_1", "n3_0")
    assert [len(layer) for layer in topo.layers] == [4, 2, 1]
    assert topo.memory_budget[0] == 30  # n1_0
    assert topo.memory_budget[5] == 100  # n2_1
    assert topo.memory_budget[6] is None  # terminal layer unbounded
    assert topo.resource_budget[4] == 0.4  # n2_0
    assert topo.resource_budget[6] == 0.4  # n3_0
    assert topo.resource_budget[0] == 0.0  # entry nodes receive no offloads


def test_minimal_two_node_chain():
    topo = build_topology([1, 1], [30, None], 0.4)
    assert topo.num_nodes == 2
    assert topo.num_layers == 2


def test_five_layer_node_count():
    topo = build_topology([16, 8, 4, 2, 1], [30, 80, 150, 200, None], 0.4)
    assert topo.num_nodes == 31


@pytest.mark.parametrize("sizes", [[4, 2, 1], [8, 4, 2, 1], [16, 8, 4, 2, 1]])
def test_doubling_pattern_canonical(sizes):
    topo = build_topology(sizes, [30.0] * len(sizes), 0.4)
    K = topo.num_layers
    for k, layer in enumerate(topo.layers, start=1):
        assert len(layer) == 2 ** (K - k)


def test_uplinks_full_fanout():
    topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
    assert [topo.node(u) for u in topo.uplinks(0)] == ["n2_0", "n2_1"]  # from n1_0
    assert [topo.node(u) for u in topo.uplinks(5)] == ["n3_0"]  # from n2_1


def test_uplink_count_matches_next_layer():
    topo = build_topology([8, 4, 2, 1], [30, 80, 200, None], 0.4)
    for node in topo.nodes():
        if not topo.is_terminal(node):
            assert len(topo.uplinks(node)) == len(topo.layers[topo.layer_of(node)])


def test_terminal_node_has_no_uplinks():
    topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
    assert topo.terminal_nodes() == (6,)
    assert topo.uplinks(6) == ()


def test_destinations_in_id_order():
    # n2_10 sorts before n2_2, so destination order is not index order
    topo = build_topology([3, 12, 2, 1], [30, 80, 150, None], 0.4)
    assert [topo.node(u) for u in topo.uplinks(0)] == [
        "n2_0", "n2_1", "n2_10", "n2_11", "n2_2", "n2_3", "n2_4", "n2_5", "n2_6", "n2_7",
        "n2_8", "n2_9",
    ]


def test_entry_draw_order_is_id_order():
    cfg = default_config()
    cfg["topology"].update(layer_sizes=[16, 8, 4, 2, 1], memory_budgets=[30, 80, 150, 200, None])
    topo = build_topology(**cfg["topology"])
    workload = build_workload(cfg, topo, 0)
    assert [topo.node(i) for i in workload._entry_order[:3]] == ["n1_0", "n1_1", "n1_10"]


def test_rejects_empty_layer():
    with pytest.raises(TopologyError):
        build_topology([4, 0, 1], [30, 100, None], 0.4)


def test_rejects_single_layer():
    with pytest.raises(TopologyError):
        build_topology([4], [30], 0.4)


def test_rejects_nonpositive_budgets():
    with pytest.raises(TopologyError):
        build_topology([4, 2, 1], [0, 100, None], 0.4)
    with pytest.raises(TopologyError):
        build_topology([4, 2, 1], [30, 100, None], -1.0)


def test_layer_lookup_and_node_ids():
    topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
    assert topo.layer_of(5) == 2  # n2_1
    assert topo.node(6) == "n3_0"
    assert topo.is_terminal(6)
    assert not topo.is_terminal(2)  # n1_2
    assert [topo.node(i) for i in topo.entry_nodes()] == [f"n1_{i}" for i in range(4)]


def test_every_counted_topology_name_has_a_caller():
    # the benchmark's tracer counts these names; one that loses its last
    # caller in the package reads 0 there
    tracer_module = load_tracer_module()
    names = {
        tracer_module.boundary_name(*b) for b in tracer_module.COUNTERS if b[0] == "topology"
    }
    tracer = tracer_module.Tracer(hiroute)
    tracer.install()
    try:
        cfg = hiroute.merge_config({
            "policy": "random", "run": {"total_jobs": 200},
            "placement": {"kind": "layer_diverse"},
        })
        hiroute.run_single(cfg, 0)
        assert check_loss_sweep().passed
    finally:
        tracer.uninstall()
    assert len(names) == 9
    assert {name for name in names if tracer.counts[name] == 0} == set()
