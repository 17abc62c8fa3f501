import numpy as np
import pytest

from gridstore.errors import DisconnectedNetwork, UnbalancedInjection, ValidationError
from gridstore.network import (
    Bus,
    Generator,
    Line,
    Network,
    RenewableSite,
    build_laplacian,
    check_connected,
    dc_power_flow,
    injections_from_flows,
    with_renewable_node,
)
from netgen import random_network


def two_bus(x=0.5, slack=0):
    return Network(
        buses=[Bus(0, "a", is_slack=(slack == 0)), Bus(1, "b", is_slack=(slack == 1))],
        lines=[Line(0, 1, x)],
    )


def triangle():
    return Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 1.0), Line(0, 2, 1.0), Line(2, 1, 1.0)],
    )


# -- laplacian ----------------------------------------------------------------


def test_laplacian_two_bus():
    lap = build_laplacian(two_bus(x=0.5))
    assert np.array_equal(lap, [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_path():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 1.0), Line(1, 2, 1.0)],
    )
    assert np.array_equal(build_laplacian(net), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_parallel_lines_add():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1)],
        lines=[Line(0, 1, 1.0), Line(0, 1, 1.0)],
    )
    assert np.array_equal(build_laplacian(net), [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_symmetric_zero_row_sums():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_network(rng, n_buses=int(rng.integers(2, 7)))
        lap = build_laplacian(net)
        assert np.allclose(lap, lap.T, atol=1e-12)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)


# -- connectivity --------------------------------------------------------------


def test_connected_path_true():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 1.0), Line(1, 2, 1.0)],
    )
    assert check_connected(net)


def test_disconnected_false():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 1.0)],
    )
    assert not check_connected(net)


def test_single_bus_connected():
    net = Network(buses=[Bus(0, is_slack=True)], lines=[])
    assert check_connected(net)


# -- dc power flow --------------------------------------------------------------


def test_two_bus_flow():
    net = two_bus(x=0.5, slack=1)
    theta, flows = dc_power_flow(net, [1.0, -1.0])
    assert theta == pytest.approx([0.5, 0.0], abs=1e-12)
    assert flows[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_injections_zero_flows():
    net = triangle()
    theta, flows = dc_power_flow(net, np.zeros(3))
    assert np.allclose(theta, 0) and np.allclose(flows, 0)


def test_triangle_flow_split():
    # reduced 2x2 system solved independently with dense numpy in-test
    net = triangle()
    p = np.array([1.0, -1.0, 0.0])
    lap = build_laplacian(net)
    keep = [1, 2]
    ref = np.zeros(3)
    ref[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], p[keep])
    theta, flows = dc_power_flow(net, p)
    assert theta == pytest.approx(list(ref), abs=1e-12)
    # line order: 0-1, 0-2, 2-1
    assert flows[0] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert flows[1] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert flows[2] == pytest.approx(1.0 / 3.0, abs=1e-8)


def balanced_injections(rng, n):
    p = rng.normal(0, 5, n)
    return p - p.mean()


def test_flow_conservation_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = random_network(rng, n_buses=int(rng.integers(2, 7)))
        p = balanced_injections(rng, net.n_buses)
        _, flows = dc_power_flow(net, p)
        back = injections_from_flows(net, flows)
        assert np.allclose(back, p, rtol=1e-8, atol=1e-8)


def test_superposition():
    rng = np.random.default_rng(3)
    for _ in range(8):
        net = random_network(rng, n_buses=5)
        p1 = balanced_injections(rng, 5)
        p2 = balanced_injections(rng, 5)
        t1, f1 = dc_power_flow(net, p1)
        t2, f2 = dc_power_flow(net, p2)
        t12, f12 = dc_power_flow(net, p1 + p2)
        assert np.allclose(f12, f1 + f2, atol=1e-8)
        assert np.allclose(t12, t1 + t2, atol=1e-8)


def test_flows_independent_of_slack_choice():
    rng = np.random.default_rng(4)
    base = random_network(rng, n_buses=5)
    p = balanced_injections(rng, 5)
    flows_by_slack = []
    for slack in range(5):
        buses = tuple(Bus(b.id, b.name, is_slack=(b.id == slack)) for b in base.buses)
        net = Network(buses, base.lines, base.generators, base.renewables)
        _, flows = dc_power_flow(net, p)
        flows_by_slack.append(flows)
    for f in flows_by_slack[1:]:
        assert np.allclose(f, flows_by_slack[0], atol=1e-8)


def test_unbalanced_injection_rejected():
    with pytest.raises(UnbalancedInjection):
        dc_power_flow(two_bus(), [1.0, -0.5])


def test_disconnected_flow_rejected():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 1.0)],
    )
    with pytest.raises(DisconnectedNetwork):
        dc_power_flow(net, [1.0, -1.0, 0.0])


# -- validation -----------------------------------------------------------------


def test_validate_rejects_duplicate_ids():
    net = Network(buses=[Bus(0, is_slack=True), Bus(0)], lines=[])
    with pytest.raises(ValidationError):
        net.validate()


def test_validate_rejects_negative_reactance():
    net = Network(buses=[Bus(0, is_slack=True), Bus(1)], lines=[Line(0, 1, -0.1)])
    with pytest.raises(ValidationError):
        net.validate()


def test_validate_requires_single_slack():
    net = Network(buses=[Bus(0), Bus(1)], lines=[Line(0, 1, 0.1)])
    with pytest.raises(ValidationError):
        net.validate()


NAN = float("nan")
# NaN passed every range test written as `x < 0`
NAN_FIELDS = {
    "generator cost": dict(generators=[Generator(0, NAN, 5.0)]),
    "generator p_max": dict(generators=[Generator(0, 1.0, NAN)]),
    "generator ramp": dict(generators=[Generator(0, 1.0, 5.0, NAN)]),
    "site nameplate": dict(renewables=[RenewableSite(1, NAN)]),
    "base_mva": dict(base_mva=NAN),
}


@pytest.mark.parametrize("field", list(NAN_FIELDS))
def test_validate_rejects_nan(field):
    buses, lines = [Bus(0, is_slack=True), Bus(1)], [Line(0, 1, 0.1)]
    net = Network(buses=buses, lines=lines, **NAN_FIELDS[field])
    with pytest.raises(ValidationError):
        net.validate()


@pytest.mark.parametrize("nameplate, reactance", [(NAN, 0.02), (-5.0, 0.02), (10.0, -0.02)])
def test_with_renewable_node_validates_the_network_it_builds(nameplate, reactance):
    with pytest.raises(ValidationError):
        with_renewable_node(two_bus(), at_bus=1, nameplate=nameplate, line_reactance=reactance)


def test_with_renewable_node_appends_bus_line_site():
    net = two_bus()
    grown = with_renewable_node(net, at_bus=1, nameplate=10.0)
    grown.validate()
    assert grown.n_buses == 3
    assert grown.lines[-1].flow_limit == pytest.approx(12.0)
    assert grown.renewables[-1] == RenewableSite(bus=2, p_max=10.0)
    assert check_connected(grown)
