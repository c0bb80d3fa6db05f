"""Unit tests for routing tables."""

import pytest

from repro.routing.table import Route, RoutingTable


def test_longest_prefix_wins():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    table.add(Route("10.1.0.0/16", "eth1"))
    assert table.lookup("10.1.2.3").dev == "eth1"
    assert table.lookup("10.2.2.3").dev == "eth0"


def test_default_route_matches_everything():
    table = RoutingTable("main")
    table.add(Route("default", "eth0", via="10.0.0.1"))
    assert table.lookup("8.8.8.8").dev == "eth0"


def test_no_match_returns_none():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    assert table.lookup("192.168.1.1") is None


def test_metric_breaks_ties():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0", metric=10))
    table.add(Route("10.0.0.0/8", "eth1", metric=5))
    assert table.lookup("10.1.1.1").dev == "eth1"


def test_equal_metric_tie_goes_to_first_installed():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0", metric=5))
    table.add(Route("10.0.0.0/8", "eth1", metric=5))
    assert table.lookup("10.1.1.1").dev == "eth0"


def test_replace_moves_route_to_end_of_install_order():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0", metric=5))
    table.add(Route("10.0.0.0/8", "eth1", metric=5))
    table.add(Route("10.0.0.0/8", "eth0", metric=5, src="10.0.0.9"), replace=True)
    assert [r.dev for r in table] == ["eth1", "eth0"]
    assert table.lookup("10.1.1.1").dev == "eth1"


def test_duplicate_add_rejected():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    with pytest.raises(ValueError):
        table.add(Route("10.0.0.0/8", "eth0"))


def test_replace_overwrites():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    table.add(Route("10.0.0.0/8", "eth0", src="10.0.0.9"), replace=True)
    assert len(table) == 1
    assert str(table.lookup("10.1.1.1").src) == "10.0.0.9"


def test_delete_by_prefix():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    table.delete("10.0.0.0/8")
    assert len(table) == 0


def test_delete_respects_dev_filter():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    table.add(Route("10.0.0.0/8", "eth1", metric=1))
    table.delete("10.0.0.0/8", dev="eth1")
    assert len(table) == 1
    assert table.lookup("10.1.1.1").dev == "eth0"


def test_delete_missing_raises():
    table = RoutingTable("main")
    with pytest.raises(ValueError):
        table.delete("10.0.0.0/8")


def test_flush():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "eth0"))
    table.add(Route("default", "eth1"))
    table.flush()
    assert len(table) == 0


def test_remove_dev():
    table = RoutingTable("main")
    table.add(Route("10.0.0.0/8", "ppp0"))
    table.add(Route("default", "eth0"))
    assert table.remove_dev("ppp0") == 1
    assert table.lookup("10.1.1.1").dev == "eth0"


def test_oif_constrained_lookup():
    table = RoutingTable("main")
    table.add(Route("default", "eth0", via="10.0.0.1"))
    table.add(Route("default", "ppp0", metric=10))
    assert table.lookup("8.8.8.8").dev == "eth0"
    assert table.lookup("8.8.8.8", oif="ppp0").dev == "ppp0"
    assert table.lookup("8.8.8.8", oif="wlan0") is None


def test_host_route_from_bare_address():
    table = RoutingTable("main")
    table.add(Route("10.9.9.9", "ppp0"))
    assert table.lookup("10.9.9.9").dev == "ppp0"
    assert table.lookup("10.9.9.8") is None


def test_route_repr_readable():
    route = Route("default", "eth0", via="10.0.0.1", src="10.0.0.5", metric=3)
    text = repr(route)
    assert text.startswith("default via 10.0.0.1 dev eth0")
    assert "src 10.0.0.5" in text and "metric 3" in text
