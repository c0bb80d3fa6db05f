"""The indexed packet path against the linear scans it replaced.

Random sequences of writes (routes, interfaces, netfilter rules) are
interleaved with packets and lookups.  After every step the indexed
lookups must give what ``legacy_packet_path`` gives: the same local
address answers, the same route object, the same verdicts and marks,
and the same rule counters, policy counters and LOG entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import PROTO_ICMP, PROTO_UDP
from repro.net.interface import EthernetInterface, PPPInterface
from repro.net.packet import Packet
from repro.net.stack import IPStack
from repro.netfilter.chains import HOOK_TABLE_ORDER, Netfilter, Rule
from repro.netfilter.matches import (
    DestinationMatch,
    DportMatch,
    InInterfaceMatch,
    MarkMatch,
    OutInterfaceMatch,
    ProtocolMatch,
    SourceMatch,
    SportMatch,
    XidMatch,
)
from repro.netfilter.targets import (
    AcceptTarget,
    DropTarget,
    JumpTarget,
    LogTarget,
    MarkTarget,
    ReturnTarget,
)
from repro.routing.rpdb import Rule as PolicyRule
from repro.routing.table import Route
from repro.sim.engine import Simulator
from tests.net import legacy_packet_path as legacy

ADDRESSES = [
    "10.0.0.1", "10.0.0.2", "10.0.0.130", "10.0.1.7", "10.64.0.5", "10.64.0.6",
    "192.168.1.1", "192.168.1.200", "8.8.8.8", "127.0.0.1", "127.9.9.9",
]
DEVICES = ["eth0", "eth1", "ppp0"]
TABLES = ["main", "umts"]
PREFIX_LENGTHS = [0, 8, 16, 24, 25, 32]

addresses = st.sampled_from(ADDRESSES)
devices = st.sampled_from(DEVICES)
prefixes = st.builds(lambda a, n: f"{a}/{n}", addresses, st.sampled_from(PREFIX_LENGTHS))
# Few distinct route prefixes, so equal-prefix ties and replaces are common.
route_prefixes = st.sampled_from([
    "default", "10.0.0.0/8", "10.0.0.0/24", "10.0.0.0/25", "10.0.0.128/25",
    "10.0.0.1/32", "10.64.0.0/16", "192.168.1.0/24",
])

# -- routing and local addresses ----------------------------------------------

route_write_kinds = {
    "route_add": st.tuples(st.sampled_from(TABLES), route_prefixes, devices,
                           st.integers(0, 1), st.booleans()),
    "route_del": st.tuples(st.sampled_from(TABLES), route_prefixes,
                           st.one_of(st.none(), devices)),
    "remove_dev": st.tuples(st.sampled_from(TABLES), devices),
    "purge_dev": st.tuples(devices),
    "configure": st.tuples(devices, addresses, st.sampled_from([8, 24, 32])),
    "configure_p2p": st.tuples(addresses, addresses),
    "remove": st.tuples(devices),
    "add": st.tuples(devices),
}
# Adds outweigh the writes that take routes away, so tables fill up.
route_writes = st.sampled_from(["route_add"] * 4 + sorted(route_write_kinds)).flatmap(
    lambda kind: route_write_kinds[kind].map(lambda args: (kind,) + args))


def _apply_route_write(stack, op):
    kind = op[0]
    rpdb = stack.rpdb
    if kind == "route_add":
        _, table, prefix, dev, metric, replace = op
        try:
            rpdb.table(table).add(Route(prefix, dev, metric=metric), replace=replace)
        except ValueError:
            pass
    elif kind == "route_del":
        _, table, prefix, dev = op
        try:
            rpdb.table(table).delete(prefix, dev=dev)
        except ValueError:
            pass
    elif kind == "remove_dev":
        rpdb.table(op[1]).remove_dev(op[2])
    elif kind == "purge_dev":
        rpdb.purge_dev(op[1])
    elif kind == "configure":
        _, dev, address, plen = op
        if dev in stack.interfaces:
            stack.interfaces[dev].configure(address, plen)
    elif kind == "configure_p2p":
        if "ppp0" in stack.interfaces:
            stack.interfaces["ppp0"].configure_p2p(op[1], op[2])
    elif kind == "remove":
        if op[1] in stack.interfaces:
            stack.remove_interface(op[1])
    elif kind == "add":
        if op[1] not in stack.interfaces:
            kind_of = PPPInterface if op[1] == "ppp0" else EthernetInterface
            stack.add_interface(kind_of(op[1]))


@given(st.lists(route_writes, min_size=10, max_size=30))
@settings(max_examples=60, deadline=None)
def test_local_addresses_and_routes_match_the_scans(ops):
    stack = IPStack(Simulator(), "node")
    for name in DEVICES:
        _apply_route_write(stack, ("add", name))
    stack.rpdb.add_rule(PolicyRule(100, "umts", fwmark=1))
    for op in ops:
        _apply_route_write(stack, op)
        for dst in ADDRESSES:
            assert stack.is_local_address(dst) == legacy.is_local_address(stack, dst)
            for oif in [None] + DEVICES:
                for name in TABLES:
                    table = stack.rpdb.table(name)
                    assert table.lookup(dst, oif=oif) is legacy.table_lookup(table, dst, oif=oif)
                for mark in (0, 1):
                    found = stack.rpdb.lookup(dst, mark=mark, oif=oif)
                    assert found is legacy.rpdb_lookup(stack.rpdb, dst, mark=mark, oif=oif)


# -- netfilter ----------------------------------------------------------------

CHAINS = [(table, hook) for hook, order in HOOK_TABLE_ORDER.items() for table in order]
USER_CHAIN = "slice"

xids = st.sampled_from([0, 510, 511])
ports = st.sampled_from([53, 8999, 9000])
marks = st.sampled_from([0, 1, 2])

match_recipes = st.one_of(
    st.tuples(st.just("xid"), xids, st.booleans()),
    st.tuples(st.just("dport"), ports, st.booleans()),
    st.tuples(st.just("sport"), ports, st.booleans()),
    st.tuples(st.just("dst"), prefixes, st.booleans()),
    st.tuples(st.just("src"), prefixes, st.booleans()),
    st.tuples(st.just("proto"), st.sampled_from([PROTO_UDP, PROTO_ICMP]), st.booleans()),
    st.tuples(st.just("mark"), marks, st.sampled_from([1, 0xFFFFFFFF]), st.booleans()),
    st.tuples(st.just("in"), devices, st.booleans()),
    st.tuples(st.just("out"), devices, st.booleans()),
)
target_recipes = st.one_of(
    st.just(("ACCEPT",)), st.just(("DROP",)), st.just(("RETURN",)), st.just(("LOG",)),
    st.just(("JUMP",)), st.tuples(st.just("MARK"), marks),
)
rule_recipes = st.one_of(
    # §2.3: MARK a slice's packets (optionally to one destination) ...
    st.builds(lambda x, d: ([("xid", x, False)] + ([("dst", d, False)] if d else []),
                            ("MARK", 1)),
              xids, st.one_of(st.none(), prefixes)),
    # ... and DROP every other context's packets on ppp0.
    st.builds(lambda x: ([("out", "ppp0", False), ("xid", x, True)], ("DROP",)), xids),
    st.builds(lambda p, m: ([("dport", p, False)], ("MARK", m)), ports, marks),
    st.tuples(st.lists(match_recipes, max_size=3), target_recipes),
)
chains = st.sampled_from(CHAINS + [("mangle", USER_CHAIN), ("filter", USER_CHAIN)])
packets = st.tuples(addresses, addresses, st.sampled_from([PROTO_UDP, PROTO_ICMP]), ports,
                    ports, xids, marks, st.integers(0, 1400),
                    st.one_of(st.none(), devices), st.one_of(st.none(), devices))
chain_writes = st.one_of(
    st.tuples(st.just("A"), chains, rule_recipes),
    st.tuples(st.just("I"), chains, st.integers(0, 3), rule_recipes),
    st.tuples(st.just("D"), chains, st.integers(0, 3)),
    st.tuples(st.just("F"), chains),
)


def _match(recipe):
    kind, *args, invert = recipe
    cls = {"xid": XidMatch, "dport": DportMatch, "sport": SportMatch,
           "dst": DestinationMatch, "src": SourceMatch, "proto": ProtocolMatch,
           "in": InInterfaceMatch, "out": OutInterfaceMatch}.get(kind)
    if cls is None:
        return MarkMatch(args[0], args[1], invert=invert)
    return cls(args[0], invert=invert)


def _rule(netfilter, table, chain, recipe):
    matches, (target, *args) = recipe
    if target == "JUMP" and chain == USER_CHAIN:
        target = "RETURN"  # a user chain jumping to itself would never end
    make = {
        "ACCEPT": AcceptTarget,
        "DROP": DropTarget,
        "RETURN": ReturnTarget,
        "LOG": lambda: LogTarget("nf: "),
        "JUMP": lambda: JumpTarget(netfilter.table(table).chain(USER_CHAIN)),
        "MARK": lambda: MarkTarget(args[0]),
    }[target]
    return Rule([_match(m) for m in matches], make())


def _apply_chain_write(netfilter, op):
    kind, (table, name) = op[0], op[1]
    chain = netfilter.table(table).chain(name)
    if kind == "A":
        chain.append(_rule(netfilter, table, name, op[2]))
    elif kind == "I":
        chain.insert(_rule(netfilter, table, name, op[3]), op[2])
    elif kind == "D":
        if chain.rules:
            chain.delete(chain.rules[op[2] % len(chain.rules)])
    else:
        chain.flush()


def _state(netfilter):
    state = [netfilter.dropped]
    for table_name in sorted(netfilter.tables):
        for chain_name, chain in sorted(netfilter.tables[table_name].chains.items()):
            state.append((table_name, chain_name, chain.policy_packets))
            for rule in chain.rules:
                entries = list(rule.target.entries) if isinstance(rule.target, LogTarget) else None
                state.append((rule.packets, rule.bytes, entries))
    return state


def _packet(fields):
    dst, src, proto, sport, dport, xid, mark, size = fields[:8]
    packet = Packet(dst, proto=proto, src=src, size=size, sport=sport, dport=dport, xid=xid)
    packet.mark = mark
    return packet


def _traversals(fields):
    """Every hook and split chain the stack runs, as (fast, reference) calls."""
    in_iface, out_iface = fields[8:]
    for hook in sorted(HOOK_TABLE_ORDER):
        yield (lambda nf, p, now, hook=hook: nf.run_hook(hook, p, in_iface, out_iface, now),
               lambda nf, p, now, hook=hook: legacy.run_hook(nf, hook, p, in_iface,
                                                             out_iface, now))
    for table in ("mangle", "filter"):
        yield (lambda nf, p, now, table=table: nf.run_chain(table, "OUTPUT", p, None,
                                                            out_iface, now),
               lambda nf, p, now, table=table: legacy.run_chain(nf, table, "OUTPUT", p, None,
                                                                out_iface, now))


@given(st.lists(chain_writes, min_size=5, max_size=30), st.lists(packets, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_compiled_rules_match_the_interpreter(ops, packet_fields):
    fast, reference = Netfilter(), Netfilter()
    for netfilter in (fast, reference):
        for table in ("mangle", "filter"):
            netfilter.table(table).new_chain(USER_CHAIN)
    now = 0.0
    for op in ops:
        _apply_chain_write(fast, op)
        _apply_chain_write(reference, op)
        for fields in packet_fields:
            for run_fast, run_reference in _traversals(fields):
                now += 1.0
                packet = _packet(fields)
                got = run_fast(fast, packet, now)
                fast_mark, packet.mark = packet.mark, fields[6]
                assert got == run_reference(reference, packet, now)
                assert fast_mark == packet.mark
        assert _state(fast) == _state(reference)
