"""The packet path as it was before it was indexed: linear scans.

These are the reference implementations the indexed lookups in
``repro.net.stack``, ``repro.routing.table`` and ``repro.netfilter`` are
held equal to (see ``test_packet_path_equivalence.py``):

- :func:`is_local_address` scans the stack's interfaces;
- :func:`table_lookup` scans every route of a routing table;
- :func:`run_hook` / :func:`traverse` / :func:`try_apply` walk the
  netfilter chains rule by rule, evaluating each match from its fields
  instead of through the compiled predicates.

They read the live objects (interfaces, routes, rules) and update the
same counters the fast path does, so two identically built worlds, one
driven through each path, must end in identical states.
"""

from repro.net.addressing import ip
from repro.netfilter.chains import HOOK_TABLE_ORDER, PacketContext
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
from repro.netfilter.targets import JumpTarget, Verdict


def is_local_address(stack, addr):
    """Whether ``addr`` belongs to ``stack`` (incl. 127/8), by scanning."""
    address = ip(addr)
    if address.is_loopback:
        return True
    return any(i.address == address for i in stack.interfaces.values())


def table_lookup(table, dst, oif=None):
    """Longest-prefix match by scanning every route of ``table``."""
    destination = ip(dst)
    best = None
    for route in table:
        if destination not in route.prefix:
            continue
        if oif is not None and route.dev != oif:
            continue
        if best is None:
            best = route
            continue
        if route.prefix.prefixlen > best.prefix.prefixlen:
            best = route
        elif route.prefix.prefixlen == best.prefix.prefixlen and route.metric < best.metric:
            best = route
    return best


def rpdb_lookup(rpdb, dst, src=None, mark=0, iif=None, oif=None):
    """The policy walk with :func:`table_lookup` in each matching table."""
    destination = ip(dst)
    source = ip(src) if src is not None else None
    for rule in rpdb.rules():
        if not rule.matches(destination, source, mark, iif):
            continue
        if not rpdb.has_table(rule.table):
            continue
        route = table_lookup(rpdb.table(rule.table), destination, oif=oif)
        if route is not None:
            return route
    return None


def match(m, ctx):
    """Evaluate one match from its fields, honouring inversion."""
    packet = ctx.packet
    kind = type(m)
    if kind is ProtocolMatch:
        result = packet.proto == m.proto
    elif kind is SourceMatch:
        result = packet.src in m.prefix
    elif kind is DestinationMatch:
        result = packet.dst in m.prefix
    elif kind is InInterfaceMatch:
        result = ctx.in_iface == m.name
    elif kind is OutInterfaceMatch:
        result = ctx.out_iface == m.name
    elif kind is MarkMatch:
        result = (packet.mark & m.mask) == (m.mark & m.mask)
    elif kind is XidMatch:
        result = packet.xid == m.xid
    elif kind is SportMatch:
        result = packet.sport == m.port
    elif kind is DportMatch:
        result = packet.dport == m.port
    else:
        raise TypeError(f"no reference for {kind.__name__}")
    return not result if m.invert else result


def try_apply(rule, ctx):
    """If every match passes, bump counters and apply the target."""
    for m in rule.matches:
        if not match(m, ctx):
            return "NOMATCH"
    rule.packets += 1
    rule.bytes += ctx.packet.length
    target = rule.target
    if isinstance(target, JumpTarget):
        verdict = traverse(target.chain, ctx)
        if verdict == "RETURN" or verdict is None:
            return None
        return verdict
    return target.apply(ctx)


def traverse(chain, ctx):
    """Run the packet down ``chain``; built-in chains end in their policy."""
    for rule in chain.rules:
        result = try_apply(rule, ctx)
        if result == "NOMATCH" or result is None:
            continue
        return result
    if chain.policy is not None:
        chain.policy_packets += 1
        return chain.policy
    return None


def run_chains(netfilter, chains, hook, packet, in_iface=None, out_iface=None, now=None):
    """Traverse ``chains`` in order with one context; False means DROP."""
    ctx = PacketContext(packet, hook, in_iface=in_iface, out_iface=out_iface, now=now)
    for chain in chains:
        if traverse(chain, ctx) == Verdict.DROP:
            netfilter.dropped += 1
            return False
    return True


def run_hook(netfilter, hook, packet, in_iface=None, out_iface=None, now=None):
    """Every table registered at ``hook``, in priority order."""
    chains = [netfilter.tables[name].chains[hook] for name in HOOK_TABLE_ORDER[hook]]
    return run_chains(netfilter, chains, hook, packet, in_iface, out_iface, now)


def run_chain(netfilter, table, hook, packet, in_iface=None, out_iface=None, now=None):
    """One table's built-in chain at ``hook``."""
    chain = netfilter.tables[table].chains[hook]
    return run_chains(netfilter, [chain], hook, packet, in_iface, out_iface, now)
