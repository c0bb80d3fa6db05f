"""Rule matches.

Every match supports inversion (iptables ``!``).  The
:class:`XidMatch` models the VNET+ extension PlanetLab added so
iptables can select packets by the VServer context (slice) that
generated them — the feature §2.3 of the paper builds on.

A match is compiled once, when its rule is built: :meth:`Match.predicate`
returns one callable with the match's fields bound in and the inversion
folded in.  Matches are never changed after construction, so the
compiled form needs no invalidation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.net.addressing import IPv4Network, NetworkLike, network, prefix_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netfilter.chains import PacketContext

#: A compiled test over one hook traversal's context.
Predicate = Callable[["PacketContext"], bool]


class Match:
    """Base class: a predicate over (packet, hook context).

    Subclasses implement :meth:`_compile`, returning the bare
    (un-inverted) test.
    """

    def __init__(self, invert: bool = False):
        self.invert = invert

    def _compile(self) -> Predicate:
        raise NotImplementedError

    def predicate(self) -> Predicate:
        """The match as one callable, honouring inversion."""
        test = self._compile()
        if self.invert:
            return lambda ctx: not test(ctx)
        return test

    def matches(self, ctx: "PacketContext") -> bool:
        """Apply the predicate, honouring inversion."""
        return self.predicate()(ctx)

    def _bang(self) -> str:
        return "! " if self.invert else ""


class ProtocolMatch(Match):
    """``-p udp`` etc. (by protocol number)."""

    def __init__(self, proto: int, invert: bool = False):
        super().__init__(invert)
        self.proto = proto

    def _compile(self) -> Predicate:
        proto = self.proto
        return lambda ctx: ctx.packet.proto == proto

    def __repr__(self) -> str:
        return f"{self._bang()}-p {self.proto}"


class SourceMatch(Match):
    """``-s <prefix>``."""

    def __init__(self, prefix: NetworkLike, invert: bool = False):
        super().__init__(invert)
        self.prefix: IPv4Network = network(prefix)

    def _compile(self) -> Predicate:
        net, mask = prefix_bits(self.prefix)
        return lambda ctx: int(ctx.packet.src) & mask == net

    def __repr__(self) -> str:
        return f"{self._bang()}-s {self.prefix}"


class DestinationMatch(Match):
    """``-d <prefix>``."""

    def __init__(self, prefix: NetworkLike, invert: bool = False):
        super().__init__(invert)
        self.prefix: IPv4Network = network(prefix)

    def _compile(self) -> Predicate:
        net, mask = prefix_bits(self.prefix)
        return lambda ctx: int(ctx.packet.dst) & mask == net

    def __repr__(self) -> str:
        return f"{self._bang()}-d {self.prefix}"


class InInterfaceMatch(Match):
    """``-i <iface>`` (valid in PREROUTING/INPUT/FORWARD)."""

    def __init__(self, name: str, invert: bool = False):
        super().__init__(invert)
        self.name = name

    def _compile(self) -> Predicate:
        name = self.name
        return lambda ctx: ctx.in_iface == name

    def __repr__(self) -> str:
        return f"{self._bang()}-i {self.name}"


class OutInterfaceMatch(Match):
    """``-o <iface>`` (valid in OUTPUT/FORWARD/POSTROUTING)."""

    def __init__(self, name: str, invert: bool = False):
        super().__init__(invert)
        self.name = name

    def _compile(self) -> Predicate:
        name = self.name
        return lambda ctx: ctx.out_iface == name

    def __repr__(self) -> str:
        return f"{self._bang()}-o {self.name}"


class MarkMatch(Match):
    """``-m mark --mark value[/mask]``."""

    def __init__(self, mark: int, mask: int = 0xFFFFFFFF, invert: bool = False):
        super().__init__(invert)
        self.mark = mark
        self.mask = mask

    def _compile(self) -> Predicate:
        mask = self.mask
        wanted = self.mark & mask
        return lambda ctx: ctx.packet.mark & mask == wanted

    def __repr__(self) -> str:
        return f"-m mark {self._bang()}--mark {self.mark:#x}/{self.mask:#x}"


class XidMatch(Match):
    """``-m xid --xid N`` — the VNET+ slice-context match.

    Matches packets whose generating socket belonged to VServer context
    ``xid``.  Root-context packets have xid 0.
    """

    def __init__(self, xid: int, invert: bool = False):
        super().__init__(invert)
        self.xid = xid

    def _compile(self) -> Predicate:
        xid = self.xid
        return lambda ctx: ctx.packet.xid == xid

    def __repr__(self) -> str:
        return f"-m xid {self._bang()}--xid {self.xid}"


class SportMatch(Match):
    """``--sport N``."""

    def __init__(self, port: int, invert: bool = False):
        super().__init__(invert)
        self.port = port

    def _compile(self) -> Predicate:
        port = self.port
        return lambda ctx: ctx.packet.sport == port

    def __repr__(self) -> str:
        return f"{self._bang()}--sport {self.port}"


class DportMatch(Match):
    """``--dport N``."""

    def __init__(self, port: int, invert: bool = False):
        super().__init__(invert)
        self.port = port

    def _compile(self) -> Predicate:
        port = self.port
        return lambda ctx: ctx.packet.dport == port

    def __repr__(self) -> str:
        return f"{self._bang()}--dport {self.port}"
