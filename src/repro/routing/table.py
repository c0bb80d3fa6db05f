"""Routing tables with longest-prefix-match lookup."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addressing import (
    AddressLike,
    IPv4Address,
    IPv4Network,
    NetworkLike,
    ip,
    network,
    prefix_bits,
)


class Route:
    """One routing-table entry.

    Mirrors the fields of an ``ip route`` entry that matter here:
    destination ``prefix``, optional gateway ``via``, output device
    ``dev``, optional preferred source address ``src`` and a ``metric``
    used to break ties between equal-length prefixes.
    """

    __slots__ = ("prefix", "via", "dev", "src", "metric")

    def __init__(
        self,
        prefix: NetworkLike,
        dev: str,
        via: Optional[AddressLike] = None,
        src: Optional[AddressLike] = None,
        metric: int = 0,
    ):
        self.prefix: IPv4Network = network(prefix)
        self.dev = dev
        self.via: Optional[IPv4Address] = ip(via) if via is not None else None
        self.src: Optional[IPv4Address] = ip(src) if src is not None else None
        self.metric = metric

    def key(self) -> tuple:
        """Identity key used for replace/delete semantics."""
        return (self.prefix, self.dev, self.via, self.metric)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Route) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = ["default" if self.prefix.prefixlen == 0 else str(self.prefix)]
        if self.via is not None:
            parts.append(f"via {self.via}")
        parts.append(f"dev {self.dev}")
        if self.src is not None:
            parts.append(f"src {self.src}")
        if self.metric:
            parts.append(f"metric {self.metric}")
        return " ".join(parts)


class RoutingTable:
    """A named list of routes with longest-prefix-match lookup.

    Lookups go through an index rebuilt on the first lookup after a
    write: the prefix lengths present, longest first, each with a dict
    from ``int(network) & mask`` to that prefix's routes in install
    order.  A lookup probes one dict per length.
    """

    def __init__(self, name: str):
        self.name = name
        self._routes: List[Route] = []
        self._index: Optional[List[Tuple[int, Dict[int, List[Route]]]]] = None

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)

    def add(self, route: Route, replace: bool = False) -> None:
        """Install a route.

        Duplicate (same prefix/dev/via/metric) installs raise unless
        ``replace`` is set, mirroring ``ip route add`` vs ``replace``.
        A replaced route moves to the end of the install order.
        """
        existing = [r for r in self._routes if r.key() == route.key()]
        if existing:
            if not replace:
                raise ValueError(f"route already exists: {route!r}")
            for r in existing:
                self._routes.remove(r)
        self._routes.append(route)
        self._index = None

    def delete(
        self,
        prefix: NetworkLike,
        dev: Optional[str] = None,
        via: Optional[AddressLike] = None,
    ) -> None:
        """Remove routes matching the given prefix (and dev/via if given)."""
        target = network(prefix)
        gateway = ip(via) if via is not None else None
        survivors = []
        removed = 0
        for route in self._routes:
            if (
                route.prefix == target
                and (dev is None or route.dev == dev)
                and (gateway is None or route.via == gateway)
            ):
                removed += 1
            else:
                survivors.append(route)
        if not removed:
            raise ValueError(f"no such route: {prefix}")
        self._routes = survivors
        self._index = None

    def flush(self) -> None:
        """Remove every route."""
        self._routes.clear()
        self._index = None

    def remove_dev(self, dev: str) -> int:
        """Remove all routes through ``dev`` (interface went away)."""
        before = len(self._routes)
        self._routes = [r for r in self._routes if r.dev != dev]
        self._index = None
        return before - len(self._routes)

    def lookup(self, dst: AddressLike, oif: Optional[str] = None) -> Optional[Route]:
        """Longest-prefix match; ties broken by lowest metric, then
        first installed (Linux picks the first found; we keep it
        deterministic).  ``oif`` restricts candidates to one output
        device (the SO_BINDTODEVICE-constrained lookup)."""
        value = int(ip(dst))
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        for mask, prefixes in index:
            routes = prefixes.get(value & mask)
            if routes is None:
                continue
            best: Optional[Route] = None
            for route in routes:
                if oif is not None and route.dev != oif:
                    continue
                if best is None or route.metric < best.metric:
                    best = route
            if best is not None:
                return best
        return None

    def _build_index(self) -> List[Tuple[int, Dict[int, List[Route]]]]:
        by_length: Dict[int, Tuple[int, Dict[int, List[Route]]]] = {}
        for route in self._routes:
            net, mask = prefix_bits(route.prefix)
            _, prefixes = by_length.setdefault(route.prefix.prefixlen, (mask, {}))
            prefixes.setdefault(net, []).append(route)
        return [by_length[length] for length in sorted(by_length, reverse=True)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoutingTable {self.name!r} routes={len(self._routes)}>"
