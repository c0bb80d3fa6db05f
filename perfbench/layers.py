"""Which functions of each ``repro`` layer the traced run wraps.

A layer is a package under ``src/repro``.  Its sites are the public
entry points other layers call, plus the few private methods the event
engine dispatches directly (a link's transmission-done callback, a
process resumption, a modem's serial loop), because work dispatched by
the engine is otherwise billed to ``sim``.  Packages that are not in
:data:`LAYERS` (``obs``, ``vserver``, ``analysis``, ...) are billed to
whichever layer called them.

Probes turn a call into the counts the per-layer metrics need, read
from the call's arguments and result at the layer boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from tracer import COMMAND, COUNT_ONLY, Tracer

#: The layers, in report order.
LAYERS = ("sim", "net", "netfilter", "routing", "ppp", "modem", "umts",
          "vsys", "core", "traffic", "fleet", "testbed")


def _count(counters: Dict[str, float], key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _local_check(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    _count(counters, "net.local_check_ifaces", len(args[0].interfaces))


def _link_send(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    _count(counters, "net.link_backlog", args[0].backlog_packets)
    if result is False:
        _count(counters, "net.link_drops")


def _hook_rules(counters: Dict[str, float], rules: int) -> None:
    _count(counters, "netfilter.hook_rules", rules)
    if rules:
        _count(counters, "netfilter.useful_hooks")


def _run_hook(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    from repro.netfilter.chains import HOOK_TABLE_ORDER

    netfilter, hook = args[0], args[1]
    rules = 0
    for table in HOOK_TABLE_ORDER[hook]:
        chain = netfilter.tables[table].chains.get(hook)
        if chain is not None:
            rules += len(chain.rules)
    _hook_rules(counters, rules)


def _run_chain(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    chain = args[0].tables[args[1]].chains.get(args[2])
    _hook_rules(counters, 0 if chain is None else len(chain.rules))


def _table_lookup(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    _count(counters, "routing.routes_walked", len(args[0]))


_Hook = Tuple[str, Tuple[str, ...], Optional[str], Optional[Callable[..., None]]]


def _h(target: str, *flags: str, inclusive: Optional[str] = None,
       probe: Optional[Callable[..., None]] = None) -> _Hook:
    return target, flags, inclusive, probe


NF_WRITE = "netfilter.write_s"
RT_WRITE = "routing.write_s"
DECODE = "traffic.decode_s"
BUILD = "testbed.build_s"

#: layer → its hook sites.
HOOKS: Dict[str, List[_Hook]] = {
    "sim": [
        _h("repro.sim.engine:Simulator.run"),
        _h("repro.sim.engine:Simulator.step"),
        _h("repro.sim.process:Process._resume"),
        _h("repro.sim.process:Process._throw"),
    ],
    "net": [
        _h("repro.net.stack:IPStack.send"),
        _h("repro.net.stack:IPStack.receive"),
        _h("repro.net.stack:IPStack.is_local_address", probe=_local_check),
        _h("repro.net.interface:Interface.transmit"),
        _h("repro.net.interface:LoopbackInterface.transmit"),
        _h("repro.net.interface:Interface.deliver"),
        _h("repro.net.link:Channel.send", probe=_link_send),
        _h("repro.net.link:Channel._transmission_done"),
        _h("repro.net.socket:UDPSocket.sendto"),
        _h("repro.net.socket:UDPSocket.deliver"),
    ],
    "netfilter": [
        _h("repro.netfilter.chains:Netfilter.run_hook", probe=_run_hook),
        _h("repro.netfilter.chains:Netfilter.run_chain", probe=_run_chain),
        _h("repro.netfilter.chains:Chain.append", inclusive=NF_WRITE),
        _h("repro.netfilter.chains:Chain.insert", inclusive=NF_WRITE),
        _h("repro.netfilter.chains:Chain.delete", inclusive=NF_WRITE),
        _h("repro.netfilter.chains:Chain.flush", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.run", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.append", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.insert", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.delete", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.delete_spec", inclusive=NF_WRITE),
        _h("repro.netfilter.iptables:Iptables.flush", inclusive=NF_WRITE),
    ],
    "routing": [
        _h("repro.routing.rpdb:RoutingPolicyDatabase.lookup"),
        _h("repro.routing.table:RoutingTable.lookup", probe=_table_lookup),
        _h("repro.routing.rpdb:Rule.matches", COUNT_ONLY),
        _h("repro.routing.table:RoutingTable.add", inclusive=RT_WRITE),
        _h("repro.routing.table:RoutingTable.delete", inclusive=RT_WRITE),
        _h("repro.routing.table:RoutingTable.flush", inclusive=RT_WRITE),
        _h("repro.routing.table:RoutingTable.remove_dev", inclusive=RT_WRITE),
        _h("repro.routing.rpdb:RoutingPolicyDatabase.add_rule", inclusive=RT_WRITE),
        _h("repro.routing.rpdb:RoutingPolicyDatabase.delete_rule", inclusive=RT_WRITE),
        _h("repro.routing.rpdb:RoutingPolicyDatabase.purge_dev", inclusive=RT_WRITE),
        _h("repro.routing.iproute2:IpRoute2.run", inclusive=RT_WRITE),
        _h("repro.routing.iproute2:IpRoute2.route_add", inclusive=RT_WRITE),
        _h("repro.routing.iproute2:IpRoute2.route_del", inclusive=RT_WRITE),
        _h("repro.routing.iproute2:IpRoute2.rule_add", inclusive=RT_WRITE),
        _h("repro.routing.iproute2:IpRoute2.rule_del", inclusive=RT_WRITE),
    ],
    "ppp": [
        _h("repro.ppp.daemon:Pppd.start"),
        _h("repro.ppp.daemon:Pppd.disconnect"),
        _h("repro.ppp.daemon:Pppd.carrier_lost"),
        _h("repro.ppp.daemon:Pppd.receive_frame"),
        _h("repro.ppp.daemon:_TransportChannel.send"),
        _h("repro.ppp.fsm:NegotiationFsm.open"),
        _h("repro.ppp.fsm:NegotiationFsm.close"),
        _h("repro.ppp.fsm:NegotiationFsm.receive"),
        _h("repro.ppp.hdlc:hdlc_encode"),
        _h("repro.ppp.hdlc:hdlc_decode"),
    ],
    "modem": [
        _h("repro.modem.serial:SerialPort.write"),
        _h("repro.modem.serial:SerialPort._modem_write"),
        _h("repro.modem.device:Modem3G._serial_loop"),
        _h("repro.modem.comgt:Comgt.run"),
        _h("repro.modem.wvdial:Wvdial.run"),
        _h("repro.modem.wvdial:Wvdial.hangup"),
        _h("repro.modem.wvdial:SerialPppTransport.send_frame"),
        _h("repro.modem.wvdial:SerialPppTransport._read_loop"),
    ],
    "umts": [
        _h("repro.umts.rab:RabController._evaluate"),
        _h("repro.umts.rab:RabController._apply_upgrade"),
        _h("repro.umts.rab:RabController._apply_downgrade"),
        _h("repro.umts.rab:RabController.renegotiate"),
        _h("repro.umts.datacall:DataCall.send_uplink"),
        _h("repro.umts.datacall:DataCall._uplink_deliver"),
        _h("repro.umts.datacall:DataCall._downlink_deliver"),
        _h("repro.umts.datacall:DataCall.hangup"),
        _h("repro.umts.datacall:_SessionTransport.send_frame"),
        _h("repro.umts.operator:UmtsOperator.open_data_call"),
        _h("repro.umts.operator:UmtsOperator.close_data_call"),
        _h("repro.umts.operator:UmtsOperator.drop_call"),
        _h("repro.umts.ggsn:Ggsn.record_flow"),
        _h("repro.umts.ggsn:Ggsn.is_established"),
    ],
    "vsys": [
        _h("repro.vsys.daemon:VsysConnection.call"),
        _h("repro.vsys.daemon:VsysConnection.call_blocking", COMMAND),
        _h("repro.vsys.daemon:VsysDaemon.open"),
        _h("repro.vsys.daemon:VsysDaemon._backend_loop"),
        _h("repro.vsys.pipes:FifoPair.send_request"),
        _h("repro.vsys.pipes:FifoPair.send_response"),
    ],
    "core": [
        _h("repro.core.backend:UmtsBackend.handler", COMMAND),
        _h("repro.core.connection:UmtsConnectionManager.connect"),
        _h("repro.core.connection:UmtsConnectionManager.disconnect"),
        _h("repro.core.connection:UmtsConnectionManager.status_lines"),
        _h("repro.core.isolation:IsolationManager.install"),
        _h("repro.core.isolation:IsolationManager.remove"),
        _h("repro.core.isolation:IsolationManager.add_destination"),
        _h("repro.core.isolation:IsolationManager.del_destination"),
        _h("repro.core.lock:InterfaceLock.acquire"),
        _h("repro.core.lock:InterfaceLock.release"),
    ],
    "traffic": [
        _h("repro.traffic.sender:ItgSender.start"),
        _h("repro.traffic.sender:ItgSender._emit_one"),
        _h("repro.traffic.sender:ItgSender._on_receive"),
        _h("repro.traffic.receiver:ItgReceiver._on_receive"),
        _h("repro.traffic.decoder:ItgDecoder.summary", inclusive=DECODE),
        _h("repro.traffic.decoder:ItgDecoder.bitrate_kbps", inclusive=DECODE),
        _h("repro.traffic.decoder:ItgDecoder.owd_series", inclusive=DECODE),
        _h("repro.traffic.decoder:ItgDecoder.jitter_series", inclusive=DECODE),
        _h("repro.traffic.decoder:ItgDecoder.loss_series", inclusive=DECODE),
        _h("repro.traffic.decoder:ItgDecoder.rtt_series", inclusive=DECODE),
    ],
    "fleet": [
        _h("repro.fleet.controller:FleetController.request"),
        _h("repro.fleet.controller:FleetController.release"),
        _h("repro.fleet.controller:FleetController._pump"),
        _h("repro.fleet.campaign:GroupRun.execute"),
        _h("repro.fleet.campaign:GroupRun.report"),
        _h("repro.fleet.campaign:GroupRun._experiment"),
        _h("repro.fleet.campaign:GroupRun._attempt"),
        _h("repro.fleet.testbed:FleetGroup.__init__", inclusive=BUILD),
        _h("repro.fleet.testbed:FleetGroup.call_for"),
    ],
    "testbed": [
        _h("repro.testbed.scenarios:OneLabScenario.__init__", inclusive=BUILD),
        _h("repro.testbed.planetlab:PlanetLabNode.__init__"),
        _h("repro.testbed.planetlab:PlanetLabNode.attach_lan"),
        _h("repro.testbed.planetlab:PlanetLabNode.create_sliver"),
        _h("repro.testbed.planetlab:PlanetLabNode.install_umts_card"),
        _h("repro.testbed.planetlab:PlanetLabNode.authorize_umts"),
        _h("repro.testbed.internet:Internet.attach"),
        _h("repro.testbed.experiment:run_characterization"),
    ],
}


def build_tracer(span_cap: int = 1_000_000) -> Tracer:
    """A tracer holding every site of :data:`HOOKS` (not yet installed)."""
    from repro.net.packet import Packet

    tracer = Tracer(Packet, "repro", span_cap=span_cap)
    for layer in LAYERS:
        for target, flags, inclusive, probe in HOOKS[layer]:
            tracer.add_site(layer, target, flags, inclusive, probe)
    return tracer


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: per-layer metric → unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "net.stack_calls": "count",
    "net.local_checks": "count",
    "net.ifaces_per_local_check": "ifaces/check",
    "net.link_sends": "count",
    "net.link_drops": "count",
    "net.link_backlog_mean": "packets",
    "netfilter.hook_calls": "count",
    "netfilter.rules_per_hook": "rules/hook",
    "netfilter.useful_hook_ratio": "ratio",
    "netfilter.rule_writes": "count",
    "netfilter.write_s": "s",
    "routing.lookups": "count",
    "routing.routes_per_lookup": "routes/lookup",
    "routing.rules_per_lookup": "rules/lookup",
    "routing.writes": "count",
    "routing.write_s": "s",
    "ppp.frames_rx": "count",
    "modem.serial_ops": "count",
    "vsys.calls": "count",
    "umts.rab_renegotiations": "count",
    "traffic.decode_s": "s",
    "fleet.lease_requests": "count",
    "fleet.datacall_useful_ratio": "ratio",
    "testbed.build_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.bookkeeping_share": "ratio",
    "trace.accounting_error": "ratio",
    "trace.residual_per_span_s": "s",
    "trace.spans": "count",
    "trace.hooks_missing": "count",
}

#: the per-layer counts that must repeat exactly across traced runs.
DETERMINISTIC_COUNTS = ("sim.events", "net.stack_calls", "net.local_checks",
                        "net.link_sends", "net.link_drops", "netfilter.hook_calls",
                        "netfilter.rule_writes", "routing.lookups", "routing.writes",
                        "ppp.frames_rx", "modem.serial_ops", "vsys.calls",
                        "umts.rab_renegotiations", "fleet.lease_requests")


def layer_metrics(tracer: Tracer, events: int) -> Dict[str, float]:
    """The per-layer metrics one traced run gives.

    ``events`` is the engine's ``engine.events_dispatched`` count.  The
    two that need more than the tracer, ``trace.overhead_s`` and
    ``fleet.datacall_useful_ratio``, are added by the caller.
    """
    c = tracer.counters.get
    calls = tracer.calls
    local_checks = calls("repro.net.stack:IPStack.is_local_address")
    link_sends = calls("repro.net.link:Channel.send")
    hooks = calls("repro.netfilter.chains:Netfilter.run_hook",
                  "repro.netfilter.chains:Netfilter.run_chain")
    lookups = calls("repro.routing.rpdb:RoutingPolicyDatabase.lookup")
    leases = calls("repro.fleet.controller:FleetController.request")
    self_s = tracer.self_by_layer()
    attributed = sum(self_s.values())
    values = {
        "sim.events": events,
        "net.stack_calls": calls("repro.net.stack:IPStack.send",
                                 "repro.net.stack:IPStack.receive"),
        "net.local_checks": local_checks,
        "net.ifaces_per_local_check": _ratio(c("net.local_check_ifaces", 0), local_checks),
        "net.link_sends": link_sends,
        "net.link_drops": c("net.link_drops", 0),
        "net.link_backlog_mean": _ratio(c("net.link_backlog", 0), link_sends),
        "netfilter.hook_calls": hooks,
        "netfilter.rules_per_hook": _ratio(c("netfilter.hook_rules", 0), hooks),
        "netfilter.useful_hook_ratio": _ratio(c("netfilter.useful_hooks", 0), hooks),
        "netfilter.rule_writes": calls("repro.netfilter.chains:Chain.append",
                                       "repro.netfilter.chains:Chain.insert",
                                       "repro.netfilter.chains:Chain.delete"),
        "netfilter.write_s": tracer.inclusive.get(NF_WRITE, 0.0),
        "routing.lookups": lookups,
        "routing.routes_per_lookup": _ratio(c("routing.routes_walked", 0), lookups),
        "routing.rules_per_lookup": _ratio(calls("repro.routing.rpdb:Rule.matches"), lookups),
        "routing.writes": calls("repro.routing.table:RoutingTable.add",
                                "repro.routing.table:RoutingTable.delete",
                                "repro.routing.rpdb:RoutingPolicyDatabase.add_rule",
                                "repro.routing.rpdb:RoutingPolicyDatabase.delete_rule"),
        "routing.write_s": tracer.inclusive.get(RT_WRITE, 0.0),
        "ppp.frames_rx": calls("repro.ppp.daemon:Pppd.receive_frame"),
        "modem.serial_ops": calls("repro.modem.serial:SerialPort.write",
                                  "repro.modem.serial:SerialPort._modem_write"),
        "vsys.calls": calls("repro.vsys.daemon:VsysConnection.call"),
        "umts.rab_renegotiations": calls("repro.umts.rab:RabController._apply_upgrade",
                                         "repro.umts.rab:RabController._apply_downgrade",
                                         "repro.umts.rab:RabController.renegotiate"),
        "traffic.decode_s": tracer.inclusive.get(DECODE, 0.0),
        "fleet.lease_requests": leases,
        "testbed.build_s": tracer.inclusive.get(BUILD, 0.0),
        "trace.unattributed_share": _ratio(tracer.root_self_s, tracer.root_s),
        "trace.bookkeeping_share": _ratio(tracer.overhead_in_root_s, tracer.root_s),
        "trace.accounting_error": _ratio(
            abs(attributed + tracer.overhead_in_root_s + tracer.root_self_s - tracer.root_s),
            tracer.root_s),
        "trace.residual_per_span_s": tracer.residual_s,
        "trace.spans": tracer.span_count + tracer.spans_dropped,
        "trace.hooks_missing": len(tracer.missing),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return values
