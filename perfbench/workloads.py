"""The four workloads: what one iteration runs and how its output is checked.

Each workload turns ``--seed`` into its inputs once (:meth:`inputs`),
then runs iterations on them.  An iteration builds its own testbed, so
every iteration is the same deterministic simulation and must produce
the same digests.  At the paper's seed (3) the characterization digests
must also equal the golden values the repository's determinism test
pins.

Every call into ``repro`` goes through a module attribute looked up at
call time, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import functools
import hashlib
import random
import time
from typing import Any, Dict, List, Optional

#: sha256 of every observable output of the seed-3, 120 s runs, as
#: pinned by ``tests/bench/test_determinism.py`` (kind, path) → digest.
GOLDEN_SEED = 3
GOLDEN_DIGESTS = {
    ("voip", "umts"): "8b69c67747142035cf9b025f6be2b09f69c8581fece97de8fcb8d12d77567891",
    ("voip", "ethernet"): "2e32d7ec0614e77a2e0ac3cf1af85a267e10f09139ee1a5682d1f0d7bb9d9dfe",
    ("cbr", "umts"): "4e897b0200b0a16de49598e2f47afb5bc4ce7779d45142422cf3c57aab622a88",
    ("cbr", "ethernet"): "56b0b8261651a0e2102c7d43d8669eb087a2742e24ae1cef13f11a5cda587b35",
}

PAPER_DURATION = 120.0
FLEET_NODES = 64
SESSIONS = 300
SESSION_DESTINATIONS = 4  # start + 4 add + status + 4 del + stop = 11 commands
#: RFC 2544 benchmarking range: addresses nothing else in the testbed uses.
DESTINATION_NET = (198 << 24) | (18 << 16)
DESTINATION_HOSTS = 1 << 17


class Outcome:
    """What one iteration produced, before it is checked."""

    def __init__(self) -> None:
        #: label → digest, compared against the expected digests.
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.packets = 0
        self.datacalls = 0
        self.datacall_attempts = 0
        self.sessions = 0
        #: host seconds per vsys command, where the workload times them.
        self.command_s: List[float] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


class Workload:
    name = ""

    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any) -> Any:
        """Build the testbed one iteration starts from (the set-up probe)."""
        raise NotImplementedError

    def iteration(self, inputs: Any, metrics: Any = None) -> Outcome:
        raise NotImplementedError

    def expected_digests(self, seed: int) -> Optional[Dict[str, str]]:
        """Digests known in advance for ``seed``; None = first iteration's."""
        return None


class PaperPair(Workload):
    """One paper workload on both paths, with the summary and figures decoded."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.name = f"paper_{kind}"

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"seed": seed, "duration": PAPER_DURATION}

    def setup(self, inputs: Dict[str, Any]) -> Any:
        from repro.testbed import scenarios

        return [scenarios.OneLabScenario(seed=inputs["seed"]) for _ in range(2)]

    def iteration(self, inputs: Dict[str, Any], metrics: Any = None) -> Outcome:
        from repro.bench import determinism
        from repro.testbed import experiment, scenarios
        from repro.traffic import flows

        spec_fn = {"voip": flows.voip_g711, "cbr": flows.cbr}[self.kind]
        outcome = Outcome()
        for path in (experiment.PATH_UMTS, experiment.PATH_ETHERNET):
            outcome.attempted += 1
            scenario = scenarios.OneLabScenario(seed=inputs["seed"])
            scenario.sim.metrics = metrics
            try:
                result = experiment.run_characterization(
                    spec_fn(duration=inputs["duration"]),
                    path=path,
                    seed=inputs["seed"],
                    scenario=scenario,
                )
            except experiment.ExperimentError as exc:
                outcome.fail(f"{path}: {exc}")
                continue
            # run_digest decodes the summary and all four figure series.
            outcome.digests[path] = determinism.run_digest(result)
            outcome.packets += len(result.sender.log.sent)
            if path == experiment.PATH_UMTS:
                outcome.datacalls += scenario.operator.sessions_closed
                outcome.datacall_attempts += 1
                outcome.sessions += 1
        return outcome

    def expected_digests(self, seed: int) -> Optional[Dict[str, str]]:
        if seed != GOLDEN_SEED:
            return None
        return {path: digest for (kind, path), digest in GOLDEN_DIGESTS.items()
                if kind == self.kind}


class FleetGroupRun(Workload):
    """One 64-node fleet group, run to quiescence."""

    name = "fleet_group"

    def inputs(self, seed: int) -> Any:
        from repro.fleet import spec

        return spec.FleetSpec(nodes=FLEET_NODES, group_size=FLEET_NODES, duration=1.0,
                              stagger=4.0, drain=1.0, seed=seed)

    def setup(self, inputs: Any) -> Any:
        from repro.fleet import campaign

        return campaign.GroupRun(inputs, 0)

    def iteration(self, inputs: Any, metrics: Any = None) -> Outcome:
        from repro.fleet import campaign

        report = campaign.run_group(inputs, 0, metrics=metrics)
        outcome = Outcome()
        outcome.digests["report"] = report["digest"]
        if not (report["clean"] and report["finished"]):
            outcome.attempted += 1
            outcome.fail(f"group not clean/finished: clean={report['clean']} "
                         f"finished={report['finished']}")
        for record in report["experiments"]:
            outcome.attempted += 1
            if record["outcome"] != "completed":
                outcome.fail(f"{record['experiment']}: {record['outcome']}")
                continue
            outcome.datacalls += 1
            outcome.sessions += record["attempts"]
            outcome.packets += record["summary"]["packets_sent"]
        outcome.datacall_attempts = sum(r["attempts"] for r in report["experiments"])
        return outcome


class UmtsSessions(Workload):
    """Closed loop, one client: start, add K, status, del K, stop; repeated."""

    name = "umts_sessions"

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        sessions = []
        for _ in range(SESSIONS):
            hosts = rng.sample(range(1, DESTINATION_HOSTS - 1), SESSION_DESTINATIONS)
            sessions.append([_dotted(DESTINATION_NET + host) for host in hosts])
        return {"seed": seed, "sessions": sessions}

    def setup(self, inputs: Dict[str, Any]) -> Any:
        from repro.testbed import scenarios

        scenario = scenarios.OneLabScenario(seed=inputs["seed"])
        return scenario, scenario.umts_command()

    def iteration(self, inputs: Dict[str, Any], metrics: Any = None) -> Outcome:
        from repro.testbed import scenarios

        scenario = scenarios.OneLabScenario(seed=inputs["seed"])
        scenario.sim.metrics = metrics
        umts = scenario.umts_command()
        outcome = Outcome()
        digest = hashlib.sha256()
        clock = time.perf_counter
        command_s = outcome.command_s
        for destinations in inputs["sessions"]:
            steps = ([("start", umts.start_blocking)]
                     + [(f"add {d}", functools.partial(umts.add_destination_blocking, d))
                        for d in destinations]
                     + [("status", umts.status_blocking)]
                     + [(f"del {d}", functools.partial(umts.del_destination_blocking, d))
                        for d in destinations]
                     + [("stop", umts.stop_blocking)])
            session_ok = True
            for command, call in steps:
                outcome.attempted += 1
                started = clock()
                result = call()
                command_s.append(clock() - started)
                digest.update(repr((command, result.code, result.lines,
                                    scenario.sim.now)).encode())
                if not result.ok:
                    session_ok = False
                    outcome.fail(f"umts {command}: {result.text}")
            outcome.sessions += session_ok
        umts.close()
        outcome.datacalls = scenario.operator.sessions_closed
        outcome.datacall_attempts = len(inputs["sessions"])
        outcome.digests["sessions"] = digest.hexdigest()
        return outcome


def _dotted(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperPair("voip"), PaperPair("cbr"), FleetGroupRun(), UmtsSessions())
}
