"""The benchmark's three workloads.

Each workload is closed-loop: one host task issues the next operation
after the previous one completes (or, for the fleet campaign, keeps a
capped number of pod units in flight).  A workload has four steps:

* ``setup(seed)`` builds the world (cluster, Manager, pods launched) —
  timed as ``setup_s``;
* ``run(world)`` drives the simulation — timed as ``wall_s``;
* ``baseline(world)`` runs the same world with no checkpoint, restart
  or migration — the plain-run reference of ``ckpt.host_overhead_s``;
* ``evaluate(world)`` checks the outputs and reads the sim-clock
  metrics.  It runs after the timed region and never mutates the model.

The seed shapes the inputs only within narrow ranges (checkpoint
schedule phase, per-pod working-set size, fault placement), so every
seed runs the same kind of work and no operation is expected to fail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import harness
from repro.cluster.builder import Cluster
from repro.cluster.faults import FaultInjector, FaultPlan, FaultSpec
from repro.core.manager import DEFAULT_LEASE_S, Manager
from repro.fleet import (
    FLEET_TIMEOUTS,
    FleetPolicy,
    build_fleet_world,
    evacuate_campaign,
    resume_campaigns_task,
)
from repro.middleware.daemon import checkpoint_targets
from repro.obs.metrics import percentile
from repro.storage.cas import CasStore
from repro.storage.ledger import OpLedger
from repro.vos import build_program
from repro.vos.kernel import DEFAULT_HZ
from repro.vos.process import DEAD

MB = 1e6


@dataclass
class World:
    """One built world plus what its run leaves behind for evaluation."""

    seed: int
    cluster: Cluster
    manager: Manager
    #: checkpoint / restart targets: (node, pod, uri)
    targets: List[tuple] = field(default_factory=list)
    #: checkpoint OpResults in submission order, then the restart OpResult.
    ckpts: List[Any] = field(default_factory=list)
    restart: Any = None
    #: sim-clock instants bracketing the workload's operations.
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    #: output-check failures found while the run was driving the model.
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one run produced: pod-level units, check failures, and the
    sim-clock end-to-end metrics."""

    attempted: int
    failed: int
    failures: List[str]
    sim: Dict[str, float]
    #: pod-level checkpoints committed (migrations count their checkpoint).
    pod_ckpts: int = 0


def _run_until_done(world: World, gen, until: float) -> None:
    """Run ``gen`` as a host task and stop the engine as soon as it
    returns (pods may keep running; the world is discarded)."""
    engine = world.cluster.engine

    def main():
        yield from gen
        engine.stop()

    engine.spawn(main(), name="perfbench-orchestrator")
    engine.run(until=until)


def _committed_ops(cluster: Cluster) -> List[Any]:
    return [op for op in OpLedger(cluster.san).replay().values()
            if op.phase == "commit" and "duration_s" in op.fields]


def _ledger_bytes(cluster: Cluster) -> int:
    """Op ledger bytes on the SAN, less the span ids an installed span
    tracer stamps on each record (so traced and untraced runs agree)."""
    return sum(len(json.dumps({k: v for k, v in rec.items() if k != "span"},
                              sort_keys=True, separators=(",", ":"))) + 1
               for rec in OpLedger(cluster.san).records())


def _max_image_bytes(manager: Manager) -> int:
    """Largest pod image any Agent holds (chains included)."""
    best = 0
    for agent in manager.agents.values():
        for chain in agent.pipeline_state.chains.values():
            for img in chain:
                best = max(best, img.total_bytes)
        for img in agent.mem_sink.images.values():
            best = max(best, img.total_bytes)
    return best


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _op_failures(world: World) -> List[str]:
    bad = [f"checkpoint op {r.op_id} {r.status}: {r.errors[:1]}"
           for r in world.ckpts if not r.ok]
    if world.restart is None:
        bad.append("restart never ran")
    elif not world.restart.ok:
        bad.append(f"restart {world.restart.status}: {world.restart.errors[:1]}")
    return bad


def _op_units_ok(world: World) -> int:
    """Pod-level units of the coordinated ops that completed ok."""
    n = len(world.targets)
    ok_ops = sum(1 for r in world.ckpts if r.ok)
    return n * (ok_ops + (world.restart is not None and world.restart.ok))


def _running(pod) -> bool:
    return (pod is not None and not pod.suspended
            and any(p.state != DEAD for p in pod.processes()))


def _outcome(world: World, units: int, ok_units: int, checks: List[str],
             downtimes: List[float], stored_bytes: int) -> Outcome:
    """Read the sim-clock metrics; a unit fails when its op did not
    complete ok, and every failed output check counts one more unit."""
    ops = _committed_ops(world.cluster)
    ck = [float(op.fields["duration_s"]) for op in ops if op.kind == "checkpoint"]
    rs = [float(op.fields["duration_s"]) for op in ops if op.kind == "restart"]
    sim = {
        "ckpt_p50_ms": _ms(percentile(ck, 50)),
        "ckpt_max_ms": _ms(max(ck, default=0.0)),
        "restart_ms": _ms(sum(rs) / len(rs)) if rs else 0.0,
        "downtime_p50_ms": _ms(percentile(downtimes, 50)),
        "downtime_p90_ms": _ms(percentile(downtimes, 90)),
        "downtime_p99_ms": _ms(percentile(downtimes, 99)),
        "campaign_s": (world.t_last or 0.0) - (world.t_first or 0.0),
        "image_mb": _max_image_bytes(world.manager) / MB,
        "stored_mb": (stored_bytes + _ledger_bytes(world.cluster)) / MB,
    }
    pod_ckpts = sum(len(op.targets) for op in ops if op.kind == "checkpoint")
    return Outcome(units, min(units, units - ok_units + len(checks)),
                   checks, sim, pod_ckpts)


def _same_chain(loaded, truth) -> bool:
    return len(loaded) == len(truth) and all(
        a.data == b.data and a.accounted_bytes == b.accounted_bytes
        and a.netstate_bytes == b.netstate_bytes and a.epoch == b.epoch
        and a.filters == b.filters
        for a, b in zip(loaded, truth))


# ---------------------------------------------------------------------------
# nas16-ckpt-restart
# ---------------------------------------------------------------------------


class Nas16CkptRestart:
    """BT/NAS on 16 pods (8 dual-CPU blades): 10 evenly spaced
    incremental checkpoints to ``file:`` SAN chains, then every pod is
    killed and restarted from its 10-entry chain; the app runs to
    completion and its answer is verified."""

    name = "nas16-ckpt-restart"
    app = "BT/NAS"
    nodes = 16
    n_checkpoints = 10
    filters = [{"name": "delta"}]

    def setup(self, seed: int) -> World:
        spec = harness.APPS[self.app]
        cluster = harness.build_cluster(self.nodes, seed=seed)
        manager = Manager.deploy(cluster)
        world = World(seed, cluster, manager)
        world.extra["handle"] = spec.launch_pods(cluster, self.nodes, 1.0)
        return world

    def _schedule(self, seed: int):
        """(first checkpoint instant, spacing) in sim seconds: the run is
        split evenly, with the seed shifting the schedule's phase."""
        spec = harness.APPS[self.app]
        interval = spec.work_seconds(self.nodes, 1.0) / (self.n_checkpoints + 2)
        return interval * random.Random(seed).uniform(0.9, 1.1), interval

    def run(self, world: World) -> None:
        cluster, manager = world.cluster, world.manager
        handle = world.extra["handle"]
        first, interval = self._schedule(world.seed)

        def orchestrate():
            yield cluster.engine.sleep(first)
            world.targets = [(n, p, f"file:/san/bench-{p}.img")
                             for (n, p, _u) in checkpoint_targets(handle, cluster)]
            world.t_first = cluster.engine.now
            for i in range(self.n_checkpoints):
                if i:
                    yield cluster.engine.sleep(interval)
                res = yield from manager.checkpoint_task(world.targets,
                                                         filters=self.filters)
                world.ckpts.append(res)
                if not res.ok:
                    return
            for _n, pod_id, _u in world.targets:
                cluster.find_pod(pod_id).destroy()
            world.restart = yield from manager.restart_task(world.targets)
            world.t_last = cluster.engine.now

        cluster.engine.spawn(orchestrate(), name="perfbench-nas16")
        cluster.engine.run(until=3600.0)

    def baseline(self, world: World) -> None:
        world.cluster.engine.run(until=3600.0)

    def evaluate(self, world: World) -> Outcome:
        spec = harness.APPS[self.app]
        cluster, handle = world.cluster, world.extra["handle"]
        checks = list(world.failures)
        if not (handle.ok(cluster) and spec.verify(cluster, handle)):
            checks.append("BT answer not verified after restart")
        stored = 0
        for node_name, pod_id, uri in world.targets:
            chain = world.manager.agents[node_name]._sink_for(uri).load(pod_id)
            if len(chain) != self.n_checkpoints or chain[0].epoch != 0:
                checks.append(f"{pod_id}: chain has {len(chain)} entries")
            stored += sum(img.total_bytes for img in chain)
        downtimes = [stats["t_local"] for r in world.ckpts
                     for stats in r.pods.values()]
        out = _outcome(world, self.nodes * (self.n_checkpoints + 1),
                       _op_units_ok(world), checks, downtimes, stored)
        out.failures[:0] = _op_failures(world)
        return out


# ---------------------------------------------------------------------------
# cas-gen16
# ---------------------------------------------------------------------------


class CasGen16:
    """16 writer pods (64 MB ballast, 4 MB/s dirtying) on one blade take
    16 generations of full images into the content-addressed store;
    every chain is then loaded back and compared byte for byte with the
    Agent's in-memory truth, the store is audited, and the pods are
    restarted from their CAS chains."""

    name = "cas-gen16"
    n_pods = 16
    generations = 16
    interval = 0.5
    ballast = 64_000_000
    dirty_rate = 4_000_000

    def setup(self, seed: int) -> World:
        rng = random.Random(seed)
        cluster = Cluster.build(2, seed=seed)
        manager = Manager.deploy(cluster)
        world = World(seed, cluster, manager)
        host = cluster.node(1)
        chunk = 30_000_000  # ~10 ms slices: frequent preemption points
        # the writers outlive the last generation; the run stops the
        # engine once the restart committed
        chunks = int(self.interval * (self.generations + 4) * DEFAULT_HZ) // chunk
        for i in range(self.n_pods):
            pod_id = f"gen-w{i:02d}"
            cluster.create_pod(host, pod_id)
            host.kernel.spawn(
                build_program("harness.writer",
                              ballast=self.ballast + 4096 * rng.randrange(64),
                              dirty_rate=self.dirty_rate, chunk_cycles=chunk,
                              chunks=chunks),
                pod_id=pod_id)
            world.targets.append((host.name, pod_id, f"cas:/san/gen-{pod_id}.img"))
        world.extra["first"] = self.interval * rng.uniform(0.9, 1.1)
        return world

    def run(self, world: World) -> None:
        cluster, manager = world.cluster, world.manager
        engine = cluster.engine
        store = CasStore.on(cluster.san)

        def orchestrate():
            yield engine.sleep(world.extra["first"])
            world.t_first = engine.now
            for i in range(self.generations):
                if i:
                    yield engine.sleep(self.interval)
                res = yield from manager.checkpoint_task(world.targets)
                world.ckpts.append(res)
                if not res.ok:
                    return
            agent = manager.agents[world.targets[0][0]]
            for _n, pod_id, uri in world.targets:
                loaded = agent._sink_for(uri).load(pod_id)
                if not _same_chain(loaded, agent.mem_sink.load(pod_id)):
                    world.failures.append(f"{pod_id}: CAS chain differs from truth")
            world.failures.extend(f"audit: {v}" for v in store.audit())
            for _n, pod_id, _u in world.targets:
                cluster.find_pod(pod_id).destroy()
            world.restart = yield from manager.restart_task(world.targets)
            world.t_last = engine.now

        _run_until_done(world, orchestrate(), until=600.0)

    def baseline(self, world: World) -> None:
        world.cluster.engine.run(
            until=self.interval * (self.generations + 1))

    def evaluate(self, world: World) -> Outcome:
        cluster = world.cluster
        checks = list(world.failures)
        host = cluster.node(1)
        for _n, pod_id, _u in world.targets:
            if not _running(host.kernel.pods.get(pod_id)):
                checks.append(f"{pod_id}: not running after restart")
        store = CasStore.on(cluster.san)
        checks.extend(f"audit after restart: {v}" for v in store.audit())
        downtimes = [stats["t_local"] for r in world.ckpts
                     for stats in r.pods.values()]
        out = _outcome(world, self.n_pods * (self.generations + 1),
                       _op_units_ok(world), checks, downtimes,
                       store.footprint_bytes)
        out.failures[:0] = _op_failures(world)
        return out


# ---------------------------------------------------------------------------
# evac1000-failover
# ---------------------------------------------------------------------------


class Evac1000Failover:
    """The 100-blade / 1000-pod / 75-blade evacuation under four seeded
    soft faults; the Manager crashes at a late ``fleet.pod_done``
    crossing and a replica takes over and finishes the campaign."""

    name = "evac1000-failover"
    n_nodes = 100
    n_pods = 1000
    n_evacuate = 75
    max_inflight = 16
    crash_after = 800
    lease_s = 3.0

    def setup(self, seed: int) -> World:
        rng = random.Random(seed)
        cluster, manager, _pods = build_fleet_world(
            self.n_nodes, self.n_pods, seed=seed, first_node=1,
            last_node=self.n_evacuate,
            ballast=262_144 + 1024 * rng.randrange(16))
        world = World(seed, cluster, manager)
        # four soft faults (stalls and added link latency: every pod must
        # arrive) at fixed stages of the campaign, with seeded crossings
        # and magnitudes.  Units run in waves of ``max_inflight``; the
        # Manager crashes at the first unit done after 800, inside a wave,
        # so it leaves in-flight ops for the replica to claim.
        faults = [
            FaultSpec(kind=kind, phase=phase, after=after + rng.randrange(50),
                      seconds=round(rng.uniform(*seconds), 4),
                      duration=round(rng.uniform(0.5, 1.0), 3))
            for kind, phase, after, seconds in (
                ("hang", "fleet.pod_start", 150, (0.1, 0.3)),
                ("link_delay", "fleet.pod_start", 350, (0.0002, 0.0003)),
                ("link_delay", "fleet.pod_done", 550, (0.0002, 0.0003)),
                ("hang", "fleet.pod_done", 650, (0.1, 0.3)))]
        faults.append(FaultSpec(kind="crash_manager", phase="fleet.pod_done",
                                after=self.crash_after))
        world.extra["injector"] = FaultInjector(
            cluster, FaultPlan(seed=seed, faults=faults)).install()
        world.extra["evac"] = [f"blade{i}" for i in range(1, self.n_evacuate + 1)]
        return world

    def run(self, world: World) -> None:
        cluster, manager = world.cluster, world.manager
        engine = cluster.engine
        policy = FleetPolicy(max_inflight=self.max_inflight,
                             lease_s=self.lease_s)
        resumed: List[Any] = []

        def orchestrate():
            world.t_first = engine.now
            camp = evacuate_campaign(manager, world.extra["evac"],
                                     policy=policy, timeouts=FLEET_TIMEOUTS)
            task = camp.run()
            yield engine.timeout(task.finished, 3000.0)
            while not manager.crashed:
                yield engine.sleep(0.25)
            # the replica starts once the in-flight ops' leases expired,
            # so its takeover claims and resolves them
            yield engine.sleep(DEFAULT_LEASE_S + 1.0)
            replica = Manager.deploy_replica(cluster, manager.agents,
                                             name="mgr1")
            yield from replica.takeover_task(timeouts=FLEET_TIMEOUTS,
                                             lease_s=self.lease_s)
            yield from resume_campaigns_task(
                replica, timeouts=FLEET_TIMEOUTS, lease_s=self.lease_s,
                collect=resumed)
            world.extra["result"] = resumed[0] if resumed else None
            world.t_last = engine.now

        _run_until_done(world, orchestrate(), until=14400.0)

    def baseline(self, world: World) -> None:
        world.cluster.engine.run(until=60.0)

    def evaluate(self, world: World) -> Outcome:
        cluster = world.cluster
        checks = list(world.failures)
        res = world.extra.get("result")
        if not world.manager.crashed:
            checks.append("the Manager never crashed")
        if res is None:
            checks.append("no campaign was resumed after the crash")
        outcomes = res.pods if res is not None else {}
        evac = set(world.extra["evac"])
        hosts: Dict[str, List[str]] = {}
        for node in cluster.nodes:
            for pod_id, pod in node.kernel.pods.items():
                hosts.setdefault(pod_id, []).append(node.name)
                if node.name in evac:
                    checks.append(f"{pod_id} still on evacuated {node.name}")
                elif not _running(pod):
                    checks.append(f"{pod_id} not running on {node.name}")
        for i in range(self.n_pods):
            where = hosts.get(f"fp{i:04d}", [])
            if len(where) != 1:
                checks.append(f"fp{i:04d} on {len(where)} blades")
        camp = (OpLedger(cluster.san).replay_campaigns().get(res.cid)
                if res is not None else None)
        if camp is None or not camp.terminal or camp.phase != "commit":
            checks.append("ledger campaign not terminal at commit")
        else:
            attempts = [int(rec.get("attempts", 1)) for rec in camp.pods.values()]
            world.extra["fleet"] = {
                "waves": len(camp.waves),
                "unit_attempts": sum(attempts),
                "retries": sum(a - 1 for a in attempts if a > 1),
                "peak_inflight": res.peak_inflight,
            }
        downtimes = [o.downtime for o in outcomes.values()
                     if o.status == "ok" and not o.adopted]
        ok_units = sum(1 for o in outcomes.values() if o.status == "ok")
        return _outcome(world, self.n_pods, ok_units, checks, downtimes, 0)


WORKLOADS = {w.name: w for w in (Nas16CkptRestart(), CasGen16(),
                                 Evac1000Failover())}
