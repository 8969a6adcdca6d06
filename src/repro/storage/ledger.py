"""The durable op ledger: a JSONL write-ahead log on the SAN.

The Manager is the protocol's lone unreplicated component — the paper's
coordinator "can be run from anywhere", which also means it can die
anywhere, stranding an in-flight coordinated operation.  The cure
(DMTCP's coordinator model, and the stateless-agent exemplars) is to
make the coordinator state *recoverable*: every operation appends a
record to this ledger at each phase boundary, so any replica Manager
can scan the log, reconstruct each op's last durable phase, and either
finish the op or abort it through the tombstone-GC path.

The ledger lives on the SAN (the one :class:`FileSystem` instance every
blade mounts), so durability and visibility come for free from the
shared-storage assumption the paper already makes.  Records are one
JSON object per line with sorted keys — byte-identical across same-seed
runs, which keeps the chaos determinism oracle intact.  Appends are
modeled as free (a ledger record is tens of bytes riding the SAN's
metadata path; charging FC latency per record would perturb every
existing latency figure for no modeling value).

Record schema (all records carry ``op``, ``t``, and ``rec``):

``{"rec": "op", "op": N, "phase": "begin", "kind": ..., "targets":
[[node, pod, uri], ...], "context": ..., "owner": mgr, "lease": T}``
    Opens op ``N``: the full request, who drives it, and a lease.

``{"rec": "phase", "op": N, "phase": P, "owner": mgr, "lease": T, ...}``
    Op ``N`` reached phase ``P``; extra keys carry per-phase payload
    (negotiated filters, per-pod stats, the restart plan).  Writing the
    record *renews the owner's lease*.

``{"rec": "claim", "op": N, "owner": mgr, "lease": T}``
    A replica claimed the orphaned op.  Claims are atomic by
    construction: the simulator is single-threaded and :meth:`claim`
    never yields between the lease check and the append.

Terminal phases are ``commit`` and ``aborted``; everything else is
in-flight and claimable once its lease expires.  A torn final line
(a writer that died mid-append) is ignored on scan, mirroring how a
real WAL discards a torn tail record.

The ``campaign`` record family journals fleet orchestration (rolling
checkpoint waves, node drains, evacuations) in the same log.  Campaign
records carry ``cid`` instead of ``op`` and fold with the same
newest-wins rule into :class:`LedgerCampaign`:

``{"rec": "campaign", "cid": C, "phase": "begin", "kind": ...,
"units": [[node, pod, arg], ...], "waves": [[pod, ...], ...],
"policy": {...}, "owner": mgr, "lease": T}``
    Opens campaign ``C``: every unit, the wave partition, and the
    policy knobs — enough for a replica to rebuild the whole plan.

``{"rec": "campaign", "cid": C, "phase": "wave", "wave": W, ...}``
    Wave ``W`` started.  The *first* claim of a wave wins; a duplicate
    wave record from a different owner (two Managers racing after a
    messy failover) is folded as a recorded-but-ignored claim.

``{"rec": "campaign", "cid": C, "phase": "pod", "wave": W, "pod": P,
"status": "ok"|"failed", "op": N, "downtime": D, ...}``
    Unit outcome for pod ``P`` (op ``N`` did the work).  A resuming
    replica skips every pod whose latest record says ``ok`` — completed
    pods are never re-checkpointed.

``{"rec": "campaign", "cid": C, "phase": "wave-done", "wave": W, ...}``
    Every unit of wave ``W`` reached an outcome.

``{"rec": "campaign-claim", "cid": C, "owner": mgr, "lease": T}``
    A replica claimed the orphaned campaign (same atomicity argument
    as op claims).

Campaign terminal phases are ``commit`` (all waves done), ``halted``
(failure threshold tripped), and ``aborted``.

Reads are incremental.  Each :class:`OpLedger` keeps the folded state
of every *complete* line it has parsed, the byte offset just past the
last ``\n`` it folded, and a short guard copy of the bytes before that
offset.  Every read revalidates against the file first: if the file is
gone, its ``bytearray`` was replaced, its length shrank below the
offset, or the guard bytes differ, the fold is rebuilt from a full
:meth:`OpLedger.records` scan; otherwise only the bytes appended since
the last read are parsed — which is how a peer Manager's appends to the
shared SAN file show up on this instance's next read.  An unterminated
tail is folded onto a throwaway view at read time and never committed,
so a complete-but-unterminated last line counts exactly as it does in a
full scan, and a torn line that later gets bytes appended to it becomes
one skipped joined line.  Op and campaign ids are allocated from the
same revalidated fold, so a Manager never reuses an id a peer has
already *appended* (allocation is not a reservation: two Managers that
both allocate before either appends still pick the same id).

State a read returns is a snapshot: later records never change an
object already handed out, because the fold copies an op or campaign
before changing it (copy-on-write, one entry at a time).  Returned
objects are shared with the cache, so callers must not mutate them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..vos.filesystem import FileSystem, ensure_dirs

#: conventional ledger path on the SAN (inner path, below the mount).
LEDGER_PATH = "/zapc/ops.jsonl"

#: phases after which an op needs no further work from anyone.
TERMINAL_PHASES = ("commit", "aborted")

#: phases after which a campaign needs no further work from anyone.
CAMPAIGN_TERMINAL_PHASES = ("commit", "halted", "aborted")


#: bytes before the folded offset a read compares against the file to
#: tell an append (guard intact) from a rewrite (fold rebuilt).
GUARD_BYTES = 64


@dataclass
class LedgerOp:
    """One op's state, folded from its ledger records (newest wins)."""

    op_id: int
    kind: str = "checkpoint"
    phase: str = "begin"
    targets: List[Tuple[str, str, str]] = field(default_factory=list)
    context: str = "snapshot"
    owner: Optional[str] = None
    lease_until: float = 0.0
    #: merged per-phase payload (negotiated filters, plan, stats, ...).
    fields: Dict[str, Any] = field(default_factory=dict)
    #: every owner that ever claimed the op, in order.
    claims: List[str] = field(default_factory=list)
    t_last: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def copy(self) -> "LedgerOp":
        """A copy :meth:`apply` can change without touching this one."""
        return replace(self, fields=dict(self.fields), claims=list(self.claims))

    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one op-family record into this state (newest wins)."""
        kind = rec.get("rec", "phase")
        self.t_last = float(rec.get("t", self.t_last))
        if kind == "claim":
            self.owner = rec.get("owner")
            self.lease_until = float(rec.get("lease", 0.0))
            self.claims.append(rec.get("owner"))
            return
        if kind == "op":
            self.kind = rec.get("kind", self.kind)
            self.context = rec.get("context", self.context)
            self.targets = [tuple(t) for t in rec.get("targets", [])]
        if rec.get("owner") is not None:
            self.owner = rec["owner"]
        if rec.get("lease") is not None:
            self.lease_until = float(rec["lease"])
        self.phase = rec.get("phase", self.phase)
        for key, value in rec.items():
            if key not in ("rec", "op", "phase", "owner", "lease", "t",
                           "kind", "context", "targets"):
                self.fields[key] = value


@dataclass
class LedgerCampaign:
    """One fleet campaign's state, folded from its ledger records."""

    cid: int
    kind: str = "checkpoint"
    phase: str = "begin"
    #: every unit as journaled at begin: (node, pod, arg) — the arg is a
    #: checkpoint URI or a migration destination ("" = pick by load).
    units: List[Tuple[str, str, str]] = field(default_factory=list)
    #: the wave partition journaled at begin: pod ids per wave, in order.
    waves: List[List[str]] = field(default_factory=list)
    #: the policy knobs journaled at begin (max_inflight, threshold, ...).
    policy: Dict[str, Any] = field(default_factory=dict)
    owner: Optional[str] = None
    lease_until: float = 0.0
    #: newest-wins unit outcome per pod: {"status", "op", "wave", ...}.
    pods: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: wave index -> the owner whose wave record landed *first*.
    wave_owners: Dict[int, str] = field(default_factory=dict)
    #: every wave record in append order (duplicates included), as
    #: (wave index, owner) — the audit trail of racing claims.
    wave_claims: List[Tuple[int, str]] = field(default_factory=list)
    #: wave indices whose wave-done record landed.
    waves_done: List[int] = field(default_factory=list)
    #: every owner that ever claimed the campaign, in order.
    claims: List[str] = field(default_factory=list)
    t_last: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.phase in CAMPAIGN_TERMINAL_PHASES

    @property
    def done_pods(self) -> List[str]:
        """Pods whose latest unit record is ``ok`` — the set a resuming
        replica must not drive again."""
        return sorted(p for p, rec in self.pods.items()
                      if rec.get("status") == "ok")

    def copy(self) -> "LedgerCampaign":
        """A copy :meth:`apply` can change without touching this one
        (``units``, ``waves`` and ``policy`` are only ever replaced)."""
        return replace(self, pods=dict(self.pods),
                       wave_owners=dict(self.wave_owners),
                       wave_claims=list(self.wave_claims),
                       waves_done=list(self.waves_done),
                       claims=list(self.claims))

    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one campaign-family record into this state."""
        kind = rec.get("rec", "campaign")
        self.t_last = float(rec.get("t", self.t_last))
        if kind == "campaign-claim":
            self.owner = rec.get("owner")
            self.lease_until = float(rec.get("lease", 0.0))
            self.claims.append(rec.get("owner"))
            return
        phase = rec.get("phase", self.phase)
        if phase == "begin":
            self.kind = rec.get("kind", self.kind)
            self.units = [tuple(u) for u in rec.get("units", [])]
            self.waves = [list(w) for w in rec.get("waves", [])]
            self.policy = dict(rec.get("policy", {}))
        elif phase == "wave":
            wave = int(rec.get("wave", -1))
            owner = rec.get("owner")
            self.wave_claims.append((wave, owner))
            if wave in self.wave_owners:
                # duplicate wave claim: first writer wins, the
                # duplicate stays on the audit trail only
                return
            self.wave_owners[wave] = owner
        elif phase == "pod":
            self.pods[rec.get("pod")] = {
                k: v for k, v in rec.items()
                if k in ("status", "op", "wave", "downtime", "attempts",
                         "adopted", "t")}
        elif phase == "wave-done":
            wave = int(rec.get("wave", -1))
            if wave not in self.waves_done:
                self.waves_done.append(wave)
        if rec.get("owner") is not None:
            self.owner = rec["owner"]
        if rec.get("lease") is not None:
            self.lease_until = float(rec["lease"])
        self.phase = phase


def _entry(table: Dict[int, Any], key: int, make: Callable[[int], Any],
           owned: Optional[Set[int]]) -> Any:
    """``table[key]``, safe to change in place: created when missing.
    With ``owned`` (the keys this fold pass created or copied), an entry
    a caller may already hold is replaced by a copy first."""
    entry = table.get(key)
    if entry is None:
        entry = table[key] = make(key)
    elif owned is not None and key not in owned:
        entry = table[key] = entry.copy()
    if owned is not None:
        owned.add(key)
    return entry


def fold_ops(records: List[Dict[str, Any]]) -> Dict[int, LedgerOp]:
    """Fold raw op records into per-op state (newest wins).

    Module-level so the campaign-trace assembler (:mod:`repro.obs.
    assemble`) can fold a record list it obtained elsewhere — a span
    dump's sidecar, a copied log — without a live :class:`FileSystem`.
    """
    ops: Dict[int, LedgerOp] = {}
    for rec in records:
        if "cid" not in rec:  # campaign records fold via fold_campaigns()
            _entry(ops, int(rec["op"]), LedgerOp, None).apply(rec)
    return ops


def fold_campaigns(records: List[Dict[str, Any]]) -> Dict[int, LedgerCampaign]:
    """Fold raw campaign-family records into per-campaign state."""
    campaigns: Dict[int, LedgerCampaign] = {}
    for rec in records:
        if "cid" in rec:
            _entry(campaigns, int(rec["cid"]), LedgerCampaign, None).apply(rec)
    return campaigns


def _parse(chunk: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, lines skipped)`` of the JSONL bytes ``chunk``: a line
    that is not JSON, or not an op/campaign object, is skipped."""
    out: List[Dict[str, Any]] = []
    skipped = 0
    for raw in chunk.split(b"\n"):
        if not raw:
            continue
        try:
            rec = json.loads(raw.decode("ascii"))
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            continue
        if isinstance(rec, dict) and ("op" in rec or "cid" in rec):
            out.append(rec)
        else:
            skipped += 1
    return out, skipped


class _Fold:
    """Folded state of a run of records: ops, campaigns, highest ids."""

    def __init__(self, base: Optional["_Fold"] = None) -> None:
        self.ops: Dict[int, LedgerOp] = dict(base.ops) if base else {}
        self.campaigns: Dict[int, LedgerCampaign] = (
            dict(base.campaigns) if base else {})
        self.max_op = base.max_op if base else 0
        self.max_cid = base.max_cid if base else 0

    def add(self, records: List[Dict[str, Any]]) -> None:
        """Fold ``records`` in; entries held from earlier passes are
        copied before they change (copy-on-write)."""
        owned_ops: Set[int] = set()
        owned_cids: Set[int] = set()
        for rec in records:
            if "cid" in rec:
                cid = int(rec["cid"])
                _entry(self.campaigns, cid, LedgerCampaign, owned_cids).apply(rec)
                self.max_cid = max(self.max_cid, cid)
            else:
                op_id = int(rec["op"])
                _entry(self.ops, op_id, LedgerOp, owned_ops).apply(rec)
                self.max_op = max(self.max_op, op_id)


class OpLedger:
    """Append/scan/claim interface over the JSONL ledger file."""

    def __init__(self, fs: FileSystem, path: str = LEDGER_PATH) -> None:
        self.fs = fs
        self.path = path
        #: scan bookkeeping: lines the last scan had to discard (the torn
        #: tail, or corruption injected by tests).
        self.skipped = 0
        self._reset(None)

    def _reset(self, data: Optional[bytearray]) -> None:
        #: the file contents the fold was built from (None: no file).
        self._data = data
        #: byte offset just past the last folded ``\n``, and the guard
        #: copy of the bytes before it.
        self._offset = 0
        self._guard = b""
        self._fold = _Fold()
        #: lines skipped before ``_offset``.
        self._skipped = 0

    # -- raw log ---------------------------------------------------------
    def _file(self):
        f = self.fs.files.get(self.path)
        if f is None:
            ensure_dirs(self.fs, self.path.rsplit("/", 1)[0] or "/")
            f = self.fs.create(self.path)
        return f

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record (sorted keys: deterministic bytes)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._file().data += (line + "\n").encode("ascii")

    def records(self) -> List[Dict[str, Any]]:
        """Parse the whole log, tolerating a torn (truncated) final line.

        Data ending in ``\n`` leaves a legitimate empty tail; anything
        else is a torn append and is discarded like a torn WAL record.
        """
        f = self.fs.files.get(self.path)
        if f is None:
            self.skipped = 0
            return []
        out, self.skipped = _parse(bytes(f.data))
        return out

    # -- the incremental fold ----------------------------------------------
    def _state(self) -> _Fold:
        """The fold of the whole file as it is now.

        Parses only what was appended since the last read, unless the
        file was deleted, replaced, shrunk or rewritten under the guard
        (then the fold is rebuilt from :meth:`records`).  The result may
        be the cache itself: callers copy the maps before handing them
        out and never mutate the entries.
        """
        f = self.fs.files.get(self.path)
        if f is None:
            self._reset(None)
            self.skipped = 0
            return self._fold
        data, off = f.data, self._offset
        if (data is not self._data or len(data) < off
                or data[off - len(self._guard):off] != self._guard):
            recs = self.records()
            end = data.rfind(b"\n") + 1
            tail, tail_skipped = _parse(bytes(data[end:]))
            self._reset(data)
            self._skipped = self.skipped - tail_skipped
            self._fold.add(recs[:len(recs) - len(tail)])
        else:
            end = data.rfind(b"\n", off) + 1
            if end > off:
                recs, skipped = _parse(bytes(data[off:end]))
                self._skipped += skipped
                self._fold.add(recs)
        if end > self._offset:
            self._offset = end
            self._guard = bytes(data[max(0, end - GUARD_BYTES):end])
        # the unterminated tail: folded onto a throwaway view, never
        # committed (its line may still grow into a torn join)
        tail, tail_skipped = _parse(bytes(data[self._offset:]))
        self.skipped = self._skipped + tail_skipped
        if not tail:
            return self._fold
        view = _Fold(self._fold)
        view.add(tail)
        return view

    # -- folded state ----------------------------------------------------
    def replay(self) -> Dict[int, LedgerOp]:
        """Fold the log into per-op state, in op-id order."""
        return dict(self._state().ops)

    def next_op_id(self) -> int:
        """Smallest op id no record has used yet (a peer's appends
        included)."""
        return self._state().max_op + 1

    def orphaned(self, now: float) -> List[LedgerOp]:
        """Non-terminal ops whose lease has expired, in op-id order —
        the set a takeover replica must resume or abort."""
        return [op for _id, op in sorted(self.replay().items())
                if not op.terminal and now >= op.lease_until]

    def claim(self, op_id: int, owner: str, now: float,
              lease_s: float) -> bool:
        """Atomically claim an orphaned op.

        Refuses when the op is unknown, already terminal, or still under
        another Manager's unexpired lease.  Single-threaded simulation
        plus no yield between check and append makes this atomic — the
        moral equivalent of an O_APPEND compare-and-swap record.
        """
        op = self.replay().get(op_id)
        if op is None or op.terminal:
            return False
        if op.owner is not None and op.owner != owner and now < op.lease_until:
            return False
        self.append({"rec": "claim", "op": op_id, "owner": owner,
                     "lease": now + lease_s, "t": now})
        return True

    def last_committed(self, kind: str = "checkpoint") -> Optional[LedgerOp]:
        """The newest committed op of ``kind`` (highest op id) — what a
        replica reconstructs ``last_checkpoint`` from."""
        best: Optional[LedgerOp] = None
        for _id, op in sorted(self.replay().items()):
            if op.kind == kind and op.phase == "commit":
                best = op
        return best

    # -- campaigns -------------------------------------------------------
    def replay_campaigns(self) -> Dict[int, LedgerCampaign]:
        """Fold the campaign record family into per-campaign state."""
        return dict(self._state().campaigns)

    def next_campaign_id(self) -> int:
        """Smallest campaign id no record has used yet (a peer's appends
        included)."""
        return self._state().max_cid + 1

    def orphaned_campaigns(self, now: float) -> List[LedgerCampaign]:
        """Non-terminal campaigns whose lease has expired, in campaign-id
        order — what a takeover replica must resume."""
        return [c for _id, c in sorted(self.replay_campaigns().items())
                if not c.terminal and now >= c.lease_until]

    def claim_campaign(self, cid: int, owner: str, now: float,
                       lease_s: float) -> bool:
        """Atomically claim an orphaned campaign (same rule as ops:
        refused when unknown, terminal, or under a live foreign lease)."""
        camp = self.replay_campaigns().get(cid)
        if camp is None or camp.terminal:
            return False
        if (camp.owner is not None and camp.owner != owner
                and now < camp.lease_until):
            return False
        self.append({"rec": "campaign-claim", "cid": cid, "owner": owner,
                     "lease": now + lease_s, "t": now})
        return True
