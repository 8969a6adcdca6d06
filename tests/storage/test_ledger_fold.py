"""Property battery: the incrementally folded ledger equals a full scan.

Each :class:`~repro.storage.ledger.OpLedger` keeps a fold of the lines
it has already parsed and, on every read, parses only what was appended
since — unless the file was deleted, replaced, shrunk or rewritten
under its guard bytes, when it refolds from a full scan.  Hypothesis
drives random sequences of the things that happen to the shared SAN
file — op and campaign appends and claims from two Manager instances,
mid-line tears followed by further appends, corrupt lines, a complete
last line that lost only its newline, truncation to empty, deletion,
and replacement of the file — and after every step checks, for both
instances, that every read equals the fold of a fresh full scan and
what a brand-new instance reads.  It also checks that state returned by
an earlier read never changed afterwards (reads return snapshots).
"""

import copy

import pytest

from repro.storage import LEDGER_PATH, OpLedger, SharedStorage
from repro.storage.ledger import fold_campaigns, fold_ops

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_who = st.sampled_from((0, 1))
_t = st.integers(min_value=0, max_value=60).map(float)

_op_append = st.fixed_dictionaries({
    "rec": st.sampled_from(("op", "phase", "claim")),
    "op": st.integers(min_value=1, max_value=6),
    "phase": st.sampled_from(("begin", "meta", "continue", "commit",
                              "aborted")),
    "kind": st.sampled_from(("checkpoint", "restart")),
    "targets": st.lists(st.tuples(st.sampled_from(("blade1", "blade2")),
                                  st.sampled_from(("p0", "p1")),
                                  st.just("")), max_size=2),
    "owner": st.sampled_from(("mgr0", "mgr1")),
    "lease": _t,
    "t": _t,
}, optional={"pods": st.lists(st.sampled_from(("p0", "p1")), max_size=2)})

_camp_append = st.fixed_dictionaries({
    "rec": st.sampled_from(("campaign", "campaign-claim")),
    "cid": st.integers(min_value=1, max_value=3),
    "phase": st.sampled_from(("begin", "wave", "pod", "wave-done",
                              "commit", "halted")),
    "owner": st.sampled_from(("mgr0", "mgr1")),
    "lease": _t,
    "t": _t,
    "wave": st.integers(min_value=0, max_value=2),
    "pod": st.sampled_from(("p0", "p1", "p2")),
    "status": st.sampled_from(("ok", "failed")),
    "op": st.integers(min_value=1, max_value=6),
}, optional={
    "units": st.just([["blade1", "p0", ""], ["blade1", "p1", ""]]),
    "waves": st.just([["p0"], ["p1"]]),
    "policy": st.just({"max_inflight": 2}),
})

_step = st.one_of(
    st.tuples(st.just("append"), _who, _op_append),
    st.tuples(st.just("append"), _who, _camp_append),
    st.tuples(st.just("claim"), _who, st.integers(1, 6), _t),
    st.tuples(st.just("claim_campaign"), _who, st.integers(1, 3), _t),
    st.tuples(st.just("tear"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("corrupt"),
              st.sampled_from((b"{not json at all\n", b"[1, 2]\n",
                               b'{"neither": 1}\n', b"\xff\xfe\n"))),
    st.tuples(st.just("lose_newline")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("delete")),
    st.tuples(st.just("recreate")),
    st.tuples(st.just("replace_same_bytes")),
)


def _apply(step, fs, ledgers):
    kind = step[0]
    f = fs.files.get(LEDGER_PATH)
    if kind == "append":
        ledgers[step[1]].append(step[2])
    elif kind == "claim":
        ledgers[step[1]].claim(step[2], f"mgr{step[1]}", step[3], 10.0)
    elif kind == "claim_campaign":
        ledgers[step[1]].claim_campaign(step[2], f"mgr{step[1]}", step[3], 10.0)
    elif f is None:
        return
    elif kind == "tear":
        del f.data[max(0, len(f.data) - step[1]):]
    elif kind == "corrupt":
        f.data += step[1]
    elif kind == "lose_newline":
        if f.data.endswith(b"\n"):
            del f.data[-1:]
    elif kind == "clear":
        del f.data[:]
    elif kind == "delete":
        fs.unlink(LEDGER_PATH)
    elif kind == "recreate":
        fs.create(LEDGER_PATH)
    elif kind == "replace_same_bytes":
        f.data = bytearray(f.data)


def _expected(fs):
    scan = OpLedger(fs)
    recs = scan.records()
    return {
        "ops": fold_ops(recs),
        "campaigns": fold_campaigns(recs),
        "skipped": scan.skipped,
        "next_op": max((int(r["op"]) for r in recs if "cid" not in r),
                       default=0) + 1,
        "next_cid": max((int(r["cid"]) for r in recs if "cid" in r),
                        default=0) + 1,
    }


def _read(led):
    ops = led.replay()
    skipped = led.skipped
    return {
        "ops": ops,
        "campaigns": led.replay_campaigns(),
        "skipped": skipped,
        "next_op": led.next_op_id(),
        "next_cid": led.next_campaign_id(),
    }


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=30))
def test_cached_fold_equals_full_scan(steps):
    fs = SharedStorage()
    ledgers = (OpLedger(fs), OpLedger(fs))
    held = []                                # (returned state, its copy)
    for step in steps:
        _apply(step, fs, ledgers)
        want = _expected(fs)
        assert _read(OpLedger(fs)) == want   # a fresh instance agrees
        for led in ledgers:
            got = _read(led)
            assert got == want, step
            held.append((got, copy.deepcopy(got)))
        # every earlier read still shows what it showed when returned
        for state, snapshot in held:
            assert state == snapshot

