"""Wall-time attribution by layer, from wrappers installed at runtime.

:meth:`Tracer.install` replaces each layer entry point listed in
``ENTRY_POINTS`` with a timing wrapper at *every* binding in every
loaded module (module attributes, ``from x import f`` aliases, class
attributes), so a caller that imported the function by name is timed
too.  :meth:`Tracer.uninstall` puts the originals back.

Each call is a span (name, start, end, parent) kept in memory; a span's
*self* time is its duration minus the time covered by its child spans.
For a generator entry point every step between two yields is one span,
so a protocol task's stat is the wall time spent inside the generator.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.standalone import accounted_memory_bytes

#: stat name -> (module, attribute path, layer, bytes-of-call or None).
#: The stat name is the layer, then the function or ``Class.method``.
ENTRY_POINTS: Dict[str, Tuple[str, str, str, Optional[Callable[..., int]]]] = {}


def _entry(name: str, module: str, attr: str, layer: str,
           nbytes: Optional[Callable[..., int]] = None) -> None:
    ENTRY_POINTS[name] = ("repro." + module, attr, layer, nbytes)


def _chain_bytes(chain) -> int:
    return sum(img.total_bytes for img in chain)


def _ledger_line_bytes(args, kwargs, result) -> int:
    return len(json.dumps(args[1], sort_keys=True, separators=(",", ":"))) + 1


_entry("sim.run", "sim.engine", "Engine.run", "sim")
_entry("net.transmit", "net.fabric", "Fabric.transmit", "net",
       lambda a, k, r: a[2].size)
_entry("net.deliver", "net.fabric", "Nic.deliver", "net", lambda a, k, r: a[1].size)
_entry("vos.do_syscall", "vos.kernel", "Kernel.do_syscall", "vos")
_entry("vos.step", "vos.process", "Process.step", "vos")
_entry("vos.memory.touch", "vos.memory", "Memory.touch", "vos",
       lambda a, k, r: a[1])
_entry("vos.memory.dirty_table", "vos.memory", "Memory.dirty_table", "vos")
_entry("vos.memory.clear_dirty", "vos.memory", "Memory.clear_dirty", "vos")
_entry("vos.memory.begin_clear", "vos.memory", "Memory.begin_clear", "vos")
_entry("core.codec.encode", "core.codec", "encode", "core.codec",
       lambda a, k, r: len(r))
_entry("core.codec.decode", "core.codec", "decode", "core.codec",
       lambda a, k, r: len(a[0]))
_entry("core.codec.encoded_size", "core.codec", "encoded_size", "core.codec",
       lambda a, k, r: r)
for _fn in ("capture_pod_network", "netstate_nbytes", "restore_socket_state"):
    _entry(f"core.netckpt.{_fn}", "core.netckpt", _fn, "core.netckpt")
_entry("core.standalone.capture_pod_standalone", "core.standalone",
       "capture_pod_standalone", "core.standalone",
       lambda a, k, r: accounted_memory_bytes(r))
_entry("core.standalone.restore_pod_standalone", "core.standalone",
       "restore_pod_standalone", "core.standalone",
       lambda a, k, r: accounted_memory_bytes(a[1]))
_entry("core.image.pack_pod_image", "core.image", "pack_pod_image", "core.image",
       lambda a, k, r: r.total_bytes)
_entry("core.pipeline.ImagePipeline.pack", "core.pipeline", "ImagePipeline.pack",
       "core.pipeline", lambda a, k, r: r.total_bytes)
_entry("core.pipeline.ImagePipeline.reassemble", "core.pipeline",
       "ImagePipeline.reassemble", "core.pipeline",
       lambda a, k, r: _chain_bytes(a[0]))
# the file sink's bytes are the encoded payloads it is handed / returns
_entry("core.pipeline.FileSink.store", "core.pipeline", "FileSink.store",
       "core.pipeline", lambda a, k, r: len(a[1].data))
_entry("core.pipeline.FileSink.load", "core.pipeline", "FileSink.load",
       "core.pipeline", lambda a, k, r: sum(len(img.data) for img in r))
for _fn in ("checkpoint_task", "restart_task", "takeover_task"):
    _entry(f"core.Manager.{_fn}", "core.manager", f"Manager.{_fn}", "core")
_entry("core.migrate_task", "core.streaming", "migrate_task", "core")
_entry("core.Agent.session", "core.agent", "Agent._session", "core")
_entry("storage.cas.CasSink.stage", "storage.cas", "CasSink.stage", "storage.cas",
       lambda a, k, r: a[1].total_bytes)
_entry("storage.cas.CasSink.publish", "storage.cas", "CasSink.publish",
       "storage.cas")
_entry("storage.cas.CasSink.load", "storage.cas", "CasSink.load", "storage.cas",
       lambda a, k, r: _chain_bytes(r))
_entry("storage.cas.CasStore.acct_entry_ids", "storage.cas",
       "CasStore.acct_entry_ids", "storage.cas",
       lambda a, k, r: a[1].accounted_bytes)
_entry("storage.cas.chunk_bounds", "storage.cas", "chunk_bounds", "storage.cas",
       lambda a, k, r: len(a[0]))
_entry("storage.ledger.OpLedger.append", "storage.ledger", "OpLedger.append",
       "storage.ledger", _ledger_line_bytes)
_entry("storage.ledger.OpLedger.records", "storage.ledger", "OpLedger.records",
       "storage.ledger", lambda a, k, r: len(r))
for _fn in ("replay", "replay_campaigns", "claim", "claim_campaign"):
    _entry(f"storage.ledger.OpLedger.{_fn}", "storage.ledger", f"OpLedger.{_fn}",
           "storage.ledger")
_entry("fleet.Campaign.run_task", "fleet.campaign", "Campaign.run_task", "fleet")
_entry("fleet.resume_campaigns_task", "fleet.campaign", "resume_campaigns_task",
       "fleet")

#: codec calls are also split by the layer of the calling module.
_BY_CALLER = ("core.codec.encode", "core.codec.decode", "core.codec.encoded_size")
_CORE_SUBLAYERS = ("codec", "image", "netckpt", "pipeline", "standalone", "wire")

FILESINK_STORE = "core.pipeline.FileSink.store"


def layer_of_module(modname: str) -> str:
    """``repro.core.wire`` -> ``core.wire``; ``repro.core.agent`` ->
    ``core``; ``repro.storage.cas`` -> ``storage.cas``; else the package."""
    parts = modname.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if parts[1] == "core":
        sub = parts[2] if len(parts) > 2 else ""
        return f"core.{sub}" if sub in _CORE_SUBLAYERS else "core"
    if parts[1] == "storage" and len(parts) > 2:
        return f"storage.{parts[2]}"
    return parts[1]


def _resolve(module: str, path: str):
    """The raw attribute ``module:path`` (a staticmethod stays wrapped)."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return inspect.getattr_static(owner, attr)


class Tracer:
    """In-memory span recorder plus the installed wrappers."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: open spans, innermost last: [span index, child seconds]
        self._stack: List[list] = []
        #: stat name -> [calls, bytes, self seconds]
        self.stats: Dict[str, list] = {}
        #: codec bytes encoded directly under ``FileSink.store``.
        self.filesink_encoded = 0
        self.nesting_errors = 0
        #: entry points that are generators (their stat is ``step_s``).
        self.generators: set = set()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self._stack.clear()
        for st in self.stats.values():
            st[0] = st[1] = 0
            st[2] = 0.0
        self.filesink_encoded = 0
        self.nesting_errors = 0

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0.0]
        return st

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        self.span_start.append(self.clock())
        return frame

    def _close(self, frame: list) -> float:
        """End the span; returns its self time."""
        t = self.clock()
        idx = frame[0]
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            self.nesting_errors += 1
            if frame in stack:
                stack.remove(frame)
        if stack:
            stack[-1][1] += dur
        return dur - frame[1]

    def parent_name(self) -> Optional[str]:
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    # -- wrappers --------------------------------------------------------
    def _wrap_plain(self, key: str, fn, nbytes):
        nid = self._name_id(key)
        st = self._stat(key)
        by_caller = key in _BY_CALLER
        tracer = self

        def wrapper(*args, **kwargs):
            caller = None
            if by_caller:
                caller = layer_of_module(
                    sys._getframe(1).f_globals.get("__name__", ""))
                under_store = tracer.parent_name() == FILESINK_STORE
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[0] += 1
                st[2] += tracer._close(frame)
                raise
            self_s = tracer._close(frame)
            n = nbytes(args, kwargs, result) if nbytes is not None else 0
            st[0] += 1
            st[1] += n
            st[2] += self_s
            if caller is not None:
                cst = tracer._stat(f"{key}.by.{caller}")
                cst[0] += 1
                cst[1] += n
                cst[2] += self_s
                if under_store and key == "core.codec.encode":
                    tracer.filesink_encoded += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key: str, fn):
        nid = self._name_id(key)
        st = self._stat(key)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value: Any = None
            exc: Optional[BaseException] = None
            while True:
                frame = tracer._open(nid)
                try:
                    out = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    st[0] += 1
                    st[2] += tracer._close(frame)
                    return stop.value
                except BaseException:
                    st[0] += 1
                    st[2] += tracer._close(frame)
                    raise
                st[0] += 1
                st[2] += tracer._close(frame)
                exc = None
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the task
                    exc, value = err, None

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every entry point at every binding (see module doc)."""
        for key, (module, path, _layer, nbytes) in ENTRY_POINTS.items():
            raw = _resolve(module, path)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            if inspect.isgeneratorfunction(fn):
                self.generators.add(key)
                wrapped = self._wrap_generator(key, fn)
            else:
                wrapped = self._wrap_plain(key, fn, nbytes)
            replacement = kind(wrapped) if kind is not None else wrapped
            self._rebind(raw, replacement, fn)
        return self

    def _rebind(self, raw, replacement, fn) -> None:
        for mod in list(sys.modules.values()):
            try:
                names = vars(mod)
            except TypeError:
                continue
            for holder in [mod] + [v for v in list(names.values())
                                   if inspect.isclass(v) and getattr(
                                       v, "__module__", "").startswith("repro")]:
                for attr, value in list(vars(holder).items()):
                    if value is raw or value is fn:
                        self._patched.append((holder, attr, value))
                        setattr(holder, attr,
                                replacement if value is raw else
                                getattr(replacement, "__func__", replacement))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        parent, start, end = self.span_parent, self.span_start, self.span_end
        return sum(end[i] - start[i] for i in range(len(parent)) if parent[i] < 0)

    def write(self, path: str) -> None:
        """Dump the spans: a name table, then one ``[name, start_us,
        end_us, parent]`` row per span (times relative to the first)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                out.write("[%d,%.3f,%.3f,%d]\n" % (
                    self.span_name[i], (self.span_start[i] - t0) * 1e6,
                    (self.span_end[i] - t0) * 1e6, self.span_parent[i]))
