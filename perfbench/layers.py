"""Measuring the program's layers from outside.

:class:`Probe` patches methods of the program's public classes at run
time; nothing under ``src/`` knows it is being measured.

* Untraced, the only hook is a timestamp on entry to ``ParallelApp.run``
  / ``WorkloadEngine.run``: the start of the event loop, which ends a
  trial call's set-up.
* Traced, the public constructors are wrapped as well, every wrapped
  call becomes a host-time span (name, start, end, parent) kept in
  memory, ``gc.callbacks`` time the collector's pauses, and cProfile
  charges self time to the ``repro`` package or module that spent it.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import repro
import repro.sim.collapse
from repro.faults import FaultInjector
from repro.parallel.app import ParallelApp
from repro.pfs.deployment import PFSDeployment
from repro.sim.cluster import SimCluster
from repro.sim.deployment import LWFSDeployment
from repro.storage.buffer import BufferTierRuntime
from repro.workload.engine import WorkloadEngine

#: Packages of ``repro`` reported as ``<package>.self_s``.
PACKAGES = (
    "simkernel", "network", "sim", "storage", "lwfs", "pfs", "iolib",
    "parallel", "machine", "workload", "faults", "bench",
)
#: Modules (or sub-packages) reported as ``<module>.self_s``.
MODULES = (
    "network.fabric", "network.portals", "network.rpc", "network.flow",
    "simkernel.core", "simkernel.events", "simkernel.resources",
    "storage.device", "storage.buffer", "sim.cluster", "sim.servers",
)
#: Public constructors timed in traced runs: (set-up key, owner, attribute).
CONSTRUCTORS = (
    ("setup.cluster_s", SimCluster, "__init__"),
    ("setup.deploy_s", LWFSDeployment, "__init__"),
    ("setup.deploy_s", PFSDeployment, "__init__"),
    ("setup.tier_s", BufferTierRuntime, "__init__"),
    ("setup.faults_s", FaultInjector, "install"),
    ("setup.collapse_s", repro.sim.collapse, "collapse_plan"),
    ("setup.app_s", ParallelApp, "__init__"),
    ("setup.engine_s", WorkloadEngine, "__init__"),
)
SETUP_KEYS = tuple(dict.fromkeys(key for key, _, _ in CONSTRUCTORS))

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Probe:
    """Run-time hooks on the program's public entry points."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        #: Host spans: [name, start, end, parent index or None].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the previous trial's captures."""
        #: One row per public trial call: [label, t_call, t_loop, t_return].
        self.calls: List[list] = []
        #: ``(simulated ranks, per-rank results)`` per ``ParallelApp.run``.
        self.apps: List[Tuple[int, list]] = []
        self.engines: List[WorkloadEngine] = []
        self.setup: Dict[str, float] = defaultdict(float)

    # -- spans -------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, label: str, fn, *args, **kwargs):
        """Call one public trial function; its set-up ends at loop entry."""
        row = [label, time.perf_counter(), None, None]
        self.calls.append(row)
        try:
            with self.span(f"{fn.__name__}[{label}]"):
                return fn(*args, **kwargs)
        finally:
            row[3] = time.perf_counter()

    def setup_s(self) -> float:
        """Host seconds from each trial call to its event loop, summed."""
        return sum(t_loop - t_call for _, t_call, t_loop, _ in self.calls if t_loop is not None)

    def loop_s(self) -> float:
        """Host seconds from each event-loop start to its call's return,
        summed: the loop itself plus the drain barrier and stats after it."""
        return sum(t_ret - t_loop for _, _, t_loop, t_ret in self.calls if t_loop is not None)

    # -- patching ----------------------------------------------------------------
    def install(self) -> "Probe":
        self._patch(ParallelApp, "run", self._loop_hook(ParallelApp.run, "ParallelApp.run"))
        self._patch(WorkloadEngine, "run",
                    self._loop_hook(WorkloadEngine.run, "WorkloadEngine.run"))
        if self.traced:
            for key, owner, attr in CONSTRUCTORS:
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._timed(original, key, attr))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _loop_hook(self, original, name: str):
        probe = self

        def run(obj, *args, **kwargs):
            if probe.calls and probe.calls[-1][2] is None:
                probe.calls[-1][2] = time.perf_counter()
            with probe.span(name):
                result = original(obj, *args, **kwargs)
            if isinstance(obj, WorkloadEngine):
                probe.engines.append(obj)
            else:
                probe.apps.append((len(obj.contexts), result))
            return result

        return run

    def _timed(self, original, key: str, attr: str):
        probe = self
        name = f"{key[len('setup.'):-len('_s')]}:{attr}"

        def timed(*args, **kwargs):
            start = time.perf_counter()
            with probe.span(name):
                result = original(*args, **kwargs)
            probe.setup[key] += time.perf_counter() - start
            return result

        return timed


class GCTimer:
    """A ``gc.callbacks`` hook summing the collector's pauses."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.pause_s = 0.0
        self.collections = 0
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._start = now
        elif self._start is not None:
            self.pause_s += now - self._start
            self.collections += 1
            if self.probe.traced:
                self.probe.spans.append(
                    [f"gc:gen{info['generation']}", self._start, now, None]
                )
            self._start = None


def _layer_of(filename: str) -> Optional[str]:
    """``network.rpc`` for ``.../repro/network/rpc.py``; None outside repro."""
    if not filename.startswith(_REPRO_DIR):
        return None
    rel = filename[len(_REPRO_DIR):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace(os.sep, ".")


def self_times(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per ``repro`` module, plus ``other`` for the rest.

    A built-in function's self time is charged to the layer of each
    Python function that called it, by what it spent on behalf of that
    caller; built-ins called from built-ins count as ``other``.
    """
    times: Dict[str, float] = defaultdict(float)
    for entry in profiler.getstats():
        if isinstance(entry.code, str):
            layer = "other"  # a built-in; its own time is charged via its callers
        else:
            layer = _layer_of(entry.code.co_filename) or "other"
            times[layer] += entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                times[layer] += sub.inlinetime
    return dict(times)


def layer_self_s(times: Dict[str, float]) -> Dict[str, float]:
    """Fold per-module self times into the reported package/module layers."""

    def under(prefix: str) -> float:
        return sum(t for mod, t in times.items()
                   if mod == prefix or mod.startswith(prefix + "."))

    out = {f"{pkg}.self_s": under(pkg) for pkg in PACKAGES}
    out.update({f"{mod}.self_s": under(mod) for mod in MODULES})
    out["repro.other.self_s"] = sum(
        t for mod, t in times.items()
        if mod != "other" and mod.split(".")[0] not in PACKAGES
    )
    out["other.self_s"] = times.get("other", 0.0)
    return out


def chrome_doc(spans: List[list], meta: dict) -> dict:
    """Host spans as a Chrome trace-event document (microseconds)."""
    t0 = min((s[1] for s in spans), default=0.0)
    events = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "perfbench host"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "calls"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2, "args": {"name": "gc"}},
    ]
    for index, (name, start, end, parent) in enumerate(spans):
        events.append({
            "ph": "X",
            "name": name,
            "cat": "gc" if name.startswith("gc:") else "call",
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 2 if name.startswith("gc:") else 1,
            "args": {"span_id": index, "parent_id": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
