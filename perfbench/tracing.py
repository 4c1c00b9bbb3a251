"""Span tracing of fairdpfed layers from outside the program.

A :class:`Tracer` replaces each traced function with a wrapper at every
binding the program calls it through: the defining module, every module that
imported it by value (``from .numeric import l2_norm``), and the class for
methods. Each call records a span (name, start, end, parent, run id) in
memory; :meth:`Tracer.uninstall` puts the originals back.

Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time

MODULES = ("numeric", "datagen", "models", "clipping", "privacy",
           "federation", "harness", "cli")

# (module, qualified name) of every traced function. Per-vector helpers
# (numeric.as_vector, RngStream.child) stay unwrapped: their cost is part of
# their callers' self time.
TARGETS = (
    ("numeric", "l2_norm"),
    ("numeric", "RngStream.generator"),
    ("datagen", "generate"),
    ("datagen", "partition"),
    ("datagen", "inject_bias"),
    ("models", "LabeledBatch.take"),
    ("models", "gradient"),
    ("models", "local_train"),
    ("models", "evaluate"),
    ("clipping", "compute_update"),
    ("clipping", "dual_clip"),
    ("privacy", "add_noise"),
    ("privacy", "epsilon_per_round"),
    ("federation", "sample_clients"),
    ("federation", "aggregate_round"),
    ("federation", "run_round"),
    ("federation", "run_training"),
    ("harness", "build_scenario"),
    ("harness", "centralized_baseline"),
    ("harness", "run_experiment"),
    ("cli", "main"),
)

# per-run statistics of a target that was never called
EMPTY = {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def _modules() -> dict:
    mods = {name: importlib.import_module(f"fairdpfed.{name}") for name in MODULES}
    mods[""] = importlib.import_module("fairdpfed")
    return mods


def bindings(mods: dict, module: str, qualname: str) -> list:
    """Every (owner, attribute) through which the program reaches a target.

    Empty when the program no longer has the target; its metrics then read 0.
    """
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(mods[module], cls_name, None)
        return [(cls, attr)] if hasattr(cls, attr) else []
    fn = getattr(mods[module], qualname, None)
    if fn is None:
        return []
    return [
        (mod, attr)
        for mod in mods.values()
        for attr, value in vars(mod).items()
        if value is fn
    ]


class Tracer:
    """Records nested spans of the target functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.rows_trained = {}  # run id -> rows seen by local_train
        self.run_id = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count_rows(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            rows = len(arguments["batch"]) * arguments["epochs"]
            self.rows_trained[self.run_id] = self.rows_trained.get(self.run_id, 0) + rows
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        for module, qualname in TARGETS:
            owners = bindings(mods, module, qualname)
            if not owners:
                continue
            fn = getattr(*owners[0])
            if (module, qualname) == ("models", "local_train"):
                fn = self._count_rows(fn)
            wrapped = self._wrap(f"{module}.{qualname}", fn)
            for owner, attr in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def per_run(self) -> dict:
        """run id -> span name -> {"calls", "self_s", "total_s"}."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for (name, start, end, _, run), child in zip(self.spans, child_s):
            agg = out.setdefault(run, {}).setdefault(name, dict(EMPTY))
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "run_id"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_medians(per_run: dict, run_ids) -> dict:
    """"<target>.<stat>" -> median over the given runs, for every target."""
    out = {}
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        for stat in EMPTY:
            out[f"{name}.{stat}"] = statistics.median(
                per_run.get(run, {}).get(name, EMPTY)[stat] for run in run_ids)
    return out
