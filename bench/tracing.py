"""Spans around the program's public functions, kept in memory.

The tracer replaces each traced function at every module attribute that
holds it (``closure.restrict``, ``oracle.canonical_form``, ``cli.id_of``
and so on), because callers look the function up there at call time.  A
span records its name, start, end, parent span and one number taken from
the result (for example the length of an ``id_of`` list).  Nothing inside
the program changes; uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import defaultdict

import identity_lab
from identity_lab import cli, closure, core, criterion, families, oracle

MODULES = (identity_lab, core, closure, criterion, families, oracle, cli)

# span name -> number recorded from the function's result
RESULT_VALUE = {
    "closure.generate_catalog": len,
    "criterion.check": lambda verdict: int(verdict.accepted),
    "oracle.id_of": len,
    "oracle.realizes": lambda real: int(real is not None),
}


def _targets() -> dict:
    """Traced span name -> function object."""
    names = {
        closure: ("restrict", "duplicate", "generate_catalog",
                  "member_of_catalog", "catalog_from_json"),
        core: ("canonical_form",),
        criterion: ("check",),
        oracle: ("id_of", "realizes", "arrow_check"),
        cli: ("main",),
        families: tuple(
            name for name, obj in vars(families).items()
            if inspect.isfunction(obj)
            and obj.__module__ == families.__name__
            and not name.startswith("_")
        ),
    }
    return {
        f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}": getattr(mod, attr)
        for mod, attrs in names.items()
        for attr in attrs
    }


class Tracer:
    """In-memory span store; use as a context manager to trace a region."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("q")
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, func):
        nid = len(self.names)
        self.names.append(name)
        measure = RESULT_VALUE.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.value.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                self.value[idx] = measure(result)
            return result

        return traced

    def __enter__(self):
        wrappers = {id(f): self._wrap(name, f) for name, f in _targets().items()}
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as gzip JSON lines: a name table, then one
        ``[name, start, end, parent, value]`` row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.value):
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer numbers: name -> (value, unit)."""
        group = [
            "families" if n.startswith("families.") else n for n in self.names
        ]
        nid, parent = self.name_id, self.parent
        count = len(nid)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * count
        canon_children = defaultdict(int)  # member_of_catalog span -> forms
        restrict_in_catalog = 0
        for i in range(count):
            p = parent[i]
            if p < 0:
                continue
            child_time[p] += dur[i]
            if group[nid[p]] == "closure.member_of_catalog" and \
                    group[nid[i]] == "core.canonical_form":
                canon_children[p] += 1
            if group[nid[p]] == "closure.generate_catalog" and \
                    group[nid[i]] == "closure.restrict":
                restrict_in_catalog += 1
        calls = defaultdict(int)
        total = defaultdict(float)  # outermost spans of the group only
        self_time = defaultdict(float)
        value = defaultdict(int)
        catalog_entries = 0
        for i in range(count):
            g = group[nid[i]]
            calls[g] += 1
            value[g] += self.value[i]
            self_time[g] += dur[i] - child_time[i]
            if g == "closure.generate_catalog":
                catalog_entries += self.value[i] - 1  # all but the root
            p = parent[i]
            while p >= 0 and group[nid[p]] != g:
                p = parent[p]
            if p < 0:
                total[g] += dur[i]
        member_calls = calls["closure.member_of_catalog"]
        out = {}
        for g in ("closure.restrict", "closure.duplicate"):
            out[f"{g}.calls"] = (calls[g], "count")
            out[f"{g}.time_s"] = (total[g], "s")
        out["closure.generate_catalog.self_s"] = (
            self_time["closure.generate_catalog"], "s")
        out["closure.catalog.useful_ratio"] = (
            catalog_entries / restrict_in_catalog if restrict_in_catalog else 0.0,
            "ratio")
        out["core.canonical_form.calls"] = (calls["core.canonical_form"], "count")
        out["core.canonical_form.time_s"] = (total["core.canonical_form"], "s")
        out["core.canonical_form.per_query"] = (
            sum(canon_children.values()) / member_calls if member_calls else 0.0,
            "forms/query")
        out["closure.member_of_catalog.calls"] = (member_calls, "count")
        out["closure.member_of_catalog.time_s"] = (
            total["closure.member_of_catalog"], "s")
        out["closure.member_of_catalog.cold_calls"] = (
            sum(1 for n in canon_children.values() if n > 1), "count")
        out["closure.catalog_from_json.time_s"] = (
            total["closure.catalog_from_json"], "s")
        out["families.time_s"] = (total["families"], "s")
        out["criterion.check.calls"] = (calls["criterion.check"], "count")
        out["criterion.check.time_s"] = (total["criterion.check"], "s")
        out["criterion.check.accepted"] = (value["criterion.check"], "count")
        out["oracle.id_of.calls"] = (calls["oracle.id_of"], "count")
        out["oracle.id_of.time_s"] = (total["oracle.id_of"], "s")
        out["oracle.id_of.identities"] = (value["oracle.id_of"], "count")
        out["oracle.realizes.calls"] = (calls["oracle.realizes"], "count")
        out["oracle.realizes.time_s"] = (total["oracle.realizes"], "s")
        out["oracle.realizes.found"] = (value["oracle.realizes"], "count")
        out["oracle.arrow_check.calls"] = (calls["oracle.arrow_check"], "count")
        out["oracle.arrow_check.time_s"] = (total["oracle.arrow_check"], "s")
        out["cli.main.calls"] = (calls["cli.main"], "count")
        out["cli.main.self_s"] = (self_time["cli.main"], "s")
        return out
