"""Spans around calls into expcrm's public functions, recorded from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records one span (name, parent span, start and end in ns) per call and,
for some calls, a work count taken from the arguments or the result.  A module
function is replaced everywhere an expcrm module holds a reference to it (the
package imports names with ``from .x import f``), so calls between modules are
traced too.  A method is replaced on its class and on every subclass that
overrides it.  ``uninstall()`` puts the originals back.  Nothing under ``src/``
changes.

Spans stay in memory until ``write()`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

from workloads import atom_steps


def _count_sb_init(args, kwargs, out):
    sampler = args[0]
    return {"size_biased.cells": sampler.config.m_max * sampler.count_cap}


def _count_sample(args, kwargs, out):
    locations = [[a.location.value for a in obs.atoms] for obs in out]
    return {"marginal.steps": len(out), "marginal.atom_steps": atom_steps(locations)}


def _count_trait_json(args, kwargs, out):
    return {"measures.atoms_serialized": len(out["fixed"]) + len(out["ordinary"])}


def _count_obs_json(args, kwargs, out):
    return {"measures.atoms_serialized": len(out["atoms"])}


def _count_write(args, kwargs, out):
    return {"measures.bytes_written": os.path.getsize(args[0])}


def _count_read(args, kwargs, out):
    return {"measures.bytes_read": os.path.getsize(args[0])}


def _count_posterior(args, kwargs, out):
    return {"posterior.observations": out.n_obs}


# (module, attribute path, span name, work counter)
TARGETS = [
    ("expcrm.config", "parse_model_config", "config.parse_model_config", None),
    ("expcrm.config", "ModelConfig.build_prior", "config.build_prior", None),
    ("expcrm.size_biased", "SizeBiasedSampler.__init__", "size_biased.build", _count_sb_init),
    ("expcrm.size_biased", "SizeBiasedSampler.tail_certificate", "size_biased.tail_certificate", None),
    ("expcrm.size_biased", "SizeBiasedSampler.draw_labeled", "size_biased.draw_labeled", None),
    ("expcrm.size_biased", "SizeBiasedSampler.draw", "size_biased.draw", None),
    ("expcrm.catalog", "CatalogEntry.rate_table", "catalog.rate_table", None),
    ("expcrm.catalog", "CatalogEntry.sample_weights", "catalog.sample_weights", None),
    ("expcrm.catalog", "CatalogEntry.predictive_logpmf", "catalog.predictive_logpmf", None),
    ("expcrm.marginal", "MarginalSampler.__init__", "marginal.build", None),
    ("expcrm.marginal", "MarginalSampler.tail_certificate", "marginal.tail_certificate", None),
    ("expcrm.marginal", "MarginalSampler.sample", "marginal.sample", _count_sample),
    ("expcrm.marginal", "predictive_logpmf", "marginal.predictive_logpmf", None),
    ("expcrm.exp_family", "log_partition_B", "exp_family.log_partition_B", None),
    ("expcrm.quadrature", "integrate", "quadrature.integrate", None),
    ("expcrm.measures", "trait_to_jsonable", "measures.trait_to_jsonable", _count_trait_json),
    ("expcrm.measures", "observation_to_jsonable", "measures.observation_to_jsonable", _count_obs_json),
    ("expcrm.measures", "observation_from_jsonable", "measures.observation_from_jsonable", None),
    ("expcrm.measures", "write_jsonl", "measures.write_jsonl", _count_write),
    ("expcrm.measures", "read_jsonl", "measures.read_jsonl", _count_read),
    ("expcrm.posterior", "posterior_update", "posterior.update", _count_posterior),
    ("expcrm.rng", "RngState.generator", "rng.generator", None),
    ("expcrm.checks", "run_suite", "checks.run_suite", None),
    ("expcrm.checks", "check_assumptions", "checks.assumptions", None),
    ("expcrm.checks", "oracle_suite", "checks.oracle", None),
    ("expcrm.checks", "equivalence_run", "checks.equivalence", None),
]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # [name id, parent index, start ns, end ns]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)
        self._t0 = time.perf_counter_ns()

    def _wrap(self, fn, name: str, counter):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    counts[key] += value
            return out

        return wrapper

    def install(self) -> None:
        for module_name, path, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                base = getattr(module, cls_name)
                for cls in _subclasses(base):
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        setattr(cls, meth, self._wrap(original, name, counter))
                        self._patched.append((cls, meth, original))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, name, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "expcrm" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the spans ---------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        child = [0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            calls[nid] += 1
            incl[nid] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns = [0] * len(self.names)
        for i, (nid, _, start, end) in enumerate(self.spans):
            self_ns[nid] += end - start - child[i]
        return {n: (calls[i], incl[i] * 1e-9, self_ns[i] * 1e-9) for i, n in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        hits = 0
        for span in self.spans:
            if span[0] != nid:
                continue
            parent = span[1]
            while parent >= 0:
                if self.spans[parent][0] == aid:
                    hits += 1
                    break
                parent = self.spans[parent][1]
        return hits

    def write(self, path) -> None:
        """Dump every span, relative to the tracer's creation, plus the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "totals": {
                        n: {"calls": c, "inclusive_s": i, "self_s": s}
                        for n, (c, i, s) in self.totals().items()
                    },
                    "counts": dict(self.counts),
                    "spans": [[n, p, s - self._t0, e - self._t0] for n, p, s, e in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
