"""Outside-in layer trace for the motslab benchmark.

``Tracer.install`` replaces each layer's public functions and public class
methods with timing wrappers at the module or class attribute the caller
looks up; ``src/`` is not edited. Names a layer imports from another layer
(``from .grids import integrate`` in ``surfaces`` and ``audits``) are wrapped
in the importing module's namespace and charged to the layer that defines
them. Three calls get extra counters: ``spectra.splu`` (factor time, LU fill,
and a proxy that counts ``solve`` calls), ``spectra.principal_eigenvalue``
(iterations and residual) and ``initialdata.resolve`` (whose result's
evaluator callables g, dg, ddg, k, dk and in_domain are the ambient jet).

Spans stay in memory as ``[job, layer, function, start, end, parent]`` and
are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children. ``summarize`` returns
each job's summed self times and root spans, which the runner checks
against the job's own wall time and one ``cli.main`` root.
"""

import dataclasses
import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("initialdata", "surfaces", "grids", "spectra", "audits", "cli")
_JET = ("g", "dg", "ddg", "k", "dk", "in_domain")


class _CountingLU:
    """Stands in for a SuperLU object and counts its triangular solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        self._tracer.count("lu_solves")
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []

    def count(self, name, amount=1.0):
        self.counts[self.job][name] += amount

    def wrap(self, layer, name, fn, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.job, layer, name, 0.0, 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(result)
                return result
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        special = {
            ("initialdata", "resolve"): self._post_resolve,
            ("spectra", "principal_eigenvalue"): self._post_eigen,
        }
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in layer_of:
                    owner = layer_of[obj.__module__]
                    post = special.get((owner, name))
                    setattr(mod, name, self.wrap(owner, name, obj, post))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        spectra = modules["spectra"]
        spectra.splu = self.wrap("spectra", "splu", spectra.splu,
                                 self._post_splu)
        spectra.eigsh = self.wrap("spectra", "eigsh", spectra.eigsh)

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            public = not name.startswith("_") or (
                name == "__init__" and not dataclasses.is_dataclass(cls))
            if public and inspect.isfunction(obj):
                setattr(cls, name,
                        self.wrap(layer, f"{cls.__name__}.{name}", obj))

    def _post_resolve(self, data):
        for name in _JET:
            setattr(data, name,
                    self.wrap("initialdata", f"data.{name}",
                              getattr(data, name)))
        return data

    def _post_eigen(self, result):
        self.count("iterations", result.iterations)
        counts = self.counts[self.job]
        counts["residual_max"] = max(counts["residual_max"], result.residual)
        return result

    def _post_splu(self, lu):
        self.count("factor_calls")
        self.count("lu_nnz", lu.nnz)
        return _CountingLU(lu, self)

    # -- analysis ----------------------------------------------------------

    def job_counts(self, job):
        """Exact per-job counts compared by the repeat self-check."""
        counts = self.counts[job]
        out = {name: int(counts[name])
               for name in ("lu_nnz", "factor_calls", "lu_solves", "iterations")}
        out["ricci_calls"] = sum(1 for s in self.spans
                                 if s[0] == job and s[2] == "ricci")
        return out

    def summarize(self, jobs):
        """Per-layer metrics: totals over ``jobs`` divided by their number.

        Returns (metrics, {job: summed self times in seconds},
        {job: ["layer.function" of each root span]}).
        """
        jobs = set(jobs)
        n = max(1, len(jobs))
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[5] >= 0:
                child[s[5]] += s[4] - s[3]
        self_s = defaultdict(float)
        per_job_self = defaultdict(float)
        per_job_roots = defaultdict(list)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        audit_jobs = set()
        factor_in_eigen = 0.0
        for i, s in enumerate(spans):
            job, layer, name, start, end, parent = s
            if job not in jobs:
                continue
            dur = end - start
            self_s[layer] += dur - child[i]
            per_job_self[job] += dur - child[i]
            if parent < 0:
                per_job_roots[job].append(f"{layer}.{name}")
            calls[layer, name] += 1
            inclusive[layer, name] += dur
            if layer == "audits" and name.startswith("audit_"):
                audit_jobs.add(job)
            if name == "splu" and parent >= 0 \
                    and spans[parent][2] == "principal_eigenvalue":
                factor_in_eigen += dur

        total = defaultdict(float)
        for job in jobs:
            for key, value in self.counts[job].items():
                if key != "residual_max":
                    total[key] += value
        eigen_calls = calls["spectra", "principal_eigenvalue"]
        audit_calls = sum(v for (layer, name), v in calls.items()
                          if layer == "audits" and name.startswith("audit_"))
        audit_eigen = sum(
            1 for s in spans if s[0] in audit_jobs and s[2] in
            ("principal_eigenvalue", "symmetric_spectrum"))
        m = {f"{layer}.self_s": self_s[layer] / n for layer in LAYERS}
        m.update({
            "initialdata.ricci_calls": calls["initialdata", "ricci"] / n,
            "surfaces.geometry_s":
                inclusive["surfaces", "compute_geometry"] / n,
            "surfaces.geometry_calls": calls["surfaces", "compute_geometry"] / n,
            "spectra.assemble_s": inclusive["spectra", "assemble"] / n,
            "spectra.factor_s": inclusive["spectra", "splu"] / n,
            "spectra.factor_calls": total["factor_calls"] / n,
            "spectra.lu_nnz": total["lu_nnz"] / n,
            "spectra.iterate_s": (inclusive["spectra", "principal_eigenvalue"]
                                  - factor_in_eigen) / n,
            "spectra.iterations": total["iterations"] / n,
            "spectra.lu_solves": total["lu_solves"] / n,
            "spectra.residual_max": max(
                (self.counts[j]["residual_max"] for j in jobs), default=0.0),
            "spectra.eigsh_s": inclusive["spectra", "eigsh"] / n,
            "spectra.eigsh_calls": calls["spectra", "eigsh"] / n,
            "spectra.eigen_calls": eigen_calls / n,
            "spectra.factor_per_eigen":
                total["factor_calls"] / eigen_calls if eigen_calls else 0.0,
            "audits.eigen_per_audit":
                audit_eigen / audit_calls if audit_calls else 0.0,
            "trace.spans_per_job": sum(calls.values()) / n,
        })
        return m, per_job_self, per_job_roots

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "layer", "function", "start", "end",
                                  "parent"],
                       "spans": self.spans}, fh)
