"""Per-layer spans recorded from outside the package.

Each traced function is replaced, in every `fracorder` module whose globals
bind it, by a wrapper that times the call and keeps a stack of open spans, so
a span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory per label (calls, total, self) and per
(parent, child) edge; nothing inside the package changes.

A target named by a private attribute (`_mml_mp`, the optimizer's binding of
`_eval_arrays` in `fit`) is recorded only while that name exists; otherwise
the metrics built on it are reported as absent.
"""

from __future__ import annotations

import sys
import time
from statistics import median

ALL = "all"  # wrap the binding in every fracorder module that holds it
OWN = "own"  # wrap only the binding in the named module

ABSENT = -1.0  # value reported for a metric whose hook or base is missing


def _minimize_label(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return "fit.minimize.one_term" if config.n_terms == 1 else "fit.minimize.two_term"


# (module, attribute, span label or label function, scope)
TARGETS = (
    ("fracorder.cli", "main", "cli", ALL),
    ("fracorder.forward", "sample_trace", "forward.sample_trace", ALL),
    ("fracorder.forward", "trace_initial", "forward.trace_initial", ALL),
    ("fracorder.forward", "trace_source", "forward.trace_source", ALL),
    ("fracorder.specfun", "mml", "specfun.mml", ALL),
    ("fracorder.specfun", "_mml_mp", "specfun.mml_mp", ALL),
    ("fracorder.specfun", "ml2", "specfun.ml2", ALL),
    ("fracorder.specfun", "s1_kernel_contour", "specfun.contour", ALL),
    ("fracorder.specfun", "s2_kernel_contour", "specfun.contour", ALL),
    ("fracorder.models", "eval_model", "models.eval_model", ALL),
    ("fracorder.fit", "_eval_arrays", "models.fit_evals", OWN),
    ("fracorder.fit", "recover", "fit.recover", ALL),
    ("fracorder.fit", "minimize", _minimize_label, ALL),
)


class Tracer:
    """Installs span wrappers; `snapshot` returns one round's aggregates."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._restore: list[tuple[dict, str, object]] = []
        self.absent: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list[float]] = {}  # label -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list[float]] = {}  # (parent, child) -> [calls, total_s]
        self.samples: list[object] = []
        self.minimize: list[tuple[int, bool, bool]] = []  # (iterations, converged, max_iter stop)

    def _observe(self, label: str, args, kwargs, result) -> None:
        if label == "forward.sample_trace":
            key = (args, tuple(sorted(kwargs.items())))
            try:
                hash(key)
            except TypeError:
                key = repr(key)
            self.samples.append(key)
        elif label.startswith("fit.minimize."):
            config = args[1] if len(args) > 1 else kwargs["config"]
            stopped = not result.converged and result.iterations >= config.max_iter
            self.minimize.append((result.iterations, result.converged, stopped))

    def _wrap(self, fn, label):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else "<root>"
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fracorder" or n.startswith("fracorder.")]
        for mod_name, attr, label, scope in TARGETS:
            owner = sys.modules.get(mod_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.add(attr)
                continue
            wrapper = self._wrap(fn, label)
            holders = modules if scope == ALL else [owner]
            for mod in holders:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is fn:
                        self._restore.append((ns, key, value))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    def snapshot(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset."""

        def span(label):
            return self.spans.get(label, [0, 0.0, 0.0])

        def hooked(attr, value):
            return ABSENT if attr in self.absent else value

        def share(num, den):
            return num / den if den else ABSENT

        mml, mp = span("specfun.mml"), span("specfun.mml_mp")
        one, two = span("fit.minimize.one_term"), span("fit.minimize.two_term")
        n_min = len(self.minimize)
        out = {
            "specfun.mml.calls": mml[0],
            "specfun.mml.s": mml[2],
            "specfun.mml_mp.calls": hooked("_mml_mp", mp[0]),
            "specfun.mml_mp.s": hooked("_mml_mp", mp[2]),
            "specfun.mp_share": hooked("_mml_mp", share(mp[0], mml[0])),
            "specfun.ml2.calls": span("specfun.ml2")[0],
            "specfun.ml2.s": span("specfun.ml2")[2],
            "specfun.contour.calls": span("specfun.contour")[0],
            "specfun.contour.s": span("specfun.contour")[2],
            "forward.sample_trace.calls": span("forward.sample_trace")[0],
            "forward.sample_trace.s": span("forward.sample_trace")[2],
            "forward.unique_sample_share": share(len(set(self.samples)), len(self.samples)),
            "forward.trace_initial.calls": span("forward.trace_initial")[0],
            "forward.trace_initial.s": span("forward.trace_initial")[2],
            "forward.trace_source.calls": span("forward.trace_source")[0],
            "forward.trace_source.s": span("forward.trace_source")[2],
            "models.eval_model.calls": span("models.eval_model")[0],
            "models.eval_model.s": span("models.eval_model")[2],
            "models.fit_evals": hooked("_eval_arrays", span("models.fit_evals")[0]),
            "models.fit_evals.s": hooked("_eval_arrays", span("models.fit_evals")[2]),
            "fit.recover.s": span("fit.recover")[2],
            "fit.minimize.one_term.calls": one[0],
            "fit.minimize.one_term.s": one[2],
            "fit.minimize.two_term.calls": two[0],
            "fit.minimize.two_term.s": two[2],
            "fit.minimize.iterations": sum(it for it, _, _ in self.minimize),
            "fit.minimize.max_iter_stops": sum(1 for _, _, stop in self.minimize if stop),
            "fit.minimize.converged_share": share(sum(1 for _, conv, _ in self.minimize if conv), n_min),
            "cli.self_s": span("cli")[2],
        }
        return {
            "metrics": out,
            "spans": {k: v for k, v in sorted(self.spans.items())},
            "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(self.edges.items())],
        }


def combine(snapshots: list[dict]) -> dict:
    """Median over traced rounds of each per-layer figure."""
    keys = snapshots[0]["metrics"].keys()
    return {k: median(s["metrics"][k] for s in snapshots) for k in keys}
