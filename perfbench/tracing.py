"""Span tracing of the kfmc layers, from outside the package.

The tracer replaces each listed public function, in every ``kfmc.*`` module
that binds it, with a wrapper that records a span: name, start, end, the span
that was open when it was called (its parent), and a few facts read from the
arguments or the result (matrix shapes, sweeps, inner iterations, file
sizes).  Spans stay in memory; :func:`per_layer_metrics` turns them into the
per-layer numbers and :meth:`Tracer.write_csv` writes them out at exit.
Nothing under ``src/`` is changed: uninstalling restores every binding.
"""
from __future__ import annotations

import inspect
import os
import sys
import time

# module -> public functions traced in it
LAYERS = {
    "kernels": ("kernel_matrix", "kernel_diag", "power_weights"),
    "offline": ("fit", "solve_codes", "objective", "dictionary_step",
                "completion_step"),
    "online": ("run_stream", "complete_sample", "update_dictionary",
               "sample_objective"),
    "ose": ("complete_new", "train_dictionary"),
    "dataio": ("read_matrix_csv", "read_mask_csv", "write_matrix_csv",
               "write_trace_csv"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "cli": ("main",),
    "tuning": ("mean_pairwise_distance",),
    "masking": ("impute_init",),
}

# Span record fields (a list per span keeps the per-call cost low).
ID, PARENT, NAME, START, END, CHILD, INFO = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_matrix_info(args, kwargs, result):
    """Work of one kernel-matrix call, computed from the argument shapes.

    flop: the Gram product A'B (2 m na nb) plus the per-entry work (RBF:
    norms, scaling, clamp and exp; polynomial: offset and power).  Bytes:
    both inputs read once and the output written once, as float64.
    """
    spec = _arg(args, kwargs, 0, "spec")
    A = _arg(args, kwargs, 1, "A")
    B = _arg(args, kwargs, 2, "B")
    m, na = A.shape
    nb = B.shape[1]
    per_entry = 2 if spec.kind == "poly" else 6
    flop = 2.0 * m * na * nb + per_entry * na * nb
    if spec.kind != "poly":
        flop += 2.0 * m * (na + nb)
    return {"flop": flop, "bytes": 8.0 * (m * (na + nb) + na * nb)}


def _fit_info(args, kwargs, result):
    hp = _arg(args, kwargs, 2, "hp")
    return {"guarded": hp.eta == 0.0, "sweeps": result.iterations,
            "converged": bool(result.converged)}


def _run_stream_info(args, kwargs, result):
    return {"guarded": _arg(args, kwargs, 2, "hp").eta == 0.0}


def _complete_sample_info(args, kwargs, result):
    info = result[2]
    return {"iters": [info.iterations], "hits": [info.hit_iter_limit]}


def _complete_new_info(args, kwargs, result):
    out, infos = result
    return {"cols": out.shape[1], "iters": [i.iterations for i in infos],
            "hits": [i.hit_iter_limit for i in infos]}


def _file_info(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


INFO_READERS = {
    "kernels.kernel_matrix": _kernel_matrix_info,
    "offline.fit": _fit_info,
    "online.run_stream": _run_stream_info,
    "online.complete_sample": _complete_sample_info,
    "ose.complete_new": _complete_new_info,
    "dataio.read_matrix_csv": _file_info,
    "dataio.read_mask_csv": _file_info,
    "dataio.write_matrix_csv": _file_info,
    "dataio.write_trace_csv": _file_info,
}


class Tracer:
    """Installs span-recording wrappers around the kfmc layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, force_info):
        spans, stack, notes = self.spans, self._stack, self.notes
        read_info = INFO_READERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            wants_info = True
            if force_info:
                wants_info = kwargs.get("return_info", False)
                kwargs["return_info"] = True
            span = [len(spans), stack[-1][ID] if stack else -1, name,
                    0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += span[END] - span[START]
            if read_info is not None:
                try:
                    span[INFO] = read_info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError, OSError) as exc:
                    if len(notes) < 20:
                        notes.append(f"{name}: no span facts ({exc!r})")
            return result if wants_info else result[0]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a kfmc module binds it.

        A function that no longer exists is skipped with a note, so a later
        refactor that renames it does not break the trace.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kfmc" or n.startswith("kfmc."))]
        for module, names in LAYERS.items():
            home = sys.modules.get(f"kfmc.{module}")
            for fn_name in names:
                fn = getattr(home, fn_name, None) if home else None
                if not callable(fn):
                    self.notes.append(f"kfmc.{module}.{fn_name} not found; "
                                      "not traced")
                    continue
                force_info = fn_name == "complete_new" and \
                    "return_info" in inspect.signature(fn).parameters
                wrapper = self._wrap(f"{module}.{fn_name}", fn, force_info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for s in self.spans:
                fh.write(f"{s[ID]},{s[PARENT]},{s[NAME]},{s[START]!r},"
                         f"{s[END]!r},{s[END] - s[START] - s[CHILD]!r}\n")


# (name, unit, better) of every per-layer metric, in report order.
def _calls_self(layer, fns):
    out = []
    for fn in fns:
        out += [(f"{layer}.{fn}.calls", "count", "lower"),
                (f"{layer}.{fn}.self_s", "s", "lower")]
    return out


PER_LAYER = (
    _calls_self("kernels", LAYERS["kernels"])
    + [("kernels.kernel_matrix.gflop", "GFLOP", "lower"),
       ("kernels.kernel_matrix.mb", "MB", "lower")]
    + _calls_self("offline", LAYERS["offline"])
    + [("offline.fit.sweeps", "count", "lower"),
       ("offline.fit.converged_frac", "1", "higher"),
       ("offline.kernel_matrix_per_sweep", "count", "lower"),
       ("offline.kernel_matrix_per_sweep_guarded", "count", "lower"),
       ("offline.objective_per_sweep", "count", "lower"),
       ("offline.objective_per_sweep_guarded", "count", "lower")]
    + _calls_self("online", LAYERS["online"])
    + [("online.complete_sample.iters_mean", "count", "lower"),
       ("online.complete_sample.hit_iter_limit_frac", "1", "lower"),
       ("online.sample_objective_per_sample", "count", "lower"),
       ("online.sample_objective_per_sample_guarded", "count", "lower"),
       ("online.kernel_matrix_per_sample", "count", "lower"),
       ("online.kernel_matrix_per_sample_guarded", "count", "lower")]
    + _calls_self("ose", ("complete_new",))
    + [("ose.complete_new.cols", "count", "higher"),
       ("ose.complete_new.iters_mean", "count", "lower"),
       ("ose.complete_new.hit_iter_limit_frac", "1", "lower"),
       ("ose.train_dictionary.self_s", "s", "lower"),
       ("ose.kernel_matrix_per_col", "count", "lower")]
    + [m for fn in LAYERS["dataio"] for m in
       _calls_self("dataio", (fn,)) + [(f"dataio.{fn}.bytes", "B", "lower")]]
    + [("checkpoint.save_checkpoint.self_s", "s", "lower"),
       ("checkpoint.load_checkpoint.self_s", "s", "lower"),
       ("tuning.mean_pairwise_distance.self_s", "s", "lower"),
       ("masking.impute_init.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_frac", "1", "lower")]
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from a list of spans (see :data:`PER_LAYER`)."""
    by_id = {s[ID]: s for s in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + s[END] - s[START] - s[CHILD]

    def info(s, key, default=0):
        return (s[INFO] or {}).get(key, default)

    def of(name):
        return [s for s in spans if s[NAME] == name]

    def owner(s, names):
        """Nearest enclosing span whose name is in ``names``."""
        p = by_id.get(s[PARENT])
        while p is not None and p[NAME] not in names:
            p = by_id.get(p[PARENT])
        return p

    def count_under(child, parent, guarded):
        n = 0
        for s in of(child):
            o = owner(s, (parent,))
            if o is not None and info(o, "guarded", False) == guarded:
                n += 1
        return n

    values: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            values[f"{name}.calls"] = calls.get(name, 0)
            values[f"{name}.self_s"] = self_s.get(name, 0.0)

    km = of("kernels.kernel_matrix")
    values["kernels.kernel_matrix.gflop"] = sum(info(s, "flop") for s in km) / 1e9
    values["kernels.kernel_matrix.mb"] = sum(info(s, "bytes") for s in km) / 1e6

    fits = of("offline.fit")
    values["offline.fit.sweeps"] = sum(info(s, "sweeps") for s in fits)
    values["offline.fit.converged_frac"] = _ratio(
        sum(info(s, "converged", False) for s in fits), len(fits))
    for guarded, suffix in ((False, ""), (True, "_guarded")):
        sweeps = sum(info(s, "sweeps") for s in fits
                     if info(s, "guarded", False) == guarded)
        values[f"offline.kernel_matrix_per_sweep{suffix}"] = _ratio(
            count_under("kernels.kernel_matrix", "offline.fit", guarded), sweeps)
        values[f"offline.objective_per_sweep{suffix}"] = _ratio(
            count_under("offline.objective", "offline.fit", guarded), sweeps)

    samples = of("online.complete_sample")
    iters = [i for s in samples for i in info(s, "iters", [])]
    hits = [h for s in samples for h in info(s, "hits", [])]
    values["online.complete_sample.iters_mean"] = _ratio(sum(iters), len(iters))
    values["online.complete_sample.hit_iter_limit_frac"] = _ratio(sum(hits), len(hits))
    for guarded, suffix in ((False, ""), (True, "_guarded")):
        n = count_under("online.complete_sample", "online.run_stream", guarded)
        values[f"online.sample_objective_per_sample{suffix}"] = _ratio(
            count_under("online.sample_objective", "online.run_stream", guarded), n)
        values[f"online.kernel_matrix_per_sample{suffix}"] = _ratio(
            count_under("kernels.kernel_matrix", "online.run_stream", guarded), n)

    new = of("ose.complete_new")
    cols = sum(info(s, "cols") for s in new)
    iters = [i for s in new for i in info(s, "iters", [])]
    hits = [h for s in new for h in info(s, "hits", [])]
    values["ose.complete_new.cols"] = cols
    values["ose.complete_new.iters_mean"] = _ratio(sum(iters), len(iters))
    values["ose.complete_new.hit_iter_limit_frac"] = _ratio(sum(hits), len(hits))
    values["ose.kernel_matrix_per_col"] = _ratio(
        sum(1 for s in km if owner(s, ("ose.complete_new",)) is not None), cols)

    for fn in LAYERS["dataio"]:
        values[f"dataio.{fn}.bytes"] = sum(info(s, "bytes") for s in of(f"dataio.{fn}"))
    values["trace.overhead_frac"] = overhead_frac
    return {name: values[name] for name, _, _ in PER_LAYER}
