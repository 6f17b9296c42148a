"""Per-layer spans recorded from outside the package.

Each layer is one module of ``cdtradeoff``.  ``Tracer.install`` wraps every
public function of a layer, the public methods of its classes, and its
constructors (at ``__init__``, which encloses a dataclass's
``__post_init__``).  The CLI binds names with ``from .x import y``, and
modules call each other through their own globals, so each wrapper replaces
the original in every loaded ``cdtradeoff`` namespace that holds it.
Private helpers (``_categorical``, ``_bootstrap_rows``) are measured through
the public function that calls them.  Properties are not wrapped; their
time counts to the caller.

A span's self time is its duration minus the durations of the spans it
encloses; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import enum
import functools
import inspect
import statistics
import sys
import time
import tracemalloc

LAYERS = (
    "cli", "qubit_model", "quantum_core", "cd_measures",
    "highdim_model", "detector_model", "shot_sampler", "calibration",
)
CONSTRUCTORS = (
    "DensityMatrix.__init__", "Effect.__init__", "Povm.__init__", "LuedersInstrument.__init__",
)
FITS = ("fit_circle_sharp_probe", "fit_ellipse_known_theta", "fit_ellipse_unknown_theta")
SELF_TIMES = {
    "quantum_core.joint_probabilities": ("quantum_core", ("joint_probabilities",)),
    "shot_sampler.sample_distributions": ("shot_sampler", ("sample_distributions",)),
    "shot_sampler.policy_cd": ("shot_sampler", ("policy_cd",)),
    "shot_sampler.sample": ("shot_sampler", ("sample",)),
    "shot_sampler.estimate_cd": ("shot_sampler", ("estimate_cd",)),
    "calibration.fit_circle_sharp_probe": ("calibration", ("fit_circle_sharp_probe",)),
    "calibration.fit_ellipse_known_theta": ("calibration", ("fit_ellipse_known_theta",)),
    "calibration.fit_ellipse_unknown_theta": ("calibration", ("fit_ellipse_unknown_theta",)),
    "calibration.scan_from_arrays": ("calibration", ("CdScan.from_arrays",)),
    "calibration.estimate_detector": ("calibration", ("estimate_detector",)),
    "cli.read_scan_csv": ("cli", ("read_scan_csv",)),
    "quantum_core.construct": ("quantum_core", CONSTRUCTORS),
}


def metric_specs() -> dict:
    """Name -> (unit, better) of every per-layer metric."""
    specs = {}
    for layer in LAYERS:
        specs[f"{layer}.calls"] = ("count", "lower")
        specs[f"{layer}.self_s"] = ("s", "lower")
        specs[f"{layer}.share"] = ("ratio", "lower")
    for name in SELF_TIMES:
        specs[f"{name}.self_s"] = ("s", "lower")
    specs.update({
        "quantum_core.construct.calls": ("count", "lower"),
        "quantum_core.psd_sqrt.calls": ("count", "lower"),
        "quantum_core.joint_probabilities.calls": ("count", "lower"),
        "shot_sampler.draws": ("count", "higher"),
        "shot_sampler.streams": ("count", "lower"),
        "shot_sampler.ns_per_draw": ("ns", "lower"),
        "shot_sampler.peak_alloc_mib": ("MiB", "lower"),
        "calibration.resamples": ("count", "higher"),
        "calibration.us_per_resample": ("us", "lower"),
        "cli.bytes_written": ("B", "lower"),
        "trace.pass_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.unattributed": ("ratio", "lower"),
    })
    return specs


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cdtradeoff" or name.startswith("cdtradeoff."))]


def _layer_module(layer: str):
    return sys.modules[f"cdtradeoff.{layer}"]


def replace_everywhere(original, replacement) -> list:
    """Rebind every module-level name bound to ``original``; returns the
    undo list for ``restore``."""
    undo = []
    for module in _namespaces():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    """Spans and counts of the traced passes, kept in memory."""

    def __init__(self):
        self._stack = [[0.0]]
        self._spans = {}  # (layer, qualname) -> [calls, self_s, total_s]
        self._undo = []
        self.counts = {"draws": 0, "streams": 0, "resamples": 0}

    def reset(self) -> None:
        self._stack[:] = [[0.0]]
        for rec in self._spans.values():
            rec[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def _wrap(self, layer: str, qualname: str, fn, on_call=None):
        stack, clock = self._stack, time.perf_counter
        rec = self._spans.setdefault((layer, qualname), [0, 0.0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += duration - frame[0]
                rec[2] += duration
                stack[-1][0] += duration

        return span

    def _counter(self, fn, update):
        signature = inspect.signature(fn)

        def on_call(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            update(bound.arguments)

        return on_call

    def _hooks(self, layer: str, name: str, fn):
        counts = self.counts
        if (layer, name) == ("shot_sampler", "sample_distributions"):
            def update(a):
                counts["draws"] += a["shots_joint"] + a["shots_alone"]
                counts["streams"] += 1  # one Philox stream per record
            return self._counter(fn, update)
        if layer == "calibration" and name in FITS:
            def update(a):
                counts["resamples"] += a["n_bootstrap"]
            return self._counter(fn, update)
        return None

    def install(self) -> None:
        for layer in LAYERS:
            module = _layer_module(layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, name, obj, self._hooks(layer, name, obj))
                    self._undo += replace_everywhere(obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qualname = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                new = self._wrap(layer, qualname, attr)
            elif isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(layer, qualname, attr.__func__))
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, attr))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _sum(self, layer: str, names=None, column: int = 1) -> float:
        return sum(rec[column] for (lay, name), rec in self._spans.items()
                   if lay == layer and (names is None or name in names))

    def metrics(self, pass_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of one traced pass lasting ``pass_s``."""
        out = {"trace.pass_s": pass_s, "cli.bytes_written": bytes_written}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._sum(layer, column=0)
            out[f"{layer}.self_s"] = self._sum(layer)
        for metric, (layer, names) in SELF_TIMES.items():
            out[f"{metric}.self_s"] = self._sum(layer, names)
        out["quantum_core.construct.calls"] = self._sum("quantum_core", CONSTRUCTORS, 0)
        out["quantum_core.psd_sqrt.calls"] = self._sum("quantum_core", ("psd_sqrt",), 0)
        out["quantum_core.joint_probabilities.calls"] = self._sum(
            "quantum_core", ("joint_probabilities",), 0)
        draws, resamples = self.counts["draws"], self.counts["resamples"]
        out["shot_sampler.draws"] = draws
        out["shot_sampler.streams"] = self.counts["streams"]
        sampling_s = self._sum("shot_sampler", ("sample_distributions",), 2)
        out["shot_sampler.ns_per_draw"] = 1e9 * sampling_s / draws if draws else 0.0
        out["calibration.resamples"] = resamples
        fitting_s = self._sum("calibration", FITS, 2)
        out["calibration.us_per_resample"] = 1e6 * fitting_s / resamples if resamples else 0.0
        return out


def summarize(samples: list) -> dict:
    """Median of each per-pass metric over the traced passes.

    Shares are taken from totals over all traced passes, so they sum to at
    most 1; ``trace.unattributed`` is the rest (time outside any span).
    """
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    total_s = sum(s["trace.pass_s"] for s in samples)
    for layer in LAYERS:
        out[f"{layer}.share"] = sum(s[f"{layer}.self_s"] for s in samples) / total_s
    out["trace.unattributed"] = 1.0 - sum(out[f"{layer}.share"] for layer in LAYERS)
    return out


class AllocProbe:
    """Peak traced allocation inside any one ``sample_distributions`` call.

    tracemalloc runs only inside the call, so the rest of the pass is not
    slowed; the probe pass is not timed.
    """

    def __init__(self):
        self.peak_bytes = 0
        self._undo = []

    def install(self) -> None:
        original = _layer_module("shot_sampler").sample_distributions

        @functools.wraps(original)
        def probe(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._undo = replace_everywhere(original, probe)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
