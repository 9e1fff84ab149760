"""Spans around the calls into chamberwalk's layers, recorded from the
benchmark's own files.

``Tracer.install`` wraps each traced public function everywhere it is looked
up: in its own module and in every chamberwalk module (or the package) that
imported the name directly, so that ``separation_profile`` reaches the
wrapped ``stationary_solve`` through ``chamberwalk.exact`` and the CLI
reaches the wrapped samplers through ``chamberwalk.cli``.  Spans are kept in
memory and written out when the run ends.
"""

import functools
import json
import statistics
import sys
import time


def _faces(arr):
    return len(arr.faces) if arr.faces is not None else 0


FACE_FUNCTIONS = ("tsetlin_faces", "riffle_faces", "k_to_top_faces", "top_bottom_faces",
                  "hypercube_nn_faces", "hypercube_nonlocal_faces")

# layer -> (module, function) pairs whose spans it sums, and how to count the
# work of one call from its result
LAYERS = {
    "core.build": ([("core", "build_braid"), ("core", "build_boolean")], _faces),
    "gallery.faces": ([("gallery", f) for f in FACE_FUNCTIONS], None),
    "exact.transition_matrix": ([("exact", "transition_matrix")], None),
    "exact.stationary_solve": ([("exact", "stationary_solve")], None),
    "exact.separation_profile": ([("exact", "separation_profile")], None),
    "exact.total_variation_profile": ([("exact", "total_variation_profile")], None),
    "exact.survival_terms": ([("exact", "survival_terms")], len),
    "exact.survival_exact_profile": ([("exact", "survival_exact_profile")], None),
    "gallery.tsetlin_survival_profile": ([("gallery", "tsetlin_survival_profile")], None),
    "glauber.coupon_survival_uniform": ([("glauber", "coupon_survival_uniform")], None),
    "glauber.glauber_matrix": ([("glauber", "glauber_matrix")], None),
    "glauber.glauber_separation_profile": ([("glauber", "glauber_separation_profile")], None),
    "walk.sample_T_batch": ([("walk", "sample_T_batch")], len),
    "gallery.sample_card_collection_T": ([("gallery", "sample_card_collection_T")], len),
    "gallery.sample_kset_coupon_T": ([("gallery", "sample_kset_coupon_T")], len),
    "walk.survival_from_samples": ([("walk", "survival_from_samples")], None),
    # the CLI's own time: parsing, family glue, CSV writing
    "cli": ([("cli", "main")], None),
}



def _card_collection_path(spec, *args, **kwargs):
    """Which of the sampler's two paths a call takes: equal card weights use
    the geometric decomposition, any others the per-trial simulation."""
    w = spec.card_weights
    return "uniform" if max(w) - min(w) <= 1e-15 else "weighted"


# layer -> function of a call's arguments naming its sub-layer, for layers
# whose calls take different code paths
PATHS = {"gallery.sample_card_collection_T": _card_collection_path}
SUBLAYERS = {f"gallery.sample_card_collection_T.{path}" for path in ("uniform", "weighted")}

# per-layer metric -> (layer, statistic, unit)
METRICS = {f"{layer}.self_s": (layer, "self_s", "s") for layer in LAYERS}
METRICS.update({
    "core.faces_enumerated": ("core.build", "work", "count"),
    "exact.transition_matrix.calls": ("exact.transition_matrix", "calls", "count"),
    "exact.stationary_solve.calls": ("exact.stationary_solve", "calls", "count"),
    "exact.survival_terms.terms": ("exact.survival_terms", "work", "count"),
    "glauber.coupon_survival_uniform.calls": ("glauber.coupon_survival_uniform", "calls", "count"),
    "walk.sample_T_batch.trials_per_s": ("walk.sample_T_batch", "work_per_s", "1/s"),
    "gallery.sample_card_collection_T.trials_per_s":
        ("gallery.sample_card_collection_T", "work_per_s", "1/s"),
    "gallery.sample_card_collection_T.uniform.trials_per_s":
        ("gallery.sample_card_collection_T.uniform", "work_per_s", "1/s"),
    "gallery.sample_card_collection_T.weighted.trials_per_s":
        ("gallery.sample_card_collection_T.weighted", "work_per_s", "1/s"),
    "gallery.sample_kset_coupon_T.trials_per_s":
        ("gallery.sample_kset_coupon_T", "work_per_s", "1/s"),
})


class Tracer:
    """Records one span per call of a wrapped function: its name, the phase
    of the run, start and end, the span that called it, and its work count."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._open = []  # [span id, time covered by children] of open spans

    def _wrap(self, layer, name, fn, work):
        path = PATHS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id so children can name it
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans[span_id] = {
                    "name": name, "layer": layer, "phase": self.phase,
                    "start": start, "end": end, "parent": parent,
                    "self_s": end - start - frame[1], "work": None,
                    "path": path(*args, **kwargs) if path else None,
                }
            if work is not None:
                self.spans[span_id]["work"] = work(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in every chamberwalk namespace that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "chamberwalk" or name.startswith("chamberwalk.")]
        for layer, (functions, work) in LAYERS.items():
            for module, func in functions:
                original = getattr(sys.modules[f"chamberwalk.{module}"], func)
                traced = self._wrap(layer, f"{module}.{func}", original, work)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def _phase_stats(self, phase):
        stats = {layer: {"self_s": 0.0, "calls": 0, "work": 0}
                 for layer in [*LAYERS, *SUBLAYERS]}
        for span in self.spans:
            if span["phase"] == phase:
                layers = [span["layer"]]
                if span["path"]:
                    layers.append(f"{span['layer']}.{span['path']}")
                for layer in layers:
                    entry = stats[layer]
                    entry["self_s"] += span["self_s"]
                    entry["calls"] += 1
                    entry["work"] += span["work"] or 0
        for entry in stats.values():
            entry["work_per_s"] = entry["work"] / entry["self_s"] if entry["self_s"] else 0.0
        return stats

    def metrics(self, measured_phases):
        """Per-layer metrics: the set-up's value plus the median over the
        measured passes (rates: the median pass's rate, set-up excluded)."""
        setup = self._phase_stats("setup")
        passes = [self._phase_stats(p) for p in measured_phases]
        out = {}
        for metric, (layer, stat, unit) in METRICS.items():
            per_pass = statistics.median(p[layer][stat] for p in passes)
            value = per_pass if stat == "work_per_s" else setup[layer][stat] + per_pass
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
