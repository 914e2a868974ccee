"""Span tracing of beamtrack's modules from outside the package.

`Tracer.installed()` replaces each entry point in `ENTRY_POINTS` with a
wrapper, at the name where its callers look it up (a module global, a class
attribute, or the module attribute that other modules call through), and
puts the originals back on exit. Each call records a span (name, start, end,
parent) in memory; nothing is written until `write()`.

A span's name is `<layer>.<entry point>`, and the layer is the beamtrack
module that owns the code. A span's self time is its duration minus the
durations of its child spans, so the ten layers' self times add up to the
traced time spent inside beamtrack.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from beamtrack import beamctl, cli, filtering, harness, measurement, neural, predictor, trackers

LAYERS = (
    "arrays", "measurement", "mobility", "neural", "predictor",
    "filtering", "beamctl", "trackers", "harness", "cli",
)


def _rows(args):
    xs = args[1]
    return xs.shape[0] if xs.ndim == 3 else 1


def _path_slots(args):
    return int(args[1]) * int(args[2])


# (owner, attribute, span name, per-call count). The owner is where callers
# look the function up: `from .x import f` makes `f` a global of the
# importing module, and a call written `x.f(...)` looks `f` up on module x.
ENTRY_POINTS = [
    (trackers, "assemble_channel", "arrays.assemble_channel", None),
    (measurement, "assemble_channel", "arrays.assemble_channel", None),
    (measurement, "steering_vector", "arrays.steering_vector", None),
    (harness, "make_codebook", "arrays.make_codebook", None),
    # PilotChannel.receive assembles the true channel and sounds it: the
    # pilot measurement as the trackers see it.
    (trackers.PilotChannel, "receive", "measurement.receive", None),
    (filtering, "_measurement_from_angles", "measurement.measurement_from_angles", None),
    (trackers, "_measurement_from_angles", "measurement.measurement_from_angles", None),
    (filtering, "_jacobian_from_angles", "measurement.jacobian_from_angles", None),
    (trackers, "_jacobian_from_angles", "measurement.jacobian_from_angles", None),
    (beamctl, "_jacobian_from_angles", "measurement.jacobian_from_angles", None),
    (beamctl, "_measurement_factors", "measurement.measurement_factors", None),
    (harness, "generate_trajectory", "mobility.generate_trajectory", ("path_slots", _path_slots)),
    (trackers, "generate_trajectory", "mobility.generate_trajectory", ("path_slots", _path_slots)),
    (predictor, "generate_trajectory", "mobility.generate_trajectory", ("path_slots", _path_slots)),
    (harness, "synthesize_imu", "mobility.synthesize_imu", None),
    (predictor, "synthesize_imu", "mobility.synthesize_imu", None),
    (neural, "forward_stack", "neural.forward_stack", ("rows", _rows)),
    (neural, "loss_and_gradients", "neural.loss_and_gradients", None),
    (neural, "grads_as_dict", "neural.grads_as_dict", None),
    (neural, "adam_update", "neural.adam_update", None),
    (trackers, "predict", "predictor.predict", None),
    (harness, "scale_sensor_block", "predictor.scale_sensor_block", None),
    (predictor, "scale_sensor_block", "predictor.scale_sensor_block", None),
    (predictor, "generate_dataset", "predictor.generate_dataset", None),
    (predictor, "build_model", "predictor.build_model", None),
    (predictor, "train", "predictor.train", None),
    (predictor, "save_checkpoint", "predictor.save_checkpoint", None),
    (predictor, "load_checkpoint", "predictor.load_checkpoint", None),
    (harness, "load_checkpoint", "predictor.load_checkpoint", None),
    (trackers, "prediction_update", "filtering.prediction_update", None),
    (trackers._KalmanTracker, "_measurement_update", "filtering.measurement_update", None),
    (trackers, "joint_belief", "filtering.joint_belief", None),
    (trackers, "split_joint", "filtering.split_joint", None),
    (trackers, "select_sounding", "beamctl.select_sounding", None),
    (trackers, "nearest_beams", "beamctl.nearest_beams", None),
    (trackers.ProposedTracker, "step", "trackers.step", None),
    (trackers.EkfTracker, "step", "trackers.step", None),
    (trackers.LmsTracker, "step", "trackers.step", None),
    (trackers.GenieTracker, "step", "trackers.step", None),
    (trackers, "calibrate_process_noise", "trackers.calibrate_process_noise", None),
    (harness, "calibrate_process_noise", "trackers.calibrate_process_noise", None),
    (harness, "run_episode", "harness.run_episode", None),
    (harness, "_channel_from_angles", "harness.scoring", None),
    (harness, "normalized_mse", "harness.scoring", None),
    (harness, "_cycle_ber", "harness.scoring", None),
    (harness, "run_sweep", "harness.run_sweep", None),
    (harness, "plot_data", "harness.plot_data", None),
    (harness, "calibrate_estimate_noise", "harness.calibrate_estimate_noise", None),
    (cli, "main", "cli.main", None),
]

# The per-layer metrics a traced run reports, all per round:
# (name, unit, better). `.s` is the summed span duration, `.self_s` that
# minus child spans, `.calls` the span count.
PER_LAYER = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    *[(f"{layer}.{kind}", unit, "lower")
      for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))],
    ("beamctl.select_sounding.s", "s", "lower"),
    ("beamctl.select_sounding.calls", "count", "lower"),
    ("filtering.prediction_update.s", "s", "lower"),
    ("filtering.prediction_update.calls", "count", "lower"),
    ("predictor.predict.s", "s", "lower"),
    ("predictor.predict.calls", "count", "lower"),
    ("neural.forward_stack.s", "s", "lower"),
    ("neural.forward_stack.calls", "count", "lower"),
    ("neural.forward_stack.rows", "rows/call", "higher"),
    ("filtering.measurement_update.s", "s", "lower"),
    ("filtering.measurement_update.calls", "count", "lower"),
    ("filtering.beliefs_built", "count", "lower"),
    ("measurement.receive.s", "s", "lower"),
    ("measurement.receive.calls", "count", "lower"),
    ("trackers.step.self_s", "s", "lower"),
    ("trackers.step.calls", "count", "lower"),
    ("harness.scoring.s", "s", "lower"),
    ("harness.run_episode.self_s", "s", "lower"),
    ("harness.run_episode.calls", "count", "lower"),
    ("mobility.generate_trajectory.s", "s", "lower"),
    ("mobility.generate_trajectory.path_slots", "count", "lower"),
    ("mobility.synthesize_imu.s", "s", "lower"),
    ("trackers.calibrate_process_noise.s", "s", "lower"),
    ("trackers.calibrate_process_noise.calls", "count", "lower"),
    ("harness.calibrate_estimate_noise.s", "s", "lower"),
    ("predictor.generate_dataset.s", "s", "lower"),
    ("predictor.train.s", "s", "lower"),
    ("neural.loss_and_gradients.s", "s", "lower"),
    ("neural.loss_and_gradients.calls", "count", "lower"),
    ("neural.adam_update.s", "s", "lower"),
    ("predictor.load_checkpoint.s", "s", "lower"),
    ("predictor.load_checkpoint.calls", "count", "lower"),
    ("predictor.save_checkpoint.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder for the entry points in ENTRY_POINTS."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_key, count_fn = counter if counter else (None, None)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if count_fn is not None:
                counts[f"{name}.{count_key}"] += count_fn(args)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def installed(self):
        """Trace every entry point inside the block; restore them after."""
        saved = []
        try:
            for owner, attr, name, counter in ENTRY_POINTS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, counter)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, counter))
            belief_cls = filtering.GaussianBelief
            post_init = belief_cls.__dict__["__post_init__"]
            saved.append((belief_cls, "__post_init__", post_init))
            counts = self.counts

            def counted_post_init(belief):
                counts["filtering.beliefs_built"] += 1
                post_init(belief)

            belief_cls.__post_init__ = counted_post_init
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def span_totals(self) -> dict[str, list[float]]:
        """name -> [summed duration, summed self time, calls]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child[k]
            entry[2] += 1
        return totals

    def per_layer(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, per round; 0 where the layer did not run."""
        totals = self.span_totals()
        values: dict[str, float] = defaultdict(float)
        for name, (dur, self_s, calls) in totals.items():
            layer = name.split(".", 1)[0]
            values[f"{layer}.self_s"] += self_s
            values[f"{layer}.calls"] += calls
            values[f"{name}.s"] = dur
            values[f"{name}.self_s"] = self_s
            values[f"{name}.calls"] = calls
        values.update(self.counts)
        calls = values["neural.forward_stack.calls"]
        rows = values["neural.forward_stack.rows"] / calls if calls else 0.0
        values["trace.spans"] = len(self.spans)
        out = {name: values[name] / rounds for name, _, _ in PER_LAYER}
        out["neural.forward_stack.rows"] = rows
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent,
                }) + "\n")
