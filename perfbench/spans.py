"""Outside-in spans for the quidlab benchmark.

Wrappers are installed from here onto the module attributes that quidlab's
own callers resolve at call time (``quidlab.qnn.apply_pqc_stack``,
``quidlab.poison.encode_batch``, ``quidlab.noise.apply_channel_stack``, ...),
so no quidlab source is edited and an untraced run executes none of this.

A span is (name, start, end, parent). A span's self time is its duration
minus the part of its interval that its child spans cover. The simcore
primitives run tens of thousands of times per epoch, so they are not stored
as spans: each call's duration is aggregated per simcore function and
charged to the enclosing span as covered time.

Pool workers are forked with the wrappers already installed. A worker notices
the new pid on its first traced call, drops the state it inherited, and
after each top-level span writes its spans and counters to ``dump_dir``;
``merged`` folds those files back in, attaching each worker span to the
parent-process ``cli`` span whose interval contains it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, function, modules whose attribute callers resolve)
SPANS = (
    ("data", "load_csv", ("data", "cli")),
    ("data", "save_csv", ("data", "cli")),
    ("data", "synth_clusters", ("data", "cli")),
    ("data", "split", ("data", "cli", "ess")),
    ("encode", "encode_batch", ("encode", "qnn", "poison", "ess", "defense")),
    ("noise", "noisy_apply_stack", ("noise", "pqc")),
    ("pqc", "apply_pqc_stack", ("pqc", "qnn")),
    ("qnn", "train", ("qnn", "cli", "defense")),
    ("qnn", "evaluate", ("qnn", "cli")),
    ("ess", "pairwise_distances", ("ess",)),
    ("ess", "class_mean_distances", ("ess", "poison")),
    ("ess", "validate_ess", ("ess", "cli")),
    ("poison", "quid_poison", ("poison",)),
    ("poison", "random_flip", ("poison",)),
    ("poison", "bilevel_random", ("poison",)),
    ("defense", "train_ensemble", ("defense", "cli")),
    ("defense", "evaluate_ensemble", ("defense", "cli")),
    ("defense", "member_predictions", ("defense",)),
    ("cli", "main", ("cli",)),
    ("cli", "_run_experiment_cell", ("cli",)),
)

# simcore primitives, aggregated per function instead of stored as spans
INNER = (
    ("apply_operator_stack", ("simcore", "encode")),
    ("apply_gate_stack", ("simcore", "noise", "pqc")),
    ("apply_channel_stack", ("simcore", "noise", "encode")),
    ("apply_rotations_batch", ("simcore", "encode")),
    ("expect_z_stack", ("simcore", "qnn")),
)

# calls that are only counted; their time stays with the caller
COUNTED = (
    ("build_channel", ("noise",)),
    ("spsa_estimate", ("qnn",)),
)

# Every per-layer metric: (name, unit, end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("simcore.operator_calls", "count", "phase2_s on attack-cell most; cli-sweep; ess-scan only through encoding"),
    ("simcore.operator_states", "count", "as simcore.operator_calls"),
    ("simcore.operator_s", "s", "as simcore.operator_calls"),
    ("simcore.bytes_computed", "bytes", "as simcore.operator_calls"),
    ("simcore.kraus_operators", "count", "as simcore.operator_calls"),
    ("simcore.channel_self_s", "s", "as simcore.operator_calls"),
    ("simcore.rotation_s", "s", "phase1_s/phase2_s on ess-scan (angle encoding)"),
    ("simcore.expect_s", "s", "phase1_s/phase2_s on attack-cell and cli-sweep; never ess-scan"),
    ("simcore.self_s", "s", "as simcore.operator_calls"),
    ("noise.apply_calls", "count", "phase2_s on attack-cell, phase1_s on cli-sweep; not phase1_s on attack-cell"),
    ("noise.channel_builds", "count", "as noise.apply_calls"),
    ("noise.self_s", "s", "as noise.apply_calls"),
    ("encode.states", "count", "phase1_s/phase2_s on ess-scan most; phase2_s on cli-sweep (re-encoding)"),
    ("encode.s", "s", "as encode.states"),
    ("encode.self_s", "s", "as encode.states"),
    ("encode.reencoded_states", "count", "as encode.states"),
    ("encode.unique_ratio", "fraction", "as encode.states"),
    ("pqc.forward_calls", "count", "phase1_s/phase2_s on attack-cell, phase1_s on cli-sweep; never ess-scan"),
    ("pqc.states_step", "count", "as pqc.forward_calls"),
    ("pqc.states_eval", "count", "as pqc.forward_calls"),
    ("pqc.s", "s", "as pqc.forward_calls"),
    ("pqc.self_s", "s", "as pqc.forward_calls"),
    ("qnn.train_s", "s", "phase1_s on attack-cell most"),
    ("qnn.self_s", "s", "as qnn.train_s"),
    ("qnn.steps", "count", "as qnn.train_s"),
    ("qnn.spsa_evals", "count", "as qnn.train_s"),
    ("ess.pairs.frobenius", "count", "phase1_s/phase2_s on ess-scan only"),
    ("ess.pairs.trace", "count", "phase2_s on ess-scan only"),
    ("ess.pairs.hilbert_schmidt", "count", "phase1_s on ess-scan only"),
    ("ess.s.frobenius", "s", "as ess.pairs.frobenius"),
    ("ess.s.trace", "s", "as ess.pairs.trace"),
    ("ess.s.hilbert_schmidt", "s", "as ess.pairs.hilbert_schmidt"),
    ("ess.self_s", "s", "phase1_s/phase2_s on ess-scan only"),
    ("poison.calls.quid", "count", "phase1_s on ess-scan; a small share of attack-cell and cli-sweep"),
    ("poison.calls.random_flip", "count", "phase1_s on cli-sweep"),
    ("poison.calls.bilevel_random", "count", "phase1_s on ess-scan and cli-sweep"),
    ("poison.flips", "count", "as poison.calls.quid"),
    ("poison.self_s", "s", "as poison.calls.quid"),
    ("defense.members", "count", "phase2_s on cli-sweep"),
    ("defense.predict_s", "s", "phase2_s on cli-sweep"),
    ("defense.self_s", "s", "phase2_s on cli-sweep"),
    ("data.rows", "count", "setup_s on every workload; phase1_s on cli-sweep"),
    ("data.s", "s", "as data.rows"),
    ("cli.cells", "count", "phase1_s on cli-sweep"),
    ("cli.cells_failed", "count", "phase1_s on cli-sweep"),
    ("cli.self_s", "s", "phase1_s on cli-sweep, setup_s"),
    ("trace.overhead_s", "s", "none: traced minus untraced iteration time"),
    ("trace.overhead_frac", "fraction", "none: trace.overhead_s over the untraced iteration time"),
)


class Recorder:
    """Spans and counters of one traced run; a no-op while ``enabled`` is false."""

    def __init__(self, dump_dir: str, step_batch: int):
        self.dump_dir = dump_dir
        self.step_batch = step_batch  # forward passes up to this size are training steps
        self.enabled = False
        self.main_pid = os.getpid()  # any other pid is a forked pool worker
        self._dumps = 0
        self.clear()

    def clear(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (id, layer, name, start, end, parent_id, inner_s, pid)
        self.stack: list[list] = []  # open frames: [span id or None, covered inner seconds]
        self.next_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.inner: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.seen: set = set()

    def new_iteration(self) -> None:
        """Rows encoded before this point no longer count as re-encoded."""
        self.seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _enter(self) -> None:
        if self.pid != os.getpid():  # first traced call in a forked pool worker
            self.clear()

    def span(self, fn, layer: str, name: str):
        rec = self
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            rec._enter()
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1][0] if rec.stack else None  # simcore never calls a layer
            frame = [sid, 0.0]
            rec.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans.append((sid, layer, name, start, end, parent, frame[1], rec.pid))
            if hook is not None:
                hook(rec, args, kwargs, result, end - start)
            if not rec.stack and rec.pid != rec.main_pid:
                rec._dump()
            return result

        # pickle sends pool functions by module and qualified name, so the
        # wrapper carries the original's and is sent to workers in its place
        return functools.update_wrapper(wrapper, fn)

    def aggregate(self, fn, name: str):
        rec = self
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            rec._enter()
            frame = [None, 0.0]
            rec.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                rec.stack.pop()
                agg = rec.inner[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if rec.stack:
                    rec.stack[-1][1] += dur
            if hook is not None:
                hook(rec, args, kwargs, result, dur)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count(self, fn, name: str):
        rec = self
        hook = _HOOKS[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec.enabled:
                rec._enter()
                hook(rec, args, kwargs, result, 0.0)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, modules: dict) -> None:
        """Replace every listed attribute of the given quidlab modules by its wrapper."""
        self.main_pid = os.getpid()
        for layer, name, owners in SPANS:
            for owner in owners:
                mod = modules[owner]
                setattr(mod, name, self.span(getattr(mod, name), layer, name))
        for name, owners in INNER:
            for owner in owners:
                mod = modules[owner]
                setattr(mod, name, self.aggregate(getattr(mod, name), name))
        for name, owners in COUNTED:
            for owner in owners:
                mod = modules[owner]
                setattr(mod, name, self.count(getattr(mod, name), name))

    # -- pool workers -------------------------------------------------------

    def _dump(self) -> None:
        self._dumps += 1
        path = os.path.join(self.dump_dir, f"worker-{self.pid}-{self._dumps}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "inner": self.inner}, fh
            )
        self.clear()

    def merged(self) -> tuple[list[tuple], dict, dict]:
        """This process's spans and counters plus every pool worker's dump."""
        spans = list(self.spans)
        counters = defaultdict(float, self.counters)
        inner = defaultdict(lambda: [0, 0.0, 0.0], {k: list(v) for k, v in self.inner.items()})
        cli_spans = [s for s in spans if s[1] == "cli" and s[2] == "main"]
        offset = self.next_id
        for fname in sorted(os.listdir(self.dump_dir)):
            with open(os.path.join(self.dump_dir, fname), encoding="utf-8") as fh:
                dump = json.load(fh)
            ids = {}
            for sid, layer, name, start, end, parent, inner_s, pid in dump["spans"]:
                ids[sid] = offset
                offset += 1
            for sid, layer, name, start, end, parent, inner_s, pid in dump["spans"]:
                if parent is None:
                    host = [c for c in cli_spans if c[3] <= start and end <= c[4]]
                    new_parent = host[0][0] if host else None
                else:
                    new_parent = ids[parent]
                spans.append((ids[sid], layer, name, start, end, new_parent, inner_s, pid))
            for key, value in dump["counters"].items():
                counters[key] += value
            for key, (n, total, own) in dump["inner"].items():
                agg = inner[key]
                agg[0] += n
                agg[1] += total
                agg[2] += own
            os.remove(os.path.join(self.dump_dir, fname))
        return spans, counters, inner

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The additive per-layer metrics (all but ratios and overhead) of the spans so far."""
        spans, counters, inner = self.merged()
        self_s = _self_times(spans)
        out = {name: 0.0 for name in ADDITIVE}
        for sid, layer, name, start, end, parent, inner_s, pid in spans:
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += self_s[sid]
            dur = end - start
            if name in _DURATIONS:
                out[_DURATIONS[name]] += dur
            if layer == "data":
                out["data.s"] += dur
        for key, value in counters.items():
            out[key] += value
        op = inner["apply_operator_stack"]
        out["simcore.operator_calls"] = op[0]
        out["simcore.operator_s"] = op[1]
        out["simcore.channel_self_s"] = inner["apply_channel_stack"][2]
        out["simcore.rotation_s"] = inner["apply_rotations_batch"][1]
        out["simcore.expect_s"] = inner["expect_z_stack"][1]
        out["simcore.self_s"] = sum(agg[2] for agg in inner.values())
        return out


# span durations that are metrics of their own
_DURATIONS = {
    "encode_batch": "encode.s",
    "apply_pqc_stack": "pqc.s",
    "train": "qnn.train_s",
    "member_predictions": "defense.predict_s",
}
ADDITIVE = tuple(
    name for name, _unit, _target in LAYER_METRICS
    if name not in ("encode.unique_ratio", "trace.overhead_s", "trace.overhead_frac")
)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_times(spans: list[tuple]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, layer, name, start, end, parent, inner_s, pid in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _union_length(children[sid]) - inner_s
        for sid, layer, name, start, end, parent, inner_s, pid in spans
    }


# -- per-call counters ---------------------------------------------------------

def _encode_hook(rec, args, kwargs, result, dur):
    x = np.atleast_2d(np.asarray(args[0], dtype=float))
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    model = args[2] if len(args) > 2 else kwargs.get("model")
    tag = (repr(cfg), repr(model))
    repeats = 0
    for row in x:
        key = (tag, row.tobytes())
        if key in rec.seen:
            repeats += 1
        else:
            rec.seen.add(key)
    rec.counters["encode.states"] += len(x)
    rec.counters["encode.reencoded_states"] += repeats


def _pqc_hook(rec, args, kwargs, result, dur):
    rec.counters["pqc.forward_calls"] += 1
    batch = args[0].shape[0]
    key = "pqc.states_step" if batch <= rec.step_batch else "pqc.states_eval"
    rec.counters[key] += batch


def _noise_hook(rec, args, kwargs, result, dur):
    rec.counters["noise.apply_calls"] += 1


def _pairwise_hook(rec, args, kwargs, result, dur):
    metric = args[2] if len(args) > 2 else kwargs["metric"]
    metric = sys.modules["quidlab.ess"].canonical_metric(metric)
    rec.counters[f"ess.pairs.{metric}"] += result.size
    rec.counters[f"ess.s.{metric}"] += dur


def _poison_hook(mode):
    def hook(rec, args, kwargs, result, dur):
        rec.counters[f"poison.calls.{mode}"] += 1
        rec.counters["poison.flips"] += result.flip_count()

    return hook


def _ensemble_hook(rec, args, kwargs, result, dur):
    rec.counters["defense.members"] += result[0].k


def _rows_in(rec, args, kwargs, result, dur):
    rec.counters["data.rows"] += len(args[0] if args else kwargs["dataset"])


def _rows_out(rec, args, kwargs, result, dur):
    rec.counters["data.rows"] += len(result)


def _cell_hook(rec, args, kwargs, result, dur):
    rec.counters["cli.cells"] += 1
    rec.counters["cli.cells_failed"] += result.get("status") != "ok"


def _operator_hook(rec, args, kwargs, result, dur):
    stack = args[0]
    rec.counters["simcore.operator_states"] += stack.shape[0]
    # two contractions, each reading and writing a stack-sized array
    rec.counters["simcore.bytes_computed"] += 4 * stack.nbytes


def _rotation_hook(rec, args, kwargs, result, dur):
    rec.counters["simcore.bytes_computed"] += 4 * args[0].nbytes


def _channel_hook(rec, args, kwargs, result, dur):
    rec.counters["simcore.kraus_operators"] += len(args[1].operators)


def _build_hook(rec, args, kwargs, result, dur):
    rec.counters["noise.channel_builds"] += 1


def _spsa_hook(rec, args, kwargs, result, dur):
    repeats = args[4] if len(args) > 4 else kwargs.get("repeats", 1)
    rec.counters["qnn.steps"] += 1
    rec.counters["qnn.spsa_evals"] += 2 * repeats


_HOOKS = {
    "encode_batch": _encode_hook,
    "apply_pqc_stack": _pqc_hook,
    "noisy_apply_stack": _noise_hook,
    "pairwise_distances": _pairwise_hook,
    "quid_poison": _poison_hook("quid"),
    "random_flip": _poison_hook("random_flip"),
    "bilevel_random": _poison_hook("bilevel_random"),
    "train_ensemble": _ensemble_hook,
    "split": _rows_in,
    "save_csv": _rows_in,
    "load_csv": _rows_out,
    "synth_clusters": _rows_out,
    "_run_experiment_cell": _cell_hook,
    "apply_operator_stack": _operator_hook,
    "apply_rotations_batch": _rotation_hook,
    "apply_channel_stack": _channel_hook,
    "build_channel": _build_hook,
    "spsa_estimate": _spsa_hook,
}
