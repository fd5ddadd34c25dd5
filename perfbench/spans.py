"""In-memory span tracer that wraps avsol's public functions from outside.

Each wrapper is installed at the name its caller looks up: a module that
does ``from .x import f`` calls its own binding of ``f``, so that binding is
the one replaced. Nothing under ``src/avsol`` is edited; ``uninstall``
restores every original object.

A span is (name, start, end, parent). Spans live in flat arrays so that the
roughly one million tiny-op spans of a gradient check stay cheap to hold.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list = []
        self.ave_frames = 0          # AVE frames classified by metrics.evaluate
        self.nodes_built = 0         # tensor op outputs
        self.nodes_backpropagated = 0  # backward rules that ran

    # ------------------------------------------------------------------
    # recording

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # ------------------------------------------------------------------
    # patching

    def _replace(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = functools.wraps(fn)(make(fn))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr, name, after=None):
        """Time every call of owner.attr as a span called ``name``.

        ``after(result)`` runs outside the span on each returned value.
        """
        nid = self.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(result)
                return result
            return wrapper

        self._replace(owner, attr, make)

    def wrap_op(self, owner, attr, op):
        """Time a tensor op's forward call and, later, its node's backward rule."""
        fwd = self.name_id(f"tensor.{op}")
        bwd = self.name_id(f"tensor.{op}.bwd")

        def timed_rule(rule):
            def run(g):
                self.nodes_backpropagated += 1
                idx = self.open(bwd)
                try:
                    rule(g)
                finally:
                    self.close(idx)
            return run

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                self.nodes_built += 1
                if out._backward_rule is not None:
                    out._backward_rule = timed_rule(out._backward_rule)
                return out
            return wrapper

        self._replace(owner, attr, make)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    # summaries

    def arrays(self):
        """(name id, start, end, parent, self time) as numpy arrays."""
        name = np.frombuffer(self.name_of, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, start, end, parent, dur - child

    def table(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        name, start, end, _, self_time = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=end - start, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(own[i])}
                for i in range(n)}

    def steps(self):
        """(start, end) of each training step: a dnm.forward span inside
        dnm.train that is followed by tensor.backward and tensor.adam_step
        before the next forward. Validation forwards have no such tail."""
        name, start, end, parent, _ = self.arrays()
        ids = {k: self._ids.get(k, -2) for k in
               ("dnm.train", "dnm.forward", "tensor.backward", "tensor.adam_step")}
        out = []
        for train_idx in np.nonzero(name == ids["dnm.train"])[0]:
            children = np.nonzero(parent == train_idx)[0]
            begin = None
            seen_backward = False
            for c in children:
                if name[c] == ids["dnm.forward"]:
                    begin, seen_backward = start[c], False
                elif name[c] == ids["tensor.backward"]:
                    seen_backward = begin is not None
                elif name[c] == ids["tensor.adam_step"] and seen_backward:
                    out.append((begin, end[c]))
                    begin, seen_backward = None, False
        return np.array(out, dtype=np.float64).reshape(-1, 2)

    def spans_within(self, names, intervals) -> int:
        """Number of spans with one of ``names`` that start inside one of
        the (start, end) intervals."""
        if len(intervals) == 0:
            return 0
        name, start, _, _, _ = self.arrays()
        wanted = [self._ids[n] for n in names if n in self._ids]
        starts = np.sort(start[np.isin(name, wanted)])
        lo = np.searchsorted(starts, intervals[:, 0], side="left")
        hi = np.searchsorted(starts, intervals[:, 1], side="right")
        return int(np.sum(hi - lo))


def install(tracer: Tracer, avsol) -> Tracer:
    """Wrap the public functions of every avsol module at their call sites."""
    T, dnm, synth, ann, met, gc, cli = (avsol.tensor, avsol.dnm, avsol.synth,
                                       avsol.annotation, avsol.metrics,
                                       avsol.gradcheck, avsol.cli)
    # tensor: dnm and gradcheck call T.<op>; operator sugar calls the
    # module-level add/mul, so the module attribute sees every call
    for op in T.OP_REGISTRY:
        tracer.wrap_op(T, op, op)
    tracer.wrap(T, "backward", "tensor.backward")
    tracer.wrap(T, "adam_step", "tensor.adam_step")
    tracer.wrap(T, "save_checkpoint", "tensor.save_checkpoint")
    tracer.wrap(T, "grad_check", "gradcheck.grad_check")

    # dnm
    for method in ("forward", "encode_visual", "encode_audio", "static_fusion",
                   "dynamic_fusion"):
        tracer.wrap(dnm.DnmModel, method, f"dnm.{method}")
    tracer.wrap(dnm.DnmModel, "local_normalize", "dnm.heads")
    tracer.wrap(dnm.DnmModel, "global_attend", "dnm.heads")
    tracer.wrap(dnm, "multitask_loss", "dnm.loss")
    tracer.wrap(dnm, "classification_loss", "dnm.loss")
    tracer.wrap(gc, "multitask_loss", "dnm.loss")
    tracer.wrap(cli, "train", "dnm.train")
    tracer.wrap(cli, "predict_heatmaps", "dnm.predict_heatmaps")

    # synth
    tracer.wrap(cli, "generate_dataset", "synth.generate_dataset")
    tracer.wrap(synth, "generate_clip", "synth.generate_clip")
    tracer.wrap(synth, "write_clip", "synth.write_clip")
    tracer.wrap(synth, "read_clip", "synth.read_clip")
    tracer.wrap(cli, "load_split", "synth.load_split")
    tracer.wrap(dnm, "make_negative_pair", "synth.make_negative_pair")

    # annotation
    tracer.wrap(ann, "parse_annotations", "annotation.parse_annotations")
    tracer.wrap(cli, "parse_annotations", "annotation.parse_annotations")
    tracer.wrap(synth, "parse_annotations", "annotation.parse_annotations")
    tracer.wrap(synth, "serialize_annotations", "annotation.serialize_annotations")
    tracer.wrap(met, "rasterize_boxes", "annotation.rasterize_boxes")

    def count_ave(frame_class):
        if frame_class.is_ave:
            tracer.ave_frames += 1

    tracer.wrap(met, "classify_frame", "annotation.classify_frame", after=count_ave)

    # metrics
    tracer.wrap(cli, "evaluate", "metrics.evaluate")
    for fn in ("hmbox_auc", "pibr", "pnsr"):
        tracer.wrap(met, fn, f"metrics.{fn}")
    tracer.wrap(cli, "read_heatmaps", "metrics.read_heatmaps")
    tracer.wrap(cli, "write_heatmaps", "metrics.write_heatmaps")
    tracer.wrap(met, "write_heatmaps", "metrics.write_heatmaps")

    # gradcheck
    tracer.wrap(gc, "check_ops", "gradcheck.check_ops")
    tracer.wrap(gc, "check_model", "gradcheck.check_model")
    return tracer
