"""Span recorder for the traced run.

The benchmark installs wrappers at the names where the program looks each
function up (module globals and class attributes), records one span per
call, and restores the originals on exit.  Nothing here is active outside
`instrument(...)`, and the untraced runs never enter it.

A span is [name, start, end, parent index, operation id]; an operation is
one image (inference) or one training pass.  Counts that the program's work
implies (conv FLOPs, im2col bytes, tiles, halo pixels, tape nodes) are
computed from shapes and graphs in the same wrappers, never from timers.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []  # (operation id, name, value)
        self.op = None
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name, value):
        self.counts.append((self.op, name, value))


def tape_nodes(tensor):
    """Distinct tensors reachable through `_parents` from `tensor`, itself
    excluded: zero when the output was computed without a tape."""
    seen = {id(tensor)}
    stack = [tensor]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen) - 1


def _conv_counts(tracer, args, result):
    x, params = args[0], args[1]
    n, c, h, w = x.shape
    o, _, k, _ = params.weights.shape
    tracer.count("conv_flop", 2 * n * o * c * k * k * h * w)


def _conv_backward_counts(tracer, args, result):
    # grad_weights and grad_cols are one matmul each, the size of the forward
    _conv_counts(tracer, args, result)
    _conv_counts(tracer, args, result)


def _im2col_counts(tracer, args, result):
    x, k = args[0], args[1]
    tracer.count("im2col_bytes", x.size * k * k * x.dtype.itemsize)


def _stage_input_pixels(tracer, args, result):
    tracer.count("network_input_pixels", args[0].shape[2] * args[0].shape[3])


def _deglow_counts(tracer, args, result):
    _stage_input_pixels(tracer, args, result)
    tracer.count("tiles", 1)
    tracer.count("tape_nodes.stage", tape_nodes(result[0]))


def _stage_tape_counts(tracer, args, result):
    tracer.count("tape_nodes.stage", tape_nodes(result))


def _loss_tape_counts(tracer, args, result):
    tracer.count("tape_nodes.loss", tape_nodes(result))


def _patch_table():
    from nightdehaze import networks, pipeline, training
    from nightdehaze.engine import kernels, tensor

    # (owner, attribute, span name or None for a count-only hook, count hook);
    # count hooks see the positional arguments, so methods take none
    return [
        (pipeline, "deglow_unroll", "pipeline.deglow", _deglow_counts),
        (pipeline, "dehaze_forward", "pipeline.dehaze", _stage_input_pixels),
        (pipeline, "estimate_atmospheric_light", "pipeline.atmospheric_light", None),
        (pipeline, "recover_radiance", "pipeline.recover", None),
        # dehaze_forward returns a plain array at inference: the tape of the
        # dehaze stage is counted from its sigmoid output instead
        (networks, "sigmoid", None, _stage_tape_counts),
        (networks.DeGlowModel, "step", "networks.step", None),
        (networks, "conv2d", "tensor.conv2d", None),
        (tensor, "dilated_conv2d", "kernels.conv", _conv_counts),
        (tensor, "dilated_conv2d_backward", "kernels.conv_backward", _conv_backward_counts),
        (tensor.Tensor, "backward", "tensor.backward", None),
        (kernels, "_im2col", "kernels.im2col", _im2col_counts),
        (kernels, "_col2im", "kernels.col2im", None),
        (training, "deglow_batch_loss", "training.forward.deglow", _loss_tape_counts),
        (training, "dehaze_batch_loss", "training.forward.dehaze", _loss_tape_counts),
        (training, "dehaze_forward", "networks.dehaze_forward", None),
        (training, "sgd_step", "optim.sgd_step", None),
    ]


def _wrap(tracer, fn, name, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, on_result in _patch_table():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_operation(tracer):
    """Aggregate spans and counts by operation id.

    Returns {op: {"incl": {name: s}, "self": {name: s}, "calls": {name: n},
    "counts": {name: total}}}; self time is a span's duration minus that of
    its direct children."""
    ops = defaultdict(
        lambda: {
            "incl": defaultdict(float),
            "self": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
        }
    )
    child_time = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        agg = ops[op]
        agg["incl"][name] += end - start
        agg["self"][name] += end - start - child_time[index]
        agg["calls"][name] += 1
    for op, name, value in tracer.counts:
        ops[op]["counts"][name] += value
    return ops


PHASES = ("deglow", "dehaze")


def training_iterations(tracer):
    """Split each `training.<phase>` span into SGD iterations.

    Iteration k runs from the start of the k-th `training.forward.<phase>`
    span to the start of the next one, or to the end of the phase for the
    last.  Yields (operation id, phase, seconds, {direct child span: s},
    im2col calls) per iteration."""
    spans = tracer.spans
    for p, (name, _, phase_end, _, op) in enumerate(spans):
        phase = name.rsplit(".", 1)[-1]
        if name != f"training.{phase}" or phase not in PHASES:
            continue
        stop = next((i for i in range(p + 1, len(spans)) if spans[i][1] >= phase_end), len(spans))
        forwards = [
            i
            for i in range(p + 1, stop)
            if spans[i][3] == p and spans[i][0] == f"training.forward.{phase}"
        ]
        for i, j in zip(forwards, forwards[1:] + [stop]):
            end = spans[j][1] if j < stop else phase_end
            direct = defaultdict(float)
            im2col_calls = 0
            for span_name, start, span_end, parent, _ in spans[i:j]:
                if parent == p:
                    direct[span_name] += span_end - start
                im2col_calls += span_name == "kernels.im2col"
            yield op, phase, end - spans[i][1], direct, im2col_calls
