"""Spans around hsfusion's layers, recorded from outside the program.

Each traced function is replaced, for the length of a traced round, by a
wrapper installed under the name its caller looks it up by (for example
``hsfusion.solver.ntpnn_prox``, since ``solve`` calls the copy bound in the
solver module). A wrapper records one span: layer, start, end, parent span
and self time (its duration less the time its child spans cover), plus a
computed work count for a few layers. Spans stay in memory until the run
writes them out.

A function that no longer exists under its name is skipped, so its layer
reports 0 calls. Layers marked opaque record their whole duration and hide
the spans inside them: the solver's set-up (subspace SVD, step bound) and
``kkt_check`` are reported as single costs, so the per-iteration layers
count only work done by the iteration loop.
"""

import importlib
import json
import resource
import time

# (layer, module, attribute, kind); kind is "plain", "opaque", "mode", "file" or "solve".
TRACED = (
    ("tensor.mode_n_product", "hsfusion.solver", "mode_n_product", "mode"),
    ("tensor.mode_n_product", "hsfusion.tensor", "mode_n_product", "mode"),
    ("tensor.mode_n_product", "hsfusion.regularizer", "mode_n_product", "mode"),
    ("tensor.mode_n_product", "hsfusion.degradation", "mode_n_product", "mode"),
    ("tensor.mode_n_product", "hsfusion.metrics", "mode_n_product", "mode"),
    ("tensor.fold", "hsfusion.tensor", "fold", "plain"),
    ("tensor.unfold", "hsfusion.tensor", "unfold", "plain"),
    ("tensor.unfold", "hsfusion.solver", "unfold", "plain"),
    ("tensor.shuffle", "hsfusion.solver", "mode_shuffle", "plain"),
    ("tensor.shuffle", "hsfusion.solver", "mode_unshuffle", "plain"),
    ("tensor.shuffle", "hsfusion.tsvd", "mode_shuffle", "plain"),
    ("tensor.shuffle", "hsfusion.regularizer", "mode_shuffle", "plain"),
    ("tensor.fft_mode3", "hsfusion.tsvd", "fft_mode3", "plain"),
    ("tensor.fft_mode3", "hsfusion.tsvd", "ifft_mode3", "plain"),
    ("tensor.fft_mode3", "hsfusion.solver", "fft_mode3", "plain"),
    ("tsvd.ntpnn_prox", "hsfusion.solver", "ntpnn_prox", "plain"),
    ("tsvd.svd", "numpy.linalg", "svd", "plain"),
    ("regularizer.nms_tctv", "hsfusion.solver", "nms_tctv", "plain"),
    ("solver.grad_a", "hsfusion.solver", "grad_a", "plain"),
    ("solver.step_g", "hsfusion.solver", "step_g", "plain"),
    ("solver.residuals", "hsfusion.solver", "residuals", "plain"),
    ("solver.update_multipliers", "hsfusion.solver", "update_multipliers", "plain"),
    ("solver.setup", "hsfusion.solver", "extract_subspace", "opaque"),
    ("solver.setup", "hsfusion.solver", "lipschitz_tau", "opaque"),
    ("solver.kkt_check", "hsfusion.solver", "kkt_check", "opaque"),
    ("solver.solve", "hsfusion.solver", "solve", "solve"),
    ("solver.solve", "hsfusion.cli", "solve", "solve"),
    ("metrics.psnr", "hsfusion.metrics", "psnr", "plain"),
    ("metrics.ergas", "hsfusion.metrics", "ergas", "plain"),
    ("metrics.sam", "hsfusion.metrics", "sam", "plain"),
    ("metrics.ssim", "hsfusion.metrics", "ssim", "plain"),
    ("degradation.synth_scene", "hsfusion.degradation", "synth_scene", "plain"),
    ("degradation.synth_scene", "hsfusion.cli", "synth_scene", "plain"),
    ("degradation.make_degradation", "hsfusion.degradation", "make_degradation", "plain"),
    ("degradation.make_degradation", "hsfusion.cli", "make_degradation", "plain"),
    ("degradation.simulate", "hsfusion.degradation", "simulate", "plain"),
    ("degradation.simulate", "hsfusion.cli", "simulate", "plain"),
    ("tensorfile.read_tensor", "hsfusion.tensorfile", "read_tensor", "file"),
    ("tensorfile.read_tensor", "hsfusion.cli", "read_tensor", "file"),
    ("tensorfile.write_tensor", "hsfusion.tensorfile", "write_tensor", "file"),
    ("tensorfile.write_tensor", "hsfusion.cli", "write_tensor", "file"),
)


def _mode_work(args, kwargs, result):
    """(flop, bytes) of a mode-n product: 2*J*I_n*rest and input + matrix + output doubles."""
    t = args[0] if args else kwargs["t"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    rest = t.size // m.shape[1]
    return (2 * m.shape[0] * m.shape[1] * rest, 8 * (t.size + m.size + result.size))


def _file_work(args, kwargs, result):
    """Bytes of the tensor read (the result) or written (the second argument)."""
    arr = result if result is not None else (args[1] if len(args) > 1 else kwargs["t"])
    return (0, 8 * arr.size)


class Tracer:
    """Installs the wrappers, keeps spans in memory, and aggregates them per layer."""

    def __init__(self):
        self.spans = []  # (id, parent, layer, t0, t1, self_s, work0, work1)
        self._stack = []  # [span id, child seconds]
        self._opaque = 0
        self._saved = []
        self._next_id = 0

    def install(self):
        for layer, modname, attr, kind in TRACED:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(layer, orig, kind))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def call(self, layer, fn, *args, **kwargs):
        """Run fn under a span named layer (for calls the benchmark itself makes)."""
        return self._wrap(layer, fn, "plain")(*args, **kwargs)

    def _wrap(self, layer, fn, kind):
        work = {"mode": _mode_work, "file": _file_work}.get(kind)

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            if kind == "opaque":
                self._opaque += 1
            if kind == "solve":
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
            w = (0, 0)
            t1 = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if kind == "solve":
                    ru1 = resource.getrusage(resource.RUSAGE_SELF)
                    w = (ru1.ru_stime - ru0.ru_stime, ru1.ru_minflt - ru0.ru_minflt)
                elif work is not None:
                    w = work(args, kwargs, result)
                return result
            finally:
                if t1 is None:
                    t1 = time.perf_counter()
                self._stack.pop()
                if kind == "opaque":
                    self._opaque -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                self.spans.append(
                    (span_id, parent[0] if parent else None, layer, t0, t1, dur - frame[1], *w)
                )

        return wrapper

    def layer_totals(self, first=0):
        """Per layer: calls, self seconds, inclusive seconds and the two work sums, from span index `first`."""
        out = {}
        for _, _, layer, t0, t1, self_s, w0, w1 in self.spans[first:]:
            agg = out.setdefault(layer, [0, 0.0, 0.0, 0, 0])
            agg[0] += 1
            agg[1] += self_s
            agg[2] += t1 - t0
            agg[3] += w0
            agg[4] += w1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id parent layer t0 t1 self_s work0 work1\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

