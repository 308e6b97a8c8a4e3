"""Spans around hatt's layer boundaries, recorded from outside the package.

The tracer replaces a function by a wrapper under the exact name its caller
looks it up by (modules import with ``from .x import y``, so
``hatt.recompress.matmul`` and ``hatt.linalg.matmul`` are separate names) and
puts every original back in :meth:`Tracer.restore`.  A span is
``(name, layer, start, end, parent, extra)``; ``parent`` is the index of the
enclosing span (-1 for a root) and ``extra`` a work count taken from the
call's arguments or result.  Spans stay in memory until the run writes them
out.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from hatt.linalg import SVD_COST_FACTOR


def _matmul_flops(args, result):
    m, n = np.shape(args[0])
    return m * (2 * n - 1) * np.shape(args[1])[1]


def _tri_matmul_flops(args, result):
    m, k = np.shape(args[0])
    return m * k * k


def _scale_columns_flops(args, result):
    return int(np.size(args[0]))


def _qr_flops(args, result):
    m, n = np.shape(args[0])
    t = min(m, n)
    return round(4 * m * n * t - 4 * t**3 / 3)


def _svd_flops(args, result):
    m, n = np.shape(args[0])
    return SVD_COST_FACTOR * max(m, n) * min(m, n) ** 2


def _result_bytes(args, result):
    return sum(core.values.nbytes for core in result.cores)


# (namespace module, attribute, work count); the layer is the module that
# defines the original function.  Linear-algebra work counts use the same
# closed forms the package's FlopLedger charges.
WRAPPED = (
    ("recompress", "recompress_hadamard", None),
    ("recompress", "hatt", None),
    ("recompress", "rand_orth", None),
    ("recompress", "tt_rounding", None),
    ("recompress", "hpcrl", None),
    ("recompress", "partial_contraction_rl", None),
    ("recompress", "rank1_decompose", None),
    ("recompress", "contract_m_onto_pkp", None),
    ("recompress", "_orthogonalize_sweep", None),
    ("recompress", "matmul", _matmul_flops),
    ("recompress", "tri_matmul", _tri_matmul_flops),
    ("recompress", "scale_columns", _scale_columns_flops),
    ("recompress", "econ_qr", _qr_flops),
    ("recompress", "truncated_svd", _svd_flops),
    ("recompress", "tt_hadamard", _result_bytes),
    ("recompress", "random_tt", None),
    ("apps", "power_iteration_max", None),
    ("apps", "hatt", None),
    ("apps", "rand_orth", None),
    ("apps", "tt_rounding", None),
    ("apps", "tt_hadamard", _result_bytes),
    ("apps", "tt_dot", None),
    ("apps", "separable_dense", None),
    ("tt", "tt_dot", None),
    ("tt", "tt_to_dense", None),
    ("tt", "relative_error", None),
    ("tt.TTCore", "__init__", None),
    ("dense", "hadamard_dense", None),
    ("dense", "brute_force_max", None),
    ("dense.DenseTensor", "__init__", None),
)


def _resolve(hatt, path):
    owner = hatt
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Records spans while installed; :meth:`restore` removes every wrapper."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self, hatt):
        for path, attr, extra in WRAPPED:
            owner = _resolve(hatt, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, extra))
            self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def _wrap(self, fn, extra):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"

        def wrapper(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
            if extra is not None:
                record[5] = extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name, layer):
        """Record one span; yields it so the caller can set its work count."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [name, layer, perf_counter(), None, parent, None]
        self.spans.append(record)
        try:
            yield record
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, extra in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]

    def subtree_self_time(self, root):
        """Sum of the self times of every span strictly below `root`."""
        selfs = self.self_times()
        below = {root}
        total = 0.0
        # a span is recorded when it opens, so its descendants follow it
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][4] in below:
                below.add(i)
                total += selfs[i]
        return total


def _is_oracle(name, layer):
    return layer == "dense" or name in ("tt.tt_to_dense", "apps.separable_dense")


def layer_totals(tracer):
    """Busy seconds, calls and work counts per layer metric over all spans."""
    selfs = tracer.self_times()
    out = defaultdict(float)
    for (name, layer, start, end, parent, extra), own in zip(tracer.spans, selfs):
        dur = end - start
        if name in ("recompress.hpcrl", "recompress.partial_contraction_rl"):
            out["recompress.sketch_s"] += own
        elif name == "recompress.contract_m_onto_pkp":
            out["recompress.core_update_s"] += own
        elif name == "recompress.rank1_decompose":
            out["recompress.rank1_s"] += dur
        elif name == "recompress._orthogonalize_sweep":
            out["recompress.sweep_self_s"] += own
        elif layer == "linalg":
            kind = {"linalg.econ_qr": "qr", "linalg.truncated_svd": "svd"}.get(name, "matmul")
            out[f"linalg.{kind}_s"] += dur
            out[f"linalg.{kind}_calls"] += 1
            out[f"linalg.{kind}_flops"] += extra
        elif name == "tt.tt_hadamard":
            out["tt.materialize_s"] += dur
            out["tt.materialize_mib"] += extra / 2**20
        elif name == "tt.tt_dot":
            out["tt.dot_s"] += dur
            out["tt.dot_calls"] += 1
        elif name == "tt.TTCore.__init__":
            out["tt.core_init_s"] += dur
            out["tt.core_init_calls"] += 1
        elif name == "tt.relative_error":
            out["tt.error_s"] += dur
        elif name == "rand_tt.random_tt":
            out["rand_tt.draw_s"] += dur
            out["rand_tt.draw_calls"] += 1
        elif name == "apps.power_iteration_max":
            out["apps.power_iter_self_s"] += own
        if _is_oracle(name, layer) and (parent < 0 or not _is_oracle(*tracer.spans[parent][:2])):
            out["dense.oracle_s"] += dur
    return out
