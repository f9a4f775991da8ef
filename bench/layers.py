"""Per-layer tracing of psdsim from outside the library.

Each traced function is replaced where its callers look it up: in every
psdsim module namespace that holds it (several modules import functions by
name), and on ``numpy.linalg``, ``scipy.linalg`` and ``scipy.optimize``,
which psdsim reaches through module attributes. Spans are aggregated into a
call tree in memory, one node per chain of traced callers, holding the call
count, the total time and the time covered by child spans, so a layer's self
time is its total minus its children. Counters a span cannot hold (computed
flops, matrices in stacked calls, optimizer iterations, bytes parsed)
accumulate per layer name.

Nothing here changes what a wrapped function computes: wrappers pass the
arguments and the result through untouched.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize


class _Node:
    __slots__ = ("calls", "ms", "child_ms", "children")

    def __init__(self):
        self.calls = 0
        self.ms = 0.0
        self.child_ms = 0.0
        self.children = {}


def _batch(a):
    """Number of matrices in a (possibly stacked) array argument."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _flops(kind, a, kwargs):
    """Flop count of one LAPACK call from its argument shape.

    Operation counts of Golub and Van Loan, Matrix Computations (4th ed.),
    Figure 8.6.1 and section 8.3: SVD with full U and V
    4m^2n + 8mn^2 + 9n^3 and with thin U 14mn^2 + 8n^3 (m >= n); symmetric
    eigensolver 9n^3 with vectors and 4n^3/3 without. Complex arithmetic
    counts four real flops per operation.
    """
    m, n = np.shape(a)[-2:]
    m, n = max(m, n), min(m, n)
    if kind == "svd":
        if kwargs.get("full_matrices", True):
            f = 4 * m * m * n + 8 * m * n * n + 9 * n**3
        else:
            f = 14 * m * n * n + 8 * n**3
    elif kind == "eigh":
        f = 9 * n**3
    else:  # eigvalsh
        f = 4 * n**3 / 3
    return f * _batch(a) * (4 if np.iscomplexobj(a) else 1)


class Tracer:
    """Span and counter wrappers, installed and recording inside a `with` block."""

    def __init__(self):
        self.root = _Node()
        self.counts = defaultdict(float)
        self._stack = [self.root]
        self._patches = []
        self._coarse_best = None

    # --- wrappers ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            parent = tracer._stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            tracer._stack.append(node)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ms = (clock() - t0) * 1e3
                tracer._stack.pop()
                node.calls += 1
                node.ms += ms
                parent.child_ms += ms
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- counters fed by wrappers -----------------------------------------

    def _lapack(self, kind):
        def after(args, kwargs, out):
            a = args[0]
            self.counts[f"linalg.{kind}.matrices"] += _batch(a)
            if kind != "qr":
                self.counts[f"linalg.{kind}.gflop"] += _flops(kind, a, kwargs) / 1e9
        return after

    def _reset_coarse(self):
        self._coarse_best = None

    def _coarse(self, args, kwargs, out):
        # the first block evaluation inside gd_degenerate_fiber is the
        # coarse sampling pass that seeds the optimizer starts
        if self._coarse_best is None:
            self._coarse_best = float(np.max(out))

    def _optimizer(self, args, kwargs, res):
        c = self.counts
        c["geodist.optimizer.starts"] += 1
        c["geodist.optimizer.nit"] += int(res.nit)
        c["geodist.optimizer.nfev"] += int(res.nfev)
        c["geodist.optimizer.converged"] += bool(res.success)
        if self._coarse_best is not None and -float(res.fun) > self._coarse_best:
            c["geodist.optimizer.improved"] += 1

    def _parsed(self, args, kwargs, out):
        self.counts["matrixio.parse_matrix_file.bytes"] += os.path.getsize(args[0])

    # --- installation -----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, original, wrapper):
        """Replace `original` in every psdsim namespace that binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "psdsim" and not modname.startswith("psdsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def __enter__(self):
        from psdsim import cli, divergences, geodist, grassmann, linalg, matrixio, pointset

        for kind in ("svd", "eigh", "eigvalsh", "qr"):
            fn = getattr(np.linalg, kind)
            self._patch(np.linalg, kind, self.span(f"linalg.{kind}", fn, after=self._lapack(kind)))
        self._patch(scipy.linalg, "expm", self.span("linalg.expm", scipy.linalg.expm))
        self._patch(scipy.optimize, "minimize",
                    self.span("geodist.optimizer", scipy.optimize.minimize, after=self._optimizer))
        self._patch(linalg.PsdMatrix, "__post_init__",
                    self.span("linalg.PsdMatrix", linalg.PsdMatrix.__post_init__))
        spans = (
            (linalg.small_angles_refined, "linalg.small_angles_refined", {}),
            (grassmann.grassmann_distance, "grassmann.grassmann_distance", {}),
            (divergences.per_eigenvalue_terms, "divergences.per_eigenvalue_terms", {}),
            (pointset.pointset_value_from_spectrum, "pointset.pointset_value_from_spectrum", {}),
            (pointset._min_quadratic_box, "pointset.min_quadratic_box", {}),
            (geodist.gd, "geodist.gd", {}),
            (geodist.pairwise_gram, "geodist.pairwise_gram", {}),
            (geodist.gd_degenerate_fiber, "geodist.gd_degenerate_fiber",
             {"before": self._reset_coarse}),
            (matrixio.parse_matrix_file, "matrixio.parse_matrix_file", {"after": self._parsed}),
            (cli.main, "cli.main", {}),
        )
        for fn, name, hooks in spans:
            self._everywhere(fn, self.span(name, fn, **hooks))
        self._everywhere(divergences.apply_bound,
                         self.counter("divergences.apply_bound", divergences.apply_bound))
        self._everywhere(geodist._conjugated_block_values,
                         self.counter("geodist.block_values", geodist._conjugated_block_values,
                                      after=self._coarse))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False

    # --- results ----------------------------------------------------------

    def _walk(self, node=None, path=()):
        node = self.root if node is None else node
        for name, child in node.children.items():
            yield path + (name,), child
            yield from self._walk(child, path + (name,))

    def tree(self):
        """Flat call tree: one entry per traced caller chain, slowest first."""
        rows = [{"path": " > ".join(p), "calls": n.calls, "ms": n.ms,
                 "self_ms": n.ms - n.child_ms} for p, n in self._walk()]
        return sorted(rows, key=lambda r: -r["ms"])

    def metrics(self, overhead_frac):
        """Per-layer metric values by name (units are in BENCHMARK.json)."""
        calls = defaultdict(int)
        ms = defaultdict(float)
        self_ms = defaultdict(float)
        for path, node in self._walk():
            name = path[-1]
            calls[name] += node.calls
            ms[name] += node.ms
            self_ms[name] += node.ms - node.child_ms
        c = self.counts
        starts = c["geodist.optimizer.starts"]

        def frac(x):
            return x / starts if starts else 0.0

        out = {
            "linalg.PsdMatrix.calls": calls["linalg.PsdMatrix"],
            "linalg.PsdMatrix.ms": ms["linalg.PsdMatrix"],
        }
        for kind in ("svd", "eigh", "eigvalsh"):
            out[f"linalg.{kind}.calls"] = calls[f"linalg.{kind}"]
            out[f"linalg.{kind}.ms"] = ms[f"linalg.{kind}"]
            out[f"linalg.{kind}.gflop"] = c[f"linalg.{kind}.gflop"]
        out.update({
            "linalg.eigvalsh.matrices": c["linalg.eigvalsh.matrices"],
            "linalg.qr.matrices": c["linalg.qr.matrices"],
            "linalg.qr.ms": ms["linalg.qr"],
            "linalg.expm.calls": calls["linalg.expm"],
            "linalg.expm.ms": ms["linalg.expm"],
            "linalg.small_angles_refined.ms": ms["linalg.small_angles_refined"],
            "grassmann.grassmann_distance.calls": calls["grassmann.grassmann_distance"],
            "grassmann.grassmann_distance.ms": ms["grassmann.grassmann_distance"],
            "divergences.per_eigenvalue_terms.calls": calls["divergences.per_eigenvalue_terms"],
            "divergences.per_eigenvalue_terms.ms": ms["divergences.per_eigenvalue_terms"],
            "divergences.apply_bound.calls": c["divergences.apply_bound.calls"],
            "pointset.pointset_value_from_spectrum.calls":
                calls["pointset.pointset_value_from_spectrum"],
            "pointset.pointset_value_from_spectrum.ms": ms["pointset.pointset_value_from_spectrum"],
            "pointset.min_quadratic_box.calls": calls["pointset.min_quadratic_box"],
            "pointset.min_quadratic_box.ms": ms["pointset.min_quadratic_box"],
            "geodist.gd.calls": calls["geodist.gd"],
            "geodist.gd.self_ms": self_ms["geodist.gd"],
            "geodist.pairwise_gram.self_ms": self_ms["geodist.pairwise_gram"],
            "geodist.gd_degenerate_fiber.calls": calls["geodist.gd_degenerate_fiber"],
            "geodist.gd_degenerate_fiber.ms": ms["geodist.gd_degenerate_fiber"],
            "geodist.optimizer.starts": starts,
            "geodist.optimizer.nit": c["geodist.optimizer.nit"],
            "geodist.optimizer.nfev": c["geodist.optimizer.nfev"],
            "geodist.optimizer.ms": ms["geodist.optimizer"],
            "geodist.optimizer.converged_frac": frac(c["geodist.optimizer.converged"]),
            "geodist.optimizer.improved_frac": frac(c["geodist.optimizer.improved"]),
            "matrixio.parse_matrix_file.calls": calls["matrixio.parse_matrix_file"],
            "matrixio.parse_matrix_file.bytes": c["matrixio.parse_matrix_file.bytes"],
            "matrixio.parse_matrix_file.ms": ms["matrixio.parse_matrix_file"],
            "cli.main.ms": ms["cli.main"],
            "cli.self_ms": self_ms["cli.main"],
            "trace.overhead_frac": overhead_frac,
        })
        return {k: float(v) for k, v in out.items()}
