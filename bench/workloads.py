"""The four psdsim benchmark workloads.

A workload makes its inputs from a seed (shapes are fixed, contents are
random), builds the ``PsdMatrix`` objects a caller would hold, and splits
its work into units that the runner times one at a time. ``run(u)``
returns a unit's output as a float table with one row per distance entry
(or per pair), so repeated evaluations can be compared bit for bit, and
``check(u, table)`` counts the rows of a first evaluation that fail the
workload's correctness checks. The checks hold for every seed.

psdsim is reached through module attributes at call time (``psdsim.gd``,
``psdsim.cli.main``) so that the traced run sees the same calls.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import psdsim
import psdsim.cli
from psdsim.matrixio import format_matrix, parse_matrix_file

LN2_SQ = math.log(2.0) ** 2
WORKED_A = np.diag([1.0, 1.0, 0.5, 0.0, 0.0])
WORKED_B = np.diag([1.0, 0.0, 0.0, 1.0, 2.0])
WORKED_L = 2  # the worked pair's ranges meet in a line: two right angles
MODES = ("closedForm", "optimizedDegenerate", "faithfulSampled")


def _orthogonal(rng, n, complex_field=False):
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _herm(M):
    return 0.5 * (M + M.conj().T)


def _psd(rng, frame):
    """frame diag(w) frame* with weights in [0.5, 2], exactly Hermitian."""
    w = rng.uniform(0.5, 2.0, size=frame.shape[1])
    return _herm((frame * w) @ frame.conj().T)


def _spec(grassmann, fiber, mode="algorithm1"):
    return psdsim.MetricSpec(psdsim.GrassmannMetric.from_name(grassmann),
                             psdsim.parse_divergence(fiber), mode)


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _sample_entries(rng, n, count):
    """`count` off-diagonal (i, j) positions of an n x n matrix, distinct rows."""
    return [(i, (i + 1 + j) % n) for i, j in
            zip(rng.choice(n, count, replace=False), rng.integers(0, n - 1, count))]


def _gram_failures(G, ranks, sampled, direct, rtol):
    """Off-diagonal entries of a distance matrix that fail the gram checks.

    Finite, zero diagonal, positive off it; unequal-rank entries symmetric
    and sampled entries equal to `direct(i, j)`, both within `rtol`.
    """
    n = len(ranks)
    off = ~np.eye(n, dtype=bool)
    bad = ~np.isfinite(G) | (off & ~(G > 0.0)) | (~off & (G != 0.0))
    for i in range(n):
        for j in range(n):
            if ranks[i] != ranks[j] and not _rel_close(G[i, j], G[j, i], rtol):
                bad[i, j] = True
    for i, j in sampled:
        if not _rel_close(direct(i, j), G[i, j], rtol):
            bad[i, j] = True
    return int(np.count_nonzero(bad & off))


class Workload:
    """Inputs, units of work and checks of one workload."""

    import_target = "psdsim"  # what a user of this workload imports

    def __init__(self, seed, workdir):
        self.seed = seed
        self.units = []  # distance evaluations per unit

    def build(self):
        """Construct the PsdMatrix inputs (counted as set-up)."""

    def run(self, u):
        raise NotImplementedError

    def check(self, u, table):
        raise NotImplementedError


class _PairList(Workload):
    """Each unit is one (A, B, spec, gd kwargs) pair of `self.arrays`, evaluated with `gd`."""

    def build(self):
        self.pairs = [(psdsim.PsdMatrix(a), psdsim.PsdMatrix(b), spec, kw)
                      for a, b, spec, kw in self.arrays]

    def run(self, u):
        A, B, spec, kw = self.pairs[u]
        res = psdsim.gd(A, B, spec, **kw)
        return np.array([[res.total, res.grassmann_term, res.fiber_term,
                          res.stratum_index, MODES.index(res.mode)]])

    def is_worked(self, u):
        return self.arrays[u][0] is WORKED_A


class GramDense(Workload):
    """One pairwise_gram over PSD matrices in R^200, ranks cycling 40/50/60.

    Every pair is generic (no right principal angles), so each of the
    n(n-1) entries takes the closed-form path: one SVD, one eigh and one
    eigvalsh on 40-60 square blocks.
    """

    name = "gram_dense"
    COUNT = 12
    AMBIENT = 200
    RANKS = (40, 50, 60)
    SAMPLED = 6  # entries recomputed with gd in the check

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.ranks = [self.RANKS[i % 3] for i in range(self.COUNT)]
        self.arrays = [_psd(rng, _orthogonal(rng, self.AMBIENT)[:, :r]) for r in self.ranks]
        self.spec = _spec("geodesic", "geo")
        self.units = [self.COUNT * (self.COUNT - 1)]
        self.sampled = _sample_entries(rng, self.COUNT, self.SAMPLED)

    def build(self):
        self.mats = [psdsim.PsdMatrix(a) for a in self.arrays]

    def run(self, u):
        return psdsim.pairwise_gram(self.mats, self.spec, seed=self.seed).reshape(-1, 1)

    def check(self, u, table):
        def direct(i, j):
            res = psdsim.gd(self.mats[i], self.mats[j], self.spec, seed=self.seed)
            generic = res.mode == "closedForm" and res.stratum_index == 0
            return res.total if generic else math.nan

        return _gram_failures(table.reshape(self.COUNT, self.COUNT), self.ranks,
                              self.sampled, direct, 1e-12)


def _degenerate_pair(rng, n, r, s, l):
    """Ranks r <= s in R^n whose ranges have exactly l right principal angles.

    range(A) = span(q_0..q_{r-1}). range(B) holds r - l vectors tilted from
    q_0..q_{r-l-1} by angles in [0.2, 1.2] and s - r + l directions outside
    range(A), so q_{r-l}..q_{r-1} are orthogonal to range(B).
    """
    Q = _orthogonal(rng, n)
    theta = rng.uniform(0.2, 1.2, size=r - l)
    tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
    outside = Q[:, 2 * r - l : r + s]
    frame_a = Q[:, :r] @ _orthogonal(rng, r)
    frame_b = np.hstack([tilted, outside]) @ _orthogonal(rng, s)
    return _psd(rng, frame_a), _psd(rng, frame_b)


class DegenerateSup(_PairList):
    """algorithm1 on degenerate strata: the optimizer does the work.

    The worked 5x5 pair (l = 2, k = 2), then pairs in R^16 with l >= 1
    right angles, each cycle holding one pair per tail size
    k = s - r + l = 1..5.

    The optimizer's work depends strongly on the problem (function
    evaluations per pair vary by a quarter between random pairs of one
    shape), so the pairs come from a fixed template set and the seed draws
    an ambient rotation Q per pair, giving (Q A Q*, Q B Q*). GD is
    invariant under this congruence, so every input entry, the null-space
    bases LAPACK returns and the optimizer's sampled starts change with
    the seed, while the difficulty of the set stays fixed.
    """

    name = "degenerate_sup"
    AMBIENT = 16
    SHAPES = ((3, 3, 1), (3, 4, 1), (4, 5, 2), (3, 5, 2), (4, 6, 3))  # (r, s, l), k = 1..5
    CYCLES = 2
    TEMPLATE_SEED = 2312_13721

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        templates = np.random.default_rng(self.TEMPLATE_SEED)
        rng = np.random.default_rng(seed)
        self.spec = _spec("geodesic", "geo")
        kw = {"seed": seed, "budget": 16}
        self.arrays = [(WORKED_A, WORKED_B, self.spec, kw)]
        self.expected_l = [WORKED_L]
        for _ in range(self.CYCLES):
            for r, s, l in self.SHAPES:
                Q = _orthogonal(rng, self.AMBIENT)
                a, b = (_herm(Q @ M @ Q.T) for M in
                        _degenerate_pair(templates, self.AMBIENT, r, s, l))
                self.arrays.append((a, b, self.spec, kw))
                self.expected_l.append(l)
        self.units = [1] * len(self.arrays)

    def _identity_value(self, A, B):
        """Fiber value with the principal frames aligned as computed."""
        ps = psdsim.principal_system(psdsim.range_subspace(A), psdsim.range_subspace(B))
        C = psdsim.fiber_representation(A, ps.left_frame)
        D = psdsim.fiber_representation(B, ps.right_frame)
        return psdsim.pointset_minus(self.spec.fiber, C, D).value

    def check(self, u, table):
        A, B, _, _ = self.pairs[u]
        total, _, fiber, l, mode = table[0]
        ok = (l == self.expected_l[u] and MODES[int(mode)] == "optimizedDegenerate"
              and math.isfinite(total)
              and fiber >= self._identity_value(A, B) - 1e-9)
        if self.is_worked(u):
            ok = ok and abs(fiber**2 - 4 * LN2_SQ) <= 1e-4
        return int(not ok)


class FaithfulSampled(_PairList):
    """faithful mode at 1e5 samples: ambiguity sampling and value maps.

    Each cycle holds the worked 5x5 pair (geo fiber) and five small generic
    pairs (ambient 5-8, rank <= 4) alternating kl+clamp=5 and geo fibers.
    Every pair gets its own sampling seed.
    """

    name = "faithful_sampled"
    SAMPLES = 100_000
    SHAPES = ((5, 2, 3), (6, 3, 3), (7, 4, 4), (8, 2, 4), (8, 3, 4))  # (n, r, s)
    CYCLES = 1
    # sampled max-min error on the worked pair was 0.5e-4..3.9e-4 over 60
    # sampler seeds at 1e5 samples; the tolerance allows ~3x that and
    # scales as samples^-1/2
    WORKED_TOL = 0.4 / math.sqrt(SAMPLES)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        geo = _spec("geodesic", "geo", "faithful")
        kl = _spec("geodesic", "kl+clamp=5", "faithful")
        self.arrays = []
        for _ in range(self.CYCLES):
            unit = [(WORKED_A, WORKED_B, geo)]
            for j, (n, r, s) in enumerate(self.SHAPES):
                a = _psd(rng, _orthogonal(rng, n)[:, :r])
                b = _psd(rng, _orthogonal(rng, n)[:, :s])
                unit.append((a, b, kl if j % 2 == 0 else geo))
            self.arrays += [(a, b, spec, {"seed": int(rng.integers(2**31)),
                                          "samples": self.SAMPLES})
                            for a, b, spec in unit]
        self.units = [1] * len(self.arrays)

    def check(self, u, table):
        A, B, spec, _ = self.pairs[u]
        total, grass, fiber, l, mode = table[0]
        ok = MODES[int(mode)] == "faithfulSampled" and math.isfinite(total)
        if self.is_worked(u):
            ok = ok and l == WORKED_L and abs(fiber**2 - 2 * LN2_SQ) <= self.WORKED_TOL
        else:
            closed = psdsim.gd(A, B, psdsim.MetricSpec(spec.grassmann, spec.fiber))
            ok = (ok and l == 0 and abs(fiber - closed.fiber_term) <= 1e-4
                  and _rel_close(grass, closed.grassmann_term, 1e-12))
        return int(not ok)


class CliPairwiseSmall(Workload):
    """`psdsim pairwise` in-process over small real and complex files.

    Ambient 4-12, rank 1-6, every fourth file complex; the CLI parses the
    files, pads, evaluates the two-parameter geodesic fiber through its
    active-set QP and writes CSV to a file.

    The QP's work depends on the spectra, so, as in DegenerateSup, the
    matrices come from a fixed template set and the seed draws one
    orthogonal Q = blkdiag(Q4, diag(+-1)) on R^12 applied to every file
    (its leading n x n block to an n x n file). Q preserves the nested
    coordinate spaces that padding uses, so every pairwise distance is
    unchanged while every file's entries change.
    """

    name = "cli_pairwise_small"
    import_target = "psdsim.cli"
    COUNT = 24
    SAMPLED = 6
    FIBER = "geoab:1,0.25"  # "geoab:1:0.25" is rejected by parse_divergence
    TEMPLATE_SEED = 2312_13722

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        templates = np.random.default_rng(self.TEMPLATE_SEED)
        rng = np.random.default_rng(seed)
        Q = np.diag(rng.choice([-1.0, 1.0], size=12))
        Q[:4, :4] = _orthogonal(rng, 4)
        indir = os.path.join(workdir, "inputs")
        os.makedirs(indir)
        self.csv_path = os.path.join(workdir, "gram.csv")
        self.paths, self.ranks = [], []
        for i in range(self.COUNT):
            n = 4 + (7 * i) % 9
            r = min(n, 1 + (5 * i) % 6)
            cplx = i % 4 == 3
            M = _psd(templates, _orthogonal(templates, n, cplx)[:, :r])
            M = _herm(Q[:n, :n] @ M @ Q[:n, :n].T)
            path = os.path.join(indir, f"m{i:03d}.psdm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_matrix(M))
            self.paths.append(path)
            self.ranks.append(r)
        self.argv = ["pairwise", "--inputs", indir, "--out", self.csv_path,
                     "--field", "complex", "--grassmann", "procrustes",
                     "--fiber", self.FIBER, "--seed", str(seed)]
        self.units = [self.COUNT * (self.COUNT - 1)]
        self.sampled = _sample_entries(rng, self.COUNT, self.SAMPLED)

    def run(self, u):
        code = psdsim.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"psdsim pairwise exited with code {code}")
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        names = [os.path.splitext(os.path.basename(p))[0] for p in self.paths]
        if rows[0] != names or len(rows) != self.COUNT + 1:
            raise RuntimeError("CSV header or row count does not match the inputs")
        return np.array(rows[1:], dtype=float).reshape(-1, 1)

    def check(self, u, table):
        spec = _spec("procrustes", self.FIBER)

        def direct(i, j):
            A, B = (psdsim.PsdMatrix(parse_matrix_file(self.paths[k])[0]) for k in (i, j))
            return psdsim.gd(A, B, spec, seed=self.seed).total

        # the CSV carries 12 significant digits
        return _gram_failures(table.reshape(self.COUNT, self.COUNT), self.ranks,
                              self.sampled, direct, 1e-11)


WORKLOADS = {w.name: w for w in (GramDense, DegenerateSup, FaithfulSampled, CliPairwiseSmall)}
