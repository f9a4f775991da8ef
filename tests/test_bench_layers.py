"""The per-layer tracer in bench/layers.py still finds what it wraps."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import psdsim as ps
from helpers import example_pair

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# psdsim attributes the tracer replaces where callers look them up
TRACED = (
    "geodist.gd",
    "geodist.pairwise_gram",
    "geodist.gd_degenerate_fiber",
    "geodist._conjugated_block_values",
    "pointset._min_quadratic_box",
    "pointset.pointset_value_from_spectrum",
    "divergences.apply_bound",
    "divergences.per_eigenvalue_terms",
    "linalg.small_angles_refined",
    "linalg.PsdMatrix",
    "grassmann.grassmann_distance",
    "matrixio.parse_matrix_file",
    "cli.main",
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist():
    for path in TRACED:
        module, _, attr = path.partition(".")
        assert callable(getattr(importlib.import_module(f"psdsim.{module}"), attr)), path


def test_tracer_sees_degenerate_and_bounded_calls():
    block_values, svd = ps.geodist._conjugated_block_values, np.linalg.svd
    A, B = example_pair()
    kl = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.parse_divergence("kl+clamp=5"))
    with _load_layers().Tracer() as tracer:
        ps.gd(A, B, kl, budget=2)
        ps.pairwise_gram([A, B], kl, budget=2)
    metrics = tracer.metrics(0.0)
    assert metrics["geodist.gd_degenerate_fiber.calls"] == 3
    assert tracer.counts["geodist.block_values.calls"] > 0
    assert metrics["divergences.apply_bound.calls"] > 0
    assert metrics["linalg.svd.calls"] > 0
    assert ps.geodist._conjugated_block_values is block_values and np.linalg.svd is svd
