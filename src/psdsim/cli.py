"""Command-line front end.

Machine output (JSON, CSV, matrix blocks) goes to stdout; diagnostics go
to stderr. Exit codes: 0 success, 2 parse error (an unreadable input or
an unwritable output included), 3 domain error, 4 optimizer failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .divergences import parse_divergence
from .errors import DomainError, OptimizerError, ParseError
from .geodist import MetricSpec, gd, pairwise_gram
from .geometry import subspace_geodesic, transport_curve
from .grassmann import GrassmannMetric
from .linalg import TOL_PSD, TOL_RANK, PsdMatrix, Subspace, range_subspace
from .matrixio import format_matrix, parse_matrix_file
from .pointset import lift_plus, pointset_minus, pointset_plus, project_minus


def _read_matrix(path, args):
    """Entries of a matrix file; complex files need `--field complex`."""
    entries, field = parse_matrix_file(path)
    if field == "complex" and args.field != "complex":
        raise ParseError(f"{path}: complex input requires --field complex")
    return entries


def _load_psd(path, args):
    entries = _read_matrix(path, args)
    try:
        return PsdMatrix(entries, tol_rank=args.tol, tol_psd=args.tol_psd)
    except DomainError as e:
        raise DomainError(f"{path}: {e}")


def _metric_spec(args):
    return MetricSpec(
        grassmann=GrassmannMetric.from_name(args.grassmann),
        fiber=parse_divergence(args.fiber),
        hausdorff_mode=args.hausdorff,
    )


def _csv_num(v):
    out = format(float(v), ".12g")
    if "." not in out and "e" not in out and "inf" not in out and "nan" not in out:
        out += ".0"
    return out


def cmd_dist(args):
    A = _load_psd(args.a, args)
    B = _load_psd(args.b, args)
    spec = _metric_spec(args)
    result = gd(A, B, spec, seed=args.seed, budget=args.budget, samples=args.samples)
    sys.stdout.write(result.to_json() + "\n")
    return 0


def _gather_inputs(spec_text):
    paths = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if os.path.isdir(chunk):
            names = sorted(os.listdir(chunk))
            paths.extend(os.path.join(chunk, n) for n in names
                         if n.endswith(".psdm") or n.endswith(".txt"))
        else:
            paths.append(chunk)
    if not paths:
        raise ParseError(f"no input files found in {spec_text!r}")
    return paths


def cmd_pairwise(args):
    paths = _gather_inputs(args.inputs)
    mats = [_load_psd(p, args) for p in paths]
    spec = _metric_spec(args)
    gram = pairwise_gram(mats, spec, seed=args.seed, budget=args.budget,
                         samples=args.samples)
    names = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    lines = [",".join(names)]
    for row in gram:
        lines.append(",".join(_csv_num(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_project_lift(args):
    C = _read_matrix(args.c, args)
    D = _read_matrix(args.d, args)
    spec = parse_divergence(args.fiber)
    if args.which == "minus":
        value, witness = pointset_minus(spec, C, D).value, project_minus(C, D).dminus
    else:
        value, witness = pointset_plus(spec, C, D).value, lift_plus(C, D).cplus
    sys.stdout.write(format_matrix(witness))
    sys.stdout.write('{"side": "%s", "value": %.17g}\n' % (args.which, value))
    return 0


def cmd_transport(args):
    A = _load_psd(args.a, args)
    geo = subspace_geodesic(range_subspace(A), Subspace(_read_matrix(args.target, args)))
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    curve = transport_curve(A, geo)
    blocks = [format_matrix(curve.evaluator(i / args.steps).entries)
              for i in range(args.steps + 1)]
    sys.stdout.write("\n".join(blocks))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="psdsim",
        description="Similarity measurements between PSD matrices of any size and rank.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, psd_inputs=True, with_metric=True):
        """Tolerances for PsdMatrix inputs, the metric for distance commands."""
        if psd_inputs:
            p.add_argument("--tol", type=float, default=TOL_RANK,
                           help="rank tolerance; also decides right principal angles")
            p.add_argument("--tol-psd", dest="tol_psd", type=float, default=TOL_PSD)
        p.add_argument("--field", choices=["real", "complex"], default="real")
        if with_metric:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--grassmann", default="geodesic")
            p.add_argument("--fiber", default="geo")
            p.add_argument("--hausdorff", choices=["algorithm1", "faithful"],
                           default="algorithm1")
            p.add_argument("--budget", type=int, default=16,
                           help="starts of the degenerate-stratum ascent")
            p.add_argument("--samples", type=int, default=20000,
                           help="ambiguity samples in faithful mode (degenerate strata only)")

    p = sub.add_parser("dist", help="distance between two PSD matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("pairwise", help="pairwise distance matrix as CSV")
    p.add_argument("--inputs", required=True,
                   help="directory or comma-separated list of matrix files")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    common(p)
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("project-lift", help="optimal representative in a containment set")
    p.add_argument("--c", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--which", choices=["minus", "plus"], required=True)
    p.add_argument("--fiber", default="geo")
    common(p, psd_inputs=False, with_metric=False)
    p.set_defaults(func=cmd_project_lift)

    p = sub.add_parser("transport", help="parallel transport along a base geodesic")
    p.add_argument("--a", required=True)
    p.add_argument("--target", required=True, help="subspace frame file")
    p.add_argument("--steps", type=int, default=10)
    common(p, with_metric=False)
    p.set_defaults(func=cmd_transport)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError, OptimizerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 3 if isinstance(e, DomainError) else 4


if __name__ == "__main__":
    sys.exit(main())
