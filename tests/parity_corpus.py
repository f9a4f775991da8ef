"""Generator of the parity corpus, tests/parity_corpus.json.

The corpus records what the library computes on a fixed set of inputs: `gd`
in both Hausdorff modes over a grid of pairs and fiber divergences (the
value as `repr` floats, or the class name of the error it raises), one
`pairwise_gram`, and the `project-lift` representatives. A change that
moves values regenerates the file and lists every moved entry of the three
sections, with its direction and size (`--diff`), and can require that no
value of one Hausdorff mode fell (`--only-up MODE`: `algorithm1` computes a
sup from below, so a change to its search may only raise it);
tests/test_parity_corpus.py holds the library to the checked-in file within
1e-12 relative.

    python3 tests/parity_corpus.py                  # rewrite the corpus
    python3 tests/parity_corpus.py --out new.json   # write it elsewhere
    python3 tests/parity_corpus.py --diff old.json  # moved entries, old -> new
    python3 tests/parity_corpus.py --diff old.json --only-up algorithm1
                                                    # and exit 1 if one fell

Run from the repository root with psdsim importable (installed, or
PYTHONPATH=src). Every input is built from fixed seeds, so two runs on one
machine write the same bytes.
"""

import argparse
import json
import os
import sys

import numpy as np

import psdsim as ps
from helpers import degenerate_pair, example_pair, rand_pd, rand_psd_rank, saturated_clamp_pair

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parity_corpus.json")

FIBERS = ("geo", "kl", "stein:0.5", "ab:0.5,0.5+sym", "geoab:1,0.25", "kl+clamp=0.5",
          "kl+ratio", "burg:4", "burg:8")
MODES = ("algorithm1", "faithful")
SAMPLES = 2000  # faithful mode's samples, small enough for tier-1


def _unitary(rng, n, complex_field):
    """Haar-like unitary: the QR factor of a Gaussian, column phases fixed."""
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _weighted(rng, F):
    """F diag(w) F*, w in [0.5, 2], exactly Hermitian."""
    M = (F * rng.uniform(0.5, 2.0, size=F.shape[1])) @ F.conj().T
    return 0.5 * (M + M.conj().T)


def _rotated_pair(seed, n, r, s, l, scale=1.0):
    """A pair with l right principal angles, in random bases of its two ranges,
    rotated by a complex unitary of F^n, B scaled by `scale`."""
    rng = np.random.default_rng(seed)
    Q = _unitary(rng, n, False)
    theta = rng.uniform(0.2, 1.2, size=r - l)
    tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
    frame_a = Q[:, :r] @ _unitary(rng, r, False)
    frame_b = np.hstack([tilted, Q[:, 2 * r - l : r + s]]) @ _unitary(rng, s, False)
    a, b = _weighted(rng, frame_a), _weighted(rng, frame_b)
    U = _unitary(rng, n, True)
    return U @ a @ U.conj().T, scale * (U @ b @ U.conj().T)


def pairs():
    """name -> (A, B) as arrays; one generic pair, the rest degenerate."""
    out = {"worked": tuple(X.entries for X in example_pair())}
    # the (3,5,2) pair of the degenerate-sup congruence test, real and complex
    for name, complex_field in (("real_352", False), ("complex_352", True)):
        A, B = degenerate_pair(np.random.default_rng(25), 8, 3, 5, 2, complex_field)
        out[name] = (A.entries, B.entries)
    # l = r: the complex pair on which algorithm1 misses the exact sup, and
    # an r = s = 3 pair
    A, B = _rotated_pair(28, 12, 3, 5, 3)
    out["complex_353"] = (A, 2.0 * B)
    out["complex_333"] = _rotated_pair(28, 12, 3, 3, 3, scale=2.0)
    # ill-scaled diagonal pairs with one right angle (real tails, k = 3)
    A = np.diag([1.0, 2.0, 0.0, 0.0, 0.0])
    out["diag_1e2"] = (A, 100.0 * np.diag([0.0, 1.0, 2.0, 0.5, 3.0]))
    out["diag_1e4"] = (A, 1e4 * np.diag([3.0, 0.0, 1.0, 2.0, 0.5]))
    out["clamp"] = tuple(X.entries for X in saturated_clamp_pair())
    out["generic"] = (rand_psd_rank(np.random.default_rng(30), 6, 2).entries,
                      rand_psd_rank(np.random.default_rng(31), 6, 3).entries)
    return out


def _call(fn):
    """fn()'s value, or the class name of the PsdSimError it raises."""
    try:
        return fn()
    except ps.PsdSimError as e:
        return type(e).__name__


def _floats(x):
    """Nested lists of floats; a complex entry as [re, im]."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = np.stack([x.real, x.imag], axis=-1)
    return x.tolist()


def gd_entries():
    """One entry per (pair, fiber, mode, seed): gd's fiber term and total."""
    out = []
    for name, (a, b) in pairs().items():
        A, B = ps.PsdMatrix(a), ps.PsdMatrix(b)
        for fiber in FIBERS:
            for mode in MODES:
                for seed in ((0, 3) if name == "clamp" else (0,)):
                    spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC,
                                         ps.parse_divergence(fiber), mode)
                    res = _call(lambda: ps.gd(A, B, spec, seed=seed, samples=SAMPLES))
                    entry = {"pair": name, "fiber": fiber, "mode": mode, "seed": seed}
                    if isinstance(res, str):
                        entry["error"] = res
                    else:
                        entry.update(fiber_term=res.fiber_term, total=res.total,
                                     stratum=res.stratum_index, path=res.mode)
                    out.append(entry)
    return out


def gram_entry():
    """pairwise_gram over ranks 1-3 in R^5, generic and degenerate directions."""
    rng = np.random.default_rng(32)
    mats = list(example_pair()) + [rand_psd_rank(rng, 5, r) for r in (1, 2, 3)]
    mats.append(ps.PsdMatrix(np.diag([0.0, 0.0, 0.0, 1.5, 0.5])))
    spec = ps.MetricSpec(ps.GrassmannMetric.GEODESIC, ps.parse_divergence("kl"))
    return {"fiber": "kl", "gram": _floats(ps.pairwise_gram(mats, spec))}


def witness_entries():
    """project_minus and lift_plus: the representative `psdsim project-lift`
    prints and its Lambda; Q and Z carry eigenvector signs and are left out."""
    rng = np.random.default_rng(33)
    cases = {"ci": (np.array([[1.0, 0.3], [0.3, 2.0]]),
                    np.array([[4.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 1.0]])),
             "random": (rand_pd(rng, 3, 0.2, 3.0), rand_pd(rng, 5, 0.2, 3.0))}
    out = []
    for name, (C, D) in cases.items():
        minus, plus = ps.project_minus(C, D), ps.lift_plus(C, D)
        out.append({"case": name, "dminus": _floats(minus.dminus), "minus_lam": _floats(minus.lam),
                    "cplus": _floats(plus.cplus), "plus_lam": _floats(plus.lam)})
    return out


def corpus():
    return {"gd": gd_entries(), "pairwise_gram": gram_entry(), "project_lift": witness_entries()}


def dumps(c):
    """The corpus as JSON, one gd entry a line."""
    lines = ['{"gd": [']
    lines.append(",\n".join("  " + json.dumps(e) for e in c["gd"]))
    lines.append('], "pairwise_gram": ' + json.dumps(c["pairwise_gram"]) + ",")
    lines.append('"project_lift": [')
    lines.append(",\n".join("  " + json.dumps(e) for e in c["project_lift"]))
    lines.append("]}")
    return "\n".join(lines) + "\n"


def _key(e):
    return (e["pair"], e["fiber"], e["mode"], e["seed"])


def _move(x, y):
    """The direction and relative size of a move from x to y."""
    return f"{'up' if y > x else 'down'}, {abs(y - x) / max(abs(x), 1e-300):.2g} relative"


def diff(old, new):
    """Lines naming everything that moved from `old` to `new`: each gd entry
    and each pairwise_gram entry with both values, the direction and the
    relative size of the move; each project_lift field with its largest move
    relative to the field's largest entry."""
    before = {_key(e): e for e in old["gd"]}
    out = []
    for e in new["gd"]:
        o = before.get(_key(e))
        if o is None:
            out.append(f"{_key(e)}: new entry")
            continue
        for field in ("error", "fiber_term", "total"):
            x, y = o.get(field), e.get(field)
            if x == y:
                continue
            if isinstance(x, float) and isinstance(y, float):
                out.append(f"{_key(e)} {field}: {x!r} -> {y!r} ({_move(x, y)})")
            else:
                out.append(f"{_key(e)} {field}: {x!r} -> {y!r}")
    x, y = (np.array(c["pairwise_gram"]["gram"]) for c in (old, new))
    for i, j in zip(*np.nonzero(x != y)):
        a, b = float(x[i, j]), float(y[i, j])
        out.append(f"pairwise_gram[{i}][{j}]: {a!r} -> {b!r} ({_move(a, b)})")
    for o, e in zip(old["project_lift"], new["project_lift"], strict=True):
        for field in ("dminus", "minus_lam", "cplus", "plus_lam"):
            x, y = np.array(o[field]), np.array(e[field])
            if np.any(x != y):
                rel = np.abs(y - x).max() / max(np.abs(x).max(), 1e-300)
                out.append(f"project_lift {e['case']} {field}: {np.count_nonzero(x != y)} "
                           f"of {x.size} numbers moved, at most {rel:.2g} relative")
    return out


def fell(old, new, mode):
    """Lines naming each gd entry of Hausdorff mode `mode` whose fiber term
    or total is lower in `new` than in `old`."""
    before = {_key(e): e for e in old["gd"]}
    out = []
    for e in new["gd"]:
        o = before.get(_key(e), {}) if e["mode"] == mode else {}
        for field in ("fiber_term", "total"):
            x, y = o.get(field), e.get(field)
            if isinstance(x, float) and isinstance(y, float) and y < x:
                out.append(f"{_key(e)} {field} fell: {x!r} -> {y!r} ({_move(x, y)})")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=CORPUS, help="where to write the corpus")
    parser.add_argument("--diff", metavar="OLD",
                        help="print the entries that moved from OLD; write nothing")
    parser.add_argument("--only-up", metavar="MODE",
                        help="with --diff: exit 1, naming them, if any gd entry of "
                             "Hausdorff mode MODE fell")
    args = parser.parse_args(argv)
    if args.only_up and not args.diff:
        parser.error("--only-up needs --diff OLD")
    new = corpus()
    if args.diff:
        with open(args.diff) as f:
            old = json.load(f)
        print("\n".join(diff(old, new)) or "nothing moved")
        falls = fell(old, new, args.only_up) if args.only_up else []
        if falls:
            print("\n".join(falls))
            return 1
        return 0
    with open(args.out, "w") as f:
        f.write(dumps(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
