"""Shared construction utilities for the test suite."""

import numpy as np

import psdsim as ps


def rand_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def rand_frame(rng, n, r):
    """Random n x r column-orthonormal frame."""
    return rand_orthogonal(rng, n)[:, :r]


def rand_pd(rng, n, lo=0.5, hi=2.0):
    """Random PD matrix with eigenvalues in [lo, hi]."""
    Q = rand_orthogonal(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return (Q * w) @ Q.T


def rand_psd_rank(rng, n, r, lo=0.5, hi=2.0):
    """Random PSD matrix of exact rank r in ambient dimension n."""
    F = rand_frame(rng, n, r)
    w = rng.uniform(lo, hi, size=r)
    return ps.PsdMatrix((F * w) @ F.T)


# the 5x5 worked pair: ranges meeting in a line, two right angles (l = 2),
# fiber spectra {1, 1, 1/2} and {1, 1, 2}
EXAMPLE_A = np.diag([1.0, 1.0, 0.5, 0.0, 0.0])
EXAMPLE_B = np.diag([1.0, 0.0, 0.0, 1.0, 2.0])


def example_pair():
    return ps.PsdMatrix(EXAMPLE_A), ps.PsdMatrix(EXAMPLE_B)


def displayed_left_fiber(psi):
    """The left fiber representation family of the 5x5 worked pair."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, (1 + c * c) / 2, s * c / 2],
        [0.0, s * c / 2, (1 + s * s) / 2],
    ])


def displayed_right_fiber(theta):
    """The right fiber representation family of the 5x5 worked pair."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1 + s * s, -s * c],
        [0.0, -s * c, 1 + c * c],
    ])


# divergence specs covering the five families and the named presets
def family_specs():
    return [
        ps.FiberDivergence.alpha_beta(1.0, 0.5),
        ps.FiberDivergence.stein(1.0),
        ps.FiberDivergence.burg(0.7),
        ps.FiberDivergence.itakura_saito(0.5),
        ps.FiberDivergence.geodesic(),
        ps.FiberDivergence.kl(),
        ps.FiberDivergence.bhattacharyya(),
        ps.FiberDivergence.renyi(0.3),
        ps.FiberDivergence.beta_log_det(1.0),
    ]


def rotated_containment_pair(rng, n, r, max_angle=1.2, pencil_lo=1.0, pencil_hi=4.0):
    """Equal-rank pair (A, B) whose base angles stay below a right angle and
    whose aligned fiber pencil spectrum lies in [pencil_lo, pencil_hi].

    With pencil_lo >= 1 the clamped and unclamped fiber values coincide, so
    the distance equals the quasi-geodesic length with k = 1.
    """
    F = rand_orthogonal(rng, n)
    qa, extra = F[:, :r], F[:, r : 2 * r]
    theta = np.sort(rng.uniform(0.05, max_angle, size=r))
    qb = qa * np.cos(theta) + extra * np.sin(theta)
    A = ps.PsdMatrix((qa * rng.uniform(0.5, 2.0, size=r)) @ qa.T)
    geo = ps.subspace_geodesic(ps.Subspace(qa), ps.Subspace(qb))
    u0, u1 = geo.evaluator(0.0), geo.evaluator(1.0)
    C0 = ps.fiber_representation(A, u0)
    E = rand_pd(rng, r, pencil_lo, pencil_hi)
    Ch = ps.psd_power(C0, 0.5)
    Dp = Ch @ E @ Ch
    B = ps.PsdMatrix(0.5 * (u1 @ Dp @ u1.T + (u1 @ Dp @ u1.T).T))
    return A, B


def degenerate_pair(rng, n, r, s, l, complex_field=False, theta=None):
    """Ranks r <= s in F^n whose ranges have exactly l right principal angles
    (the others are `theta`, by default drawn from [0.2, 1.2])."""
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(G)
    if theta is None:
        theta = rng.uniform(0.2, 1.2, size=r - l)
    tilted = Q[:, : r - l] * np.cos(theta) + Q[:, r : 2 * r - l] * np.sin(theta)
    frames = (Q[:, :r], np.hstack([tilted, Q[:, 2 * r - l : r + s]]))
    mats = []
    for F in frames:
        M = (F * rng.uniform(0.5, 2.0, size=F.shape[1])) @ F.conj().T
        mats.append(ps.PsdMatrix(0.5 * (M + M.conj().T)))
    return mats


def saturated_clamp_pair():
    """Ranks r = s = l = 2: a = (u1, u2, 0, 0) against 100 R diag(0, 0, u3, u4) R*,
    R a rotation of the last two coordinates, u and its angle from
    default_rng(0). Under kl+clamp=0.5 every sampled value of algorithm1
    saturates the clamp."""
    rng = np.random.default_rng(0)
    u = [rng.uniform(0.5, 2.0) for _ in range(4)]
    theta = rng.uniform(0.0, np.pi)
    R = np.eye(4)
    R[2:, 2:] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    B = 100.0 * R @ np.diag([0.0, 0.0, u[2], u[3]]) @ R.T
    return ps.PsdMatrix(np.diag([u[0], u[1], 0.0, 0.0])), ps.PsdMatrix(0.5 * (B + B.T))


def min_quadratic_box_enumerated(alpha, beta, c):
    """Reference for pointset._min_quadratic_box on one descending c.

    Minimizes alpha*sum(t^2) + beta*(sum t)^2 subject to t >= c by trying
    all 2^r active sets and keeping the best KKT point.
    """
    c = np.asarray(c, dtype=float)
    r = c.size
    if r == 0:
        return 0.0
    best = None
    for mask in range(1 << r):
        active = np.array([(mask >> i) & 1 for i in range(r)], dtype=bool)
        f = int(r - active.sum())
        s_active = float(c[active].sum())
        if f > 0:
            x = -beta * s_active / (alpha + f * beta)
            if np.any(x < c[~active] - 1e-12):
                continue
        else:
            x = 0.0
        total = s_active + f * x
        # KKT: multipliers on active constraints must be nonnegative
        if active.any():
            grad_active = 2.0 * alpha * c[active] + 2.0 * beta * total
            if np.any(grad_active < -1e-10):
                continue
        obj = alpha * (float(np.sum(c[active] ** 2)) + f * x**2) + beta * total**2
        if best is None or obj < best:
            best = obj
    assert best is not None
    return max(0.0, best)


def count_calls(monkeypatch, owner, *names):
    """Count calls to the named attributes of `owner` (all into one counter).

    Returns a dict whose "n" entry is the running count; reset it to zero to
    count one stretch of code.
    """
    counts = {"n": 0}
    for name in names:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, **kwargs):
            counts["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts
