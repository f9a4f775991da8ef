"""The library against the checked-in parity corpus (tests/parity_corpus.py
writes it): every value within 1e-12 relative, every error of the same class."""

import json

import numpy as np

import parity_corpus

REL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REL * max(np.abs(want).max(initial=0.0), 1e-300)))


def test_parity_corpus():
    with open(parity_corpus.CORPUS) as f:
        want = json.load(f)
    got = parity_corpus.corpus()
    assert [parity_corpus._key(e) for e in got["gd"]] == [parity_corpus._key(e) for e in want["gd"]]
    for g, w in zip(got["gd"], want["gd"]):
        key = parity_corpus._key(w)
        assert g.get("error") == w.get("error"), key
        assert (g.get("stratum"), g.get("path")) == (w.get("stratum"), w.get("path")), key
        for field in ("fiber_term", "total"):
            if field in w:
                assert _close(g[field], w[field]), (key, field, g[field], w[field])
    assert _close(got["pairwise_gram"]["gram"], want["pairwise_gram"]["gram"])
    for g, w in zip(got["project_lift"], want["project_lift"], strict=True):
        for field in ("dminus", "minus_lam", "cplus", "plus_lam"):
            assert _close(g[field], w[field]), (w["case"], field)
