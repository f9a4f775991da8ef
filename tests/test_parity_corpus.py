"""The library against the checked-in parity corpus (tests/parity_corpus.py
writes it): every value within 1e-12 relative, every error of the same class."""

import json

import numpy as np
import pytest

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


def _tiny_corpus(a1=1.0, faithful=2.0, gram01=0.5, cplus00=4.0):
    """A two-entry corpus in the generator's layout, for the --diff tests."""
    gd = [{"pair": "p", "fiber": "geo", "mode": mode, "seed": 0, "fiber_term": v,
           "total": v + 1.0, "stratum": 1, "path": mode}
          for mode, v in (("algorithm1", a1), ("faithful", faithful))]
    return {"gd": gd, "pairwise_gram": {"fiber": "kl", "gram": [[0.0, gram01], [gram01, 0.0]]},
            "project_lift": [{"case": "c", "dminus": [[1.0]], "minus_lam": [1.0],
                              "cplus": [[cplus00, 0.5], [0.5, 1.0]], "plus_lam": [1.0, 1.0]}]}


def test_diff_names_moves_in_every_section():
    old = _tiny_corpus()
    assert parity_corpus.diff(old, _tiny_corpus()) == []
    lines = parity_corpus.diff(old, _tiny_corpus(faithful=2.5, gram01=0.25, cplus00=4.0 + 4e-15))
    assert lines == [
        "('p', 'geo', 'faithful', 0) fiber_term: 2.0 -> 2.5 (up, 0.25 relative)",
        "('p', 'geo', 'faithful', 0) total: 3.0 -> 3.5 (up, 0.17 relative)",
        "pairwise_gram[0][1]: 0.5 -> 0.25 (down, 0.5 relative)",
        "pairwise_gram[1][0]: 0.5 -> 0.25 (down, 0.5 relative)",
        "project_lift c cplus: 1 of 4 numbers moved, at most 1.1e-15 relative",
    ]


@pytest.mark.parametrize("moved, code", [({"a1": 1.5}, 0), ({"faithful": 1.5}, 0),
                                         ({"a1": 0.5}, 1)])
def test_only_up_fails_when_the_mode_falls(monkeypatch, tmp_path, capsys, moved, code):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_tiny_corpus()))
    monkeypatch.setattr(parity_corpus, "corpus", lambda: _tiny_corpus(**moved))
    assert parity_corpus.main(["--diff", str(old), "--only-up", "algorithm1"]) == code
    falls = [ln for ln in capsys.readouterr().out.splitlines() if " fell: " in ln]
    assert falls == ([] if code == 0 else [
        "('p', 'geo', 'algorithm1', 0) fiber_term fell: 1.0 -> 0.5 (down, 0.5 relative)",
        "('p', 'geo', 'algorithm1', 0) total fell: 2.0 -> 1.5 (down, 0.25 relative)"])
