"""Seeded outputs match the committed golden corpus.

``tests/golden/seeded_outputs.json`` records, per algorithm, noise model,
serving path and seed, a digest of the output and the query counts
(``scripts/regen_golden.py`` documents the entries and regenerates them).
The parity tests elsewhere prove that two paths agree with each other; this
file proves that the agreed answer itself has not moved.

When the installed numpy differs from the one the corpus was generated
under and an entry differs, the failure names the numpy versions instead of
showing a diff: seeded draws are only pinned within one numpy release.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import regen_golden  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return regen_golden.load_corpus()


@pytest.fixture(scope="module")
def fresh():
    return regen_golden.compute_corpus()


def test_corpus_lists_every_entry(corpus):
    assert sorted(corpus["entries"]) == sorted(regen_golden.entry_names())


@pytest.mark.parametrize("name", regen_golden.entry_names())
def test_seeded_output_matches_corpus(name, corpus, fresh):
    recorded = corpus["entries"][name]
    if fresh[name] != recorded:
        mismatch = regen_golden.numpy_mismatch(corpus)
        if mismatch is not None:
            pytest.fail(mismatch)
        pytest.fail(
            "\n".join(regen_golden.changed_entries({name: recorded}, {name: fresh[name]}))
            + "\n(regenerate with `PYTHONPATH=src python scripts/regen_golden.py "
            "--rebaseline` only if the change is intended, and list it in CHANGES.md)"
        )


class TestRegenScript:
    """The regeneration script's guard rails, on a stand-in corpus."""

    def _write(self, path: Path, entries: dict, numpy_version: str) -> None:
        path.write_text(json.dumps({"numpy": numpy_version, "entries": entries}))

    def test_check_refuses_to_overwrite_without_rebaseline(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "corpus.json"
        old = {"a": {"digest": "x", "charged_queries": 1}}
        new = {"a": {"digest": "y", "charged_queries": 1}}
        self._write(path, old, regen_golden.np.__version__)
        before = path.read_text()
        monkeypatch.setattr(regen_golden, "compute_corpus", lambda: new)

        assert regen_golden.main(["--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "changed a (digest: x -> y)" in out
        assert "--rebaseline" in err
        assert path.read_text() == before

        assert regen_golden.main(["--out", str(path), "--rebaseline"]) == 0
        rewritten = json.loads(path.read_text())
        assert rewritten["entries"] == new
        assert rewritten["numpy"] == regen_golden.np.__version__

    def test_numpy_mismatch_fails_with_message_not_diff(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "corpus.json"
        self._write(path, {"a": {"digest": "x"}}, "0.0.0")
        monkeypatch.setattr(regen_golden, "compute_corpus", lambda: {"a": {"digest": "y"}})

        assert regen_golden.main(["--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "numpy 0.0.0" in err
        assert "changed" not in out
        assert regen_golden.numpy_mismatch({"numpy": regen_golden.np.__version__}) is None

    def test_changed_entries_lists_added_and_removed(self):
        lines = regen_golden.changed_entries({"gone": {}, "same": {"d": 1}}, {"new": {}, "same": {"d": 1}})
        assert lines == ["removed gone", "added   new"]
