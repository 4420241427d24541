"""Tests for the documentation pipeline: autodoc generation, links, nav."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

build_docs = pytest.importorskip("build_docs")


class TestApiGeneration:
    def test_generates_one_page_per_subpackage(self, tmp_path):
        stale = tmp_path / "removed_subpackage.md"  # a page left by an older tree
        stale.write_text("# `repro.removed_subpackage`\n")
        written = build_docs.generate_api_docs(tmp_path)
        names = {p.name for p in written}
        for expected in ("engine.md", "oracles.md", "kcenter.md", "index.md"):
            assert expected in names
        assert (tmp_path / "index.md").read_text().count("](") >= 10
        assert not stale.exists()
        assert {p.name for p in tmp_path.glob("*.md")} == names

    def test_engine_page_documents_public_api(self, tmp_path):
        build_docs.generate_api_docs(tmp_path)
        text = (tmp_path / "engine.md").read_text()
        for symbol in ("plan_sweep", "run_sweep", "ResultCache", "ExperimentSpec"):
            assert symbol in text

    def test_missing_docstring_is_a_failure(self):
        # types.ModuleType instances without docstrings must fail autodoc.
        import types

        anonymous = types.ModuleType("repro_docs_test_anonymous")
        sys.modules["repro_docs_test_anonymous"] = anonymous
        try:
            with pytest.raises(build_docs.DocsError, match="no docstring"):
                build_docs._render_module("repro_docs_test_anonymous")
        finally:
            del sys.modules["repro_docs_test_anonymous"]


class TestLinksAndNav:
    def test_committed_docs_have_no_broken_links(self, tmp_path):
        # Generate the API pages first so api/ links resolve, as `make docs`
        # does; generation goes to the real docs/api dir (gitignored).
        build_docs.generate_api_docs(build_docs.DOCS_DIR / build_docs.API_DIR_NAME)
        assert build_docs.check_links(build_docs.DOCS_DIR) == []

    def test_nav_and_pages_are_consistent(self):
        problems = build_docs.check_nav(
            build_docs.DOCS_DIR,
            REPO_ROOT / "mkdocs.yml",
            {"api/index.md": True},
        )
        assert problems == []

    def test_broken_link_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "page.md").write_text("[dead](missing.md)")
        problems = build_docs.check_links(docs)
        assert problems and "missing.md" in problems[0]

    def test_every_subsystem_named_in_issue_has_a_page(self):
        subsystems = build_docs.DOCS_DIR / "subsystems"
        for name in ("oracles", "maximum", "kcenter", "neighbors", "hierarchical", "engine"):
            assert (subsystems / f"{name}.md").is_file()

    def test_algorithms_map_covers_every_experiment(self):
        text = (build_docs.DOCS_DIR / "ALGORITHMS.md").read_text()
        from repro.engine import spec_names

        for name in spec_names():
            assert name in text, f"ALGORITHMS.md misses experiment {name}"


class TestCheckOnlyEntrypoint:
    def test_main_check_only_passes_on_committed_docs(self, capsys):
        assert build_docs.main(["--check-only"]) == 0
        out = capsys.readouterr().out
        assert "link and nav checks OK" in out
