#!/usr/bin/env python
"""Build and validate the documentation site.

Three phases, each failing loudly on breakage so CI can gate on it:

1. **API generation** — walk the ``repro`` package, import every module and
   render one Markdown page per top-level subpackage from the docstrings
   into ``docs/api/``.  An import error or a missing module docstring is a
   broken-autodoc failure.
2. **Link check** — every relative Markdown link in ``docs/`` must resolve
   to an existing file, and every page referenced by ``mkdocs.yml``'s nav
   must exist (and vice versa: every page must be reachable from the nav).
3. **Site build** — if ``mkdocs`` is installed, run ``mkdocs build
   --strict``; otherwise skip with a note (the container used for tests has
   no mkdocs; CI installs it).

Usage: ``python scripts/build_docs.py [--check-only]``
(run from the repository root with ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
API_DIR_NAME = "api"

#: Markdown link pattern: [text](target); images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class DocsError(Exception):
    """A documentation build failure (broken autodoc, link or nav entry)."""


# ---------------------------------------------------------------------------
# Phase 1: API reference generation


def _public_members(module) -> Tuple[List[Tuple[str, object]], List[Tuple[str, object]]]:
    """(classes, functions) defined in *module*, in definition order."""
    classes, functions = [], []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    return classes, functions


def _first_line(doc: str) -> str:
    return doc.strip().splitlines()[0].strip()


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _render_module(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    doc = inspect.getdoc(module)
    if not doc:
        raise DocsError(f"module {module_name} has no docstring (broken autodoc)")
    lines = [f"## `{module_name}`", "", doc, ""]
    classes, functions = _public_members(module)
    for name, cls in classes:
        cls_doc = inspect.getdoc(cls) or ""
        if not cls_doc:
            continue
        lines += [f"### class `{name}{_signature(cls)}`", "", _first_line(cls_doc), ""]
        for meth_name, meth in vars(cls).items():
            if meth_name.startswith("_") or not inspect.isfunction(meth):
                continue
            meth_doc = inspect.getdoc(meth)
            if meth_doc:
                lines += [
                    f"* `{meth_name}{_signature(meth)}` — {_first_line(meth_doc)}"
                ]
        lines.append("")
    for name, fn in functions:
        fn_doc = inspect.getdoc(fn)
        if not fn_doc:
            continue
        lines += [f"### `{name}{_signature(fn)}`", "", _first_line(fn_doc), ""]
    return lines


def _walk_subpackage(root_name: str) -> List[str]:
    """Module names of *root_name* and its importable submodules, sorted."""
    root = importlib.import_module(root_name)
    names = [root_name]
    if hasattr(root, "__path__"):
        for info in pkgutil.walk_packages(root.__path__, prefix=f"{root_name}."):
            if info.name.rsplit(".", 1)[-1].startswith("__"):
                continue
            names.append(info.name)
    return sorted(names)


def generate_api_docs(output_dir: Path) -> List[Path]:
    """Render `docs/api/` pages from docstrings; returns the written paths.

    Any other ``*.md`` page in *output_dir* is deleted, so pages of removed
    subpackages do not survive a regeneration.

    Raises :class:`DocsError` when a module fails to import or lacks a
    docstring.
    """
    import repro

    output_dir.mkdir(parents=True, exist_ok=True)
    subpackages = sorted(
        info.name for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg or info.name not in ("__main__",)
    )
    written: List[Path] = []
    index_lines = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/build_docs.py`; one page per",
        "`repro` subpackage. Regenerate with `make docs`.",
        "",
    ]
    for sub in subpackages:
        qualified = f"repro.{sub}"
        try:
            module_names = _walk_subpackage(qualified)
        except Exception as error:  # import failure = broken autodoc
            raise DocsError(f"cannot import {qualified}: {error}") from error
        page_lines = [f"# `{qualified}`", ""]
        for module_name in module_names:
            if module_name.endswith(".__main__"):
                continue
            try:
                page_lines += _render_module(module_name)
            except DocsError:
                raise
            except Exception as error:
                raise DocsError(f"cannot document {module_name}: {error}") from error
        page = output_dir / f"{sub}.md"
        page.write_text("\n".join(page_lines), encoding="utf-8")
        written.append(page)
        top_doc = inspect.getdoc(importlib.import_module(qualified)) or ""
        hook = _first_line(top_doc) if top_doc else ""
        index_lines.append(f"* [`{qualified}`]({sub}.md) — {hook}")
    index = output_dir / "index.md"
    index.write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    written.append(index)
    # A page whose subpackage is gone would otherwise outlive it and be
    # published by the next site build.
    for stale in set(output_dir.glob("*.md")) - set(written):
        stale.unlink()
    return written


# ---------------------------------------------------------------------------
# Phase 2: link and nav checking


def _markdown_files(docs_dir: Path) -> List[Path]:
    return sorted(docs_dir.rglob("*.md"))


def check_links(docs_dir: Path) -> List[str]:
    """Return a list of broken-relative-link descriptions (empty = healthy)."""
    problems: List[str] = []
    for page in _markdown_files(docs_dir):
        text = page.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (page.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(docs_dir)}: broken link -> {target}"
                )
    return problems


def _nav_pages(mkdocs_yml: Path) -> List[str]:
    """Page paths referenced by the mkdocs nav (best-effort, yaml optional)."""
    text = mkdocs_yml.read_text(encoding="utf-8")
    try:
        import yaml

        config = yaml.safe_load(text)

        def collect(node) -> Iterable[str]:
            if isinstance(node, str):
                yield node
            elif isinstance(node, list):
                for item in node:
                    yield from collect(item)
            elif isinstance(node, dict):
                for value in node.values():
                    yield from collect(value)

        return [p for p in collect(config.get("nav", [])) if p.endswith(".md")]
    except ImportError:
        return re.findall(r":\s*([\w/.-]+\.md)\s*$", text, flags=re.MULTILINE)


def check_nav(docs_dir: Path, mkdocs_yml: Path, generated: Dict[str, bool]) -> List[str]:
    """Verify nav entries exist and every page is nav-reachable or generated."""
    problems: List[str] = []
    nav = _nav_pages(mkdocs_yml)
    for page in nav:
        if not (docs_dir / page).exists() and page not in generated:
            problems.append(f"mkdocs.yml: nav entry missing on disk -> {page}")
    nav_set = set(nav)
    for page in _markdown_files(docs_dir):
        rel = str(page.relative_to(docs_dir))
        if rel.startswith(f"{API_DIR_NAME}/"):
            continue  # generated pages are reachable through api/index.md
        if rel not in nav_set:
            problems.append(f"docs/{rel}: page not referenced by mkdocs.yml nav")
    return problems


# ---------------------------------------------------------------------------
# Phase 3: optional strict mkdocs build


def mkdocs_build() -> bool:
    """Run ``mkdocs build --strict`` when available; returns whether it ran."""
    try:
        import mkdocs  # noqa: F401
    except ImportError:
        print("docs: mkdocs not installed; skipping site build (checks still ran)")
        return False
    subprocess.run(
        [sys.executable, "-m", "mkdocs", "build", "--strict"],
        cwd=REPO_ROOT,
        check=True,
    )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="generate + validate but never invoke mkdocs",
    )
    args = parser.parse_args(argv)

    api_dir = DOCS_DIR / API_DIR_NAME
    try:
        written = generate_api_docs(api_dir)
    except DocsError as error:
        print(f"docs: FAILED autodoc: {error}", file=sys.stderr)
        return 1
    print(f"docs: generated {len(written)} API page(s) under {api_dir.relative_to(REPO_ROOT)}")

    problems = check_links(DOCS_DIR)
    problems += check_nav(
        DOCS_DIR,
        REPO_ROOT / "mkdocs.yml",
        {f"{API_DIR_NAME}/index.md": True},
    )
    if problems:
        for problem in problems:
            print(f"docs: FAILED link/nav check: {problem}", file=sys.stderr)
        return 1
    print("docs: link and nav checks OK")

    if not args.check_only:
        if mkdocs_build():
            print("docs: mkdocs build --strict OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
