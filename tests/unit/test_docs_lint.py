"""Docs lint: prose may not reference CLI flags or symbols that don't exist.

Documentation drifts when code moves underneath it.  This test pins the
documents listed in ``[tool.repro.docs-lint]`` (pyproject.toml) to the
real codebase:

* every ``--flag`` token must be an option of some ``python -m repro``
  sub-command (collected by walking the live argparse parser);
* every dotted ``repro.*`` reference — including brace groups like
  ``repro.x.{a, b}`` — must import/resolve to a real module or attribute.

Tokens that look like references but are neither (pytest flags quoted in
the README, file names like ``repro.pth``) go on the pyproject ignore
lists, so exceptions are reviewed in one place rather than silently
scattered through the checker.
"""

import argparse
import importlib
import pathlib
import re
import tomllib

import pytest

from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).parents[2]

#: ``--some-flag`` tokens; the lookbehind keeps ``register--like`` prose
#: and mid-word dashes from matching.
FLAG_RE = re.compile(r"(?<![\w-])--[a-zA-Z][\w-]*")

#: ``repro.a.b`` dotted paths, optionally ending in a ``{x, y}`` brace
#: group (the docs' shorthand for several names under one prefix).
SYMBOL_RE = re.compile(r"\brepro(?:\.\w+)+(?:\.\{[^}]*\})?")


def _lint_config():
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    return pyproject["tool"]["repro"]["docs-lint"]


def _doc_files(config):
    files = []
    for pattern in config["paths"]:
        matches = sorted(REPO_ROOT.glob(pattern))
        assert matches, f"docs-lint path {pattern!r} matched no files"
        files.extend(matches)
    return files


def _parser_flags(parser: argparse.ArgumentParser):
    """All option strings of the parser and, recursively, its sub-parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def _expand_braces(token: str):
    """``repro.x.{a, b}`` -> [``repro.x.a``, ``repro.x.b``]; else [token]."""
    if "{" not in token:
        return [token]
    prefix, group = token.split(".{", 1)
    names = group.rstrip("}").split(",")
    return [f"{prefix}.{name.strip()}" for name in names if name.strip()]


def _resolves(dotted: str) -> bool:
    """True if ``dotted`` names an importable module or attribute chain."""
    parts = dotted.split(".")
    for depth in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:depth]))
        except ImportError:
            continue
        try:
            for attr in parts[depth:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


CONFIG = _lint_config()
DOC_FILES = _doc_files(CONFIG)
DOC_IDS = [str(path.relative_to(REPO_ROOT)) for path in DOC_FILES]


class TestLintConfig:
    def test_ignore_lists_are_not_stale(self):
        """Every ignored token still appears in some linted document."""
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        for token in CONFIG["ignore-flags"] + CONFIG["ignore-symbols"]:
            assert token in corpus, f"stale ignore entry: {token!r}"

    def test_ignored_flags_are_really_unknown(self):
        """The flag ignore list may not shadow real CLI flags."""
        real = _parser_flags(build_parser())
        for flag in CONFIG["ignore-flags"]:
            assert flag not in real, (
                f"{flag!r} is a real CLI flag; drop it from ignore-flags"
            )


class TestDocsCoverExploreFlags:
    """Reverse lint: the explorer's whole CLI surface must be documented.

    The forward lint only rejects flags the docs invent; it is happy with
    docs that fall behind the parser (a new flag that ships without a
    line of documentation).  This direction pins it:
    every option of ``repro explore --help`` has to appear somewhere in
    the linted corpus.
    """

    def test_every_explore_flag_appears_in_the_docs(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = _parser_flags(subparsers.choices["explore"]) - {"-h", "--help"}
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        undocumented = sorted(flag for flag in flags if flag not in corpus)
        assert not undocumented, (
            "`repro explore` flags missing from the documentation corpus "
            f"({', '.join(DOC_IDS)}): {undocumented}"
        )


class TestDocsCoverAnalyzeFlags:
    """Reverse lint for the analyzer: every ``repro analyze`` flag must
    appear in the documentation corpus — new passes (``--concurrency``)
    cannot land undocumented."""

    def test_every_analyze_flag_appears_in_the_docs(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = _parser_flags(subparsers.choices["analyze"]) - {"-h", "--help"}
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        undocumented = sorted(flag for flag in flags if flag not in corpus)
        assert not undocumented, (
            "`repro analyze` flags missing from the documentation corpus "
            f"({', '.join(DOC_IDS)}): {undocumented}"
        )


class TestDocsCoverObservabilityFlags:
    """Reverse lint for the observability surface: every flag of
    ``repro report`` and ``repro top`` — and the shared ``--profile``
    switch — must appear in the documentation corpus, so new
    observability knobs cannot land undocumented."""

    @pytest.mark.parametrize("command", ["report", "top"])
    def test_every_flag_appears_in_the_docs(self, command):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = _parser_flags(subparsers.choices[command]) - {"-h", "--help"}
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        undocumented = sorted(flag for flag in flags if flag not in corpus)
        assert not undocumented, (
            f"`repro {command}` flags missing from the documentation corpus "
            f"({', '.join(DOC_IDS)}): {undocumented}"
        )

    def test_profile_flag_is_documented(self):
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        assert "--profile" in corpus


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=DOC_IDS
)
class TestDocsMatchCode:
    def test_cli_flags_exist(self, doc):
        known = _parser_flags(build_parser()) | set(CONFIG["ignore-flags"])
        unknown = sorted(
            {flag for flag in FLAG_RE.findall(doc.read_text())
             if flag not in known}
        )
        assert not unknown, (
            f"{doc.name} references CLI flags that no sub-command of "
            f"`python -m repro` defines: {unknown}"
        )

    def test_symbols_resolve(self, doc):
        ignored = set(CONFIG["ignore-symbols"])
        broken = sorted({
            name
            for token in SYMBOL_RE.findall(doc.read_text())
            for name in _expand_braces(token)
            if name not in ignored and not _resolves(name)
        })
        assert not broken, (
            f"{doc.name} references symbols that do not import/resolve: "
            f"{broken}"
        )
