"""Every Python source of the repository compiles with warnings as errors,
as the ``tier1`` CI job's compile step checks on each Python it runs."""

import pathlib
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def compile_strictly(source, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, name, "exec")


def test_sources_compile_with_warnings_as_errors():
    # perfbench/ and scripts/ are not imported by the tests, and an invalid
    # escape is a SyntaxWarning from Python 3.12 on, which no filter of
    # pyproject.toml turns into an error
    for folder in ("src", "tests", "perfbench", "scripts"):
        sources = sorted((ROOT / folder).rglob("*.py"))
        assert sources, folder
        for path in sources:
            compile_strictly(path.read_bytes(), str(path))


def test_an_invalid_escape_fails_the_check():
    with pytest.raises(SyntaxError):
        compile_strictly('pattern = "\\d"\n', "<invalid escape>")
