"""The README's quick start and library example run as written."""

import re
import shlex
from pathlib import Path

import pytest

from surfaceflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, fence: str) -> str:
    """Body of the first ``fence`` code block under the ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^{re.escape(fence)}\n(.*?)^```$", section, re.M | re.S)
    assert match, f"no {fence} block under '## {heading}'"
    return match.group(1)


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """Run every quick-start line through the CLI; returns the directory and exit codes."""
    workdir = tmp_path_factory.mktemp("readme")
    lines = [line for line in readme_block("Quick start", "```").splitlines() if line.strip()]
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "surfaceflow", line
            codes[line] = main(argv[1:])
    return workdir, codes


def test_quick_start_lines_succeed(quick_start):
    _, codes = quick_start
    assert len(codes) >= 4
    assert codes == {line: 0 for line in codes}


def test_library_example_runs(quick_start, monkeypatch):
    workdir, _ = quick_start
    monkeypatch.chdir(workdir)
    namespace = {}
    exec(readme_block("Library", "```python"), namespace)
    assert namespace["report"].converged
