"""Repository hygiene: no tracked file is one that .gitignore excludes."""
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        pytest.skip("not run in a git work tree of this repository")
    listed = git("ls-files", "-z", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    tracked = [p for p in listed.stdout.split("\0") if p]
    assert not tracked, (f"{len(tracked)} tracked file(s) excluded by .gitignore, "
                         f"e.g. {tracked[:5]}")
