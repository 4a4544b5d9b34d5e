"""Each script under demos/ runs to the end in-process.

The demos call the public routes as a user would, so a route that moves or
changes its signature breaks them; running them here makes that a test
failure.  Their printed numbers are not checked.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
