"""The README's examples, run as written.

The ``optimize`` example's output block must be the command's exact stdout,
and the library-session snippet must run and print its result.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from qkdopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: Every fenced block of the README as (language, body), in order.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_optimize_example_prints_its_output_block(capsys):
    command = "qkdopt optimize --family dv --eps 1e-18 --seed 42"
    at = next(i for i, (_, body) in enumerate(BLOCKS) if body.strip() == command)
    lang, expected = BLOCKS[at + 1]
    assert lang == "text"
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_library_session_snippet_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.best_budget is not None
    assert capsys.readouterr().out == f"{result.best_budget} {result.best_fitness}\n"
