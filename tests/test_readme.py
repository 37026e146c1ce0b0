"""README.md's examples, run as written: the library quick start and the
`$ cbd ...` transcripts, against `python -m cbd`."""

import re
import subprocess
import sys
from pathlib import Path

import cbd

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def run_pipeline(line):
    """`cbd a | cbd b ...` through `python -m cbd`: the last stage's stdout
    and exit code."""
    out, code = None, None
    for stage in line.split(" | "):
        argv = stage.split()
        assert argv[0] == "cbd"
        proc = subprocess.run(
            [sys.executable, "-m", "cbd", *argv[1:]],
            input=out,
            capture_output=True,
            text=True,
            cwd=Path(cbd.__file__).parent.parent,
        )
        assert proc.stderr == ""
        out, code = proc.stdout, proc.returncode
    return out, code


def test_quick_start_runs():
    quick = README.split("## Library quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", quick, re.M | re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})


def test_transcripts_match_the_cli():
    # each `$ cbd ...` line, then its output up to the next `$ ` line; a
    # `$ echo $?` line shows the exit code of the command before it
    sh = re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    transcripts = [text for text in sh if text.startswith("$ cbd ")]
    assert len(transcripts) == 2
    seen = []
    for text in transcripts:
        code = None
        for command, shown in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", text, re.M):
            if command == "echo $?":
                assert shown == f"{code}\n"
                continue
            out, code = run_pipeline(command)
            assert out == shown
            seen.append((command, code))
    assert seen == [
        ("cbd liar 2 | cbd analyze -", 3),
        ("cbd liar 4 | cbd cyclic -", 0),
    ]
