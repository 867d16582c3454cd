"""The byte contract: sha256 of every CLI output on one seeded cohort.

``pinned_outputs.sha256`` holds one line per output: the command, the file it
wrote (``-`` for stdout), the exit code and the sha256 of the bytes. A change
that moves any byte fails here and names each output that differs. A change
that moves bytes on purpose re-pins the file by running this test with
``LOSANOVA_REPIN_OUTPUTS=1`` and lists each changed line, with its reason, in
CHANGES.md.

The digests hold for the numpy and scipy versions named in the file's header;
on any other versions the test skips.
"""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from losanova.cli import cli_main

PINNED = Path(__file__).with_name("pinned_outputs.sha256")
_REPIN = "LOSANOVA_REPIN_OUTPUTS"
_VERSIONS = f"numpy {np.__version__} scipy {scipy.__version__}"
_INPUT = "cohort.csv"


def _commands():
    """Each command as an argv, with the report directory it writes or None."""
    yield ["synth", "--n", "8000", "--seed", "5", "--out", _INPUT], None
    for transform in ("auto", "log10", "none"):
        base = ["--input", _INPUT, "--transform", transform]
        yield ["anova", *base], None
        yield ["anova", *base, "--max-order", "1"], None
        yield ["anova", *base, "--max-order", "2"], None
        yield ["posthoc", *base, "--factor", "season"], None
        yield ["posthoc", *base, "--factor", "age_group"], None
        yield ["diagnose", *base], None
        for fmt in ("text", "csv", "json"):
            yield ["report", *base, "--format", fmt], None
        out = f"report-{transform}"
        yield ["report", *base, "--out", out], out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(capsys) -> list[str]:
    """Run every command in the current directory; one line per output."""
    lines = []
    for argv, out in _commands():
        command = " ".join(argv)
        code = cli_main(argv)
        lines.append(f"{command}\t-\t{code}\t{_digest(capsys.readouterr().out.encode())}")
        files = [Path(_INPUT)] if argv[0] == "synth" else []
        if out is not None:
            files = sorted(p for p in Path(out).rglob("*") if p.is_file())
        lines += [f"{command}\t{p.as_posix()}\t{code}\t{_digest(p.read_bytes())}"
                  for p in files]
    return lines


def _by_output(lines: list[str]) -> dict[str, str]:
    """Each line keyed by its command and file."""
    return {line.rsplit("\t", 2)[0]: line for line in lines}


def test_cli_outputs_match_their_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if os.environ.get(_REPIN):
        PINNED.write_text("\n".join([f"# {_VERSIONS}", *_run_all(capsys)]) + "\n")
        return
    header, *lines = PINNED.read_text().splitlines()
    versions = header.removeprefix("# ")
    if versions != _VERSIONS:
        pytest.skip(f"digests pinned under {versions}; this is {_VERSIONS}")
    pinned, got = _by_output(lines), _by_output(_run_all(capsys))
    differ = sorted(key.replace("\t", " -> ") for key in pinned.keys() | got.keys()
                    if pinned.get(key) != got.get(key))
    assert not differ, f"{len(differ)} outputs differ from {PINNED.name}:\n" + "\n".join(differ)
