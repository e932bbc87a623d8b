"""Every op of the benchmark corpus keeps its stored exit code and stdout.

``perfbench/expected.json`` maps each op (``ck-spectra`` arguments joined by
spaces, with corpus paths relative to the repository root) to the exit code
and the SHA-256 of the stdout that the benchmark accepts.  Each op runs here
through ``cli.main`` in process; nothing under ``perfbench/`` is written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ck_spectra import cli

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("op", sorted(EXPECTED))
def test_op_keeps_its_exit_code_and_stdout(op, capsys):
    argv = [str(ROOT / a) if a.startswith("perfbench/") else a for a in op.split(" ")]
    code = cli.main(argv)
    out = capsys.readouterr().out
    want = EXPECTED[op]
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (want["exit"], want["sha256"])
