"""Byte-for-byte CLI output of the gallery commands.

``golden/gallery_cli.json`` holds the exit code, stdout and stderr of each
command, recorded by ``scripts/make_cli_golden.py``.  A difference here means
the output changed: regenerate the file only when that is the intent.
"""

import pytest

from qhist import cli

from helpers import GOLDEN, gallery


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[" ".join([e["command"], e["scenario"], *e["args"]]) for e in GOLDEN]
)
def test_gallery_output_is_unchanged(capsys, entry):
    code = cli.main([entry["command"], str(gallery(entry["scenario"])), *entry["args"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["exit"], entry["stdout"], entry["stderr"])
