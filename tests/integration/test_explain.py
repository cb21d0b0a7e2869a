"""``repro.cli explain`` smoke test over the committed fuzz corpus.

Every reproducer under ``tests/corpus/`` must explain cleanly: the
recorded replay resolves the violating operation (named with its block
address), shows its transaction timeline, and surfaces at least one
causally-related transaction — the acceptance bar for the violation
forensics pipeline.
"""

import glob
import json
import re

import pytest

from repro import cli

CORPUS = sorted(glob.glob("tests/corpus/*.json"))


def test_corpus_is_present():
    assert len(CORPUS) >= 3


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.rsplit("/", 1)[-1])
def test_explain_names_op_block_and_related(path, capsys):
    assert cli.main(["explain", path]) == 0
    out = capsys.readouterr().out

    # The violating operation, by class and sequence number.
    op = re.search(
        r"violating op : (load|store|atomic|membar|stbar)\S* seq \d+", out
    )
    assert op is not None, out
    # Its block address, in hex.
    assert re.search(r"block\s+: 0x[0-9a-f]+", out), out
    # At least one causally-related transaction with a reason tag.
    related = re.findall(
        r"\* trace id \d+: .*\((?:same block|program-order neighbour"
        r"|window overlap|oracle edge)", out
    )
    assert related, out
    # The timeline section is present and non-empty.
    assert "transaction timeline" in out


def test_explain_writes_chrome_trace(tmp_path, capsys):
    path = CORPUS[0]
    out_file = tmp_path / "trace.json"
    assert cli.main(["explain", path, "--trace-out", str(out_file)]) == 0
    trace = json.loads(out_file.read_text())
    assert trace["traceEvents"]
