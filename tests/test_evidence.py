"""The committed benchmark evidence files parse and carry their required fields.

Every performance claim rests on a ``BENCH_*.json`` at the repository root:
what was measured, on which host, with which command, the paired runs, the
end-to-end metrics and the claim they support.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = ("what", "host", "command", "pairs", "end_to_end", "claim")
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_evidence_file_parses_with_its_required_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
