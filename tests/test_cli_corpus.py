"""Every call of the checked-in CLI corpus gives the recorded exit code,
stdout and stderr (see `record_cli_corpus.py`)."""
import json

from record_cli_corpus import CORPUS, run_case


def test_cli_corpus_replays_byte_for_byte(tmp_path):
    recorded = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(recorded) >= 500
    changed = [(want["argv"], got) for want in recorded if (got := run_case(want, str(tmp_path))) != want]
    assert not changed, f"{len(changed)} of {len(recorded)} calls changed; first: {changed[0]}"
