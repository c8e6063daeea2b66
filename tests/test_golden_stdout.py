import json
from pathlib import Path

from golden_stdout import commands, run

TABLE = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())


def test_golden_table_lists_every_command():
    # the table holds the generator's commands, so a new one is not skipped
    assert [[row["name"], row["argv"]] for row in TABLE] == [[n, a] for n, a in commands()]


def test_factor_and_verify_stdout_digests_unchanged():
    # every command's exit code, stdout and stderr as the reference tree gave
    # them
    moved = [row["name"] for row in TABLE
             if run(row["argv"]) != (row["exit"], row["sha256"], row["stderr_sha256"])]
    assert not moved, f"stdout, stderr or exit code moved: {moved}"
