"""``tools/scale_probe.py`` replicates a serving workload's index K times
and prints one row of sizes and per-request costs for each K."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_copies_double_the_index_and_time_every_stage():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale_probe.py"), "--workload", "serve-lost", "--seed", "5",
         "--copies", "1,2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "serve-lost, seed 5"
    assert lines[1].split() == [
        "copies", "entries", "categories", "per_subtree", "setup_s", "request_us",
        "l1_us", "refine_us", "gather_us", "rank_us", "entries_under_us",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["1", "2"]
    one, two = rows
    # every entry and every category again, one level deeper
    for column in (1, 2):
        assert int(two[column]) == 2 * int(one[column]) > 0
    assert int(two[3].split("-")[0]) == 2 * int(one[3].split("-")[0])
    for row in rows:
        assert all(float(cell) > 0 for cell in row[4:]), row
