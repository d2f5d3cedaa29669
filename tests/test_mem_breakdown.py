"""``tools/mem_breakdown.py`` runs a benchmark workload's set-up and one
round and reports where the memory goes."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_serve_lost_breakdown_has_rss_stages_and_src_lines():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_breakdown.py"), "--workload", "serve-lost", "--seed", "5",
         "--top", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "serve-lost, seed 5"
    number = r"\d+\.\d\d"
    for line, stage in zip(lines[1:4], ("generation", "set-up", "round")):
        assert re.fullmatch(rf"rss after {stage} +current +{number} MiB +peak +{number} MiB", line), line
    total = re.fullmatch(rf"tracemalloc retained ({number}) MiB, of which src/ ({number}) MiB", lines[4])
    assert total and 0 < float(total[2]) <= float(total[1]), lines[4]
    top = lines[5:]
    assert len(top) == 4
    for line in top:
        assert re.fullmatch(r" *\d+\.\d KiB +\d+ blocks  src/archive_recommender/\w+\.py:\d+  .+", line), line
