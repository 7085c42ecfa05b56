"""Shape of the committed benchmark records (``BENCH_*.json`` at the repository root).

Each record holds the parent/change pairs behind one performance claim: for
every pair the workload, the seed, and each side's ``hsbench/run.py`` JSON
result line and environment block; and the parent's and the change's
revisions. The bench itself is not run here.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
ENVIRONMENT = {"cores", "python", "numpy", "blas", "blas_threads", "git_revision"}
SHA = re.compile(r"[0-9a-f]{40}")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_pairs_environment_and_revisions(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    revisions = record["revisions"]
    assert SHA.fullmatch(revisions["parent"]["commit"])
    for side in SIDES:
        assert SHA.fullmatch(revisions[side]["src_tree"])
        assert isinstance(revisions[side]["commit"], str)
    claim = record["claim"]
    assert {"workload", "metric", "better", "met"} <= claim.keys()
    assert record["pairs"]
    for pair in record["pairs"]:
        assert isinstance(pair["workload"], str)
        assert isinstance(pair["seed"], int)
        assert pair["first"] in SIDES
        for side in SIDES:
            run = pair[side]
            assert ENVIRONMENT <= run["environment"].keys()
            result = run["result"]
            assert isinstance(result["correct"], bool)
            assert 0 <= result["failed"] <= result["attempted"]
            assert result["metrics"]
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))
                assert isinstance(metric["unit"], str)
    claimed = [p for p in record["pairs"] if p["workload"] == claim["workload"]]
    assert claimed and all(claim["metric"] in p[s]["result"]["metrics"] for p in claimed for s in SIDES)
