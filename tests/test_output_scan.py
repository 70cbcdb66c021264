"""The output scan script (`tests/output_scan.py`): its JSON lines and its
ring list. The whole scan is not run here; these checks keep the script
importable and its line shape as documented."""

import json

import output_scan
from corpus import LEADERS


def _line(argv):
    line = json.loads(output_scan.record(argv))
    assert list(line) == ["argv", "code", "stderr", "stdout"]
    assert line["argv"] == argv
    return line


def test_a_report_line_drops_the_wall_time():
    line = _line(["report", "Z4", "--json"])
    assert line["code"] == 0 and line["stderr"] == ""
    doc = json.loads(line["stdout"])
    assert "wall_time_seconds" not in doc
    assert doc["ring"] == "Z4" and doc["carrier_size"] == 4
    assert line["stdout"] == json.dumps(doc, sort_keys=True,
                                        ensure_ascii=False) + "\n"


def test_a_refused_line_is_the_exit_code_and_the_error():
    line = _line(["report", "Q5", "--json"])
    assert line["code"] == 1 and line["stdout"] == ""
    assert line["stderr"].startswith("error: ")


def test_a_batch_line_keeps_a_short_stdout_and_digests_a_long_one(monkeypatch):
    line = _line(["batch", "--zn", "2..10"])
    assert line["code"] == 0 and line["stderr"] == ""
    rows = line["stdout"].splitlines()
    assert rows[0].startswith("n,") and [r.split(",")[0] for r in rows[1:]] == [
        str(n) for n in range(2, 11)]
    monkeypatch.setattr(output_scan, "SHORT", 16)
    digest = _line(["batch", "--zn", "2..10"])["stdout"]
    assert list(digest) == ["bytes", "sha256"]
    assert digest["bytes"] == len(line["stdout"].encode())
    assert len(digest["sha256"]) == 64


def test_the_ring_list_has_no_duplicates():
    assert len(set(output_scan.RINGS)) == len(output_scan.RINGS)


def test_the_ring_list_holds_every_leader():
    assert set(LEADERS) <= set(output_scan.RINGS)
