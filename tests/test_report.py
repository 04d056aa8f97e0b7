"""Report records, ordering and serialization."""

import json

import pytest

from splitg2.report import SCHEMA_VERSION, Record, Report


def sample():
    rep = Report("verify-paper", "Ms", seed=7)
    rep.note("warm")
    rep.add("b.check", "later anchor", True, "1", "1")
    rep.add("a.check", "dimension", False, "3", "4")
    rep.add("a.check", "claim", None, "growth (2,3)")
    return rep


def test_statuses():
    rep = sample()
    assert [r.status for r in rep.records] == ["pass", "fail", "info"]
    assert not rep.passed()
    assert rep.counts() == {"pass": 1, "fail": 1, "info": 1}


def test_bad_status_rejected():
    with pytest.raises(ValueError):
        Record("a", "b", "maybe", "", "")


def test_info_does_not_fail():
    rep = Report("verify-paper", "Ms")
    rep.add("x", "claim", None, "whatever")
    assert rep.passed()


def test_text_rendering_sorted_and_stable():
    rep = sample()
    text = rep.to_text()
    assert text == rep.to_text()
    # anchor sort puts a.check records first, name-sorted within anchor
    body = text.splitlines()
    anchors = [ln for ln in body if ln.startswith("[")]
    assert anchors == [
        "[info] a.check :: claim",
        "[fail] a.check :: dimension",
        "[pass] b.check :: later anchor",
    ]
    assert body[0] == "splitg2 verify-paper"
    assert f"schema-version: {SCHEMA_VERSION}" in body
    assert "seed: 7" in body
    assert "note: warm" in body
    assert body[-1] == "result: fail (3 checks: 1 pass, 1 fail, 1 info)"


def test_expected_line_omitted_when_empty():
    rep = Report("verify-paper", "Ms")
    rep.add("x", "solo", True, "42")
    assert "expected:" not in rep.to_text()


def test_json_document():
    rep = sample()
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "verify-paper"
    assert doc["scenario"] == "Ms"
    assert doc["seed"] == 7
    assert doc["result"] == "fail"
    assert [r["anchor"] for r in doc["records"]] == ["a.check", "a.check", "b.check"]
    assert doc["counts"] == {"pass": 1, "fail": 1, "info": 1}


def test_json_payload_merged():
    rep = Report("torsion", "Ms")
    rep.add("x", "ok", True, "0")
    rep.payload["torsion"] = {"vol_scale": "1", "tau0": "-18/7"}
    doc = json.loads(rep.to_json())
    assert doc["torsion"]["tau0"] == "-18/7"
    # text output ignores the payload
    assert "tau0" not in rep.to_text()


def test_render_dispatch():
    rep = sample()
    assert rep.render("json") == rep.to_json()
    assert rep.render("text") == rep.to_text()
