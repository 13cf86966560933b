"""`reduce` output on fixed fixtures against the digests in
tests/reduce_digests.json (tools/reduce_digest.py)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reduce_digest.py"
spec = importlib.util.spec_from_file_location("reduce_digest", TOOL)
reduce_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reduce_digest)

GOLDEN = Path(__file__).with_name("reduce_digests.json")


def test_reduce_output_matches_the_golden_digests():
    # the .rel text, step log, stats and every report field of each fixture
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {name: reduce_digest.digest(rels) for name, rels in reduce_digest.fixtures().items()}
    assert got == want


def test_reduce_without_records_agrees_on_every_fixture():
    # the same relation, reports and stats, with tested_pairs and both
    # histories empty
    assert all(reduce_digest.records_off_agrees(rels)
               for rels in reduce_digest.fixtures().values())


def test_check_exits_1_and_names_a_changed_digest(tmp_path, monkeypatch, capsys):
    name = "simplex-boundary-8"
    rels = reduce_digest.fixtures()[name]
    monkeypatch.setattr(reduce_digest, "fixtures", lambda: {name: rels})
    path = tmp_path / "digests.json"
    right = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    for digest, status in ((right, 0), ("0" * 64, 1)):
        path.write_text(json.dumps({name: digest}), encoding="utf-8")
        assert reduce_digest.main(["--check", str(path)]) == status
    assert capsys.readouterr().err == f"mismatch: {name}\n"


def test_check_exits_1_when_reducing_without_records_differs(tmp_path, monkeypatch, capsys):
    name = "simplex-boundary-8"
    rels = reduce_digest.fixtures()[name]
    monkeypatch.setattr(reduce_digest, "fixtures", lambda: {name: rels})
    real = reduce_digest.reduce

    def miscounting(r, **kwargs):
        out, stats, reports = real(r, **kwargs)
        stats.contractibility_tests += kwargs.get("records") is False
        return out, stats, reports

    monkeypatch.setattr(reduce_digest, "reduce", miscounting)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({name: json.loads(GOLDEN.read_text(encoding="utf-8"))[name]}),
                    encoding="utf-8")
    assert reduce_digest.main(["--check", str(path)]) == 1
    assert capsys.readouterr().err == f"records=False differs: {name}\n"
