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
