"""The golden report corpus: every command in ``golden/commands.json``
prints, byte for byte, the exit status, stderr and stdout stored in
``golden/<name>.txt``.  ``python tests/golden/update.py`` rewrites it."""

import json

import pytest

from golden import update

CASES = update.load_commands()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_bytes(case, tmp_path):
    want = (update.HERE / f"{case['name']}.txt").read_bytes()
    assert update.run(case, tmp_path).encode("utf-8") == want


def test_one_golden_file_per_command():
    names = [case["name"] for case in CASES]
    assert len(set(names)) == len(names)
    assert sorted(path.stem for path in update.HERE.glob("*.txt")) \
        == sorted(names)


def test_update_writes_nothing_when_a_command_raises(tmp_path, monkeypatch):
    """A command that raises aborts the rewrite before any file changes:
    the stale file stays and the first command's file keeps its bytes."""
    cases = [{"name": "first", "argv": ["--version"]},
             {"name": "second", "argv": ["--version"]}]
    (tmp_path / "commands.json").write_text(json.dumps(cases))
    (tmp_path / "first.txt").write_text("old")
    (tmp_path / "stale.txt").write_text("stale")

    def run(case, workdir):
        if case["name"] == "second":
            raise ValueError("boom")
        return "new"

    monkeypatch.setattr(update, "HERE", tmp_path)
    monkeypatch.setattr(update, "run", run)
    with pytest.raises(ValueError):
        update.main()
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == ["first.txt",
                                                            "stale.txt"]
    assert (tmp_path / "first.txt").read_text() == "old"
