"""The golden report corpus: every command in ``golden/commands.json``
prints, byte for byte, the exit status, stderr and stdout stored in
``golden/<name>.txt``.  ``python tests/golden/update.py`` rewrites it."""

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
