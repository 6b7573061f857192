"""``byte_identity.py`` itself: two copies of ``src`` agree, and a changed byte is named."""

import shutil

import byte_identity
from golden_digests import SRC, load_argv

# a closure written to op00.json and an analytic spectrum written to op02.csv, both stdlib-only
OPS = [op for op in load_argv() if op["name"] in ("cli-mix-1-op00-closure",
                                                  "cli-mix-1-op02-spectrum")]


def test_byte_identity_names_the_first_differing_line(tmp_path, capsys):
    parent, change = (shutil.copytree(SRC, tmp_path / side, ignore=shutil.ignore_patterns(
        "__pycache__")) for side in ("parent", "change"))
    assert len(OPS) == 2
    assert byte_identity.main(parent, change, OPS) == 0
    assert capsys.readouterr().out == "0 of 2 argv differ\n"
    cli = change / "screened_sphere" / "cli.py"
    text = cli.read_text()
    assert text.count('return f"{obj:.17g}"') == 1  # _json's float
    cli.write_text(text.replace('return f"{obj:.17g}"', 'return f"{obj:.16g}"'))
    assert byte_identity.main(parent, change, OPS) == 1
    assert capsys.readouterr().out == (
        "cli-mix-1-op00-closure: op00.json: first differing line 2 of 7 (golden 7): "
        "b'  \"alpha\": 0.8333333333333334,\\n'\n1 of 2 argv differ\n")


def test_a_setting_reaches_only_the_change_runs(tmp_path, capsys):
    # one tree named twice; the change's interpreter finds no standard library under PYTHONHOME
    assert byte_identity.main(SRC, SRC, OPS[:1], PYTHONHOME=str(tmp_path)) == 1
    assert capsys.readouterr().out == (
        "cli-mix-1-op00-closure: exit status 1, golden 0\n1 of 1 argv differ\n")
    assert byte_identity.main(SRC, SRC, OPS[:1]) == 0
