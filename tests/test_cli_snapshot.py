"""Smoke test of tools/cli_snapshot.py, the byte-level CLI snapshot."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", ROOT / "tools" / "cli_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_records_stdout_exit_code_and_out_tree(tmp_path):
    tool = load_tool()
    tool.snapshot(tmp_path, ["algebra-verify", "wedges-adjacent"])
    for name, payload in [("algebra-verify", "algebra_verify.json"),
                          ("wedges-adjacent", "wedges.json")]:
        assert (tmp_path / name / "exit_code").read_text() == "0\n"
        # the payload is the last thing printed and the JSON file under --out
        text = (tmp_path / name / "out" / payload).read_text()
        assert (tmp_path / name / "stdout").read_text().endswith(text)
        assert json.loads(text)["command"] == tool.COMMANDS[name][0]
    assert {p.name for p in (tmp_path / "wedges-adjacent" / "out").iterdir()} \
        == {"wedges.json", "contour.csv", "wedges.svg"}
