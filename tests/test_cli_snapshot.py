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


def test_compare_tabulates_float_changes_and_lists_the_rest(tmp_path, capsys):
    tool = load_tool()
    a, b = tool.snapshot(tmp_path / "a", ["wedges-adjacent"]), \
        tool.snapshot(tmp_path / "b", ["wedges-adjacent"])
    assert tool.compare(a, b) == ({}, [])
    assert tool._print_comparison(a, b) == 0
    for root, (re0, res0, method, code) in [
            (a, (1.5, 1e-12, "eig_banded/4+rqi", 0)),
            (b, (1.25, float("nan"), "eig_banded/16+rqi", 2))]:
        run = root / "spectrum-x"
        (run / "out").mkdir(parents=True)
        levels = [{"re": re0, "im": 0.0}, {"re": 2.0, "im": 0.0}]
        (run / "out" / "spectrum.json").write_text(json.dumps(
            {"command": "spectrum", "eigenvalues": levels, "method": method}))
        (run / "out" / "spectrum.csv").write_text(
            f"level,re,residual\n0,{re0},{res0}\n")
        (run / "exit_code").write_text(f"{code}\n")
    (b / "extra").write_text("")
    table, other = tool.compare(a, b)
    assert table == {"spectrum:.eigenvalues[].re": 0.25,
                     "spectrum:.eigenvalues[].im": 0.0,
                     "spectrum.csv:[].re": 0.25}
    assert other == [
        f"extra: only in {b}",
        "spectrum-x/exit_code: 0 -> 2",
        "spectrum-x/out/spectrum.csv [0].residual: 1e-12 -> nan",
        "spectrum-x/out/spectrum.json .method: 'eig_banded/4+rqi' -> "
        "'eig_banded/16+rqi'"]
    assert tool._print_comparison(a, b) == 1
    printed = capsys.readouterr().out
    assert "spectrum:.eigenvalues[].re" in printed and "0 -> 2" in printed


def test_every_command_matches_the_committed_manifest(tmp_path):
    """Every file the CLI prints or writes is byte-identical to the one
    recorded in tests/cli_snapshot_manifest.json."""
    tool = load_tool()
    expected = json.loads((ROOT / "tests" / "cli_snapshot_manifest.json")
                          .read_text())
    got = tool.digests(tool.snapshot(tmp_path))
    differ = sorted(name for name in got.keys() | expected["files"].keys()
                    if got.get(name) != expected["files"].get(name))
    if differ:
        versions = tool.versions()
        changed = {k: f"{expected['versions'].get(k)} -> {v}"
                   for k, v in versions.items()
                   if expected["versions"].get(k) != v}
        raise AssertionError(
            f"{len(differ)} snapshot files differ from the manifest: "
            + ", ".join(differ)
            + (f"; the versions differ from the manifest's: {changed}"
               if changed else "; the versions are the manifest's"))
