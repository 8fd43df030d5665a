import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from ptcontour.catalog import TAGS
from ptcontour.cli import main, parse_complex, parse_contour
from ptcontour.errors import NotConverged, ParseError, PushforwardMismatch
from ptcontour.opalg import OperatorExpr
from ptcontour.rational import GaussianRational as Q


# --- literal parsing ------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("-2i", Q(0, -2)),
    ("i", Q(0, 1)),
    ("-i", Q(0, -1)),
    ("+i", Q(0, 1)),
    ("3", Q(3)),
    ("-3", Q(-3)),
    ("0.25", Q(Fraction(1, 4))),
    (".5", Q(Fraction(1, 2))),
    ("1/3", Q(Fraction(1, 3))),
    ("1/3+2/5i", Q(Fraction(1, 3), Fraction(2, 5))),
    ("1-i", Q(1, -1)),
    ("2/5i", Q(0, Fraction(2, 5))),
    ("0.5-0.25i", Q(Fraction(1, 2), Fraction(-1, 4))),
    ("  -2i ", Q(0, -2)),
])
def test_parse_complex_round_trips(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "++i", "1//2", "2i+1",
                                 "1.2.3", "1/0"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ParseError):
        parse_complex(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_complex("12x")
    assert err.value.position == 2


def test_parse_contour():
    params = parse_contour("-2i,1,1")
    assert (params.a, params.b, params.c) == (Q(0, -2), Q(1), Q(1))
    with pytest.raises(ParseError):
        parse_contour("1,1")


# --- subcommands (in-process) ------------------------------------------------------

def run_cli(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_algebra_verify(tmp_path, capsys):
    assert run_cli(tmp_path, "algebra-verify") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL  " not in out
    payload = read_json(tmp_path, "algebra_verify.json")
    assert payload["all_passed"] is True
    assert len(payload["checks"]) >= 17


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target,patch,failing", [
    ("canonical_swap",      # the parity image p^2 + 4x^4 + 2x, not the anchor
     lambda h, params: OperatorExpr({(0, 2): 1, (4, 0): 4, (1, 0): 2}),
     "anchor-reduction"),
    ("canonical_swap", _raise(ValueError("neither anchor form")),
     "anchor-reduction"),
    ("push_metric", _raise(PushforwardMismatch("transported != direct")),
     "metric-pushforward-identities"),
], ids=["parity-flipped", "swap-raises", "pushforward-mismatch"])
def test_algebra_verify_records_failures(tmp_path, capsys, monkeypatch,
                                         target, patch, failing):
    import ptcontour.cli as cli
    monkeypatch.setattr(cli, target, patch)
    assert run_cli(tmp_path, "algebra-verify") != 0
    assert f"FAIL  {failing}" in capsys.readouterr().out
    payload = read_json(tmp_path, "algebra_verify.json")
    assert payload["all_passed"] is False
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failed and all(name.startswith(failing) for name in failed)


def test_spectrum_b_independence(tmp_path, capsys):
    code = main(["spectrum", "--a", "-2i", "--b", "5", "--c", "1",
                 "--levels", "3", "--grid-n", "801",
                 "--out", str(tmp_path / "b5")])
    assert code == 0
    code = main(["spectrum", "--a", "-2i", "--b", "1", "--c", "1",
                 "--levels", "3", "--grid-n", "801",
                 "--out", str(tmp_path / "b1")])
    assert code == 0
    ev5 = read_json(tmp_path, "b5/spectrum.json")["eigenvalues"]
    ev1 = read_json(tmp_path, "b1/spectrum.json")["eigenvalues"]
    for a, b in zip(ev5, ev1):
        assert abs(a["re"] - b["re"]) < 1e-7


def assert_deterministic(tmp_path, argv):
    """Run one subcommand twice; every file it writes must be byte-identical."""
    runs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main([*argv, "--out", str(out)]) == 0
        runs.append({p.relative_to(out): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()})
    assert runs[0] and runs[0] == runs[1]


def test_spectrum_determinism(tmp_path):
    assert_deterministic(tmp_path, ["spectrum", "--a", "i", "--b", "1",
                                    "--c", "1", "--levels", "2",
                                    "--grid-n", "401"])


@pytest.mark.parametrize("argv", [
    ["algebra-verify"],
    ["iso-check", "--src", "1,1,1", "--dst", "-2i,1,1", "-k", "2",
     "--grid-n", "401"],
    ["wedges", "--a", "1", "--b", "1", "--c", "1"],
    ["wkb", "--tag", "adjacent", "--n", "101"],
    ["hermite-demo", "--n-max", "3"],
    ["sweep", "--levels", "2", "--grid-n", "401"],
], ids=lambda argv: argv[0])
def test_subcommand_determinism(tmp_path, argv):
    if argv[0] == "sweep":
        cfg = tmp_path / "contours.ini"
        cfg.write_text("[reference]\na = -2i\nb = 1\nc = 1\n\n"
                       "[upper]\na = i\nb = 1\nc = 1\n")
        argv = [*argv, "--config", str(cfg)]
    assert_deterministic(tmp_path, argv)


def test_iso_check(tmp_path, capsys):
    code = main(["iso-check", "--src", "1,1,1", "--dst", "-2i,1,1",
                 "--grid-n", "801", "--out", str(tmp_path)])
    assert code == 0
    payload = read_json(tmp_path, "iso_check.json")
    assert payload["beta"] == "-4"
    assert payload["gamma"] == "5/4"
    assert payload["max_deviation"] < 1e-6
    assert payload["passed"] is True
    assert (tmp_path / "amplitudes_src.csv").exists()
    assert (tmp_path / "amplitudes_dst.csv").exists()


def test_wedges(tmp_path):
    assert run_cli(tmp_path, "wedges", "--a", "1", "--b", "1", "--c", "1") == 0
    payload = read_json(tmp_path, "wedges.json")
    assert payload["adjacent"] is True
    assert payload["pt_symmetric"] is False
    assert (tmp_path / "wedges.svg").exists()
    assert (tmp_path / "contour.csv").read_text().splitlines()[0] \
        == "x,re_z,im_z"


def test_wkb_outputs(tmp_path):
    assert run_cli(tmp_path, "wkb", "--tag", "adjacent", "--n", "101") == 0
    csv_lines = (tmp_path / "wkb_adjacent.csv").read_text().splitlines()
    assert csv_lines[0] == "p,log_wkb,log_weighted,in_domain"
    assert len(csv_lines) == 102
    svg = (tmp_path / "wkb_adjacent.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg


def test_hermite_demo(tmp_path):
    assert run_cli(tmp_path, "hermite-demo", "--n-max", "4") == 0
    payload = read_json(tmp_path, "hermite.json")
    assert payload["max_relative_deviation"] < 1e-8
    assert (tmp_path / "hermite_T.csv").exists()
    assert (tmp_path / "hermite_samples.csv").exists()
    assert (tmp_path / "hermite.svg").exists()


def test_sweep(tmp_path):
    cfg = tmp_path / "contours.ini"
    cfg.write_text("""
[reference]
a = -2i
b = 1
c = 1

[upper]
a = i
b = 1
c = 1
""")
    code = main(["sweep", "--config", str(cfg), "--levels", "2",
                 "--grid-n", "401", "--out", str(tmp_path / "runs")])
    assert code == 0
    summary = read_json(tmp_path, "runs/summary.json")
    assert set(summary["sections"]) == {"reference", "upper"}
    assert (tmp_path / "runs/spectrum_reference.json").exists()


def _schema(obj):
    """Key names at every level of a payload; a list by its first item."""
    if isinstance(obj, dict):
        return {k: _schema(v) for k, v in obj.items()}
    if isinstance(obj, list) and obj:
        return [_schema(obj[0])]
    return None


_PARAMS = {"a": None, "b": None, "c": None}
_COMPLEX = {"re": None, "im": None}
_SPECTRUM_SCHEMA = {
    "command": None, "eigenvalues": [_COMPLEX], "residuals": [None],
    "method": None, "grid": {"variable": None, "lo": None, "hi": None,
                             "n": None},
    "params": _PARAMS, "reference": [None], "max_relative_deviation": None}
_ERROR_SCHEMA = {"error": {"kind": None, "type": None, "message": None}}
_SWEEP_INI = "[reference]\na = -2i\nb = 1\nc = 1\n"


@pytest.mark.parametrize("argv,name,schema", [
    (["algebra-verify"], "algebra_verify.json",
     {"command": None, "all_passed": None,
      "checks": [{"name": None, "passed": None, "detail": None}]}),
    (["spectrum", "--a", "-2i", "--b", "1", "--c", "1", "--levels", "2",
      "--grid-n", "401"], "spectrum.json", _SPECTRUM_SCHEMA),
    (["iso-check", "--src", "1,1,1", "--dst", "-2i,1,1", "-k", "2",
      "--grid-n", "401"], "iso_check.json",
     {"command": None, "src": _PARAMS, "dst": _PARAMS, "beta": None,
      "gamma": None, "k": None, "max_deviation": None,
      "identity_deviation": None, "passed": None,
      "amplitude_tables": {"src": [[_COMPLEX]], "dst": [[_COMPLEX]]}}),
    (["wedges", "--a", "1", "--b", "1", "--c", "1"], "wedges.json",
     {"command": None, "theta_plus": None, "theta_minus": None,
      "wedge_plus": None, "wedge_minus": None, "decay_family_plus": None,
      "decay_family_minus": None, "adjacent": None, "pt_symmetric": None,
      "params": {**_PARAMS, "branch": None}}),
    (["wkb", "--tag", "adjacent", "--n", "11"], "wkb_adjacent.json",
     {"command": None, "tag": None, "p_min": None, "p_max": None, "n": None,
      "log_magnitude_at_ends": [None], "weighted_at_ends": [None]}),
    (["hermite-demo", "--n-max", "2"], "hermite.json",
     {"command": None, "n_max": None, "table": [[None]],
      "max_relative_deviation": None}),
    (["sweep", "--levels", "2", "--grid-n", "401"], "summary.json",
     {"command": None, "sections": {"reference": {
         "eigenvalues": [_COMPLEX], "max_relative_deviation": None}}}),
    (["spectrum", "--a", "nope", "--b", "1", "--c", "1"], None,
     _ERROR_SCHEMA),
], ids=["algebra-verify", "spectrum", "iso-check", "wedges", "wkb",
        "hermite-demo", "sweep", "error"])
def test_output_schema(tmp_path, capsys, argv, name, schema):
    if argv[0] == "sweep":
        (tmp_path / "sweep.ini").write_text(_SWEEP_INI)
        argv = [*argv, "--config", str(tmp_path / "sweep.ini")]
    main([*argv, "--out", str(tmp_path / "out")])
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])   # after PASS lines
    assert _schema(payload) == schema
    if name is not None:
        assert read_json(tmp_path, f"out/{name}") == payload
    if argv[0] == "sweep":
        assert _schema(read_json(tmp_path, "out/spectrum_reference.json")) \
            == _SPECTRUM_SCHEMA


def test_outputs_stay_inside_out_dir(tmp_path):
    out = tmp_path / "inner"
    main(["wedges", "--a", "-2i", "--b", "1", "--c", "1", "--out", str(out)])
    produced = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*")}
    assert produced == {"inner"}


_FORMAT_ARGV = {
    "algebra-verify": ["algebra-verify"],
    "spectrum": ["spectrum", "--a", "-2i", "--b", "1", "--c", "1",
                 "--levels", "2", "--grid-n", "401"],
    "iso-check": ["iso-check", "--src", "1,1,1", "--dst", "-2i,1,1", "-k", "2",
                  "--grid-n", "401"],
    "wedges": ["wedges", "--a", "1", "--b", "1", "--c", "1"],
    "wkb": ["wkb", "--tag", "adjacent", "--n", "11"],
    "hermite-demo": ["hermite-demo", "--n-max", "2"],
    "sweep": ["sweep", "--levels", "2", "--grid-n", "401"],
}
_FORMAT_FILES = {
    "algebra-verify": {"json": {"algebra_verify.json"}},
    "spectrum": {"json": {"spectrum.json"}, "csv": {"spectrum.csv"}},
    "iso-check": {"json": {"iso_check.json"},
                  "csv": {"amplitudes_src.csv", "amplitudes_dst.csv"}},
    "wedges": {"json": {"wedges.json"}, "csv": {"contour.csv"},
               "svg": {"wedges.svg"}},
    "wkb": {"json": {"wkb_adjacent.json"}, "csv": {"wkb_adjacent.csv"},
            "svg": {"wkb_adjacent.svg"}},
    "hermite-demo": {"json": {"hermite.json"},
                     "csv": {"hermite_T.csv", "hermite_samples.csv"},
                     "svg": {"hermite.svg"}},
    "sweep": {"json": {"spectrum_s0.json", "spectrum_s1.json",
                       "summary.json"}},
}


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
@pytest.mark.parametrize("command", list(_FORMAT_ARGV))
def test_formats_select_the_files_written(tmp_path, command, fmt):
    # --out is made even when the format gives the command no file
    argv = _FORMAT_ARGV[command]
    if command == "sweep":
        (tmp_path / "sweep.ini").write_text(
            _SWEEP_OK + "[s1]\na = i\nb = 1\nc = 1\n")
        argv = [*argv, "--config", str(tmp_path / "sweep.ini")]
    out = tmp_path / "out"
    assert main([*argv, "--formats", fmt, "--out", str(out)]) == 0
    assert out.is_dir()
    assert {p.name for p in out.iterdir()} \
        == _FORMAT_FILES[command].get(fmt, set())


def test_json_only_run_does_not_import_svgfig(tmp_path):
    code = ("import sys; from ptcontour.cli import main; "
            "main(['wedges', '--a', '1', '--b', '1', '--c', '1', "
            f"'--formats', 'json,csv', '--out', {str(tmp_path)!r}]); "
            "print('ptcontour.svgfig' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("False\n")


# --- exit codes -----------------------------------------------------------------------

def test_exit_code_parse_error(tmp_path, capsys):
    code = main(["spectrum", "--a", "nope", "--b", "1", "--c", "1",
                 "--out", str(tmp_path)])
    assert code == 4
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "parse"


_A2C = ("NotHermitizable", "a^2 c = i is not real for (1,1,i)")
_B_OVER_C = ("NonHermitianRho", "b/c = i is not real for (-2i,i,1)")


@pytest.mark.parametrize("argv,error", [
    pytest.param(["spectrum", "--a", "1", "--b", "1", "--c", "i"], _A2C,
                 id="spectrum-a2c"),
    pytest.param(["spectrum", "--a", "-2i", "--b", "i", "--c", "1"],
                 _B_OVER_C, id="spectrum-b-over-c"),
    pytest.param(["iso-check", "--src", "-2i,1,1", "--dst", "1,1,i"], _A2C,
                 id="iso-check-a2c"),
    pytest.param(["iso-check", "--src", "-2i,1,1", "--dst", "-2i,i,1"],
                 _B_OVER_C, id="iso-check-b-over-c"),
])
def test_exit_code_validation_error(tmp_path, capsys, argv, error):
    # a complex a^2 c has no Hermitian equivalent; a complex b/c no Hermitian
    # similarity transformation
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["kind"], err["type"], err["message"]) == ("validation", *error)


_SPECTRUM = ["spectrum", "--a", "-2i", "--b", "1", "--c", "1", "--levels"]
_ISO_CHECK = ["iso-check", "--src", "1,1,1", "--dst", "-2i,1,1", "-k"]
_TOO_FEW = "the level count must be at least 1, got 0"
_TOO_MANY = "at most 12 eigenpairs are retained"


@pytest.mark.parametrize("argv,message", [
    pytest.param([*_SPECTRUM, "0"], _TOO_FEW, id="spectrum"),
    pytest.param([*_ISO_CHECK, "0"], _TOO_FEW, id="iso-check"),
    pytest.param([*_SPECTRUM, "13"], _TOO_MANY, id="spectrum-13"),
    pytest.param([*_ISO_CHECK, "13"], _TOO_MANY, id="iso-check-13"),
])
def test_exit_code_zero_levels(tmp_path, capsys, argv, message):
    # one level rule for both commands: 1 <= k <= 12
    assert main([*argv, "--grid-n", "401", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == message


@pytest.mark.parametrize("formats", ["jsn", "json,png"])
def test_unknown_format_rejected_before_any_work(tmp_path, capsys,
                                                  monkeypatch, formats):
    import ptcontour.cli as cli
    monkeypatch.setattr(cli, "_spectrum_payload", _raise(AssertionError))
    out = tmp_path / "out"
    code = main(["spectrum", "--a", "-2i", "--b", "1", "--c", "1",
                 "--formats", formats, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "validation"
    assert repr(formats.split(",")[-1]) in err["message"]
    assert not out.exists()


_SWEEP_OK = "[s0]\na = -2i\nb = 1\nc = 1\n\n"


@pytest.mark.parametrize("text,code,message", [
    pytest.param("a = 1\n", 4, "MissingSectionHeaderError: {cfg!r} line 1",
                 id="no-section-header"),
    pytest.param("[x]\na = 1\n\n[x]\n", 4,
                 "DuplicateSectionError: {cfg!r} line 4",
                 id="duplicate-section"),
    pytest.param("[a/b]\na = -2i\nb = 1\nc = 1\n", 2,
                 "section name [a/b] contains a path separator",
                 id="slash-in-section"),
    pytest.param("[a\\b]\na = -2i\nb = 1\nc = 1\n", 2,
                 "section name [a\\b] contains a path separator",
                 id="backslash-in-section"),
    # a valid first section: the later one fails before either is solved
    pytest.param(_SWEEP_OK + "[s1]\na = -2i\nb = 1\nc = 1\ngrid_n = 10\n",
                 2, "grid needs at least 16 points", id="grid-n-10"),
    pytest.param(_SWEEP_OK + "[s1]\na = -2i\nb = 1\nc = 1\nlevels = 0\n",
                 2, "the level count must be at least 1, got 0",
                 id="levels-0"),
    pytest.param(_SWEEP_OK + "[s1]\na = -2i\nb = 1\nc = 1\nlevels = 13\n",
                 2, "at most 12 eigenpairs are retained", id="levels-13"),
])
def test_sweep_bad_config_rejected_before_any_work(tmp_path, capsys,
                                                    monkeypatch, text, code,
                                                    message):
    import ptcontour.cli as cli
    monkeypatch.setattr(cli, "_spectrum_payload", _raise(AssertionError))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == {2: "validation", 4: "parse"}[code]
    assert err["message"] == message.format(cfg=str(cfg))
    assert not out.exists()


_GOOD = "[good]\na = -2i\nb = 1\nc = 1\n\n"


@pytest.mark.parametrize("text,second,code,error,solves", [
    # refused while the sections are read: no section is solved
    pytest.param(_GOOD + "[bad]\na = 1+i\nb = 1\nc = 1\n", None, 2,
                 ("validation", "NotHermitizable",
                  "a^2 c = 2i is not real for (1+i,1,1)"), 0,
                 id="not-hermitizable"),
    pytest.param(_GOOD + "[later]\na = i\nb = 1\nc = 1\n",
                 NotConverged("drift too large"), 3,
                 ("numerical", "NotConverged", "drift too large"), 2,
                 id="not-converged"),
])
def test_sweep_rejected_after_a_solve_leaves_no_out(tmp_path, capsys,
                                                    monkeypatch, text, second,
                                                    code, error, solves):
    # a later section fails, at the latest once the first is solved:
    # nothing is written
    import ptcontour.cli as cli
    real, calls = cli._spectrum_payload, []

    def payload(*args):
        calls.append(args)
        if second is not None and len(calls) == 2:
            raise second
        return real(*args)
    monkeypatch.setattr(cli, "_spectrum_payload", payload)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--levels", "2",
                 "--grid-n", "401", "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["kind"], err["type"], err["message"]) == error
    assert len(calls) == solves
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1"])
def test_wkb_too_few_points_rejected(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["wkb", "--tag", "adjacent", "--n", n,
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "validation"
    assert err["message"] == f"--n must be at least 2, got {n}"
    assert not out.exists()


def test_wkb_empty_range_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["wkb", "--tag", "adjacent", "--p-min", "1", "--p-max", "1",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["message"] == "--p-min and --p-max must differ, both are 1.0"
    assert not out.exists()


@pytest.mark.parametrize("p_min,p_max,shown", [
    ("nan", "30", "nan and 30.0"),
    ("-30", "1e400", "-30.0 and inf"),
    ("-1e400", "30", "-inf and 30.0"),
])
def test_wkb_non_finite_range_rejected(tmp_path, capsys, p_min, p_max, shown):
    # refused before np.linspace, which warns on an infinite end
    out = tmp_path / "out"
    assert main(["wkb", "--tag", "adjacent", f"--p-min={p_min}",
                 f"--p-max={p_max}", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["message"]) == (
        "ValidationError", f"--p-min and --p-max must be finite, got {shown}")
    assert not out.exists()


@pytest.mark.parametrize("tag", TAGS)
def test_wkb_overflowing_range_rejected_quietly(tmp_path, capsys, tag):
    # a finite end whose profile overflows is refused, with no numpy warning
    out = tmp_path / "out"
    assert main(["wkb", "--tag", tag, "--p-min=0", "--p-max=1e103",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["type"], err["message"]) == (
        "OutOfDomain", "non-finite intermediate in profile evaluation")
    assert captured.err == ""
    assert not out.exists()


def test_wkb_reversed_range_runs_backwards(tmp_path, capsys):
    # p runs from --p-min to --p-max, so a reversed range reverses the axis;
    # a negative end in exponent form is read as a value, not as a flag
    ranges = (("-5", "5"), ("-1e1", "1e1"))
    ends = {}
    for lo, hi in ranges + tuple((hi, lo) for lo, hi in ranges):
        out = tmp_path / f"{lo}_{hi}"
        assert main(["wkb", "--tag", "adjacent", "--p-min", lo, "--p-max", hi,
                     "--n", "11", "--out", str(out)]) == 0
        ends[lo, hi] = json.loads(capsys.readouterr().out)
        ps = [float(row.split(",")[0]) for row
              in (out / "wkb_adjacent.csv").read_text().splitlines()[1:]]
        assert ps[0] == float(lo) and ps[-1] == float(hi)
        assert (out / "wkb_adjacent.svg").is_file()
    for lo, hi in ranges:
        for key in ("log_magnitude_at_ends", "weighted_at_ends"):
            assert ends[hi, lo][key] == ends[lo, hi][key][::-1]


def test_exit_code_numerical_error(tmp_path, capsys, monkeypatch):
    import ptcontour.cli as cli
    monkeypatch.setattr(cli, "_spectrum_payload",
                        lambda *a, **k: (_ for _ in ()).throw(
                            NotConverged("drift too large")))
    code = main(["spectrum", "--a", "i", "--b", "1", "--c", "1",
                 "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "numerical"


def test_exit_code_residual_gate(tmp_path, capsys, monkeypatch):
    import ptcontour.spectral as spectral
    monkeypatch.setattr(spectral, "_RESIDUAL_BOUND", 1e-30)
    code = main(["spectrum", "--a", "i", "--b", "1", "--c", "1",
                 "--levels", "2", "--grid-n", "401", "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "NotConverged"
    assert "residual" in err["error"]["message"]


class _FailingDriver:
    """A LAPACK driver that runs, then reports ``info`` = 7."""

    def __init__(self, driver):
        self.driver = driver

    def __call__(self, *args, **kwargs):
        return (*self.driver(*args, **kwargs)[:-1], 7)


@pytest.mark.parametrize("driver", ["dsbevx", "dgbsv"])
def test_exit_code_lapack_failure(tmp_path, capsys, monkeypatch, driver):
    # a failed ?sbevx seed solve or ?gbsv Rayleigh step is a typed
    # non-convergence, not a LinAlgError traceback
    from ptcontour import spectral
    real = spectral._lapack

    def lookup(name, dtype):
        full, f = real(name, dtype)
        return full, _FailingDriver(f) if full == driver else f
    monkeypatch.setattr(spectral, "_lapack", lookup)
    out = tmp_path / "out"
    code = main(["spectrum", "--a", "-2i", "--b", "1", "--c", "1",
                 "--grid-n", "401", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["kind"], err["type"], err["message"]) \
        == ("numerical", "NotConverged", f"{driver} failed with info 7")
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    # arg(1+i) = pi/4, so the end at pi/4 - pi/4 lies on the boundary at 0
    pytest.param(["--a", "1+i", "--b", "1", "--c", "1"],
                 ("OnStokesLine",
                  "endpoint angle 0.0 lies on a wedge boundary"),
                 id="stokes-line"),
])
def test_exit_code_wedge_geometry(tmp_path, capsys, argv, error):
    # rejected before any work: no output directory is made
    out = tmp_path / "out"
    assert main(["wedges", *argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["kind"], err["type"], err["message"]) == ("validation", *error)
    assert not out.exists()


def wedges_payload(tmp_path, capsys, b, branch):
    assert main(["wedges", "--a", "1", "--b", b, "--c", "1", "--branch",
                 branch, "--out", str(tmp_path / b)]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["params"]
    return payload


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("b", ["1000000000000000", "100000000000000000"],
                         ids=["b=1e15", "b=1e17"])
def test_wedges_far_real_offset_decides_the_branch(tmp_path, capsys, b,
                                                   branch):
    # |b/c| >= 1e15: the root is real to 1e-14 at every sample of the
    # polyline (x in [-6, 6]) and of the PT-symmetry test (x in [-50, 50]),
    # but Im(b + icx) = x is exact, so each sample but x = 0 decides
    payload = wedges_payload(tmp_path, capsys, b, branch)
    assert payload == wedges_payload(tmp_path, capsys, "1", branch)


@pytest.mark.parametrize("branch", ["principal", "upper"])
def test_wedges_far_offset(tmp_path, capsys, branch):
    # |b/c| = 1e8: the endpoint cross-check samples at |x| = 1e8 |b/c|, where
    # the root is asymptotic and b + icx is never real
    payload = wedges_payload(tmp_path, capsys, "1+100000000i", branch)
    assert payload == wedges_payload(tmp_path, capsys, "1+1000i", branch)


@pytest.mark.parametrize("b", ["1+50i", "1+6i"])
def test_wedges_real_root_at_first_sample(tmp_path, capsys, b):
    # b + icx = 1 at the first sample of the PT-symmetry grid (x = -50) or of
    # the polyline (x = -6); the samples after it decide the branch
    assert wedges_payload(tmp_path, capsys, b, "upper") \
        == wedges_payload(tmp_path, capsys, "1+49.9i", "upper")


_HOSTILE = ("nan", "3/0", "1e400", "", "-")
_LITERALS = ("-2i", "i", "1", "0", "5", "1/3", "1+i")
#: grid and point counts; no solve runs on more than 4001 points
_SIZES = ("-1", "0", "1", "2", "15", "16", "17", "401", "801", "4001")


def _fuzz_argv(rng, tmp_path):
    """One random command line; most are refused before any solve."""
    def lit(valid=_LITERALS, hostile=0.15):
        return rng.choice(_HOSTILE if rng.random() < hostile else valid)

    def levels():
        return str(rng.randint(-1, 13))
    command = rng.choice(["spectrum", "iso-check", "wedges", "wkb", "sweep"])
    if command == "spectrum":
        return [command, "--a", lit(), "--b", lit(), "--c", lit(),
                "--levels", levels(), "--grid-n", rng.choice(_SIZES)]
    if command == "iso-check":
        return [command, "--src", f"{lit()},{lit()},{lit()}",
                "--dst", f"{lit()},{lit()},{lit()}", "-k", levels(),
                "--grid-n", rng.choice(_SIZES)]
    if command == "wedges":
        return [command, "--a", lit(), "--b", lit(), "--c", lit(),
                "--branch", rng.choice(["principal", "upper", "lower"])]
    if command == "wkb":
        return [command, "--tag", rng.choice(["upper_pt", "adjacent"]),
                f"--p-min={lit(('-30', '-1'), 0.3)}",
                f"--p-max={lit(('30', '2'), 0.3)}",
                "--n", rng.choice(_SIZES)]
    config = tmp_path / "sweep.ini"
    config.write_text("".join(
        f"[s{i}]\na = {lit()}\nb = {lit()}\nc = {lit()}\n"
        f"levels = {levels()}\ngrid_n = {rng.choice(_SIZES)}\n"
        for i in range(rng.randint(1, 3))))
    return [command, "--config", str(config)]


def _no_constant(name):
    raise AssertionError(f"{name} in JSON output")


def test_error_contract_holds_under_random_inputs(tmp_path, capsys):
    """Seeded random command lines: every run exits 0, 2, 3 or 4, a failed
    run leaves no --out, and no output holds a NaN or an infinity."""
    rng = random.Random(20121101)
    codes = []
    for i in range(100):
        run = tmp_path / str(i)
        run.mkdir()
        argv, out = _fuzz_argv(rng, run), run / "out"
        try:
            code = main([*argv, "--formats",
                         rng.choice(["json,csv,svg", "json,csv"] * 4 + ["xml"]),
                         "--out", str(out)])
        except SystemExit as exc:   # argparse refuses a malformed number
            code = exc.code
        codes.append(code)
        assert code in (0, 2, 3, 4), argv
        assert code == 0 or not out.exists(), argv
        printed = capsys.readouterr().out
        if printed:
            json.loads(printed, parse_constant=_no_constant)
        for path in out.iterdir() if out.exists() else ():
            text = path.read_text()
            if path.suffix == ".json":
                json.loads(text, parse_constant=_no_constant)
            else:
                assert not re.search(r"\b(nan|inf)\b", text, re.I), path
    # the draws reach success, validation and parse paths alike
    assert {0, 2, 4} <= set(codes)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ptcontour.cli", "wedges", "--a", "-2i",
         "--b", "1", "--c", "1", "--formats", "json",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pt_symmetric"] is True


# --- import cost and the lazy package namespace ---------------------------------------

def test_exact_core_loads_no_numpy(tmp_path):
    # import ptcontour binds no module, algebra-verify is exact arithmetic
    # only, and the exact modules import behind an empty package
    code = "\n".join([
        "import importlib, sys, types",
        "def numeric():",
        "    return sorted({'numpy', 'scipy'} & sys.modules.keys())",
        "import ptcontour",
        "assert not numeric(), numeric()",
        "from ptcontour.cli import main",
        f"assert main(['algebra-verify', '--out', {str(tmp_path)!r}]) == 0",
        "assert not numeric(), numeric()",
        "path = ptcontour.__path__",
        "for name in [m for m in sys.modules if m.startswith('ptcontour')]:",
        "    del sys.modules[name]",
        "empty = sys.modules['ptcontour'] = types.ModuleType('ptcontour')",
        "empty.__path__ = path",
        "for name in ('rational', 'opalg', 'catalog', 'errors', 'jsonio',"
        " 'reference'):",
        "    importlib.import_module('ptcontour.' + name)",
        "assert not numeric(), numeric()",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_namespace_resolves_each_name_where_it_is_defined():
    import importlib
    import inspect

    import ptcontour
    for name in ptcontour.__all__:
        module = importlib.import_module(
            f"ptcontour.{ptcontour._MODULE_OF[name]}")
        value = getattr(ptcontour, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            # the table names the defining module, not one that imports it
            assert value.__module__ == module.__name__, name
        assert name not in vars(ptcontour), f"{name} was cached"
    assert set(ptcontour.__all__) <= set(dir(ptcontour))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ptcontour.nope
    star: dict = {}
    exec("from ptcontour import *", star)
    assert star.keys() - {"__builtins__"} == set(ptcontour.__all__)
