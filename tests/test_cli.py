import json
import subprocess
import sys
from fractions import Fraction

import pytest

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


def test_wkb_reversed_range_runs_backwards(tmp_path, capsys):
    # p runs from --p-min to --p-max, so a reversed range reverses the axis
    ends = {}
    for name, lo, hi in (("fwd", "-5", "5"), ("rev", "5", "-5")):
        out = tmp_path / name
        assert main(["wkb", "--tag", "adjacent", "--p-min", lo, "--p-max", hi,
                     "--n", "11", "--out", str(out)]) == 0
        ends[name] = json.loads(capsys.readouterr().out)
        ps = [float(row.split(",")[0]) for row
              in (out / "wkb_adjacent.csv").read_text().splitlines()[1:]]
        assert ps[0] == float(lo) and ps[-1] == float(hi)
        assert (out / "wkb_adjacent.svg").is_file()
    for key in ("log_magnitude_at_ends", "weighted_at_ends"):
        assert ends["rev"][key] == ends["fwd"][key][::-1]


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
        self.driver, self.typecode = driver, driver.typecode
        self.dtype = driver.dtype

    def __call__(self, *args, **kwargs):
        return (*self.driver(*args, **kwargs)[:-1], 7)


@pytest.mark.parametrize("driver", ["dsbevx", "dgbsv"])
def test_exit_code_lapack_failure(tmp_path, capsys, monkeypatch, driver):
    # a failed ?sbevx seed solve or ?gbsv Rayleigh step is a typed
    # non-convergence, not a LinAlgError traceback
    from scipy.linalg import lapack
    real = lapack.get_lapack_funcs

    def lookup(names, arrays=(), *args, **kwargs):
        return [_FailingDriver(f) if f.typecode + name == driver else f
                for name, f in zip(names, real(names, arrays, *args,
                                                **kwargs))]
    monkeypatch.setattr(lapack, "get_lapack_funcs", lookup)
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
    # at x = -50, the first point of the PT-symmetry test, b + icx = 1
    pytest.param(["--a", "1", "--b", "1+50i", "--c", "1", "--branch", "upper"],
                 ("BranchUndefined", "root of (1+0j) is real; no previous "
                  "sample to continue from"), id="branch-undefined"),
])
def test_exit_code_wedge_geometry(tmp_path, capsys, argv, error):
    assert main(["wedges", *argv, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["kind"], err["type"], err["message"]) == ("validation", *error)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ptcontour.cli", "wedges", "--a", "-2i",
         "--b", "1", "--c", "1", "--formats", "json",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pt_symmetric"] is True
