"""Command-line front end.

Parameters are exact complex-rational literals (no floating intermediate),
so paper-style inputs like ``-2i`` or ``1/3+2/5i`` round-trip exactly into
the algebra.  Every subcommand writes its artifacts under ``--out`` only and
produces deterministic output: identical configuration yields byte-identical
JSON.  Only this module knows the JSON schema; the library returns results.
A subcommand does all its work and renders every output before
:func:`_write` makes ``--out``, so a rejected run, a NaN or an infinity
included, leaves no ``--out``; only ``algebra-verify`` writes its report
of failing checks before it fails, because that report is its output.
A subcommand imports the numeric modules it needs only once its literals
are parsed: ``algebra-verify`` loads neither numpy nor LAPACK, ``wedges``,
``wkb`` and ``hermite-demo`` load numpy only, and the solving commands
``spectrum``, ``iso-check`` and ``sweep`` load both.  :func:`main` parses
with the invoked subcommand's parser alone; its texts are the full parser's.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 parse error.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import catalog, reference
from .errors import (ConfigParseError, NumericalError, ParseError,
                     PtContourError, PushforwardMismatch, ValidationError)
from .jsonio import canonical_dumps, csv_dumps, write_json
from .opalg import (ANCHOR, UNIT_FORM, Branch, ContourParams, OperatorExpr,
                    bch_conjugate, canonical_swap, hermitian_form, hermitize,
                    is_hermitian, map_params, metric_of, push_metric,
                    unit_dilation)
from .rational import GaussianRational

if TYPE_CHECKING:
    from .spectral import Grid, SpectrumResult

_NUMBER = r"(?:\d+/\d+|\d+\.\d+|\.\d+|\d+)"
_SINGLE = re.compile(rf"^(?P<sign>[+-]?)(?P<mag>{_NUMBER})?(?P<i>i)?$")
_PAIR = re.compile(
    rf"^(?P<re>[+-]?{_NUMBER})(?P<imsign>[+-])(?P<immag>{_NUMBER})?i$")
_LEGAL_CHARS = set("0123456789./i+-")


def _fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)    # handles integers and decimals exactly
    except ZeroDivisionError:
        raise ParseError(text, text.index("/"), "zero denominator") from None


def parse_complex(text: str) -> GaussianRational:
    """Parse [+-]R[+-Ri] with R an integer, decimal or integer fraction."""
    s = text.strip()
    for pos, ch in enumerate(s):
        if ch not in _LEGAL_CHARS:
            raise ParseError(text, pos, "illegal character")
    m = _SINGLE.match(s)
    if m and (m.group("mag") or m.group("i")):
        sign = -1 if m.group("sign") == "-" else 1
        mag = _fraction(m.group("mag")) if m.group("mag") else Fraction(1)
        if m.group("i"):
            return GaussianRational(0, sign * mag)
        return GaussianRational(sign * mag)
    m = _PAIR.match(s)
    if m:
        re_part = _fraction(m.group("re"))
        im_mag = _fraction(m.group("immag")) if m.group("immag") else Fraction(1)
        im_sign = -1 if m.group("imsign") == "-" else 1
        return GaussianRational(re_part, im_sign * im_mag)
    raise ParseError(text, len(s), "not a complex literal")


def _contour(a: str, b: str, c: str,
             branch: str = "principal") -> ContourParams:
    """A contour from the complex literals of a, b and c."""
    return ContourParams(*map(parse_complex, (a, b, c)), Branch(branch))


def parse_contour(text: str) -> ContourParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(text, 0, "expected three comma-separated literals")
    return _contour(*parts)


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------

def _formats(text: str) -> set[str]:
    names = set(text.split(","))
    unknown = sorted(names - {"json", "csv", "svg"})
    if unknown:
        raise ValidationError(f"unknown output format {unknown[0]!r}; "
                              "--formats takes a subset of json,csv,svg")
    return names


def _write(args, payload: dict, artifacts: dict) -> str:
    """Render the payload and each selected artifact (by suffix a ``.json``
    payload, a ``.csv`` ``(header, rows)`` pair or an ``.svg`` function that
    draws at the path it is given), then make ``--out`` and write them; a
    NaN or an infinity raises :class:`NumericalError` first.  Returns the
    payload's text."""
    try:
        text = canonical_dumps(payload)
        files = {name: content if name.endswith(".svg")
                 else csv_dumps(*content) if name.endswith(".csv")
                 else text if content is payload else canonical_dumps(content)
                 for name, content in artifacts.items()
                 if name.rpartition(".")[2] in args.formats}
    except ValueError as exc:
        raise NumericalError(f"refused to write a non-finite number: {exc}") \
            from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".json"):
            write_json(out / name, content)
        elif name.endswith(".csv"):
            (out / name).write_text(content, encoding="utf-8", newline="")
        else:
            content(out / name)
    return text


def _params_json(p: ContourParams) -> dict:
    return {"a": str(p.a), "b": str(p.b), "c": str(p.c)}


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _cmd_algebra_verify(args):
    checks = []

    def check(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # the weight-function toy chain: exp(-x^2/2) conjugation of p^2 + 2ixp
    gen = OperatorExpr.monomial(2, 0, Fraction(-1, 2))
    toy = OperatorExpr({(0, 2): 1, (1, 1): GaussianRational(0, 2)})
    target = OperatorExpr({(0, 2): 1, (2, 0): 1, (0, 0): -1})
    check("toy-conjugation-chain", bch_conjugate(gen, toy) == target,
          "exp(-x^2/2): p^2+2ixp -> p^2+x^2-1")

    for params in catalog.STANDARD_FIVE:
        h, f, g = hermitize(params)
        ok = h == hermitian_form(params) and is_hermitian(h)
        check(f"hermitian-equivalent {params.label()}", ok, repr(h))
        try:
            swapped = canonical_swap(h, params)
        except ValueError as exc:
            ok, detail = False, str(exc)
        else:
            ok, detail = swapped == ANCHOR, repr(swapped)
        check(f"anchor-reduction {params.label()}", ok, detail)
        spec = metric_of(params)
        check(f"metric-coefficients {params.label()}",
              spec.kappa3 == 2 * f and spec.kappa1 == 2 * g,
              f"kappa3={spec.kappa3} kappa1={spec.kappa1}")

    b_variants = [hermitize(dataclasses.replace(catalog.LOWER_PT, b=b)).h
                  for b in (0, 1, 5, -3)]
    check("b-independence", all(h == b_variants[0] for h in b_variants))

    pairs = [(src, dst) for src in catalog.STANDARD_FIVE
             for dst in catalog.STANDARD_FIVE if src is not dst]
    mismatches = []
    for src, dst in pairs:
        try:
            push_metric(map_params(src, dst), metric_of(src))
        except PushforwardMismatch as exc:
            mismatches.append(f"{src.label()} -> {dst.label()}: {exc}")
    check("metric-pushforward-identities", not mismatches,
          "; ".join([f"{len(pairs)} ordered pairs", *mismatches]))

    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}")
    payload = {"command": "algebra-verify", "checks": checks,
               "all_passed": all(c["passed"] for c in checks)}
    text = _write(args, payload, {"algebra_verify.json": payload})
    if not payload["all_passed"]:
        raise PtContourError("algebra verification failed")
    return text


def _unit_spectrum(levels: int, n: int) -> SpectrumResult:
    """The lowest levels of the unit form on n points: by the dilation that
    :func:`unit_dilation` gates, those of every contour."""
    from .metric import default_momentum_grid
    from .spectral import eigensolve_hermitian, matrixize
    grid = default_momentum_grid(catalog.SQRT_IX, n=n)
    return eigensolve_hermitian(matrixize(UNIT_FORM, grid), levels)


def _spectrum_payload(params: ContourParams, grid: Grid,
                      result: SpectrumResult):
    """The spectrum of a gated contour on its grid, from the unit solve."""
    ref = reference.REFERENCE_LEVELS[:len(result.eigenvalues)]
    rel = max(abs(ev.real - r) / abs(r)
              for ev, r in zip(result.eigenvalues, ref))
    return {"command": "spectrum",
            "eigenvalues": [_complex_json(e) for e in result.eigenvalues],
            "residuals": list(result.residual_norms),
            "method": result.method, "grid": dataclasses.asdict(grid),
            "params": _params_json(params), "reference": list(ref),
            "max_relative_deviation": rel}


def _cmd_spectrum(args):
    params = _contour(args.a, args.b, args.c)
    from .metric import default_momentum_grid
    grid = default_momentum_grid(params, n=args.grid_n)
    unit_dilation(params)
    payload = _spectrum_payload(params, grid,
                                _unit_spectrum(args.levels, grid.n))
    rows = [(i, ev["re"], ev["im"], res)
            for i, (ev, res) in enumerate(zip(payload["eigenvalues"],
                                              payload["residuals"]))]
    return _write(args, payload, {
        "spectrum.json": payload,
        "spectrum.csv": (["level", "re", "im", "residual"], rows)})


def _cmd_iso_check(args):
    src = parse_contour(args.src)
    dst = parse_contour(args.dst)
    from .isomap import verify_isometry
    report = verify_isometry(src, dst, k=args.k, n=args.grid_n)
    tables = {"src": report.amplitudes_src, "dst": report.amplitudes_dst}
    payload = {"command": "iso-check", "src": _params_json(src),
               "dst": _params_json(dst), "beta": str(report.beta),
               "gamma": str(report.gamma), "k": report.k,
               "max_deviation": report.max_deviation,
               "identity_deviation": report.identity_deviation,
               "passed": report.passed,
               "amplitude_tables": {side: [[_complex_json(v) for v in row]
                                           for row in mat]
                                    for side, mat in tables.items()}}
    header = ["i"] + [f"j{j}" for j in range(report.k)]
    return _write(args, payload, {
        "iso_check.json": payload,
        **{f"amplitudes_{side}.csv":
           (header, [[i, *row.real] for i, row in enumerate(mat)])
           for side, mat in tables.items()}})


def _cmd_wedges(args):
    params = _contour(args.a, args.b, args.c, args.branch)
    from .contour import polyline, wedge_report
    payload = {"command": "wedges",
               **dataclasses.asdict(wedge_report(params)),
               "params": {**_params_json(params),
                          "branch": params.branch.value}}
    xs, re_z, im_z = polyline(params)

    def figure(path):
        from .svgfig import wedge_figure
        wedge_figure(path, [(
            f"z = {params.a}*sqrt({params.b} + {params.c}*i*x)"
            f" [{params.branch.value}]", re_z, im_z, False)])
    return _write(args, payload, {
        "wedges.json": payload,
        "contour.csv": (["x", "re_z", "im_z"], zip(xs, re_z, im_z)),
        "wedges.svg": figure})


def _cmd_wkb(args):
    if args.n < 2:
        raise ValidationError(f"--n must be at least 2, got {args.n}")
    if not (math.isfinite(args.p_min) and math.isfinite(args.p_max)):
        raise ValidationError(f"--p-min and --p-max must be finite, got "
                              f"{args.p_min} and {args.p_max}")
    if args.p_min == args.p_max:
        raise ValidationError(
            f"--p-min and --p-max must differ, both are {args.p_min}")
    tag = args.tag
    import numpy as np
    from .wkb import eval_wkb, in_domain, metric_weighted_wkb
    ps = np.linspace(args.p_min, args.p_max, args.n)
    logmag, mask = eval_wkb(tag, ps), in_domain(tag, ps)
    weighted = metric_weighted_wkb(tag, ps)
    payload = {
        "command": "wkb", "tag": tag,
        "p_min": args.p_min, "p_max": args.p_max, "n": args.n,
        "log_magnitude_at_ends": [float(logmag[0]), float(logmag[-1])],
        "weighted_at_ends": [float(weighted[0]), float(weighted[-1])],
    }

    def figure(path):
        from .svgfig import line_chart
        line_chart(path, [("log|profile|", ps, logmag),
                          ("log|profile*eta*profile|", ps, weighted)],
                   title=f"momentum-space profile: {tag}",
                   xlabel="p", ylabel="log magnitude")
    return _write(args, payload, {
        f"wkb_{tag}.csv": (["p", "log_wkb", "log_weighted", "in_domain"],
                           ((p, lm, wm, int(mk)) for p, lm, wm, mk
                            in zip(ps, logmag, weighted, mask))),
        f"wkb_{tag}.svg": figure, f"wkb_{tag}.json": payload})


def _cmd_hermite_demo(args):
    from .metric import exact_hermite_norm, hermite_demo
    table = hermite_demo(args.n_max)
    k = args.n_max + 1
    dev = max(abs(table.table[n, m] - (exact_hermite_norm(n) if n == m else 0.0))
              / exact_hermite_norm(max(n, m))
              for n in range(k) for m in range(k))
    payload = {"command": "hermite-demo", "n_max": args.n_max,
               "table": table.table.tolist(), "max_relative_deviation": dev}

    def figure(path):
        from .svgfig import line_chart
        line_chart(path, [(f"H{n}", table.plot_x, table.plot_values[n])
                          for n in range(4)],
                   title="first four Hermite polynomials",
                   xlabel="x", ylabel="H_n(x)")
    return _write(args, payload, {
        "hermite_T.csv": (["n"] + [f"m{m}" for m in range(k)],
                          ([n, *row] for n, row in enumerate(table.table))),
        "hermite_samples.csv": (["x", "H0", "H1", "H2", "H3"],
                                ((x, *vals) for x, vals
                                 in zip(table.plot_x, table.plot_values.T))),
        "hermite.svg": figure, "hermite.json": payload})


def _cmd_sweep(args):
    cfg = configparser.ConfigParser(interpolation=None)   # values are literal
    try:
        read = cfg.read(args.config)
    except configparser.Error as exc:   # every read error carries its line
        line = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise ConfigParseError(args.config, line, type(exc).__name__) from None
    if not read:
        raise PtContourError(f"config file {args.config!r} not found")
    jobs = []
    for section in cfg.sections():
        if set(section) & set("/\\"):
            raise ValidationError(
                f"section name [{section}] contains a path separator")
        sec = cfg[section]
        for key in ("a", "b", "c"):
            if sec.get(key) is None:
                raise PtContourError(
                    f"section [{section}] is missing key {key!r}")
        params = _contour(*(sec.get(key) for key in ("a", "b", "c")))
        from .metric import default_momentum_grid
        from .spectral import check_levels
        levels = sec.getint("levels", fallback=args.levels)
        check_levels(levels)
        grid = default_momentum_grid(
            params, n=sec.getint("grid_n", fallback=args.grid_n))
        unit_dilation(params)
        jobs.append((section, params, levels, grid))
    solve = functools.cache(_unit_spectrum)     # one solve per (levels, n)
    spectra = {section: _spectrum_payload(params, grid, solve(levels, grid.n))
               for section, params, levels, grid in jobs}
    payload = {"command": "sweep", "sections": {
        section: {key: spectrum[key]
                  for key in ("eigenvalues", "max_relative_deviation")}
        for section, spectrum in spectra.items()}}
    return _write(args, payload, {
        **{f"spectrum_{section}.json": spectrum
           for section, spectrum in spectra.items()},
        "summary.json": payload})


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

_VALUE_FLAGS = ("--a", "--b", "--c", "--src", "--dst", "--p-min", "--p-max")


def _absorb_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so '-2i' is not read as a flag."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_FLAGS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


_COMMON = (("--out", {"default": "out", "help": "output directory"}),
           ("--formats", {"default": "json,csv,svg",
                          "help": "comma-separated subset of json,csv,svg"}))
_CONTOUR_ARGS = (("--a", {"required": True,
                          "help": "complex literal, e.g. -2i"}),
                 ("--b", {"required": True}), ("--c", {"required": True}))
_LEVELS = ("--levels", {"type": int, "default": 5})
_GRID_N = ("--grid-n", {"type": int, "default": 1201})

#: each subcommand: its help, its handler and its arguments before _COMMON
_COMMANDS = {
    "algebra-verify": ("run every exact operator identity",
                       _cmd_algebra_verify, ()),
    "spectrum": ("diagonalize a contour's Hermitian equivalent",
                 _cmd_spectrum, (*_CONTOUR_ARGS, _LEVELS, _GRID_N)),
    "iso-check": ("verify amplitude preservation between contours",
                  _cmd_iso_check,
                  (("--src", {"required": True, "help": "a,b,c literals"}),
                   ("--dst", {"required": True}),
                   ("-k", {"type": int, "default": 3}), _GRID_N)),
    "wedges": ("endpoint sector classification and figure", _cmd_wedges,
               (*_CONTOUR_ARGS,
                ("--branch", {"default": "principal",
                              "choices": [b.value for b in Branch]}))),
    "wkb": ("momentum-space profile curves", _cmd_wkb,
            (("--tag", {"required": True, "choices": catalog.TAGS}),
             ("--p-min", {"type": float, "default": -30.0}),
             ("--p-max", {"type": float, "default": 30.0}),
             ("--n", {"type": int, "default": 601}))),
    "hermite-demo": ("weighted Hermite inner-product table",
                     _cmd_hermite_demo,
                     (("--n-max", {"type": int, "default": 5}),)),
    "sweep": ("batch spectra from a config file", _cmd_sweep,
              (("--config", {"required": True}), _LEVELS, _GRID_N)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="ptcontour",
        description="complex contours, metric operators and isomorphic "
                    "Hilbert spaces of the wrong-sign quartic oscillator")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in (*arguments, *_COMMON):
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=func)
    return parser


_ERROR_CODES = (
    (ParseError, 4, "parse"),
    (NumericalError, 3, "numerical"),
    (PtContourError, 2, "validation"),
    (ValueError, 2, "validation"),
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(_absorb_values(argv))
    try:
        args.formats = _formats(args.formats)
        text = args.func(args)
    except tuple(exc for exc, _, _ in _ERROR_CODES) as exc:
        code, kind = next((code, kind) for exc_type, code, kind
                          in _ERROR_CODES if isinstance(exc, exc_type))
        print(canonical_dumps({
            "error": {"kind": kind, "type": type(exc).__name__,
                      "message": str(exc)}}), end="")
        return code
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
