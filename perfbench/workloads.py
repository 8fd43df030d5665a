"""The benchmark workloads: seeded inputs, one op each, and its checks.

Every workload turns a seed into inputs during set-up and then runs ops
``call(i)`` in a closed loop with one client.  ``check(i, result)`` compares
the op's output against the gates the package already has and returns
``(passed, accuracy)``; it runs outside the timed region.  The package only
ever sees the generated ``ContourParams`` or INI file, never the seed.

Op sequences repeat with a fixed period (``cycle``) so that a run of whole
cycles does the same mix of work whatever the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from ptcontour import catalog, cli, contour, errors, isomap, metric, opalg, spectral
from ptcontour.opalg import ANCHOR, ContourParams
from ptcontour.rational import GaussianRational as Q
from ptcontour.reference import REFERENCE_LEVELS

LEVELS = 5
SPECTRUM_REL_TOL = 1e-5          # tolerance of the spectrum gates in the tests
GRID_SIZES = (801, 1201, 1601)

_PARTS = tuple(Fraction(n, 2) for n in range(-4, 5))          # -2 .. 2 by 1/2
_SCALES = tuple(sign * Fraction(n, d) for sign in (1, -1)
                for n, d in ((1, 4), (1, 3), (1, 2), (2, 3), (1, 1),
                             (3, 2), (2, 1), (3, 1), (4, 1)))


def draw_contour(rng: random.Random) -> ContourParams:
    """One admissible contour: a = u+vi, c = t*conj(a)^2, b = s*c.

    a^2 c = t|a|^4 and b/c = s are real by construction, so the contour is
    hermitizable; |a^2 c| is kept in [1/4, 4] so the default momentum grid
    stays within the range the catalog contours span.
    """
    while True:
        a = Q(rng.choice(_PARTS), rng.choice(_PARTS))
        if a.is_zero():
            continue
        t = rng.choice(_SCALES)
        mod4 = (a.re ** 2 + a.im ** 2) ** 2
        if Fraction(1, 4) <= abs(t) * mod4 <= 4:
            break
    c = a.conjugate() * a.conjugate() * t
    b = c * rng.choice(_PARTS)
    return ContourParams(a, b, c)


def contour_pool(rng: random.Random, n_draws: int) -> list[ContourParams]:
    """The five catalog contours mixed with ``n_draws`` seeded draws."""
    pool = list(catalog.STANDARD_FIVE) + [draw_contour(rng)
                                          for _ in range(n_draws)]
    rng.shuffle(pool)
    return pool


def literals(p: ContourParams) -> list[str]:
    """The contour as the CLI's exact literals, enough to replay an op."""
    return [str(p.a), str(p.b), str(p.c)]


def _is_adjacent(p: ContourParams) -> bool:
    try:
        return contour.wedge_report(p).adjacent
    except (ValueError, errors.ValidationError):
        return False        # complex c, or an endpoint on a wedge boundary


def spectrum_rel_err(eigenvalues) -> float:
    """max_k<5 |E_k - REFERENCE_LEVELS[k]| / REFERENCE_LEVELS[k]."""
    return max(abs(complex(e).real - r) / r
               for e, r in zip(eigenvalues, REFERENCE_LEVELS[:LEVELS]))


class Spectra:
    """Lowest-5 spectra; n cycles 801/1201/1601, one op in six is ANCHOR."""

    name = "spectra"
    cycle = 6

    def __init__(self, seed: int, workdir: Path):
        self.pool = contour_pool(random.Random(seed), 7)

    def op_input(self, i: int):
        n = GRID_SIZES[i % 3]
        if i % self.cycle == self.cycle - 1:
            return None, n
        return self.pool[(i - i // self.cycle) % len(self.pool)], n

    def describe(self) -> dict:
        return {"contours": [literals(p) for p in self.pool],
                "grid_sizes": list(GRID_SIZES),
                "rule": "op i: n = grid_sizes[i % 3]; i % 6 == 5 is ANCHOR on "
                        "position grid [-6, 6]; otherwise contours[(i - i//6) % "
                        "len(contours)] on its default momentum grid"}

    def call(self, i: int):
        params, n = self.op_input(i)
        if params is None:
            grid = spectral.position_grid(6.0, n)
            h = ANCHOR
        else:
            h = opalg.hermitize(params).h
            grid = metric.default_momentum_grid(params, n=n)
        mat = spectral.matrixize(h, grid)
        return spectral.eigensolve_hermitian(mat, LEVELS, grid=grid)

    def check(self, i: int, result) -> tuple[bool, float]:
        err = spectrum_rel_err(result.eigenvalues)
        return err < SPECTRUM_REL_TOL, err


class Isometry:
    """verify_isometry at n=1201, k cycling 3/4/6, adjacent-sector ends."""

    name = "isometry"
    cycle = 3
    N = 1201
    KS = (3, 4, 6)
    N_PAIRS = 10

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        pool = contour_pool(rng, 7)
        adjacent = [p for p in pool if _is_adjacent(p)]
        pairs = []
        for j in range(self.N_PAIRS):
            src, dst = rng.sample(pool, 2)
            if j % 3 == 0 and not (_is_adjacent(src) or _is_adjacent(dst)):
                src = rng.choice(adjacent)
            pairs.append((src, dst))
        self.pairs = pairs

    def describe(self) -> dict:
        return {"pairs": [[literals(s), literals(d)] for s, d in self.pairs],
                "adjacent_ends": [_is_adjacent(s) or _is_adjacent(d)
                                  for s, d in self.pairs],
                "ks": list(self.KS), "n": self.N,
                "rule": "op i: pairs[i % len(pairs)], k = ks[i % 3]"}

    def call(self, i: int):
        src, dst = self.pairs[i % len(self.pairs)]
        return isomap.verify_isometry(src, dst, k=self.KS[i % 3], n=self.N)

    def check(self, i: int, report) -> tuple[bool, float]:
        return report.passed, report.max_deviation


class Sweep:
    """In-process ``ptcontour sweep`` of one seeded 4-section INI."""

    name = "sweep"
    cycle = 1
    SECTION_GRIDS = (801, 801, 801, 1201)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        pool = contour_pool(rng, 7)
        grids = list(self.SECTION_GRIDS)
        rng.shuffle(grids)
        self.sections = [(f"s{j}", p, n)
                         for j, (p, n) in enumerate(zip(rng.sample(pool, 4),
                                                        grids))]
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "sweep.ini"
        self.out = workdir / "sweep_out"
        lines = []
        for name, p, n in self.sections:
            a, b, c = literals(p)
            lines += [f"[{name}]", f"a = {a}", f"b = {b}", f"c = {c}",
                      f"grid_n = {n}", ""]
        self.config.write_text("\n".join(lines), encoding="utf-8")
        self.argv = ["sweep", "--config", str(self.config),
                     "--out", str(self.out), "--formats", "json"]
        self.reference_summary: bytes | None = None

    def describe(self) -> dict:
        return {"sections": [[name, literals(p), n]
                             for name, p, n in self.sections],
                "argv": self.argv}

    def call(self, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(self.argv))

    def check(self, i: int, code: int) -> tuple[bool, float]:
        summary_path = self.out / "summary.json"
        if code != 0 or not summary_path.exists():
            return False, None
        data = summary_path.read_bytes()
        summary_path.unlink()
        if self.reference_summary is None:
            self.reference_summary = data
        sections = json.loads(data)["sections"]
        errs = [spectrum_rel_err(complex(e["re"], e["im"])
                                 for e in sections[name]["eigenvalues"])
                for name, _, _ in self.sections]
        err = max(errs)
        return (data == self.reference_summary
                and len(sections) == len(self.sections)
                and err < SPECTRUM_REL_TOL), err


WORKLOADS = {w.name: w for w in (Spectra, Isometry, Sweep)}
