"""The three workloads: op lists built from a seed, and how each op runs.

`build(name, seed)` imports arcan and parses what the workload needs; the
harness times that call and building the first cycle as set-up.  Every op
calls the library through a module attribute looked up at call time
(``mods.classify.classify_point``), so the tracer in `tracing.py` can wrap
the public functions where they are imported.

A workload is a sequence of cycles of fixed composition; the harness runs
cycles until the run's time is up.  Groups of ops are interleaved in
proportion, so any prefix of a cycle has the same mix, and the end of a run
does not tilt the mix.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import oracle

WORKLOADS = ("ladder-float", "exact-rational", "corpus-shortcut")

# ladder-float: the full ladder (shortcut off) at k_max 10, jet order 24.
LADDER_K_MAX = 10
LADDER_AXES = ((Fraction(-1), Fraction(1), Fraction(1, 4)),) * 3
# Grid points per cycle: the two 729-point grids make 18 chunks of 81.
LADDER_CHUNK = 81
# ROADMAP item 2: a regular point that classifies NonAnalytic(10) in float.
PINNED_FLOAT = ("E6", (0.25, 1.0, 0.25), 3)

# exact-rational
RATIONAL_K_MAX = 8
# ROADMAP item 3a: both Inconclusive at k_max 10 in rational mode under the
# CLI's default seed 0 ("no well-conditioned fit directions").
PINNED_RATIONAL = (("E5", (1, 0, 0)), ("E6", (Fraction(1, 2), 0, 0)))
PINNED_RATIONAL_K_MAX = 10
PINNED_RATIONAL_SEED = 0
IDENTITY_FUNCS = {"binoms": "check_binoms", "euler": "check_euler",
                  "interp-roundtrip": "check_interp_roundtrip"}
# The tag each check_* mixes into its stream seed, and the range of its
# first two draws (n in 1..4, then k in 0..6); see `trial_shape`.
IDENTITY_TAGS = {"binoms": "binoms", "euler": "euler",
                 "interp-roundtrip": "interp"}
IDENTITY_MAX_N = 4
IDENTITY_MAX_K = 6
# Shapes per identity and cycle.  Rational classify ops have a heavy-tailed
# cost (0.7-1.5 s for some draws of lattice directions); four sets of
# identity trials give the solver-bound ops about the same share of time.
IDENTITY_SETS = 4


def load_arcan() -> SimpleNamespace:
    names = ("classify", "cli", "corpus", "parser", "seeds", "verify")
    return SimpleNamespace(**{n: importlib.import_module(f"arcan.{n}")
                              for n in names})


# --- ops ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassifyOp:
    """One classify_point call, judged against the entry's locus."""

    mods: SimpleNamespace
    entry: object
    expr: object
    point: tuple
    seed: int
    k_max: int
    exact: bool

    kind = "classify"

    @property
    def key(self) -> tuple:
        return (self.kind, self.entry.name, tuple(map(str, self.point)),
                self.seed, self.k_max, self.exact)

    def run(self):
        return self.mods.classify.classify_point(
            self.expr, self.point, k_max=self.k_max, seed=self.seed,
            exact=self.exact)

    def judge(self, verdict) -> oracle.Outcome:
        return oracle.judge_verdict(verdict, self.entry.locus.contains(self.point))


@dataclass(frozen=True, eq=False)
class IdentityOp:
    """One exact trial of a randomized identity, e.g. check_euler(1, s)."""

    mods: SimpleNamespace
    identity: str
    seed: int

    kind = "identity"

    @property
    def key(self) -> tuple:
        return (self.kind, self.identity, self.seed)

    def run(self):
        check = getattr(self.mods.verify, IDENTITY_FUNCS[self.identity])
        return check(1, self.seed, exact=True)

    def judge(self, report) -> oracle.Outcome:
        return oracle.judge_identity(report)


@dataclass(frozen=True, eq=False)
class CliOp:
    """One in-process ``arcan`` command with stdout and stderr captured."""

    mods: SimpleNamespace
    argv: tuple
    entry: object
    axes: tuple = ()         # scan only: the grid actually scanned

    kind = "cli"

    @property
    def key(self) -> tuple:
        return (self.kind,) + self.argv

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.mods.cli.main(list(self.argv))
        return rc, out.getvalue()

    def judge(self, result) -> oracle.Outcome:
        rc, out = result
        if self.argv[0] == "corpus":
            return oracle.judge_corpus(rc, out)
        return oracle.judge_scan(rc, out, oracle.grid(self.axes),
                                 self.entry.locus)


# --- op lists -------------------------------------------------------------------

def interleave(groups: list[list], rng: random.Random) -> list:
    """Shuffle each group, then merge them so every prefix keeps the mix."""
    keyed = []
    for g, items in enumerate(groups):
        items = list(items)
        rng.shuffle(items)
        keyed += [((i + 0.5) / len(items), g, item)
                  for i, item in enumerate(items)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def trial_shape(derive_seed, identity: str, seed: int) -> tuple[int, int]:
    """The (n, k) that arcan.verify draws first for a one-trial check.

    Mirrors the first two draws of check_binoms / check_euler /
    check_interp_roundtrip; the self-tests check the mirror against the
    program.  Cost grows steeply with (n, k) (an 84x84 Bareiss solve at
    n=4, k=6), so a cycle takes each shape IDENTITY_SETS times per identity
    instead of leaving the mix to chance.
    """
    rng = random.Random(derive_seed(seed, IDENTITY_TAGS[identity]))
    n = rng.randint(1, IDENTITY_MAX_N)
    return n, rng.randint(0, IDENTITY_MAX_K)


def _ladder_float(mods, seed: int):
    derive_seed = mods.seeds.derive_seed
    points = mods.classify.grid_points(LADDER_AXES)
    entries = {name: mods.corpus.lookup(name) for name in ("E5", "E6")}
    exprs = {name: entry.expr() for name, entry in entries.items()}
    pinned_name, pinned_point, pinned_seed = PINNED_FLOAT
    pinned = ClassifyOp(mods, entries[pinned_name], exprs[pinned_name],
                        pinned_point, pinned_seed, LADDER_K_MAX, False)

    @functools.lru_cache(maxsize=1)
    def grid_pass(n: int) -> list:
        """Every point of both grids, point seeds as iter_scan derives them.

        Pass 0 is `scan --seed <seed>` over each entry's grid; later passes
        scan again under a fresh scan seed.  The points are shuffled so that
        every chunk, and a run that stops mid-pass, samples the grid evenly.
        """
        scan_seed = seed if n == 0 else derive_seed(seed, "ladder-float", n)
        groups = [[ClassifyOp(mods, entry, exprs[name], p,
                              derive_seed(scan_seed, "scan", i),
                              LADDER_K_MAX, False)
                   for i, p in enumerate(points)]
                  for name, entry in entries.items()]
        return interleave(groups, random.Random(
            derive_seed(seed, "ladder-float", "order", n)))

    chunks = 2 * len(points) // LADDER_CHUNK

    def cycle(c: int) -> list:
        start = (c % chunks) * LADDER_CHUNK
        return [pinned] + grid_pass(c // chunks)[start:start + LADDER_CHUNK]
    return cycle


def _exact_rational(mods, seed: int):
    derive_seed = mods.seeds.derive_seed
    points, exprs = [], {}
    for entry in mods.corpus.corpus_list():
        expr = exprs[entry.name] = entry.expr()
        for kind, pts in (("locus", entry.exact_locus_points),
                          ("regular", entry.regular_points)):
            points += [(entry, expr, kind, i, tuple(p))
                       for i, p in enumerate(pts)]

    def trial_seeds(identity: str, c: int) -> list[int]:
        """IDENTITY_SETS seeds of each shape, in shape order."""
        want = {(n, k): [] for n in range(1, IDENTITY_MAX_N + 1)
                for k in range(IDENTITY_MAX_K + 1)}
        j = 0
        while any(len(v) < IDENTITY_SETS for v in want.values()):
            s = derive_seed(seed, "exact-rational", identity, c, j)
            bucket = want[trial_shape(derive_seed, identity, s)]
            if len(bucket) < IDENTITY_SETS:
                bucket.append(s)
            j += 1
        return [s for seeds in want.values() for s in seeds]

    pinned = [ClassifyOp(mods, mods.corpus.lookup(name), exprs[name], p,
                         PINNED_RATIONAL_SEED, PINNED_RATIONAL_K_MAX, True)
              for name, p in PINNED_RATIONAL]

    def cycle(c: int) -> list:
        groups = [pinned + [
            ClassifyOp(mods, entry, expr, p,
                       derive_seed(seed, "exact-rational", entry.name, kind, i,
                                   c), RATIONAL_K_MAX, True)
            for entry, expr, kind, i, p in points]]
        groups += [[IdentityOp(mods, identity, s)
                    for s in trial_seeds(identity, c)]
                   for identity in IDENTITY_FUNCS]
        return interleave(groups, random.Random(
            derive_seed(seed, "exact-rational", c)))
    return cycle


def _corpus_shortcut(mods, seed: int):
    derive_seed = mods.seeds.derive_seed
    var_name = mods.parser.var_name
    commands = []
    for entry in mods.corpus.corpus_list():
        # The CLI infers the dimension from the text (E5 reads as 2 variables),
        # so the scan covers the window of the variables it sees.
        nvars = mods.parser.parse(entry.source).nvars
        axes = entry.scan_axes[:nvars]
        grid = ";".join(f"{var_name(a, nvars)}:{lo}:{hi}:{step}"
                        for a, (lo, hi, step) in enumerate(axes))
        commands.append((entry, grid, axes))

    def cycle(c: int) -> list:
        ops = []
        for entry, grid, axes in commands:
            s = str(derive_seed(seed, "corpus-shortcut", entry.name, c))
            ops.append(CliOp(mods, ("corpus", entry.name, "--seed", s), entry))
            ops.append(CliOp(mods, ("scan", entry.source, "--grid", grid,
                                    "--seed", s), entry, axes))
        return ops
    return cycle


_BUILDERS = {"ladder-float": _ladder_float, "exact-rational": _exact_rational,
             "corpus-shortcut": _corpus_shortcut}


def build(name: str, seed: int):
    """Import arcan and prepare the workload: returns ``cycle(c) -> ops``.

    Every cycle has the same composition; cycle c draws its own op seeds
    (on ladder-float: takes the next chunk of the grid), so a run covers as
    many distinct inputs as its time allows.  Ops whose inputs repeat (the
    pinned cases) must repeat their output.
    """
    return _BUILDERS[name](load_arcan(), seed)
