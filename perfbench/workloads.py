"""Seeded inputs for the three benchmark workloads.

Each workload is a grid of CLI argument lists split into cells.  A cell
groups the arguments that set the cost of a call (prime, tame level,
command, level band); one round runs one call from every cell, and a run
is a fixed number of whole rounds.  Within a cell the call is drawn from
a seeded shuffle that is balanced over the arguments that set the cost
(c and the weight k or n), so two seeds give different calls but nearly
the same work.  No argument
list repeats within a run.

Characters are generated as a product of real characters (Legendre
symbols mod odd primes q, and the characters mod 4 and 8) times a power
omega^e of the Teichmuller character, so the generator knows each
character's level, conductor, parity and order without asking the
program under test.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("lvalue", "characters", "measure")
TABLE_CMDS = ("char-info", "genbernoulli")

# Calls in a run: at least this many, so that at least 10 lie beyond p90.
MIN_CALLS = 100
# The relative precision (--prec) of every call but measure-check.
PREC = 12
# Rounds in a run at most, whatever --seconds asks for.
MAX_ROUNDS = 24

# Rounds a run makes per second of --seconds.  Every commit runs the same
# calls for a given seed and --seconds, so the digest and the counts
# compare across commits.  At --seconds 20 this gives 20, 7 and 5 rounds
# (277, 112 and 100 calls), which took about 22, 18 and 26 s at the
# reference speed (calibrate.py) when the benchmark was written.
ROUNDS_PER_SECOND = {"lvalue": 1.0, "characters": 0.35, "measure": 0.25}


# Tame real characters, keyed by their Kronecker discriminant-like code:
# an odd prime q is the Legendre symbol mod q; -4, 8, -8 are the
# primitive characters mod 4 and 8.
_TWO_ADIC = {
    -4: (4, {1: 1, 3: -1}),
    8: (8, {1: 1, 3: -1, 5: -1, 7: 1}),
    -8: (8, {1: 1, 3: 1, 5: -1, 7: -1}),
}


def comp_conductor(q: int) -> int:
    return _TWO_ADIC[q][0] if q in _TWO_ADIC else q


def comp_value(q: int, a: int) -> int:
    """The value (+1 or -1) of a tame component at an integer a coprime to it."""
    if q in _TWO_ADIC:
        mod, table = _TWO_ADIC[q]
        return table[a % mod]
    return 1 if pow(a % q, (q - 1) // 2, q) == 1 else -1


@dataclass(frozen=True)
class CharSpec:
    """chi = (product of tame components) * omega^e on (Z/modulus)^x."""

    p: int
    modulus: int
    comps: tuple
    e: int

    def tame(self, a: int) -> int:
        s = 1
        for q in self.comps:
            s *= comp_value(q, a)
        return s

    def label(self, a: int) -> int:
        """t mod p with chi(a) = omega(t), for a coprime to the conductor."""
        return self.tame(a) * pow(a, self.e, self.p) % self.p

    @property
    def conductor(self) -> int:
        f = math.prod(comp_conductor(q) for q in self.comps)
        return f * (self.p if self.e % (self.p - 1) else 1)

    @property
    def order(self) -> int:
        wild = (self.p - 1) // math.gcd(self.e, self.p - 1)
        return math.lcm(2 if self.comps else 1, wild)

    @property
    def is_even(self) -> bool:
        return self.tame(-1) * (-1) ** self.e == 1

    def entries(self) -> dict:
        m = self.modulus
        return {str(a): self.label(a) for a in range(m) if math.gcd(a, m) == 1}


@dataclass
class Call:
    cmd: str
    argv: list
    params: dict
    table: str | None = None          # path of the table file it reads
    table_spec: CharSpec | None = field(default=None, repr=False)


def _admissible_c(p: int, d: int) -> list[int]:
    """The auxiliary integers c in [2, 6] coprime to d*p."""
    return [c for c in range(2, 7) if math.gcd(c, d * p) == 1]


def balanced_order(rng: random.Random, combos: list, keys) -> list:
    """A seeded order of combos that cycles through the groups of keys[0],
    each group ordered the same way by the remaining keys, so any prefix
    covers every value of every key as evenly as the grid allows."""
    if not keys:
        combos = list(combos)
        rng.shuffle(combos)
        return combos
    groups: dict = {}
    for c in combos:
        groups.setdefault(keys[0](c), []).append(c)
    order = sorted(groups)
    rng.shuffle(order)
    queues = [balanced_order(rng, groups[g], keys[1:]) for g in order]
    out = []
    for i in range(max(len(q) for q in queues)):
        out.extend(q[i] for q in queues if i < len(q))
    return out


def rounds_for(workload: str, seconds: float, calls_per_round: int) -> int:
    """ROUNDS_PER_SECOND * seconds, within [enough for MIN_CALLS, MAX_ROUNDS]."""
    floor = -(-MIN_CALLS // calls_per_round)
    return min(MAX_ROUNDS, max(floor, round(ROUNDS_PER_SECOND[workload] * seconds)))


def _write_table(path: str, spec: CharSpec) -> None:
    with open(path, "w") as fh:
        json.dump({"p": spec.p, "modulus": spec.modulus, "entries": spec.entries()}, fh)


# ------------------------------------------------------------------ lvalue

# (p, d) and the tame components of the level-d part of chi
_LVALUE_CELLS = [(3, 1), (3, 4), (5, 1), (5, 3), (5, 4), (7, 1), (7, 3), (7, 4)]
# Sums at p = 3 start at level 6, so that they end at level 7 or 8; at
# p = 5 and 7 they start at m = 1 and end at level 2 to 6, where the
# cost at p = 7 already lies (6 * 7^5 unit terms at level 6).
_LVALUE_JMIN = {3: 6}
_LVALUE_JMAX = 8
_TAME = {1: [()], 3: [(3,)], 4: [(-4,)], 8: [(8,), (-8,)]}


def _even_specs(p: int, d: int) -> list[CharSpec]:
    out = []
    for comps in _TAME[d]:
        for e in range(p - 1):
            s = CharSpec(p, d * p, comps, e)
            if s.is_even:
                out.append(s)
    return out


def _lp_calls(rng, cells, rounds, workdir, target, levels_of):
    """Up to `rounds` lp-eval and `rounds` verify calls per (p, d, m) cell;
    levels_of(p, m) gives the --jmin/--jmax arguments."""
    calls_by_cell = {}
    tables: dict = {}
    for p, d, m in cells:
        specs = _even_specs(p, d)
        cs = _admissible_c(p, d)
        for cmd, wname, weights in (("lp-eval", "--weight-k", range(0, 7)),
                                    ("verify", "--n", range(2, 8))):
            combos = [(s, c, w) for s in specs for c in cs for w in weights]
            # the auxiliary c and the weight set the level a sum converges at
            order = balanced_order(rng, combos, [lambda t: t[1], lambda t: t[2]])
            picked = []
            for spec, c, w in order[:rounds]:
                if d == 1:
                    char = f"omega^{spec.e}"
                    table = None
                else:
                    table = tables.get(spec)
                    if table is None:
                        table = os.path.join(workdir, f"lp_{p}_{d}_{'_'.join(map(str, spec.comps))}_{spec.e}.json")
                        _write_table(table, spec)
                        tables[spec] = table
                    char = "table:" + table
                argv = [cmd, "--p", str(p), "--d", str(d), "--m", str(m),
                        "--char", char, "--c", str(c), wname, str(w),
                        "--prec", str(PREC), *levels_of(p, m),
                        "--target", str(target)]
                n = w + 1 if cmd == "lp-eval" else w
                picked.append(Call(cmd, argv, {"p": p, "d": d, "m": m, "c": c, "n": n,
                                               "target": target},
                                   table=table, table_spec=spec))
            calls_by_cell[(p, d, m, cmd)] = picked
    return calls_by_cell


def _lvalue(rng, seconds, workdir):
    cells = [(p, d, 1) for p, d in _LVALUE_CELLS]
    rounds = rounds_for("lvalue", seconds, 2 * len(cells))

    def levels(p, m):
        jmin = _LVALUE_JMIN.get(p)
        return (["--jmin", str(jmin)] if jmin else []) + ["--jmax", str(_LVALUE_JMAX)]

    by_cell = _lp_calls(rng, cells, rounds, workdir, 4, levels)
    return by_cell, rounds


# -------------------------------------------------------------- characters

# (p, d, m): levels p^m from 125 to 625, d*p^m up to about 1000
_CHAR_LP_CELLS = [(5, 1, 4), (5, 3, 3), (5, 4, 3), (5, 8, 3), (7, 1, 3), (7, 3, 3)]
# phi(modulus) bands for the table calls; the cost of a character is
# quadratic in phi, so each round draws one modulus from each band
_PHI_BANDS = [(400, 500), (700, 800)]
_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def totient(n: int) -> int:
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            out -= out // f
        f += 1
    if m > 1:
        out -= out // m
    return out


@functools.lru_cache(maxsize=None)
def _table_moduli(p: int, band) -> list[tuple[int, tuple]]:
    """Moduli in [1000, 3000] divisible by p, with squarefree odd part
    built from small primes and a 2-part of at most 8, and phi in band.
    Each comes with the tame components it can carry."""
    out = []
    for M in range(1000, 3001):
        if M % p or not band[0] <= totient(M) < band[1]:
            continue
        rest, two = M, 1
        while rest % 2 == 0:
            rest //= 2
            two *= 2
        while rest % p == 0:
            rest //= p
        qs = [q for q in _ODD_PRIMES if q != p and rest % q == 0]
        if two > 8 or math.prod(qs) != rest:
            continue
        twos = {1: [], 2: [], 4: [-4], 8: [-4, 8, -8]}[two]
        out.append((M, tuple(qs), tuple(twos)))
    return out


def _table_call(rng, cmd, band, idx, workdir, seen):
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        moduli = _table_moduli(p, band)
        M, qs, twos = rng.choice(moduli)
        comps = [q for q in qs if rng.random() < 0.5]
        two = rng.choice([None] + list(twos))
        if two is not None:
            comps.append(two)
        spec = CharSpec(p, M, tuple(sorted(comps)), rng.randrange(p - 1))
        if spec.order == 1:
            continue
        argv_tail = []
        n = None
        if cmd == "genbernoulli":
            # B_(n,chi) vanishes unless chi(-1) = (-1)^n
            n = rng.choice([k for k in range(1, 7) if (k % 2 == 0) == spec.is_even])
            argv_tail = ["--n", str(n)]
        key = (cmd, spec, n)
        if key in seen:
            continue
        seen.add(key)
        path = os.path.join(workdir, f"char_{idx}.json")
        _write_table(path, spec)
        argv = ["--prec", str(PREC), cmd, "--p", str(p), "--char", "table:" + path] + argv_tail
        return Call(cmd, argv, {"p": p, "n": n}, table=path, table_spec=spec)
    raise ValueError("could not draw a fresh table character")


def _characters(rng, seconds, workdir):
    cmds = [(cmd, band) for cmd in TABLE_CMDS for band in _PHI_BANDS]
    per_round = 2 * len(_CHAR_LP_CELLS) + len(cmds)
    rounds = rounds_for("characters", seconds, per_round)
    by_cell = _lp_calls(rng, _CHAR_LP_CELLS, rounds, workdir, 3,
                        lambda p, m: ["--jmax", str(m + 2)])
    seen: set = set()
    idx = 0
    for cmd, band in cmds:
        by_cell[(cmd, band)] = [_table_call(rng, cmd, band, idx + r, workdir, seen)
                                for r in range(rounds)]
        idx += rounds
    return by_cell, rounds


# ----------------------------------------------------------------- measure

_MEASURE_CELLS = [(p, d, lev) for p in (3, 5, 7) for d in (1, 2, 4) for lev in (2, 3)]
# Calls per round of a cell.  measure-check draws its own random
# cylinders, so a cell's costs spread by about +-15%.  The costliest
# cell, (7, 4, 3), runs three times a round: 15 of a run's 100 calls, so
# p90 falls inside that cell's calls instead of on the edge between two
# cells, where it moved by 10% from seed to seed.
_MEASURE_PER_ROUND = {(7, 4, 3): 3}


def _measure(rng, seconds, workdir):
    per_round = len(_MEASURE_CELLS) + sum(w - 1 for w in _MEASURE_PER_ROUND.values())
    rounds = rounds_for("measure", seconds, per_round)
    by_cell = {}
    for p, d, lev in _MEASURE_CELLS:
        w = _MEASURE_PER_ROUND.get((p, d, lev), 1)
        cs = _admissible_c(p, d)
        rng.shuffle(cs)
        seeds = rng.sample(range(10**6), w * rounds)
        picked = []
        for i, seed in enumerate(seeds):
            c = cs[i % len(cs)]
            argv = ["--seed", str(seed), "measure-check", "--p", str(p),
                    "--d", str(d), "--c", str(c), "--max-level", str(lev)]
            picked.append(Call("measure-check", argv, {"p": p, "d": d, "c": c}))
        for i in range(w):
            by_cell[(p, d, lev, i)] = picked[i::w]
    return by_cell, rounds


_BUILDERS = {"lvalue": _lvalue, "characters": _characters, "measure": _measure}


def build(workload: str, seed: int, seconds: float, workdir: str) -> list[Call]:
    """The run's calls in execution order; writes table files to workdir."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    by_cell, rounds = _BUILDERS[workload](rng, seconds, workdir)
    cells = sorted(by_cell, key=repr)
    calls = []
    for r in range(rounds):
        # a cell with fewer argument lists than rounds drops out once used up
        batch = [by_cell[cell][r] for cell in cells if r < len(by_cell[cell])]
        rng.shuffle(batch)
        calls.extend(batch)
    # table calls differ in their file path; compare what the file holds
    keys = [(c.cmd, c.table_spec, c.params["n"]) if c.cmd in TABLE_CMDS
            else tuple(c.argv) for c in calls]
    if len(set(keys)) != len(keys):
        raise RuntimeError("an argument list repeats within the run")
    if len(calls) < MIN_CALLS:
        raise ValueError(f"{workload}: {len(calls)} calls, fewer than {MIN_CALLS}")
    return calls
