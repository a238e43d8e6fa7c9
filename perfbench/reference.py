"""References for every CLI call, the checks against them, and the digest.

References never come from the code path a call times:

* lp-eval at weight k: the closed form at n = k + 1, from
  special_value_closed_form at relprec REF_PREC on the same character
  taken at level d*p (m = 1), computed once per parameter set.  lp-eval
  itself only sums Riemann sums.
* verify: exit 0, "pass" and sign "+"; lhs and rhs are also compared
  with the closed form above for over-claimed digits.
* char-info: level, conductor, parity, order and primitivity, known to
  the generator that built the table.
* genbernoulli: B_(n,chi) from sympy's Bernoulli polynomials, embedded
  with Teichmuller lifts computed here.
* measure-check: exit 0 and "pass".

p-adic values are compared as integers: x is scaled by p^SHIFT and
reduced modulo p^(SHIFT + digits).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from workloads import PREC, CharSpec

REF_PREC = 40
SHIFT = 20
INF = math.inf


def _scaled(obj: dict, p: int):
    """(X, A): p^SHIFT * x == X modulo p^(SHIFT + A); A is x's absolute precision."""
    if obj.get("zero"):
        return 0, INF
    if "zero_to_precision" in obj:
        return 0, obj["zero_to_precision"]
    v = obj["valuation"]
    if v + SHIFT < 0:
        raise ValueError(f"valuation {v} is below the comparison shift")
    return obj["unit"] * p ** (v + SHIFT), v + obj["relprec"]


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def agreement(value: dict, ref: dict, p: int) -> tuple[float, float]:
    """(digits on which value agrees with ref, digits value claims)."""
    x, ax = _scaled(value, p)
    r, ar = _scaled(ref, p)
    if ax == ar == INF:
        return INF, INF
    if ar <= ax:
        raise ValueError("the reference is less precise than the value it checks")
    top = ar if ax == INF else ax
    diff = (x - r) % p ** (SHIFT + top)
    agree = top if diff == 0 else min(_vp(diff, p) - SHIFT, top)
    return agree, ax


def residue(value: dict, p: int, digits: int) -> int:
    """value modulo p^digits, scaled by p^SHIFT (stable across precision changes)."""
    x, _ = _scaled(value, p)
    return x % p ** (SHIFT + digits)


# ---------------------------------------------------------------- closed form

class ClosedForms:
    """special_value_closed_form at REF_PREC, memoized per parameter set."""

    def __init__(self):
        from padiclf.dirichlet import parse_character_spec
        from padiclf.lfunction import LpParams, special_value_closed_form
        self._parse = parse_character_spec
        self._params = LpParams
        self._closed = special_value_closed_form
        self._memo: dict = {}

    def get(self, call) -> dict:
        pr = call.params
        spec = call.table_spec
        key = (spec, pr["c"], pr["n"])
        if key not in self._memo:
            p, d = pr["p"], pr["d"]
            char = f"omega^{spec.e}" if call.table is None else "table:" + call.table
            chi = self._parse(char, p, relprec=REF_PREC).change_level(d * p)
            params = self._params(p=p, d=d, c=pr["c"], m=1, chi=chi,
                                  relprec=REF_PREC, j_max=1)
            self._memo[key] = self._closed(params, pr["n"], REF_PREC).to_json()
        return self._memo[key]


# ------------------------------------------------------- generalized Bernoulli

def _bernoulli_poly_coeffs(n: int) -> list[Fraction]:
    """Coefficients of B_n(x), highest degree first, from sympy."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.bernoulli(n, x), x)
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]


def genbernoulli_coeffs(spec: CharSpec, n: int) -> dict[int, Fraction]:
    """{t: c_t} with B_(n,chi) = sum_t omega(t) c_t, over the conductor f."""
    f = spec.conductor
    coeffs = _bernoulli_poly_coeffs(n)          # c_0 x^n + ... + c_n
    # f^(n-1) B_n(a/f) = sum_i coeffs[i] a^(n-i) f^(i-1)
    scaled = [coeffs[i] * Fraction(f) ** (i - 1) for i in range(n + 1)]
    power_sums: dict[int, list[int]] = {}
    for a in range(1, f + 1):
        if f > 1 and math.gcd(a, f) != 1:
            continue
        sums = power_sums.setdefault(spec.label(a), [0] * (n + 1))
        for i in range(n + 1):
            sums[i] += a ** (n - i)
    out = {}
    for t, sums in power_sums.items():
        c = sum((scaled[i] * sums[i] for i in range(n + 1)), Fraction(0))
        if c:
            out[t] = c
    return out


def _teich(p: int, t: int, digits: int) -> int:
    return pow(t, p ** (digits - 1), p**digits)


def embed(p: int, coeffs: dict[int, Fraction]) -> dict:
    """sum_t c_t omega(t) as a PadicNum-style JSON object known to absolute
    precision REF_PREC."""
    if not coeffs:
        return {"p": p, "zero": True}
    window = SHIFT + REF_PREC
    mod = p**window
    total = 0
    for t, c in coeffs.items():
        vden = _vp(c.denominator, p)
        if vden > SHIFT:
            raise ValueError("coefficient denominator exceeds the comparison shift")
        num = c.numerator * p ** (SHIFT - vden)
        total += num * pow(c.denominator // p**vden, -1, mod) * _teich(p, t, window)
    total %= mod
    if total == 0:
        return {"p": p, "zero_to_precision": REF_PREC}
    v = _vp(total, p)
    return {"p": p, "valuation": v - SHIFT, "unit": total // p**v,
            "relprec": window - v}


def exact_value(p: int, coeffs: dict[int, Fraction]):
    """B_(n,chi) as a Fraction when every value is +-1, else None."""
    acc = Fraction(0)
    for t, c in coeffs.items():
        if t % p == 1:
            acc += c
        elif t % p == p - 1:
            acc -= c
        else:
            return None
    return acc


# ----------------------------------------------------------------- checking

class Checker:
    """Checks each call's result and accumulates the run's accounting."""

    def __init__(self):
        self.closed = ClosedForms()
        self.attempted = 0
        self.failed = 0
        self.values = 0
        self.overclaimed = 0
        self.records: list[str] = []
        self.failures: list[str] = []

    def _value(self, value: dict, ref: dict, p: int) -> float:
        """Count one returned value; return the digits on which it is right."""
        agree, claimed = agreement(value, ref, p)
        self.values += 1
        if agree < claimed:
            self.overclaimed += 1
        return agree

    def check(self, call, rc: int, out: str, err: str) -> None:
        self.attempted += 1
        try:
            ok, why, record = self._check(call, rc, out)
        except Exception as exc:  # a malformed result is a failed call
            ok, why, record = False, f"unreadable result: {exc!r}", None
        if not ok:
            self.failed += 1
            self.failures.append(f"{' '.join(call.argv)}: {why} {err.strip()[:200]}")
        self.records.append(json.dumps([call.cmd, _identity(call), record],
                                       sort_keys=True, default=str))

    def _check(self, call, rc, out):
        if rc != 0 and call.cmd != "verify":
            return False, f"exit {rc}", None
        obj = json.loads(out)
        p = call.params["p"]
        if call.cmd == "lp-eval":
            ref = self.closed.get(call)
            target = call.params["target"]
            agree = self._value(obj["value"], ref, p)
            _, claimed = _scaled(obj["value"], p)
            ok = agree >= target and claimed >= target
            return ok, "disagrees with the closed form", residue(obj["value"], p, target)
        if call.cmd == "verify":
            ref = self.closed.get(call)
            target = call.params["target"]
            self._value(obj["lhs"], ref, p)
            self._value(obj["rhs"], ref, p)
            ok = rc == 0 and obj["pass"] is True and obj["sign"] == "+"
            record = [obj["pass"], obj["sign"], residue(obj["lhs"], p, target),
                      residue(obj["rhs"], p, target)]
            return ok, f"exit {rc}, pass {obj['pass']}, sign {obj['sign']}", record
        if call.cmd == "char-info":
            spec = call.table_spec
            got = [obj["level"], obj["conductor"], obj["parity"], obj["order"],
                   obj["is_primitive"]]
            want = [spec.modulus, spec.conductor, "even" if spec.is_even else "odd",
                    spec.order, spec.conductor == spec.modulus]
            return got == want, f"got {got}, expected {want}", got
        if call.cmd == "genbernoulli":
            n = call.params["n"]
            coeffs = genbernoulli_coeffs(call.table_spec, n)
            agree = self._value(obj["value"], embed(p, coeffs), p)
            _, claimed = _scaled(obj["value"], p)
            exact = exact_value(p, coeffs)
            want_exact = None if exact is None else f"{exact.numerator}/{exact.denominator}"
            ok = agree >= claimed and obj["exact"] == want_exact
            # the value claims PREC absolute digits at the grid's valuations
            record = [residue(obj["value"], p, PREC), obj["exact"]]
            return ok, "disagrees with the sympy reference", record
        if call.cmd == "measure-check":
            return obj["pass"] is True, "measure check failed", [obj["pass"],
                                                                 len(obj["counterexamples"])]
        raise ValueError(f"no reference for {call.cmd}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.records:
            h.update(r.encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


def _identity(call) -> list:
    """The call's arguments with table paths replaced by what the table holds."""
    if call.table is None:
        return call.argv
    spec = call.table_spec
    tag = f"table<{spec.p},{spec.modulus},{spec.comps},{spec.e}>"
    return [tag if a == "table:" + call.table else a for a in call.argv]
