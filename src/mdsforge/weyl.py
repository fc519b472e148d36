"""Simply-laced root systems, their Weyl groups, and the averaging action
on rational functions that produces the invariant generating function.

The action of a simple reflection on C(z1..zr) is

    (f|s_i)(z) = -(1 - q z_i)/(q z_i (1 - z_i)) * f_i^+(s_i . z)
                 + 1/(sqrt(q) z_i) * f_i^-(s_i . z)

with f_i^(+-) = (f(z) +- f(e_i . z))/2, where s_i . z inverts z_i to
1/(q z_i) and multiplies adjacent variables by sqrt(q) z_i, and e_i . z
flips the sign of the variables adjacent to i.  The invariant function is
the normalized average of (1|w) against the cocycle j over the whole group.

Both a symbolic route (exact rational-function arithmetic, practical for
small rank) and a pointwise-exact route (rational sample points with
rational sqrt(q); used for the rank-4 certification) are provided.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .rings import MultiPoly, ParamPoly, PP_ONE, RationalFunction, accumulate


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------

_ADJACENCY = {
    "A1": (1, ()),
    "A2": (2, ((1, 2),)),
    "A3": (3, ((1, 2), (2, 3))),
    # central node is 4, carrying the fourth variable
    "D4": (4, ((1, 4), (2, 4), (3, 4))),
}


class RootSystem:
    def __init__(self, name: str):
        if name not in _ADJACENCY:
            raise ValueError(f"unsupported root system {name!r}")
        self.name = name
        rank, pairs = _ADJACENCY[name]
        self.rank = rank
        self.adjacent = [set() for _ in range(rank + 1)]  # 1-based
        for a, b in pairs:
            self.adjacent[a].add(b)
            self.adjacent[b].add(a)
        self.positive_roots = self._positive_roots()
        self.heights = {r: sum(r) for r in self.positive_roots}
        self.elements = self._enumerate_weyl()

    # simple reflection on a lattice vector (coordinates over simple roots)
    def reflect(self, i: int, v):
        new_i = -v[i - 1] + sum(v[j - 1] for j in self.adjacent[i])
        return tuple(new_i if k == i - 1 else c for k, c in enumerate(v))

    def _positive_roots(self):
        simples = [tuple(1 if k == i else 0 for k in range(self.rank))
                   for i in range(self.rank)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            v = frontier.pop()
            for i in range(1, self.rank + 1):
                w = self.reflect(i, v)
                if all(c >= 0 for c in w) and w not in roots:
                    roots.add(w)
                    frontier.append(w)
        return tuple(sorted(roots))

    def _enumerate_weyl(self):
        """Breadth-first closure over the generators.

        Returns a list of (word, matrix) with words reduced (BFS depth) and
        prefix-closed, matrices acting on coordinate columns.
        """
        rank = self.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank))
                      for i in range(rank))

        def gen_matrix(i):
            cols = []
            for j in range(1, rank + 1):
                v = tuple(1 if k == j - 1 else 0 for k in range(rank))
                cols.append(self.reflect(i, v))
            # column-major: matrix[r][c] = image of e_c, coordinate r
            return tuple(tuple(cols[c][r] for c in range(rank)) for r in range(rank))

        def matmul(a, b):
            return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(len(b)))
                               for c in range(len(b[0]))) for r in range(len(a)))

        gens = {i: gen_matrix(i) for i in range(1, rank + 1)}
        seen = {ident: ()}
        order = [((), ident)]
        frontier = [((), ident)]
        while frontier:
            nxt = []
            for word, mat in frontier:
                for i in range(1, rank + 1):
                    m2 = matmul(mat, gens[i])
                    if m2 not in seen:
                        w2 = word + (i,)
                        seen[m2] = w2
                        order.append((w2, m2))
                        nxt.append((w2, m2))
            frontier = nxt
        return order

    @property
    def order(self) -> int:
        return len(self.elements)

    def delta_factors(self):
        """The normalizing product: one unit factor per positive root."""
        out = []
        for alpha in self.positive_roots:
            exps = tuple(2 * c for c in alpha)
            out.append(MultiPoly.const(self.rank, 1)
                       - MultiPoly.monomial(self.rank, exps,
                                            ParamPoly.q_power(self.heights[alpha])))
        return out


@lru_cache(maxsize=None)
def build_root_system(name: str) -> RootSystem:
    return RootSystem(name)


# ---------------------------------------------------------------------------
# pointwise-exact evaluation of the action
# ---------------------------------------------------------------------------

def sigma_point(rs: RootSystem, i: int, z, q: Fraction, sqrtq: Fraction):
    zi = z[i - 1]
    if zi == 0:
        raise ZeroDivisionError("z_i = 0 under reflection substitution")
    out = []
    for j in range(1, rs.rank + 1):
        if j == i:
            out.append(1 / (q * zi))
        elif j in rs.adjacent[i]:
            out.append(sqrtq * zi * z[j - 1])
        else:
            out.append(z[j - 1])
    return tuple(out)


def eps_point(rs: RootSystem, i: int, z):
    return tuple(-z[j - 1] if j in rs.adjacent[i] else z[j - 1]
                 for j in range(1, rs.rank + 1))


class ActionEvaluator:
    """Exact evaluation of (f0|word)(z) and of the cocycle at rational points."""

    def __init__(self, rs: RootSystem, sqrtq: Fraction, base=None):
        self.rs = rs
        self.sqrtq = Fraction(sqrtq)
        self.q = self.sqrtq ** 2
        self.base = base if base is not None else (lambda z: Fraction(1))
        self._memo = {}

    def value(self, word, z) -> Fraction:
        key = (word, z)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not word:
            v = self.base(z)
        else:
            i = word[-1]
            rest = word[:-1]
            q, sq = self.q, self.sqrtq
            zi = z[i - 1]
            if zi == 0 or zi == 1:
                raise ZeroDivisionError("sample point hits a reflection pole")
            zs = sigma_point(self.rs, i, z, q, sq)
            ze = eps_point(self.rs, i, zs)
            gp = self.value(rest, zs)
            gm = self.value(rest, ze)
            plus = (gp + gm) / 2
            minus = (gp - gm) / 2
            v = (-(1 - q * zi) / (q * zi * (1 - zi))) * plus + minus / (sq * zi)
        self._memo[key] = v
        return v

    def cocycle(self, word, z) -> Fraction:
        """j(w, z) built along the word: j(w s_i, z) = j(w, s_i.z) * (-q z_i^2)."""
        if not word:
            return Fraction(1)
        i = word[-1]
        zi = z[i - 1]
        zs = sigma_point(self.rs, i, z, self.q, self.sqrtq)
        return self.cocycle(word[:-1], zs) * (-self.q * zi * zi)

    def delta(self, z) -> Fraction:
        q = self.q
        total = Fraction(1)
        for alpha in self.rs.positive_roots:
            mono = Fraction(1)
            for c, x in zip(alpha, z):
                if c:
                    mono *= x ** (2 * c)
            total *= 1 - q ** self.rs.heights[alpha] * mono
        return total

    def average(self, z) -> Fraction:
        d = self.delta(z)
        if d == 0:
            raise ZeroDivisionError("sample point on the normalizing divisor")
        acc = Fraction(0)
        for word, _ in self.rs.elements:
            acc += self.cocycle(word, z) * self.value(word, z)
        return acc / d


# ---------------------------------------------------------------------------
# symbolic action on rational functions
# ---------------------------------------------------------------------------

def _subst_eps_poly(p: MultiPoly, rs: RootSystem, i: int) -> MultiPoly:
    out = {}
    adj = rs.adjacent[i]
    for e, c in p.terms.items():
        s = sum(e[j - 1] for j in adj)
        out[e] = (-c) if s % 2 else c
    return MultiPoly(p.n, out)


def _subst_sigma_poly(p: MultiPoly, rs: RootSystem, i: int):
    """p(s_i . z) = result * z_i**(-shift); returns (result, shift)."""
    adj = rs.adjacent[i]
    # z_i**e_i -> z_i**(s_adj - e_i) q**(-e_i) sqrt(q)**s_adj, with s_adj the
    # exponent sum over the neighbours of i; half-units -2 e_i + s_adj
    raw = accumulate((e[:i - 1] + (s_adj - e[i - 1],) + e[i:],
                      c * ParamPoly.q_power(s_adj - 2 * e[i - 1], 1, half_units=True))
                     for e, c in p.terms.items()
                     for s_adj in (sum(e[j - 1] for j in adj),))
    shift = -min([0] + [e[i - 1] for e in raw])
    out = {e[:i - 1] + (e[i - 1] + shift,) + e[i:]: c for e, c in raw.items()}
    return MultiPoly(p.n, out), shift


def _zi_monomial(n: int, i: int, power: int) -> MultiPoly:
    return MultiPoly.monomial(n, tuple(power if k == i - 1 else 0 for k in range(n)), PP_ONE)


def compose_eps(f: RationalFunction, rs: RootSystem, i: int) -> RationalFunction:
    return RationalFunction(_subst_eps_poly(f.num, rs, i),
                            [_subst_eps_poly(d, rs, i) for d in f.den])


def compose_sigma(f: RationalFunction, rs: RootSystem, i: int) -> RationalFunction:
    num, s_num = _subst_sigma_poly(f.num, rs, i)
    dens = []
    s_den = 0
    for d in f.den:
        d2, s = _subst_sigma_poly(d, rs, i)
        dens.append(d2)
        s_den += s
    # f(s.z) = num z^-s_num / prod(d2 z^-s_k) = num z^(s_den - s_num) / prod d2
    diff = s_den - s_num
    if diff >= 0:
        num = num * _zi_monomial(f.n, i, diff)
    else:
        dens.append(_zi_monomial(f.n, i, -diff))
    return RationalFunction(num, dens)


def act_reflection(f: RationalFunction, rs: RootSystem, i: int) -> RationalFunction:
    """(f|s_i) as an exact rational function."""
    n = f.n
    f_sigma = compose_sigma(f, rs, i)
    f_eps_sigma = compose_sigma(compose_eps(f, rs, i), rs, i)
    half = Fraction(1, 2)
    plus = (f_sigma + f_eps_sigma) * half
    minus = (f_sigma - f_eps_sigma) * half
    zi = _zi_monomial(n, i, 1)
    one = MultiPoly.const(n, 1)
    q = ParamPoly.q_power(1)
    # -(1 - q z_i) / (q z_i (1 - z_i))
    pref1 = RationalFunction(-(one - zi * q), (zi * q, one - zi))
    # 1 / (sqrt(q) z_i)
    pref2 = RationalFunction(one * ParamPoly.q_power(-1, 1, half_units=True), (zi,))
    return pref1 * plus + pref2 * minus


def act_word(f: RationalFunction, rs: RootSystem, word) -> RationalFunction:
    for i in word:
        f = act_reflection(f, rs, i)
    return f


def cocycle_symbolic(rs: RootSystem, word) -> RationalFunction:
    """j(word, z) built through the one-cocycle relation: appending a letter
    composes the running cocycle with the substitution and multiplies by the
    generator value -q z_i**2."""
    n = rs.rank
    j = RationalFunction.const(n, 1)
    for i in word:
        j = compose_sigma(j, rs, i) * RationalFunction(
            -_zi_monomial(n, i, 2) * ParamPoly.q_power(1))
    return j


def cg_average_symbolic(rs: RootSystem) -> RationalFunction:
    """The invariant average as an exact rational function (small rank)."""
    n = rs.rank
    total = RationalFunction.const(n, 0)
    for word, _ in rs.elements:
        fw = act_word(RationalFunction.const(n, 1), rs, word)
        total = total + cocycle_symbolic(rs, word) * fw
    return RationalFunction(total.num, tuple(total.den) + tuple(rs.delta_factors()))


def value_at_origin(f: RationalFunction) -> ParamPoly:
    """Exact value at z = 0 (a Laurent polynomial in q).

    Pure-monomial denominator factors are cancelled against the numerator
    first; afterwards every remaining factor must be nonzero at the origin
    with a single-term q-coefficient.
    """
    n = f.n
    num = f.num
    mono_exp = [0] * n
    mono_coef = PP_ONE
    polys = []
    for d in f.den:
        if len(d.terms) == 1:
            ((e, c),) = d.terms.items()
            mono_exp = [a + b for a, b in zip(mono_exp, e)]
            mono_coef = mono_coef * c
        else:
            polys.append(d)
    if any(mono_exp):
        shifted = {}
        for e, c in num.terms.items():
            e2 = tuple(a - b for a, b in zip(e, mono_exp))
            if any(x < 0 for x in e2):
                raise ZeroDivisionError("monomial content does not cancel")
            shifted[e2] = c
        num = MultiPoly(n, shifted)
    zero = (0,) * n
    top = num.terms.get(zero, ParamPoly())
    bottom = mono_coef
    for d in polys:
        c0 = d.terms.get(zero)
        if c0 is None or c0.is_zero():
            raise ZeroDivisionError("denominator vanishes at the origin")
        bottom = bottom * c0
    if top.is_zero():
        return ParamPoly()
    if len(bottom.half) != 1:
        raise ValueError("origin value is not a monomial ratio")
    ((k, c),) = bottom.half.items()
    return top * ParamPoly({-k: 1 / c})


def check_limiting_condition(f: RationalFunction, rs: RootSystem, i: int) -> bool:
    """Zero the variables adjacent to i, multiply by (1 - z_i), and test
    independence of z_i."""
    g = f
    for j in sorted(rs.adjacent[i]):
        g = g.substitute_zero(j - 1)
    one = MultiPoly.const(f.n, 1)
    g = RationalFunction(g.num * (one - _zi_monomial(f.n, i, 1)), g.den)
    return g.is_independent_of(i - 1)


# ---------------------------------------------------------------------------
# certification against the explicit rank-4 function
# ---------------------------------------------------------------------------

def _wide_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-999, 999)
    den = rng.randint(1, 999)
    if num == 0:
        num = 1
    return Fraction(num, den)


SQRTQ_SAMPLES = (Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3),
                 Fraction(11, 5), Fraction(9, 4), Fraction(13, 6))


def verify_against_explicit(trials: int = 24, seed: int = 20240901):
    """Randomized certification that the rank-4 average equals the explicit
    rational function.

    Each trial evaluates both sides exactly (Fraction arithmetic) at a random
    rational point with a random rational sqrt(q) > 1.  Polynomial identity
    testing: per trial the false-accept probability is at most D/S with D the
    total degree of the cross-multiplied identity (&lt; 10^3) and S &gt; 10^5 the
    per-coordinate sample-space size, so `trials` independent passes leave
    failure probability below (D/S)^trials.
    """
    from .d4 import explicit_f
    rs = build_root_system("D4")
    target = explicit_f()
    rng = random.Random(seed)
    used = 0
    attempts = 0
    points = []
    while used < trials:
        attempts += 1
        if attempts > 80 * trials:
            raise RuntimeError("inconclusive: could not find enough valid sample points")
        sq = rng.choice(SQRTQ_SAMPLES)
        z = tuple(_wide_fraction(rng) for _ in range(4))
        ev = ActionEvaluator(rs, sq)
        try:
            lhs = ev.average(z)
            rhs = target.eval(z, sq)
        except ZeroDivisionError:
            continue
        if lhs != rhs:
            return {
                "equal": False,
                "witness": {"z": [str(x) for x in z], "sqrtq": str(sq),
                            "average": str(lhs), "explicit": str(rhs)},
                "trials_done": used,
                "seed": seed,
            }
        used += 1
        points.append({"z": [str(x) for x in z], "sqrtq": str(sq)})
    return {
        "equal": True,
        "trials": trials,
        "seed": seed,
        "mode": "randomized",
        "denominator_factor_count": len(target.den),
        "failure_bound": "(degree/sample-space)^trials < (1e3/1e5)^%d" % trials,
    }
