"""Seeded input generators for the stabkit benchmark.

Plain Python over ``fractions.Fraction``; nothing here imports stabkit or
``tests/support.py``, so a change to the library or to the tests cannot
change the inputs a workload is measured on.  Every generator takes the
run seed and derives its own ``random.Random`` from a string, which is
reproducible across interpreters and hash seeds.

Session documents use the JSON format of ``fixtures/a2_session.json``.
A complex value ``a + b*sqrt(D)`` is kept here as ``(a, b)`` pairs of
Fractions (``b == 0`` for rational values) until it is written out.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

QUIVERS = {
    "A2": (2, (("a", 1, 2),)),
    "A3": (3, (("a", 1, 2), ("b", 2, 3))),
    "K2": (2, (("a", 1, 2), ("b", 1, 2))),
}

ZERO = (Fraction(0), Fraction(0))


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# --- exact helpers shared with the checks -------------------------------


def q_float(x, d) -> float:
    a, b = x
    return float(a) + (float(b) * math.sqrt(d) if b else 0.0)


def charge_of(z, dims):
    """Z(dims) for z a list of ((re_a, re_b), (im_a, im_b)) values."""
    re_a = re_b = im_a = im_b = Fraction(0)
    for n, (re, im) in zip(dims, z):
        re_a += n * re[0]
        re_b += n * re[1]
        im_a += n * im[0]
        im_b += n * im[1]
    return (re_a, re_b), (im_a, im_b)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


# --- session documents ---------------------------------------------------


def quiver_json(qname: str) -> dict:
    n, arrows = QUIVERS[qname]
    return {"vertices": n, "arrows": [{"name": a, "src": s, "tgt": t} for a, s, t in arrows]}


def _scalar_json(x):
    a, b = x
    if b == 0:
        return str(a)
    return {"a": str(a), "b": str(b)}


def charge_json(z) -> dict:
    return {"z": [{"re": _scalar_json(re), "im": _scalar_json(im)} for re, im in z]}


def random_maps(rng, qname: str, dims, p: int) -> dict:
    _, arrows = QUIVERS[qname]
    return {
        a: [[rng.randrange(p) for _ in range(dims[s - 1])] for _ in range(dims[t - 1])]
        for a, s, t in arrows
    }


def _bounded_value(rng, quad_d=None):
    """A charge value whose argument lies in [0.3, pi - 0.3].

    The margin keeps every value in the upper half-plane after the small
    rotations the deform operations apply.
    """
    while True:
        im = (Fraction(rng.randint(1, 8), rng.randint(1, 4)), Fraction(0))
        re = (im[0] * Fraction(rng.randint(-12, 12), 4), Fraction(0))
        if quad_d is not None and rng.random() < 0.7:
            re = (re[0], Fraction(rng.randint(-4, 4), 4))
            im = (im[0], Fraction(rng.randint(0, 3), 8))
        x, y = q_float(re, quad_d or 0), q_float(im, quad_d or 0)
        if y > 0 and 0.3 <= math.atan2(y, x) <= math.pi - 0.3:
            return re, im


def random_charge(rng, n: int, quad_d=None):
    return [_bounded_value(rng, quad_d) for _ in range(n)]


def rotate_charge(z, c):
    """(1 + c) * z exactly, for c = (c_re, c_im) rational."""
    c_re, c_im = c
    out = []
    for re, im in z:
        new_re = tuple((1 + c_re) * re[i] - c_im * im[i] for i in range(2))
        new_im = tuple((1 + c_re) * im[i] + c_im * re[i] for i in range(2))
        out.append((new_re, new_im))
    return out


def alignment_poly(z0, z1, alpha, beta):
    """(q0, q1, q2) with cross(Z_t(alpha), Z_t(beta)) = q0 + q1 t + q2 t^2
    along Z_t = (1 - t) z0 + t z1 (rational charges only)."""
    def lin(dims):
        (r0, _), (i0, _) = charge_of(z0, dims)
        (r1, _), (i1, _) = charge_of(z1, dims)
        return (r0, i0), (r1 - r0, i1 - i0)

    (ar, ai), (br, bi) = lin(alpha)
    (cr, ci), (dr, di) = lin(beta)
    q0 = ar * ci - ai * cr
    q1 = ar * di - ai * dr + br * ci - bi * cr
    q2 = br * di - bi * dr
    return q0, q1, q2


def proportional(a, b) -> bool:
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def auto_pairs(dims):
    """The (proper sub-vector, total) pairs the CLI walls command tracks."""
    out = []
    for beta in itertools.product(*[range(d + 1) for d in dims]):
        if not any(beta) or beta == tuple(dims) or proportional(beta, dims):
            continue
        out.append((beta, tuple(dims)))
    return out


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def irrational_walls(z0, z1, track_dims) -> int:
    """Number of quadratic-irrational alignment roots strictly inside (0, 1)."""
    count = 0
    for dims in track_dims:
        for alpha, beta in auto_pairs(dims):
            q0, q1, q2 = alignment_poly(z0, z1, alpha, beta)
            if q2 == 0:
                continue
            disc = q1 * q1 - 4 * q0 * q2
            if disc <= 0 or _is_square(disc.numerator * disc.denominator):
                continue
            for sgn in (-1, 1):
                t = (-float(q1) + sgn * math.sqrt(float(disc))) / (2 * float(q2))
                if 0.001 < t < 0.999:
                    count += 1
    return count


def wall_path(rng, n: int, track_dims):
    """Rational endpoint charges whose path crosses at least one
    quadratic-irrational wall of the tracked classes."""
    while True:
        z0, z1 = random_charge(rng, n), random_charge(rng, n)
        if irrational_walls(z0, z1, track_dims):
            return z0, z1


# Dimension vectors of the generated reps R1..R7 by number of vertices.
# They are fixed so that sessions of one seed cost about what sessions of
# another cost; R1 and R2 are tracked along wall paths and need support
# on two vertices, or no pair of their classes has a wall.
REP_DIMS = {
    2: ((1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2), (1, 1)),
    3: ((1, 1, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 0, 1), (0, 2, 1)),
}


def session(rng, qname: str, p: int, quad_d, n_paths: int):
    """A generated session: simples, seven reps R1..R7 with random maps,
    charges Z0 and Z1, their small rotations W0 = (1 + c0) Z0 and
    W1 = (1 + c1) Z1, four complexes, a testset T and ``n_paths`` rational
    charge paths, each crossing at least one quadratic-irrational wall of
    the tracked reps R1 and R2.

    Returns ``(doc, meta)``: ``meta`` is :func:`doc_meta` plus the
    rotations and the path data the checks need.
    """
    n, _ = QUIVERS[qname]
    reps = {}
    for v in range(n):
        reps[f"S{v + 1}"] = {"dims": [1 if i == v else 0 for i in range(n)], "maps": {}}
    for i, dims in enumerate(REP_DIMS[n]):
        reps[f"R{i + 1}"] = {"dims": list(dims), "maps": random_maps(rng, qname, dims, p)}
    z0 = random_charge(rng, n, quad_d)
    z1 = random_charge(rng, n, quad_d)
    c0, c1 = (
        (Fraction(rng.randint(-3, 3), 100), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 100))
        for _ in range(2)
    )
    charges = {"Z0": charge_json(z0), "Z1": charge_json(z1),
               "W0": charge_json(rotate_charge(z0, c0)), "W1": charge_json(rotate_charge(z1, c1))}
    track = ["R1", "R2"]
    track_dims = [tuple(reps[t]["dims"]) for t in track]
    paths, path_meta = {}, {}
    for i in range(n_paths):
        a, b = wall_path(rng, n, track_dims)
        charges[f"P{i}a"] = charge_json(a)
        charges[f"P{i}b"] = charge_json(b)
        paths[f"p{i}"] = {"from": f"P{i}a", "to": f"P{i}b", "track": track}
        path_meta[f"p{i}"] = (a, b, track_dims)
    doc = {
        "quiver": quiver_json(qname),
        "field": f"F{p}",
        **({"D": quad_d} if quad_d is not None else {}),
        "reps": reps,
        "charges": charges,
        "complexes": {
            "C1": {"parts": {"1": "R3"}},
            "C2": {"parts": {"0": "S2", "1": "S1"}},
            "C3": {"parts": {"0": "R4", "2": "R5"}},
            "C4": {"parts": {"-1": "R6"}},
        },
        "testsets": {"T": ["S1", "S2", "R1", "R2", "R7", "C1", "C2", "C4"]},
        "paths": paths,
    }
    meta = doc_meta(doc)
    meta.update(rotations={"W0": c0, "W1": c1}, paths=path_meta)
    return doc, meta


def parse_scalar(raw):
    if isinstance(raw, dict):
        return Fraction(raw["a"]), Fraction(raw["b"])
    return Fraction(raw), Fraction(0)


def doc_meta(doc) -> dict:
    """Exact charge values, arrows and objects read off a session
    document, for the checks."""
    return {
        "arrows": [(a["name"], a["src"], a["tgt"]) for a in doc["quiver"]["arrows"]],
        "p": int(doc["field"][1:]),
        "d": doc.get("D"),
        "z": {name: [(parse_scalar(v["re"]), parse_scalar(v["im"])) for v in c["z"]]
              for name, c in doc["charges"].items()},
        "reps": doc["reps"],
        "complexes": doc.get("complexes", {}),
        "testsets": doc.get("testsets", {}),
    }


# --- fuzz family ---------------------------------------------------------


FUZZ_FIELDS = (2, 3)
FUZZ_PER_STRATUM = 21  # instances per (quiver, field) in one round


def fuzz_dims(qname: str):
    """The dimension vectors of the acceptance family on one quiver: at
    most 4 per vertex and 1..6 in total.  The family draws one of them
    uniformly (by rejection sampling)."""
    n, _ = QUIVERS[qname]
    return [dims for dims in itertools.product(range(5), repeat=n) if 0 < sum(dims) <= 6]


def family_charge(rng, n: int, max_den: int = 16):
    """Charge values as the acceptance family draws them: rational, with
    denominators at most 16 and an occasional value on the negative real
    axis."""
    z = []
    for _ in range(n):
        if rng.random() < 0.05:
            z.append(((Fraction(-rng.randint(1, max_den)), Fraction(0)), ZERO))
        else:
            re = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
            im = Fraction(rng.randint(1, max_den), rng.randint(1, max_den))
            z.append(((re, Fraction(0)), (im, Fraction(0))))
    return z


def fuzz_round(seed: int, r: int):
    """Round r: FUZZ_PER_STRATUM fresh instances for each (quiver, field).

    The acceptance family draws the quiver and the field uniformly, so each
    (quiver, field) gets the same number of instances.  It draws the
    dimension vector uniformly among the quiver's, so the vectors of a
    (quiver, field) are dealt from a seeded cyclic order, continued from
    round to round: after any number of rounds, no vector has been used
    more than once more than any other.  A2 and K2 have 21 vectors, so
    every round holds each of them once; A3 has 71.
    """
    out = []
    for qname in sorted(QUIVERS):
        n, _ = QUIVERS[qname]
        for p in FUZZ_FIELDS:
            order = fuzz_dims(qname)
            rng_for("fuzz-hn-order", seed, qname, p).shuffle(order)
            rng = rng_for("fuzz-hn", seed, r, qname, p)
            for k in range(r * FUZZ_PER_STRATUM, (r + 1) * FUZZ_PER_STRATUM):
                dims = order[k % len(order)]
                out.append({
                    "quiver": qname, "p": p, "dims": dims,
                    "maps": random_maps(rng, qname, dims, p),
                    "z": family_charge(rng, n),
                })
    return out


# --- scale ladder --------------------------------------------------------

# (quiver, p, dims, construction, command, phase order), cheapest first.
# "ss" is the semisimple representation (all maps zero); "chain" is a
# direct sum of copies of the projective with identity maps along the
# arrows (A2 and A3 only), written in a seeded random basis at every
# vertex.  Four small rungs, seven middle ones (0.7-1.3 s), four large
# ones of about 2 s and the top one: the median operation falls in the
# middle of the middle group and the 90th percentile between the two
# largest of the large group, so neither hangs on a single sample.
LADDER = (
    ("A3", 7, (2, 2, 2), "chain", "hn", "ascending"),
    ("A2", 5, (2, 3), "ss", "hn", "descending"),
    ("A2", 2, (0, 6), "ss", "semistable", "aligned"),
    ("A3", 3, (0, 0, 5), "ss", "semistable", "aligned"),
    ("A2", 7, (3, 3), "chain", "hn", "ascending"),
    ("A2", 5, (1, 4), "ss", "hn", "descending"),
    ("K2", 5, (1, 4), "ss", "hn", "ascending"),
    ("A3", 7, (1, 2, 3), "ss", "hn", "ascending"),
    ("A3", 7, (3, 2, 1), "ss", "hn", "descending"),
    ("A2", 5, (3, 3), "ss", "hn", "ascending"),
    ("K2", 5, (3, 3), "ss", "hn", "descending"),
    ("K2", 7, (1, 4), "ss", "hn", "descending"),
    ("A2", 5, (5, 0), "ss", "semistable", "aligned"),
    ("A2", 5, (2, 4), "ss", "hn", "ascending"),
    ("K2", 5, (2, 4), "ss", "hn", "descending"),
    ("A2", 7, (0, 5), "ss", "semistable", "aligned"),
)
# The order in which a round runs the rungs (indices into LADDER): the
# middle and large rungs are spread before and after the top one, so the
# median and the 90th percentile do not hang on one stretch of the host's
# speed.
RUN_ORDER = (5, 11, 0, 9, 6, 12, 1, 4, 15, 7, 13, 2, 10, 8, 14, 3)


def _cross(z1, z2):
    return z1[0][0] * z2[1][0] - z1[1][0] * z2[0][0]


def ordered_charge(rng, n: int, order: str):
    """Seeded charge whose simple phases follow ``order``: "aligned" (all
    equal), "descending" or "ascending" in the vertex index.  The order
    fixes the rung's verdict or HN shape, and so its work, for every seed."""
    if order == "aligned":
        (re, im), = random_charge(rng, 1)
        return [((re[0] * r, Fraction(0)), (im[0] * r, Fraction(0)))
                for r in (Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n))]
    while True:
        z = random_charge(rng, n)
        if all(_cross(a, b) != 0 for a, b in itertools.combinations(z, 2)):
            break
    # by argument, largest first: a larger argument has a negative cross
    z.sort(key=lambda w: math.atan2(float(w[1][0]), float(w[0][0])), reverse=(order == "descending"))
    return z


def _mat_mul_mod(a, b, p: int):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _inverse_mod(m, p: int):
    """Inverse of a square matrix over F_p, or None when it is singular."""
    k = len(m)
    aug = [row[:] + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def chain_maps(rng, qname: str, dims, p: int) -> dict:
    """Identity maps along the arrows, conjugated by a seeded change of
    basis at every vertex, so the module is the same up to isomorphism."""
    _, arrows = QUIVERS[qname]
    k = dims[0]
    bases, inverses = [], []
    while len(bases) < len(dims):
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        inv = _inverse_mod(m, p)
        if inv is not None:
            bases.append(m)
            inverses.append(inv)
    return {a: _mat_mul_mod(bases[t - 1], inverses[s - 1], p) for a, s, t in arrows}


def ladder(seed: int):
    """The rungs of the scale ladder with seeded charges and bases."""
    rng = rng_for("scale-ladder", seed)
    out = []
    for qname, p, dims, kind, command, order in LADDER:
        n, _ = QUIVERS[qname]
        maps = chain_maps(rng, qname, dims, p) if kind == "chain" else {}
        z = ordered_charge(rng, n, order)
        doc = {
            "quiver": quiver_json(qname), "field": f"F{p}",
            "reps": {"R": {"dims": list(dims), "maps": maps}},
            "charges": {"Z": charge_json(z)},
        }
        out.append({"quiver": qname, "p": p, "dims": dims, "kind": kind,
                    "command": command, "z": z, "doc": doc})
    return out
