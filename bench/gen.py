"""Seeded inputs for the benchmark, and their expected outputs in plain Python.

Nothing here imports arrac.  Values are plain Python objects (``int``,
``float``, ``str``, ``None`` for undef, ``tuple`` for tuple values and
:class:`Nested` for nested arrays) and arrays are ``{index: value}`` dicts.
:func:`dumps` writes the canonical exchange text from them, so every
reference the benchmark checks against is computed without the code under
test.  The same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib
import random

# Shares, in percent, of each value tag in the mixed arrays.  Fixed: the
# cost of parsing and printing depends on it.
MIX = {"int": 30, "float": 20, "str": 20, "undef": 5, "tuple": 20, "array": 5}
SCALAR_MIX = {"int": 40, "float": 25, "str": 25, "undef": 10}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only keeps
# the smoke test quick.  Fixed once: retuning them would move every metric.
SIZES = {
    "full": {
        "big": 2400,   # mixed, in every query catalog, touched by no query
        "v": 400,      # scalar mix: coordinate and value selects, joins (left)
        "t": 200,      # (int, str, float) tuples: item selects, joins (right)
        "p": 150,      # union operands, agreeing on their overlap
        "s": 160,      # cross(S, S) builds s * s pairs
        "src": 1600,   # mixed, split by vertical partition
        "frags": 40,   # vertical fragments
        "tup": 1200,   # 4-tuples, split by horizontal partition
        "load": 1200,  # mixed, loaded into the catalog
    },
    "tiny": {
        "big": 60, "v": 40, "t": 20, "p": 15, "s": 8,
        "src": 80, "frags": 8, "tup": 40, "load": 30,
    },
}

WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta")
# Characters that need escaping or that a careless parser splits on.
TRICKY = ('"', "\\", "\n", "\t", "\r", " -> ", ";", ",", "}", "é", "λ")
HSLICES = ((0, 2), (1,), (3,))
CROSS = "select(cross(S, S), dim0 = dim2)"
CROSS_COPIES = 6


class Nested:
    """A nested array value: arity plus an ``{index: value}`` dict."""

    __slots__ = ("arity", "assoc")

    def __init__(self, arity, assoc):
        self.arity = arity
        self.assoc = assoc


# --- canonical text ------------------------------------------------------

_ESC = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote(s: str) -> str:
    return '"' + "".join(_ESC.get(ch, ch) for ch in s) + '"'


def fmt(v) -> str:
    """The exchange-format term for one value."""
    if v is None:
        return "undef"
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, int):
        return f"int:{v}"
    if isinstance(v, float):
        return f"float:{v!r}"
    if isinstance(v, str):
        return "str:" + quote(v)
    if isinstance(v, tuple):
        return "tuple(" + ",".join(fmt(x) for x in v) + ")"
    body = "".join(
        f"; {','.join(map(str, i))} -> {fmt(x)}" for i, x in sorted(v.assoc.items())
    )
    return f"array{{arity={v.arity}{body}}}"


def dumps(arity: int, assoc: dict) -> str:
    """Canonical exchange text of an array: header, then sorted body lines."""
    lines = [f"arrac v1 arity={arity} count={len(assoc)}\n"]
    for index, value in sorted(assoc.items()):
        lines.append(f"{','.join(map(str, index))} -> {fmt(value)}\n")
    return "".join(lines)


# --- value generation ----------------------------------------------------


def _pick(rng, shares: dict) -> str:
    return rng.choices(list(shares), weights=list(shares.values()))[0]


def _int(rng):
    return rng.randint(-10**20, 10**20) if rng.random() < 0.1 else rng.randint(-999999, 999999)


def _float(rng):
    if rng.random() < 0.2:
        return rng.uniform(1, 10) * 10.0 ** rng.randint(-30, 30)
    return round(rng.uniform(-10000, 10000), rng.randint(0, 6)) or 0.5


def _str(rng):
    parts = []
    for _ in range(rng.randint(0, 4)):
        parts.append(rng.choice(WORDS))
        if rng.random() < 0.4:
            parts.append(rng.choice(TRICKY))
    return "".join(parts)


def _scalar(rng, tag):
    if tag == "int":
        return _int(rng)
    if tag == "float":
        return _float(rng)
    if tag == "str":
        return _str(rng)
    return None


def value(rng, shares=MIX):
    tag = _pick(rng, shares)
    if tag == "tuple":
        return tuple(value(rng, SCALAR_MIX) for _ in range(rng.randint(2, 3)))
    if tag == "array":
        coords = rng.sample(range(50), rng.randint(1, 3))
        return Nested(1, {(c,): value(rng, SCALAR_MIX) for c in coords})
    return _scalar(rng, tag)


def indexes(rng, n: int, rows: int, cols: int) -> list:
    return [divmod(k, cols) for k in rng.sample(range(rows * cols), n)]


def array(rng, n, rows, cols, make):
    return {i: make(rng) for i in indexes(rng, n, rows, cols)}


# --- workload inputs -----------------------------------------------------


class Inputs:
    """Every generated input of one seed and scale, plus its sha256."""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.sizes = dict(SIZES[scale])
        sz = self.sizes
        rng = random.Random(seed)
        self.arrays = {}  # name -> {index: value}, all arity 2
        a = self.arrays
        a["BIG"] = array(rng, sz["big"], 400, 400, value)
        a["V"] = array(rng, sz["v"], 100, 60, lambda r: value(r, SCALAR_MIX))
        a["T"] = array(
            rng, sz["t"], 100, 40,
            lambda r: (r.randint(0, 999), r.choice(WORDS), _float(r)),
        )
        p = array(rng, sz["p"], 60, 60, lambda r: value(r, SCALAR_MIX))
        # Q shares a third of P's indices with equal values, so union(P, Q)
        # succeeds; X disagrees with P at exactly one index.
        shared = sorted(p)[: len(p) // 3]
        q = {i: p[i] for i in shared}
        for i, v in array(rng, sz["p"], 60, 60, lambda r: value(r, SCALAR_MIX)).items():
            if i not in p:
                q[i] = v
        a["P"], a["Q"] = p, q
        clash = shared[0]
        a["X"] = {clash: ("clash", fmt(p[clash]))}
        a["S"] = array(rng, sz["s"], 30, 30, lambda r: r.randint(0, 99))
        self.queries = self._queries(rng)

        # partition inputs
        a["SRC"] = array(rng, sz["src"], 200, 100, value)
        a["TUP"] = array(
            rng, sz["tup"], 200, 100,
            lambda r: (r.randint(0, 99), r.choice(WORDS), _float(r), value(r, SCALAR_MIX)),
        )
        self.vpreds = vertical_predicates(sz["frags"])
        self.hslices = HSLICES
        self.hslices_text = "[" + ", ".join(
            "{" + ", ".join(map(str, s)) + "}" for s in HSLICES
        ) + "]"
        self.push_item = (0, rng.randint(20, 80))  # val[0] >= c, on TUP
        self.load_texts = [
            dumps(2, array(rng, sz["load"], 200, 100, value)) for _ in range(4)
        ]
        self.texts = {name: dumps(2, arr) for name, arr in a.items()}
        h = hashlib.sha256()
        for name in sorted(self.texts):
            h.update(name.encode() + b"\0" + self.texts[name].encode("utf-8"))
        for text in self.load_texts + [q.text for q in self.queries] + self.vpreds:
            h.update(text.encode("utf-8") + b"\0")
        self.sha256 = h.hexdigest()

    # Each query is (text, expected exit code, expected output text or None).
    def _queries(self, rng) -> list:
        a = self.arrays
        V, T, P, Q, S = a["V"], a["T"], a["P"], a["Q"], a["S"]
        c1 = rng.randint(30, 70)
        c2, c3 = rng.randint(10, 50), rng.randint(0, 99)
        strs = sorted(v for v in V.values() if isinstance(v, str))
        s_lit = rng.choice(strs)
        k_int = rng.randint(0, 500000)
        item_k = rng.randint(300, 700)
        word = rng.choice(WORDS)
        proj = sorted(rng.sample(sorted(V), 15)) + [(999, 999), (0, 59)]
        c4 = rng.randint(20, 40)

        def sel(arr, keep):
            return dumps(2, {i: v for i, v in arr.items() if keep(i, v)})

        def ints(v):
            return isinstance(v, int)

        def join(x, y, on):
            return {
                i + j: (d, e)
                for i, d in x.items() for j, e in y.items()
                if all(i[p] == j[q] for p, q in on)
            }

        t_keys = {j[0] for j in T}

        union_pq = dict(P)
        union_pq.update(Q)
        union_nested = {i: v for i, v in P.items() if i[0] < c4}
        union_nested.update(Q)
        cross_out = dumps(4, join(S, S, [(0, 0)]))
        q = [
            Query(f"select(V, dim0 < {c1})", 0, sel(V, lambda i, v: i[0] < c1)),
            Query(
                f"select(V, dim1 >= {c2} and dim0 != {c3})", 0,
                sel(V, lambda i, v: i[1] >= c2 and i[0] != c3),
            ),
            Query(
                f"select(V, val = {quote(s_lit)})", 0,
                sel(V, lambda i, v: isinstance(v, str) and v == s_lit),
            ),
            Query(
                f"select(V, val > {k_int})", 0,
                sel(V, lambda i, v: ints(v) and v > k_int),
            ),
            Query(
                f"select(T, val[0] >= {item_k})", 0,
                sel(T, lambda i, v: v[0] >= item_k),
            ),
            Query(
                f"select(T, val[1] = {quote(word)})", 0,
                sel(T, lambda i, v: v[1] == word),
            ),
            Query(
                "project(V, {" + ", ".join(f"({i}, {j})" for i, j in proj) + "})", 0,
                dumps(2, {i: V[i] for i in proj if i in V}),
            ),
            Query(
                "transform(V, [permute(1, 0), translate(0, 5)])", 0,
                dumps(2, {(j + 5, i): v for (i, j), v in V.items()}),
            ),
            Query("union(P, Q)", 0, dumps(2, union_pq)),
            Query(f"union(select(P, dim0 < {c4}), Q)", 0, dumps(2, union_nested)),
            Query("equijoin(V, T, on(0:0))", 0, dumps(4, join(V, T, [(0, 0)]))),
            Query(
                "semijoin(V, T, on(0:0))", 0,
                sel(V, lambda i, v: i[0] in t_keys),
            ),
            Query(
                "antijoin(V, T, on(0:0))", 0,
                sel(V, lambda i, v: i[0] not in t_keys),
            ),
            Query("select(V, dim0 <", 2, None),
            Query("union(V, NOPE)", 3, None),
            Query("union(P, X)", 4, None),
        ]
        # six cross queries spread evenly among the sixteen others: with
        # more than a tenth of the operations, the p90 latency falls inside
        # them, and six give it enough samples to be steady
        cycle = []
        for k, query in enumerate(q):
            cycle.append(query)
            if (k + 1) * CROSS_COPIES // len(q) > k * CROSS_COPIES // len(q):
                cycle.append(Query(CROSS, 0, cross_out))
        return cycle

    def provenance(self) -> dict:
        return {
            "seed": self.seed,
            "scale": self.scale,
            "sizes": self.sizes,
            "value_mix_pct": MIX,
            "scalar_mix_pct": SCALAR_MIX,
            "inputs_sha256": self.sha256,
        }


class Query:
    __slots__ = ("text", "exit", "expected")

    def __init__(self, text, exit_code, expected):
        self.text = text
        self.exit = exit_code
        self.expected = expected


def vertical_predicates(k: int) -> list:
    """k disjoint, exhaustive index predicates over a 200 x 100 grid.

    Stripes of dim0, each cut in two on dim1, so every predicate is a
    conjunction of up to three coordinate comparisons.
    """
    stripes = k // 2
    width = 200 // stripes
    preds = []
    for s in range(stripes):
        lo, hi = s * width, (s + 1) * width
        if s == 0:
            rows = f"dim0 < {hi}"
        elif s == stripes - 1:
            rows = f"dim0 >= {lo}"
        else:
            rows = f"dim0 >= {lo} and dim0 < {hi}"
        preds += [f"{rows} and dim1 < 50", f"{rows} and dim1 >= 50"]
    return preds


def vertical_fragments(assoc: dict, k: int) -> list:
    """Reference fragments of :func:`vertical_predicates`, in order."""
    stripes = k // 2
    width = 200 // stripes
    frags = [{} for _ in range(2 * stripes)]
    for (i, j), v in assoc.items():
        s = min(i // width, stripes - 1)
        frags[2 * s + (j >= 50)][(i, j)] = v
    return frags


def horizontal_fragments(assoc: dict, slices) -> list:
    """Reference fragments of a horizontal split: a singleton slice keeps the
    bare component, a wider one a tuple of its components."""
    out = []
    for s in slices:
        if len(s) == 1:
            out.append({i: v[s[0]] for i, v in assoc.items()})
        else:
            out.append({i: tuple(v[p] for p in s) for i, v in assoc.items()})
    return out
