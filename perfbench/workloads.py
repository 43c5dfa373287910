"""The three benchmark workloads and the known answers they are checked against.

Each workload turns a seed into inputs with this module's own code and hands
the package only those inputs.  ``Workload.pass_queries()`` returns one
pass's query list as ``(label, fn)`` pairs, the same inputs every pass;
``fn()`` runs one query and returns ``(ok, lines)``: whether the answer
matched the known answer, and the report lines that go into the output
digest.  Anything the package
returns is reached through module attributes at call time, so the tracer's
wrappers see every call.

nerve-cli       the CLI user: ``cli.run`` on JSON documents written beforehand
quotient-solve  the library user solving freshly built group quotients
cochain-stream  many small operations on long-lived gallery presentations
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

from diffcech import (average, bundle, cech, cli, coeff, funclass, gallery,
                      grpcoh, presentation, serialize)

# --------------------------------------------------------------------------
# sizes

SIZES = {
    "full": {
        "nerve": {
            # (n, coefficient tags, degrees) for n x n tori at k_max = 2
            "tori": [(n, ["Z", "Z/2", "Z/3"], [0, 1]) for n in (3, 4, 5, 6)]
                    + [(7, ["Z"], [0, 1]), (9, ["Z"], [1])],
            "tori_h2": [(3, ["Z", "Z/2"]), (4, ["Z"]), (5, ["Z"])],
            "tori_full": [(3, ["Z", "Z/2"]), (4, ["Z"])],
            "tori_ralpha": [3],
            "circles": [(m, ["Z", "Z/2"], [0, 1]) for m in (3, 4, 6, 9, 13, 19, 28, 40)],
            "iso_tori": [3, 4, 5],
            "iso_circles": [6, 28],
        },
        "quotient": {
            "itorus": [1, 2, 3, 4],
            "lattice": [1],
            "z2": [1, 2, 3],
            "z4": [(1, [1, 2]), (2, [1])],
            "ladder": [(d, [1, 2, 4, 8, 16]) for d in (1, 2, 3, 4)]
                      + [(3, [32, 64])],
        },
        "stream": {"dd": 2, "roundtrip": 5, "crossed": 10, "average": 8,
                   "equal_nerve": 3, "equal_quotient": 3, "pullback": 6},
    },
    "tiny": {
        "nerve": {
            "tori": [(3, ["Z", "Z/2"], [0, 1])],
            "tori_h2": [(3, ["Z"])],
            "tori_full": [(3, ["Z"])],
            "tori_ralpha": [3],
            "circles": [(m, ["Z"], [0, 1]) for m in (3, 5)],
            "iso_tori": [3],
            "iso_circles": [5],
        },
        "quotient": {
            "itorus": [1],
            "lattice": [1],
            "z2": [1],
            "z4": [(1, [1])],
            "ladder": [(1, [1, 2, 4])],
        },
        "stream": {"dd": 1, "roundtrip": 1, "crossed": 2, "average": 1,
                   "equal_nerve": 1, "equal_quotient": 1, "pullback": 1},
    },
}


def _group_desc(betti: int, tag: str) -> str:
    """Closed-form description of a torsion-free H^k with the given rank."""
    if betti == 0:
        return "0"
    if tag == "Z":
        return "Z" if betti == 1 else f"Z^{betti}"
    if tag == "R(alpha)":
        return f"R^{betti}"
    return " x ".join([tag] * betti)


# --------------------------------------------------------------------------
# nerve documents, built without the package


def _torus_facets(n):
    def v(i, j):
        return n * (i % n) + (j % n)

    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            facets.append((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    return facets


def _circle_facets(m):
    return [(j, (j + 1) % m) for j in range(m)]


def _closure(facets):
    faces = set()
    for f in facets:
        for size in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in combinations(f, size))
    return faces


class NerveSpec:
    """A cover nerve (torus or circle) with a seeded relabelling of charts."""

    def __init__(self, space, n, rng):
        self.space = space
        self.n = n
        self.nverts = n * n if space == "torus" else n
        facets = _torus_facets(n) if space == "torus" else _circle_facets(n)
        self.perm = list(range(self.nverts))
        rng.shuffle(self.perm)
        self.faces = {frozenset(self.perm[v] for v in f)
                      for f in _closure(facets)}
        self.orig = {self.perm[v]: v for v in range(self.nverts)}
        self.name = f"{space}{n}"

    def doc(self, k_max, alternating=True):
        charts = [None] * self.nverts
        for v in range(self.nverts):
            charts[self.perm[v]] = f"{self.space[0]}{v}"
        alive = sorted((sorted(f) for f in self.faces),
                       key=lambda f: (len(f), f))
        return {"kind": "nerve", "name": self.name, "charts": charts,
                "alive": alive, "k_max": k_max, "alternating": alternating}

    def edges(self):
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == 2)

    def winding(self, a, b):
        """Seam-crossing count of the edge a -> b: a generator of H^1."""
        period = self.n
        x, y = self.orig[a] % period, self.orig[b] % period
        d = y - x
        delta = d if abs(d) <= 1 else d - period * (1 if d > 0 else -1)
        return (delta - d) // period

    def cocycle_values(self, mult, rng):
        """mult times the winding class plus the coboundary of a random
        0-cochain, over Z, keyed as in cochain documents."""
        g = [rng.randrange(-3, 4) for _ in range(self.nverts)]
        return {f"({a},{b})": str(mult * self.winding(a, b) + g[b] - g[a])
                for a, b in self.edges()}


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


class NerveCli:
    """Each query is one ``cli.run`` on documents written beforehand."""

    name = "nerve-cli"

    def __init__(self, seed, size, workdir):
        cfg = SIZES[size]["nerve"]
        rng = random.Random(f"nerve-cli:{seed}")
        os.makedirs(workdir, exist_ok=True)
        self.queries = []
        specs = {}

        def spec(space, n):
            if (space, n) not in specs:
                specs[space, n] = NerveSpec(space, n, rng)
            return specs[space, n]

        written = set()

        def doc_path(sp, k_max, alternating=True):
            path = os.path.join(
                workdir, f"{sp.name}-k{k_max}-{'alt' if alternating else 'full'}.json")
            if path not in written:
                _write(path, sp.doc(k_max, alternating))
                written.add(path)
            return path

        betti = {"torus": (1, 2, 1), "circle": (1, 1, 0)}

        def cohomology_query(sp, k, tag, k_max, alternating=True):
            path = doc_path(sp, k_max, alternating)
            b = betti[sp.space][k]
            want = f"H^{k}({sp.name}; {tag}) = {_group_desc(b, tag)}"
            argv = ["cohomology", "--degree", str(k), "--coeff", tag, path]
            label = f"cohomology {sp.name} k={k} {tag} k_max={k_max}" + (
                "" if alternating else " full")
            self.queries.append((label, _cli_query(argv, 0, want, b)))

        for n, tags, degrees in cfg["tori"]:
            for tag in tags:
                for k in degrees:
                    cohomology_query(spec("torus", n), k, tag, 2)
        for n, tags in cfg["tori_h2"]:
            for tag in tags:
                cohomology_query(spec("torus", n), 2, tag, 3)
        for n, tags in cfg["tori_full"]:
            for tag in tags:
                cohomology_query(spec("torus", n), 1, tag, 2, alternating=False)
        for n in cfg["tori_ralpha"]:
            cohomology_query(spec("torus", n), 1, "R(alpha)", 2)
        for m, tags, degrees in cfg["circles"]:
            for tag in tags:
                for k in degrees:
                    cohomology_query(spec("circle", m), k, tag, 2)

        iso = ([("torus", n) for n in cfg["iso_tori"]]
               + [("circle", m) for m in cfg["iso_circles"]])
        for space, n in iso:
            sp = spec(space, n)
            base = sp.doc(2)
            other = rng.choice([0, 2, -1, 3])
            paths = []
            for tag, mult in (("a", 1), ("b", 1), ("c", other)):
                path = os.path.join(workdir, f"bundle-{sp.name}-{tag}.json")
                _write(path, {"base": base, "group": "Z",
                              "cocycle": {"degree": 1,
                                          "values": sp.cocycle_values(mult, rng)}})
                paths.append(path)
            self.queries.append((f"isomorphic {sp.name} same class",
                                 _cli_query(["isomorphic", paths[0], paths[1]],
                                            0, "isomorphic", None)))
            self.queries.append((f"isomorphic {sp.name} x{other}",
                                 _cli_query(["isomorphic", paths[0], paths[2]],
                                            1, "distinct:", None)))
        rng.shuffle(self.queries)

    def pass_queries(self):
        return self.queries


def _cli_query(argv, want_code, want_line, want_gens):
    """One CLI call.  Its first report line must equal ``want_line`` and be
    followed by ``want_gens`` generator lines, or, with ``want_gens`` None,
    start with ``want_line``."""
    def run():
        lines = []
        code = cli.run(argv, out=lines.append)
        head = lines[2] if len(lines) > 2 else ""
        if want_gens is None:
            ok = head.startswith(want_line)
        else:
            ok = head == want_line and sum(
                ln.startswith("generator ") for ln in lines) == want_gens
        return code == want_code and ok, [f"exit {code}"] + lines[2:]

    return run


# --------------------------------------------------------------------------
# group quotients, built through the package API inside each query

S = coeff.Scalar


def _alpha_times(c):
    """The scalar c*a, built without scalar arithmetic."""
    return S((Fraction(0), Fraction(c))) if c else S(())


def _itorus(d):
    P, F = presentation, funclass
    return P.GroupQuotient(
        1, [P.Generator(0, F.AffineMap.translation([S.of(1)])),
            P.Generator(0, F.AffineMap.translation([_alpha_times(1)]))],
        True, d, f"irrational-torus-D{d}")


def _lattice(d, order):
    P, F = presentation, funclass
    shifts = [[S.of(1), S.of(0)], [S.of(0), S.of(1)],
              [_alpha_times(1), S.of(0)], [S.of(0), _alpha_times(1)]]
    return P.GroupQuotient(
        2, [P.Generator(0, F.AffineMap.translation(shifts[i])) for i in order],
        True, d, f"lattice2-D{d}")


def _z2(d):
    P, F = presentation, funclass
    return P.GroupQuotient(1, [P.Generator(2, F.AffineMap([[S.of(-1)]],
                                                          [S.of(0)]))],
                           False, d, f"z2-reflection-D{d}")


def _z4(d):
    P, F = presentation, funclass
    rot = F.AffineMap([[S.of(0), S.of(-1)], [S.of(1), S.of(0)]],
                      [S.of(0), S.of(0)])
    return P.GroupQuotient(2, [P.Generator(4, rot)], False, d,
                           f"z4-rotation-D{d}")


def _kappa(pres, c, slot=1):
    """The defining cocycle of the irrational torus bundle, scaled by c:
    kappa(m + n a) = n c a."""
    cls = pres.function_class()
    vals = {i: cls.zero() for i in range(pres.rank)}
    vals[slot] = cls.from_coordinates(
        [_alpha_times(c)] + [0] * (cls.dimension - 1))
    return cech.Cochain.crossed(pres, vals)


def _report_lines(label, rep):
    lines = [f"{label}: {rep.group_description()}"]
    lines.extend(json.dumps(r.to_dict(), sort_keys=True)
                 for r in rep.representatives)
    return lines


class QuotientSolve:
    """H^1, H^2, h1_group, trivializability and crossed evaluation on fresh
    group quotients; every query builds its own presentation."""

    name = "quotient-solve"

    def __init__(self, seed, size, workdir):
        cfg = SIZES[size]["quotient"]
        rng = random.Random(f"quotient-solve:{seed}")
        R = coeff.RAlphaGroup()
        q = self.queries = []

        def dim_query(label, build, k, want, via_h1_group=False):
            def run():
                pres = build()
                rep = (grpcoh.h1_group(pres) if via_h1_group
                       else cech.cohomology(pres, R, k))
                return rep.dimension == want, _report_lines(label, rep)

            q.append((label, run))

        for d in cfg["itorus"]:
            dim_query(f"H^1 irrational-torus D={d}", lambda d=d: _itorus(d),
                      1, 1)
            dim_query(f"h1_group irrational-torus D={d}",
                      lambda d=d: _itorus(d), 1, 1, via_h1_group=True)
            c = rng.choice([1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2)])
            q.append((f"is_trivializable kappa*{c} D={d}",
                      self._trivializable_query(d, c)))
        for d in cfg["lattice"]:
            order = list(range(4))
            rng.shuffle(order)
            dim_query(f"H^1 lattice2 D={d} order={order}",
                      lambda d=d, o=order: _lattice(d, o), 1, 2)
        for d in cfg["z2"]:
            for k in (1, 2):
                dim_query(f"H^{k} z2-reflection D={d}", lambda d=d: _z2(d), k, 0)
        for d, degrees in cfg["z4"]:
            for k in degrees:
                dim_query(f"H^{k} z4-rotation D={d}", lambda d=d: _z4(d), k, 0)
        for d, sizes in cfg["ladder"]:
            c = rng.choice([1, 2, -1, Fraction(1, 3), Fraction(5, 2)])
            for size in sizes:
                m = size * rng.choice([1, -1])
                n = size * rng.choice([1, -1])
                q.append((f"kappa*{c} q_value ({m},{n}) D={d}",
                          self._q_value_query(d, c, m, n)))
        rng.shuffle(q)

    @staticmethod
    def _trivializable_query(d, c):
        def run():
            pres = _itorus(d)
            res = bundle.is_trivializable(
                bundle.bundle_from_cocycle(pres, _kappa(pres, c)))
            ok = not res.equal and "no witness in class" in res.certificate
            return ok, [f"kappa*{c} D={d}: {res.certificate}"]

        return run

    @staticmethod
    def _q_value_query(d, c, m, n):
        want = {(0,): _alpha_times(n * c)} if n * c else {}

        def run():
            pres = _itorus(d)
            v = _kappa(pres, c).q_value(((m, n),))
            return v.terms == want, [f"kappa*{c}(({m},{n})) = {v}"]

        return run

    def pass_queries(self):
        return self.queries


# --------------------------------------------------------------------------
# cochain stream on per-pass copies of the gallery presentations

PRESENTATIONS = ["point", "circle3", "circle6", "torus9", "rp2",
                 "irrational-torus", "z2-reflection", "circle-rz", "line"]


class GalleryCopy:
    """Fresh copies of the gallery presentations and cocycles, built through
    the public serialize API.  They live for one pass, so the package's caches
    on them warm up over the pass and are dropped with it, and every pass
    repeats the same work."""

    def __init__(self):
        self.pres = {
            name: serialize.presentation_from_dict(
                serialize.presentation_to_dict(gallery.get_presentation(name)))
            for name in PRESENTATIONS
        }
        self.cocycles = {}
        for name in PRESENTATIONS:
            entry = gallery.get(name)
            self.cocycles[name] = [
                cech.Cochain.from_dict(self.pres[name], c.group, c.to_dict())
                for _, c in sorted(entry.cocycles.items())
            ]
        self.double_cover = presentation.PresentationMorphism(
            self.pres["circle6"], self.pres["circle3"],
            index_map=[j % 3 for j in range(6)], name="double-cover")


def _group_for(pres):
    return coeff.RAlphaGroup() if pres.kind == "quotient" else coeff.ZGroup()


def _nerve_sum(c):
    return sum(abs(v) for v in c.payload.values())


class CochainStream:
    """Criteria 01, 04, 06, 07 and 09 as a stream of small operations."""

    name = "cochain-stream"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.counts = SIZES[size]["stream"]

    def pass_queries(self):
        s = GalleryCopy()
        counts = self.counts
        ops = []
        for name in PRESENTATIONS:
            for k in range(3):
                ops += [("dd", name, k)] * counts["dd"]
        for name in ["circle3", "circle6", "torus9", "irrational-torus",
                     "z2-reflection", "circle-rz"]:
            ops += [("roundtrip", name, i) for i in range(counts["roundtrip"])]
        ops += [("crossed", "irrational-torus", 1)] * counts["crossed"]
        for k in (1, 2):
            ops += [("average", "z2-reflection", k)] * counts["average"]
        for name in ["circle3", "circle6", "torus9", "rp2"]:
            ops += [("equal", name, 1)] * counts["equal_nerve"]
            ops += [("distinct", name, 1)]
        for name in ["irrational-torus", "z2-reflection"]:
            ops += [("equal", name, 1)] * counts["equal_quotient"]
        ops += [("distinct", "irrational-torus", 1)]
        ops += [("pullback", "circle3", 1)] * counts["pullback"]
        random.Random(f"cochain-stream:{self.seed}").shuffle(ops)
        return [
            (f"{kind} {name} {arg}",
             self._op(s, kind, name, arg,
                      random.Random(f"cochain-stream:{self.seed}:{i}")))
            for i, (kind, name, arg) in enumerate(ops)
        ]

    @staticmethod
    def _op(s, kind, name, arg, rng):
        pres = s.pres[name]
        group = _group_for(pres)
        dist = s.cocycles[name]

        def dd():
            c = cech.random_cochain(pres, arg, group, rng)
            dc = cech.coboundary(c)
            ddc = cech.coboundary(dc)
            if pres.kind == "nerve":
                return ddc.is_zero(), [f"dd {name} {arg}: |dc|={_nerve_sum(dc)}"]
            if pres.is_finite():
                return ddc.is_zero(), [f"dd {name} {arg}: ok"]
            kt = tuple(pres.random_k(rng) for _ in range(arg + 2))
            v = ddc.q_value(kt)
            return v.is_zero(), [f"dd {name} {arg} at {kt}: {v}"]

        def roundtrip():
            f = cech.random_cocycle(pres, 1, group, rng, distinguished=dist)
            b = bundle.bundle_from_cocycle(pres, f)
            ok = (bundle.cocycle_from_bundle(b) - f).is_zero()
            if arg % 4 == 0:
                alpha = cech.random_cochain(pres, 0, group, rng)
                shifted = bundle.cocycle_from_bundle(b, alpha)
                ok = ok and (shifted - f - cech.coboundary(alpha)).is_zero()
            return ok, [f"roundtrip {name}: {json.dumps(f.to_dict(), sort_keys=True)}"]

        def crossed():
            f = cech.random_cocycle(pres, 1, group, rng, distinguished=dist)
            beta = grpcoh.crossed_from_cocycle(f)
            f2 = grpcoh.cocycle_from_crossed(beta)
            ok = all(beta.values[j] == f2.payload[j] for j in range(pres.rank))
            k = pres.random_k(rng)
            v = f2.q_value((k,))
            ok = ok and v == f.q_value((k,))
            return ok, [f"crossed at {k}: {v}"]

        def averaged():
            f = cech.random_cocycle(pres, arg, group, rng)
            gpd = average.FiniteTranslationGroupoid(pres)
            g = average.trivializing_homotopy(gpd, f)
            sign = 1 if arg % 2 == 0 else -1
            ok = (cech.coboundary(g) - f.scale_int(sign)).is_zero()
            return ok, [f"average k={arg}: {json.dumps(g.to_dict(), sort_keys=True)}"]

        def equal():
            f1 = cech.random_cocycle(pres, 1, group, rng, distinguished=dist)
            if pres.kind == "nerve" or pres.is_finite():
                f2 = f1 + cech.coboundary(cech.random_cochain(pres, 0, group, rng))
            else:
                f2 = dist[0]
                f1 = f2 + cech.coboundary(cech.random_cochain(pres, 0, group, rng))
            res = cech.classes_equal(f1, f2)
            ok = res.equal and (f1 + cech.coboundary(res.witness) - f2).is_zero()
            return ok, [f"equal {name}: {json.dumps(res.witness.to_dict(), sort_keys=True)}"]

        def distinct():
            # a nonzero class (H^2 = Z/2 on rp2, H^1 elsewhere) against zero
            if dist:
                gen = dist[0]
            else:
                k = 2 if name == "rp2" else 1
                gen = cech.cohomology(pres, group, k).representatives[0]
            f1 = gen + cech.coboundary(
                cech.random_cochain(pres, gen.degree - 1, group, rng))
            f2 = cech.zero_cochain(pres, gen.degree, group)
            res = cech.classes_equal(f1, f2)
            return not res.equal, [f"distinct {name}: {res.certificate}"]

        def pullback():
            mult = rng.choice([-3, -2, -1, 1, 2, 3])
            f = dist[0].scale_int(mult) + cech.coboundary(
                cech.random_cochain(pres, 0, group, rng))
            pulled = cech.pullback_cochain(s.double_cover, f)
            h1 = cech.cohomology(s.pres["circle6"], group, 1)
            coords = h1.class_coordinates(pulled)
            return coords == (2 * mult,), [f"pullback x{mult}: {coords}"]

        return {"dd": dd, "roundtrip": roundtrip, "crossed": crossed,
                "average": averaged, "equal": equal, "distinct": distinct,
                "pullback": pullback}[kind]


WORKLOADS = {w.name: w for w in (NerveCli, QuotientSolve, CochainStream)}
