"""Command line interface: exit codes, determinism, error reporting."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffcech import cech, gallery, serialize
from diffcech.cech import MAX_MATRIX_SIDE
from diffcech.cli import run
from diffcech.funclass import AffineMap
from diffcech.presentation import FiniteNerve, Generator, GroupQuotient

from test_cech import _torus_nerve
from test_reduce import _projective_planes


def _run(argv):
    lines = []
    code = run(argv, out=lines.append)
    return code, lines


def _value_doc(group, value):
    return {"presentation": "gallery:circle3", "group": group,
            "cochain": {"degree": 1, "values": {
                "(0,1)": value, "(0,2)": "0", "(1,2)": "0"}}}


def _qz_doc(value):
    return _value_doc("Q/Z", value)


class TestCohomology:
    def test_circle(self):
        code, lines = _run(["cohomology", "--degree", "1", "--coeff", "Z",
                            "gallery:circle3"])
        assert code == 0
        assert lines[0] == "diffcech cohomology"
        assert "H^1(circle3; Z) = Z" in lines

    def test_quotient(self):
        code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                            "R(alpha)", "gallery:irrational-torus"])
        assert code == 0
        assert any("R^1" in ln for ln in lines)

    def test_file_input(self, tmp_path):
        doc = serialize.presentation_to_dict(gallery.get_presentation("rp2"))
        p = tmp_path / "rp2.json"
        p.write_text(serialize.dumps(doc))
        code, lines = _run(["cohomology", "--degree", "2", "--coeff", "Z",
                            str(p)])
        assert code == 0
        assert any("Z/2" in ln for ln in lines)


    def test_negative_degree_on_quotients(self, tmp_path):
        # refused with the degree asked for, on finite and infinite K
        z4 = GroupQuotient(2, [Generator(4, AffineMap([[0, -1], [1, 0]],
                                                      [0, 0]))], free=False)
        p = tmp_path / "z4-rotation.json"
        p.write_text(serialize.dumps(serialize.presentation_to_dict(z4)))
        for source in ("gallery:z2-reflection", "gallery:irrational-torus",
                       str(p)):
            code, lines = _run(["cohomology", "--degree", "-1", "--coeff",
                                "R(alpha)", source])
            assert code == 2, source
            assert lines[2:] == ["error: quotient cohomology has no degree -1"]

    @pytest.mark.parametrize("degree,coeff,message", [
        ("1", "Z", "quotient cohomology uses the R model coefficients"),
        ("2", "R(alpha)", "infinite-group quotient cohomology is supported "
                          "in degrees 0 and 1"),
    ])
    def test_quotient_refusals(self, degree, coeff, message):
        code, lines = _run(["cohomology", "--degree", degree, "--coeff", coeff,
                            "gallery:irrational-torus"])
        assert code == 2
        assert lines[2:] == [f"error: {message}"]


class TestCheckCocycle:
    def test_yes(self):
        code, lines = _run(["check-cocycle", "gallery:circle3#winding1"])
        assert code == 0
        assert any(ln.startswith("cocycle: yes") for ln in lines)

    def test_no(self, tmp_path):
        pres_doc = serialize.presentation_to_dict(
            gallery.get_presentation("torus9"))
        vals = {f"({i},{j})": "0"
                for (i, j) in gallery.get_presentation("torus9").tuples(1)}
        first = sorted(vals)[0]
        vals[first] = "1"
        doc = {"presentation": pres_doc, "group": "Z",
               "cochain": {"degree": 1, "values": vals}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 1
        assert any("counterexample" in ln for ln in lines)

    def test_widened_function(self, tmp_path):
        # a degree-0 value may use the one extra degree a witness needs
        # (D = 3 on the irrational torus), and no more
        p = tmp_path / "wide.json"
        doc = {"presentation": "gallery:irrational-torus", "group": "R(alpha)",
               "cochain": {"degree": 0, "function": "x0^4"}}
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 1
        assert lines[2].startswith("cocycle: no, counterexample at g1: ")
        doc["cochain"]["function"] = "x0^5"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 2
        assert lines[2] == "error: monomial (5,) exceeds max degree 4"


class TestBundles:
    def test_classify_nontrivial(self):
        code, lines = _run(["classify-bundle",
                            "gallery:irrational-torus-bundle"])
        assert code == 0
        assert any("nontrivial in class D=3" in ln for ln in lines)

    def test_isomorphic_self(self):
        code, lines = _run(["isomorphic", "gallery:circle3-winding1-bundle",
                            "gallery:circle3-winding1-bundle"])
        assert code == 0
        assert lines[-2] == "isomorphic"

    def test_distinct_classes(self, tmp_path):
        doc = {"base": "gallery:circle3", "group": "Z",
               "cocycle": {"degree": 1,
                           "values": {"(0,1)": "0", "(0,2)": "0",
                                      "(1,2)": "0"}}}
        p = tmp_path / "trivial.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["isomorphic", "gallery:circle3-winding1-bundle",
                            str(p)])
        assert code == 1
        assert any(ln.startswith("distinct") for ln in lines)


class TestSharedBase:
    """isomorphic builds the base once when both documents hold the same
    base field, and builds two otherwise, with the same report."""

    @staticmethod
    def _bundles(tmp_path, alive2=None):
        base = serialize.presentation_to_dict(gallery.get_presentation("circle6"))
        winding = {"(0,1)": "0", "(0,5)": "-1", "(1,2)": "0", "(2,3)": "0",
                   "(3,4)": "0", "(4,5)": "0"}
        # b differs from a by d(g) for g = 3 on chart 2, c is twice a
        shifted = dict(winding, **{"(1,2)": "3", "(2,3)": "-3"})
        doubled = dict(winding, **{"(0,5)": "-2"})
        paths = []
        for name, values, alive in (("a", winding, None),
                                    ("b", shifted, alive2),
                                    ("c", doubled, alive2)):
            doc = {"base": dict(base, alive=alive or base["alive"]),
                   "group": "Z", "cocycle": {"degree": 1, "values": values}}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return paths

    @staticmethod
    def _counted(monkeypatch):
        built = []
        init = FiniteNerve.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FiniteNerve, "__init__", counting)
        return built

    def test_equal_bases_are_built_once(self, tmp_path, monkeypatch):
        a, b, c = self._bundles(tmp_path)
        built = self._counted(monkeypatch)
        code, lines = _run(["isomorphic", a, b])
        assert code == 0 and lines[2] == "isomorphic"
        assert len(built) == 1
        code, lines = _run(["isomorphic", a, c])
        assert code == 1 and lines[2].startswith("distinct: ")
        assert len(built) == 2

    def test_reordered_base_is_built_again_alike(self, tmp_path, monkeypatch):
        a, b, c = self._bundles(tmp_path)
        shared = [_run(["isomorphic", a, x]) for x in (b, c)]
        base = serialize.presentation_to_dict(gallery.get_presentation("circle6"))
        a, b, c = self._bundles(tmp_path, alive2=base["alive"][::-1])
        built = self._counted(monkeypatch)
        assert [_run(["isomorphic", a, x]) for x in (b, c)] == shared
        assert len(built) == 4
        assert [code for code, _ in shared] == [0, 1]

    def test_different_bases_are_refused(self, tmp_path):
        a, b, _ = self._bundles(tmp_path)
        doc = json.loads(Path(b).read_text())
        doc["base"] = serialize.presentation_to_dict(
            gallery.get_presentation("circle3"))
        doc["cocycle"]["values"] = {"(0,1)": "0", "(0,2)": "0", "(1,2)": "0"}
        Path(b).write_text(json.dumps(doc))
        code, lines = _run(["isomorphic", a, b])
        assert code == 2
        assert lines[2] == "error: bundles live over different bases or groups"

    def test_float_entries_equal_to_the_first_base_are_refused(self, tmp_path):
        # 0.0 == 0 in Python, so an equal base by == alone would share the
        # first nerve and skip the check that refuses the second document
        a, b, _ = self._bundles(tmp_path)
        doc = json.loads(Path(b).read_text())
        doc["base"]["alive"][-1] = [float(i) for i in doc["base"]["alive"][-1]]
        Path(b).write_text(json.dumps(doc))
        code, lines = _run(["isomorphic", a, b])
        assert code == 2
        assert lines[2] == ("error: face [4.0, 5.0] holds 4.0, which is not an "
                            "integer chart index")


class TestErrors:
    @pytest.mark.parametrize("alive,message", [
        ([[0], [1], [2], [0, 1], [0.0, 2.0], [1, 2]],
         "face [0.0, 2.0] holds 0.0, which is not an integer chart index"),
        ([[0], [True], [2], [0, 1], [0, 2], [1, 2]],
         "face [True] holds True, which is not an integer chart index"),
    ])
    def test_non_integer_chart_index(self, tmp_path, alive, message):
        # such a nerve used to be read, and its reports printed keys like
        # "(0.0,2.0)" and "(True)" that no cochain document may hold
        doc = {"kind": "nerve", "charts": ["U0", "U1", "U2"], "alive": alive,
               "k_max": 2, "alternating": True}
        p = tmp_path / "float.json"
        p.write_text(json.dumps(doc))
        for k in ("0", "1"):
            code, lines = _run(["cohomology", "--degree", k, "--coeff", "Z",
                                str(p)])
            assert code == 2
            assert lines[2] == f"error: {message}"

    def test_malformed_presentation(self, tmp_path):
        doc = {"kind": "nerve", "charts": ["U0", "U1", "U2"],
               "alive": [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]],
               "k_max": 4, "alternating": True}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["cohomology", "--degree", "1", "--coeff", "Z",
                            str(p)])
        assert code == 2
        assert any("not face-closed" in ln for ln in lines)

    @staticmethod
    def _quotient_doc(tmp_path, torsion, a, b):
        doc = {"kind": "quotient", "dim": 1, "free": False, "name": "neg",
               "function_class_degree": 1,
               "generators": [{"torsion": torsion,
                               "affine": {"A": [[a]], "b": [b]}}]}
        p = tmp_path / "quotient.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_negative_torsion(self, tmp_path):
        for torsion, a, b in ((-2, "-1", "0"), (-3, "1", "1")):
            path = self._quotient_doc(tmp_path, torsion, a, b)
            code, lines = _run(["cohomology", "--degree", "0", "--coeff",
                                "R(alpha)", path])
            assert code == 2
            assert any(f"torsion order {torsion} is negative" in ln
                       for ln in lines)

    def test_exponent_over_the_cap(self, tmp_path):
        path = self._quotient_doc(tmp_path, 0, "1", "a^65")
        code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                            "R(alpha)", path])
        assert code == 2
        assert any("exceeds the limit of 64" in ln for ln in lines)

    def test_power_degree_over_the_cap(self, tmp_path):
        path = self._quotient_doc(tmp_path, 0, "1", "((a+1)^64)^64")
        code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                            "R(alpha)", path])
        assert code == 2
        assert any("exceeds the degree limit of 64" in ln for ln in lines)

    def test_product_degree_over_the_cap(self, tmp_path):
        path = self._quotient_doc(tmp_path, 0, "1", "*".join(["(a+1)^64"] * 20))
        code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                            "R(alpha)", path])
        assert code == 2
        assert any("exceeds the degree limit of 64" in ln for ln in lines)

    def test_variable_index_over_the_arity(self, tmp_path):
        # a 9-byte function naming x10000000 in a one-variable class
        doc = {"presentation": serialize.presentation_to_dict(
                   gallery.get_presentation("irrational-torus")),
               "group": "R(alpha)",
               "cochain": {"degree": 0, "function": "x10000000"}}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 2
        assert any("uses more than 1 variables" in ln for ln in lines)

    def test_group_tuples_over_the_limit(self, tmp_path):
        # an even torsion order is satisfied by the reflection, but H^1
        # would tabulate cochains on |K|^2 = 4 * 10^8 group pairs
        path = self._quotient_doc(tmp_path, 20000, "-1", "0")
        code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                            "R(alpha)", path])
        assert code == 2
        assert any("exceed the limit of 256" in ln for ln in lines)

    def test_nerve_tuples_over_the_limit(self, tmp_path):
        doc = {"kind": "nerve", "charts": ["U0", "U1"],
               "alive": [[0], [1], [0, 1]], "k_max": 24,
               "alternating": False}
        p = tmp_path / "two.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["cohomology", "--degree", "22", "--coeff", "Z",
                            str(p)])
        assert code == 2
        assert any("alive tuples in degree 18" in ln for ln in lines)

    def test_reduced_complex_over_the_limit(self, tmp_path):
        # copies of the 6-vertex RP^2 glued along one projective line, the
        # loop 0-1-3: for H^1 each copy keeps a critical triangle on which
        # d_1 is 2 at the one critical edge, so the SNF would see a matrix
        # with one row per copy, one row over the limit
        copies = MAX_MATRIX_SIDE + 1
        doc = serialize.presentation_to_dict(_projective_planes(copies))
        p = tmp_path / "projective-planes.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["cohomology", "--degree", "1", "--coeff", "Z",
                            str(p)])
        assert code == 2
        assert lines[-1] == (
            f"error: the complex for H^1 left by the unit pivots is "
            f"0 x 1 x {copies}; a side exceeds the limit of 4096 "
            f"(diffcech.cech.MAX_MATRIX_SIDE)")

    def test_generator_values_are_counted_as_printed(self, tmp_path,
                                                     monkeypatch):
        # the cap counts the nonzero values the generators print: H^1 of
        # the complete graph K92 prints 4095 generators of one value each,
        # which the former count of 4095 generators by 4186 edges (over
        # 4096^2) refused
        n = 92
        doc = {"kind": "nerve", "name": "K92", "k_max": 2,
               "alternating": True, "charts": [f"U{i}" for i in range(n)],
               "alive": [[i] for i in range(n)] + [
                   [i, j] for i in range(n) for j in range(i + 1, n)]}
        p = tmp_path / "k92.json"
        p.write_text(json.dumps(doc))
        code, lines = _run(["cohomology", "--degree", "1", "--coeff", "Z",
                            str(p)])
        assert code == 0 and lines[2] == "H^1(K92; Z) = Z^4095"
        assert all(ln.count(":") == 4 for ln in lines[3:])
        assert len(lines) == 3 + 4095
        # at a side limit of 8 the cap is 64 values: the repeats-allowed
        # torus6 prints 64, torus7 prints 76
        monkeypatch.setattr(cech, "MAX_MATRIX_SIDE", 8)
        for m, last in ((6, None), (7, "error: the generators of H^1 hold 76 "
                                       "nonzero values, over the limit of 64 "
                                       "(diffcech.cech.MAX_MATRIX_SIDE "
                                       "squared)")):
            p = tmp_path / f"torus{m}.json"
            p.write_text(json.dumps(serialize.presentation_to_dict(
                _torus_nerve(m, False))))
            code, lines = _run(["cohomology", "--degree", "1", "--coeff",
                                "Z", str(p)])
            if last is None:
                assert code == 0 and len(lines) == 5
                assert sum(ln.count(":") - 3 for ln in lines[3:]) == 64
            else:
                assert code == 2 and lines[-1] == last

    def test_sum_degree_over_the_cap(self, tmp_path):
        # the common denominator of 1/(a+1) + ... + 1/(a+n) has degree n
        text = "+".join(f"1/(a+{i})" for i in range(1, 91))
        path = self._quotient_doc(tmp_path, 0, "1", text)
        code, lines = _run(["cohomology", "--degree", "0", "--coeff",
                            "R(alpha)", path])
        assert code == 2
        assert any("exceeds the degree limit of 64" in ln for ln in lines)

    def test_document_over_the_expression_cap(self, tmp_path):
        # each value is within every per-expression cap, but 27 of them
        # would make the parser build 27 degree-64 common denominators
        pres = gallery.get_presentation("torus9")
        value = "+".join(f"1/(a+{i})" for i in range(1, 65))
        doc = {"presentation": serialize.presentation_to_dict(pres),
               "group": "R(alpha)",
               "cochain": {"degree": 1, "values": {
                   f"({i},{j})": value for i, j in pres.tuples(1)}}}
        p = tmp_path / "torus9-harmonic.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, lines = _run(["check-cocycle", str(p)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert lines[2] == ("error: document holds 15282 characters of "
                            "expressions, over the limit of 8192")
        # with 14 of those values (7924 characters) and zeros, it is read
        values = doc["cochain"]["values"]
        for key in sorted(values)[14:]:
            values[key] = "0"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 1 and lines[2].startswith("cocycle: no")

    _NERVE = {"kind": "nerve", "charts": ["U0", "U1"],
              "alive": [[0], [1], [0, 1]], "k_max": 2}
    _QUOTIENT = {"kind": "quotient", "dim": 1, "free": True,
                 "generators": [{"torsion": 0,
                                 "affine": {"A": [["1"]], "b": ["1"]}}]}

    @pytest.mark.parametrize("field,value,message", [
        ("k_max", 2.9, "must be an integer, got 2.9"),
        ("k_max", True, "must be an integer, got True"),
        ("k_max", "2", "must be an integer, got '2'"),
        ("alternating", "false", "must be true or false, got 'false'"),
        ("alternating", 0, "must be true or false, got 0"),
        ("alternating", None, "must be true or false, got None"),
    ])
    def test_nerve_fields_have_exact_types(self, tmp_path, field, value,
                                           message):
        # int() read 2.9 as 2 and true as 1, and bool() read "false" as true
        p = tmp_path / "nerve.json"
        p.write_text(json.dumps({**self._NERVE, field: value}))
        code, lines = _run(["cohomology", "--degree", "0", "--coeff", "Z",
                            str(p)])
        assert code == 2
        assert lines[-1] == f"error: nerve field '{field}' {message}"

    @pytest.mark.parametrize("argv,doc", [
        (["cohomology", "--degree", "1", "--coeff", "Z"],
         {**_NERVE, "k_max": "two"}),
        (["cohomology", "--degree", "1", "--coeff", "Z"],
         {**_NERVE, "alive": 5}),
        (["cohomology", "--degree", "1", "--coeff", "Z"],
         {**_NERVE, "charts": 7}),
        (["cohomology", "--degree", "1", "--coeff", "Z"],
         {**_NERVE, "alive": [[0, "x"]]}),
        (["cohomology", "--degree", "0", "--coeff", "R(alpha)"],
         {**_QUOTIENT, "dim": "one"}),
        (["cohomology", "--degree", "0", "--coeff", "R(alpha)"],
         {**_QUOTIENT, "generators": [{"torsion": 0, "affine": {
             "A": [["1"]], "b": ["1" * 5000]}}]}),
        (["check-cocycle"],
         {"presentation": "gallery:circle3", "group": "Z",
          "cochain": {"degree": "1",
                      "values": {"(0,1)": "1", "(0,2)": "0", "(1,2)": "0"}}}),
        (["bockstein", "--ses", "Z:Z:Z/x"],
         {"presentation": "gallery:circle3", "group": "Z/2",
          "cochain": {"degree": 0,
                      "values": {"(0)": "1", "(1)": "0", "(2)": "0"}}}),
        (["check-cocycle"],
         {"presentation": "gallery:z2-reflection", "group": "R(alpha)",
          "cochain": {"degree": 0, "function": "x0/0"}}),
        (["cohomology", "--degree", "0", "--coeff", "R(alpha)"],
         {**_QUOTIENT, "generators": [{"torsion": 0, "affine": {
             "A": [["1"]], "b": ["1/(a-a)"]}}]}),
        (["check-cocycle"],
         {"presentation": "gallery:circle3", "group": "R(alpha)",
          "cochain": {"degree": 0, "function": "1"}}),
        (["check-cocycle"],
         {"presentation": "gallery:circle3", "group": "R(alpha)",
          "cochain": {"degree": 1, "crossed": {"g1": "1"}}}),
        (["check-cocycle"],
         {"presentation": "gallery:circle3", "group": "R(alpha)",
          "cochain": {"degree": 1, "table": {"(0)": "1"}}}),
        (["check-cocycle"],
         {"presentation": "gallery:irrational-torus", "group": "R(alpha)",
          "cochain": {"degree": 5, "crossed": {"g1": "1"}}}),
        (["coboundary"],
         {"presentation": "gallery:irrational-torus", "group": "R(alpha)",
          "cochain": {"degree": 7, "function": "x0"}}),
        (["check-cocycle"],
         {"presentation": "gallery:irrational-torus", "group": "R(alpha)",
          "cochain": {"degree": "1", "function": "x0"}}),
        (["check-cocycle"],
         {"presentation": "gallery:irrational-torus", "group": "Z",
          "cochain": {"degree": 0, "function": "x0"}}),
        (["check-cocycle"],
         {"presentation": "gallery:z2-reflection", "group": "Z",
          "cochain": {"degree": 1, "table": {"(0)": "0", "(1)": "x0"}}}),
        (["check-cocycle"], _qz_doc("1/0")),
        (["bockstein", "--ses", "Z:R:Q/Z"], _qz_doc("1/0")),
        # Fraction would build 10**10000000 before any check
        (["check-cocycle"], _qz_doc("1e10000000")),
        (["bockstein", "--ses", "Z:R:Q/Z"], _qz_doc("1E10000000")),
        # JSON reads the number 1e400 as an infinite float
        (["check-cocycle"], _qz_doc(float("inf"))),
        # a value is a string or an integer: Z would read 2.5 as 2 and true
        # as 1, Q/Z would read 0.1 as a binary fraction
        (["check-cocycle"], _value_doc("Z", 2.5)),
        (["check-cocycle"], _value_doc("Z", True)),
        (["check-cocycle"], _value_doc("Z", None)),
        (["check-cocycle"], _value_doc("Z", [1])),
        (["check-cocycle"], _qz_doc(0.1)),
        (["check-cocycle"], _qz_doc(True)),
        (["check-cocycle"], _value_doc("R(alpha)", 0.5)),
        (["check-cocycle"], _value_doc("prod[Z,Z/2]", 5)),
    ], ids=["k_max-string", "alive-int", "charts-int", "alive-string-chart",
            "dim-string", "long-integer", "degree-string", "ses-modulus",
            "function-zero-divisor", "translation-zero-divisor",
            "function-on-nerve", "crossed-on-nerve", "table-on-nerve",
            "crossed-degree", "function-degree", "function-degree-string",
            "function-over-Z", "table-over-Z", "qz-zero-denominator",
            "qz-zero-denominator-bockstein", "qz-exponent",
            "qz-exponent-bockstein", "qz-infinity", "z-float", "z-bool",
            "z-null", "z-list", "qz-float", "qz-bool", "ralpha-float",
            "prod-integer"])
    def test_malformed_input(self, tmp_path, argv, doc):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, lines = _run(argv + [str(p)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert any(ln.startswith("error: ") for ln in lines)

    @pytest.mark.parametrize("group,value", [
        ("Z", 1), ("Z/3", -1), ("Q/Z", 2), ("R(alpha)", 3)])
    def test_integer_values_read_as_their_text(self, tmp_path, group, value):
        reports = []
        for v in (value, str(value)):
            p = tmp_path / "doc.json"
            p.write_text(json.dumps(_value_doc(group, v)))
            reports.append(_run(["check-cocycle", str(p)]))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0

    def test_power_over_the_class_refused_before_expansion(self, tmp_path):
        # (x0+x1+1)^64 has 2145 terms; in a degree-1 class (2 with the
        # witness headroom) it is refused before any product is taken
        doc = {"presentation": {
                   "kind": "quotient", "dim": 2, "free": True,
                   "function_class_degree": 1,
                   "generators": [
                       {"torsion": 0, "affine": {"A": [["1", "0"], ["0", "1"]],
                                                 "b": ["1", "0"]}},
                       {"torsion": 0, "affine": {"A": [["1", "0"], ["0", "1"]],
                                                 "b": ["0", "a"]}}]},
               "group": "R(alpha)",
               "cochain": {"degree": 0, "function": "(x0+x1+1)^64"}}
        p = tmp_path / "power.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, lines = _run(["check-cocycle", str(p)])
        assert time.perf_counter() - start < 0.05
        assert code == 2
        assert lines[2] == ("error: power ^64 of a degree-1 expression in "
                            "'(x0+x1+1)^64' exceeds max degree 2")
        doc["cochain"]["function"] = "(x0+x1+1)^2"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 1 and lines[2].startswith("cocycle: no")

    def test_product_over_the_class_refused_before_expansion(self, tmp_path):
        # 60 factors of (x0+x1+1): the product has degree 3 > 2 by the third
        # factor, and is refused before it is multiplied out
        doc = {"presentation": {
                   "kind": "quotient", "dim": 2, "free": True,
                   "function_class_degree": 1,
                   "generators": [
                       {"torsion": 0, "affine": {"A": [["1", "0"], ["0", "1"]],
                                                 "b": ["1", "0"]}},
                       {"torsion": 0, "affine": {"A": [["1", "0"], ["0", "1"]],
                                                 "b": ["0", "a"]}}]},
               "group": "R(alpha)",
               "cochain": {"degree": 0,
                           "function": "*".join(["(x0+x1+1)"] * 60)}}
        p = tmp_path / "product.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, lines = _run(["check-cocycle", str(p)])
        assert time.perf_counter() - start < 0.05
        assert code == 2
        assert lines[2].startswith("error: product of degree 3 in ")
        assert lines[2].endswith(" exceeds max degree 2")
        doc["cochain"]["function"] = "(x0+x1+1)*(x0-x1)"
        p.write_text(json.dumps(doc))
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 1 and lines[2].startswith("cocycle: no")

    def test_class_over_the_size_cap(self, tmp_path):
        # dim 7 at degree 7: 3432 monomials, 6435 one degree up; refused when
        # the presentation is built, before any class is
        eye = [["1" if i == j else "0" for j in range(7)] for i in range(7)]
        doc = {"kind": "quotient", "dim": 7, "free": True,
               "function_class_degree": 7,
               "generators": [{"torsion": 0, "affine": {
                   "A": eye, "b": ["1"] + ["0"] * 6}}]}
        p = tmp_path / "class.json"
        p.write_text(json.dumps(doc))
        assert len(p.read_text()) == 424
        start = time.perf_counter()
        code, lines = _run(["cohomology", "--degree", "0", "--coeff",
                            "R(alpha)", str(p)])
        assert time.perf_counter() - start < 0.05
        assert code == 2
        assert lines[2] == (
            "error: the function class (n=7, D=7) has over 64 monomials one "
            "degree up, where witnesses are sought "
            "(diffcech.presentation.MAX_CLASS_DIMENSION)")

    def test_negative_class_sizes(self, tmp_path):
        # a negative dimension or degree is refused where the quotient is
        # built, not read as an empty class
        shift = [{"torsion": 0, "affine": {"A": [["1"]], "b": ["1"]}}]
        for dim, degree, gens, what in (
                (-1, 1, [], "dimension -1"),
                (1, -1, shift, "function class degree -1")):
            doc = {"kind": "quotient", "dim": dim, "free": True,
                   "function_class_degree": degree, "generators": gens}
            p = tmp_path / "negative.json"
            p.write_text(json.dumps(doc))
            code, lines = _run(["cohomology", "--degree", "0", "--coeff",
                                "R(alpha)", str(p)])
            assert code == 2
            assert lines[2] == f"error: the {what} is negative"

    def test_unserializable_coboundary_prints_no_result(self):
        # d of crossed data over an infinite group is lazy; the command must
        # refuse it before it prints any part of a result
        code, lines = _run(["coboundary", "gallery:irrational-torus#kappa"])
        assert code == 2
        assert not any(ln.startswith("degree") for ln in lines)
        assert lines[0] == "diffcech coboundary"
        assert len(lines) == 3 and lines[2].startswith("error: "), lines

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        code, lines = _run(["check-cocycle", str(p)])
        assert code == 2

    def test_unknown_gallery_entry(self):
        code, lines = _run(["gallery", "show", "nonesuch"])
        assert code == 2
        assert any("unknown gallery entry" in ln for ln in lines)

    def test_missing_file(self):
        code, _ = _run(["check-cocycle", "/no/such/file.json"])
        assert code == 2

    def test_usage_error(self):
        assert run(["cohomology"], out=lambda ln: None) == 2


class TestGalleryCommands:
    def test_list(self):
        code, lines = _run(["gallery", "list"])
        assert code == 0
        assert any(ln.startswith("circle3 ") for ln in lines)

    def test_show(self):
        code, lines = _run(["gallery", "show", "irrational-torus"])
        assert code == 0
        assert any("cocycle kappa" in ln for ln in lines)

    def test_verify_single(self):
        code, lines = _run(["gallery", "verify", "circle3"])
        assert code == 0
        assert lines[-1] == "gallery verify: all ok"


class TestDeterminism:
    def test_in_process_runs_match_fresh_processes(self, capsys,
                                                   monkeypatch):
        # the parser is built once per process; successive calls through it,
        # after --help and usage errors too, print what a fresh process does
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argvs = [
            ["gallery", "list"],
            ["--help"],
            ["cohomology", "--degree", "1", "--coeff", "Z", "gallery:circle3"],
            ["cohomology"],
            ["check-cocycle", "gallery:circle3#winding1"],
            ["cohomology", "--help"],
            ["cohomology", "--degree", "one", "--coeff", "Z", "x.json"],
            ["gallery", "show", "nonesuch"],
            ["bockstein", "--ses", "Z:Z:Z/2", "gallery:circle3#winding1"],
        ]
        for argv in argvs:
            code = run(argv)
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "diffcech.cli",
                                    *argv], capture_output=True, text=True,
                                   env=env)
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr), argv


    def test_repeated_runs_are_identical(self):
        for argv in (
            ["cohomology", "--degree", "1", "--coeff", "Z", "gallery:torus9"],
            ["classify-bundle", "gallery:irrational-torus-bundle"],
            ["gallery", "show", "rp2"],
        ):
            assert _run(argv) == _run(argv)
