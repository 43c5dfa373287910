"""JSON documents: canonical output, round trips, parse errors."""

import pytest

from diffcech import gallery, serialize
from diffcech.errors import ParseError


PRESENTATION_NAMES = [
    "point", "circle3", "circle6", "torus9", "rp2",
    "irrational-torus", "z2-reflection", "circle-rz", "line",
]


class TestPresentations:
    @pytest.mark.parametrize("name", PRESENTATION_NAMES)
    def test_round_trip(self, name):
        pres = gallery.get_presentation(name)
        doc = serialize.presentation_to_dict(pres)
        back = serialize.presentation_from_dict(doc)
        assert back == pres
        # serialized form is byte-stable under a second round trip
        assert serialize.dumps(serialize.presentation_to_dict(back)) == \
            serialize.dumps(doc)

    def test_gallery_reference(self):
        pres = serialize.resolve_presentation("gallery:circle3")
        assert pres == gallery.get_presentation("circle3")
        with pytest.raises(ParseError):
            serialize.resolve_presentation("gallery:nonesuch")


class TestCochains:
    @pytest.mark.parametrize("ref", [
        ("circle3", "winding1"),
        ("circle6", "winding1"),
        ("irrational-torus", "kappa"),
        ("z2-reflection", "linear"),
    ])
    def test_round_trip(self, ref):
        ename, cname = ref
        c = gallery.get(ename).cocycles[cname]
        doc = serialize.cochain_document_to_dict(c)
        back = serialize.cochain_document_from_dict(doc)
        assert back.degree == c.degree
        assert back.group == c.group
        assert serialize.dumps(serialize.cochain_document_to_dict(back)) == \
            serialize.dumps(doc)

    def test_nerve_key_format(self):
        c = gallery.get("circle3").cocycles["winding1"]
        doc = c.to_dict()
        # the zero values at (0,1) and (1,2) are not printed
        assert doc["values"] == {"(0,2)": "-1"}


class TestBundles:
    @pytest.mark.parametrize("name", ["circle3-winding1-bundle",
                                      "irrational-torus-bundle"])
    def test_round_trip(self, name):
        b = gallery.get(name).obj
        doc = serialize.bundle_to_dict(b)
        back = serialize.bundle_from_dict(doc)
        assert back == b


class TestDumpsLoads:
    def test_dumps_is_deterministic(self):
        doc = serialize.presentation_to_dict(gallery.get_presentation("rp2"))
        assert serialize.dumps(doc) == serialize.dumps(dict(reversed(
            list(doc.items()))))

    def test_loads_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            serialize.loads('{"a": 1,}')

    def test_loads_round_trip(self):
        doc = serialize.presentation_to_dict(gallery.get_presentation("torus9"))
        assert serialize.loads(serialize.dumps(doc)) == doc
