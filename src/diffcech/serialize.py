"""Canonical JSON documents for presentations, cochains, and bundles.

All files are UTF-8 JSON.  Serialization is canonical (sorted keys, stable
ordering of faces and table entries), so parse followed by serialize is the
identity byte-for-byte on canonical documents.
"""

from __future__ import annotations

import functools
import json

from .bundle import BundlePresentation
from .cech import Cochain
from .coeff import Scalar, group_from_tag
from .errors import ParseError
from .funclass import AffineMap
from .presentation import FiniteNerve, Generator, GroupQuotient


def presentation_to_dict(pres) -> dict:
    if pres.kind == "nerve":
        alive = sorted(
            (sorted(f) for f in pres.faces), key=lambda f: (len(f), f)
        )
        doc = {
            "kind": "nerve",
            "charts": list(pres.charts),
            "alive": alive,
            "k_max": pres.k_max,
            "alternating": pres.alternating,
        }
        if pres.name:
            doc["name"] = pres.name
        return doc
    doc = {
        "kind": "quotient",
        "dim": pres.dim,
        "generators": [
            {
                "torsion": g.torsion,
                "affine": {
                    "A": [[str(x) for x in row] for row in g.affine.a],
                    "b": [str(x) for x in g.affine.b],
                },
            }
            for g in pres.generators
        ],
        "free": pres.free,
        "function_class_degree": pres.function_class_degree,
    }
    if pres.name:
        doc["name"] = pres.name
    return doc


# largest total length of the expressions one document may hold.  Each
# expression has its own caps (exprs.MAX_EXPONENT); this one bounds how many
# of them one document can hand the parser.
MAX_DOCUMENT_CHARS = 8192
_PAYLOADS = ("generators", "function", "crossed", "table")


def _string_chars(x) -> int:
    if isinstance(x, str):
        return len(x)
    if isinstance(x, dict):
        x = x.values()
    elif not isinstance(x, list):
        return 0
    return sum(_string_chars(v) for v in x)


def _expression_chars(doc, scalar_values=False) -> int:
    """Characters of the strings in doc that the expression parser reads:
    a quotient's generators, a quotient cochain's payload, and the values of
    a nerve cochain whose group has an R(alpha) factor."""
    if not isinstance(doc, dict):
        return 0
    if isinstance(doc.get("group"), str):
        scalar_values = "R(alpha)" in doc["group"]
    return sum(_string_chars(v) if k in _PAYLOADS
               or (k == "values" and scalar_values)
               else _expression_chars(v, scalar_values)
               for k, v in doc.items())


def _reads_fields(fn):
    """Refuse a document over MAX_DOCUMENT_CHARS before any of it is parsed,
    and report a field of the wrong type or value as a ParseError."""
    @functools.wraps(fn)
    def read(doc, *args):
        chars = _expression_chars(doc)
        if chars > MAX_DOCUMENT_CHARS:
            raise ParseError(f"document holds {chars} characters of "
                             f"expressions, over the limit of "
                             f"{MAX_DOCUMENT_CHARS}")
        try:
            return fn(doc, *args)
        except (TypeError, ValueError) as e:
            raise ParseError(f"malformed document field: {e}")
    return read


@_reads_fields
def presentation_from_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("presentation document needs a 'kind' field")
    kind = doc["kind"]
    if kind == "nerve":
        for field in ("charts", "alive", "k_max"):
            if field not in doc:
                raise ParseError(f"nerve document is missing {field!r}")
        # int() would read 2.9 as 2 and bool() "false" as true
        k_max, alternating = doc["k_max"], doc.get("alternating", True)
        if type(k_max) is not int:
            raise ParseError(f"nerve field 'k_max' must be an integer, "
                             f"got {k_max!r}")
        if type(alternating) is not bool:
            raise ParseError(f"nerve field 'alternating' must be true or "
                             f"false, got {alternating!r}")
        return FiniteNerve(
            doc["charts"],
            [frozenset(f) for f in doc["alive"]],
            k_max,
            alternating,
            doc.get("name"),
        )
    if kind == "quotient":
        for field in ("dim", "generators", "free"):
            if field not in doc:
                raise ParseError(f"quotient document is missing {field!r}")
        gens = []
        for g in doc["generators"]:
            aff = g.get("affine", {})
            a = [[Scalar.parse(str(x)) for x in row] for row in aff.get("A", [])]
            b = [Scalar.parse(str(x)) for x in aff.get("b", [])]
            gens.append(Generator(int(g.get("torsion", 0)), AffineMap(a, b)))
        return GroupQuotient(
            int(doc["dim"]),
            gens,
            bool(doc["free"]),
            int(doc.get("function_class_degree", 1)),
            doc.get("name"),
        )
    raise ParseError(f"unknown presentation kind {kind!r}")


def resolve_presentation(spec):
    """A presentation from a dict or a 'gallery:NAME' reference."""
    if isinstance(spec, str):
        if spec.startswith("gallery:"):
            from .gallery import get_presentation

            return get_presentation(spec[len("gallery:"):])
        raise ParseError(f"bad presentation reference {spec!r}")
    return presentation_from_dict(spec)


def cochain_document_to_dict(c: Cochain) -> dict:
    """The cochain document that ``cochain_document_from_dict`` reads, and
    the CLI takes as a cochain file."""
    return {
        "presentation": presentation_to_dict(c.pres),
        "group": c.group.tag,
        "cochain": c.to_dict(),
    }


@_reads_fields
def cochain_document_from_dict(doc: dict) -> Cochain:
    for field in ("presentation", "group", "cochain"):
        if field not in doc:
            raise ParseError(f"cochain document is missing {field!r}")
    pres = resolve_presentation(doc["presentation"])
    group = group_from_tag(doc["group"])
    return Cochain.from_dict(pres, group, doc["cochain"])


def bundle_to_dict(b: BundlePresentation, base_spec=None) -> dict:
    return {
        "base": base_spec if base_spec is not None
        else presentation_to_dict(b.base),
        "group": b.group.tag,
        "cocycle": b.cocycle.to_dict(),
    }


@_reads_fields
def bundle_from_dict(doc: dict, base=None) -> BundlePresentation:
    """A bundle document; base, when given, is a presentation already built
    from a base field that is the same JSON value as doc's, and is used in
    place of reading that field again."""
    for field in ("base", "group", "cocycle"):
        if field not in doc:
            raise ParseError(f"bundle document is missing {field!r}")
    if base is None:
        base = resolve_presentation(doc["base"])
    group = group_from_tag(doc["group"])
    cocycle = Cochain.from_dict(base, group, doc["cocycle"])
    return BundlePresentation(base, group, cocycle, doc.get("name"))


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indentation."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                         f"{e.msg}")
