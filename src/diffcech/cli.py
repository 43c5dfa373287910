"""Command line interface: deterministic reports over files and the gallery.

Exit codes: 0 success, 1 mathematical negative (non-cocycle, distinct
classes, failed verification), 2 usage or parse error.  File arguments are
paths to JSON documents or gallery references ("gallery:circle3"; cochains
attached to entries are addressed as "gallery:circle3#winding1").
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import gallery, serialize
from .average import FiniteTranslationGroupoid, trivializing_homotopy
from .bundle import is_trivializable, isomorphic
from .cech import (
    DEFAULT_SEED,
    coboundary,
    cohomology,
    connecting_map,
    is_cocycle,
)
from .coeff import group_from_tag, parse_ses
from .errors import CocycleError, DiffCechError, ParseError


def _read_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    return serialize.loads(text)


def _presentation_arg(arg: str):
    if arg.startswith("gallery:"):
        return gallery.get_presentation(arg[len("gallery:"):])
    return serialize.presentation_from_dict(_read_doc(arg))


def _cochain_arg(arg: str):
    if arg.startswith("gallery:"):
        ref = arg[len("gallery:"):]
        if "#" not in ref:
            raise ParseError(
                "gallery cochain references use gallery:ENTRY#COCYCLE"
            )
        ename, cname = ref.split("#", 1)
        entry = gallery.get(ename)
        if cname not in entry.cocycles:
            raise ParseError(
                f"entry {ename!r} has no cocycle {cname!r} "
                f"(available: {', '.join(sorted(entry.cocycles))})"
            )
        return entry.cocycles[cname]
    return serialize.cochain_document_from_dict(_read_doc(arg))


def _bundle_arg(arg: str):
    if arg.startswith("gallery:"):
        entry = gallery.get(arg[len("gallery:"):])
        if entry.kind != "bundle":
            raise ParseError(f"gallery entry {entry.name!r} is not a bundle")
        return entry.obj
    return serialize.bundle_from_dict(_read_doc(arg))


def _compact(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cmd_cohomology(args, out) -> int:
    pres = _presentation_arg(args.file)
    group = group_from_tag(args.coeff)
    rep = cohomology(pres, group, args.degree)
    name = getattr(pres, "name", None) or pres.kind
    out(f"H^{args.degree}({name}; {group.tag}) = {rep.group_description()}")
    if rep.note:
        out(f"note: {rep.note}")
    for i, r in enumerate(rep.representatives):
        out(f"generator {i + 1}: {_compact(r.to_dict())}")
    return 0


def cmd_check_cocycle(args, out) -> int:
    c = _cochain_arg(args.file)
    chk = is_cocycle(c)
    if chk:
        out(f"cocycle: yes (degree {c.degree}, {c.group.tag})")
        return 0
    out(f"cocycle: no, counterexample at {chk.location}: {chk.detail}")
    return 1


def cmd_coboundary(args, out) -> int:
    c = _cochain_arg(args.file)
    d = coboundary(c)
    doc = d.to_dict()
    out(f"degree {c.degree} -> {d.degree}")
    out(_compact(doc))
    return 0


def cmd_classify_bundle(args, out) -> int:
    b = _bundle_arg(args.file)
    name = b.name or "bundle"
    res = is_trivializable(b)
    if res.equal:
        out(f"{name}: trivializable")
        out(f"witness section shift: {_compact(res.witness.to_dict())}")
        return 0
    if b.base.kind == "quotient":
        out(f"{name}: nontrivial in class D={b.base.function_class_degree}")
    else:
        out(f"{name}: nontrivial over {b.group.tag}")
    out(f"certificate: {res.certificate}")
    try:
        rep = cohomology(b.base, b.group, 1)
        coords = rep.class_coordinates(b.cocycle)
        out(f"H^1 = {rep.group_description()}, class coordinates: "
            f"({', '.join(str(x) for x in coords)})")
    except DiffCechError:
        pass
    return 0


def cmd_isomorphic(args, out) -> int:
    b1 = _bundle_arg(args.file1)
    b2 = _bundle_arg(args.file2)
    res = isomorphic(b1, b2)
    if res.equal:
        out("isomorphic")
        out(f"witness: {_compact(res.witness.to_dict())}")
        return 0
    out(f"distinct: {res.certificate}")
    return 1


def cmd_bockstein(args, out) -> int:
    ses = parse_ses(args.ses)
    c = _cochain_arg(args.file)
    d = connecting_map(ses, c)
    out(f"SES {ses.name}: degree {c.degree} ({ses.c.tag}) -> "
        f"degree {d.degree} ({ses.a.tag})")
    out(_compact(d.to_dict()))
    return 0


def cmd_average_trivialize(args, out) -> int:
    c = _cochain_arg(args.file)
    gpd = FiniteTranslationGroupoid(c.pres)
    try:
        g = trivializing_homotopy(gpd, c)
    except CocycleError as e:
        out(f"not trivializable: {e}")
        return 1
    sign = "+" if c.degree % 2 == 0 else "-"
    out(f"homotopy g with d(g) = {sign}f (|K| = {gpd.order})")
    out(_compact(g.to_dict()))
    return 0


def cmd_gallery(args, out) -> int:
    if args.action == "list":
        for name in gallery.names():
            e = gallery.get(name)
            out(f"{name} [{e.kind}]: {e.description}")
        return 0
    if args.action == "show":
        if not args.name:
            raise ParseError("gallery show needs an entry name")
        e = gallery.get(args.name)
        out(f"{e.name} [{e.kind}]: {e.description}")
        if e.kind == "presentation":
            out(serialize.dumps(serialize.presentation_to_dict(e.obj)).rstrip())
        else:
            out(serialize.dumps(
                serialize.bundle_to_dict(
                    e.obj, base_spec=f"gallery:{_base_name(e)}")
            ).rstrip())
        for cname in sorted(e.cocycles):
            out(f"cocycle {cname}: {_compact(e.cocycles[cname].to_dict())}")
        return 0
    if args.action == "verify":
        names = [args.name] if args.name else gallery.names()
        all_ok = True
        for name in names:
            for check, ok in gallery.verify_entry(name):
                out(f"{name}: {check}: {'ok' if ok else 'FAIL'}")
                all_ok = all_ok and ok
        out("gallery verify: " + ("all ok" if all_ok else "FAILURES"))
        return 0 if all_ok else 1
    raise ParseError(f"unknown gallery action {args.action!r}")


def _base_name(entry) -> str:
    base = entry.obj.base
    for name in gallery.names():
        e = gallery.get(name)
        if e.kind == "presentation" and e.obj is base:
            return name
    return entry.name


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diffcech",
        description="Exact Cech cohomology of finitely presented "
                    "diffeological spaces and principal bundle "
                    "classification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", help="compute H^k of a presentation")
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--coeff", required=True,
                   help="coefficient tag: Z, Z/m, R(alpha)")
    c.add_argument("file")
    c.set_defaults(fn=cmd_cohomology)

    c = sub.add_parser("check-cocycle", help="test the cocycle law")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check_cocycle)

    c = sub.add_parser("coboundary", help="apply the coboundary operator")
    c.add_argument("file")
    c.set_defaults(fn=cmd_coboundary)

    c = sub.add_parser("classify-bundle",
                       help="trivializability of a bundle presentation")
    c.add_argument("file")
    c.set_defaults(fn=cmd_classify_bundle)

    c = sub.add_parser("isomorphic", help="compare two bundles over one base")
    c.add_argument("file1")
    c.add_argument("file2")
    c.set_defaults(fn=cmd_isomorphic)

    c = sub.add_parser("bockstein",
                       help="connecting homomorphism for a coefficient SES")
    c.add_argument("--ses", required=True, help="A:B:C, e.g. Z:Z:Z/2")
    c.add_argument("file")
    c.set_defaults(fn=cmd_bockstein)

    c = sub.add_parser("average-trivialize",
                       help="Haar-averaged homotopy over a finite quotient")
    c.add_argument("file")
    c.set_defaults(fn=cmd_average_trivialize)

    c = sub.add_parser("gallery", help="built-in presentations")
    c.add_argument("action", choices=["list", "show", "verify"])
    c.add_argument("name", nargs="?")
    c.set_defaults(fn=cmd_gallery)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args only reads the parser
    and writes to a fresh namespace, so one parser serves every call."""
    return build_parser()


def run(argv, out=None) -> int:
    emit = out or (lambda line: print(line))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        emit(f"diffcech {args.command}")
        emit(f"seed: {DEFAULT_SEED}")
        return args.fn(args, emit)
    except DiffCechError as e:
        emit(f"error: {e}")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
