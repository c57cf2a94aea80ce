"""Command-line front door.

Verdict-bearing commands print a one-line machine-readable verdict first.
Exit codes: 0 success / YES, 1 NO or failed verification, 2 any error.
`SHRUBKIT_CAPS` (comma-separated name=value) overrides resource caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions, depth, lincw, sc_model, solver, tree_model
from .errors import ShrubError, ValidationError
from .graph import graph_from_text, graph_to_text, neighbourhood_diversity
from .mso import (
    DEFAULT_SET_QUANTIFIER_CAP,
    DEFAULT_VERTEX_CAP,
    Interpretation,
    Transduction,
    apply_interpretation,
    apply_transduction,
    evaluate,
    format_formula,
    mod_lcm,
    parse_formula,
    quantifier_count,
)

_CAP_NAMES = {
    "tm": solver.DEFAULT_TM_CAP,
    "sc": solver.DEFAULT_SC_CAP,
    "td": depth.DEFAULT_TD_CAP,
    "path-model": constructions.DEFAULT_PATH_MODEL_CAP,
    "mso-vertices": DEFAULT_VERTEX_CAP,
    "mso-set-quantifiers": DEFAULT_SET_QUANTIFIER_CAP,
}


def _caps_from_env():
    caps = dict(_CAP_NAMES)
    raw = os.environ.get("SHRUBKIT_CAPS", "").strip()
    if not raw:
        return caps
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in caps:
            raise ValidationError(
                f"SHRUBKIT_CAPS names one of {sorted(caps)}, got {name!r}"
            )
        try:
            caps[name] = int(value)
        except ValueError:
            raise ValidationError(
                f"SHRUBKIT_CAPS value for {name} must be an integer"
            ) from None
    return caps


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verdict(line, structured, **fields):
    if structured:
        print(json.dumps({"verdict": line, **fields}, sort_keys=True))
    else:
        print(line)
        for key in sorted(fields):
            print(f"{key}: {fields[key]}")


def _mso_caps(caps):
    return {
        "max_vertices": caps["mso-vertices"],
        "max_set_quantifiers": caps["mso-set-quantifiers"],
    }


def _build_parser():
    top = argparse.ArgumentParser(
        prog="shrubkit",
        description="Tree-models, SC-trees, conversions, solvers, and logic.",
    )
    top.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="verdict output style",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="stock graphs and models")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    p = gen_sub.add_parser("path")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen_sub.add_parser("clique")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen_sub.add_parser("biclique")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen_sub.add_parser("subdivided-k33")
    p.add_argument("-o", "--out")
    p.add_argument("--model-out", help="also write the depth-2 model here")
    p = gen_sub.add_parser("path-model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen_sub.add_parser("clique-model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen_sub.add_parser("biclique-model")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("-o", "--out")

    conv = sub.add_parser("convert", help="between representations")
    conv_sub = conv.add_subparsers(dest="how", required=True)
    for name in ("tm-to-sc", "sc-to-tm", "tm-to-lincw", "sc-eval", "tm-eval",
                 "lincw-eval"):
        p = conv_sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("-o", "--out")
    p = conv_sub.add_parser("td-to-tm")
    p.add_argument("--graph", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("-o", "--out")

    solve = sub.add_parser("solve", help="membership and measures")
    solve_sub = solve.add_subparsers(dest="what", required=True)
    p = solve_sub.add_parser("tm")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-o", "--out", help="witness model file")
    p = solve_sub.add_parser("tmc")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--out")
    p = solve_sub.add_parser("sc")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out", help="witness SC-tree file")
    p = solve_sub.add_parser("td")
    p.add_argument("--graph", required=True)
    p.add_argument("-o", "--out", help="witness forest file")
    p = solve_sub.add_parser("nd")
    p.add_argument("--graph", required=True)
    p = solve_sub.add_parser("obstructions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("-o", "--out")

    ver = sub.add_parser("verify", help="check a certificate against a graph")
    ver_sub = ver.add_subparsers(dest="what", required=True)
    p = ver_sub.add_parser("tm")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p = ver_sub.add_parser("sc")
    p.add_argument("--sc", required=True)
    p.add_argument("--graph", required=True)
    p = ver_sub.add_parser("td")
    p.add_argument("--forest", required=True)
    p.add_argument("--graph", required=True)
    p = ver_sub.add_parser("kcopied")
    p.add_argument("--model", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", help="also require realize to match this graph")

    mso = sub.add_parser("mso", help="logic engine")
    mso_sub = mso.add_subparsers(dest="what", required=True)
    p = mso_sub.add_parser("parse")
    p.add_argument("--formula", required=True, help="formula file")
    p = mso_sub.add_parser("check")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True, help="sentence file")
    p = mso_sub.add_parser("interpret")
    p.add_argument("--graph", required=True)
    p.add_argument("--nu", default="true", help="domain formula text")
    p.add_argument("--mu", required=True, help="edge formula text")
    p.add_argument("-o", "--out")
    p = mso_sub.add_parser("transduce")
    p.add_argument("--graph", required=True)
    p.add_argument("--nu", default="true")
    p.add_argument("--mu", required=True)
    p.add_argument("--chi", default="true", help="precondition sentence text")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument(
        "--label",
        action="append",
        default=[],
        metavar="NAME=v1,v2,...",
        help="guessed unary predicate (repeatable)",
    )
    p.add_argument("-o", "--out")

    p = sub.add_parser("reduce-tree", help="prune sibling class multiplicity")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--thresholds", required=True, help="comma list, by height")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("-o", "--out")

    return top


def _parse_labeling(items):
    labeling = {}
    for item in items:
        name, sep, verts = item.partition("=")
        if not sep or not name:
            raise ValidationError(f"bad --label {item!r}, want NAME=v1,v2,...")
        try:
            labeling[name] = [
                int(v) for v in verts.split(",") if v.strip() != ""
            ]
        except ValueError:
            raise ValidationError(f"bad vertex list in --label {item!r}") from None
    return labeling


def _cmd_generate(args, caps, structured):
    if args.what == "path":
        _emit(graph_to_text(constructions.make_path(args.length)), args.out)
    elif args.what == "clique":
        _emit(graph_to_text(constructions.make_clique(args.n)), args.out)
    elif args.what == "biclique":
        _emit(graph_to_text(constructions.make_biclique(args.a, args.b)), args.out)
    elif args.what == "subdivided-k33":
        g, model = constructions.subdivided_matching_biclique_model()
        _emit(graph_to_text(g), args.out)
        if args.model_out:
            _emit(tree_model.model_to_text(model), args.model_out)
    elif args.what == "path-model":
        model = constructions.path_model(args.m, cap=caps["path-model"])
        _emit(tree_model.model_to_text(model), args.out)
    elif args.what == "clique-model":
        _emit(tree_model.model_to_text(constructions.clique_model(args.n)), args.out)
    else:
        _emit(
            tree_model.model_to_text(constructions.biclique_model(args.a, args.b)),
            args.out,
        )
    return 0


def _cmd_convert(args, caps, structured):
    if args.how == "td-to-tm":
        g = graph_from_text(_read(args.graph))
        forest = depth.forest_from_text(_read(args.forest))
        _emit(tree_model.model_to_text(depth.td_to_tm(g, forest)), args.out)
        return 0
    text = _read(args.infile)
    if args.how == "tm-to-sc":
        out = sc_model.sc_to_text(sc_model.tm_to_sc(tree_model.model_from_text(text)))
    elif args.how == "sc-to-tm":
        out = tree_model.model_to_text(sc_model.sc_to_tm(sc_model.sc_from_text(text)))
    elif args.how == "tm-to-lincw":
        out = lincw.lincw_to_text(lincw.tm_to_lincw(tree_model.model_from_text(text)))
    elif args.how == "sc-eval":
        out = graph_to_text(sc_model.evaluate_sc(sc_model.sc_from_text(text)))
    elif args.how == "tm-eval":
        out = graph_to_text(tree_model.realize(tree_model.model_from_text(text)))
    else:
        out = graph_to_text(lincw.eval_lincw(lincw.lincw_from_text(text)))
    _emit(out, args.out)
    return 0


def _cmd_solve(args, caps, structured):
    if args.what == "nd":
        g = graph_from_text(_read(args.graph))
        _verdict(f"ND {neighbourhood_diversity(g)}", structured)
        return 0
    if args.what == "td":
        g = graph_from_text(_read(args.graph))
        value, forest = depth.tree_depth(g, cap=caps["td"])
        _verdict(f"TREE-DEPTH {value}", structured)
        _emit(depth.forest_to_text(forest), args.out)
        return 0
    if args.what == "obstructions":
        found = solver.minimal_obstructions(
            args.d, args.m, args.max_n, cap=caps["tm"]
        )
        blocks = [graph_to_text(g) for g in found]
        _verdict(f"OBSTRUCTIONS {len(found)}", structured, graphs=blocks)
        if not structured:
            _emit("\n".join(blocks), args.out)
        return 0
    g = graph_from_text(_read(args.graph))
    if args.what == "tm":
        witness = solver.tm_membership(g, args.d, args.m, cap=caps["tm"])
        if witness is None:
            _verdict(f"NO (verified for all depths <= {args.d})", structured)
            return 1
        _verdict("YES", structured, depth=witness.depth, colors=witness.colors)
        _emit(tree_model.model_to_text(witness), args.out)
        return 0
    if args.what == "tmc":
        copied = solver.tmc_membership(g, args.d, args.m, args.k, cap=caps["tm"])
        if copied is None:
            _verdict("NO", structured)
            return 1
        _verdict("YES", structured, depth=args.d, colors=args.m, k=args.k)
        _emit(tree_model.model_to_text(copied.model), args.out)
        return 0
    witness = solver.sc_membership(g, args.n, cap=caps["sc"])
    if witness is None:
        _verdict(f"NO (no SC-tree of height <= {args.n})", structured)
        return 1
    _verdict("YES", structured, height=witness.height)
    _emit(sc_model.sc_to_text(witness), args.out)
    return 0


def _cmd_verify(args, caps, structured):
    g = graph_from_text(_read(args.graph)) if args.graph else None
    if args.what == "tm":
        model = tree_model.model_from_text(_read(args.model))
        if tree_model.verify(model, g):
            _verdict("OK", structured)
            return 0
        _verdict("MISMATCH", structured)
        return 1
    if args.what == "sc":
        t = sc_model.sc_from_text(_read(args.sc))
        if sc_model.evaluate_sc(t) == g:
            _verdict("OK", structured)
            return 0
        _verdict("MISMATCH", structured)
        return 1
    if args.what == "td":
        forest = depth.forest_from_text(_read(args.forest))
        if depth.validate_td(g, forest):
            _verdict("OK", structured, height=forest.height)
            return 0
        _verdict("INVALID", structured)
        return 1
    model = tree_model.model_from_text(_read(args.model))
    if not tree_model.verify_k_copied(model, args.d, args.m, args.k):
        _verdict("INVALID", structured)
        return 1
    if g is not None and not tree_model.verify(model, g):
        _verdict("MISMATCH", structured)
        return 1
    _verdict("OK", structured)
    return 0


def _cmd_mso(args, caps, structured):
    if args.what == "parse":
        formula = parse_formula(_read(args.formula))
        _verdict(
            "OK",
            structured,
            canonical=format_formula(formula),
            quantifiers=quantifier_count(formula),
            mod_lcm=mod_lcm(formula),
        )
        return 0
    if args.what == "check":
        g = graph_from_text(_read(args.graph))
        formula = parse_formula(_read(args.formula))
        value = evaluate(g, formula, **_mso_caps(caps))
        _verdict("TRUE" if value else "FALSE", structured)
        return 0 if value else 1
    g = graph_from_text(_read(args.graph))
    interp = Interpretation(parse_formula(args.nu), parse_formula(args.mu))
    if args.what == "interpret":
        image, _ = apply_interpretation(interp, g, **_mso_caps(caps))
        _emit(graph_to_text(image), args.out)
        return 0
    td = Transduction(
        interp,
        precondition=parse_formula(args.chi),
        copies=args.copies,
        predicates=tuple(_parse_labeling(args.label)),
    )
    image = apply_transduction(
        td, g, _parse_labeling(args.label), **_mso_caps(caps)
    )
    if image is None:
        _verdict("UNDEFINED", structured)
        return 1
    _verdict("DEFINED", structured)
    _emit(graph_to_text(image), args.out)
    return 0


def _cmd_reduce_tree(args, caps, structured):
    ct = tree_model.colored_tree_from_text(_read(args.infile))
    try:
        thresholds = [int(x) for x in args.thresholds.split(",")]
    except ValueError:
        raise ValidationError(
            f"bad --thresholds {args.thresholds!r}, want a comma list"
        ) from None
    reduced = tree_model.reduce_tree(ct, thresholds, args.modulus)
    _emit(tree_model.colored_tree_to_text(reduced), args.out)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        caps = _caps_from_env()
        structured = args.format == "structured"
        handler = {
            "generate": _cmd_generate,
            "convert": _cmd_convert,
            "solve": _cmd_solve,
            "verify": _cmd_verify,
            "mso": _cmd_mso,
            "reduce-tree": _cmd_reduce_tree,
        }[args.command]
        return handler(args, caps, structured)
    except ShrubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means NO, so a crash must not fall through to it
        import traceback  # only a crash pays for this import

        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
