"""Command-line front door.

Verdict-bearing commands print a one-line machine-readable verdict first.
Exit codes: 0 success / YES, 1 NO or failed verification, 2 any error.
`SHRUBKIT_CAPS` (comma-separated name=value) overrides resource caps.

A plain, valid command line is read straight from the command table by
`_table_args`; help, usage errors and every other spelling go to the
argparse parser of the whole table, so their bytes and exit codes are
argparse's.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache, partial
from types import SimpleNamespace

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
    for item in os.environ.get("SHRUBKIT_CAPS", "").split(","):
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
        if caps[name] < 0:
            raise ValidationError(
                f"SHRUBKIT_CAPS value for {name} must be at least 0, got {caps[name]}"
            )
    return caps


def _read(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{path} is not UTF-8 text") from None


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


def _verdict_then(text, out, line, structured, **fields):
    """The verdict, then `text` on stdout or in the file `out`; the file is
    written first, so a write that fails leaves stdout empty."""
    if out is not None:
        _emit(text, out)
    _verdict(line, structured, **fields)
    if out is None:
        _emit(text, out)


def _mso_caps(caps):
    return {
        "max_vertices": caps["mso-vertices"],
        "max_set_quantifiers": caps["mso-set-quantifiers"],
    }


# (group, name, arguments, parser options, handler) for every command, in the
# order the help listings show them; the group of a top-level command is ""
_COMMANDS = []

# group word -> (dest naming its chosen subcommand, help text)
_GROUPS = {
    "generate": ("what", "stock graphs and models"),
    "convert": ("how", "between representations"),
    "solve": ("what", "membership and measures"),
    "verify": ("what", "check a certificate against a graph"),
    "mso": ("what", "logic engine"),
}


def _arg(*flags, **options):
    return flags, options


def _int(flag):
    return _arg(flag, type=int, required=True)


def _out(help=None):
    return _arg("-o", "--out", help=help)


_GRAPH = _arg("--graph", required=True)
_IN = _arg("--in", dest="infile", required=True)


def _command(path, *arguments, **options):
    """Register the decorated handler(args, caps, structured) as `path`.

    The handler returns its exit code, 1 for a NO verdict or a failed check;
    returning nothing means 0.  It raises for an error.
    """

    def register(handler):
        group, _, name = path.rpartition(" ")
        _COMMANDS.append((group, name, arguments, options, handler))
        return handler

    return register


_FORMATS = ("text", "structured")


@cache
def _build_parser():
    """The argparse parser of the whole table, built the first time a call
    is not one `_table_args` reads (help, a usage error or any other
    spelling), and kept.  argparse is imported here, so a valid call never
    imports it.

    Reusing the parser is safe: argparse keeps each call's state in the
    namespace it returns, and the handlers look their callees up when they
    run.
    """
    import argparse

    description = "Tree-models, SC-trees, conversions, solvers, and logic."
    top = argparse.ArgumentParser(prog="shrubkit", description=description)
    top.add_argument("--format", choices=_FORMATS, default="text",
                     help="verdict output style")
    commands = top.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, arguments, options, handler in _COMMANDS:
        if group and group not in groups:
            dest, help_text = _GROUPS[group]
            group_parser = commands.add_parser(group, help=help_text)
            groups[group] = group_parser.add_subparsers(dest=dest, required=True)
        leaf = (groups[group] if group else commands).add_parser(name, **options)
        for flags, kwargs in arguments:
            leaf.add_argument(*flags, **kwargs)
        leaf.set_defaults(run=handler)
    return top


def _table_args(argv):
    """The namespace argparse returns for a plain, valid `argv`, read
    straight from `_COMMANDS`, or None for any other argv.

    Plain means an optional leading `--format text|structured`, the exact
    group and command words, then exact `flag value` pairs, each value
    non-empty and not starting with "-".  An int option's value is read with
    `int`, as argparse reads it; an append option appends to a copy of its
    default, and otherwise the last value of a repeated flag wins.  Every
    other argv, help and every refusal included, returns None and goes to
    argparse, so this path never refuses a call.  It reads the argument
    options the table uses: dest, default, required, type=int and
    action="append".
    """
    fields = {"format": "text"}
    if len(argv) > 1 and argv[0] == "--format" and argv[1] in _FORMATS:
        fields["format"] = argv[1]
        argv = argv[2:]
    for group, name, arguments, _, handler in _COMMANDS:
        words = [group, name] if group else [name]
        if argv[:len(words)] == words:
            break
    else:
        return None
    fields["command"] = words[0]
    if group:
        fields[_GROUPS[group][0]] = name
    by_flag, missing = {}, set()
    for flags, options in arguments:
        long = [flag for flag in flags if flag.startswith("--")]
        dest = options.get("dest") or (long or flags)[0].lstrip("-").replace("-", "_")
        fields[dest] = options.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, options)))
        if options.get("required"):
            missing.add(dest)
    pairs = argv[len(words):]
    if len(pairs) % 2:
        return None
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if flag not in by_flag or value[:1] in ("", "-"):
            return None
        dest, options = by_flag[flag]
        if options.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if options.get("action") == "append":
            value = [*(fields[dest] or ()), value]
        fields[dest] = value
        missing.discard(dest)
    if missing:
        return None
    fields["run"] = handler
    return SimpleNamespace(**fields)


def _parse_labeling(items):
    labeling = {}
    for item in items:
        name, sep, verts = item.partition("=")
        if not sep or not name:
            raise ValidationError(f"bad --label {item!r}, want NAME=v1,v2,...")
        try:
            labeling[name] = [int(v) for v in verts.split(",") if v.strip() != ""]
        except ValueError:
            raise ValidationError(f"bad vertex list in --label {item!r}") from None
    return labeling


def _graph(args):
    return graph_from_text(_read(args.graph))


def _ok_or(failure, ok, structured, **fields):
    """Verdict OK with `fields` and exit 0 when `ok`, else `failure` and 1."""
    if ok:
        _verdict("OK", structured, **fields)
        return 0
    _verdict(failure, structured)
    return 1


@_command("generate path", _int("--length"), _out())
def _generate_path(args, caps, structured):
    _emit(graph_to_text(constructions.make_path(args.length)), args.out)


@_command("generate clique", _int("--n"), _out())
def _generate_clique(args, caps, structured):
    _emit(graph_to_text(constructions.make_clique(args.n)), args.out)


@_command("generate biclique", _int("--a"), _int("--b"), _out())
def _generate_biclique(args, caps, structured):
    _emit(graph_to_text(constructions.make_biclique(args.a, args.b)), args.out)


@_command("generate subdivided-k33", _out(),
          _arg("--model-out", help="also write the depth-2 model here"))
def _generate_subdivided_k33(args, caps, structured):
    g, model = constructions.subdivided_matching_biclique_model()
    # the model file first, so a write that fails leaves stdout empty
    if args.model_out:
        _emit(tree_model.model_to_text(model), args.model_out)
    _emit(graph_to_text(g), args.out)


@_command("generate path-model", _int("--m"), _out())
def _generate_path_model(args, caps, structured):
    model = constructions.path_model(args.m, cap=caps["path-model"])
    _emit(tree_model.model_to_text(model), args.out)


@_command("generate clique-model", _int("--n"), _out())
def _generate_clique_model(args, caps, structured):
    _emit(tree_model.model_to_text(constructions.clique_model(args.n)), args.out)


@_command("generate biclique-model", _int("--a"), _int("--b"), _out())
def _generate_biclique_model(args, caps, structured):
    model = constructions.biclique_model(args.a, args.b)
    _emit(tree_model.model_to_text(model), args.out)


# the pure conversions, each with its (reader, conversion, writer); the
# triple is fetched when the command runs, so that a function patched on its
# module after import is the one called
_CONVERSIONS = (
    ("tm-to-sc",
     lambda: (tree_model.model_from_text, sc_model.tm_to_sc, sc_model.sc_to_text)),
    ("sc-to-tm",
     lambda: (sc_model.sc_from_text, sc_model.sc_to_tm, tree_model.model_to_text)),
    ("tm-to-lincw",
     lambda: (tree_model.model_from_text, lincw.tm_to_lincw, lincw.lincw_to_text)),
    ("sc-eval", lambda: (sc_model.sc_from_text, sc_model.evaluate_sc, graph_to_text)),
    ("tm-eval",
     lambda: (tree_model.model_from_text, tree_model.realize, graph_to_text)),
    ("lincw-eval", lambda: (lincw.lincw_from_text, lincw.eval_lincw, graph_to_text)),
)


def _convert(steps, args, caps, structured):
    reader, conversion, writer = steps()
    _emit(writer(conversion(reader(_read(args.infile)))), args.out)


for _how, _steps in _CONVERSIONS:
    _command(f"convert {_how}", _IN, _out())(partial(_convert, _steps))


@_command("convert td-to-tm", _GRAPH, _arg("--forest", required=True), _out())
def _convert_td_to_tm(args, caps, structured):
    g = _graph(args)
    forest = depth.forest_from_text(_read(args.forest))
    _emit(tree_model.model_to_text(depth.td_to_tm(g, forest)), args.out)


@_command("solve tm", _GRAPH, _int("--d"), _int("--m"), _out("witness model file"))
def _solve_tm(args, caps, structured):
    witness = solver.tm_membership(_graph(args), args.d, args.m, cap=caps["tm"])
    if witness is None:
        _verdict(f"NO (verified for all depths <= {args.d})", structured)
        return 1
    _verdict_then(tree_model.model_to_text(witness), args.out, "YES", structured,
                  depth=witness.depth, colors=witness.colors)


@_command("solve tmc", _GRAPH, _int("--d"), _int("--m"), _int("--k"), _out())
def _solve_tmc(args, caps, structured):
    g = _graph(args)
    copied = solver.tmc_membership(g, args.d, args.m, args.k, cap=caps["tm"])
    if copied is None:
        _verdict("NO", structured)
        return 1
    _verdict_then(tree_model.model_to_text(copied.model), args.out, "YES",
                  structured, depth=args.d, colors=args.m, k=args.k)


@_command("solve sc", _GRAPH, _int("--n"), _out("witness SC-tree file"))
def _solve_sc(args, caps, structured):
    witness = solver.sc_membership(_graph(args), args.n, cap=caps["sc"])
    if witness is None:
        _verdict(f"NO (no SC-tree of height <= {args.n})", structured)
        return 1
    _verdict_then(sc_model.sc_to_text(witness), args.out, "YES", structured,
                  height=witness.height)


@_command("solve td", _GRAPH, _out("witness forest file"))
def _solve_td(args, caps, structured):
    value, forest = depth.tree_depth(_graph(args), cap=caps["td"])
    _verdict_then(depth.forest_to_text(forest), args.out, f"TREE-DEPTH {value}",
                  structured)


@_command("solve nd", _GRAPH)
def _solve_nd(args, caps, structured):
    _verdict(f"ND {neighbourhood_diversity(_graph(args))}", structured)


@_command("solve obstructions", _int("--d"), _int("--m"), _int("--max-n"), _out())
def _solve_obstructions(args, caps, structured):
    found = solver.minimal_obstructions(args.d, args.m, args.max_n, cap=caps["tm"])
    blocks = [graph_to_text(g) for g in found]
    # a structured verdict holds the blocks, so they go to stdout only once
    text = "" if structured and args.out is None else "\n".join(blocks)
    _verdict_then(text, args.out, f"OBSTRUCTIONS {len(found)}", structured,
                  graphs=blocks)


# each verify command reads the graph before the certificate
@_command("verify tm", _arg("--model", required=True), _GRAPH)
def _verify_tm(args, caps, structured):
    g = _graph(args)
    model = tree_model.model_from_text(_read(args.model))
    return _ok_or("MISMATCH", tree_model.verify(model, g), structured)


@_command("verify sc", _arg("--sc", required=True), _GRAPH)
def _verify_sc(args, caps, structured):
    g = _graph(args)
    t = sc_model.sc_from_text(_read(args.sc))
    return _ok_or("MISMATCH", sc_model.verify_sc(t, g), structured)


@_command("verify td", _arg("--forest", required=True), _GRAPH)
def _verify_td(args, caps, structured):
    g = _graph(args)
    forest = depth.forest_from_text(_read(args.forest))
    valid = depth.validate_td(g, forest)
    return _ok_or("INVALID", valid, structured, height=forest.height)


@_command("verify kcopied", _arg("--model", required=True), _int("--d"), _int("--m"),
          _int("--k"), _arg("--graph", help="also require realize to match this graph"))
def _verify_kcopied(args, caps, structured):
    g = _graph(args) if args.graph else None
    model = tree_model.model_from_text(_read(args.model))
    if not tree_model.verify_k_copied(model, args.d, args.m, args.k):
        _verdict("INVALID", structured)
        return 1
    matches = g is None or tree_model.verify(model, g)
    return _ok_or("MISMATCH", matches, structured)


@_command("mso parse", _arg("--formula", required=True, help="formula file"))
def _mso_parse(args, caps, structured):
    formula = parse_formula(_read(args.formula))
    _verdict("OK", structured, canonical=format_formula(formula),
             quantifiers=quantifier_count(formula), mod_lcm=mod_lcm(formula))


@_command("mso check", _GRAPH,
          _arg("--formula", required=True, help="sentence file"))
def _mso_check(args, caps, structured):
    g = _graph(args)
    formula = parse_formula(_read(args.formula))
    value = evaluate(g, formula, **_mso_caps(caps))
    _verdict("TRUE" if value else "FALSE", structured)
    return 0 if value else 1


@_command("mso interpret", _GRAPH,
          _arg("--nu", default="true", help="domain formula text"),
          _arg("--mu", required=True, help="edge formula text"), _out())
def _mso_interpret(args, caps, structured):
    g = _graph(args)
    interp = Interpretation(parse_formula(args.nu), parse_formula(args.mu))
    image, _ = apply_interpretation(interp, g, **_mso_caps(caps))
    _emit(graph_to_text(image), args.out)


@_command("mso transduce", _GRAPH, _arg("--nu", default="true"),
          _arg("--mu", required=True),
          _arg("--chi", default="true", help="precondition sentence text"),
          _arg("--copies", type=int, default=1),
          _arg("--label", action="append", default=[], metavar="NAME=v1,v2,...",
               help="guessed unary predicate (repeatable)"),
          _out())
def _mso_transduce(args, caps, structured):
    g = _graph(args)
    interp = Interpretation(parse_formula(args.nu), parse_formula(args.mu))
    precondition = parse_formula(args.chi)
    labeling = _parse_labeling(args.label)
    td = Transduction(interp, precondition=precondition, copies=args.copies,
                      predicates=tuple(labeling))
    image = apply_transduction(td, g, labeling, **_mso_caps(caps))
    if image is None:
        _verdict("UNDEFINED", structured)
        return 1
    _verdict_then(graph_to_text(image), args.out, "DEFINED", structured)


@_command("reduce-tree", _IN,
          _arg("--thresholds", required=True, help="comma list, by height"),
          _int("--modulus"), _out(), help="prune sibling class multiplicity")
def _reduce_tree(args, caps, structured):
    ct = tree_model.colored_tree_from_text(_read(args.infile))
    try:
        thresholds = [int(x) for x in args.thresholds.split(",")]
    except ValueError:
        raise ValidationError(
            f"bad --thresholds {args.thresholds!r}, want a comma list"
        ) from None
    reduced = tree_model.reduce_tree(ct, thresholds, args.modulus)
    _emit(tree_model.colored_tree_to_text(reduced), args.out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv) or _build_parser().parse_args(argv)
    try:
        return args.run(args, _caps_from_env(), args.format == "structured") or 0
    except (ShrubError, OSError) as exc:
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
