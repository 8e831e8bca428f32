"""Command-line front end for the library.

Subcommands: classify (quotient germs), blowup (chart reports), enumerate
(bounded searches), triple (log-pair queries on a weighted plane), table
(closed-form tables), chain (contraction chains).  Output is deterministic:
rows come in a fixed sort order, json is dumped with sorted keys, and the
worker count never changes bytes.

Exit codes: 0 on success; 2 when the arguments do not name a valid object
(argparse errors included); 1 when well-formed input is refused by the
mathematics (failed start conditions, terminated chains, ...).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .blowup import (
    BaseSingularity,
    WeightedBlowup,
    charts,
    discrepancy_zero,
)
from . import chain as chain_mod
from .chain import ChainError, check_chain_base, start_chain
from .enumerators import (
    canonical_smooth_table,
    enumerate_canonical_odp,
    enumerate_canonical_smooth,
    enumerate_terminal_cyclic,
    resolve_jobs,
)
from .quotient import CyclicQuotientType, is_canonical, minimal_discrepancy, normalize
from .surfaces import (
    CANONICAL_CASES,
    PLT_CASES,
    WPSPair,
    canonical_triple_table,
    classify_canonical_triple,
    classify_plt_triple,
    match_plt_case,
    quadric_surface_pair,
    quadric_triple_condition,
    triple_ample_and_adjunction,
)


class UsageError(Exception):
    """Arguments that parse as flags but do not name a valid object."""


def _fmt_q(x):
    """Rationals print as p/q in lowest terms with q > 0 (0 prints 0/1)."""
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _ints(text, expect=None, what="argument"):
    try:
        out = tuple(int(x) for x in str(text).replace(",", " ").split())
    except ValueError:
        raise UsageError("%s must be a list of integers" % what)
    if expect is not None and len(out) != expect:
        raise UsageError("%s needs %d integers" % (what, expect))
    return out


def _flatten_ints(parts, what="weights"):
    out = []
    for p in parts:
        out.extend(_ints(p, what=what))
    return tuple(out)


def _parse_base(text):
    text = str(text).strip()
    if text == "smooth":
        return BaseSingularity.smooth()
    if text == "odp":
        return BaseSingularity.odp()
    if text.startswith("cyclic:"):
        r, q = _ints(text[len("cyclic:"):], expect=2, what="cyclic base")
        try:
            return BaseSingularity.cyclic(r, q)
        except ValueError as exc:
            raise UsageError(str(exc))
    raise UsageError("base is one of: smooth, odp, cyclic:r,q")


def _parse_blowup(base_text, weight_parts):
    base = _parse_base(base_text)
    w = _flatten_ints(weight_parts)
    try:
        return WeightedBlowup(base, w)
    except ValueError as exc:
        raise UsageError(str(exc))


def _jobs(args):
    """The worker count of --jobs or TORICSING_JOBS; a bad one is a usage error."""
    try:
        return resolve_jobs(args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(args, lines=None, payload=None, rows_csv=None):
    """Print one of the three formats; payload is the json object.

    rows_csv is a list of rows, each a list of cells; cells containing
    commas (family tags like "w1,w2,1") come out quoted.
    """
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        if rows_csv is None:
            raise RuntimeError("csv output needs rows")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows_csv)
        sys.stdout.write(buf.getvalue())
    else:
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args):
    vals = _ints(args.quotient, expect=4, what="--quotient")
    r, weights = vals[0], vals[1:]
    if r < 1:
        raise UsageError("r must be >= 1")
    t = CyclicQuotientType(r, weights)
    n = normalize(t)
    v = is_canonical(n)
    payload = {"input": t.as_dict(), "normalized": n.as_dict(), "verdict": v.as_dict()}
    lines = [
        "input: %s" % t,
        "normalized: %s" % n,
        "verdict: %s" % v.kind,
    ]
    if v.witness_k is not None:
        lines.append("witness_k: %d" % v.witness_k)
    if v.kind == "terminal" and n.is_well_formed:
        md = minimal_discrepancy(n)
        payload["minimal_discrepancy"] = _fmt_q(md)
        lines.append("minimal_discrepancy: %s" % _fmt_q(md))
    return _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# blowup


def cmd_blowup(args):
    b = _parse_blowup(args.base, args.weights)
    report = charts(b)
    a0 = discrepancy_zero(b)
    payload = {
        "blowup": b.as_dict(),
        "a_S_0": _fmt_q(a0),
        "charts": report.as_dict(),
    }
    lines = [
        "base: %s" % args.base,
        "weights: %s" % " ".join(str(w) for w in b.weights),
        "a_S_0: %s" % _fmt_q(a0),
    ]
    for label, chart, verdict in zip(report.labels, report.charts, report.verdicts):
        extra = "" if verdict.witness_k is None else " (k=%d)" % verdict.witness_k
        lines.append("%s: %s %s%s" % (label, chart, verdict.kind, extra))
    lines.append(
        "cs_points: %s" % (" ".join(report.cs_points) if report.cs_points else "-")
    )
    return _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# enumerate


def _enum_rows(base, report):
    rows = []
    for h in report.hits:
        b = WeightedBlowup(base, h)
        tag = report.family_tags.get(h)
        rows.append(
            {
                "weights": list(h),
                "family": tag if tag is not None else "-",
                "a_S_0": _fmt_q(discrepancy_zero(b)),
            }
        )
    return rows


def cmd_enumerate(args):
    base = _parse_base(args.base)
    if args.bound < 1:
        raise UsageError("--bound must be >= 1")
    if base.kind == "cyclic" and not args.terminal:
        raise UsageError("enumeration over a cyclic base is the --terminal search")
    if base.kind == "odp" and args.terminal:
        raise UsageError("the --terminal search is not run over the odp base")
    jobs = _jobs(args)
    if base.kind == "smooth":
        if args.terminal:
            report = enumerate_terminal_cyclic(1, 1, args.bound, jobs=jobs)
        else:
            report = enumerate_canonical_smooth(args.bound, jobs=jobs)
    elif base.kind == "odp":
        report = enumerate_canonical_odp(args.bound, jobs=jobs)
    else:
        report = enumerate_terminal_cyclic(base.r, base.q, args.bound, jobs=jobs)
    rows = _enum_rows(base, report)
    payload = {
        "base": base.as_dict(),
        "bound": report.bound,
        "rows": rows,
        "errors": list(report.errors),
    }
    lines = [
        "%s  %s  %s" % (" ".join(str(x) for x in r["weights"]), r["family"], r["a_S_0"])
        for r in rows
    ]
    lines += ["error: %s" % e for e in report.errors]
    if not lines:
        lines = ["(no hits)"]
    rows_csv = [["weights", "family", "a_S_0"]] + [
        [" ".join(str(x) for x in r["weights"]), r["family"], r["a_S_0"]]
        for r in rows
    ]
    rows_csv += [["error", e, ""] for e in report.errors]
    return _emit(args, lines, payload, rows_csv)


# ---------------------------------------------------------------------------
# triple


def cmd_triple(args):
    sw = _ints(args.surface, expect=3, what="--surface")
    ds = _ints(args.boundary, expect=3, what="--boundary")
    if any(d < 1 for d in ds):
        raise UsageError("boundary indices must be >= 1")
    if args.gamma < 1:
        raise UsageError("--gamma must be >= 1")
    try:
        s = WPSPair(
            sw,
            [(i + 1, Fraction(d - 1, d)) for i, d in enumerate(ds) if d > 1],
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    ample, log_degree = triple_ample_and_adjunction(s, args.gamma)
    rec = classify_plt_triple(sw, ds, args.gamma)
    payload = {
        "surface": s.as_dict(),
        "boundary_indices": list(ds),
        "gamma": args.gamma,
        "ample": ample,
        "log_degree": _fmt_q(log_degree),
        "plt": rec.as_dict() if rec is not None else None,
    }
    lines = [
        "surface: P(%s)" % ",".join(str(x) for x in s.weights),
        "boundary_indices: %s" % " ".join(str(d) for d in ds),
        "gamma: %d" % args.gamma,
        "ample: %s" % ("yes" if ample else "no"),
        "log_degree: %s" % _fmt_q(log_degree),
    ]
    if rec is None:
        lines.append("plt: no match")
    else:
        lines.append(
            "plt: %s params=%s type=%s"
            % (rec.case, ",".join(str(x) for x in rec.params), rec.ade)
        )
    return _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# table


def cmd_table(args):
    if args.bound < 1:
        raise UsageError("--bound must be >= 1")
    if args.which == "canonical-smooth":
        rows = canonical_smooth_table(args.bound)
        payload = {
            "table": "canonical-smooth",
            "bound": args.bound,
            "rows": [{"weights": list(w), "family": f} for w, f in rows],
        }
        lines = ["%s  %s" % (" ".join(str(x) for x in w), f) for w, f in rows]
        rows_csv = [["weights", "family"]] + [
            [" ".join(str(x) for x in w), f] for w, f in rows
        ]
        return _emit(args, lines, payload, rows_csv)
    if args.which == "quadric-triples":
        report = enumerate_canonical_odp(args.bound, jobs=_jobs(args))
        rows = []
        for w in report.hits:
            qp = quadric_surface_pair(w)
            rows.append(
                {
                    "weights": list(w),
                    "a": list(qp.a),
                    "d": [qp.d[p] for p in ((1, 3), (1, 4), (2, 3), (2, 4))],
                    "plt": quadric_triple_condition(w, mode="plt"),
                    "canonical": quadric_triple_condition(w, mode="canonical"),
                    "a_S_0": _fmt_q(w[0] + w[1] - 1),
                }
            )
        payload = {"table": "quadric-triples", "bound": args.bound, "rows": rows}
        lines = [
            "%s  a=%s d=%s plt=%s canonical=%s a_S_0=%s"
            % (
                " ".join(str(x) for x in r["weights"]),
                ",".join(str(x) for x in r["a"]),
                ",".join(str(x) for x in r["d"]),
                "yes" if r["plt"] else "no",
                "yes" if r["canonical"] else "no",
                r["a_S_0"],
            )
            for r in rows
        ]
        rows_csv = [["weights", "a", "d", "plt", "canonical", "a_S_0"]] + [
            [
                " ".join(str(x) for x in r["weights"]),
                " ".join(str(x) for x in r["a"]),
                " ".join(str(x) for x in r["d"]),
                "yes" if r["plt"] else "no",
                "yes" if r["canonical"] else "no",
                r["a_S_0"],
            ]
            for r in rows
        ]
        return _emit(args, lines, payload, rows_csv)
    # canonical-triples
    rows = []
    for rec, w, gamma in canonical_triple_table(args.bound):
        rows.append(
            {
                "weights": list(w),
                "gamma": gamma,
                "case": rec.case,
                "params": [str(p) for p in rec.params],
                "type": rec.ade,
                "split_gamma1": rec.split_gamma1,
            }
        )
    payload = {"table": "canonical-triples", "bound": args.bound, "rows": rows}
    lines = [
        "%s  gamma=%d  %s  %s  params=%s%s"
        % (
            " ".join(str(x) for x in r["weights"]),
            r["gamma"],
            r["case"],
            r["type"],
            ",".join(r["params"]),
            "" if r["split_gamma1"] is None else "  split=%d" % r["split_gamma1"],
        )
        for r in rows
    ]
    rows_csv = [["weights", "gamma", "case", "type", "params", "split"]] + [
        [
            " ".join(str(x) for x in r["weights"]),
            r["gamma"],
            r["case"],
            r["type"],
            " ".join(r["params"]),
            "" if r["split_gamma1"] is None else r["split_gamma1"],
        ]
        for r in rows
    ]
    return _emit(args, lines, payload, rows_csv)


# ---------------------------------------------------------------------------
# chain


def _parse_betas(text):
    steps = []
    if not str(text).strip():
        return steps
    for part in str(text).split(";"):
        part = part.strip()
        if not part:
            continue
        bits = _ints(part, what="--betas")
        if len(bits) not in (2, 3):
            raise UsageError("each step is 'beta1,beta2' or 'beta1,beta2,fiber'")
        b1, b2 = bits[0], bits[1]
        f = bits[2] if len(bits) == 3 else 1
        if f not in (1, 2):
            raise UsageError("the fiber choice is 1 or 2")
        steps.append((b1, b2, f))
    return steps


def _chain_record(b, case, gamma_opt):
    if "plt-" + case in PLT_CASES:
        star = chain_mod.star_surface(b)
        match = match_plt_case("plt-" + case, star.lams, star.cs)
        if match is None:
            raise ValueError(
                "the exceptional surface of this blow-up does not carry case %s"
                % case
            )
        return match[0]
    recs = [
        r
        for r in classify_canonical_triple(b.weights, gamma_opt)
        if r.case == case
    ]
    if not recs:
        raise ValueError(
            "no %s row with these weights and this curve class" % case
        )
    return recs[0]


def cmd_chain_run(args):
    b = _parse_blowup(args.base, args.weights)
    case = args.triple_case
    if "plt-" + case not in PLT_CASES and case not in CANONICAL_CASES:
        numbers = [key[len("plt-"):] for key in PLT_CASES]
        raise UsageError(
            "--triple-case is %s..%s or one of %s"
            % (numbers[0], numbers[-1], ", ".join(CANONICAL_CASES))
        )
    betas = _parse_betas(args.betas)
    if case in CANONICAL_CASES and args.gamma is None:
        raise UsageError("canonical cases need --gamma")
    check_chain_base(b)
    rec = _chain_record(b, case, args.gamma)
    state = start_chain(b, rec)
    transcript = [{"betas": None, **state.as_dict()}]
    for b1, b2, f in betas:
        state = chain_mod.step(state, b1, b2, fiber=f)
        transcript.append({"betas": [b1, b2, f], **state.as_dict()})
    payload = {
        "blowup": b.as_dict(),
        "record": rec.as_dict(),
        "transcript": transcript,
    }
    lines = []
    for entry in transcript:
        head = "step %d" % entry["step"]
        if entry["betas"] is not None:
            head += " (beta=%d,%d fiber=%d)" % tuple(entry["betas"])
        lines.append(
            "%s: triple=%s boundary=%s gamma=(%s, %s) a_plus_1=%s"
            % (
                head,
                ",".join(str(x) for x in entry["triple"]),
                ",".join(str(x) for x in entry["boundary"]),
                entry["gamma"][0],
                entry["gamma"][1],
                entry["a_plus_1"],
            )
        )
        if entry.get("note"):
            lines.append("  note: %s" % entry["note"])
    lines.append("case: %s  type: %s  length: %d" % (rec.case, rec.ade, len(transcript)))
    return _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="toricsing",
        description="quotient germs, weighted blow-ups, and contraction chains",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp, csv=False):
        choices = ["text", "json"] + (["csv"] if csv else [])
        sp.add_argument("--format", choices=choices, default="text")

    sp = sub.add_parser("classify", help="classify a cyclic quotient germ")
    sp.add_argument("--quotient", required=True, metavar="R,A1,A2,A3")
    add_format(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("blowup", help="chart report of a weighted blow-up")
    sp.add_argument("--base", required=True, metavar="smooth|odp|cyclic:R,Q")
    sp.add_argument("--weights", required=True, nargs="+")
    add_format(sp)
    sp.set_defaults(func=cmd_blowup)

    sp = sub.add_parser("enumerate", help="bounded searches over weight vectors")
    sp.add_argument("--base", required=True, metavar="smooth|odp|cyclic:R,Q")
    sp.add_argument("--bound", required=True, type=int)
    sp.add_argument("--terminal", action="store_true")
    sp.add_argument("--jobs", type=int, default=None)
    add_format(sp, csv=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("triple", help="log-pair query on a weighted plane")
    sp.add_argument("--surface", required=True, metavar="A1,A2,A3")
    sp.add_argument("--boundary", required=True, metavar="D1,D2,D3")
    sp.add_argument("--gamma", required=True, type=int)
    add_format(sp)
    sp.set_defaults(func=cmd_triple)

    sp = sub.add_parser("table", help="closed-form tables")
    sp.add_argument(
        "which",
        choices=["canonical-smooth", "quadric-triples", "canonical-triples"],
    )
    sp.add_argument("--bound", required=True, type=int)
    sp.add_argument("--jobs", type=int, default=None)
    add_format(sp, csv=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("chain", help="contraction chains")
    chain_sub = sp.add_subparsers(dest="chain_command", required=True)
    sr = chain_sub.add_parser("run", help="start a chain and run steps")
    sr.add_argument("--base", required=True, metavar="smooth|cyclic:R,Q")
    sr.add_argument("--weights", required=True, nargs="+")
    sr.add_argument("--triple-case", required=True, dest="triple_case")
    sr.add_argument("--gamma", type=int, default=None)
    sr.add_argument("--betas", default="", metavar="B1,B2[,F];...")
    add_format(sr)
    sr.set_defaults(func=cmd_chain_run)

    return p


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:  # built on first use: importing the module stays cheap
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ChainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
