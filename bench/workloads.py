"""The three workloads: how each builds its seeded rounds of operations, runs
one operation, and checks every output after the timed phase.

A run is a closed loop from one caller: the next operation starts when the
previous one returns, and a run always executes whole rounds.  Rounds are
stratified so that their cost hardly depends on the seed: every parameter
walks through a fixed list of options (or a fixed set of strata) from a
seeded starting point, and the seed picks the values inside each option and
the order of the round.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import oracles as O

GOLDEN = (math.sqrt(5) - 1) / 2


def run_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI request; writing
    the output is part of the request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rng(seed, name, *salt):
    return random.Random("%s:%s:%s" % (seed, name, ":".join(map(str, salt))))


def _cycle(options, seed, name, j):
    """The option for round j: a seeded permutation walked from a seeded
    start, so consecutive rounds cover every option evenly."""
    rng = _rng(seed, name, "cycle")
    order = list(options)
    rng.shuffle(order)
    return order[(rng.randrange(len(order)) + j) % len(order)]


def _frac(s):
    num, _, den = str(s).partition("/")
    return Fraction(int(num), int(den or 1))


def _ints(text):
    return tuple(int(x) for x in text.replace(",", " ").split())


class Workload:
    """Outputs are stored for the checks after the timed phase: the first
    output of each distinct operation whole, its repeats as digests, so
    that memory does not grow with the number of rounds.  The checks return
    (operation, message) pairs; every run of an operation whose output is
    wrong counts as failed."""

    def __init__(self, seed):
        self.seed = seed
        self.first = {}  # operation -> its first output
        self.repeats = {}  # operation -> digests of later outputs
        self.kept = Counter()  # operation -> runs that returned an output

    def failed(self, op, out):
        """Whether an operation that returned failed (a raise always does)."""
        return False

    def digest(self, out):
        return hash(out)

    def keep(self, op, out):
        self.kept[op] += 1
        if op in self.first:
            self.repeats.setdefault(op, set()).add(self.digest(out))
        else:
            self.first[op] = out

    def repeat_errors(self):
        """Repeated operations must give the same output every time."""
        return [
            (op, "output differs between rounds")
            for op, digests in self.repeats.items()
            if digests != {self.digest(self.first[op])}
        ]


# ---------------------------------------------------------------------------
# search


class Search(Workload):
    """Bounded scans through the four enumerators at seeded bounds."""

    name = "search"

    # (template, options); an option is the argument tuple of one scan
    TEMPLATES = (
        ("smooth", [(11,), (12,), (13,)]),
        ("odp", [(8,), (9,), (10,)]),
        ("terminal-1", [(1, 1, 9), (1, 1, 10), (1, 1, 11)]),
        ("terminal-2", [(2, 1, 5), (2, 1, 6)]),
        ("terminal-3", [(3, q, b) for q in (1, 2) for b in (5, 6)]),
        ("terminal-4", [(4, q, b) for q in (1, 3) for b in (6, 7)]),
        ("terminal-5", [(5, q, b) for q in (1, 2, 3, 4) for b in (7, 8)]),
    ) + tuple(
        ("plt-%d" % c, [(c, b) for b in {2: (12, 13, 14), 7: (7, 8, 9)}.get(c, (8, 9, 10))])
        for c in range(1, 9)
    )
    # plt-2 and terminal-2 are sized so that the median operation falls
    # inside a cluster of four scans of similar cost (about 20 ms)

    def round(self, j):
        ops = []
        for template, options in self.TEMPLATES:
            args = _cycle(options, self.seed, template, j)
            kind = template.split("-")[0]
            ops.append((kind, args))
        _rng(self.seed, "order", j).shuffle(ops)
        return ops

    def warmup(self):
        return [("smooth", (4,)), ("odp", (4,)), ("terminal", (1, 1, 4)),
                ("terminal", (2, 1, 4)), ("plt", (2, 4))]

    def call(self, ts, op):
        kind, args = op
        e = ts.enumerators
        if kind == "smooth":
            return e.enumerate_canonical_smooth(*args, jobs=1)
        if kind == "odp":
            return e.enumerate_canonical_odp(*args, jobs=1)
        if kind == "terminal":
            return e.enumerate_terminal_cyclic(*args, jobs=1)
        return e.enumerate_plt_triples_case(*args, jobs=1)

    def digest(self, rep):
        return hash((rep.bound, rep.hits, rep.errors, tuple(sorted(rep.family_tags.items()))))

    def check(self, ts):
        errors = []
        kawamata = {}
        for op, rep in self.first.items():
            kind, args = op
            want_hits, want_tags = self._expect(kind, args)
            if kind == "terminal" and args[0] > 1:
                # Kawamata: 1/r(-1,-q,1) has one terminal blow-up, of
                # discrepancy 1/r, so every bound >= r+2 finds the same hit
                r, q = args[:2]
                if len(rep.hits) != 1:
                    errors.append((op, "%d hits, want 1" % len(rep.hits)))
                    continue
                hit, base = rep.hits[0], ("cyclic", r, q)
                if O.a_s0(base, hit) != Fraction(1, r) or any(
                    O.age_verdict(c, w)[0] != "terminal" for c, w in O.chart_formulas(base, hit)
                ):
                    errors.append((op, "hit %s is not terminal of discrepancy 1/%d" % (hit, r)))
                seen = kawamata.setdefault((r, q), hit)
                if seen != hit:
                    errors.append((op, "hit %s, other bound %s" % (hit, seen)))
            elif set(rep.hits) != want_hits or len(rep.hits) != len(want_hits):
                errors.append((op, "hits differ (%d vs %d)" % (len(rep.hits), len(want_hits))))
            elif list(rep.hits) != sorted(rep.hits):
                errors.append((op, "hits not in lexicographic order"))
            if rep.errors:
                errors.append((op, "errors %s" % (rep.errors[:2],)))
            if want_tags is not None and any(
                rep.family_tags.get(h) != want_tags(h) for h in rep.hits
            ):
                errors.append((op, "family tags differ"))
        return errors

    @staticmethod
    def _expect(kind, args):
        if kind == "smooth":
            return O.smooth_canonical_hits(args[0]), O.smooth_family
        if kind == "odp":
            return O.odp_canonical_hits(args[0]), lambda h: "unit-weight"
        if kind == "terminal":
            if args[0] == 1:
                return O.smooth_terminal_hits(args[2]), O.smooth_family
            return None, None
        return set(O.plt_hits(*args)), None


# ---------------------------------------------------------------------------
# classify


def _classify_weights(rng, r, kind):
    """Weights of one type of the given kind at order r (r may be moved to
    a neighbour where the kind needs it); returns (r, weights)."""
    if kind == "canonical-not-terminal" and r % 2 == 0:
        r += 1  # a well-formed Gorenstein type needs odd r
    if kind == "not-well-formed" and O.prime_factors(r) == [r]:
        r += 1  # prime r: move to the even neighbour, which has a factor
    us = O.units(r)
    while True:
        a, b = rng.choice(us), rng.choice(us)
        if kind == "terminal":
            w = [a, r - a, b]
        elif kind == "canonical-not-terminal":
            c = (-a - b) % r
            if c == 0 or gcd(c, r) != 1 or (a + b) % r == 0:
                continue
            w = [a, b, c]
        elif kind == "not-canonical":
            c = rng.choice(us)
            if (a + b + c) % r == 0 or (a + b) % r == 0 or (a + c) % r == 0 or (b + c) % r == 0:
                continue
            w = [a, b, c]
        else:
            p = O.prime_factors(r)[0]
            w = [a, b, p * rng.randrange(0, r // p)]
        rng.shuffle(w)
        return r, tuple(w)


class Classify(Workload):
    """`toricsing classify --format json` through cli.main, r log-uniform
    over [LO, HI] in STRATA strata per round, fresh inputs every round."""

    name = "classify"
    LO, HI, STRATA = 100, 20000, 16
    KINDS = ("terminal", "canonical-not-terminal", "not-canonical", "not-well-formed")
    ORBITS = ((9, (1, 4, 7)), (14, (1, 9, 11)))

    def round(self, j):
        rng = _rng(self.seed, "classify", j)
        start = _rng(self.seed, "classify-start")
        offsets = [start.random() for _ in range(self.STRATA)]
        k0 = start.randrange(4)
        lo, width = math.log(self.LO), math.log(self.HI / self.LO) / self.STRATA
        ops = []
        for i in range(self.STRATA):
            u = (offsets[i] + j * GOLDEN) % 1.0
            r = int(round(math.exp(lo + (i + u) * width)))
            kind = self.KINDS[(i + j + k0) % 4]
            ops.append(_classify_weights(rng, r, kind))
        for r, w in self.ORBITS:
            for _ in range(4):
                u = rng.choice(O.units(r))
                t = [u * a % r for a in w]
                rng.shuffle(t)
                ops.append((r, tuple(t)))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [(101, (1, 100, 3)), (9, (1, 4, 7)), (300, (1, 2, 6))]

    @staticmethod
    def argv(op):
        r, w = op
        return ["classify", "--quotient", "%d,%d,%d,%d" % ((r,) + w), "--format", "json"]

    def call(self, ts, op):
        return run_cli(ts.cli, self.argv(op))

    def failed(self, op, out):
        return out[0] != 0

    def check(self, ts):
        errors = []
        rng = _rng(self.seed, "classify-check")
        for op, (code, out, err) in self.first.items():
            if code != 0:
                continue
            r, w = op
            d = json.loads(out)
            errors += [(op, e) for e in check_classify(op, d)]
            if r <= 2000:
                # normalize is constant on the orbit: a random unit and
                # permutation of the input gives the same normal form
                u = rng.choice(O.units(r))
                t = [u * a % r for a in w]
                rng.shuffle(t)
                n = ts.quotient.normalize(ts.quotient.CyclicQuotientType(r, t))
                if n.weights != tuple(d["normalized"]["weights"]):
                    errors.append((op, "classify %s: normalize not orbit-invariant" % (op,)))
        return errors


def check_classify(op, d):
    r, w = op
    want = O.classify_expect(r, w)
    got_md = d.get("minimal_discrepancy")
    got = (
        tuple(d["normalized"]["weights"]), d["verdict"]["kind"], d["verdict"]["witness_k"],
        None if got_md is None else _frac(got_md),
    )
    exp = (want["normalized"], want["kind"], want["witness_k"], want["md"])
    if d["normalized"]["r"] != r or got != exp:
        return ["classify %s: got %s want %s" % (op, got, exp)]
    return []


# ---------------------------------------------------------------------------
# session


def _primitive(rng, n, hi):
    while True:
        w = tuple(rng.randint(1, hi) for _ in range(n))
        if O.content(w) == 1:
            return w


def _session_pool(seed):
    """The seeded request pool of the session workload: (argv, kind, meta)."""
    rng = _rng(seed, "session-pool")
    pool = []

    def add(argv, kind, fmt, **meta):
        pool.append((tuple(argv + ["--format", fmt]), kind, fmt, meta))

    for i in range(4):
        r = rng.randint(5, 60)
        w = tuple(rng.randrange(r) for _ in range(3))
        add(["classify", "--quotient", "%d,%d,%d,%d" % ((r,) + w)], "classify",
            ("text", "json")[i % 2], r=r, w=w)
    for i in range(4):
        w = _primitive(rng, 3, 15)
        add(["blowup", "--base", "smooth", "--weights", "%d,%d,%d" % w], "blowup",
            ("text", "json")[i % 2], base=("smooth",), w=w)
    for i in range(4):
        r = rng.randint(2, 9)
        q = rng.choice(O.units(r)) if r > 2 else 1
        while True:
            w = _primitive(rng, 3, 6)
            if r * w[0] - w[2] >= 1 and r * w[1] - q * w[2] >= 1:
                break
        add(["blowup", "--base", "cyclic:%d,%d" % (r, q), "--weights", "%d,%d,%d" % w],
            "blowup", ("json", "text")[i % 2], base=("cyclic", r, q), w=w)
    for i in range(3):
        while True:
            w1, w2, w3 = (rng.randint(1, 8) for _ in range(3))
            w = (w1, w2, w3, w1 + w2 - w3)
            if 1 <= w[3] <= 8 and O.content(w) == 1:
                break
        add(["blowup", "--base", "odp", "--weights", "%d,%d,%d,%d" % w], "blowup",
            ("text", "json")[i % 2], base=("odp",), w=w)
    for i in range(6):
        case = rng.randint(1, 8)
        p = rng.choice(O.plt_candidates(case, 6))
        a, d, gamma = O.plt_shape(case, p)
        perm = list(range(3))
        rng.shuffle(perm)
        a, d = tuple(a[k] for k in perm), tuple(d[k] for k in perm)
        add(["triple", "--surface", "%d,%d,%d" % a, "--boundary", "%d,%d,%d" % d,
             "--gamma", str(gamma)], "triple", ("text", "json")[i % 2], a=a, d=d, gamma=gamma)
    # the tables and scans are the heaviest requests, so their sizes are
    # fixed and the seed only picks their formats
    for which, b in (("canonical-smooth", 12), ("canonical-triples", 12), ("quadric-triples", 5)):
        for fmt in ("text", "csv", "json"):
            add(["table", which, "--bound", str(b)], "table", fmt, which=which, bound=b)
    for flags, base, b in (
        (["--base", "smooth"], ("smooth",), 6),
        (["--base", "odp"], ("odp",), 5),
        (["--base", "smooth", "--terminal"], ("smooth-terminal",), 6),
        (["--base", "cyclic:2,1", "--terminal"], ("cyclic", 2, 1), 4),
    ):
        add(["enumerate"] + flags + ["--bound", str(b)], "enumerate",
            rng.choice(("text", "csv", "json")), base=base, bound=b)
    # chains: plt-1, plt-4 and plt-8 starts and canonical-A starts with
    # seeded steps, a D-type start that must refuse to step, and a case
    # that the blow-up's surface cannot carry
    for i in range(12):
        shape = i % 4
        if shape == 0:
            w, case, gamma = (1, 1, 1), "1", None
        elif shape == 1:
            w, case, gamma = (rng.randint(2, 5), 1, 1), "4", None
        elif shape == 2:
            while True:
                a1, a2 = rng.randint(3, 7), rng.randint(2, 6)
                if a1 > a2 and gcd(a1, a2) == 1:
                    break
            w, case, gamma = (a1, a2, 1), "8", None
        else:
            while True:
                a1, a2, q3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2)
                if a1 >= a2 and gcd(a1, a2) == 1:
                    break
            w = tuple(sorted((a1 * q3, a2 * q3, 1), reverse=True))
            case, gamma = "canonical-A", a1 + a2
        betas = []
        for _ in range(rng.randint(1, 3)):
            while True:
                b1, b2 = rng.randint(1, 3), rng.choice((1, 1, 1, 2))
                if gcd(b1, b2) == 1:
                    break
            betas.append((b1, b2))
        argv = ["chain", "run", "--base", "smooth", "--weights", "%d,%d,%d" % w,
                "--triple-case", case, "--betas", ";".join("%d,%d" % b for b in betas)]
        if gamma is not None:
            argv += ["--gamma", str(gamma)]
        add(argv, "chain", ("text", "json")[i % 2], w=w, betas=betas)
    l = rng.randint(3, 8)
    add(["chain", "run", "--base", "smooth", "--weights", "%d,%d,2" % (l, l - 1),
         "--triple-case", "canonical-D", "--gamma", str(l), "--betas", "1,1"],
        "chain", "text", w=(l, l - 1, 2), betas=[(1, 1)], ade="D")
    w = rng.choice(((9, 5, 2), (5, 3, 2), (7, 5, 3), (8, 5, 3), (10, 7, 4), (9, 6, 4)))
    add(["chain", "run", "--base", "smooth", "--weights", "%d,%d,%d" % w,
         "--triple-case", rng.choice("12")], "chain", "json", w=w, betas=[], mismatch=True)
    return pool


class Session(Workload):
    """Every subcommand at small sizes, in text, json and csv; each round
    runs the whole seeded pool in a fresh order."""

    name = "session"

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = _session_pool(seed)

    def round(self, j):
        order = list(range(len(self.pool)))
        _rng(self.seed, "session-order", j).shuffle(order)
        return order

    def warmup(self):
        return list(range(len(self.pool)))

    def call(self, ts, i):
        return run_cli(ts.cli, list(self.pool[i][0]))

    def failed(self, i, out):
        allowed = (0, 1) if self.pool[i][1] == "chain" else (0,)
        return out[0] not in allowed

    def check(self, ts):
        errors = []
        for i, out in self.first.items():
            argv, kind, fmt, meta = self.pool[i]
            code, text, err = out
            try:
                errors += [(i, e) for e in CHECKS[kind](ts, argv, fmt, meta, code, text, err)]
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                errors.append((i, "%s: unparsable output (%r)" % (" ".join(argv), exc)))
        return errors


def _check_classify_out(ts, argv, fmt, meta, code, text, err):
    if fmt == "json":
        d = json.loads(text)
    else:
        kv = dict(line.split(": ", 1) for line in text.splitlines())
        r, w = _parse_quotient(kv["normalized"])
        d = {"normalized": {"r": r, "weights": list(w)},
             "verdict": {"kind": kv["verdict"],
                         "witness_k": int(kv["witness_k"]) if "witness_k" in kv else None}}
        if "minimal_discrepancy" in kv:
            d["minimal_discrepancy"] = kv["minimal_discrepancy"]
    return check_classify((meta["r"], meta["w"]), d)


def _parse_quotient(s):
    r, rest = s[2:].split("(")
    return int(r), _ints(rest.rstrip(")"))


def _check_blowup(ts, argv, fmt, meta, code, text, err):
    base, w = meta["base"], meta["w"]
    if fmt == "json":
        d = json.loads(text)
        a0 = d["a_S_0"]
        charts = [(c["r"], tuple(c["weights"])) for c in d["charts"]["charts"]]
        verdicts = [(v["kind"], v["witness_k"]) for v in d["charts"]["verdicts"]]
        cs = d["charts"]["cs_points"]
    else:
        lines = text.splitlines()
        a0 = lines[2].split(": ")[1]
        charts, verdicts = [], []
        for line in lines[3:-1]:
            label, rest = line.split(": ")
            parts = rest.split()
            charts.append(_parse_quotient(parts[0]))
            k = int(parts[2][3:-1]) if len(parts) > 2 else None
            verdicts.append((parts[1], k))
        cs = lines[-1].split(": ")[1].split()
        cs = [] if cs == ["-"] else cs
    errors = []
    if _frac(a0) != O.a_s0(base, w):
        errors.append("blowup %s %s: a_S_0 %s" % (base, w, a0))
    formulas = O.chart_formulas(base, w)
    labels = ["P%d" % (i + 1) for i in range(len(formulas))]
    want_cs = []
    for label, (r, fw), chart, verdict in zip(labels, formulas, charts, verdicts):
        if chart != (r, O.orbit_min(r, fw)):
            errors.append("blowup %s %s: chart %s is %s" % (base, w, label, chart))
        kind, k, _ = O.age_verdict(r, chart[1])
        if verdict != (kind, k):
            errors.append("blowup %s %s: %s verdict %s want %s" % (base, w, label, verdict, (kind, k)))
        if kind != "terminal":
            want_cs.append(label)
    if len(charts) != len(formulas) or list(cs) != want_cs:
        errors.append("blowup %s %s: cs_points %s want %s" % (base, w, cs, want_cs))
    return errors


def _check_triple(ts, argv, fmt, meta, code, text, err):
    a, d, gamma = meta["a"], meta["d"], meta["gamma"]
    if fmt == "json":
        j = json.loads(text)
        ample, log_degree, rec = j["ample"], _frac(j["log_degree"]), j["plt"]
    else:
        kv = dict(line.split(": ", 1) for line in text.splitlines())
        ample, log_degree = kv["ample"] == "yes", _frac(kv["log_degree"])
        rec = None
        if kv["plt"] != "no match":
            case, params, _ = kv["plt"].split()
            rec = {"case": case, "params": list(_ints(params[len("params="):]))}
    errors = []
    if (ample, log_degree) != O.triple_expect(a, d, gamma):
        errors.append("triple %s %s %d: %s %s" % (a, d, gamma, ample, log_degree))
    if rec is not None:
        case = int(rec["case"].split("-")[1])
        sa, sd, sg = O.plt_shape(case, tuple(rec["params"]))
        if sg != gamma or sorted(zip(sa, sd)) != sorted(zip(a, d)):
            errors.append("triple %s %s %d: record %s does not fit" % (a, d, gamma, rec))
    return errors


def _rows(fmt, text):
    """Table or enumeration rows as lists of cells, header dropped."""
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    return [line.split("  ") for line in text.splitlines() if line != "(no hits)"]


def _check_table(ts, argv, fmt, meta, code, text, err):
    which, b = meta["which"], meta["bound"]
    rows = _rows(fmt, text)
    if which == "canonical-smooth":
        want = sorted((w, O.smooth_family(w)) for w in O.smooth_canonical_hits(b))
        if fmt == "json":
            got = [(tuple(r["weights"]), r["family"]) for r in rows]
        else:
            got = [(_ints(r[0]), r[1]) for r in rows]
        ok = got == want and len(got) == O.canonical_smooth_rows(b)
    elif which == "canonical-triples":
        ok = len(rows) == O.canonical_triples_rows(b)
    else:
        want = sorted(O.odp_canonical_hits(b))
        if fmt == "json":
            got = [(tuple(r["weights"]), _frac(r["a_S_0"])) for r in rows]
        elif fmt == "csv":
            got = [(_ints(r[0]), _frac(r[5])) for r in rows]
        else:
            got = [(_ints(r[0]), _frac(r[1].split("a_S_0=")[1])) for r in rows]
        ok = got == [(w, O.a_s0(("odp",), w)) for w in want]
    return [] if ok else ["table %s --bound %d: rows differ" % (which, b)]


def _check_enumerate(ts, argv, fmt, meta, code, text, err):
    base, b = meta["base"], meta["bound"]
    rows = _rows(fmt, text)
    if fmt == "json":
        if json.loads(text)["errors"]:
            return ["enumerate %s: errors reported" % (base,)]
        got = [(tuple(r["weights"]), r["family"], _frac(r["a_S_0"])) for r in rows]
    else:
        if any(r[0] == "error" or r[0].startswith("error:") for r in rows):
            return ["enumerate %s: errors reported" % (base,)]
        got = [(_ints(r[0]), r[1], _frac(r[2])) for r in rows]
    point = ("smooth",) if base[0] == "smooth-terminal" else base
    if base[0] == "cyclic":
        return [] if len(got) == 1 and got[0][1] == "-" and got[0][2] == O.a_s0(
            base, got[0][0]) else ["enumerate %s: want one terminal hit" % (base,)]
    if base[0] == "smooth":
        hits, fam = O.smooth_canonical_hits(b), O.smooth_family
    elif base[0] == "odp":
        hits, fam = O.odp_canonical_hits(b), (lambda w: "unit-weight")
    else:
        hits, fam = O.smooth_terminal_hits(b), O.smooth_family
    want = [(w, fam(w), O.a_s0(point, w)) for w in sorted(hits)]
    return [] if got == want else ["enumerate %s --bound %d: rows differ" % (base, b)]


def _parse_chain_text(text):
    steps = []
    for line in text.splitlines():
        if line.startswith("step "):
            head, rest = line.split(": ", 1)
            kv = dict(x.split("=", 1) for x in rest.replace(", ", ",").split())
            g2, pair = kv["gamma"].strip("()").split(",")
            betas = None
            if "beta=" in head:
                b1, b2 = _ints(head.split("beta=")[1].split()[0])
                betas = [b1, b2, 1]
            steps.append({"betas": betas, "triple": list(_ints(kv["triple"])),
                          "gamma": [g2, pair], "a_plus_1": kv["a_plus_1"]})
    return steps


def _check_chain(ts, argv, fmt, meta, code, text, err):
    if code == 1:
        return _confirm_refusal(ts, argv, meta, err)
    steps = json.loads(text)["transcript"] if fmt == "json" else _parse_chain_text(text)
    return _chain_law_errors(meta["w"], steps, meta["betas"])


def _chain_law_errors(w, steps, betas):
    errors = []
    if len(steps) != len(betas) + 1:
        errors.append("chain %s: %d states for %d steps" % (w, len(steps), len(betas)))
    if _frac(steps[0]["a_plus_1"]) != O.a_s0(("smooth",), w) + 1:
        errors.append("chain %s: start a+1 %s" % (w, steps[0]["a_plus_1"]))
    for prev, cur in zip(steps, steps[1:]):
        b1, b2 = cur["betas"][:2]
        a_prev, a_cur = _frac(prev["a_plus_1"]), _frac(cur["a_plus_1"])
        if a_cur != b2 * a_prev + b1:
            errors.append("chain %s: a' = %s, want %s" % (w, a_cur, b2 * a_prev + b1))
        g2, pair = (_frac(x) for x in prev["gamma"])
        m1, m2, m3 = cur["triple"]
        if O.gamma_tilde_sq(g2, pair, a_prev, b1, b2) != Fraction(-m3, m1 * m2):
            errors.append("chain %s: Gamma~^2 != -m3/(m1 m2) at %s" % (w, cur["triple"]))
    return errors


def _confirm_refusal(ts, argv, meta, err):
    """A refusal is correct only when the reason it prints is the reason
    the step laws give for the last state the chain reached."""
    reason = err.strip()[len("error: "):]
    if meta.get("mismatch"):
        case = argv[argv.index("--triple-case") + 1]
        a, _ = O.exceptional_surface(meta["w"])
        ok = a != (1, 1, 1) and reason == (
            "the exceptional surface of this blow-up does not carry case %s" % case)
        return [] if ok else ["chain %s: refusal %r not confirmed" % (meta["w"], reason)]
    betas = meta["betas"]
    base = list(argv[: argv.index("--betas")]) + list(argv[argv.index("--betas") + 2:])
    base = [x for x in base if x not in ("--format", "text", "json")]
    for n in range(len(betas) - 1, -1, -1):
        prefix = base + ["--betas", ";".join("%d,%d" % b for b in betas[:n]), "--format", "json"]
        code, text, _ = run_cli(ts.cli, prefix)
        if code == 0:
            steps = json.loads(text)["transcript"]
            errors = _chain_law_errors(meta["w"], steps, betas[:n])
            state = steps[-1]
            want = O.chain_refusal(state, *betas[n])
            if meta.get("ade") and not state["type"].startswith(meta["ade"]):
                want = "start has type %s" % state["type"]
            if want != reason:
                errors.append("chain %s: refusal %r, the laws give %r" % (meta["w"], reason, want))
            return errors
    return ["chain %s: the start itself refused (%r)" % (meta["w"], reason)]


CHECKS = {
    "classify": _check_classify_out,
    "blowup": _check_blowup,
    "triple": _check_triple,
    "table": _check_table,
    "enumerate": _check_enumerate,
    "chain": _check_chain,
}

WORKLOADS = {w.name: w for w in (Search, Classify, Session)}
