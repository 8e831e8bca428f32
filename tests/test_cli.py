"""Command-line front end: exact text output, formats, exit codes."""
import contextlib
import io
import json

import pytest

from toricsing import cli
from toricsing.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify_text_snapshot():
    code, out, err = run(["classify", "--quotient", "9,1,4,7"])
    assert code == 0 and err == ""
    assert out == (
        "input: 1/9(1,4,7)\n"
        "normalized: 1/9(1,4,7)\n"
        "verdict: canonical-not-terminal\n"
        "witness_k: 3\n"
    )


def test_classify_json():
    code, out, err = run(["classify", "--quotient", "9,1,4,7", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["normalized"] == {"r": 9, "weights": [1, 4, 7]}
    assert d["verdict"] == {"kind": "canonical-not-terminal", "witness_k": 3}


def test_classify_bad_input_is_usage_error():
    code, out, err = run(["classify", "--quotient", "0,1,1,1"])
    assert code == 2 and out == ""
    assert err == "usage error: r must be >= 1\n"


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["classify"])
    assert exc.value.code == 2


def test_blowup_text_snapshot():
    code, out, err = run(["blowup", "--base", "smooth", "--weights", "9,5,2"])
    assert code == 0
    assert out == (
        "base: smooth\n"
        "weights: 9 5 2\n"
        "a_S_0: 15/1\n"
        "P1: 1/9(1,4,7) canonical-not-terminal (k=3)\n"
        "P2: 1/5(1,1,3) canonical-not-terminal (k=1)\n"
        "P3: 1/2(1,1,1) terminal\n"
        "cs_points: P1 P2\n"
    )


def test_blowup_json_round_trip():
    code, out, _ = run(["blowup", "--base", "smooth", "--weights", "9,5,2", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["a_S_0"] == "15/1"
    assert d["charts"]["cs_points"] == ["P1", "P2"]
    assert [c["r"] for c in d["charts"]["charts"]] == [9, 5, 2]


def test_enumerate_empty_hit_list():
    code, out, _ = run(
        ["enumerate", "--base", "cyclic:3,1", "--terminal", "--bound", "1", "--format", "csv"]
    )
    assert code == 0 and out == "weights,family,a_S_0\n"
    code, out, _ = run(["enumerate", "--base", "cyclic:3,1", "--terminal", "--bound", "1"])
    assert code == 0 and out == "(no hits)\n"


def test_enumerate_smooth_csv_snapshot():
    code, out, _ = run(["enumerate", "--base", "smooth", "--bound", "3", "--format", "csv"])
    assert code == 0
    assert out == (
        "weights,family,a_S_0\n"
        '1 1 1,"w1,w2,1",2/1\n'
        '2 1 1,"w1,w2,1",3/1\n'
        '2 2 1,"w1,w2,1",4/1\n'
        '3 1 1,"w1,w2,1",4/1\n'
        '3 2 1,"w1,w2,1",5/1\n'
        '3 2 2,"l,l-1,2",6/1\n'
        '3 3 1,"w1,w2,1",6/1\n'
    )


def test_enumerate_bad_base_is_usage_error():
    code, out, err = run(["enumerate", "--base", "nope", "--bound", "2"])
    assert code == 2 and out == ""
    assert err == "usage error: base is one of: smooth, odp, cyclic:r,q\n"


def test_enumerate_json_shape():
    code, out, _ = run(["enumerate", "--base", "smooth", "--bound", "3", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"base", "bound", "errors", "rows"}
    assert d["errors"] == []
    assert len(d["rows"]) == 7


def test_triple_text_snapshots():
    code, out, _ = run(
        ["triple", "--surface", "1,1,1", "--boundary", "2,3,5", "--gamma", "1"]
    )
    assert code == 0
    assert out == (
        "surface: P(1,1,1)\n"
        "boundary_indices: 2 3 5\n"
        "gamma: 1\n"
        "ample: yes\n"
        "log_degree: -1/30\n"
        "plt: plt-2 params=2,3,5 type=E8\n"
    )
    code, out, _ = run(
        ["triple", "--surface", "1,1,1", "--boundary", "1,1,1", "--gamma", "3"]
    )
    assert code == 0
    assert out.endswith("ample: no\nlog_degree: 0/1\nplt: no match\n")


def test_triple_json():
    code, out, _ = run(
        ["triple", "--surface", "1,1,1", "--boundary", "2,3,5", "--gamma", "1",
         "--format", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["ample"] is True
    assert d["log_degree"] == "-1/30"
    assert d["plt"] == {"case": "plt-2", "params": [2, 3, 5], "type": "E8"}
    assert d["surface"]["boundary"] == [[1, "1/2"], [2, "2/3"], [3, "4/5"]]


def test_chain_run_text_snapshot():
    code, out, _ = run(
        ["chain", "run", "--base", "smooth", "--weights", "1,1,1",
         "--triple-case", "1", "--betas", "1,1;1,1"]
    )
    assert code == 0
    assert out == (
        "step 0: triple=1,1,1 boundary=1,1,1 gamma=(4, -6) a_plus_1=3\n"
        "step 1 (beta=1,1 fiber=1): triple=1,1,6 boundary=1,1,1"
        " gamma=(49/6, -28/3) a_plus_1=4\n"
        "step 2 (beta=1,1 fiber=1): triple=6,1,63 boundary=1,1,1"
        " gamma=(2048/189, -320/27) a_plus_1=5\n"
        "case: plt-1  type: A  length: 3\n"
    )


def test_chain_case_mismatch_exits_1():
    code, out, err = run(
        ["chain", "run", "--base", "smooth", "--weights", "9,5,2", "--triple-case", "1"]
    )
    assert code == 1 and out == ""
    assert err == "error: the exceptional surface of this blow-up does not carry case 1\n"


def test_chain_d_type_step_refusal_exits_1():
    code, out, err = run(
        ["chain", "run", "--base", "smooth", "--weights", "3,2,2",
         "--triple-case", "canonical-D", "--gamma", "3", "--betas", "1,1"]
    )
    assert code == 1
    assert err == "error: chain terminates: only type A continues\n"


def test_chain_unknown_case_lists_the_cases():
    code, out, err = run(
        ["chain", "run", "--base", "smooth", "--weights", "1,1,1", "--triple-case", "9"]
    )
    assert (code, out) == (2, "")
    assert err == (
        "usage error: --triple-case is 1..8 or one of canonical-A, canonical-D, "
        "canonical-E6, canonical-E7, canonical-E8\n"
    )


def test_chain_canonical_needs_gamma():
    code, out, err = run(
        ["chain", "run", "--base", "smooth", "--weights", "3,2,2",
         "--triple-case", "canonical-D", "--betas", "1,1"]
    )
    assert code == 2
    assert err == "usage error: canonical cases need --gamma\n"


@pytest.mark.parametrize(
    "case_args", [["--triple-case", "1"], ["--triple-case", "canonical-A", "--gamma", "1"]]
)
def test_chain_over_the_odp_base_gives_one_error(case_args):
    code, out, err = run(["chain", "run", "--base", "odp", "--weights", "1,1,1,1"] + case_args)
    assert (code, out) == (1, "")
    assert err == "error: chain starts are modeled over smooth and cyclic bases only\n"


def test_chain_canonical_a_runs():
    code, out, _ = run(
        ["chain", "run", "--base", "smooth", "--weights", "3,2,1",
         "--triple-case", "canonical-A", "--gamma", "5"]
    )
    assert code == 0
    assert out == (
        "step 0: triple=3,2,1 boundary=1,1,1 gamma=(25/6, -5) a_plus_1=6\n"
        "case: canonical-A  type: A  length: 1\n"
    )


def test_table_canonical_smooth_snapshot():
    code, out, _ = run(["table", "canonical-smooth", "--bound", "2"])
    assert code == 0
    assert out == "1 1 1  w1,w2,1\n2 1 1  w1,w2,1\n2 2 1  w1,w2,1\n"


def test_table_csv_headers_and_quoting():
    code, out, _ = run(["table", "canonical-triples", "--bound", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "weights,gamma,case,type,params,split"
    assert '2 2 1,2,canonical-D,D,"2 l,l,1",' in lines
    code, out, _ = run(["table", "quadric-triples", "--bound", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "weights,a,d,plt,canonical,a_S_0"
    assert lines[1] == "1 1 1 1,1 1 1 1,1 1 1 1,yes,yes,1/1"


def test_chain_json_transcript():
    code, out, _ = run(
        ["chain", "run", "--base", "smooth", "--weights", "1,1,1",
         "--triple-case", "1", "--betas", "1,1", "--format", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"blowup", "record", "transcript"}
    assert d["record"] == {"case": "plt-1", "params": [1], "type": "A"}
    assert len(d["transcript"]) == 2
    assert d["transcript"][1]["triple"] == [1, 1, 6]


def test_output_is_run_to_run_deterministic():
    for argv in (
        ["enumerate", "--base", "smooth", "--bound", "5", "--format", "json"],
        ["table", "canonical-triples", "--bound", "5", "--format", "csv"],
    ):
        assert run(argv) == run(argv)


def test_jobs_do_not_change_bytes():
    base = ["enumerate", "--base", "smooth", "--bound", "5", "--format", "csv"]
    ref = run(base + ["--jobs", "1"])
    assert run(base + ["--jobs", "2"]) == ref
    assert ref[0] == 0


def test_enumerate_bad_jobs_env_is_usage_error(monkeypatch):
    monkeypatch.setenv("TORICSING_JOBS", "abc")
    code, out, err = run(["enumerate", "--base", "smooth", "--bound", "3"])
    assert code == 2 and out == ""
    assert err == "usage error: TORICSING_JOBS must be an integer, got 'abc'\n"


def test_enumerate_zero_jobs_is_usage_error():
    code, out, err = run(["enumerate", "--base", "smooth", "--bound", "3", "--jobs", "0"])
    assert code == 2 and out == ""
    assert err == "usage error: jobs must be >= 1\n"
    code, out, err = run(["table", "quadric-triples", "--bound", "3", "--jobs", "0"])
    assert code == 2 and out == ""
    assert err == "usage error: jobs must be >= 1\n"


def _exit_and_streams(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_answers_as_a_fresh_one(monkeypatch):
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    argv = ["classify", "--quotient", "9,1,4,7", "--format", "json"]
    assert run(argv) == run(argv)
    for bad in (
        ["classify", "--quotient", "9,1,4,7", "--format", "xml"],
        ["enumerate", "--base", "smooth"],
        ["chain"],
        ["--help"],
    ):
        fresh = _exit_and_streams(real_build().parse_args, bad)
        assert fresh[0] in (0, 2)
        assert _exit_and_streams(main, bad) == fresh
        assert _exit_and_streams(main, bad) == fresh
    assert len(builds) == 1
