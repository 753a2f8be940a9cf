import contextlib
import functools
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cubelink
from audit import cap, glued_along_a_facet, grid_surface, zonotope
from cubelink import cli
from cubelink.cli import main
from cubelink.complexes import build_cube_polytope, link_polytope
from cubelink.hypercube import cube_graph, vertex_from_str, vertex_to_str
from cubelink.linkage import certs
from cubelink.linkage.cube import detect_config_3F
from cubelink.oracle import all_pairings
from cubelink.paths import validate_linkage


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def solved_paths(stdout):
    data = json.loads(stdout)
    return [[vertex_from_str(l) for l in p] for p in data["result"]["linkage"]]


def test_solve_cube_basic(capsys):
    code, out, _ = run(capsys, "solve", "--cube", "3", "--pairs", "000-111,001-110")
    assert code == 0
    paths = solved_paths(out)
    ok, msg = validate_linkage(cube_graph(3), [(0, 7), (4, 3)], paths)
    assert ok, msg


def test_solve_obstruction_exit_2(capsys):
    code, out, _ = run(capsys, "solve", "--cube", "3", "--pairs", "000-110,010-100")
    assert code == 2
    data = json.loads(out)
    assert data["result"]["obstruction"]["kind"] == "config-3F"


def test_solve_malformed_exit_1(capsys):
    assert run(capsys, "solve", "--cube", "3", "--pairs", "000-111-001")[0] == 1
    assert run(capsys, "solve", "--cube", "3", "--pairs", "00-111")[0] == 1
    assert run(capsys, "solve", "--pairs", "000-111")[0] == 1
    assert run(capsys, "solve", "--cube", "3", "--link", "4",
               "--pairs", "000-111")[0] == 1
    assert run(capsys, "solve", "--cube", "3")[0] == 1


@pytest.mark.parametrize("argv,err", [
    (["solve", "--cube", "x", "--pairs", "000-111"],
     "argument --cube: invalid int value: 'x'"),
    (["solve", "--cube", "3", "--pairs", "000-111", "--colour"],
     "unrecognized arguments: --colour"),
    (["census", "--cube", "3"], "the following arguments are required: --k"),
    (["gen", "torus"], "argument what: invalid choice: 'torus'"),
], ids=["solve-bad-int", "unknown-flag", "census-no-k", "gen-bad-target"])
def test_a_command_line_argparse_refuses_exits_1(capsys, argv, err):
    # 2 is the code of an obstruction; argparse's usage and message stay
    code, out, stderr = run(capsys, *argv)
    assert code == 1 and out == ""
    assert stderr.startswith("usage: cubelink") and err in stderr


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"],
                                  ["census", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: cubelink") and err == ""


def _write_instance(capsys, path, *flags):
    """Write the instance that `solve FLAGS` certifies to path."""
    code, out, _ = run(capsys, "solve", *flags)
    assert code == 0
    path.write_text(json.dumps(json.loads(out)["instance"]))


@pytest.mark.parametrize("argv,err", [
    (["solve", "--instance", "q4.json", "--cube", "5",
      "--pairs", "00000-11111", "--avoid", "00001"], "--cube does not go"),
    (["solve", "--instance", "q4.json", "--pairs", "0000-0001"],
     "--pairs does not go"),
    (["solve", "--instance", "q4.json", "--avoid", "0101"],
     "--avoid does not go"),
    (["solve", "--instance", "q4.json", "--link", "5"], "--link does not go"),
    (["solve", "--instance", "q4.json", "--vertex", "00000"],
     "--vertex does not go"),
    (["solve", "--instance", "q4.json", "--strong"], "--strong does not go"),
    (["solve", "--cube", "3", "--vertex", "010", "--pairs", "000-111"],
     "--vertex applies only to a --link host"),
    (["solve", "--lattice", "q4.json", "--vertex", "010",
      "--pairs", "000-111"], "--vertex applies only to a --link host"),
    (["census", "--cube", "3", "--vertex", "010", "--k", "2",
      "--exhaustive"], "--vertex applies only to a --link host"),
    (["census", "--cube", "3", "--k", "2", "--exhaustive", "--sample", "5"],
     "--sample does not go with --exhaustive"),
    (["census", "--cube", "3", "--k", "2", "--exhaustive", "--seed", "4"],
     "--seed does not go with --exhaustive"),
    (["gen", "random-instance", "--cube", "4", "--k", "2",
      "--vertex", "0101", "--dim", "7"],
     "--dim does not apply to gen random-instance"),
    (["gen", "random-instance", "--cube", "4", "--k", "2",
      "--vertex", "0101"], "--vertex does not apply to gen random-instance"),
    (["gen", "cube", "--dim", "3", "--cube", "4"],
     "--cube does not apply to gen cube"),
    (["gen", "cube", "--dim", "3", "--seed", "1"],
     "--seed does not apply to gen cube"),
    (["gen", "link", "--cube", "4", "--k", "2"],
     "--k does not apply to gen link"),
    (["gen", "link", "--cube", "4", "--strong"],
     "--strong does not apply to gen link"),
], ids=["instance-cube", "instance-pairs", "instance-avoid", "instance-link",
        "instance-vertex", "instance-strong", "solve-vertex-on-cube",
        "solve-vertex-on-lattice", "census-vertex-on-cube",
        "census-exhaustive-sample", "census-exhaustive-seed",
        "gen-instance-dim", "gen-instance-vertex", "gen-cube-cube",
        "gen-cube-seed", "gen-link-k", "gen-link-strong"])
def test_a_flag_the_command_does_not_read_exits_1(capsys, tmp_path,
                                                  monkeypatch, argv, err):
    # each of these used to be ignored: the instance file's Q_4 was solved,
    # the cube taken for a link, the census run exhaustively
    monkeypatch.chdir(tmp_path)
    _write_instance(capsys, tmp_path / "q4.json", "--cube", "4",
                    "--pairs", "0000-1111,0011-1100")
    code, out, stderr = run(capsys, *argv)
    assert code == 1 and out == ""
    assert stderr.startswith(f"error: {err}"), stderr


def test_instance_takes_lattice_method_trace_and_dot(capsys, tmp_path,
                                                     monkeypatch):
    # what the file does not say: where a lattice lives, and how to solve
    # and print the instance
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q3.json").write_text(
        run(capsys, "gen", "cube", "--dim", "3")[1])
    _write_instance(capsys, tmp_path / "inst.json", "--lattice", "q3.json",
                    "--pairs", "000-111")
    (tmp_path / "copy.json").write_text((tmp_path / "q3.json").read_text())
    code, out, err = run(capsys, "solve", "--instance", "inst.json",
                         "--lattice", "copy.json", "--method", "oracle",
                         "--trace", "--dot")
    assert code == 0 and out.startswith("graph cubelink {")
    assert err == "oracle/search\n"


@pytest.mark.parametrize("method", ["auto", "constructive", "oracle"])
@pytest.mark.parametrize("flags,err", [
    (["--cube", "3", "--pairs", "000-111", "--avoid", "010"],
     "strong linkage needs even d"),
    (["--cube", "4", "--pairs", "0000-1111", "--avoid", "0101"],
     "need exactly 2 pairs"),
    (["--cube", "4", "--pairs", "0000-1111,0011-1100"],
     "--strong needs exactly one --avoid vertex"),
], ids=["odd-d", "too-few-pairs", "no-avoid"])
def test_strong_shape_is_checked_for_every_method(capsys, tmp_path, method,
                                                  flags, err):
    # --method oracle used to skip these checks and print "strong": true
    # on instances that the constructive method and solve --instance refuse
    argv = ["solve", "--strong", "--method", method, *flags]
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")
    path = tmp_path / "inst.json"
    _write_instance(capsys, path, *flags)
    inst = dict(json.loads(path.read_text()), strong=True)
    path.write_text(json.dumps(inst))
    assert run(capsys, "solve", "--instance", str(path),
               "--method", method) == (1, "", f"error: {err}\n")


def test_strong_oracle_solve_replays(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--cube", "4", "--strong",
                       "--avoid", "0101", "--pairs", "0000-1111,0011-1100",
                       "--method", "oracle")
    assert code == 0
    cert = json.loads(out)
    assert cert["instance"]["strong"] is True and cert["valid"] is True
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert run(capsys, "verify", str(path)) == (0, "PASS: ok\n", "")
    path.write_text(json.dumps(cert["instance"]))
    assert run(capsys, "solve", "--instance", str(path))[0] == 0


@pytest.mark.parametrize("host,pairs,avoid,linkage,err", [
    (3, [["000", "111"]], ["010"], [["000", "100", "110", "111"]],
     "strong linkage needs even d"),
    (4, [["0000", "1111"]], ["0101"],
     [["0000", "1000", "1100", "1110", "1111"]], "need exactly 2 pairs"),
    (4, [["0000", "1111"], ["0011", "1100"]], [],
     [["0000", "1000", "1010", "1110", "1111"],
      ["0011", "0111", "0110", "0100", "1100"]],
     "--strong needs exactly one --avoid vertex"),
], ids=["odd-d", "too-few-pairs", "no-avoid"])
def test_verify_refuses_strong_certificates_of_the_wrong_shape(
        capsys, tmp_path, host, pairs, avoid, linkage, err):
    # the paths are a linkage, so only the strong flag makes them wrong:
    # verify refuses such a certificate as solve refuses its instance
    path = tmp_path / "cert.json"
    cert = {"instance": {"host": {"kind": "cube", "dim": host},
                         "pairs": pairs, "avoid": avoid, "strong": False},
            "result": {"linkage": linkage}, "trace": [], "valid": True}
    path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(path)) == (0, "PASS: ok\n", "")
    cert["instance"]["strong"] = True
    path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(path)) == (1, "", f"error: {err}\n")
    path.write_text(json.dumps(cert["instance"]))
    assert run(capsys, "solve", "--instance", str(path)) == (
        1, "", f"error: {err}\n")


def test_solve_deterministic_bytes(capsys):
    argv = ("solve", "--cube", "6", "--pairs",
            "000000-111111,000001-111110,000010-111101")
    a = run(capsys, *argv)
    b = run(capsys, *argv)
    assert a == b and a[0] == 0


def test_solve_oracle_method_agrees(capsys):
    argv_tail = ("--cube", "4", "--pairs", "0000-1111,0011-1100")
    c1, out1, _ = run(capsys, "solve", "--method", "constructive", *argv_tail)
    c2, out2, _ = run(capsys, "solve", "--method", "oracle", *argv_tail)
    assert c1 == c2 == 0
    for out in (out1, out2):
        paths = solved_paths(out)
        ok, msg = validate_linkage(cube_graph(4), [(0, 15), (3, 12)], paths)
        assert ok, msg


def test_solve_strong_and_avoid(capsys):
    code, out, _ = run(capsys, "solve", "--cube", "4", "--strong",
                       "--pairs", "0000-1111,0011-1100", "--avoid", "0101")
    assert code == 0
    paths = solved_paths(out)
    assert all(vertex_from_str("0101") not in p for p in paths)
    code, out, _ = run(capsys, "solve", "--cube", "5",
                       "--pairs", "00000-11111", "--avoid", "00001,00010")
    assert code == 0
    paths = solved_paths(out)
    banned = {vertex_from_str("00001"), vertex_from_str("00010")}
    assert not (banned & set(paths[0]))


def test_solve_link_host(capsys):
    code, out, _ = run(capsys, "solve", "--link", "5",
                       "--pairs", "00001-11110,00010-11101")
    assert code == 0
    data = json.loads(out)
    assert data["instance"]["host"]["kind"] == "link"


def test_solve_trace_and_dot(capsys):
    code, _, err = run(capsys, "solve", "--cube", "5", "--trace",
                       "--pairs", "00000-11111,00001-11110,00010-11101")
    assert code == 0 and "cube/" in err
    code, out, _ = run(capsys, "solve", "--cube", "3", "--dot",
                       "--pairs", "000-111")
    assert code == 0
    assert out.startswith("graph cubelink {") and '"000" -- "001"' in out


def test_verify_roundtrip_and_tamper(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--cube", "4",
                       "--pairs", "0000-1111,0011-1100")
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out2, _ = run(capsys, "verify", str(cert))
    assert code == 0 and out2.startswith("PASS")
    data = json.loads(out)
    data["result"]["linkage"][0] = ["0000", "1111"]
    cert.write_text(json.dumps(data))
    code, out3, _ = run(capsys, "verify", str(cert))
    assert code == 1 and out3.startswith("FAIL")


def test_verify_obstruction_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--cube", "3",
                       "--pairs", "000-110,010-100")
    assert code == 2
    cert = tmp_path / "obs.json"
    cert.write_text(out)
    code, out2, _ = run(capsys, "verify", str(cert))
    assert code == 0 and out2.startswith("PASS")
    data = json.loads(out)
    data["instance"]["pairs"] = [["000", "111"], ["010", "100"]]
    cert.write_text(json.dumps(data))
    code, out3, _ = run(capsys, "verify", str(cert))
    assert code == 1 and out3.startswith("FAIL")


def _forged_obstruction(d, pairs, kind, facet, pair, blocking):
    return {"instance": {"host": {"kind": "cube", "dim": d}, "pairs": pairs,
                         "avoid": [], "strong": False},
            "result": {"obstruction": {"kind": kind, "facet": facet,
                                       "pair": pair, "blocking": blocking}},
            "trace": [], "valid": True}


# Q_3's squares plus the edge {7, 8}: no cubical 3-polytope, since one of
# its facets is no square.  Its pairing 8-0, 7-1 used to end in a
# "case not covered", and its census in 45 detector mismatches.
NON_PURE_ERROR = ("facets have 2 and 4 vertices: they are not cubes of one "
                  "dimension")


@pytest.mark.parametrize("forged", [
    # config-3F outside dimension 3: Q_4 links these pairs
    _forged_obstruction(4, [["0000", "1100"], ["1000", "0100"]], "config-3F",
                        ["0000", "0100", "1000", "1100"], ["1100", "0000"],
                        ["0100", "1000"]),
    # config-dF blocks only a star linkage: Q_5 links these pairs
    _forged_obstruction(5, [["00000", "01111"], ["00111", "01011"],
                            ["01101", "01110"]], "config-dF",
                        [f"0{i:04b}" for i in range(16)], ["00000", "01111"],
                        ["00111", "01011", "01101", "01110"]),
    # a genuine Q_3 config-3F face, but a blocking list that is not t1's
    # face neighbours
    _forged_obstruction(3, [["000", "110"], ["010", "100"]], "config-3F",
                        ["000", "010", "100", "110"], ["000", "110"],
                        ["000", "010"]),
    # four vertices of Q_3, no two adjacent: not a facet
    _forged_obstruction(3, [["000", "011"], ["101", "110"]], "config-3F",
                        ["000", "011", "101", "110"], ["000", "011"],
                        ["101", "110"]),
    # a witness on the edge facet of Q_3's squares plus the edge {7, 8}:
    # that lattice is refused before the witness is read (that an edge is
    # no 2-face is test_an_edge_blocks_no_pair)
    dict(_forged_obstruction(3, [["8", "7"], ["0", "1"]], "config-3F",
                             ["7", "8"], ["8", "7"], ["8"]),
         instance={"host": {"kind": "lattice", "path": "q3-edge.json"},
                   "pairs": [["8", "7"], ["0", "1"]], "avoid": [],
                   "strong": False}),
], ids=["3F-in-Q4", "dF-in-Q5", "3F-wrong-blocking", "3F-not-a-facet",
        "3F-on-an-edge-facet"])
def test_verify_rejects_forged_obstruction(capsys, tmp_path, monkeypatch,
                                           forged):
    monkeypatch.chdir(tmp_path)
    squares = json.loads(run(capsys, "gen", "cube", "--dim", "3")[1])["facets"]
    (tmp_path / "q3-edge.json").write_text(json.dumps(
        {"dim": 3, "vertices": 9, "facets": squares + [[7, 8]]}))
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps(forged))
    code, out, err = run(capsys, "verify", str(cert))
    if forged["instance"]["host"]["kind"] == "lattice":
        assert (code, out, err) == (1, "", f"error: {NON_PURE_ERROR}\n")
    else:
        assert code == 1 and out.startswith("FAIL")


@pytest.mark.parametrize("avoid,linkage,why", [
    ([], [[0, 1, 3, 7]], "expected 2 paths, got 1"),
    ([], [[], [1, 5, 4, 6]], "path 0 empty"),
    ([], [[0, 4, 6], [1, 5, 4, 6]], "path 0 joins 0-6, wanted [0, 7]"),
    ([], [[0, 1, 0, 4, 5, 7], [1, 5, 4, 6]], "path 0 repeats a vertex"),
    ([], [[0, 7], [1, 5, 4, 6]], "path 0 uses non-edge 0-7"),
    ([], [[0, 1, 3, 7], [1, 5, 4, 6]], "paths share vertex 1"),
    ([2], [[0, 2, 3, 7], [1, 5, 4, 6]], "path 0 meets avoided vertex 2"),
], ids=["path-count", "empty-path", "wrong-ends", "repeated-vertex",
        "non-edge", "shared-vertex", "avoided-vertex"])
def test_verify_rejects_forged_linkage(capsys, tmp_path, avoid, linkage,
                                       why):
    # the pairs 0-7 and 1-6 of Q_3, as a certificate's labels
    label = lambda v: vertex_to_str(v, 3)
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps({
        "instance": {"host": {"kind": "cube", "dim": 3},
                     "pairs": [[label(0), label(7)], [label(1), label(6)]],
                     "avoid": [label(v) for v in avoid], "strong": False},
        "result": {"linkage": [[label(v) for v in p] for p in linkage]},
        "trace": [], "valid": True}))
    assert run(capsys, "verify", str(cert)) == (1, f"FAIL: {why}\n", "")


def test_verify_rejects_a_certificate_with_no_result(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "instance": {"host": {"kind": "cube", "dim": 3},
                     "pairs": [["000", "111"]], "avoid": [], "strong": False},
        "result": {"paths": [["000", "100", "110", "111"]]},
        "trace": [], "valid": True}))
    assert run(capsys, "verify", str(cert)) == (
        1, "FAIL: certificate has neither linkage nor obstruction\n", "")


def test_verify_reads_the_lattice_flag_over_the_certificate_path(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lattice = run(capsys, "gen", "cube", "--dim", "3")[1]
    (tmp_path / "q3.json").write_text(lattice)
    code, out, _ = run(capsys, "solve", "--lattice", "q3.json",
                       "--pairs", "000-111,001-110")
    assert code == 0 and json.loads(out)["instance"]["host"]["path"] == (
        "q3.json")
    (tmp_path / "cert.json").write_text(out)
    (tmp_path / "copy.json").write_text(lattice)
    (tmp_path / "q3.json").unlink()
    assert run(capsys, "verify", "cert.json", "--lattice", "copy.json") == (
        0, "PASS: ok\n", "")
    # another host's lattice names no vertex of the certificate
    (tmp_path / "link.json").write_text(
        run(capsys, "gen", "link", "--cube", "4")[1])
    assert run(capsys, "verify", "cert.json", "--lattice", "link.json") == (
        1, "", "error: unknown vertex label '000'\n")


@pytest.mark.parametrize("kind,argv", [
    ("cube", ["--cube", "3", "--pairs", "000-111"]),
    ("link", ["--link", "4", "--pairs", "0001-1110"]),
])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_lattice_flag_on_a_host_that_is_no_lattice_exit_1(
        capsys, tmp_path, monkeypatch, kind, argv, command):
    # the flag names no file of such a host, so it is refused, not ignored
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "solve", *argv)
    assert code == 0
    cert = json.loads(out)
    (tmp_path / "cert.json").write_text(out)
    (tmp_path / "inst.json").write_text(json.dumps(cert["instance"]))
    target = (["verify", "cert.json"] if command == "verify"
              else ["solve", "--instance", "inst.json"])
    assert run(capsys, *target, "--lattice", "nonexistent.json") == (
        1, "", f"error: --lattice applies only to a lattice host, "
               f"not a {kind} host\n")


@pytest.mark.parametrize("argv", [["solve", "--pairs", "8-0,7-1"],
                                  ["census", "--k", "2", "--exhaustive"]],
                         ids=["solve", "census"])
def test_lattice_with_a_facet_of_lower_dimension_exit_1(capsys, tmp_path,
                                                        argv):
    squares = json.loads(run(capsys, "gen", "cube", "--dim", "3")[1])["facets"]
    path = tmp_path / "q3-edge.json"
    path.write_text(json.dumps(
        {"dim": 3, "vertices": 9, "facets": squares + [[7, 8]]}))
    assert run(capsys, argv[0], "--lattice", str(path), *argv[1:]) == (
        1, "", f"error: {NON_PURE_ERROR}\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--lattice", "t44.json", "--pairs", "0-5,4-1"],
    ["verify", "cert.json"],
    ["census", "--lattice", "t44.json", "--k", "2", "--exhaustive"],
], ids=["solve", "verify", "census"])
def test_a_torus_lattice_exits_1(capsys, tmp_path, monkeypatch, argv):
    # on the torus T(4,4) the diagonals of the square [0, 1, 4, 5] match
    # config-3F, yet they link: [[0, 3, 2, 6, 5], [4, 8, 9, 13, 1]].  Unless
    # the host is refused, verify PASSes this witness.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t44.json").write_text(json.dumps(
        {"dim": 3, "vertices": 16, "facets": grid_surface(4, 4)}))
    (tmp_path / "cert.json").write_text(json.dumps({
        "instance": {"host": {"kind": "lattice", "path": "t44.json",
                              "dim": 3},
                     "pairs": [["0", "5"], ["4", "1"]], "avoid": []},
        "result": {"obstruction": {"kind": "config-3F",
                                   "facet": ["0", "1", "4", "5"],
                                   "pair": ["0", "5"],
                                   "blocking": ["1", "4"]}}}))
    assert run(capsys, *argv) == (
        1, "", "error: the squares make no 2-sphere: V - E + F is 0, not 2\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--lattice", "glued.json", "--pairs", "1-30,3-28,5-26"],
    ["verify", "cert.json"],
], ids=["solve", "verify"])
def test_a_ridge_on_three_facets_exits_1_before_any_solve(
        capsys, tmp_path, monkeypatch, argv):
    # two Q5 boundaries glued along a facet: full-capacity solves on it used
    # to fail mid-solve, some with CaseNotCovered (exit 3)
    def no_solve(*args):
        raise RuntimeError("solved")
    monkeypatch.setattr(cli, "solve_cubical", no_solve)
    monkeypatch.chdir(tmp_path)
    n, facets = glued_along_a_facet(5)
    (tmp_path / "glued.json").write_text(json.dumps(
        {"dim": 5, "vertices": n, "facets": facets}))
    (tmp_path / "cert.json").write_text(json.dumps({
        "instance": {"host": {"kind": "lattice", "path": "glued.json",
                              "dim": 5},
                     "pairs": [["1", "30"], ["3", "28"]], "avoid": []},
        "result": {"linkage": [["1", "30"], ["3", "28"]]}}))
    assert run(capsys, *argv) == (
        1, "", f"error: a ridge of facet {facets[0]} lies on a third facet\n")


@pytest.mark.parametrize("method", ["auto", "oracle"])
def test_an_oracle_search_past_its_budget_exits_4(
        capsys, tmp_path, monkeypatch, method):
    # the diagonals of Z(3,8)'s first square: config-3F, whose refutation
    # by search takes seconds, in the auto cross-check and --method oracle
    Z = zonotope(3, 8)
    assert detect_config_3F(Z, [(0, 3), (1, 2)]) is not None
    (tmp_path / "z38.json").write_text(json.dumps(Z.to_json()))
    monkeypatch.setenv("CUBELINK_ORACLE_TIMEOUT_MS", "50")
    assert run(capsys, "solve", "--lattice", str(tmp_path / "z38.json"),
               "--pairs", "0-3,1-2", "--method", method) == (
        4, "", "error: oracle budget exceeded\n")


def test_an_edge_blocks_no_pair():
    # its ends are antipodal in it and one is the other's one neighbour
    # there, all terminals, but config-3F needs a 2-face
    P = build_cube_polytope(3)
    edge = frozenset({0, 1})
    assert certs.blocking(P, "config-3F", edge, 0, 1, {0, 1}) is None
    square = frozenset({0, 1, 2, 3})
    assert certs.blocking(P, "config-3F", square, 0, 3, set(square))


@pytest.mark.parametrize("pairs,linkage,why", [
    ([["000", "000"]], [["000"]], "terminals must be distinct"),
    ([], [], "need at least one pair"),
], ids=["repeated-terminal", "no-pairs"])
def test_verify_rejects_malformed_pairing(capsys, tmp_path, pairs, linkage,
                                          why):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "instance": {"host": {"kind": "cube", "dim": 3}, "pairs": pairs,
                     "avoid": [], "strong": False},
        "result": {"linkage": linkage}, "trace": [], "valid": True}))
    code, out, err = run(capsys, "verify", str(cert))
    assert code == 1 and out == ""
    assert err == f"error: {why}\n"


PATCHED_SOLVE = """
import sys
import cubelink.linkage.cube as cube
cube._solve = lambda d, pairs, trace: [[s, t] for s, t in pairs]
from cubelink.cli import main
sys.exit(main(["solve", "--cube", "5",
               "--pairs", "00000-11111,00001-11110,00010-11101"]))
"""


def test_unchecked_linkage_never_emitted_under_python_O():
    src = os.path.dirname(os.path.dirname(cubelink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-O", "-c", PATCHED_SOLVE], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 3, r.stderr
    assert r.stdout == ""


def test_a_solver_that_finds_no_path_exits_3(capsys, tmp_path, monkeypatch):
    # a NoPath inside a solver is a fault of the solver, not of the input:
    # it used to print "error: ..." and exit 1
    import cubelink.linkage.star as star
    from cubelink.errors import NoPath

    (tmp_path / "q5.json").write_text(
        run(capsys, "gen", "cube", "--dim", "5")[1])

    def no_path(*args, **kwargs):
        raise NoPath("patched face path")

    monkeypatch.setattr(star, "_face_path", no_path)
    # the star of 11100 holds every terminal, and its case reads a face path
    code, out, err = run(capsys, "solve", "--lattice",
                         str(tmp_path / "q5.json"),
                         "--pairs", "11100-00110,00001-10111,00010-10110")
    assert code == 3 and out == ""
    assert err == ("case not covered: solver found no path: patched face path "
                   "trace=['cubical/star-route', 'star/F1-terminals=4', "
                   "'star/case2-far-ridge']\n")


def test_census_q3_golden(capsys):
    code, out, _ = run(capsys, "census", "--cube", "3", "--k", "2",
                       "--exhaustive")
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] == 210
    assert rep["linked"] == 204
    assert rep["unlinked"] == 6
    assert rep["obstructions"] == {"config-3F": 6}
    assert rep["detector_mismatches"] == []


def test_census_sampled_seeded(capsys):
    argv = ("census", "--cube", "4", "--k", "2", "--sample", "40", "--seed", "9")
    a = run(capsys, *argv)
    b = run(capsys, *argv)
    assert a == b and a[0] == 0
    assert json.loads(a[1])["total"] == 40


def test_gen_cube_and_lattice_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "cube", "--dim", "4")
    assert code == 0
    lat = tmp_path / "q4.json"
    lat.write_text(out)
    code, out, _ = run(capsys, "solve", "--lattice", str(lat),
                       "--pairs", "0000-1111,0011-1100")
    assert code == 0
    data = json.loads(out)
    assert data["instance"]["host"]["kind"] == "lattice"


def test_gen_link_lattice_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "link", "--cube", "5")
    assert code == 0
    lat = tmp_path / "link5.json"
    lat.write_text(out)
    spec = json.loads(out)
    assert spec["dim"] == 4 and spec["vertices"] == 30
    code, out, _ = run(capsys, "solve", "--lattice", str(lat),
                       "--pairs", "00001-11110,00010-11101")
    assert code == 0


def test_gen_random_instance_then_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "random-instance", "--cube", "5",
                       "--k", "3", "--seed", "4")
    assert code == 0
    inst = tmp_path / "inst.json"
    inst.write_text(out)
    code, out, _ = run(capsys, "solve", "--instance", str(inst))
    assert code in (0, 2)
    assert json.loads(out)["instance"]["strong"] is False
    # a strong instance stays strong through the file
    code, out, _ = run(capsys, "gen", "random-instance", "--cube", "6",
                       "--k", "3", "--seed", "4", "--strong")
    assert code == 0
    gen = json.loads(out)
    assert gen["strong"] is True and len(gen["avoid"]) == 1
    inst.write_text(out)
    code, out, _ = run(capsys, "solve", "--instance", str(inst))
    # Q_6 is strongly 3-linked: the avoided vertex is the unpaired terminal
    assert code == 0
    cert = json.loads(out)
    assert cert["instance"] == gen
    assert any(t.startswith("cube/strong") for t in cert["trace"])


def _blocked_hosts():
    """(host spec, polytope) for Q_3, Q_3 capped on one and on two facets,
    and the link of a vertex of Q_4; a lattice host reads cap.json."""
    Q3 = build_cube_polytope(3)
    cap1 = cap(Q3, Q3.facets[0])
    lattice = {"kind": "lattice", "path": "cap.json"}
    return {"Q3": ({"kind": "cube", "dim": 3}, Q3),
            "capQ3": (lattice, cap1),
            "cap2Q3": (lattice, cap(cap1, cap1.facets[1])),
            "linkQ4": ({"kind": "link", "cube_dim": 4, "vertex": "0000"},
                       link_polytope(4, 0))}


@pytest.mark.parametrize("name", ["Q3", "capQ3", "cap2Q3", "linkQ4"])
def test_detected_config_3F_verifies_on_its_facet_only(capsys, tmp_path,
                                                       monkeypatch, name):
    # every 2-pairing: each detected witness PASSes with its pair either way
    # round, and FAILs on every other facet
    monkeypatch.chdir(tmp_path)
    spec, P = _blocked_hosts()[name]
    (tmp_path / "cap.json").write_text(json.dumps(P.to_json()))
    label = P.labels.__getitem__
    cert = tmp_path / "cert.json"

    def verdict(pairs, obstruction):
        cert.write_text(json.dumps({
            "instance": {"host": spec, "pairs": pairs, "avoid": []},
            "result": {"obstruction": obstruction}}))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == (0 if out.startswith("PASS") else 1), out
        return out.startswith("PASS")

    witnesses = 0
    for X in itertools.combinations(P.vertices, 4):
        for pairs in all_pairings(X):
            w = detect_config_3F(P, pairs)
            if w is None:
                continue
            witnesses += 1
            labelled = [[label(s), label(t)] for s, t in pairs]
            obs = w.to_json(label)
            assert verdict(labelled, obs)
            assert verdict(labelled, dict(obs, pair=obs["pair"][::-1]))
            for F in P.facets:
                if F != frozenset(w.facet):
                    other = sorted(map(label, F))
                    assert not verdict(labelled, dict(obs, facet=other))
    assert witnesses == len(P.facets)


def test_search_exhausted_is_not_valid(capsys, tmp_path):
    # three pairs exceed Q_3's capacity: the oracle finds no linkage and no
    # known configuration explains it, so there is no witness to check
    code, out, _ = run(capsys, "solve", "--cube", "3", "--method", "oracle",
                       "--pairs", "000-111,001-110,010-101")
    data = json.loads(out)
    assert code == 2
    assert data["result"]["obstruction"] == {"kind": "search-exhausted"}
    assert data["valid"] is False
    cert = tmp_path / "exhausted.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 1 and out.startswith("FAIL")


def test_census_sample_on_q9(capsys):
    code, out, _ = run(capsys, "census", "--cube", "9", "--k", "2",
                       "--sample", "3")
    assert code == 0 and json.loads(out)["total"] == 3


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_census_rejects_an_oracle_timeout_that_bounds_nothing(
        capsys, monkeypatch, value):
    # 0 used to mean no limit, -5 a timeout on every search, and abc an
    # error that did not name the variable
    monkeypatch.setenv("CUBELINK_ORACLE_TIMEOUT_MS", value)
    code, out, err = run(capsys, "census", "--cube", "4", "--k", "2",
                         "--sample", "3")
    assert code == 1 and out == ""
    assert err == ("error: CUBELINK_ORACLE_TIMEOUT_MS must be a positive "
                   f"integer of milliseconds, not {value!r}\n")


def test_oracle_refutes_on_q9(capsys):
    # every neighbour of 000000000 is a terminal of another pair
    code, out, _ = run(capsys, "solve", "--cube", "9", "--method", "oracle",
                       "--pairs", "000000000-111111111,100000000-010000000,"
                       "001000000-000100000,000010000-000001000,"
                       "000000100-000000010,000000001-110000000")
    assert code == 2
    assert json.loads(out)["result"]["obstruction"]["kind"] == "search-exhausted"


def test_census_outside_dimension_3_builds_no_lattice(capsys, monkeypatch):
    def no_lattice(d):
        raise RuntimeError(f"face lattice of Q_{d} built")
    monkeypatch.setattr("cubelink.cli.build_cube_polytope", no_lattice)
    code, _, _ = run(capsys, "census", "--cube", "4", "--k", "2",
                     "--exhaustive")
    assert code == 0


def test_solve_builds_no_cube_graph(capsys, monkeypatch):
    # the base tables of Q_3 and Q_4 are read off CubeAdjacency, so no
    # solve builds a cube graph, the bases' own included
    monkeypatch.setattr("cubelink.linkage.cube._base_cache", {})
    cube_graph.cache_clear()
    code, _, _ = run(capsys, "solve", "--cube", "6", "--pairs",
                     "000000-111111,100000-011111,010000-101111")
    assert code == 0
    code, out, _ = run(capsys, "solve", "--cube", "4", "--trace", "--pairs",
                       "0000-1111,1000-0111")
    assert code == 0 and "cube/base-d4" in json.loads(out)["trace"]
    assert cube_graph.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_host_that_is_not_an_object_exit_1(capsys, tmp_path, command):
    doc = {"host": 5, "pairs": []}
    if command == "verify":
        doc = {"instance": doc, "result": {"linkage": []}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", "--instance", str(path)] if command == "solve" \
        else ["verify", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: host must be a JSON object")


@pytest.mark.parametrize("label", ["1111111", "1"])
def test_link_vertex_of_wrong_length_exit_1(capsys, label):
    code, _, err = run(capsys, "solve", "--link", "5", "--vertex", label,
                       "--pairs", "10000-01000")
    assert code == 1
    assert err == f"error: vertex {label!r} is not 5 bits\n"


def test_link_over_capacity_exit_1(capsys):
    code, out, err = run(capsys, "solve", "--link", "3", "--pairs",
                         "100-010,001-110")
    assert code == 1 and out == ""
    assert err.startswith("error: at most 1 pairs")


def test_link_of_a_square_vertex_exit_1(capsys):
    # the link of a vertex of Q2 is two vertices with no edge between them
    code, out, err = run(capsys, "solve", "--link", "2", "--vertex", "00",
                         "--pairs", "01-10")
    assert code == 1 and out == ""
    assert err == ("error: vertex links need a cube of dimension 3 or more, "
                   "not 2\n")


@pytest.mark.parametrize("argv", [
    ["gen", "link", "--cube", "11"],
    ["solve", "--link", "11", "--pairs", "00000000001-11111111110"],
    ["verify", "link40.json"],
], ids=["gen", "solve", "verify"])
def test_link_host_past_the_lattice_range_exit_1(capsys, tmp_path,
                                                 monkeypatch, argv):
    # a link host is the vertex link of its cube's lattice, so it is refused
    # before any of the cube's 2^D vertices is listed
    monkeypatch.chdir(tmp_path)
    ends = ["0" * 39 + "1", "1" * 39 + "0"]
    (tmp_path / "link40.json").write_text(json.dumps({
        "instance": {"host": {"kind": "link", "cube_dim": 40},
                     "pairs": [ends]},
        "result": {"linkage": [ends]}}))
    assert run(capsys, *argv) == (
        1, "", "error: lattice materialization supports 1 <= d <= 10\n")


def test_lattice_with_uncovered_vertices_exit_1(capsys, tmp_path):
    # the facets' vertex count is checked before any vertex is listed
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 3, "vertices": 10 ** 12,
                                "facets": [[0]]}))
    assert run(capsys, "solve", "--lattice", str(path), "--pairs", "0-0") == (
        1, "", "error: facets do not cover the vertex set\n")


@pytest.mark.parametrize("label", ["1111", "1"])
def test_gen_link_vertex_of_wrong_length_exit_1(capsys, label):
    code, out, err = run(capsys, "gen", "link", "--cube", "3",
                         "--vertex", label)
    assert code == 1 and out == ""
    assert err == f"error: vertex {label!r} is not 3 bits\n"


@pytest.mark.parametrize("labels", [
    ["000", "001", "010", "011", "100"], ["a"] * 8, list(range(8)),
], ids=["too-few", "repeated", "not-strings"])
@pytest.mark.parametrize("command", ["solve", "census"])
def test_lattice_labels_not_naming_each_vertex_exit_1(capsys, tmp_path,
                                                      labels, command):
    # such labels used to end in a KeyError traceback or name no vertex
    code, out, _ = run(capsys, "gen", "cube", "--dim", "3")
    lattice = dict(json.loads(out), labels=labels)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(lattice))
    argv = {"solve": ["--pairs", "000-100,010-001"],
            "census": ["--k", "2", "--exhaustive"]}[command]
    code, out, err = run(capsys, command, "--lattice", str(path), *argv)
    assert code == 1 and out == ""
    assert err == "error: labels must be 8 distinct strings\n"


@pytest.mark.parametrize("host,tag", [
    (["--link", "5", "--avoid", "00011",
      "--pairs", "00001-11110,00010-11101"], "cubical/strong-link-route"),
    (["--cube", "4", "--avoid", "0101",
      "--pairs", "0000-1111,0011-1100"], "cube/strong-base-d4"),
    (["--cube", "2", "--avoid", "10", "--pairs", "00-11"],
     "cube/strong-base-d2"),
])
def test_solve_instance_replays_strong(capsys, tmp_path, host, tag):
    code, out, err = run(capsys, "solve", "--strong", "--trace", *host)
    assert code == 0 and tag in err.split()
    instance = json.loads(out)["instance"]
    assert instance["strong"] is True
    path = tmp_path / "instance.json"
    path.write_text(out)
    assert run(capsys, "verify", str(path)) == (0, "PASS: ok\n", "")
    path.write_text(json.dumps(instance))
    assert run(capsys, "solve", "--trace", "--instance", str(path)) == (
        code, out, err)
    path.write_text(json.dumps(dict(instance, strong="yes")))
    code, out, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1 and out == ""
    assert err == 'error: instance "strong" must be true or false\n'


@pytest.mark.parametrize("argv,err", [
    (["solve", "--link", "5", "--avoid", "00011",
      "--pairs", "00001-11110,00010-11101"],
     "--avoid outside cube hosts requires --strong"),
    (["solve", "--cube", "4", "--strong", "--pairs", "0000-1111,0011-1100"],
     "--strong needs exactly one --avoid vertex"),
    (["solve", "--cube", "4", "--strong", "--avoid", "0101,0110",
      "--pairs", "0000-1111,0011-1100"],
     "--strong needs exactly one --avoid vertex"),
    (["solve", "--cube", "4", "--strong", "--avoid", "0000",
      "--pairs", "0000-1111,0011-1100"],
     "avoided vertex 0000 is a terminal"),
    (["census", "--cube", "3", "--k", "2"],
     "census needs --exhaustive or --sample N"),
    (["gen", "cube"], "gen cube needs --dim"),
    (["gen", "link"], "gen link needs --cube D"),
    (["gen", "random-instance", "--cube", "4"],
     "gen random-instance needs --cube D and --k"),
    (["gen", "random-instance", "--cube", "3", "--k", "3"],
     "--k must be between 1 and 2 in Q_3, not 3"),
    (["gen", "random-instance", "--cube", "3", "--k", "0"],
     "--k must be between 1 and 2 in Q_3, not 0"),
    (["gen", "random-instance", "--cube", "31", "--k", "1"],
     "--cube must be between 1 and 30, not 31"),
    (["gen", "random-instance", "--cube", "0", "--k", "1"],
     "--cube must be between 1 and 30, not 0"),
    (["gen", "random-instance", "--cube", "5", "--k", "2", "--strong"],
     "--strong needs an even --cube D and --k D/2, not D = 5 and k = 2"),
    (["gen", "random-instance", "--cube", "6", "--k", "2", "--strong"],
     "--strong needs an even --cube D and --k D/2, not D = 6 and k = 2"),
    (["solve", "--instance", "torus.json"], "unknown host kind 'torus'"),
    (["solve", "--instance", "no-path.json"],
     "lattice host needs --lattice FILE"),
    (["solve", "--lattice", "q3.json", "--pairs", "000-zzz"],
     "unknown vertex label 'zzz'"),
    (["solve", "--lattice", "q3-dim4.json", "--pairs", "000-111"],
     "facets have dimension 2, expected 3"),
    (["solve", "--cube", "3", "--pairs", "111-001,011-101", "--avoid", "110"],
     "2 pairs + 1 avoided exceed the capacity of Q_3"),
    (["solve", "--cube", "4", "--pairs", "0000-1111", "--avoid", "0001,0001"],
     "avoided vertices must be distinct"),
    (["solve", "--lattice", "not-json.json", "--pairs", "000-111"],
     "bad lattice file not-json.json: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    (["solve", "--instance", "missing.json"],
     "bad instance file: [Errno 2] No such file or directory: "
     "'missing.json'"),
    (["verify", "no-pairs.json"], "bad certificate: 'pairs'"),
    (["census", "--cube", "3", "--k", "0", "--exhaustive"],
     "k must be between 1 and 4, not 0"),
    (["census", "--cube", "3", "--k", "5", "--exhaustive"],
     "k must be between 1 and 4, not 5"),
    (["census", "--cube", "3", "--k", "2", "--sample", "-1"],
     "sample must be at least 1, not -1"),
    # 0 used to be read as a missing --sample
    (["census", "--cube", "3", "--k", "2", "--sample", "0"],
     "sample must be at least 1, not 0"),
    # the oracle's bit tables take about |V|^2 / 8 bytes: 128 GB here
    (["census", "--cube", "20", "--k", "2", "--sample", "1"],
     "oracle searches hold at most 16384 vertices, not 1048576"),
    (["solve", "--cube", "20", "--method", "oracle",
      "--pairs", "0" * 20 + "-" + "1" * 20],
     "oracle searches hold at most 16384 vertices, not 1048576"),
    # a drawing of Q_24 would be 16 M node lines and 201 M edge lines
    (["solve", "--cube", "24", "--dot",
      "--pairs", "0" * 24 + "-" + "1" * 24],
     "--dot draws hosts of at most 16384 vertices, not 16777216"),
    (["solve", "--instance", "null-host.json"],
     "host must be a JSON object, not None"),
    (["verify", "null-host-cert.json"], "host must be a JSON object, not None"),
    (["verify", "obstruction-list.json"],
     "bad certificate: obstruction must be a JSON object, not []"),
    (["verify", "one-label-pair.json"],
     "bad certificate: list index out of range"),
    # a number as the path used to be opened as a file descriptor
    (["solve", "--instance", "fd-path.json"],
     "bad lattice file 987654: [Errno 2] No such file or directory: "
     "'987654'"),
    # a list of bits used to be read as the vertex it spells
    (["solve", "--instance", "list-label.json"],
     "bad label ['0', '0', '0'], want a 3-bit string"),
    (["verify", "three-label-pair.json"],
     "bad pair ['000', '111', '001'], want [LABEL, LABEL]"),
    # on a link host a list label used to fail as unhashable
    (["solve", "--instance", "link-list-label.json"],
     "bad label ['0', '0', '0', '1'], want a string"),
], ids=["avoid-without-strong", "strong-no-avoid", "strong-two-avoid",
        "strong-avoids-a-terminal", "census-no-mode", "gen-cube-no-dim", "gen-link-no-cube",
        "gen-instance-no-k", "gen-instance-too-many-pairs",
        "gen-instance-no-pairs", "gen-instance-past-max-dim",
        "gen-instance-no-dim", "gen-instance-strong-odd-d",
        "gen-instance-strong-too-few-pairs", "torus-host", "lattice-no-path",
        "unknown-label", "lattice-dim-disagrees", "solve-over-capacity-q3",
        "solve-repeated-avoid",
        "lattice-not-json", "missing-instance",
        "certificate-no-pairs", "census-no-pairs", "census-too-many-pairs",
        "census-negative-sample", "census-zero-sample",
        "census-past-the-oracle",
        "oracle-past-the-oracle", "dot-past-the-limit", "null-host",
        "certificate-null-host",
        "obstruction-not-an-object", "obstruction-pair-of-one",
        "lattice-path-a-number", "label-not-a-string", "pair-of-three",
        "link-label-not-a-string"])
def test_input_errors_exit_1(capsys, tmp_path, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    _, lattice, _ = run(capsys, "gen", "cube", "--dim", "3")
    blocked = json.loads(run(capsys, "solve", "--cube", "3",
                             "--pairs", "000-110,010-100")[1])
    witness = blocked["result"]["obstruction"]
    files = {
        "q3.json": lattice,
        "q3-dim4.json": json.dumps(dict(json.loads(lattice), dim=4)),
        "not-json.json": "{nope",
        "torus.json": json.dumps({"host": {"kind": "torus"},
                                  "pairs": [["0", "1"]]}),
        "no-path.json": json.dumps({"host": {"kind": "lattice"},
                                    "pairs": [["0", "1"]]}),
        "no-pairs.json": json.dumps({"instance": {"host": {
            "kind": "cube", "dim": 3}}, "result": {"linkage": []}}),
        "null-host.json": json.dumps({"host": None, "pairs": [["0", "1"]]}),
        "null-host-cert.json": json.dumps({
            "instance": {"host": None, "pairs": [["0", "1"]]},
            "result": {"linkage": []}}),
        "obstruction-list.json": json.dumps(dict(blocked, result={
            "obstruction": []})),
        "one-label-pair.json": json.dumps(dict(blocked, result={
            "obstruction": dict(witness, pair=["000"])})),
        "fd-path.json": json.dumps({"host": {"kind": "lattice",
                                             "path": 987654},
                                    "pairs": [["0", "1"]]}),
        "list-label.json": json.dumps({"host": {"kind": "cube", "dim": 3},
                                       "pairs": [[["0", "0", "0"], "111"]]}),
        "three-label-pair.json": json.dumps(dict(blocked, instance=dict(
            blocked["instance"], pairs=[["000", "111", "001"]]))),
        "link-list-label.json": json.dumps({
            "host": {"kind": "link", "cube_dim": 4},
            "pairs": [[["0", "0", "0", "1"], "1110"]]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_readme_cli_examples_run_as_written(capsys, tmp_path, monkeypatch):
    # each `cubelink` line of the README's shell examples, in order, with
    # its `> FILE`; the exit code is the one the comment above it states
    monkeypatch.chdir(tmp_path)
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    ran, expect = 0, 0
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("#"):
                stated = re.search(r"exit code (\d)", line)
                expect = int(stated.group(1)) if stated else 0
            if not line.startswith("cubelink "):
                continue
            argv = shlex.split(line)[1:]
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[-1]
            code, out, err = run(capsys, *argv)
            assert code == expect, (line, err)
            if target:
                (tmp_path / target).write_text(out)
            ran += 1
    assert ran == 9


@pytest.mark.parametrize("argv", [
    ["solve", "--link", "1000000000", "--pairs", "0-1"],
    ["census", "--link", "1000000000", "--k", "2", "--exhaustive"],
    ["verify", "link.json"],
], ids=["solve", "census", "verify"])
def test_link_host_refuses_its_dimension_before_writing_a_label(
        capsys, tmp_path, monkeypatch, argv):
    # a d-bit label of a billion-dimensional cube took seconds and gigabytes
    # before link_polytope refused d
    def short_label(v, d):
        assert d <= 10, f"a {d}-bit label"
        return vertex_to_str(v, d)
    monkeypatch.setattr(cli, "vertex_to_str", short_label)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").write_text(json.dumps({
        "instance": {"host": {"kind": "link", "cube_dim": 1000000000},
                     "pairs": [["0", "1"]]},
        "result": {"linkage": [["0", "1"]]}}))
    assert run(capsys, *argv) == (
        1, "", "error: lattice materialization supports 1 <= d <= 10\n")


FUZZED_SOLVES = {
    "cube3-obstruction": ["--cube", "3", "--pairs", "000-110,010-100"],
    "cube4": ["--cube", "4", "--pairs", "0000-1111,0011-1100"],
    "link5": ["--link", "5", "--pairs", "00001-11110,00010-11101"],
    "cube4-strong": ["--cube", "4", "--strong", "--avoid", "0101",
                     "--pairs", "0000-1111,0011-1100"],
}


@functools.cache
def _certificate(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", *FUZZED_SOLVES[name]]) in (0, 2)
    return out.getvalue()


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5)
CERTIFICATE_NODES = st.sampled_from(sorted(FUZZED_SOLVES)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.sampled_from(list(_nodes(json.loads(_certificate(name)))))))


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(node=CERTIFICATE_NODES, value=JSON_VALUES)
@example(node=("cube3-obstruction", ("instance", "host")), value=None)
@example(node=("cube3-obstruction", ("result", "obstruction")), value=[])
@example(node=("cube3-obstruction", ("result", "obstruction", "pair")),
         value=["000"])
def test_a_certificate_with_one_node_replaced_never_raises(
        capsys, tmp_path, node, value):
    # verify reads the certificate, solve --instance its instance; each
    # answers with an exit code, never a traceback
    name, path = node
    doc = _replaced(json.loads(_certificate(name)), path, value)
    cert, inst = tmp_path / "cert.json", tmp_path / "inst.json"
    cert.write_text(json.dumps(doc))
    inst.write_text(json.dumps(doc.get("instance") if isinstance(doc, dict)
                               else doc))
    for argv in (["verify", str(cert)], ["solve", "--instance", str(inst)]):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, err)

