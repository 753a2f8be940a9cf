import json
import os
import subprocess
import sys

import pytest

import cubelink
from cubelink.cli import main
from cubelink.hypercube import cube_graph, vertex_from_str
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
], ids=["3F-in-Q4", "dF-in-Q5", "3F-wrong-blocking"])
def test_verify_rejects_forged_obstruction(capsys, tmp_path, forged):
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps(forged))
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 1 and out.startswith("FAIL")


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
