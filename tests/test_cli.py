import csv
import io

import pytest

from pqham import cli, engine
from pqham.cli import build_parser, main
from pqham.engine import build_instance, parse_certificate, verify
from pqham.graphs import gp, parse_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_text_round_trip(capsys):
    code, out = run(capsys, "construct", "--family", "gp", "--n", "7",
                    "--k", "2")
    assert code == 0
    assert parse_edge_list(out) == gp(7, 2)


def test_construct_dot(capsys):
    code, out = run(capsys, "construct", "--family", "gp", "--n", "5",
                    "--k", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph ") and out.rstrip().endswith("}")


def test_suborbits_text_and_csv(capsys):
    code, out = run(capsys, "suborbits", "--space", "dihedral", "--p", "13")
    assert code == 0 and "self-paired" in out
    code, out = run(capsys, "suborbits", "--space", "triple",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,size,self_paired,paired"
    assert len(out.splitlines()) == 5


def test_quotient_command(capsys, tmp_path):
    spec = tmp_path / "f.spec"
    spec.write_text("family=fermat\np=5\nq=3\nS=\nT=1\n")
    code, out = run(capsys, "quotient", "--family", "fermat",
                    "--spec", str(spec))
    assert code == 0
    assert out.startswith("orbits=5 orbit_length=3")
    assert "symbol:" in out
    # an automorphism with a fixed point has no quotient
    code = main(["quotient", "--family", "psl2sub", "--p", "13", "--orders",
                 "2,3,6", "--size", "78", "--index", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and "not semiregular" in captured.err


def test_quotient_command_composite_orbit_length(capsys, tmp_path):
    # the rotations of gp(8,3) and of a metacirculant with n = 9 are
    # semiregular though their orbit length is not prime
    spec = tmp_path / "m.spec"
    spec.write_text("family=metacirculant\nm=2\nn=9\nalpha=8\n"
                    "T0=1,8\nT1=0,3\n")
    for argv, head in (
            (["--family", "gp", "--n", "8", "--k", "3"],
             "orbits=2 orbit_length=8\nd_in=2,2\n"),
            (["--family", "metacirculant", "--spec", str(spec)],
             "orbits=2 orbit_length=9\nd_in=2,2\n")):
        code, out = run(capsys, "quotient", *argv)
        assert code == 0 and out.startswith(head)


def test_hamilton_certificate_verifies(capsys):
    from pqham.engine import Descriptor, build_instance
    # the second is the order-1891 action of PSL(2,61) on A5 cosets
    for argv, desc in (
            (["--family", "dihedral", "--p", "13", "--suborbit", "S7"],
             Descriptor("dihedral", (13, "S7"))),
            (["--family", "psl2sub", "--p", "61", "--orders", "2,3,5",
              "--size", "60", "--index", "1"],
             Descriptor("psl2sub", (61, 2, 3, 5, 60, 1)))):
        code, out = run(capsys, "hamilton", *argv)
        assert code == 0
        cert = parse_certificate(out)
        g, _ = build_instance(desc)
        assert cert.order == g.n
        assert verify(g, cert)


def test_hamilton_text_format(capsys):
    code, out = run(capsys, "hamilton", "--family", "gp", "--n", "7",
                    "--k", "2", "--format", "text")
    assert code == 0
    assert out.startswith("hamiltonian gp(7,2)")


def test_hamilton_petersen_message(capsys):
    code = main(["hamilton", "--family", "gp", "--n", "5", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1 and "NotHamiltonian" in captured.err


def test_hamilton_budget_exhaustion_message(capsys):
    code = main(["hamilton", "--family", "triple", "--size", "4",
                 "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ProofFailure: ")


def test_survey_csv(capsys):
    code, out = run(capsys, "survey", "--max-order", "15", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("descriptor,")
    assert any(",exception," in l for l in lines)
    assert any(",hamiltonian," in l for l in lines)


def test_survey_csv_rows_parse_to_six_fields(capsys):
    # descriptors such as dihedral(13,S2) hold commas of their own
    code, out = run(capsys, "survey", "--max-order", "255", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + len(engine.survey_descriptors(255))
    assert {len(row) for row in rows} == {6}
    assert ["dihedral(13,S2)", "91"] in [row[:2] for row in rows]


def test_tables_deterministic(capsys):
    code, out1 = run(capsys, "tables", "--qm-cap", "11")
    code2, out2 = run(capsys, "tables", "--qm-cap", "11")
    assert code == code2 == 0 and out1 == out2
    assert out1.splitlines()[0].startswith("sequence")


def test_quartic_single_prime(capsys):
    code, out = run(capsys, "quartic", "--p", "13")
    assert code == 0 and out == "13: 1,4,5,6,7,10\n"


def test_quartic_scan(capsys):
    code, out = run(capsys, "quartic", "--max", "62")
    assert code == 0
    assert out.splitlines() == ["5: 0,4", "13: 1,4,5,6,7,10",
                                "37: 3,28,29", "61: 18,37,40"]


def test_bad_flags_exit_2():
    for argv in (["nosuch"],
                 ["hamilton", "--family", "dihedral", "--p", "13"],
                 ["construct", "--family", "gp", "--n", "5"],
                 ["hamilton", "--family", "psl2sub", "--p", "13",
                  "--orders", "2,3", "--size", "12", "--index", "1"],
                 # flags that no command takes
                 ["tables", "--ceiling", "10"],
                 ["quotient", "--family", "gp", "--n", "7", "--k", "2",
                  "--format", "text"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


def test_budget_flag_default():
    parser = build_parser()
    for argv in (["hamilton", "--family", "gp", "--n", "7", "--k", "2"],
                 ["survey", "--max-order", "15"]):
        assert parser.parse_args(argv).budget == engine.DEFAULT_BUDGET
        assert parser.parse_args(argv + ["--budget", "99"]).budget == 99


def test_nonpositive_budget_exit_2(capsys):
    for argv in (["hamilton", "--family", "triple", "--size", "4",
                  "--budget", "-5"],
                 ["hamilton", "--family", "triple", "--size", "4",
                  "--budget", "0"],
                 ["survey", "--max-order", "15", "--budget", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("--budget must be positive")


def test_tables_respect_qm_cap(capsys):
    code, out = run(capsys, "tables", "--qm-cap", "4", "--format", "csv")
    assert code == 0
    assert [l.split(";")[0] for l in out.splitlines()[1:]] == ["2", "2,3"]
    code, out = run(capsys, "tables", "--qm-cap", "4")
    assert code == 0 and out.startswith("sequence")
    assert [l.split()[0] for l in out.splitlines()[1:]] == ["2", "2,3"]


def test_bad_parameters_exit_2_one_line(capsys):
    for argv in (["tables", "--qm-cap", "0"],
                 ["quartic", "--p", "12"],
                 ["quartic", "--p", "2"],
                 ["quartic", "--p", "0"],
                 ["hamilton", "--family", "psl2sub", "--p", "13", "--orders",
                  "2,3,3", "--size", "12", "--index", "99"],
                 ["suborbits", "--space", "psl2cosets", "--p", "13",
                  "--orders", "2,3", "--size", "12"],
                 ["construct", "--family", "psl2sub", "--p", "13", "--orders",
                  "a,3,3", "--size", "12", "--index", "1"],
                 ["construct", "--family", "gp", "--n", "2", "--k", "1"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_triple_size_without_a_suborbit_exits_2_one_line(capsys):
    for command in ("construct", "quotient", "hamilton"):
        with pytest.raises(SystemExit) as e:
            main([command, "--family", "triple", "--size", "5"])
        assert e.value.code == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, command
        assert "have [4, 12, 18]" in captured.err, command


def test_hamilton_builds_the_instance_once(capsys, monkeypatch):
    built = []

    def counting(desc):
        built.append(desc)
        return build_instance(desc)

    monkeypatch.setattr(engine, "build_instance", counting)
    monkeypatch.setattr(cli, "build_instance", counting)
    code, out = run(capsys, "hamilton", "--family", "gp", "--n", "7",
                    "--k", "2", "--format", "text")
    assert code == 0 and out.startswith("hamiltonian ")
    assert len(built) == 1


def test_bad_suborbit_spaces_exit_2_one_line(capsys):
    for argv in (["--space", "dihedral", "--p", "12"],
                 ["--space", "dihedral", "--p", "21"],
                 ["--space", "psl2cosets", "--p", "12"],
                 ["--space", "psl2cosets", "--p", "1"],
                 ["--space", "psl2cosets", "--p", "13", "--orders", "2,3,7",
                  "--size", "12"],
                 ["--space", "psl2cosets", "--p", "13", "--orders", "0,3,3",
                  "--size", "12"],
                 ["--space", "psl2cosets", "--p", "13", "--orders", "a,3,3",
                  "--size", "12"]):
        with pytest.raises(SystemExit) as e:
            main(["suborbits", *argv])
        assert e.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_bad_spec_files_exit_2_one_line(capsys, tmp_path):
    texts = {"noq": "family=fermat\np=5\nS=\nT=1\n",
             "badq": "family=fermat\np=5\nq=x\nS=\nT=1\n",
             "nom": "family=metacirculant\nn=5\nalpha=2\n",
             "unknown": "family=circulant\n"}
    paths = [str(tmp_path / "missing.spec")]
    for name, text in texts.items():
        path = tmp_path / (name + ".spec")
        path.write_text(text)
        paths.append(str(path))
    for path in paths:
        for family in ("fermat", "metacirculant"):
            with pytest.raises(SystemExit) as e:
                main(["construct", "--family", family, "--spec", path])
            assert e.value.code == 2, path
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1, path
