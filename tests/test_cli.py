import os
import subprocess
import sys
from dataclasses import replace

import pytest

import phiplane
from phiplane.cli import run
from phiplane.exchange import (T_PHI, PlaneMap, build_base_exchange,
                               build_translation_exchange, exchange_tower,
                               sample_points)
from phiplane.field import ONE, ZERO, phi_power
from phiplane.geometry import QuadBound
from phiplane.render import (ParseError, exchange_svg, parse_exchange,
                             serialize_exchange)


@pytest.fixture(scope="module")
def base():
    return build_base_exchange()


# -- serialization ------------------------------------------------------

def test_serialize_roundtrip_base(base):
    text = serialize_exchange(base)
    back = parse_exchange(text)
    assert serialize_exchange(back) == text
    assert back.level == base.level
    assert back == base
    for p in sample_points(base, 10, seed=6):
        assert back.locate(p) == base.locate(p)


def test_serialize_roundtrip_levels():
    for E in exchange_tower(3):
        assert serialize_exchange(parse_exchange(serialize_exchange(E))) \
            == serialize_exchange(E)


def test_serialized_header(base):
    lines = serialize_exchange(base).splitlines()
    assert lines[0] == "exchange T_phi 1 2"
    assert lines[1].startswith("piece 1 0 0 ")


def test_serialize_rejects_other_bases(base):
    with pytest.raises(ValueError, match="only T_phi and translation"):
        serialize_exchange(replace(base, base=T_PHI @ T_PHI))
    shear = PlaneMap(ONE, phi_power(-3), 1, QuadBound(ZERO, ONE, phi_power(-4)))
    with pytest.raises(ValueError, match="only T_phi and translation"):
        serialize_exchange(replace(base, base=shear))


def test_serialize_roundtrip_translation():
    E = build_translation_exchange(phi_power(-2), phi_power(-3),
                                  check_independence=False)
    back = parse_exchange(serialize_exchange(E))
    assert back == E


def _garbage_cases():
    text = serialize_exchange(build_base_exchange())
    lines = text.splitlines()
    strip = lines[2].split()

    def edit(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"
    return [
        ("bogus 1 2 3\n", 1, "expected a 'exchange' record"),
        ("exchange nil 1 2\n", 1, "unknown base kind"),
        ("exchange translation 1 1\nalpha 1 2 0 1\n", 3, "missing beta"),
        (text + lines[-1] + "\n", len(lines) + 1, "extra record"),
        ("\n".join(lines[:-1]) + "\n", len(lines), "missing strip"),
        (edit(1, lines[1] + " 7"), 2, "has 4 fields, got 5"),
        (edit(0, "exchange T_phi one 2"), 1, "non-integer token"),
        (edit(2, " ".join(strip[:2] + ["1", "0"] + strip[4:])), 3,
         "zero denominator"),
        (edit(2, " ".join(strip[:1] + ["10x1"] + strip[2:])), 3,
         "flags must be four 0/1 digits"),
        (edit(2, " ".join(strip[:22] + ["7", "1", "0", "1"] + strip[26:])), 3,
         "strip bounds do not share c2"),
        (edit(2, " ".join(strip[:2] + strip[6:10] + strip[2:6] + strip[10:])),
         3, "strip needs x_lo < x_hi"),
        (edit(2, " ".join(strip[:10] + strip[22:34] + strip[10:22])), 3,
         "strip upper bound lies below its lower bound"),
    ]


def test_parse_rejects_garbage():
    assert issubclass(ParseError, ValueError)
    for text, line, why in _garbage_cases():
        with pytest.raises(ParseError, match=f"^line {line}: .*{why}"):
            parse_exchange(text)


def test_svg_polygon_count(base):
    svg = exchange_svg(base)
    strips = sum(len(p.region.strips) for p in base.pieces)
    assert svg.count("<polygon") == strips
    assert svg.startswith("<svg ")
    assert svg == exchange_svg(base)  # deterministic


# -- command line -------------------------------------------------------

def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_base_roundtrips(capsys, base):
    code, out, err = run_capture(capsys, ["base"])
    assert code == 0 and err == ""
    assert serialize_exchange(parse_exchange(out)) == serialize_exchange(base)


def test_cli_deterministic(capsys):
    _, first, _ = run_capture(capsys, ["sums", "--max-n", "40"])
    _, second, _ = run_capture(capsys, ["sums", "--max-n", "40"])
    assert first == second


def test_cli_complexity_rows(capsys):
    code, out, err = run_capture(capsys, ["complexity", "--level", "3",
                                          "--max-n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,n,p_n"
    assert lines[1] == "3,1,2"
    assert len(lines) == 5


def test_cli_translation_square_law(capsys):
    code, out, _ = run_capture(capsys, ["translation", "--max-n", "3",
                                        "--allow-dependent"])
    assert code == 0
    assert out.splitlines() == ["n,p_n", "1,4", "2,9", "3,16"]


def test_cli_translation_dependence_fails(capsys):
    code, out, err = run_capture(capsys, ["translation", "--max-n", "2"])
    assert code == 1
    assert "hypothesis check failed" in err


def test_cli_translation_dependence_beyond_small_coefficients(capsys):
    # alpha = phi - 1, beta = phi/21: the relation needs m = 21
    code, out, err = run_capture(capsys, ["translation", "--alpha=-1,1,1,1",
                                          "--beta=0,1,1,21"])
    assert (code, out) == (1, "")
    assert err == ("hypothesis check failed: 1, alpha, beta rationally "
                   "dependent: -1*alpha + 21*beta = 1\n")


def test_cli_complexity_level1_golden_bytes(capsys):
    # a regression record of the level-1 coding complexity p(1..12)
    golden = os.path.join(os.path.dirname(__file__), "data",
                          "complexity_level1.txt")
    with open(golden, newline="") as fh:
        want = fh.read()
    code, out, err = run_capture(capsys, ["complexity", "--level", "1",
                                          "--max-n", "12"])
    assert (code, out, err) == (0, want, "")


def test_cli_theorem1_reports(capsys):
    code, out, _ = run_capture(capsys, ["theorem1", "--n", "2"])
    assert code == 0
    assert out.count("scenario:") == 3
    assert out.count("forced relation") == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_cli_theorem1_golden_bytes(capsys, n):
    # reports recorded from the sympy implementation of the scenarios
    golden = os.path.join(os.path.dirname(__file__), "data",
                          f"theorem1_n{n}.txt")
    with open(golden, newline="") as fh:
        want = fh.read()
    code, out, err = run_capture(capsys, ["theorem1", "--n", str(n)])
    assert (code, out, err) == (0, want, "")


def test_cli_language_converges(capsys):
    code, out, _ = run_capture(capsys, ["language", "--seed-lang", "min",
                                        "--iters", "12", "--max-len", "6"])
    assert code == 0
    assert "121121" in out.splitlines()


def test_cli_render(capsys):
    code, out, _ = run_capture(capsys, ["render", "--level", "2"])
    assert code == 0
    assert out.count("<polygon") == 8


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_capture(capsys, ["-o", str(target),
                                        "sums", "--max-n", "5"])
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "n,s_n,is_record"


def test_cli_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["complexity", "--level", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["translation", "--alpha", "1,2,3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_import_leaves_sympy_out():
    # no phiplane module, scenarios and acceptance included, loads sympy
    src = os.path.dirname(os.path.dirname(phiplane.__file__))
    probe = ("import importlib, pkgutil, sys, phiplane\n"
             "names = [m.name for m in pkgutil.iter_modules(phiplane.__path__)]\n"
             "assert {'cli', 'scenarios', 'acceptance'} <= set(names)\n"
             "for name in names:\n"
             "    importlib.import_module('phiplane.' + name)\n"
             "print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
