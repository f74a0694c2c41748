import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oneshotcap import (
    CapacityResult,
    Channel,
    build_avg_graph,
    capacity_curve,
    gen_random,
    max_capacity,
    optimal_avg_decoder,
    serialize_channel,
    serialize_cubic_graph,
)
import oneshotcap
from oneshotcap.cli import build_parser, main
from oneshotcap.hardness import cubic_k4

F = Fraction

FUNNEL3_TEXT = """\
channel 3 3
1 0 0
1/100 99/100 0
2/100 0 98/100
"""


@pytest.fixture
def funnel3_file(tmp_path):
    path = tmp_path / "funnel3.txt"
    path.write_text(FUNNEL3_TEXT)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(serialize_cubic_graph(cubic_k4()))
    return str(path)


def test_validate_ok(funnel3_file, capsys):
    assert main(["validate", funnel3_file]) == 0
    assert "3 inputs, 3 outputs" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("channel 2 2\n1 0\n49/100 1/2\n")
    assert main(["validate", str(path)]) == 1
    assert "row 1" in capsys.readouterr().err


def test_capacity_max(funnel3_file, capsys):
    assert main(["capacity", funnel3_file, "--metric", "max",
                 "--epsilon", "1/100"]) == 0
    out = capsys.readouterr().out
    assert "codebook_size=2" in out
    assert "capacity_bits=1.000000000000" in out


def test_capacity_accepts_decimal_epsilon(funnel3_file, capsys):
    assert main(["capacity", funnel3_file, "--metric", "max",
                 "--epsilon", "0.01"]) == 0
    assert "codebook_size=2" in capsys.readouterr().out


def test_capacity_identity_at_zero(tmp_path, capsys):
    path = tmp_path / "id2.txt"
    path.write_text("channel 2 2\n1 0\n0 1\n")
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "0"]) == 0
    assert "codebook_size=2" in capsys.readouterr().out


def test_capacity_engines_and_witness(funnel3_file, tmp_path, capsys):
    witness_path = tmp_path / "w.json"
    cases = [("avg", "1/200", 2), ("max", "1/100", 2),
             ("max", "1", 3)]  # "graph" names the one max engine, so it answers at eps 1
    for metric, eps, size in cases:
        for engine in ("packing", "graph", "brute"):
            assert main(["capacity", funnel3_file, "--metric", metric,
                         "--epsilon", eps, "--engine", engine,
                         "--witness", str(witness_path)]) == 0
            assert f"codebook_size={size}" in capsys.readouterr().out
            scheme = json.loads(witness_path.read_text())
            assert len(scheme["codebook"]) == size
            assert len(scheme["decoder"]) == 3
    # past brute force's limit, "graph" and "packing" are one engine too
    for seed in range(3):
        path = tmp_path / f"r{seed}.txt"
        path.write_text(serialize_channel(gen_random(6, 6, seed=seed, denominator_bound=24)))
        for metric in ("max", "avg"):
            for eps in ("1/10", "1/3"):
                outs = []
                for engine in ("packing", "graph"):
                    assert main(["capacity", str(path), "--metric", metric,
                                 "--epsilon", eps, "--engine", engine, "--json"]) == 0
                    outs.append(capsys.readouterr().out)
                assert outs[0] == outs[1]


def test_capacity_cross_check(funnel3_file, capsys):
    assert main(["capacity", funnel3_file, "--metric", "max",
                 "--epsilon", "1/100", "--cross-check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cross-check ok: brute, packing",
                   "codebook_size=2 capacity_bits=1.000000000000"]


@pytest.fixture
def gap_file(tmp_path):
    """Two identical rows over one output: at eps 1/2 the best avg scheme
    sacrifices a codeword, which the sparse number of the avg graph cannot
    represent."""
    path = tmp_path / "gap.txt"
    path.write_text("channel 2 1\n1\n1\n")
    return str(path)


def test_capacity_avg_graph_engine_is_exact_on_gap_channel(gap_file, capsys):
    # "graph" names the exact avg engine, so it answers 2 where the sparse
    # number stops at 1, with nothing on stderr
    assert main(["capacity", gap_file, "--metric", "avg", "--engine", "graph",
                 "--epsilon", "1/2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "codebook_size=2 capacity_bits=1.000000000000\n"
    assert captured.err == ""
    for engine in ("packing", "graph"):
        assert main(["capacity", gap_file, "--metric", "avg", "--engine", engine,
                     "--epsilon", "1/2", "--cross-check"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["cross-check ok: brute, packing",
                                             "codebook_size=2 capacity_bits=1.000000000000"]
        assert captured.err == ""


@pytest.mark.parametrize("engine, eps, size", [
    ("avg_capacity", "1/2", 1),  # the exact engines differ
])
def test_capacity_cross_check_planted_disagreement(
    gap_file, capsys, monkeypatch, engine, eps, size
):
    def wrong(c, e):
        return CapacityResult("average", e, size, optimal_avg_decoder(c, range(size)))

    monkeypatch.setattr(f"oneshotcap.cli.{engine}", wrong)
    assert main(["capacity", gap_file, "--metric", "avg",
                 "--epsilon", eps, "--cross-check"]) == 1
    assert "engine disagreement" in capsys.readouterr().err


def _uniform(nx, ny):
    return Channel.make([[F(1, ny)] * ny] * nx)


@pytest.mark.parametrize("shape, call, argv, message", [
    ((1, 13), lambda c: capacity_curve(c, "max"), ["curve", "--metric", "max"],
     "<= 12 outputs"),
    ((13, 1), lambda c: capacity_curve(c, "avg"), ["curve", "--metric", "avg"],
     "<= 12 inputs"),
    ((1, 11), build_avg_graph, ["sparse", "--epsilon", "1/10"], "<= 10 outputs"),
    # C(22, 11) minimal sets in one row: the per-row search stops first
    ((1, 22), lambda c: max_capacity(c, F(1, 2)),
     ["capacity", "--metric", "max", "--epsilon", "1/2"],
     "more than 32768 minimal decoding sets"),
    # 3 * C(16, 8) = 38610 nodes, each row under the cap
    ((3, 16), lambda c: max_capacity(c, F(1, 2)),
     ["capacity", "--metric", "max", "--epsilon", "1/2"], "more than 32768 nodes"),
], ids=["curve-max", "curve-avg", "avg-graph", "max-row-sets", "max-graph-nodes"])
def test_size_guards(tmp_path, capsys, shape, call, argv, message):
    c = _uniform(*shape)
    with pytest.raises(ValueError, match=message):
        call(c)
    path = tmp_path / "wide.txt"
    path.write_text(serialize_channel(c))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_capacity_json(funnel3_file, capsys):
    assert main(["capacity", funnel3_file, "--metric", "max",
                 "--epsilon", "1/50", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = json.loads(lines[-1])
    assert data["codebook_size"] == 3
    assert data["epsilon"] == "1/50"


def test_curve_csv(funnel3_file, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", funnel3_file, "--metric", "max", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,codebook_size,capacity_bits"
    assert lines[1:] == [
        "0,1,0.000000000000",
        "1/100,2,1.000000000000",
        "1/50,3,1.584962500721",
    ]


def test_sparse_command(funnel3_file, capsys):
    assert main(["sparse", funnel3_file, "--epsilon", "1/200"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sparse_number=2"
    witness = json.loads(out[1])
    assert len(witness) == 2


def test_graph_dump_variants(funnel3_file, capsys):
    assert main(["graph-dump", funnel3_file, "--variant", "max",
                 "--epsilon", "1/100", "--minimal-only"]) == 0
    out = capsys.readouterr().out
    assert "node 0 0 {0}" in out
    assert main(["graph-dump", funnel3_file, "--variant", "avg"]) == 0
    out = capsys.readouterr().out
    assert " inf" in out
    # max variant without epsilon is an error
    assert main(["graph-dump", funnel3_file, "--variant", "max"]) == 1


def test_reduce_roundtrip(k4_file, tmp_path, capsys):
    out = tmp_path / "k4_channel.txt"
    assert main(["reduce", k4_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("channel 4 6")
    assert text.count("1/3") == 12  # three per row


def test_verify_reduction_exit_code(k4_file, capsys):
    assert main(["verify-reduction", k4_file, "--epsilon", "1/4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True
    assert main(["verify-reduction", k4_file, "--epsilon", "1/3"]) == 1
    assert "eps < 1/3" in capsys.readouterr().err


def test_simulate_command(funnel3_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps({"codebook": [1, 2], "decoder": [2, 1, 2]}))
    args = ["simulate", funnel3_file, "--scheme", str(scheme_path),
            "--trials", "5000", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["trials"] == 5000
    assert data["exact_max"] == "1/100"
    # byte-identical on identical invocation
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("text, message", [
    ("[1]", "scheme must be a JSON object, got list"),
    ('{"codebook": ["a"], "decoder": [0, 0, 0]}', "scheme codebook[0] = 'a' is not an int"),
    ('{"codebook": 0, "decoder": [0, 0, 0]}', "scheme 'codebook' must be a list, got int"),
    ('{"codebook": [0], "decoder": [0.0, 0, 0]}', "scheme decoder[0] = 0.0 is not an int"),
    ('{"codebook": [0], "decoder": [0, true, 0]}', "scheme decoder[1] = True is not an int"),
    ('{"codebook": [0]}', "scheme has no 'decoder' field"),
    ('{"codebook": [0], "decoder": [0, 0]}', "decoder covers 2 outputs, channel has 3"),
], ids=["list", "string-codeword", "int-codebook", "float-decoder", "bool-decoder",
        "no-decoder", "short-decoder"])
def test_simulate_rejects_malformed_scheme(funnel3_file, tmp_path, capsys, text, message):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(text)
    assert main(["simulate", funnel3_file, "--scheme", str(scheme_path),
                 "--trials", "5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_funnel(tmp_path, capsys):
    assert main(["gen", "funnel", "--n", "3", "--e", "1/100,1/50"]) == 0
    out = capsys.readouterr().out
    # serialization is in lowest terms
    assert out == "channel 3 3\n1 0 0\n1/100 99/100 0\n1/50 0 49/50\n"
    # bad spec is rejected cleanly
    assert main(["gen", "funnel", "--n", "3", "--e", "0,1/2"]) == 1


def test_gen_random_deterministic(capsys):
    args = ["gen", "random", "--nx", "3", "--ny", "3", "--seed", "5",
            "--denom", "12"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("channel 3 3")


def test_gen_cubic_feeds_reduce(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    assert main(["gen", "cubic", "--vertices", "8", "--seed", "2",
                 "--out", str(graph_path)]) == 0
    assert main(["verify-reduction", str(graph_path), "--epsilon", "1/100"]) == 0


def test_usage_errors_exit_2(funnel3_file):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", funnel3_file, "--metric", "nope", "--epsilon", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_file_is_engine_error(capsys):
    assert main(["validate", "/nonexistent/channel.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_zero_denominator_is_a_clean_error(tmp_path, funnel3_file, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("channel 1 2\n1/0 1\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: line 2: row 0, column 0: '1/0' has a zero denominator\n"
    assert main(["gen", "funnel", "--n", "2", "--e", "1/0"]) == 1
    assert capsys.readouterr().err == "error: leak probability: '1/0' has a zero denominator\n"


@pytest.mark.parametrize("eps, reason", [
    ("1/0", "has a zero denominator"),
    ("3/2", "is outside [0, 1]"),
    ("one tenth", "is not a p/q fraction or finite decimal"),
])
def test_bad_epsilon_is_a_usage_error_with_its_reason(funnel3_file, capsys, eps, reason):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", funnel3_file, "--metric", "max", "--epsilon", eps])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"oneshotcap capacity: error: argument --epsilon: epsilon: {eps!r} {reason}"


def test_parser_is_built_once_and_not_at_import():
    src = Path(oneshotcap.__file__).resolve().parent.parent
    script = ("import oneshotcap.cli as cli\n"
              "print(cli.build_parser.cache_info().misses)\n"
              "cli.main(['gen', 'random', '--nx', '2', '--ny', '2', '--seed', '1', '--denom', '4'])\n"
              "cli.main(['gen', 'cubic', '--vertices', '4', '--seed', '1'])\n"
              "print(cli.build_parser.cache_info().misses)\n")
    run = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[0] == "0"
    assert run.stdout.splitlines()[-1] == "1"


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_reused_parser_leaks_no_state(funnel3_file, capsys):
    capacity = ["capacity", funnel3_file, "--metric", "max", "--epsilon", "1/50"]
    dump = ["graph-dump", funnel3_file, "--variant", "max", "--epsilon", "1/50"]
    pairs = [
        (capacity + ["--json"], capacity),
        (capacity + ["--cross-check"], capacity),
        (dump + ["--minimal-only"], dump),
        (["capacity", funnel3_file, "--metric", "nope", "--epsilon", "0"], capacity),
    ]
    for first, second in pairs:
        build_parser.cache_clear()
        alone = _outcome(second, capsys)  # on a parser built for this call
        assert _outcome(first, capsys) != alone
        assert _outcome(second, capsys) == alone
        assert build_parser.cache_info().misses == 1
    # the usage error really was one, and the plain call prints no JSON line
    assert _outcome(pairs[-1][0], capsys)[2] == 2
    assert _outcome(capacity, capsys) == \
        ("codebook_size=3 capacity_bits=1.584962500721\n", "", 0)
