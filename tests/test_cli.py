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
    identity_channel,
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
    assert out == ["cross-check ok: brute, graph, packing",
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


def test_capacity_cross_check_reaches_the_search_past_brute_force(tmp_path, capsys, monkeypatch):
    path = tmp_path / "random8x8.txt"
    path.write_text(serialize_channel(gen_random(8, 8, seed=1, denominator_bound=24)))
    argv = ["capacity", str(path), "--metric", "max", "--epsilon", "1/3", "--cross-check"]
    assert main(argv) == 0
    ok, result = capsys.readouterr().out.splitlines()
    assert ok == "cross-check ok: graph, packing"
    size = int(result.split()[0].removeprefix("codebook_size="))
    monkeypatch.setattr("oneshotcap.cli.independence_number", lambda g: (size + 1, ()))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"engine disagreement: packing={size}, graph={size + 1}\n"


def _uniform(nx, ny):
    return Channel.make([[F(1, ny)] * ny] * nx)


def _spy(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each call's
    arguments in the returned list."""
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_capacity_cross_check_runs_no_second_graph_where_the_graph_answers(
    tmp_path, capsys, monkeypatch
):
    # 17 outputs: first-fit packs 2 sets against a packing bound of 3, so
    # the conflict graph answers, and no second engine applies
    path = tmp_path / "random8x17.txt"
    path.write_text(serialize_channel(gen_random(8, 17, seed=1, denominator_bound=24)))
    argv = ["capacity", str(path), "--metric", "max", "--epsilon", "1/3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    built = []

    def build(*args, **kwargs):
        built.append(oneshotcap.graphs.build_max_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(oneshotcap.capacity, "build_max_graph", build)
    monkeypatch.setattr(oneshotcap.cli, "build_max_graph", build)
    searches = _spy(monkeypatch, oneshotcap.capacity, "_packings")
    assert main(argv + ["--cross-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "cross-check: no second engine applies\n" + expected
    assert captured.err == ""
    assert len(built) == len(searches) == 1


@pytest.mark.parametrize("metric, eps", [("max", "1/100"), ("avg", "1/100")])
@pytest.mark.parametrize("cross_check", [False, True])
@pytest.mark.parametrize("engine", ["packing", "graph", "brute"])
def test_capacity_runs_each_engine_at_most_once(
    funnel3_file, capsys, monkeypatch, engine, cross_check, metric, eps
):
    # funnel3 is within brute force's 5x5; at eps 1/100 the avg search tries
    # one size, 3, so one run of it makes one _first_codebook call
    ran = {
        "packing": _spy(monkeypatch, oneshotcap.capacity,
                        "_packings" if metric == "max" else "_first_codebook"),
        "brute": _spy(monkeypatch, oneshotcap.cli, "brute_force_capacity"),
        "graph": _spy(monkeypatch, oneshotcap.cli, "independence_number"),
    }
    argv = ["capacity", funnel3_file, "--metric", metric, "--epsilon", eps, "--engine", engine]
    assert main(argv + ["--cross-check"] * cross_check) == 0
    size = {"max": 2, "avg": 3}[metric]
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"codebook_size={size} ")
    expected = {
        "packing": int(cross_check or engine != "brute"),
        "brute": int(cross_check or engine == "brute"),
        "graph": int(cross_check and metric == "max"),
    }
    assert {name: len(calls) for name, calls in ran.items()} == expected


def _plant_a_short_packing(monkeypatch):
    # the search yields one set of its first packing, and stops
    search = oneshotcap.capacity._packings

    def short(c, threshold, ceiling):
        yield next(search(c, threshold, ceiling))[:1]

    monkeypatch.setattr(oneshotcap.capacity, "_packings", short)


def _plant_a_short_codebook(monkeypatch):
    # the codebook search finds no codebook of two or more inputs
    first = oneshotcap.capacity._first_codebook
    monkeypatch.setattr(oneshotcap.capacity, "_first_codebook",
                        lambda weights, reach, k, need: first(weights, reach, k, need)
                        if k == 1 else None)


def _plant_an_inadmissible_packing(monkeypatch):
    # codeword 1 keeps output 1 alone, 1/16 of its row
    monkeypatch.setattr(oneshotcap.capacity, "_packings",
                        lambda c, threshold, ceiling: iter([[(0, 1), (1, 2)]]))


@pytest.mark.parametrize("channel, metric, eps, plant, err", [
    (gen_random(8, 8, seed=1, denominator_bound=24), "max", "1/3", _plant_a_short_packing,
     "engine disagreement: packing=1, graph=2\n"),
    (gen_random(5, 5, seed=1, denominator_bound=24), "avg", "1/3", _plant_a_short_codebook,
     "engine disagreement: packing=1, brute=2\n"),
    (Channel([[1] * 16] * 3, 16), "max", "1/2", _plant_an_inadmissible_packing,
     "error: maximum witness has error 15/16 > eps = 1/2\n"),
])
def test_capacity_cross_check_fails_on_a_planted_fault(
    tmp_path, capsys, monkeypatch, channel, metric, eps, plant, err
):
    path = tmp_path / "channel.txt"
    path.write_text(serialize_channel(channel))
    plant(monkeypatch)
    searches = _spy(monkeypatch, oneshotcap.capacity, "_packings")
    assert main(["capacity", str(path), "--metric", metric, "--epsilon", eps,
                 "--cross-check"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert len(searches) == (metric == "max")


def test_capacity_cross_check_skips_a_refused_graph(tmp_path, capsys):
    # 3 * C(16, 8) = 38610 minimal sets: the search answers, the graph refuses
    path = tmp_path / "uniform3x16.txt"
    path.write_text(serialize_channel(_uniform(3, 16)))
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "1/2",
                 "--cross-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("cross-check: no second engine applies\n"
                            "codebook_size=2 capacity_bits=1.000000000000\n")
    assert captured.err == ("cross-check: graph not compared: "
                            "maximum-one-shot graph has more than 32768 nodes\n")


def test_capacity_cross_check_compares_the_graph_with_a_wide_first_fit(
    tmp_path, capsys, monkeypatch
):
    # 18 outputs, past the search's own range: first-fit meets the packing
    # bound, 2, and the conflict graph, 6614 nodes, is the second opinion
    path = tmp_path / "random6x18.txt"
    c = gen_random(6, 18, seed=4, denominator_bound=24)
    path.write_text(serialize_channel(c))
    built = []

    def build(*args, **kwargs):
        built.append(oneshotcap.graphs.build_max_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(oneshotcap.capacity, "build_max_graph", build)
    monkeypatch.setattr(oneshotcap.cli, "build_max_graph", build)
    assert oneshotcap.capacity._max_engine(c, F(1, 3))[0] == "search"
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "1/3",
                 "--cross-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("cross-check ok: graph, packing\n"
                            "codebook_size=2 capacity_bits=1.000000000000\n")
    assert captured.err == ""
    assert len(built) == 1


def test_capacity_refuses_a_planted_first_fit_below_the_threshold(tmp_path, capsys, monkeypatch):
    path = tmp_path / "uniform3x16.txt"
    path.write_text(serialize_channel(_uniform(3, 16)))
    _plant_an_inadmissible_packing(monkeypatch)
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: maximum witness has error 15/16 > eps = 1/2\n"


def test_capacity_cross_check_says_when_no_second_engine_applies(tmp_path, capsys):
    # avg past brute force's 5x5 has one engine, so nothing is compared
    path = tmp_path / "random6x6.txt"
    path.write_text(serialize_channel(gen_random(6, 6, seed=1, denominator_bound=24)))
    argv = ["capacity", str(path), "--metric", "avg", "--epsilon", "1/10"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--cross-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "cross-check: no second engine applies\n" + expected
    assert captured.err == ""


def test_capacity_on_a_minimal_set_of_1100_outputs(tmp_path, capsys):
    path = tmp_path / "uniform2x1100.txt"
    path.write_text(serialize_channel(Channel([[1] * 1100] * 2, 1100)))
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "codebook_size=1 capacity_bits=0.000000000000\n"
    assert captured.err == ""


def test_capacity_on_an_independent_set_of_1100_nodes(tmp_path, capsys):
    # the search's first packing meets the packing bound: 1100 codewords
    path = tmp_path / "identity1100.txt"
    path.write_text(serialize_channel(identity_channel(1100)))
    assert main(["capacity", str(path), "--metric", "max", "--epsilon", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "codebook_size=1100 capacity_bits=10.103287808412\n"
    assert captured.err == ""


def test_capacity_cross_check_refuses_brute_past_its_limit(tmp_path, capsys):
    path = tmp_path / "random6x6.txt"
    path.write_text(serialize_channel(gen_random(6, 6, seed=1, denominator_bound=24)))
    argv = ["capacity", str(path), "--metric", "max", "--epsilon", "1/3", "--engine", "brute"]
    for extra in ([], ["--cross-check"]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: engine 'brute' not applicable here (available: packing)\n"


def _half_blind(nx, ny):
    """nx copies of a row uniform over outputs 1..ny-1, with output 0 at 0:
    at eps 1/2 each row needs ny // 2 outputs, so the packing bound is 2,
    but the first row's set leaves too few outputs for a second."""
    return Channel([[0] + [1] * (ny - 1)] * nx, ny - 1)


@pytest.mark.parametrize("c, call, argv, message", [
    (_uniform(1, 17), lambda c: capacity_curve(c, "max"), ["curve", "--metric", "max"],
     "curve sweep needs <= 16 outputs, channel has 17"),
    (_uniform(13, 1), lambda c: capacity_curve(c, "avg"), ["curve", "--metric", "avg"],
     "curve sweep needs <= 12 inputs, channel has 13"),
    (_uniform(1, 11), build_avg_graph, ["sparse", "--epsilon", "1/10"], "<= 10 outputs"),
    # C(21, 11) minimal sets in one row: the per-row search stops first
    (_half_blind(2, 22), lambda c: max_capacity(c, F(1, 2)),
     ["capacity", "--metric", "max", "--epsilon", "1/2"],
     "more than 32768 minimal decoding sets"),
    # 2 * C(17, 9) = 48620 nodes, each row under the cap; at 16 outputs
    # and fewer the subset DP answers without a graph
    (_half_blind(2, 18), lambda c: max_capacity(c, F(1, 2)),
     ["capacity", "--metric", "max", "--epsilon", "1/2"], "more than 32768 nodes"),
], ids=["curve-max", "curve-avg", "avg-graph", "max-row-sets", "max-graph-nodes"])
def test_size_guards(tmp_path, capsys, c, call, argv, message):
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


def test_graph_dump_avg_rejects_the_max_flags(funnel3_file, capsys):
    for flags in (["--epsilon", "1/10"], ["--minimal-only"]):
        assert main(["graph-dump", funnel3_file, "--variant", "avg", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --epsilon and --minimal-only are for the max variant only\n"


def test_graph_dump_refuses_an_oversized_dump(tmp_path, capsys):
    path = tmp_path / "random9x9.txt"
    path.write_text(serialize_channel(gen_random(9, 9, 1, 24)))
    assert main(["graph-dump", str(path), "--variant", "avg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: graph dump has 10550121 lines, more than the limit of 4194304\n"


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


def test_verify_reduction_on_160_vertices(tmp_path, capsys):
    # the reduction's largest instance here: the independent-set search
    # folds its degree-2 vertices, and a search that did not took about
    # 23 s on this graph
    graph_path = tmp_path / "g.txt"
    assert main(["gen", "cubic", "--vertices", "160", "--seed", "1",
                 "--out", str(graph_path)]) == 0
    assert main(["verify-reduction", str(graph_path), "--epsilon", "1/4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True
    assert data["graph_alpha"] == data["channel_capacity_k"] == 72
    witness = set(data["graph_witness"])
    assert len(witness) == 72
    edges = [tuple(map(int, line.split())) for line in graph_path.read_text().splitlines()[1:]]
    assert len(edges) == 240
    assert not any(u in witness and v in witness for u, v in edges)


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


def test_a_handler_bug_is_not_reported_as_an_error(funnel3_file, monkeypatch):
    # a KeyError is not an error the library raises for bad input
    import oneshotcap.cli as cli

    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    build_parser.cache_clear()  # the cached parser holds the handler it was built with
    try:
        with pytest.raises(KeyError):
            main(["validate", funnel3_file])
    finally:
        build_parser.cache_clear()


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
