import contextlib
import importlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from heckelab.cli import main
from heckelab.lab import CHECKS
from heckelab.permutations import all_perms, perm_to_str
from heckelab.qpoly import poly_json
from heckelab.symfunc import SymmetricFunction
from hecke_oracle import cprime


def run(capsys, *argv):
    code = main(["--no-cache", *argv])
    out = capsys.readouterr()
    return code, out.out


def test_kl_single(capsys):
    code, out = run(capsys, "kl", "--w", "62754381", "--z", "e")
    assert code == 0
    assert out.strip() == "1 + q"
    code, out = run(capsys, "kl", "--w", "62754381", "--z", "12345678")
    assert code == 0 and out.strip() == "1 + q"


def test_kl_single_incomparable_is_zero(capsys):
    # 1342 and 2143 both have length 2, so neither is below the other
    code, out = run(capsys, "kl", "--w", "2143", "--z", "1342")
    assert (code, out) == (0, "0\n")
    code, out = run(capsys, "--format", "json", "kl", "--w", "2143",
                    "--z", "1342")
    assert (code, out) == (0, '{"polynomial": {}}\n')


def test_kl_row(capsys):
    code, out = run(capsys, "kl", "--w", "3412")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P[1234, 3412] = 1 + q"
    assert lines[-1] == "P[3412, 3412] = 1"


def test_kl_json_roundtrip(capsys):
    code, out = run(capsys, "--format", "json", "kl", "--w", "321", "--z", "e")
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == {"0": 1}
    code, out = run(capsys, "--format", "json", "kl", "--w", "3412")
    data = json.loads(out)
    assert data["n"] == 4
    assert ["1234", "3412", {"0": 1, "1": 1}] in data["entries"]


def test_cprime(capsys):
    code, out = run(capsys, "cprime", "--w", "21")
    assert code == 0
    assert out.strip() == "q^(1/2)*C'[21] = (1)*T[12] + (1)*T[21]"


def test_cprime_matches_the_t_basis_oracle(capsys):
    # the printer reads the packed row; the oracle renders the HeckeElement
    perms = [w for n in range(1, 5) for w in all_perms(n)]
    perms += random.Random(12).sample(list(all_perms(5)), 20)
    for w in perms:
        b, ws_text = cprime(w), perm_to_str(w)
        code, out = run(capsys, "cprime", "--w", ws_text)
        assert (code, out) == \
            (0, f"q^({w.length()}/2)*C'[{ws_text}] = {b}\n"), w
        code, out = run(capsys, "--format", "json", "cprime", "--w", ws_text)
        assert (code, out) == (0, json.dumps({
            "n": b.n,
            "w": ws_text,
            "scaling": f"q^({w.length()}/2) * C'_w",
            "terms": [[perm_to_str(z), poly_json(c.value())]
                      for z, c in b.sorted_items()],
        }, sort_keys=True) + "\n"), w


def test_chi(capsys):
    code, out = run(capsys, "chi", "--lambda", "2", "--w", "21")
    assert code == 0 and out.strip() == "q"
    code, out = run(capsys, "chi", "--lambda", "1,1", "--w", "21")
    assert code == 0 and out.strip() == "-1"
    code, out = run(capsys, "chi", "--lambda", "3", "--w", "21")
    assert code == 2


def test_ch(capsys):
    code, out = run(capsys, "ch", "--w", "321", "--basis", "h")
    assert code == 0
    assert out.strip() == "(1 + 2*q + 2*q^2 + q^3)*h[3]"
    code, out = run(capsys, "--format", "json", "ch", "--w", "21")
    data = json.loads(out)
    f = SymmetricFunction("h", 2, {(2,): (1, 1)})
    assert data == f.convert(data["basis"]).to_json()


def test_csf(capsys):
    code, out = run(capsys, "csf", "--m", "2,2", "--basis", "e")
    assert code == 0 and out.strip() == "(1 + q)*e[2]"
    code, out = run(capsys, "--format", "latex", "csf", "--m", "2,2", "--basis", "e")
    assert code == 0 and "e_{2}" in out


def test_smooth_reduce(capsys):
    code, out = run(capsys, "smooth-reduce", "--w", "3142")
    assert code == 0 and out.strip() == "2341"
    code, _ = run(capsys, "smooth-reduce", "--w", "4231")
    assert code == 2


def test_moment_graph(capsys):
    code, out = run(capsys, "moment-graph", "--w", "3142")
    assert code == 0
    assert out.strip() == "(1,2) (2,3) (3,4)"
    code, out = run(capsys, "moment-graph", "--w", "4321")
    assert code == 0
    assert out.strip() == "(1,2) (1,3) (1,4) (2,3) (2,4) (3,4)"
    code, out = run(capsys, "moment-graph", "--w", "123")
    assert code == 0 and out.strip() == "(empty)"


def test_modular(capsys):
    code, out = run(capsys, "modular", "--w", "231", "--s", "1")
    assert code == 0
    assert "case: smooth" in out and "z = 213" in out
    code, _ = run(capsys, "modular", "--w", "231", "--s", "7")
    assert code == 2


def test_counterexample_small(capsys):
    code, out = run(capsys, "counterexample", "--m", "2,3,3")
    assert code == 0
    assert out.strip() == "FOUND m0=1,3,3 m2=3,3,3"
    code, out = run(capsys, "counterexample", "--m", "1,2,3")
    assert code == 0 and out.strip() == "NOT FOUND"
    # --expect flips the exit code on a mismatch
    code, _ = run(capsys, "counterexample", "--m", "1,2,3", "--expect", "found")
    assert code == 1
    code, _ = run(capsys, "counterexample", "--m", "2,3,3", "--expect", "found")
    assert code == 0
    code, _ = run(capsys, "counterexample", "--m", "2,3,3",
                  "--expect", "notfound")
    assert code == 1


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "--w", "4231")
    assert code == 0 and out.strip() == "C'[2431]: 1 + q"
    code, out = run(capsys, "--format", "json", "decompose", "--w", "3142")
    data = json.loads(out)
    assert data["known"] and data["terms"] == [["2341", {"0": 1}]]


def test_check(capsys):
    code, out = run(capsys, "check", "--name", "cor44", "--n", "3")
    assert code == 0 and "[PASS] cor44" in out
    code, out = run(capsys, "--format", "json", "check", "--name", "mn", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    code, _ = run(capsys, "check", "--name", "nope", "--n", "3")
    assert code == 2


def test_hessenberg(capsys):
    code, out = run(capsys, "hessenberg", "--n", "3")
    assert code == 0
    assert out.strip().splitlines() == ["1,2,3", "1,3,3", "2,2,3", "2,3,3",
                                        "3,3,3"]
    code, out = run(capsys, "--format", "json", "hessenberg", "--n", "4")
    data = json.loads(out)
    assert data["count"] == 14


def test_hessenberg_rank_capped(capsys):
    # at n = 13 the listing still fits in memory; larger n would not
    code = main(["--no-cache", "hessenberg", "--n", "13"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: --n") and out.err.count("\n") == 1


def test_default_search_makes_no_cache_dir(tmp_path, capsys, monkeypatch):
    # --cache-dir names a directory that no command makes
    cache_dir = tmp_path / "c"
    _fresh_memos(monkeypatch)
    assert main(["--cache-dir", str(cache_dir),
                 "counterexample", "--m", "2,3,3"]) == 0
    assert not cache_dir.exists()


def test_counterexample_rank_capped(capsys):
    # a general search at rank 11 would build the csf of 58 786 functions
    code = main(["--no-cache", "counterexample",
                 "--m", "2,3,4,5,6,7,8,9,10,11,11"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: --m") and out.err.count("\n") == 1


def test_csf_rank_capped(capsys):
    # above rank 12 csf --m is refused, as hessenberg --n is
    code = main(["--no-cache", "csf",
                 "--m", ",".join(map(str, range(1, 14)))])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: --m") and out.err.count("\n") == 1


W0_S11 = ",".join(map(str, range(11, 0, -1)))


@pytest.mark.parametrize("command", ["kl", "cprime", "ch"])
def test_whole_row_rank_capped(capsys, monkeypatch, command):
    # the row of w0 in S_11 has 39 916 800 entries; it is refused before
    # any row is built
    hecke = importlib.import_module("heckelab.hecke")
    monkeypatch.setattr(hecke, "_stores", {})
    for fmt in ("text", "json"):
        code = main(["--no-cache", "--format", fmt, command, "--w", W0_S11])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == f"error: {command} expands the whole row of --w, " \
                          "so its rank must be at most 10\n"
    assert hecke._stores == {}


def test_chi_rank_capped(capsys, monkeypatch):
    # chi at w0 of S_10 takes 5.8 s and 166 MB, about 7 times dearer per
    # rank; at S_11 it is refused before any character is computed
    def unexpected(w):
        raise AssertionError("a character was computed")

    monkeypatch.setattr(importlib.import_module("heckelab.characters"),
                        "_chi_all", unexpected)
    code = main(["--no-cache", "chi", "--lambda", "11", "--w", W0_S11])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: --w must have rank at most 10\n"


def test_single_kl_entry_above_the_whole_row_limit(capsys):
    assert run(capsys, "kl", "--w", "2,1,3,4,5,6,7,8,9,10,11", "--z", "e") \
        == (0, "1\n")


def test_single_kl_entry_rank_capped(capsys, monkeypatch):
    # one entry below w0 of S_13 would build every row of its recursion,
    # about 115 s and 664 MB; it is refused before any row is built
    hecke = importlib.import_module("heckelab.hecke")
    monkeypatch.setattr(hecke, "_stores", {})
    w0 = ",".join(map(str, range(13, 0, -1)))
    code = main(["--no-cache", "kl", "--w", w0, "--z", "e"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: --w must have rank at most 12\n"
    assert hecke._stores == {}


W0_S41 = ",".join(map(str, range(41, 0, -1)))


@pytest.mark.parametrize("argv", [
    ["smooth-reduce", "--w", W0_S41], ["moment-graph", "--w", W0_S41],
    ["modular", "--w", W0_S41, "--s", "1"], ["decompose", "--w", W0_S41]],
    ids=lambda argv: argv[0])
def test_perm_rank_capped(capsys, monkeypatch, argv):
    # above MAX_PERM_N --w is refused before it is scanned for 3412 and
    # 4231 or its moment graph is read
    def unexpected(w):
        raise AssertionError("--w was scanned")

    permutations = importlib.import_module("heckelab.permutations")
    monkeypatch.setattr(permutations, "_avoids_3412_4231", unexpected)
    monkeypatch.setattr(permutations, "_tops", unexpected)
    code = main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: --w must have rank at most 40\n"


def test_bad_inputs_exit_2(capsys):
    code, _ = run(capsys, "kl", "--w", "1123")
    assert code == 2
    code, _ = run(capsys, "csf", "--m", "2,1,3")
    assert code == 2
    code, _ = run(capsys, "kl", "--w", "321", "--z", "4321")
    assert code == 2


def test_modular_at_rank_one_exits_2(capsys):
    code = main(["--no-cache", "modular", "--w", "1", "--s", "1"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: --s: rank 1 has no simple reflection; give " \
                      "--w of rank 2 or more\n"


@pytest.mark.parametrize("argv", [
    ["kl", "--w", "e"], ["kl", "--w", "e", "--z", "e"], ["cprime", "--w", "e"],
    ["chi", "--lambda", "1", "--w", "e"], ["ch", "--w", "e"],
    ["smooth-reduce", "--w", "e"], ["moment-graph", "--w", "e"],
    ["modular", "--w", "e", "--s", "1"], ["decompose", "--w", " e"]],
    ids=" ".join)
def test_identity_as_w_exits_2(capsys, argv):
    # 'e' names no rank; --z e takes the rank of --w
    code = main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: --w cannot be 'e'; write the identity as " \
                      "12...n\n"


@pytest.mark.parametrize("m", [",,", "1,x", ""])
def test_csf_non_integer_m_exits_2(capsys, m):
    code = main(["--no-cache", "csf", "--m", m])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: not a Hessenberg function: {m!r}\n"


def test_determinism_and_cache(tmp_path, capsys):
    from heckelab.hecke import _stores
    cache_dir = str(tmp_path / "cache")
    outputs = []
    for _ in range(2):  # two runs from cold in-memory state
        _stores.pop(4, None)
        code = main(["--cache-dir", cache_dir, "--format", "json",
                     "kl", "--w", "3412", "--z", "e"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    _stores.pop(4, None)
    assert outputs[0] == outputs[1]


def test_stale_cache_version_ignored(tmp_path):
    from heckelab.cache import Cache
    cache = Cache(str(tmp_path))
    cache.store("csf", "csf-n2", {"n": 2, "entries": []})
    # corrupt the version marker: loader must ignore the file
    path = tmp_path / "csf-n2.json"
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    assert cache.load("csf", "csf-n2") is None


def test_decompose_max_n_beyond_table_exits_2(capsys):
    code = main(["--no-cache", "decompose", "--w", "1256734", "--max-n", "9"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --max-n") and err.count("\n") == 1


def test_check_all_above_every_bound_exits_2(capsys):
    # no check reaches n = 11: running none must not read as a pass
    code = main(["--no-cache", "check", "--name", "all", "--n", "11"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: n must be at most 10") and \
        out.err.count("\n") == 1


# a valid invocation of each command without a LaTeX form
WITHOUT_LATEX = [
    ["kl", "--w", "321"],
    ["cprime", "--w", "321"],
    ["smooth-reduce", "--w", "321"],
    ["moment-graph", "--w", "321"],
    ["modular", "--w", "231", "--s", "1"],
    ["decompose", "--w", "4231"],
    ["counterexample", "--m", "2,3,3"],
    ["check", "--name", "mn", "--n", "3"],
    ["hessenberg", "--n", "3"],
]


@pytest.mark.parametrize("argv", WITHOUT_LATEX, ids=" ".join)
def test_latex_refused_without_a_latex_form(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code = main(["--no-cache", "--format", "latex", *argv])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_decompose_max_n_below_one_rejected(capsys, max_n):
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", "decompose", "--w", "4231", "--max-n", max_n])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("w", ["26754381", "267543819",
                               "2,6,7,5,4,3,8,1,9,10"])
def test_modular_singular_pair_verified(capsys, w):
    # the paper's singular relation (1+q) ch(B_26754381) = ch(B_62754381),
    # and its lifts to S_9 and S_10 by fixed points, each computed
    code, out = run(capsys, "modular", "--w", w, "--s", "1")
    assert code == 0
    assert "case: singular" in out
    assert "verified: yes" in out
    code, out = run(capsys, "--format", "json", "modular", "--w", w,
                    "--s", "1")
    assert code == 0 and json.loads(out)["verified"] is True


def test_modular_above_the_row_limit_is_asserted(capsys, monkeypatch):
    # the lift to S_11 is past MAX_ROW_N: the dichotomy is still decided,
    # and the identity is asserted by theorem with no character computed
    hecke = importlib.import_module("heckelab.hecke")
    monkeypatch.setattr(hecke, "_stores", {})
    argv = ["modular", "--w", "2,6,7,5,4,3,8,1,9,10,11", "--s", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert "case: singular" in out
    assert "verified: asserted by theorem" in out
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0 and json.loads(out)["verified"] is None
    assert hecke._stores == {}


# the csf batch is built in one process: argparse refuses every other value
@pytest.mark.parametrize("threads", ["0", "-1", "x", "2", "100000"])
def test_threads_other_than_one_rejected(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", "--threads", threads, "hessenberg", "--n", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def _fresh_memos(monkeypatch):
    from heckelab import characters, csf
    monkeypatch.setattr(csf, "_batches", {})
    characters.frobenius_cprime.cache_clear()


# csf-n3.json as the disk cache once held it, and damaged ways to hold it
def _csf3_file() -> dict:
    from heckelab.csf import csf_batch
    return {"format": "heckelab/csf", "version": 1, "payload": {
        "n": 3, "entries": [
            {"m": ",".join(map(str, m)),
             "csf": {",".join(map(str, lam)): list(p)
                     for lam, p in sorted(coeffs.items(), reverse=True)}}
            for m, coeffs in csf_batch(3).items()]}}


CSF_DAMAGE = {
    "intact": lambda doc: doc,
    # well formed, with each function's csf filed under the next function
    "shifted-functions": lambda doc: {**doc, "payload": {
        "n": 3, "entries": [{**e, "m": f["m"]} for e, f in zip(
            doc["payload"]["entries"], doc["payload"]["entries"][1:]
            + doc["payload"]["entries"][:1])]}},
    "not-an-object": lambda doc: [1, 2],
    "no-entries": lambda doc: {**doc, "payload": {"n": 3}},
    "missing-function": lambda doc: {**doc, "payload": {
        "n": 3, "entries": doc["payload"]["entries"][1:]}},
    "non-list-poly": lambda doc: {**doc, "payload": {
        "n": 3, "entries": [{"m": e["m"], "csf": {lam: "x" for lam in e["csf"]}}
                            for e in doc["payload"]["entries"]]}},
    # the same polynomials, each list with a trailing 0
    "trailing-zero": lambda doc: {**doc, "payload": {
        "n": 3, "entries": [{"m": e["m"], "csf": {lam: p + [0] for lam, p in
                                                  e["csf"].items()}}
                            for e in doc["payload"]["entries"]]}},
    # nested past the recursion limit, which json.dumps cannot write: the
    # damage is then the file's text itself
    "nested-bare": lambda doc: "[" * 200000 + "]" * 200000,
    "nested-entries": lambda doc: json.dumps(
        {**doc, "payload": {"n": 3, "entries": "@"}}).replace(
        '"@"', "[" * 200000 + "]" * 200000),
}


@pytest.mark.parametrize("case", sorted(CSF_DAMAGE) + ["regular-file"])
def test_general_search_ignores_the_cache_dir(tmp_path, capsys, monkeypatch,
                                              case):
    # the csf batch is built in memory: no file in --cache-dir, and no
    # regular file named by it, changes the output or is written
    argv = ["counterexample", "--general", "--m", "2,3,3"]
    expected = run(capsys, *argv)
    if case == "regular-file":
        path = cache_dir = tmp_path / "f"
        path.write_text("")
    else:
        cache_dir, path = tmp_path, tmp_path / "csf-n3.json"
        damaged = CSF_DAMAGE[case](_csf3_file())
        path.write_text(damaged if isinstance(damaged, str)
                        else json.dumps(damaged))
    before = path.read_bytes()
    _fresh_memos(monkeypatch)
    code = main(["--cache-dir", str(cache_dir), *argv])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, expected[1], "")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# files of kinds the cache no longer holds (KL rows, character tables),
# with the command that would once have read each
LEFTOVER_FILES = {
    "klrow": ("klrow-n3-321", {"format": "heckelab/klrow", "version": 1,
                               "payload": {"n": 3}}, ["kl", "--w", "321"]),
    "chartable-not-an-object": ("chartable-n3", [1, 2], ["ch", "--w", "321"]),
    "chartable-no-values": ("chartable-n3", {
        "format": "heckelab/chartable", "version": 1, "payload": {"n": 3}},
        ["ch", "--w", "321"]),
}


@pytest.mark.parametrize("case", sorted(LEFTOVER_FILES))
def test_leftover_cache_files_are_ignored(tmp_path, capsys, monkeypatch,
                                          case):
    name, doc, argv = LEFTOVER_FILES[case]
    expected = run(capsys, *argv)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    before = path.read_bytes()
    _fresh_memos(monkeypatch)
    monkeypatch.setattr(importlib.import_module("heckelab.hecke"), "_stores",
                        {})
    code = main(["--cache-dir", str(tmp_path), *argv])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, expected[1], "")
    assert path.read_bytes() == before


def values(good, bad):
    """Well-formed values, and malformed ones in one draw of eight."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(good) if k else bad)


# option values; free text is kept short so that no rank exceeds 4
JUNK = st.text("01234x,", max_size=4)
PERMS = values(["1", "21", "321", "2143", "3142", "3412", "4231", "1,2", "e"],
               st.sampled_from(["3x1", "11", "", "2,,1", "0"]) | JUNK)
HESSENBERG = values(["1", "2,2", "1,2,3", "2,3,3", "3,3,3", "1,3,3,4",
                     "2,3,4,4", "4,4,4,4"],
                    st.sampled_from(["2,1,3", "3,3", "", "x"]) | JUNK)
PARTITIONS = values(["1", "2", "1,1", "2,1", "3", "1,1,1", "2,2", "3,1", "4"],
                    st.sampled_from(["1,2", "0", "-1,4", "", "x"]) | JUNK)
RANKS = values(["1", "2", "3", "4"], st.sampled_from(["-1", "0", "x"]))
BASES = values(["m", "e", "h", "p", "s"], st.just("x"))
FLAG = st.just(None)  # an option without a value

COMMANDS = {
    "kl": {"--w": PERMS, "--z": PERMS},
    "cprime": {"--w": PERMS},
    "chi": {"--lambda": PARTITIONS, "--w": PERMS},
    "ch": {"--w": PERMS, "--basis": BASES},
    "csf": {"--m": HESSENBERG, "--basis": BASES},
    "smooth-reduce": {"--w": PERMS},
    "moment-graph": {"--w": PERMS},
    "modular": {"--w": PERMS, "--s": RANKS},
    "counterexample": {"--m": HESSENBERG, "--general": FLAG,
                       "--expect": values(["found", "notfound"], st.just("x"))},
    "decompose": {"--w": PERMS, "--max-n": RANKS,
                  "--expect": values(["found"], st.just("x"))},
    "check": {"--name": values(sorted(CHECKS) + ["all"], st.just("x")),
              "--n": RANKS},
    "hessenberg": {"--n": RANKS},
}


@st.composite
def argvs(draw, name):
    fmt = draw(values(["text", "json", "latex"], st.just("x")))
    argv = ["--no-cache", "--format", fmt, name]
    for option, drawn in COMMANDS[name].items():
        if draw(st.integers(0, 7)):  # one option in eight is left out
            value = draw(drawn)
            argv += [option] if value is None else [option, value]
    return argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(data=st.data())
def test_exit_codes_and_no_tracebacks(name, data):
    argv = data.draw(argvs(name))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
