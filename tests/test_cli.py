import hashlib
import time

import pytest

from degswap import chain
from degswap.cli import main

DS_OK = "2 2 2\n3 2 1\n"
DS_BAD = "2 2\n1 1\n"
M1 = "2 2\n10\n01\n"
M2 = "2 2\n01\n10\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def circulant(offsets, n=16):
    """The n x n circulant with a 1 where (v - u) mod n is in ``offsets``."""
    return f"{n} {n}\n" + "".join("".join("1" if (v - u) % n in offsets else "0"
                                          for v in range(n)) + "\n" for u in range(n))


def test_check_graphical(tmp_path, capsys):
    assert main(["check", write(tmp_path, "d.txt", DS_OK)]) == 0
    assert capsys.readouterr().out.strip() == "graphical"


def test_check_not_graphical(tmp_path, capsys):
    assert main(["check", write(tmp_path, "d.txt", DS_BAD)]) == 1
    assert capsys.readouterr().out.startswith("not graphical:")


def test_realize(tmp_path, capsys):
    assert main(["realize", write(tmp_path, "d.txt", DS_OK)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3 3"


def test_sample_deterministic(tmp_path, capsys):
    ds = write(tmp_path, "d.txt", DS_OK)
    assert main(["sample", "--ds", ds, "--steps", "50", "--seed", "9", "--count", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--ds", ds, "--steps", "50", "--seed", "9", "--count", "3"]) == 0
    assert capsys.readouterr().out == first


def test_sample_stats(tmp_path, capsys):
    ds = write(tmp_path, "d.txt", DS_OK)
    assert main(["sample", "--ds", ds, "--steps", "100", "--seed", "1",
                 "--count", "30", "--stats"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state,count"
    assert sum(int(ln.split(",")[1]) for ln in lines[1:]) == 30


def test_transform(tmp_path, capsys):
    g1, g2 = write(tmp_path, "a.txt", M1), write(tmp_path, "b.txt", M2)
    assert main(["transform", g1, g2]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1 2 1 2"]


@pytest.mark.parametrize("text", ["0 3\n", "2 0\n\n\n"])
def test_transform_empty_shapes(tmp_path, capsys, text):
    # no row or column to eliminate: no swap, nothing printed
    x = write(tmp_path, "x.txt", text)
    assert main(["transform", x, x]) == 0
    assert capsys.readouterr() == ("", "")


def test_decompose(tmp_path, capsys):
    g1, g2 = write(tmp_path, "a.txt", M1), write(tmp_path, "b.txt", M2)
    assert main(["decompose", g1, g2, "--all"]) == 0
    out = capsys.readouterr().out
    assert "circuit 0:" in out and "cycle 0:" in out


def test_decompose_all_prints_as_it_enumerates(tmp_path, capsys, monkeypatch):
    # X and Y = chain.sample(16 x 16 4-regular, 1000 steps, seeds 20259 and
    # 20272) have about 4.1e26 pairings: each is printed when it is drawn,
    # so the first is on stdout before the second is asked for
    from degswap import BipartiteDegreeSequence, chain, cli

    ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
    X, Y = chain.sample(ds, 1000, 20259), chain.sample(ds, 1000, 20272)
    real = cli._partners

    def first_only(incid, m):
        yield next(real(incid, m))
        raise RuntimeError("asked for a second pairing")

    monkeypatch.setattr(cli, "_partners", first_only)
    argv = ["decompose", write(tmp_path, "x.txt", X.to_text()),
            write(tmp_path, "y.txt", Y.to_text()), "--all"]
    with pytest.raises(RuntimeError, match="a second pairing"):
        main(argv)
    out = capsys.readouterr().out
    assert out.startswith("pairing 0\n  circuit 0: ") and "pairing 1" not in out


def test_canonical_path_certify(tmp_path, capsys):
    g1, g2 = write(tmp_path, "a.txt", M1), write(tmp_path, "b.txt", M2)
    assert main(["canonical-path", g1, g2, "--pairing-index", "0", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "step,swap,switch_distance" in out
    assert out.count("2 2") >= 1


def test_canonical_path_pairing_index_bounds(tmp_path, capsys, monkeypatch):
    # an index outside [0, count) is refused before any pairing is
    # enumerated: these 16 x 16 4-regular circulants share no edge, so they
    # have 24**32 pairings and a walk over them would never return
    from degswap import cli

    x, y = circulant(range(4)), circulant(range(4, 8))
    advanced = []

    def recording(*args):
        advanced.append(args)
        yield from ()

    monkeypatch.setattr(cli, "_partners", recording)
    for index in (-1, 24 ** 32):
        argv = ["canonical-path", write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y),
                "--pairing-index", str(index)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error[DegSwapError]: pairing index {index} "
                                           f"out of range\n")
    assert advanced == []


def test_canonical_path_last_pairing_index(tmp_path, capsys):
    # the last index in range selects the last pairing of all_pairings
    from degswap import BipartiteGraph
    from degswap.canonical import canonical_path
    from degswap.pairings import all_pairings

    x, y = "4 4\n0011\n1010\n1100\n1100\n", "4 4\n1100\n1100\n1010\n0011\n"
    X, Y = BipartiteGraph.from_text(x), BipartiteGraph.from_text(y)
    pairings = list(all_pairings(X, Y))
    argv = ["canonical-path", write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y),
            "--pairing-index", str(len(pairings) - 1)]
    assert main(argv) == 0
    expected = "\n".join(g.to_text() for g in canonical_path(X, Y, pairings[-1]))
    assert capsys.readouterr().out == expected


def test_canonical_path_far_pairing_index(tmp_path, capsys):
    # an index is unranked, not walked to: 2**63, past what islice takes,
    # and the last of the circulants' 24**32 pairings run at once
    x, y = circulant(range(4)), circulant(range(4, 8))
    for index in (2 ** 63, 24 ** 32 - 1):
        argv = ["canonical-path", write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y),
                "--pairing-index", str(index)]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert out.startswith(x) and out.endswith(y)


# Digests (sha256, first 16 hex digits) of `canonical-path X Y --certify`
# stdout, recorded while the command still computed its certificates itself
# instead of taking them from `canonical_path(certify=True)`.
CANONICAL_PATH_GOLDEN = {
    # name: (X, Y, --pairing-index 0 digest, --seed 5 digest)
    "4x4 2-regular": ("4 4\n0011\n0011\n1100\n1100\n", "4 4\n1100\n1100\n0011\n0011\n",
                      "bf52f2ea6e3ada6d", "23e9d5f61ce81acc"),
    "V-regular, certificate 3": ("4 4\n1011\n0101\n0110\n1000\n",
                                 "4 4\n1101\n0110\n1010\n0001\n",
                                 "a0e4b620635252b1", "a0e4b620635252b1"),
    "U-regular": ("4 4\n0011\n1010\n1100\n1100\n", "4 4\n1100\n1100\n1010\n0011\n",
                  "8265415e0d0f4865", "927580ac37bffaa2"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_PATH_GOLDEN))
@pytest.mark.parametrize("by_index", [False, True])
def test_canonical_path_certify_golden(tmp_path, capsys, name, by_index):
    x, y, indexed, seeded = CANONICAL_PATH_GOLDEN[name]
    argv = ["canonical-path", write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y),
            "--certify"]
    argv += ["--pairing-index", "0"] if by_index else ["--seed", "5"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == (indexed if by_index else seeded)


# Digests (sha256, first 16 hex digits) of `canonical-path X Y --certify
# --seed 5` and of `transform X Y` on the pinned 16 x 16 pairs of
# ``oracles.PINNED_16``, recorded before the cycle solver ran on keys and
# Ryser on row lists, and the blocked branch each pair takes.
CANONICAL_PATH_GOLDEN_16 = {
    # name: (path digest, transform digest, blocked branch)
    "drawn 100/101": ("842ba95ebb41222f", "af22d2e081627378", None),
    "drawn 102/103": ("99d5c9d48e21cfa2", "69eead56e86ad24e", None),
    "blocked, first possibility": ("c788b2399960d659", "fcd9f909528e4eba",
                                   "_first_possibility"),
    "blocked, second possibility": ("cb1dff092a6492b4", "a627279cc6834dbe",
                                    "_second_possibility"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_PATH_GOLDEN_16))
def test_canonical_path_and_transform_golden_16x16(tmp_path, capsys, monkeypatch, name):
    from degswap import canonical
    from oracles import pinned_pair

    path_digest, transform_digest, branch = CANONICAL_PATH_GOLDEN_16[name]
    X, Y = pinned_pair(name)
    x, y = write(tmp_path, "x.txt", X.to_text()), write(tmp_path, "y.txt", Y.to_text())
    taken = set()

    def recording(branch):
        real = getattr(canonical, branch)

        def wrapper(*args):
            taken.add(branch)
            return real(*args)
        return wrapper

    for b in ("_first_possibility", "_second_possibility"):
        monkeypatch.setattr(canonical, b, recording(b))
    digests = []
    for argv in (["canonical-path", x, y, "--certify", "--seed", "5"], ["transform", x, y]):
        assert main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert digests == [path_digest, transform_digest]
    assert taken == ({branch} if branch else set())


def test_certified_16x16_path_through_the_search(tmp_path, capsys, monkeypatch):
    # X = chain.sample(16 x 16 4-regular, 1000 steps, seed 20259), Y likewise
    # with seed 20272, through random_pairing seed 14: a 36-state path whose
    # one hat at distance 2 is left by canonical._switch_distances to its
    # search, canonical._search; CI pins the same output's sha256
    from degswap import BipartiteDegreeSequence, canonical, chain

    ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
    X, Y = chain.sample(ds, 1000, 20259), chain.sample(ds, 1000, 20272)
    real, searched = canonical._search, []

    def searching(*args):
        searched.append(args)
        return real(*args)

    monkeypatch.setattr(canonical, "_search", searching)
    argv = ["canonical-path", write(tmp_path, "x.txt", X.to_text()),
            write(tmp_path, "y.txt", Y.to_text()), "--certify", "--seed", "14"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "83e445390e75dfde"
    certs = [int(row.rsplit(",", 1)[1]) for row in out.split("---\n")[1].splitlines()[1:]]
    assert certs == [0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0,
                     0, 1, 1, 1, 0, 1, 1, 2, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0]
    assert len(searched) == 1 and real(*searched[0]) == 2


# The 7 x 7 5-regular circulants whose row a holds the columns a + s mod 7
# for s in {0, 2, 3, 4, 6} (X) and s in {1, 2, 3, 4, 6} (Y).  X xor Y is one
# 14-cycle, so every pairing seed selects the same path.  X -> Y reaches a
# blocked frame with no cut pattern; Y -> X solves, its certificates
# climbing to 3.  Both recorded while frames and bridges still read a cycle
# with two walkers; CI pins the reverse output's sha256.
CIRCULANT_7 = (circulant({0, 2, 3, 4, 6}, 7), circulant({1, 2, 3, 4, 6}, 7))


def test_canonical_path_7x7_circulant_without_a_cut_pattern(tmp_path, capsys):
    x, y = (write(tmp_path, name, text) for name, text in zip("xy", CIRCULANT_7))
    assert main(["canonical-path", x, y, "--certify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error[SpecViolation]: no feasible cut pattern on this block\n"


def test_canonical_path_7x7_circulant_reversed(tmp_path, capsys):
    x, y = (write(tmp_path, name, text) for name, text in zip("xy", CIRCULANT_7))
    assert main(["canonical-path", y, x, "--certify"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "e9aa105dfb50f1c2d6d1163a192a56cb64fb36b84ca9edd459c5473d48a18658")
    certs = [int(row.rsplit(",", 1)[1]) for row in out.split("---\n")[1].splitlines()[1:]]
    assert certs == [0, 1, 2, 3, 2, 1, 0]


def certified_output(tmp_path, capsys, X, Y, argv=("--seed", "5")):
    """`canonical-path X Y --certify` run on graphs: the states it prints,
    and its swap and certificate columns."""
    from degswap import BipartiteGraph

    assert main(["canonical-path", write(tmp_path, "x.txt", X.to_text()),
                 write(tmp_path, "y.txt", Y.to_text()), "--certify", *argv]) == 0
    text, table = capsys.readouterr().out.split("---\n")
    states = [BipartiteGraph.from_text(t) for t in text.split("\n\n")]
    rows = [line.split(",") for line in table.splitlines()[1:]]
    assert [int(step) for step, _, _ in rows] == list(range(len(states)))
    return states, [swap for _, swap, _ in rows], [int(sd) for _, _, sd in rows]


def swap_lines(states) -> list:
    """The swap column for a path's states, each swap read by the oracle."""
    from degswap.cli import _swap_line
    from oracles import recover_swap

    swaps = [recover_swap(a, b) for a, b in zip(states, states[1:])]
    return [""] + [_swap_line(s.u1, s.u2, s.v1, s.v2) for s in swaps]


def test_certified_swap_lines_match_the_oracle(tmp_path, capsys):
    # drawn 16 x 16 pairs, the pinned ones (two through a blocked branch),
    # and every pair into one state of the 48-state V-regular space through
    # its first pairing
    from degswap import BipartiteDegreeSequence, chain
    from degswap.mixing import enumerate_states
    from oracles import PINNED_16, pinned_pair

    ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
    pairs = [(chain.sample(ds, 1000, 500 + 2 * p), chain.sample(ds, 1000, 501 + 2 * p))
             for p in range(6)]
    pairs += [pinned_pair(name) for name in sorted(PINNED_16)]
    space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 1), (2, 2, 2, 2)))
    pairs += [(space.graph(x), space.graph(30)) for x in range(space.n)]
    steps = 0
    for X, Y in pairs:
        for argv in (("--seed", "5"), ("--pairing-index", "0")):
            states, swaps, _ = certified_output(tmp_path, capsys, X, Y, argv)
            assert states[0] == X and states[-1] == Y
            assert swaps == swap_lines(states)
            steps += len(swaps) - 1
    assert steps > 500


@pytest.mark.parametrize("command", ["canonical-path", "decompose", "transform"])
def test_pair_commands_check_shape_then_margins(tmp_path, capsys, command):
    # one pair check, core._check_margins, behind every pair command
    x2 = write(tmp_path, "x2.txt", "2 2\n10\n01\n")
    x3 = write(tmp_path, "x3.txt", "3 3\n100\n010\n001\n")
    y2 = write(tmp_path, "y2.txt", "2 2\n11\n00\n")
    assert main([command, x2, x3]) == 1
    assert capsys.readouterr() == ("", "error[ShapeMismatch]: 2x2 vs 3x3\n")
    assert main([command, x2, y2]) == 1
    assert capsys.readouterr() == (
        "", "error[DegreeMismatch]: graphs do not share their degree vectors\n")


@pytest.mark.parametrize("certify", [False, True])
def test_inverted_memo_swap_refused(tmp_path, capsys, monkeypatch, certify):
    # the printed swaps are the ones the walk applied: a pattern memo that
    # hands the walk a swap with its orientation inverted is refused where
    # the walk applies it, before anything is printed
    from degswap import canonical

    real = canonical._pattern_swaps

    def inverted(*args):
        rows, cols, swaps = real(*args)
        return rows, cols, tuple((u1, u2, v1, v2, 3 - ori) for u1, u2, v1, v2, ori in swaps)

    monkeypatch.setattr(canonical, "_pattern_swaps", inverted)
    x = write(tmp_path, "x.txt", "3 3\n110\n011\n101\n")
    y = write(tmp_path, "y.txt", "3 3\n101\n110\n011\n")
    argv = ["canonical-path", x, y] + (["--certify"] if certify else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[SwapNotAllowed]: ")


@pytest.mark.parametrize("text", ["0 3\n", "2 0\n\n\n"])
def test_canonical_path_empty_shapes(tmp_path, capsys, text):
    # an empty matrix has no switch distance, so only --certify fails
    x = write(tmp_path, "x.txt", text)
    assert main(["canonical-path", x, x]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["canonical-path", x, x, "--certify"]) == 1
    assert capsys.readouterr() == ("", "error[MarginMismatch]: margins admit no 0-1 matrix\n")


def test_canonical_path_one_by_one(tmp_path, capsys):
    x = write(tmp_path, "x.txt", "1 1\n1\n")
    assert main(["canonical-path", x, x, "--certify"]) == 0
    assert capsys.readouterr().out == "1 1\n1\n---\nstep,swap,switch_distance\n0,,0\n"


@pytest.mark.parametrize("text, message", [
    ("2 2\n10\n1\n", "bad matrix row '1'"),                   # a short row
    ("2 2\n10\n21\n", "bad matrix row '21'"),                 # a 2 cell
    ("2 2\n10\n", "expected 2 matrix rows, found 1"),          # a missing row
    ("-1 2\n10\n01\n", "bad graph header '-1 2': expected two non-negative integers k l"),
    ("2 2 2\n10\n01\n", "bad graph header '2 2 2': expected two non-negative integers k l"),
])
@pytest.mark.parametrize("command", ["transform", "canonical-path"])
def test_bad_graph_text(tmp_path, capsys, text, message, command):
    bad, good = write(tmp_path, "bad.txt", text), write(tmp_path, "good.txt", M1)
    assert main([command, bad, good]) == 1
    assert capsys.readouterr() == ("", f"error[ValueError]: {message}\n")


# Digests (sha256, first 16 hex digits) of `decompose X Y` stdout, recorded
# while the command still traced circuits on the pairing's dicts instead of
# running the integer kernel, on the pairs above and the figure-eight (two
# 4-cycles sharing U-vertex 0).  The 8 x 8 4-regular pair, X =
# chain.sample(8 x 8 4-regular, 300 steps, seed 31) and Y likewise with seed
# 1031, has 4,608 pairings; recorded while the command still built a
# Pairing for each and read it back.
X8 = ("8 8\n00101011\n01010101\n10101100\n10011010\n11000110\n01010101\n10101001\n"
      "01110010\n")
Y8 = ("8 8\n11000011\n10001110\n10101100\n00011110\n11101000\n00110101\n01010011\n"
      "01110001\n")
DECOMPOSE_GOLDEN = {
    # name: (X, Y, --all digest, --seed 5 digest)
    "4x4 2-regular": ("4 4\n0011\n0011\n1100\n1100\n", "4 4\n1100\n1100\n0011\n0011\n",
                      "62f57de22b349b3d", "ce204682afade34a"),
    "V-regular, certificate 3": ("4 4\n1011\n0101\n0110\n1000\n",
                                 "4 4\n1101\n0110\n1010\n0001\n",
                                 "c94f2d4538ffcee3", "c94f2d4538ffcee3"),
    "U-regular": ("4 4\n0011\n1010\n1100\n1100\n", "4 4\n1100\n1100\n1010\n0011\n",
                  "7f78430cea7c282f", "2b7a1b8117f9d02c"),
    "figure-eight": ("3 4\n1010\n0100\n0001\n", "3 4\n0101\n1000\n0010\n",
                     "bfad4849bbf76737", "7450b57cb394d145"),
    "8x8 4-regular": (X8, Y8, "a646a11fcd3b815f", "93093b783fc2da58"),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GOLDEN))
@pytest.mark.parametrize("every", [False, True])
def test_decompose_golden(tmp_path, capsys, name, every):
    x, y, all_digest, seeded = DECOMPOSE_GOLDEN[name]
    argv = ["decompose", write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y)]
    argv += ["--all"] if every else ["--seed", "5"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == (all_digest if every else seeded)


def test_pair_commands_build_no_pairing(tmp_path, capsys, monkeypatch):
    # a Pairing exists only at the public boundary: with it refused, both
    # pair commands still print their pinned output
    from degswap import pairings

    def refused(*args):
        raise AssertionError("a Pairing was built")

    monkeypatch.setattr(pairings, "Pairing", refused)
    for golden, name, argv, digest in [
            (DECOMPOSE_GOLDEN, "8x8 4-regular", ["decompose", "--all"], 2),
            (DECOMPOSE_GOLDEN, "8x8 4-regular", ["decompose", "--seed", "5"], 3),
            (CANONICAL_PATH_GOLDEN, "U-regular",
             ["canonical-path", "--certify", "--seed", "5"], 3)]:
        x, y = golden[name][:2]
        argv[1:1] = [write(tmp_path, "x.txt", x), write(tmp_path, "y.txt", y)]
        assert main(argv) == 0
        assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
                == golden[name][digest])


@pytest.mark.parametrize("flags", [["--all"], ["--seed", "5"]])
def test_decompose_numbers_the_pair_once(tmp_path, capsys, monkeypatch, flags):
    # X xor Y is numbered once per command, and one shape memo serves the
    # whole command: _cut runs at most once per distinct circuit shape
    from degswap import pairings

    numbered, cut = [], []
    real_number, real_cut = pairings._number, pairings._cut

    def number(*args):
        numbered.append(args)
        return real_number(*args)

    def cutting(*shape):
        cut.append(shape)
        return real_cut(*shape)

    monkeypatch.setattr(pairings, "_number", number)
    monkeypatch.setattr(pairings, "_cut", cutting)
    assert main(["decompose", write(tmp_path, "x.txt", X8), write(tmp_path, "y.txt", Y8),
                 *flags]) == 0
    assert capsys.readouterr().out.startswith("pairing 0\n")
    assert len(numbered) == 1
    assert cut and len(cut) == len(set(cut))


@pytest.mark.parametrize("command, flags", [
    ("decompose", ["--all", "--seed", "5"]),
    ("canonical-path", ["--seed", "5", "--pairing-index", "0"]),
])
def test_conflicting_pairing_flags_are_a_usage_error(tmp_path, capsys, command, flags):
    # --seed draws a pairing, so --all and --pairing-index exclude it
    argv = [command, write(tmp_path, "x.txt", M1), write(tmp_path, "y.txt", M2), *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_parser_built_once():
    from degswap.cli import build_parser

    assert build_parser() is build_parser()


def test_mix_report(tmp_path, capsys):
    ds = write(tmp_path, "d.txt", DS_OK)
    assert main(["mix-report", "--ds", ds]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n,lambda2,tau_rel")
    assert lines[1].split(",")[0] == "3"


@pytest.mark.parametrize("ds_text, row", [
    ("2 2 2\n3 2 1\n", "3,0.666666666667,3,9,6,1-2,0"),
    ("2 2 2\n2 2 2\n", "6,0.666666666667,3,9,15,4-5,1"),
    ("1 1\n1 1\n", "2,-1,0.5,none(NonMixing),1,0-1,0"),
])
def test_mix_report_rows(tmp_path, capsys, ds_text, row):
    assert main(["mix-report", "--ds", write(tmp_path, "d.txt", ds_text)]) == 0
    assert capsys.readouterr().out == (
        "n,lambda2,tau_rel,tv_mixing_time,kappa,max_edge,max_switch_distance\n"
        + row + "\n")


@pytest.mark.parametrize("eps", ["0", "-1", "1e-12", "inf", "nan"])
def test_mix_report_bad_eps(tmp_path, capsys, eps):
    # the flip chain never mixes, so a missing check could not scan on forever
    assert main(["mix-report", "--ds", write(tmp_path, "d.txt", "1 1\n1 1\n"), "--eps", eps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[ValueError]: eps must be finite") and err.count("\n") == 1


def test_mix_report_too_large(tmp_path, capsys):
    side = " ".join(["50"] * 100)
    assert main(["mix-report", "--ds", write(tmp_path, "d.txt", f"{side}\n{side}\n")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[TooLarge]:")


def test_domain_error_exit_code(tmp_path, capsys):
    assert main(["realize", write(tmp_path, "d.txt", DS_BAD)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NotGraphical]:")


@pytest.mark.parametrize("text, token", [("1_1 1\n" + "1 " * 11 + "\n", "1_1"),
                                         ("+2 \u0662\n2 2\n", "+2")])
def test_check_refuses_a_degree_that_is_not_ascii_digits(tmp_path, capsys, text, token):
    # int() read "1_1" as 11, and check reported "sum(a)=12 vs sum(b)=11"
    assert main(["check", write(tmp_path, "d.txt", text)]) == 1
    assert capsys.readouterr() == ("", f"error[ValueError]: not an integer: {token!r}\n")


@pytest.mark.parametrize("command, text, message", [
    ("check", "2\u00a02\n2 2\n", "not an integer: '2\\xa02'"),
    ("realize", "2 2\n2\u30002\n", "not an integer: '2\\u30002'"),
    ("transform", "2 2\n10 \n\u300001\n", "bad matrix row '\\u300001'"),
])
def test_non_ascii_blank_is_a_value_error(tmp_path, capsys, command, text, message):
    # a no-break or ideographic space once read as a separator: the 2 x 2
    # identity or (2, 2) | (2, 2); exit 1 with the character named
    args = [write(tmp_path, "a.txt", text)]
    if command == "transform":
        args.append(write(tmp_path, "b.txt", M1))
    assert main([command, *args]) == 1
    assert capsys.readouterr() == ("", f"error[ValueError]: {message}\n")


@pytest.mark.parametrize("command, text, message", [
    ("check", "2 2\r2 2\n", "not an integer: '2\\r2'"),
    ("transform", "2 2\n10\r01\n", "bad matrix row '10\\r01'"),
])
def test_lone_carriage_return_is_a_value_error(tmp_path, capsys, command, text, message):
    # files were opened with universal newlines, so a lone "\r" ended a
    # line: check printed "graphical" and transform exited 0
    args = [write(tmp_path, "a.txt", text)]
    if command == "transform":
        args.append(args[0])
    assert main([command, *args]) == 1
    assert capsys.readouterr() == ("", f"error[ValueError]: {message}\n")


def test_crlf_files_are_read(tmp_path, capsys):
    crlf = [write(tmp_path, name, text.replace("\n", "\r\n"))
            for name, text in (("d.txt", "2 2\n2 2\n"), ("x.txt", M1), ("y.txt", M2))]
    assert main(["check", crlf[0]]) == 0
    assert main(["transform", *crlf[1:]]) == 0
    assert main(["transform", write(tmp_path, "x2.txt", M1), write(tmp_path, "y2.txt", M2)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["graphical", "1 2 1 2", "1 2 1 2"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("check", "realize", "sample", "transform", "decompose",
                "canonical-path", "mix-report"):
        assert sub in out


# Digests (sha256, first 16 hex digits) of `sample --steps 57 --seed 11` stdout,
# recorded before the batched walk replaced the one-draw-per-step loop; the
# walk must reproduce the old trajectories exactly.
SAMPLE_GOLDEN = {
    # name: (degree sequence, --count 4 digest, --count 40 --stats digest)
    "3x3": ("2 2 2\n3 2 1\n", "0cf44c96a0528d56", "d3c1f2a6c89f7391"),
    "4x5": ("3 2 2 1\n2 2 2 1 1\n", "ede13fec39f90fa2", "5669ca73808badb9"),
    "2x2 one swap": ("1 1\n1 1\n", "1cd01ee7eb0aa377", "85125b76784d1f53"),
    "1x3 no swap": ("2\n1 1 0\n", "288098f19ec0a29e", "4deba5d62870dd54"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_GOLDEN))
@pytest.mark.parametrize("stats", [False, True])
def test_sample_golden_output(tmp_path, capsys, name, stats):
    ds_text, plain, with_stats = SAMPLE_GOLDEN[name]
    argv = ["sample", "--ds", write(tmp_path, "d.txt", ds_text), "--steps", "57",
            "--seed", "11", "--count", "40" if stats else "4"]
    if stats:
        argv.append("--stats")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
    assert digest == (with_stats if stats else plain)


# Digests (sha256, first 16 hex digits) of `sample --steps 57 --seed 11
# --count 200` stdout, recorded while every chain was walked on its own; at a
# group bound of 240 the 200 chains are walked in seven groups, six of 33 in
# lockstep and one of 2 in the scalar loop.
SAMPLE_GROUP_GOLDEN = {
    # name: (degree sequence, plain digest, --stats digest)
    "3x3": ("2 2 2\n3 2 1\n", "8f04542f27e11af9", "8322499f100e3ef5"),
    "4x5": ("3 2 2 1\n2 2 2 1 1\n", "593dcc2eb7725918", "2242c8fe17acaf8c"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_GROUP_GOLDEN))
@pytest.mark.parametrize("stats", [False, True])
def test_sample_golden_across_groups(monkeypatch, tmp_path, capsys, name, stats):
    ds_text, plain, with_stats = SAMPLE_GROUP_GOLDEN[name]
    monkeypatch.setattr(chain, "_GROUP", 240)
    k, l = (len(side.split()) for side in ds_text.splitlines())
    size = chain._group_size(57, k * l)
    assert -(-200 // size) >= 3 and 200 % size < chain._LOCKSTEP <= size
    argv = ["sample", "--ds", write(tmp_path, "d.txt", ds_text), "--steps", "57",
            "--seed", "11", "--count", "200"]
    if stats:
        argv.append("--stats")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
    assert digest == (with_stats if stats else plain)


# Digests (sha256) of `sample --steps 70000` stdout, recorded while a single
# chain drew in blocks of 65,536 steps: each chain is walked alone, across
# passes of _GROUP = 4,096 draws.
SAMPLE_LONG_GOLDEN = {
    # name: (degree sequence, seed, count, digest)
    "3x3": ("2 2 2\n3 2 1\n", "11", "3",
            "a96c0d5bfbe8f8cf5c2de35064a2f0c3a2b6115eaeb5cbb3204ed34a753946a9"),
    "16x16": ("4 " * 16 + "\n" + "4 " * 16 + "\n", "5", "2",
              "4500255d0c58c6afa973545804deccac32f60e825688ed7e047a78bb668c1cdc"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_LONG_GOLDEN))
def test_sample_golden_for_long_single_chains(tmp_path, capsys, name):
    ds_text, seed, count, digest = SAMPLE_LONG_GOLDEN[name]
    k, l = (len(side.split()) for side in ds_text.splitlines())
    # each chain is walked alone, in more than one pass
    assert chain._group_size(70_000, k * l) == 1 and chain._GROUP < 70_000
    argv = ["sample", "--ds", write(tmp_path, "d.txt", ds_text), "--steps", "70000",
            "--seed", seed, "--count", count]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("extra, code, out, err", [
    # --count 0 never realizes, so neither graphicality nor the step count is checked
    (["--count", "0"], 0, "", ""),
    (["--count", "0", "--stats"], 0, "state,count\n", ""),
    (["--count", "0", "--steps", "-1"], 0, "", ""),
    # a negative step count is reported before graphicality
    (["--steps", "-1"], 1, "", "error[ValueError]: steps must be non-negative\n"),
    (["--steps", "-1", "--stats"], 1, "", "error[ValueError]: steps must be non-negative\n"),
    ([], 1, "", "error[NotGraphical]: degree sums differ: sum(a)=4 vs sum(b)=2\n"),
    # a negative count is reported as a negative step count is, and first
    (["--count", "-2", "--steps", "-5"], 1, "", "error[ValueError]: count must be non-negative\n"),
    (["--count", "-1"], 1, "", "error[ValueError]: count must be non-negative\n"),
    (["--count", "-1", "--stats"], 1, "", "error[ValueError]: count must be non-negative\n"),
])
def test_sample_exit_behaviour(tmp_path, capsys, extra, code, out, err):
    assert main(["sample", "--ds", write(tmp_path, "d.txt", DS_BAD)] + extra) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize("count", ["5", "500"])
@pytest.mark.parametrize("stats", [False, True])
def test_sample_negative_seed(tmp_path, capsys, count, stats):
    # numpy rejects the first chain's seed; nothing is printed, in either mode
    argv = ["sample", "--ds", write(tmp_path, "d.txt", DS_OK), "--seed", "-3", "--count", count]
    assert main(argv + (["--stats"] if stats else [])) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error[ValueError]: expected non-negative integer\n")


@pytest.mark.parametrize("stats", [False, True])
@pytest.mark.parametrize("ds, steps", [(DS_OK, "0"), ("2\n1 1\n", "0"), ("2\n1 1\n", "50")],
                         ids=["3x3, 0 steps", "1x2, 0 steps", "1x2, denom 0"])
def test_sample_negative_seed_draws_nothing_first(tmp_path, capsys, ds, steps, stats):
    # the seed is refused as numpy refuses it even when no step is drawn:
    # at --steps 0, and on a 1 x 2 sequence, which has no swap to draw
    argv = ["sample", "--ds", write(tmp_path, "d.txt", ds), "--seed", "-3", "--count", "5",
            "--steps", steps]
    assert main(argv + (["--stats"] if stats else [])) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error[ValueError]: expected non-negative integer\n")


def test_sample_negative_steps_on_graphical_sequence(tmp_path, capsys):
    assert main(["sample", "--ds", write(tmp_path, "d.txt", DS_OK), "--steps", "-1"]) == 1
    assert capsys.readouterr().err == "error[ValueError]: steps must be non-negative\n"
