"""SHA-256 digests of `cubedist` outputs, pinned so that no change to the
package can alter an exact answer unnoticed.

Each case runs the CLI in-process and hashes its stdout. A case over many
inputs hashes their outputs one after another, in the order listed. When
a digest changes, the output changed: compare the two versions' outputs
directly to find which input moved.
"""

import hashlib
from itertools import combinations

import pytest

from cubedist import cli, trees


def _pattern(bits, n):
    """Coordinate k of the point is bit k of its pattern."""
    return "".join(str((bits >> k) & 1) for k in range(n))


def _run(capsys, argv):
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    return out.encode()


def _digest(chunks):
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()


def test_report_every_normalized_h3_subset(capsys, tmp_path):
    def outputs():
        path = tmp_path / "set.txt"
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                rows = [_pattern(b, 3) for b in (0, *tail)]
                path.write_text(f"3 {len(rows)}\n" + "\n".join(rows) + "\n")
                yield _run(capsys, ["report", str(path)])

    assert _digest(outputs()) == "1a402a8ecf56622b56fcd9c3cd99e24ecce3697cd8cb1d23add6cfe7c4e09e60"


def test_tree_every_labeled_tree_on_3_to_5_vertices(capsys, tmp_path):
    def outputs():
        path = tmp_path / "tree.txt"
        for k in range(3, 6):
            for t in trees.enumerate_labeled_trees(k):
                path.write_text(f"{k}\n" + "".join(f"{u} {v}\n" for u, v in t.edges))
                yield _run(capsys, ["tree", str(path)])

    assert _digest(outputs()) == "5cf18dba97b911da560c46b12f7786e9315309283010bedfd138b00d106649e2"


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--n", "3", "--m", "3"], "6b997ca8067b5872c3eaaae7477e61211172764a78a17d2f3f1f04d78656bef1"),
        (["--n", "4", "--m", "4"], "c4701daaf70cfb039581bb8fc30fc8409ee398db97671ea19340edc4c7ef9a77"),
        (["--n", "5", "--m", "5"], "e7da5a8eaefbafa17aa9d7474e61b87d2648979063a2815dec59265a9c191a52"),
        (
            ["--mode", "random", "--n", "6", "--m", "3", "--trials", "50", "--seed", "5"],
            "cf5cb0ba8c895f02dd2b54b1dc38c586ab16d2798a654b4206b62f0b8dbe1b55",
        ),
    ],
    ids=["3-3", "4-4", "5-5", "random-6-3"],
)
def test_search(capsys, argv, digest):
    assert _digest([_run(capsys, ["search", *argv])]) == digest


def test_verify_small_caps(capsys):
    out = _run(capsys, ["verify", "--n-cap", "3", "--tree-cap", "6"])
    assert _digest([out]) == "ca2647c25b586e12d5f624058cf4a1c97dadbcd1b7f3f38f9fbcfa2a9bb603e8"


def test_verify_random_n6(capsys):
    """Random n=6 sets of up to 64 points: their D, bordered Gram and
    bordered D matrices are the large determinants of the sweep."""
    argv = ["verify", "--n-cap", "2", "--tree-cap", "3", "--random-dim", "6", "--random-samples", "300"]
    out = _run(capsys, argv)
    assert _digest([out]) == "33e9c381431e3bb48dcea6da96e5c3e0184c03b3b44ee48b68e53c66be4213c1"


LARGE_SETS = [
    (6, (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60, 61, 62, 63, 7, 12)),
    (6, tuple(range(0, 64, 2)) + (1, 3, 5, 7, 9, 11, 13, 15)),
    (8, tuple((37 * i + 11) % 256 for i in range(48))),
]


def test_report_large_sets(capsys, tmp_path):
    """Sets of 16 to 48 points, more than n + 1 each and so affinely
    dependent: `report` takes det(D) = 0 from the Gram kernel, which
    stops within n + 1 tail points, and never builds their D."""

    def outputs():
        path = tmp_path / "set.txt"
        for n, bits in LARGE_SETS:
            rows = [_pattern(b, n) for b in bits]
            path.write_text(f"{n} {len(rows)}\n" + "\n".join(rows) + "\n")
            yield _run(capsys, ["report", str(path)])

    assert _digest(outputs()) == "f68486a24b996ef178e0191812b0ceb7682b799bbaaa908f1b3145788bc421df"


SET5 = "4 5\n0000\n1000\n0100\n0010\n1101\n"


def test_negtype_every_normalized_h3_subset_and_set5(capsys, tmp_path):
    """Default flags; the dependent sets' answers come from the Gram
    kernel's dependence and the independent ones' scans start from its
    corner sign."""

    def outputs():
        path = tmp_path / "set.txt"
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                rows = [_pattern(b, 3) for b in (0, *tail)]
                path.write_text(f"3 {len(rows)}\n" + "\n".join(rows) + "\n")
                yield _run(capsys, ["negtype", str(path)])
        path.write_text(SET5)
        yield _run(capsys, ["negtype", str(path)])

    assert _digest(outputs()) == "f97dfe15450cc22bf5083a657d572b39df0a7fa0899abf5574a664d7788c0ce4"
