"""The byte scanner that reads an instance's arrays, against ``json``.

``cli._load_json`` offers a document of ``cli.SCAN_MIN_BYTES`` or more to
``docscan.read_instance``; these tests lower the constant to 0 so that
every document is offered.  Whatever the scanner takes must give the
instance that ``json`` gives, column for column and bit for bit; whatever
it declines goes to ``json``, so that errors stay the same too.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from riskplan import cli, docscan
from riskplan.cli import GeneratorSpec, generate_instance, run_cli
from riskplan.model import instance_from_dict, instance_to_dict
from test_golden import CASES, GOLDEN, case_argv

SRC = str(Path(cli.__file__).resolve().parent.parent)


@contextmanager
def scan_limit(size: int):
    saved = cli.SCAN_MIN_BYTES
    cli.SCAN_MIN_BYTES = size
    try:
        yield
    finally:
        cli.SCAN_MIN_BYTES = saved


@contextmanager
def scan_spy():
    """Record, for each document offered to the scanner, whether it took it."""
    taken = []
    read = docscan.read_instance

    def spy(data, hook):
        doc = read(data, hook)
        taken.append(doc is not None)
        return doc

    docscan.read_instance = spy
    try:
        yield taken
    finally:
        docscan.read_instance = read


def outcome(path: Path, scan: bool):
    """What ``_load_json`` then ``instance_from_dict`` make of a file: the
    instance's numbers as bit patterns, or the error."""
    with scan_limit(0 if scan else 1 << 62):
        try:
            inst = instance_from_dict(cli._load_json(str(path)))
        except Exception as exc:  # the same error either way, whatever it is
            return ("error", type(exc).__name__, str(exc))
    t = inst.packages
    catalogs = None if inst.per_epoch_packages is None else [c.tolist() for c in inst.per_epoch_packages]
    return ("ok", np.float64(inst.theta).view(np.uint64), inst.horizon, t.ids.tolist(),
            t.rewards.view(np.uint64).tolist(), t.rhos.view(np.uint64).tolist(), catalogs)


def same_either_way(path: Path) -> bool:
    """Assert that the scanner and ``json`` agree on a file; return
    whether the scanner took it."""
    with scan_spy() as taken:
        scanned = outcome(path, scan=True)
    assert scanned == outcome(path, scan=False)
    return taken == [True]


# --- documents -----------------------------------------------------------------

#: Significands of the lengths that sit around the fast path (15 digits), a
#: double's round trip (17) and int64's reach (19, 20).
DIGITS = st.sampled_from([1, 2, 15, 16, 17, 18, 19, 20]).flatmap(
    lambda n: st.tuples(st.integers(1, 9), st.text("0123456789", min_size=n - 1, max_size=n - 1)))


@st.composite
def decimal_text(draw):
    lead, rest = draw(DIGITS)
    digits = str(lead) + rest
    point = draw(st.integers(1, len(digits)))
    if point > 1 and draw(st.booleans()):
        digits, point = "0" * draw(st.integers(1, 3)) + digits, 1  # 0.000ddd
    text = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(0, 40)))
    return draw(st.sampled_from(["", "-"])) + text


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.floats(0, 10).map(lambda x: "%.17g" % x),
    st.floats(0, 1).map(repr),
    st.floats(0, 5e-324 * 2**52).map(lambda x: "%.17g" % x),  # subnormal
    st.integers(-10**21, 10**21).map(str),
    decimal_text(),
    st.sampled_from([
        "0", "-0", "0.0", "-0.0", "1", "1e400", "-1e400", "1e-400", "4.9406564584124654e-324",
        "2.2250738585072014e-308", "1.7976931348623157e308", "9007199254740993", "9007199254740993.0",
        "1E+2", "1e-5", "1.0000000000000001e-05", "123456789012345678", "0.10000000000000001",
    ]),
)

#: What may stand where a number should: json decides.
ODD_TEXT = st.sampled_from(["NaN", "Infinity", "-Infinity", "01", "1.", ".5", "+1", "1e", "--1", "true",
                            "null", '"1.5"', "[1]", "{}"])

ID_TEXT = st.one_of(
    st.integers(0, 10**4).map(str),
    st.integers(-10**18 + 1, 10**18 - 1).map(str),
    st.integers(-2**63, 2**63 - 1).map(str),
    st.sampled_from(["-0", "1.0", "1e3", "true", "07", '"3"', "999999999999999999", "1000000000000000000",
                     str(2**63 - 1), str(2**63)]),
)

#: Whitespace between tokens: one choice for the whole document, as writers
#: lay documents out, or a fresh draw at every place.
SPACE = st.sampled_from(["", " ", "\n", "\n  ", "\t", "\r\n", "  \n    "])


@st.composite
def instance_text(draw):
    """An instance document, most often one that a program would write;
    one in four has a flaw somewhere (a layout that changes from place to
    place, a package with other keys, a value that is not a number)."""
    flawed = draw(st.integers(0, 3)) == 0
    uniform = not flawed or draw(st.booleans())
    fixed = {}

    def ws(place: str) -> str:
        if uniform:
            if place not in fixed:
                fixed[place] = draw(SPACE)
            return fixed[place]
        return draw(SPACE)

    def obj(items, place):
        if not items:
            return "{" + ws(place) + "}"
        return "{" + ws(place) + ("," + ws(place)).join(
            f'"{k}"{ws(place + ":")}:{ws(place + ":v")}{v}' for k, v in items) + ws(place + "}") + "}"

    def array(items, place):
        if not items:
            return "[" + ws(place + "[]") + "]"
        return "[" + ws(place) + ("," + ws(place + ",")).join(items) + ws(place + "]") + "]"

    def flaw() -> bool:
        return flawed and draw(st.integers(0, 3)) == 0

    n = draw(st.integers(0, 6))
    ids = [str(i) for i in range(n)]
    if draw(st.integers(0, 2)) == 0:
        ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n))
    packages = []
    for pkg_id in ids:
        value = st.one_of(NUMBER_TEXT, ODD_TEXT) if flaw() else NUMBER_TEXT
        items = [("id", pkg_id), ("reward", draw(value)), ("rho", draw(value))]
        odd = draw(st.sampled_from(["order", "extra", "missing", "duplicate", "escape"])) if flaw() else ""
        if odd == "order":
            items = draw(st.permutations(items))
        elif odd == "extra":
            items.append(("name", '"x"'))
        elif odd == "missing":
            items.pop(draw(st.integers(0, 2)))
        elif odd == "duplicate":
            items.append(items[draw(st.integers(0, 2))])
        elif odd == "escape":
            items[0] = ("\\u0069d", items[0][1])  # "id", escaped
        packages.append(obj(items, "package"))
    doc = [("theta", draw(st.sampled_from(["1.5", "0", "3", "-1", "true", "1e400"]))),
           ("horizon", draw(st.sampled_from(['{"finite": 3}', '"infinite"', '{"finite": 2.5}', "{}"]))),
           ("packages", array(packages, "packages"))]
    if draw(st.booleans()):
        known = ids or ["0"]
        listed = st.sampled_from(known + ["3", "-1", "1.5"]) if flaw() else st.sampled_from(known)
        lists = draw(st.lists(st.lists(listed, max_size=4), max_size=4))
        doc.append(("per_epoch_packages", array([array(ids_, "list") for ids_ in lists], "lists")))
    extra = draw(st.sampled_from(["unicode", "escape", "duplicate", "duplicate packages", "control"]
                                 if flaw() else ["none", "none", "plain", "nested"]))
    if extra == "plain":
        doc.append(("note", '[1, 2, {"a": null}]'))
    elif extra == "nested":
        doc.append(("meta", '{"packages": [{"id": 1, "reward": 1, "rho": 1}]}'))
    elif extra == "unicode":
        doc.append(("note", '"café"'))
    elif extra == "escape":
        doc.append(("note", '"a\\"b\\\\"'))
    elif extra == "duplicate":
        doc.append(("theta", "2"))
    elif extra == "duplicate packages":
        doc.append(("packages", "[]"))
    elif extra == "control":
        doc.append(("note", '"a\x01b"'))
    doc = draw(st.permutations(doc)) if draw(st.booleans()) else doc
    return ws("lead") + obj(doc, "top") + ws("trail")


@settings(deadline=None, max_examples=400)
@given(text=instance_text())
def test_scanned_documents_read_as_json_reads_them(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "instance.json"
    path.write_bytes(text.encode("utf-8"))
    event("scanned" if same_either_way(path) else "declined")


@settings(deadline=None, max_examples=200)
@given(tokens=st.lists(st.one_of(NUMBER_TEXT, ODD_TEXT.filter(lambda t: t[0] in "-0123456789")),
                       min_size=1, max_size=40))
def test_numbers_of_a_compact_layout(tokens, tmp_path_factory):
    """Every reward and rho of a layout that the scanner takes, whatever
    the numbers are; it declines only where a token is not a number."""
    rows = ",".join(f'{{"id":{i},"reward":{t},"rho":{tokens[-1 - i]}}}' for i, t in enumerate(tokens))
    path = tmp_path_factory.mktemp("doc") / "instance.json"
    path.write_text(f'{{"theta":1,"horizon":{{"finite":2}},"packages":[{rows}]}}')
    scanned = same_either_way(path)
    valid = all(_is_json_number(t) and len(t) <= 40 for t in tokens)
    assert scanned == valid


def _is_json_number(text: str) -> bool:
    return re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?", text) is not None


# --- the number kernel ------------------------------------------------------------


def read_floats(tokens: list[str]):
    """``docscan._floats`` of tokens in a list, as bit patterns (None if it declines)."""
    text = "[" + ",".join(tokens) + "]"
    span = np.frombuffer(text.encode(), np.uint8)
    ends = np.cumsum([len(t) + 1 for t in tokens])
    starts = ends - np.array([len(t) for t in tokens])
    out = docscan._floats(span, starts, ends)
    return None if out is None else out.view(np.uint64).tolist()


def json_floats(tokens: list[str]):
    return np.array([json.loads(t) for t in tokens], dtype=np.float64).view(np.uint64).tolist()


class TestFloatKernel:
    def check(self, tokens):
        for at in range(0, len(tokens), 20_000):
            chunk = tokens[at:at + 20_000]
            assert read_floats(chunk) == json_floats(chunk)

    def test_generated_instances(self):
        rng = np.random.default_rng(11)
        values = np.concatenate((rng.uniform(0, 10, 40_000), rng.uniform(0, 1, 40_000),
                                 rng.uniform(0, 1e-3, 5_000), 10.0 ** rng.uniform(-30, 30, 20_000)))
        self.check(["%.17g" % v for v in values.tolist()])
        self.check([repr(v) for v in values.tolist()])
        self.check(["%.15g" % v for v in values.tolist()])

    def test_ties_and_near_ties(self):
        """Midpoints between two doubles, and the decimals one unit of
        their last digit away, written as decimals of at most 19 digits
        or with an exponent: at a midpoint the candidate's residual equals
        half a gap, so the row goes to ``float``, which rounds half to
        even."""
        rng = np.random.default_rng(5)
        tokens = []
        for x in (2.0 ** rng.uniform(50, 61.9, 4000)).tolist():
            middle = Fraction(x) + Fraction(math.ulp(x)) / 2
            places = 0
            while middle.denominator != 1:
                middle, places = middle * 10, places + 1
            for m in (int(middle) - 1, int(middle), int(middle) + 1):
                digits = str(m)
                whole = digits[:len(digits) - places] + ("." + digits[len(digits) - places:] if places else "")
                tokens += [whole, whole + ("0" if places else ".0"), digits + f"e-{places}",
                           "0." + digits + f"e{len(digits) - places}"]
        self.check(tokens)

    def test_long_significands_and_edges(self):
        rng = np.random.default_rng(3)
        tokens = []
        for digits in (15, 16, 17, 18, 19, 20, 25):
            ints = rng.integers(10 ** (min(digits, 18) - 1), 10 ** min(digits, 18), 2000)
            for m in ints.tolist():
                text = (str(m) + "7" * max(digits - 18, 0))
                point = int(rng.integers(1, digits + 1))
                tokens.append(text[:point] + "." + text[point:] if point < digits else text)
        tokens += ["0", "-0", "0.0", "-0.0", "0e5", "-0e-5", "1e22", "1e23", "1e-22", "1e-23",
                   "9007199254740992", "9007199254740993", "-9007199254740993", "4611686018427387903",
                   "4611686018427387904.5", "1e308", "1e309", "1e-324", "2e-324", "5e-324",
                   "2.2250738585072011e-308", "1.7976931348623158e308", "123456789012345678e-40"]
        self.check(tokens)
        self.check(["-" + t.lstrip("-") for t in tokens])

    def test_an_integer_minus_zero_is_positive_and_a_fraction_keeps_its_sign(self):
        assert read_floats(["-0", "-0.0", "-0e0"]) == np.array([0.0, -0.0, -0.0]).view(np.uint64).tolist()

    def test_tokens_that_are_not_json_numbers_are_declined(self):
        for token in ["01", "1.", ".5", "1e", "-", "1.5.5", "1e5e5", "-01", "00", "1-2", "1/2", "5e", "-5e-",
                      "1." * 19 + "1", "-" + "1." * 19, ".1" * 20]:
            assert read_floats(["1", token]) is None, token


def test_integers_beyond_18_digits_are_declined():
    span = np.frombuffer(b"[1,-999999999999999999,1000000000000000000]", np.uint8)
    starts, ends = docscan._numbers(span)
    assert docscan._integers(span, starts[:2], ends[:2]).tolist() == [1, -999999999999999999]
    assert docscan._integers(span, starts, ends) is None


@pytest.mark.parametrize("token", ["1.5", "1e5", "1." * 19 + "1", "01", "-", "1-"])
def test_ids_that_are_not_integers_are_declined(token):
    span = np.frombuffer(f"[7,{token}]".encode(), np.uint8)
    starts, ends = docscan._numbers(span)
    assert docscan._integers(span, starts, ends) is None


# --- which documents take the scan -----------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_gen_output_takes_the_scan(n, tmp_path):
    path = tmp_path / "instance.json"
    assert run_cli(["gen", "-n", str(n), "-K", "4", "--seed", "3", "-o", str(path)]) == 0
    assert same_either_way(path)


def test_compact_layout_takes_the_scan(tmp_path):
    """The layout ``json.dumps(doc, separators=(",", ":"))`` writes, as the
    benchmark's set-up does, and the indented one, with per-epoch catalogs,
    empty ones among them."""
    inst = generate_instance(GeneratorSpec(n=500, epochs=5, seed=2))
    doc = instance_to_dict(inst)
    doc["packages"] = list(doc["packages"])
    doc["per_epoch_packages"] = [list(range(k, 500, k + 2)) for k in range(5)]
    path = tmp_path / "instance.json"
    for catalogs in (doc["per_epoch_packages"], [[], *doc["per_epoch_packages"][1:4], []], [[], []]):
        doc["per_epoch_packages"] = catalogs
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        assert same_either_way(path)
        path.write_text(json.dumps(doc, indent=1))
        assert same_either_way(path)


def test_golden_instances_take_the_scan():
    for name in ("gen_finite", "gen_infinite", "per_epoch_instance", "mdp_instance"):
        assert same_either_way(GOLDEN / f"{name}.json"), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs_with_every_input_offered_to_the_scan(case, tmp_path):
    argv, written = case_argv(case, tmp_path)
    with scan_limit(0):
        assert run_cli(argv) == 0
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_small_documents_do_not_import_the_scanner():
    code = ("import sys; from riskplan.cli import run_cli; "
            f"run_cli(['solve', 'finite', '-i', {str(GOLDEN / 'gen_finite.json')!r}, '-o', '/dev/null']); "
            "print('riskplan.docscan' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


# --- input that is a pipe, and repeated keys ---------------------------------------


def test_input_from_a_pipe():
    proc = subprocess.run([sys.executable, "-m", "riskplan.cli", "solve", "finite", "-i", "/dev/stdin"],
                          input=(GOLDEN / "gen_finite.json").read_bytes(), env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "solve_finite.json").read_bytes()


def test_missing_input_file(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert run_cli(["solve", "finite", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"riskplan: error: input file not found: {path}\n"


@pytest.mark.parametrize("scan", [False, True])
@pytest.mark.parametrize("text, key", [
    ('{"theta": 1, "theta": 2, "horizon": {"finite": 1}, "packages": []}', "theta"),
    ('{"theta": 1, "horizon": {"finite": 1, "finite": 2}, "packages": []}', "finite"),
    ('{"theta": 1, "horizon": {"finite": 1}, "packages": [{"id": 0, "reward": 1, "rho": 0.5}], "packages": []}',
     "packages"),
    ('{"theta": 1, "horizon": {"finite": 1}, "packages": [{"id": 0, "reward": 1, "rho": 0.5, "id": 1}]}', "id"),
])
def test_a_repeated_key_is_an_error(text, key, scan, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(text)
    with scan_limit(0 if scan else 1 << 62):
        assert run_cli(["solve", "finite", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"riskplan: error: malformed JSON document {path}: duplicate key {key!r}\n"


@pytest.mark.parametrize("key", ["packages", "per_epoch_packages", "theta"])
def test_a_document_nested_too_deeply(key, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(f'{{"{key}": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with scan_limit(0):
        assert run_cli(["solve", "finite", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"riskplan: error: malformed JSON document {path}: nested too deeply\n"


def test_a_repeated_key_in_a_plan_is_an_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"plans": [[0], [1], [2]], "plans": []}')
    argv = ["simulate", "-i", str(GOLDEN / "gen_finite.json"), "-p", str(plan), "--trials", "10", "--seed", "1"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"riskplan: error: malformed JSON document {plan}: duplicate key 'plans'\n"
