"""Seeded fuzz of dataset records through ``cli.main train`` and ``eval``, and of
feature files through ``predict --features``.

Each case damages the ``numerical`` or ``categorical`` field of one line
of a valid JSONL corpus. Every case must exit 0, or exit 1 with exactly
one ``error: --data <path>: line N: ...`` line on stderr. An exception
escaping ``main`` (a traceback, for the command) or a usage exit fails it.
The same damage to a ``--features`` file must exit 0 printing finite
probabilities, or exit 1 with exactly one ``error: --features <path>: ...``
line.
"""

import json
import math
import random
import re

import pytest

from fusenet import cli

SEED = 19

# Raw JSON text put in place of one numerical value.
NUMERICAL_VALUES = [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", str(10**400), "-" + str(10**400),
    str(2**1024 - 2**970), "9" * 5000, str(10**300), "true", "false", "null", '"1.5"',
    "[1.5]", "[]", "{}",
]
# Raw JSON text put in place of one categorical [name, value] pair.
CATEGORICAL_PAIRS = [
    '"account_state"', '["account_state"]', '["account_state", "a", "b"]',
    '["account_state", 3]', '[null, "x"]', '[["account_state"], "x"]', "true", "1e999",
    '["account_state", "never-seen"]', '["no-such-feature", "x"]',
]
# Raw JSON text put in place of a whole field.
WHOLE_FIELDS = ["3", '"x"', "null", "{}", "[]", "NaN"]
WIDTHS = ["drop-one", "add-one"]

PLACEHOLDER = '"__fuzz__"'


def cases():
    rng = random.Random(SEED)
    out = [("numerical", "value", raw) for raw in NUMERICAL_VALUES]
    out += [("categorical", "value", raw) for raw in CATEGORICAL_PAIRS]
    out += [(field, "whole", raw) for field in ("numerical", "categorical")
            for raw in WHOLE_FIELDS]
    out += [("numerical", width, None) for width in WIDTHS]
    out += [(field, "missing", None) for field in ("numerical", "categorical")]
    return [(field, how, raw, rng.randrange(1, 41), rng.random()) for field, how, raw in out]


def damage(line: str, field: str, how: str, raw: str | None, at: float) -> str:
    """``line`` with ``field`` changed as ``how`` says, ``at`` picking the entry."""
    doc = json.loads(line)
    entries = doc[field]
    j = int(at * len(entries))
    if how == "value":
        entries[j] = PLACEHOLDER
    elif how == "whole":
        doc[field] = PLACEHOLDER
    elif how == "drop-one":
        del entries[j]
    elif how == "add-one":
        entries.insert(j, 0.5)
    else:
        del doc[field]
    return json.dumps(doc).replace(json.dumps(PLACEHOLDER), raw or "", 1)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.jsonl"
    assert cli.main(["synth", "--out", str(data), "--n", "130", "--seed", "3"]) == 0
    model = root / "mlp.afn"
    assert cli.main(["train", "--data", str(data), "--variant", "mlp", "--out", str(model),
                     "--epochs", "1", "--mlp-hidden", "8"]) == 0
    return {"root": root, "lines": data.read_text(encoding="utf-8").splitlines(),
            "model": str(model)}


def test_every_damaged_record_is_accepted_or_named(corpus, capsys):
    capsys.readouterr()
    outcomes = {0: 0, 1: 0}
    for i, (field, how, raw, lineno, at) in enumerate(cases()):
        lines = list(corpus["lines"])
        lines[lineno - 1] = damage(lines[lineno - 1], field, how, raw, at)
        data = corpus["root"] / f"case-{i}.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # Line 1 sets the width; a line 1 of another width is reported at line 2.
        named = {lineno, 2} if lineno == 1 else {lineno}
        for argv in (["train", "--data", str(data), "--variant", "mlp",
                      "--out", str(corpus["root"] / f"case-{i}.afn"), "--epochs", "1",
                      "--mlp-hidden", "8"],
                     ["eval", "--model", corpus["model"], "--data", str(data)]):
            case = f"{argv[0]} {field} {how} {(raw or '')[:40]} line {lineno}"
            code = cli.main(argv)  # an exception or a usage exit fails the test here
            err = capsys.readouterr().err
            assert code in (0, 1), case
            if code == 1:
                assert len(err.splitlines()) == 1, (case, err)
                match = re.match(rf"error: --data {re.escape(str(data))}: line (\d+): ", err)
                assert match and int(match.group(1)) in named, (case, err)
            outcomes[code] += 1
    assert outcomes[0] > 0 and outcomes[1] > 0


def test_every_damaged_features_file_is_accepted_or_named(corpus, capsys):
    capsys.readouterr()
    outcomes = {0: 0, 1: 0}
    for i, (field, how, raw, lineno, at) in enumerate(cases()):
        record = json.loads(corpus["lines"][lineno - 1])
        doc = json.dumps({key: record[key] for key in ("numerical", "categorical")})
        features = corpus["root"] / f"features-{i}.json"
        features.write_text(damage(doc, field, how, raw, at), encoding="utf-8")
        case = f"predict {field} {how} {(raw or '')[:40]}"
        code = cli.main(["predict", "--model", corpus["model"], "--features", str(features)])
        out, err = capsys.readouterr()
        assert code in (0, 1), case
        if code == 1:
            assert out == "" and len(err.splitlines()) == 1, (case, err)
            assert err.startswith(f"error: --features {features}: "), (case, err)
        else:
            probs = [line.split("\t")[1] for line in out.splitlines()]
            assert len(probs) == 3 and all(math.isfinite(float(p)) for p in probs), (case, out)
        outcomes[code] += 1
    assert outcomes[0] > 0 and outcomes[1] > 0
