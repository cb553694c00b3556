"""End-to-end command-line workflow: generate, extract, split, train, eval,
paste, and the dump commands, all run in-process through main()."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smartpaste
from smartpaste import evaluation, infer
from smartpaste.cli import MODEL_DEFAULTS, build_parser, main
from smartpaste.minilang import compile_source
from smartpaste.minilang.lexer import tokenize
from smartpaste.minilang.parser import parse
from smartpaste.models import Encoder, Hyper, ModelParams, build_vocab
from smartpaste.taskgen import (INSTANCE_FORMAT_VERSION, make_instance,
                                read_instances, write_instances)
from smartpaste.train import ItemCache, TrainConfig, make_items

from conftest import SUM_POSITIVE
from test_infer import SNIPPET, TARGET


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One corpus generated, extracted, and trained once for the module."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    data = str(root / "data.jsonl")
    model = str(root / "model.json")
    assert main(["generate", "--seed", "3", "--projects", "2",
                 "--files-per-project", "2", "--profile", "tiny",
                 "--out", corpus]) == 0
    assert main(["extract", "--corpus", corpus, "--out", data,
                 "--max-tokens", "40"]) == 0
    assert main(["train", "--seed", "1", "--data", data, "--valid", data,
                 "--variant", "loc", "--hidden", "4", "--epochs", "1",
                 "--checkpoint", model]) == 0
    return {"root": root, "corpus": corpus, "data": data, "model": model}


class TestGenerate:
    def test_writes_project_directories(self, workspace):
        projects = sorted(os.listdir(workspace["corpus"]))
        assert projects == ["proj00", "proj01"]
        for proj in projects:
            files = sorted(os.listdir(os.path.join(workspace["corpus"], proj)))
            assert files == ["file000.ml0", "file001.ml0"]

    def test_deterministic_bytes(self, workspace, tmp_path):
        again = str(tmp_path / "again")
        assert main(["generate", "--seed", "3", "--projects", "2",
                     "--files-per-project", "2", "--profile", "tiny",
                     "--out", again]) == 0
        for proj in ("proj00", "proj01"):
            for name in ("file000.ml0", "file001.ml0"):
                a = Path(workspace["corpus"], proj, name).read_text()
                b = Path(again, proj, name).read_text()
                assert a == b

    def test_seed_changes_output(self, workspace, tmp_path):
        other = str(tmp_path / "other")
        assert main(["generate", "--seed", "4", "--projects", "2",
                     "--files-per-project", "2", "--profile", "tiny",
                     "--out", other]) == 0
        a = Path(workspace["corpus"], "proj00", "file000.ml0").read_text()
        b = Path(other, "proj00", "file000.ml0").read_text()
        assert a != b

    @pytest.mark.parametrize("flag, value, field", [
        ("--projects", "-1", "n_projects"), ("--projects", "0", "n_projects"),
        ("--files-per-project", "0", "files_per_project")])
    def test_corpus_size_out_of_range_fails(self, tmp_path, capsys, flag,
                                            value, field):
        out = tmp_path / "corpus"
        assert main(["generate", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()


class TestExtract:
    def test_writes_jsonl(self, workspace, capsys):
        """A format_version header, then each program record before the
        instance records that name it by number."""
        records = [json.loads(line) for line
                   in Path(workspace["data"]).read_text().splitlines()]
        assert records[0] == {"format_version": INSTANCE_FORMAT_VERSION}
        programs = 0
        for record in records[1:]:
            if "instance" in record:
                assert set(record) == {"instance", "program", "span"}
                assert 0 <= record["program"] < programs
            else:
                assert set(record) == {"program", "tokens"}
                programs += 1
        assert programs and len(records) > 1 + programs

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_max_tokens_out_of_range_fails(self, workspace, tmp_path,
                                           capsys, value):
        out = tmp_path / "x.jsonl"
        assert main(["extract", "--corpus", workspace["corpus"], "--out",
                     str(out), "--max-tokens", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_tokens" in err
        assert not out.exists()

    def test_missing_corpus_fails(self, tmp_path, capsys):
        assert main(["extract", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("broken, message", [
        ("int f(int a) { return a }", "expected ';', found '}'"),
        ("int f(int a) { return b; }", "undeclared variable 'b'"),
        ("int f(int a) { return a $ a; }", "")])
    def test_broken_file_is_named(self, tmp_path, capsys, broken, message):
        """Among the files of a corpus, the error names the one that does
        not compile."""
        (tmp_path / "corpus" / "proj").mkdir(parents=True)
        (tmp_path / "corpus" / "proj" / "good.ml0").write_text(SUM_POSITIVE)
        (tmp_path / "corpus" / "proj" / "bad.ml0").write_text(broken)
        out = tmp_path / "x.jsonl"
        assert main(["extract", "--corpus", str(tmp_path / "corpus"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: proj/bad.ml0: ") and message in err
        assert not out.exists()


class TestSplit:
    def test_partitions_cover_all_files(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert main(["generate", "--seed", "5", "--projects", "5",
                     "--files-per-project", "4", "--profile", "tiny",
                     "--out", corpus]) == 0
        out = str(tmp_path / "split.json")
        assert main(["split", "--seed", "0", "--corpus", corpus,
                     "--out", out]) == 0
        split = read_json(out)
        assert sorted(split) == ["test", "train", "unseen_test", "valid"]
        seen = split["train"] + split["valid"] + split["test"] \
            + split["unseen_test"]
        assert sorted(seen) == sorted(
            f"{proj}/{name}"
            for proj in os.listdir(corpus)
            for name in os.listdir(os.path.join(corpus, proj)))
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    def test_unseen_fraction_out_of_range_fails(self, tmp_path, capsys,
                                                value):
        corpus = str(tmp_path / "corpus")
        assert main(["generate", "--seed", "5", "--projects", "5",
                     "--files-per-project", "4", "--profile", "tiny",
                     "--out", corpus]) == 0
        out = tmp_path / "split.json"
        assert main(["split", "--corpus", corpus, "--unseen-fraction",
                     value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unseen_fraction" in err
        assert not out.exists()

    def test_too_few_files_fails(self, workspace, tmp_path, capsys):
        assert main(["split", "--seed", "0", "--corpus",
                     workspace["corpus"],
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "empty partition" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_written(self, workspace):
        record = read_json(workspace["model"])
        assert record["config"]["variant"] == "loc"
        assert "epoch" in record["config"]

    def test_deterministic_checkpoint_bytes(self, workspace, tmp_path,
                                            capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            assert main(["train", "--seed", "1", "--data",
                         workspace["data"], "--valid", workspace["data"],
                         "--variant", "loc", "--hidden", "4", "--epochs", "1",
                         "--checkpoint", path]) == 0
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_overrides_flags(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# comment\nhidden = 4\nepochs = 1\n")
        path = str(tmp_path / "cfg-model.json")
        assert main(["train", "--seed", "1", "--data", workspace["data"],
                     "--valid", workspace["data"], "--variant", "loc",
                     "--hidden", "64", "--epochs", "9",
                     "--config", str(cfg), "--checkpoint", path]) == 0
        record = read_json(path)
        assert record["config"]["hyper"]["hidden"] == 4

    def test_bad_config_line_fails(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "m.json")]) == 1
        assert "bad config line" in capsys.readouterr().err

    def test_bad_config_value_names_key_and_file(self, workspace, tmp_path,
                                                 capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden = 4.5\n")
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == \
            f"error: hidden in {cfg} must be int, got '4.5'\n"

    def test_malformed_record_fails(self, workspace, tmp_path, capsys):
        for path, line in _malformed_records(workspace, tmp_path):
            assert main(["train", "--data", path, "--valid",
                         workspace["data"], "--checkpoint",
                         str(tmp_path / "m.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: {path}:{line}: bad instance record")
            assert "Traceback" not in err

    def test_resume_continues_epoch_numbering(self, workspace, tmp_path,
                                              capsys):
        path = str(tmp_path / "resumed.json")
        assert main(["train", "--seed", "1", "--data", workspace["data"],
                     "--valid", workspace["data"], "--resume",
                     workspace["model"], "--epochs", "1",
                     "--checkpoint", path]) == 0
        first = read_json(workspace["model"])["config"]["epoch"]
        assert read_json(path)["config"]["epoch"] == first + 1

    @pytest.mark.parametrize("flag, value, saved", [
        ("--variant", "grug", "'loc'"), ("--hidden", "8", "4"),
        ("--context-encoder", "gru", "'logbilinear'")])
    def test_resume_rejects_a_different_model_option(
            self, workspace, tmp_path, capsys, flag, value, saved):
        """The checkpoint (a `loc`, hidden-4, log-bilinear model) fixes the
        model: a different explicit option is an error, not ignored."""
        path = tmp_path / "resumed.json"
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--resume", workspace["model"],
                     flag, value, "--epochs", "1",
                     "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} is ")
        assert value in err and saved in err and workspace["model"] in err
        assert not path.exists()

    def test_resume_rejects_a_different_config_key(self, workspace, tmp_path,
                                                   capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("variant = avgg\n")
        path = tmp_path / "resumed.json"
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--resume", workspace["model"],
                     "--config", str(cfg), "--epochs", "1",
                     "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: variant in {cfg} is 'avgg', but checkpoint "
            f"{workspace['model']} has 'loc'\n")
        assert not path.exists()

    def test_resume_accepts_the_checkpoint_model_options(
            self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("context_encoder = logbilinear\n")
        path = str(tmp_path / "resumed.json")
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--resume", workspace["model"],
                     "--variant", "loc", "--hidden", "4", "--config",
                     str(cfg), "--epochs", "1", "--checkpoint", path]) == 0
        assert read_json(path)["config"]["variant"] == "loc"

    def test_empty_valid_fails(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["train", "--data", workspace["data"], "--valid",
                     str(empty), "--variant", "loc", "--hidden", "4",
                     "--epochs", "1", "--checkpoint",
                     str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty.jsonl" in err

    def test_empty_data_fails(self, workspace, tmp_path, capsys):
        """An empty training file is an error, not an untrained model."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(empty), "--valid",
                     workspace["data"], "--variant", "loc", "--hidden", "4",
                     "--epochs", "1", "--checkpoint", str(model)]) == 1
        assert capsys.readouterr().err == f"error: no instances in {empty}\n"
        assert not model.exists()

    def test_unknown_config_keys_fail(self, workspace, tmp_path, capsys):
        """A misspelt key is an error that names it and lists the known
        ones, not a setting that is silently ignored."""
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("epoch = 1\nhidden = 4\nlearning_rate = 5\n")
        model = tmp_path / "m.json"
        assert main(["train", "--data", workspace["data"], "--valid",
                     workspace["data"], "--variant", "loc", "--config",
                     str(cfg), "--checkpoint", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "epoch, learning_rate" in err
        for key in ("variant", "context_encoder", "hidden", "epochs",
                    "batch_size", "lr", "patience"):
            assert key in err
        assert not model.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--epochs", "0", "epochs"), ("--hidden", "0", "hidden"),
        ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-3", "batch_size"), ("--lr", "-1", "lr"),
        ("--lr", "0", "lr"), ("--lr", "nan", "lr"),
        ("--patience", "0", "patience"), ("--patience", "-2", "patience")])
    def test_option_out_of_range_fails(self, workspace, tmp_path, capsys,
                                       flag, value, field):
        """An out-of-range option is an error that names it, not a
        traceback or a checkpoint of an untrained model."""
        model = tmp_path / "m.json"
        args = {"--variant": "loc", "--hidden": "4", "--epochs": "1",
                flag: value}
        argv = ["train", "--data", workspace["data"], "--valid",
                workspace["data"], "--checkpoint", str(model)]
        for name, v in args.items():
            argv += [name, v]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not model.exists()

    def test_missing_valid_exits_2(self, workspace, tmp_path, capsys):
        """Early stopping needs held-out data: there is no fallback to the
        training set."""
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", workspace["data"], "--checkpoint",
                  str(tmp_path / "m.json")])
        assert e.value.code == 2
        assert "--valid" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def _malformed_records(workspace, tmp_path):
    """(path, line) of instance files that each break one record: line 3,
    the first instance record, is bad JSON, lacks its span, names program -1
    or a program not yet defined, or has a span past the last token or
    without a variable use; or line 1 is a record in the unversioned format
    that had no header, or a header of another version."""
    with open(workspace["data"]) as f:
        header, program, instance = f.readline(), f.readline(), f.readline()
    n_tokens = len(json.loads(program)["tokens"])
    broken = ['{"instance": ']
    for key, value in [("span", None), ("program", -1), ("program", 1),
                       ("span", [0, n_tokens]), ("span", [0, 0])]:
        rec = json.loads(instance)
        if value is None:
            del rec[key]
        else:
            rec[key] = value
        broken.append(json.dumps(rec))
    files = [(header + program + bad + "\n", 3) for bad in broken]
    unversioned = {"instance_id": "x#0", "program_id": "x",
                   "snippet_span": [0, 0], "placeholders": [], "symbols": [],
                   "tokens": [{"kind": "ident", "symbol_id": 0,
                               "text": "x"}], "types": []}
    files += [(json.dumps(unversioned) + "\n", 1),
              ('{"format_version": 2}\n' + program + instance, 1)]
    for k, (text, line) in enumerate(files):
        path = tmp_path / f"bad{k}.jsonl"
        path.write_text(text)
        yield str(path), line


class TestEval:
    def test_malformed_record_fails(self, workspace, tmp_path, capsys):
        for path, line in _malformed_records(workspace, tmp_path):
            assert main(["eval", "--data", path, "--model",
                         workspace["model"], "--restarts", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: {path}:{line}: bad instance record")
            assert "Traceback" not in err

    def test_all_sections(self, workspace, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--restarts", "1",
                     "--max-sweeps", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-placeholder" in out
        assert "full-snippet" in out
        assert "accuracy" in out

    @pytest.mark.parametrize("flag, value, field", [
        ("--restarts", "0", "restarts"), ("--max-sweeps", "-3", "max_sweeps")])
    def test_search_option_out_of_range_fails(self, workspace, capsys, flag,
                                              value, field):
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--mode", "full-snippet",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_search_option_checked_before_any_section(self, workspace,
                                                      capsys, monkeypatch):
        """With the default --mode all, a bad --restarts exits 1 before the
        per-placeholder section, which comes first, is computed."""
        calls = []
        monkeypatch.setattr(evaluation, "eval_per_placeholder",
                            lambda *args: calls.append(args))
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--restarts", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "restarts" in err
        assert calls == []

    def test_single_mode(self, workspace, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--mode", "per-placeholder"]) == 0
        out = capsys.readouterr().out
        assert "per-placeholder" in out and "full-snippet" not in out

    def test_missing_model_fails(self, workspace, tmp_path, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["no params", "not an object",
                                       "record without data"])
    def test_structurally_wrong_checkpoint_fails(self, workspace, tmp_path,
                                                 capsys, shape):
        with open(workspace["model"]) as f:
            doc = json.load(f)
        if shape == "no params":
            doc = {"format_version": doc["format_version"]}
        elif shape == "not an object":
            doc = [1]
        else:
            del next(iter(doc["params"].values()))["data"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", "--data", workspace["data"], "--model",
                     str(bad), "--mode", "per-placeholder"]) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint")


class TestPaste:
    def test_rewrites_target(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        out = tmp_path / "out.ml0"
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model",
                     workspace["model"], "--restarts", "1",
                     "--max-sweeps", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("->") == 8  # one decision line per placeholder
        parse(tokenize(out.read_text()))

    @pytest.mark.parametrize("flag, value, field", [
        ("--restarts", "0", "restarts"), ("--max-sweeps", "-1", "max_sweeps")])
    def test_search_option_out_of_range_fails(self, workspace, tmp_path,
                                              capsys, flag, value, field):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        out = tmp_path / "out.ml0"
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model",
                     workspace["model"], flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_variant_mismatch_fails(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model",
                     workspace["model"], "--variant", "hybrid"]) == 1
        assert "variant" in capsys.readouterr().err

    def test_bad_at_argument_fails(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "nowhere", "--model",
                     workspace["model"]]) == 1
        assert "LINE:COL" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [["--at", "3:0"], ["--at", "3:-2"],
                                    ["--at=-1:3"]])
    def test_position_below_one_fails(self, workspace, tmp_path, capsys, at):
        """Lines and columns count from 1; 3:0 used to paste at 3:1."""
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        out = tmp_path / "out.ml0"
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), *at, "--model", workspace["model"],
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --at expects LINE:COL with LINE, "
                              "COL >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("side, text, message", [
        ("target", TARGET.replace("return sum;", "return sum $ 1;"),
         "target does not compile: illegal character '$' at 3:14"),
        ("snippet", "c = a $ b;",
         "snippet does not parse: illegal character '$' at 1:7")])
    def test_lex_error_names_the_input(self, workspace, tmp_path, capsys,
                                       side, text, message):
        sources = {"target": TARGET, "snippet": SNIPPET, side: text}
        for name, source in sources.items():
            (tmp_path / f"{name}.ml0").write_text(source)
        assert main(["paste", "--target", str(tmp_path / "target.ml0"),
                     "--snippet", str(tmp_path / "snippet.ml0"), "--at",
                     "3:3", "--model", workspace["model"]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key, value", [
        ("variant", None), ("hyper", None), ("types", None),
        ("lexemes", None), ("variant", 3), ("hyper", [16]),
        ("types", "int"), ("lexemes", [1, 2])])
    def test_malformed_checkpoint_fails(self, workspace, tmp_path, capsys,
                                        key, value):
        with open(workspace["model"]) as f:
            doc = json.load(f)
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        assert self._paste_with(doc, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    def _paste_with(self, doc, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        return main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model", str(bad)])

    @pytest.mark.parametrize("field, value", [
        ("window", 0), ("type_dropout", 1.0), ("hidden", 4.0),
        ("hidden", True), ("window", 2.5), ("chain_len", 2.5),
        ("tree_depth", 1.5), ("unk_types", "no"), ("type_dropout", "0.5")])
    def test_out_of_range_hyper_fails(self, workspace, tmp_path, capsys,
                                      field, value):
        """window 0 crashed context encoding; type_dropout 1 never ends
        the training encoder's redraw loop; a size that is not an integer
        crashed building the model, or silently truncated a chain or a
        tree; the string "no" made every type unknown."""
        with open(workspace["model"]) as f:
            doc = json.load(f)
        doc["config"]["hyper"][field] = value
        assert self._paste_with(doc, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and field in err

    @pytest.mark.parametrize("field, value, names, context_encoder", [
        pytest.param("hidden", 1000000, "'w_c'", "logbilinear",
                     id="hidden-1000000-'w_c'"),
        pytest.param("window", 100000, "window", "logbilinear",
                     id="window-100000-window"),
        pytest.param("window", 100000, "window", "gru",
                     id="window-100000-window-gru")])
    def test_huge_hyper_size_fails_before_allocating(self, workspace,
                                                     tmp_path, field, value,
                                                     names, context_encoder):
        """A `hyper` size the stored parameters do not have, or beyond
        `MAX_WINDOW`, is rejected before a model of that size is built:
        hidden 1000000 would need terabytes, window 100000 200,000
        log-bilinear matrices, and a GRU-context checkpoint, which stores
        nothing sized by the window, 200,000 GRU steps per position.  The
        paste runs in its own process with its address space capped at
        1 GiB, so a regression fails with a MemoryError there, not here."""
        model = workspace["model"]
        if context_encoder == "gru":
            params, _ = ModelParams.load(model)
            model = str(tmp_path / "gru.json")
            ModelParams(params.variant, Hyper(hidden=params.hyper.hidden,
                                              context_encoder="gru"),
                        params.type_names, params.lexemes).save(model)
        with open(model) as f:
            doc = json.load(f)
        doc["config"]["hyper"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        (tmp_path / "target.ml0").write_text(TARGET)
        (tmp_path / "snippet.ml0").write_text(SNIPPET)
        cap = 1 << 30
        script = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                  "from smartpaste.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       smartpaste.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, "paste", "--target",
             str(tmp_path / "target.ml0"), "--snippet",
             str(tmp_path / "snippet.ml0"), "--at", "3:3", "--model",
             str(bad)], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("error: checkpoint")
        assert names in done.stderr and str(value) in done.stderr
        assert "Traceback" not in done.stderr and len(done.stderr) < 200

    @pytest.mark.parametrize("case", ["shape", "nan"])
    def test_bad_parameter_values_fail(self, workspace, tmp_path, capsys,
                                       case):
        """A vector stored for the (4, 8) matrix w_c would broadcast into
        equal rows; a NaN would make every ranking fall back to id order."""
        with open(workspace["model"]) as f:
            doc = json.load(f)
        rec = doc["params"]["w_c"]
        if case == "shape":
            rec["shape"], rec["data"] = [8], rec["data"][:8]
        else:
            rec["data"][3] = float("nan")
        assert self._paste_with(doc, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint parameter 'w_c'")
        if case == "shape":
            assert "(8,)" in err and "(4, 8)" in err


class TestDumps:
    def test_dump_dataflow(self, workspace, tmp_path, capsys):
        src = tmp_path / "f.ml0"
        src.write_text(TARGET)
        assert main(["dump-dataflow", "--file", str(src)]) == 0
        out = capsys.readouterr().out
        # one tab-separated line per occurrence; entry params seed from eps
        assert out.startswith("6\t0\t-\t-\teps\teps\n")
        assert len(out.splitlines()) == 4  # arr, lim, sum decl + use

    def test_dump_usage_vectors(self, workspace, capsys):
        assert main(["dump-usage-vectors", "--data", workspace["data"],
                     "--model", workspace["model"], "--limit", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_dump_usage_vectors_negative_limit_fails(self, workspace,
                                                     capsys):
        assert main(["dump-usage-vectors", "--data", workspace["data"],
                     "--model", workspace["model"], "--limit", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--limit" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("variant", ["grud", "hybrid"])
    def test_dump_usage_vectors_are_the_scored_ones(self, tmp_path, capsys,
                                                   variant):
        """Each placeholder's vectors come from its item's use graph (that
        placeholder unbound, the others at truth), as in training and
        evaluation, not from the program with every placeholder bound."""
        data, model = str(tmp_path / "loop.jsonl"), str(tmp_path / "m.json")
        write_instances([make_instance(compile_source(SUM_POSITIVE),
                                       (17, 46), "loop#0")], data)
        inst = read_instances(data)[0]
        params = ModelParams(variant, Hyper(hidden=4, tree_depth=4),
                             *build_vocab([inst]), seed=2)
        params.save(model)
        assert main(["dump-usage-vectors", "--data", data,
                     "--model", model]) == 0
        got = {(int(r[1]), int(r[2])): np.array(r[4:], dtype=float)
               for r in (line.split("\t")
                         for line in capsys.readouterr().out.splitlines())}
        want = {}
        for item in make_items([inst]):
            enc = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
            u = enc.usage_reprs(ItemCache().graph(item), item.token,
                                item.candidates).data
            for k, v in enumerate(item.candidates):
                want[(item.token, v)] = u[:, k]
        assert sorted(got) == sorted(want)
        for key, values in want.items():
            assert np.abs(got[key] - values).max() <= 1e-12

    def test_unparseable_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.ml0"
        bad.write_text("int f( {")
        assert main(["dump-dataflow", "--file", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestOSErrors:
    """A path the operating system refuses is exit 1 with a message."""

    def _fails(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_directory_as_source_file(self, tmp_path, capsys):
        self._fails(["dump-dataflow", "--file", str(tmp_path)], capsys)

    def test_output_below_a_regular_file(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        self._fails(["generate", "--projects", "1", "--out",
                     str(plain / "sub")], capsys)


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_bad_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["generate", "--profile", "quantum", "--out", "x"])
        assert e.value.code == 2

    def test_defaults_are_the_library_defaults(self):
        """train, eval and paste without their options run with the
        defaults of TrainConfig, Hyper and the search functions."""
        parse_args = build_parser().parse_args
        args = parse_args(["train", "--data", "d", "--valid", "v"])
        config = TrainConfig()
        assert (args.epochs, args.batch_size, args.lr, args.patience) == \
            (config.epochs, config.batch_size, config.lr, config.patience)
        hyper = Hyper()
        assert (MODEL_DEFAULTS["hidden"], MODEL_DEFAULTS["context_encoder"]) \
            == (hyper.hidden, hyper.context_encoder)
        for argv, function in (
                (["eval", "--data", "d", "--model", "m"],
                 evaluation.eval_full_snippet),
                (["paste", "--target", "t", "--snippet", "s", "--at", "1:1",
                  "--model", "m"], infer.paste)):
            args = parse_args(argv)
            for fn in (function, infer.icm):
                defaults = inspect.signature(fn).parameters
                assert args.restarts == defaults["restarts"].default
                assert args.max_sweeps == defaults["max_sweeps"].default

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("SMARTPASTE_SEED", "42")
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.seed == 42

    @pytest.mark.parametrize("value", ["", None])
    def test_seed_env_empty_or_unset_is_0(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("SMARTPASTE_SEED", raising=False)
        else:
            monkeypatch.setenv("SMARTPASTE_SEED", value)
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.seed == 0

    def test_bad_seed_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SMARTPASTE_SEED", "forty-two")
        with pytest.raises(SystemExit) as e:
            main(["generate", "--out", "x"])
        assert e.value.code == 2
        assert "forty-two" in capsys.readouterr().err
