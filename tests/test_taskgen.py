"""Snippet selection, placeholder construction, serialization, splits."""

import json

import pytest

from smartpaste import generator
from smartpaste.minilang import compile_source, reconstruct, tokenize
from smartpaste.taskgen import (INSTANCE_FORMAT_VERSION, InsufficientData,
                                NoPlaceholders, extract_instances,
                                make_instance, read_instances,
                                select_snippets, split_corpus,
                                write_instances)

from conftest import (SUM_POSITIVE, SUM_POSITIVE_TRUTH_NAMES,
                      SUM_POSITIVE_USES)


class TestExtraction:
    def test_loop_snippet_placeholders(self, sum_positive_program,
                                       sum_positive_symbols):
        # the for statement spans tokens 17..46
        inst = make_instance(sum_positive_program, (17, 46))
        assert [p.token_index for p in inst.placeholders] == \
            SUM_POSITIVE_USES
        truths = [sum_positive_program.symbol(p.truth).name
                  for p in inst.placeholders]
        assert truths == SUM_POSITIVE_TRUTH_NAMES
        for p in inst.placeholders:
            assert set(p.candidates) == set(sum_positive_symbols.values())

    def test_same_type_candidates(self, sum_positive_program,
                                  sum_positive_symbols):
        inst = make_instance(sum_positive_program, (17, 46))
        by_token = {p.token_index: p for p in inst.placeholders}
        ints = {sum_positive_symbols[n] for n in ("lim", "sum", "i")}
        assert set(by_token[24].same_type_candidates) == ints  # i : int
        assert by_token[33].same_type_candidates == \
            [sum_positive_symbols["arr"]]  # arr : int[]

    def test_defining_occurrences_not_placeholdered(self,
                                                    sum_positive_program):
        inst = make_instance(sum_positive_program, (17, 46))
        assert 20 not in [p.token_index for p in inst.placeholders]

    def test_span_without_uses_rejected(self, sum_positive_program):
        with pytest.raises(NoPlaceholders):
            make_instance(sum_positive_program, (11, 16))  # int sum = 0;

    def test_select_snippets_bounds(self, sum_positive_program):
        spans = select_snippets(sum_positive_program, max_tokens=10)
        assert spans
        assert all(hi - lo + 1 <= 10 for lo, hi in spans)

    def test_select_includes_sibling_runs(self, sum_positive_program):
        spans = select_snippets(sum_positive_program, max_tokens=80)
        # the run decl+loop+return covers the whole body
        assert (12, 49) in spans

    def test_truth_is_a_candidate_on_every_profile(self):
        """A placeholder's truth is in scope at it: no declaration outlives
        its scope (a for step's once did, and its later uses had no
        candidate matching their truth)."""
        for profile in generator.PROFILES:
            for seed in (0, 1):
                corpus = generator.generate_corpus(seed, 2, 2, profile)
                for files in corpus.values():
                    for _, src in files:
                        for inst in extract_instances(compile_source(src)):
                            for ph in inst.placeholders:
                                assert ph.truth in ph.candidates, profile

    def test_extract_ids_unique(self, sum_positive_program):
        insts = extract_instances(sum_positive_program, 80)
        ids = [i.instance_id for i in insts]
        assert len(set(ids)) == len(ids)


def _fields(instances):
    return [(inst.instance_id, inst.snippet_span,
             [t.text for t in inst.program.tokens],
             [(p.token_index, p.truth, p.candidates, p.same_type_candidates)
              for p in inst.placeholders])
            for inst in instances]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        """On every generator profile, reading back what write_instances
        wrote gives extract_instances's output, one TypedProgram per
        program, and writing it again gives the same bytes."""
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for profile in sorted(generator.PROFILES):
            for seed in (0, 1):
                insts = []
                corpus = generator.generate_corpus(seed, 2, 2, profile)
                for proj, files in sorted(corpus.items()):
                    for name, src in files:
                        insts += extract_instances(
                            compile_source(src, file_id=f"{proj}/{name}"), 60)
                write_instances(insts, str(first))
                back = read_instances(str(first))
                assert _fields(back) == _fields(insts), (profile, seed)
                assert len({id(i.program) for i in back}) == \
                    len({id(i.program) for i in insts})
                write_instances(back, str(second))
                assert second.read_bytes() == first.read_bytes()

    def test_programs_sharing_a_file_id_stay_apart(self, tmp_path):
        """Two compilations of one source, both with file id "<memory>",
        are two program records and read back as two programs."""
        a, b = compile_source(SUM_POSITIVE), compile_source(SUM_POSITIVE)
        insts = [make_instance(a, (17, 46), "a#0"),
                 make_instance(b, (17, 46), "b#0"),
                 make_instance(a, (12, 49), "a#1")]
        path = tmp_path / "x.jsonl"
        write_instances(insts, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {"format_version": INSTANCE_FORMAT_VERSION}
        assert [r["program"] for r in records[1:]] == \
            ["<memory>", 0, "<memory>", 1, 0]
        back = read_instances(str(path))
        assert back[0].program is back[2].program
        assert back[1].program is not back[0].program
        assert _fields(back) == _fields(insts)

    def test_reconstruct_truth_restores_names(self, sum_positive_program):
        inst = make_instance(sum_positive_program, (17, 46))
        prog = inst.program
        names = {p.token_index: prog.symbol(p.truth).name
                 for p in inst.placeholders}
        assert reconstruct(prog.tokens, names) == SUM_POSITIVE

    def test_reconstruct_other_symbol(self, sum_positive_program,
                                      sum_positive_symbols):
        inst = make_instance(sum_positive_program, (17, 46))
        names = {p.token_index: "sum" for p in inst.placeholders}
        texts = [t.text for t in tokenize(
            reconstruct(inst.program.tokens, names))]
        assert all(texts[p.token_index] == "sum" for p in inst.placeholders)
        assert [x for k, x in enumerate(texts) if k not in names] == \
            [t.text for t in sum_positive_program.tokens
             if t.index not in names]


class TestSplits:
    FILES = {f"proj{p}": [f"proj{p}/f{k}.ml0" for k in range(5)]
             for p in range(8)}

    def test_partition_is_exact(self):
        split = split_corpus(self.FILES, seed=3)
        everything = split.train + split.valid + split.test + \
            split.unseen_test
        assert sorted(everything) == sorted(
            f for fs in self.FILES.values() for f in fs)
        assert len(split.train) == 24  # 60% of 40
        assert len(split.valid) == 2   # 5% of 40

    def test_unseen_projects_held_out_whole(self):
        split = split_corpus(self.FILES, seed=3, unseen_fraction=0.25)
        unseen_projects = {f.split("/")[0] for f in split.unseen_test}
        assert len(unseen_projects) == 2
        for f in split.train + split.valid + split.test:
            assert f.split("/")[0] not in unseen_projects

    def test_deterministic(self):
        a = split_corpus(self.FILES, seed=9, unseen_fraction=0.25)
        b = split_corpus(self.FILES, seed=9, unseen_fraction=0.25)
        assert (a.train, a.valid, a.test, a.unseen_test) == \
            (b.train, b.valid, b.test, b.unseen_test)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            split_corpus({"p": ["p/a.ml0"]}, seed=0)
