"""Coverage for rng helpers, the error hierarchy, and program dispatch."""

import pytest

from repro import errors
from repro.programs.base import (
    ExecutionResult,
    ProgramKind,
    execute_program,
    parse_program,
)
from repro.rng import (
    DEFAULT_SEED,
    choice,
    make_np_rng,
    make_rng,
    sample_up_to,
    shuffled,
    spawn,
    weighted_choice,
)
from repro.tables.values import Value


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_default_seed(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_np_rng(self):
        assert make_np_rng(3).integers(0, 100) == make_np_rng(3).integers(0, 100)

    def test_spawn_streams_are_independent(self):
        parent_a = make_rng(1)
        parent_b = make_rng(1)
        child_x = spawn(parent_a, "x")
        child_y = spawn(parent_b, "y")
        assert child_x.random() != child_y.random()

    def test_spawn_same_stream_reproducible(self):
        a = spawn(make_rng(1), "s").random()
        b = spawn(make_rng(1), "s").random()
        assert a == b

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            choice(make_rng(0), [])

    def test_sample_up_to_caps(self):
        out = sample_up_to(make_rng(0), [1, 2, 3], 10)
        assert sorted(out) == [1, 2, 3]

    def test_shuffled_does_not_mutate(self):
        items = [1, 2, 3, 4, 5]
        shuffled(make_rng(0), items)
        assert items == [1, 2, 3, 4, 5]

    def test_weighted_choice_validation(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), [1, 2], [1.0])
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), [], [])

    def test_weighted_choice_respects_weights(self):
        rng = make_rng(0)
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0])
                 for _ in range(20)}
        assert picks == {"a"}


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_column_not_found_lists_available(self):
        error = errors.ColumnNotFoundError("x", ["a", "b"])
        assert "a" in str(error)
        assert error.column == "x"

    def test_parse_error_position(self):
        error = errors.ProgramParseError("bad", position=7)
        assert "position 7" in str(error)


class TestProgramDispatch:
    def test_parse_program_all_kinds(self, players_table):
        sql = parse_program("select count ( * ) from w", "sql")
        logic = parse_program("eq { count { all_rows } ; 5 }", ProgramKind.LOGIC)
        arith = parse_program("add ( 1 , 2 )", "arith")
        assert sql.kind is ProgramKind.SQL
        assert logic.kind is ProgramKind.LOGIC
        assert arith.kind is ProgramKind.ARITH
        assert execute_program(players_table, sql).denotation() == ["5"]
        assert execute_program(players_table, logic).truth is True
        assert execute_program(players_table, arith).denotation() == ["3"]

    def test_parse_program_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_program("x", "prolog")


class TestExecutionResult:
    def test_single_requires_exactly_one(self):
        result = ExecutionResult(values=(Value.number(1), Value.number(2)))
        with pytest.raises(errors.EmptyResultError):
            result.single

    def test_require_non_empty(self):
        empty = ExecutionResult(values=())
        with pytest.raises(errors.EmptyResultError):
            empty.require_non_empty()
        boolean = ExecutionResult(values=(), truth=False)
        assert boolean.require_non_empty() is boolean

    def test_denotation_of_boolean(self):
        assert ExecutionResult(values=(), truth=True).denotation() == ["true"]
        assert ExecutionResult(values=(), truth=False).denotation() == ["false"]


class TestAtomicWriter:
    """``repro.fsio.atomic_writer``: text and binary, all-or-nothing."""

    def test_text_and_binary_round_trip(self, tmp_path):
        from repro.fsio import atomic_writer

        with atomic_writer(tmp_path / "a.txt") as handle:
            handle.write("héllo\n")
        with atomic_writer(tmp_path / "b.bin", encoding=None) as handle:
            handle.write(b"\x00\xffpayload")
        assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "héllo\n"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xffpayload"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]

    def test_failed_write_leaves_old_content(self, tmp_path):
        from repro.fsio import atomic_writer

        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_writer(target, encoding=None) as handle:
                handle.write(b"half of the new")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]
