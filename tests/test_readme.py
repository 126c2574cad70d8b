"""README.md is checked against the code: its table of config keys lists
exactly ``config.KNOWN_KEYS``, in order, each with its default, and its
command table lists exactly ``cli.COMMANDS``."""

from pathlib import Path

from corrfuse import cli
from corrfuse.config import KNOWN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(section: str) -> list[list[str]]:
    """The cells of each body row of the table under ``## section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in body.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def test_the_key_table_lists_every_key_with_its_default():
    rows = table_rows("Configuration keys")
    assert [row[0] for row in rows] == [f"`{key}`" for key in KNOWN_KEYS]
    for row, (_, default, _) in zip(rows, KNOWN_KEYS.values()):
        assert row[1] == (f"`{default}`" if default != "" else ""), row[0]


def test_the_command_table_lists_every_command():
    assert [row[0] for row in table_rows("The default run")] == [f"`{name}`" for name in cli.COMMANDS]
