"""One validator for every ``"auto" | "off" | <name>`` config option.

``CAFCConfig.scheme`` (plus the CLI flag that mirrors it) and the
shard ``placement`` follow the same convention: a small closed set of
lowercase names, with ``"auto"`` meaning "let the library pick" and —
where the feature can be disabled at all — ``"off"`` meaning "don't".
The validator here is shared, so the error a user sees always states
which *field* was wrong and what it accepts.
"""

from typing import Optional, Sequence

#: ``CAFCConfig.scheme`` — term-weighting scheme.  ``"auto"`` is the
#: paper's Equation 1; ``"off"`` disables corpus weighting (plain
#: LOC-weighted TF).
SCHEME_CHOICES = ("auto", "off", "eq1", "bm25", "tf")


class OptionError(ValueError):
    """A config option holds a value outside its allowed names.

    Carries the offending ``field``, the rejected ``value`` and the
    ``choices`` it accepts, so callers (CLI, HTTP layer) can render the
    failure without parsing the message.
    """

    def __init__(self, field: str, value: object, choices: Sequence[str]) -> None:
        self.field = field
        self.value = value
        self.choices = tuple(choices)
        rendered = " | ".join(repr(choice) for choice in self.choices)
        super().__init__(f"{field}: unknown value {value!r}; expected {rendered}")


def validate_option(
    field: str, value: str, choices: Sequence[str]
) -> str:
    """Return ``value`` if it is one of ``choices``, else raise
    :class:`OptionError` naming ``field``."""
    if value not in choices:
        raise OptionError(field, value, choices)
    return value


def resolve_auto(
    value: str, auto: str, off: Optional[str] = None
) -> str:
    """Map the ``"auto"`` / ``"off"`` aliases to their concrete names."""
    if value == "auto":
        return auto
    if off is not None and value == "off":
        return off
    return value
