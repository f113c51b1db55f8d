"""Business-day calendars and ISO-week keys.

The calendar is data, not code: holidays arrive as a file with one YYYY-MM-DD
date per line so the engine stays jurisdiction-neutral. Weekends are always
non-business days.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

# YYYY-MM-DD, the one form of a date in every input and artifact: 3.11's
# fromisoformat also takes week dates (2015-W02-1) and basic dates
# (20150106), 3.10's does not.
DATE_FORM = "[0-9]{4}-[0-9]{2}-[0-9]{2}"


class IsoWeek(NamedTuple):
    """ISO-8601 (year, week) key; sortable and usable as a dict key."""

    year: int
    week: int

    @classmethod
    def of(cls, day: dt.date) -> "IsoWeek":
        iso = day.isocalendar()
        return cls(iso[0], iso[1])

    @classmethod
    def parse(cls, label: str) -> "IsoWeek":
        # Accepts "2015-W03" or "2015W03", for a week that exists: 2015 has
        # no week 99 and 2016 no week 53.
        try:
            year, _, week = label.upper().partition("W")
            monday = dt.date.fromisocalendar(int(year.rstrip("-")), int(week), 1)
        except ValueError as exc:
            raise ConfigError(f"bad ISO week label {label!r}, expected YYYY-Www") from exc
        return cls.of(monday)

    @property
    def label(self) -> str:
        return f"{self.year}-W{self.week:02d}"

    def monday(self) -> dt.date:
        return dt.date.fromisocalendar(self.year, self.week, 1)

    def next(self) -> "IsoWeek":
        return IsoWeek.of(self.monday() + dt.timedelta(days=7))


@dataclass(frozen=True)
class BusinessCalendar:
    """Weekday calendar minus an explicit holiday set."""

    holidays: frozenset[dt.date] = field(default_factory=frozenset)

    @classmethod
    def from_file(cls, path: str | Path) -> "BusinessCalendar":
        """Load holidays from a text file: one YYYY-MM-DD per line, '#' comments."""
        try:
            content = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"calendar file {path} is not UTF-8 text: {exc.reason}") from exc
        days = set()
        for lineno, line in enumerate(content.splitlines(), start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                if not re.fullmatch(DATE_FORM, text):
                    raise ValueError(f"not of the form {DATE_FORM}")
                days.add(dt.date.fromisoformat(text))
            except ValueError as exc:
                raise ConfigError(f"bad holiday date {text!r} at {path}:{lineno}") from exc
        return cls(frozenset(days))

    def is_business_day(self, day: dt.date) -> bool:
        return day.weekday() < 5 and day not in self.holidays

    def business_days_in_week(self, week: IsoWeek) -> int:
        monday = week.monday()
        return sum(
            1 for i in range(7) if self.is_business_day(monday + dt.timedelta(days=i))
        )
