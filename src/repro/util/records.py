"""Checksummed record lines for the shared store's small JSON records.

A sealed record is one line of text, a tab, and the CRC32 of the text
as 8 hex digits.  JSON output never holds a raw tab, so the last tab
always starts the tag.  Damage that leaves the text well-formed (a
flipped digit, a renamed key) fails the check, so a reader treats the
record as absent or torn instead of acting on wrong values.  Shard
queue records (:mod:`repro.exp.service.queue`) and run-manifest lines
(:mod:`repro.obs.manifest`) are sealed.
"""

from __future__ import annotations

import zlib


def seal(text: str) -> str:
    """``text`` followed by a tab and its CRC32."""
    return "%s\t%08x" % (text, zlib.crc32(text.encode()))


def unseal(line: str) -> str | None:
    """The text of a sealed line, or None when its tag is missing or
    does not match."""
    text, sep, tag = line.rpartition("\t")
    if sep and tag == "%08x" % zlib.crc32(text.encode()):
        return text
    return None
