"""The canonical digit map for one value, and the lift that turns a
per-value digit map into the digit routine ``ultrametric.audit`` reads.

A test breaks the digit map with ``monkeypatch.setattr(audit,
"_digit_columns", lift(psi))``: the isometry's enumeration, its sweep of
sampled pairs and ``audit.mixed_radix_digits`` then all read psi.
"""

from itertools import compress

from ultrametric import audit

_columns = audit._digit_columns  # bound at import, before a test replaces it


def digits(a, radix):
    """The canonical digit word of a, read through the routine bound at import."""
    return tuple(column[0] for column in _columns((a,), radix))


def lift(psi):
    """The digit routine whose word of a is psi(a, radix): it yields the
    level-k digits of the values still kept, k = 1..L, and a mask sent in
    place of ``next`` keeps the values where it is true."""

    def columns(values, radix):
        words = [psi(a, radix) for a in values]
        for k in range(radix.depth):
            keep = yield [w[k] for w in words]
            if keep is not None:
                words = list(compress(words, keep))

    return columns
