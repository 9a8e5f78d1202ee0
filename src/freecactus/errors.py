"""Exceptions shared across the library.

The CLI maps these onto process exit codes, so keep the hierarchy flat and
the messages self-contained (they are shown to users verbatim).  Every
size cap, on the enumerations, the level scan, the word-expansion oracle
and the dp alike, is checked by ``check_cap`` before any work starts; it
is the only place that raises ``ResourceCapError``, so every refusal reads
"<what> exceeds the cap N".
"""


class ResourceCapError(RuntimeError):
    """An enumeration, oracle or dp request exceeded its configured cap.

    The message always names the cap that was hit, so callers can suggest
    raising it explicitly.
    """


def check_cap(size: int, cap: int | None, default: int, what: str) -> None:
    """Refuse ``what`` when ``size`` is above ``cap`` (``default`` when
    ``cap`` is None); a size equal to the cap passes."""
    limit = default if cap is None else cap
    if size > limit:
        raise ResourceCapError(f"{what} exceeds the cap {limit}")
