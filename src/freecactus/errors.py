"""Exceptions shared across the library.

The CLI maps these onto process exit codes, so keep the hierarchy flat and
the messages self-contained (they are shown to users verbatim).
"""


class ResourceCapError(RuntimeError):
    """An enumeration or oracle request exceeded its configured cap.

    The message always names the cap that was hit, so callers can suggest
    raising it explicitly.
    """
