"""Exception types shared across the package."""


class MetadiskError(Exception):
    """Base class for every failure raised by this package."""


class NonFinite(MetadiskError):
    """A sampled value came back inf or NaN."""


class IllConditioned(MetadiskError):
    """A least-squares system is too close to rank deficient to trust."""


class SchemaViolation(ValueError):
    """An input document does not match its JSON schema.

    Bad input, not a numerical failure, so not a MetadiskError.  ``message``
    and ``path`` (the keys and indices from the document's root to the
    offending value) read as jsonschema's best match reads them.
    """

    def __init__(self, message: str, path: tuple):
        super().__init__(message)
        self.message = message
        self.path = path
