"""Exceptions for the server tier."""

from repro.errors import ReproError

__all__ = [
    "ServerError",
    "ConsignError",
    "IncarnationError",
    "JobStartedError",
    "UnknownUnicoreJobError",
]


class ServerError(ReproError):
    """Base class for server-tier errors."""

    code = "server.error"


class ConsignError(ServerError):
    """A consigned AJO was rejected (validation, resources, mapping)."""

    code = "server.consign"


class IncarnationError(ServerError):
    """An abstract task cannot be translated for the destination system."""

    code = "server.incarnation"


class JobStartedError(ServerError):
    """A RECLAIM found part of the job already started: it stays."""

    code = "server.job_started"


class UnknownUnicoreJobError(ServerError):
    """No UNICORE job with that identifier is known to this NJS."""

    code = "server.unknown_job"
